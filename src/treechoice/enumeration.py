"""Finite iteration over report profiles, deviations, and permutation classes.

Every iterator here is deterministic: voters are visited in sorted id order,
report spaces are ordered peaks-ascending then invited-bitmask-ascending, and
re-running an enumeration yields the identical sequence. Checkers that scan
these streams therefore produce the same minimal witness on every run.
``SituationSpace`` numbers the same streams once per tree shape and grid.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from typing import Iterator, Mapping, Sequence

from .model import (  # the anonymity classes and cache helpers are defined there and re-exported here
    AnonymityVariant,
    BudgetExceededError,
    Instance,
    PermutationClass,
    ReportedType,
    SituationKey,
    VoterId,
    _first_indices,
    _lru,
    _memoized,
    format_rational,
    participating_voters,
    permutation_classes,
)

DEFAULT_PROFILE_BUDGET = 2_000_000


def profile_space_size(instance: Instance, *, budget: int | None = None) -> int:
    """Number of joint report profiles; BudgetExceededError names it above ``budget``."""
    size = instance.profile_count
    if budget is not None and size > budget:
        raise BudgetExceededError(size, budget, what="profile enumeration")
    return size


def enumerate_profiles(
    instance: Instance,
    *,
    budget: int | None = DEFAULT_PROFILE_BUDGET,
) -> Iterator[dict[VoterId, ReportedType]]:
    """Every joint report profile, exactly once, in lexicographic order.

    Raises BudgetExceededError (naming the projected size) before yielding
    anything if the product of the per-voter space sizes exceeds ``budget``.
    """
    profile_space_size(instance, budget=budget)
    voters = instance.graph.voters
    for combo in itertools.product(*(instance.report_space(v) for v in voters)):
        yield dict(zip(voters, combo))


def peak_permutations(
    reports: Mapping[VoterId, ReportedType],
    cls: PermutationClass,
) -> Iterator[dict[VoterId, ReportedType]]:
    """All report maps obtained by permuting peaks among the class members.

    Invited sets never move, so the reported graph, the participating set,
    and the classes themselves are unchanged. The identity comes first.
    """
    members = sorted(cls.members)
    peaks = [reports[v].peak for v in members]
    for perm in itertools.permutations(peaks):
        permuted = dict(reports)
        for v, peak in zip(members, perm):
            permuted[v] = ReportedType(peak, reports[v].invited)
        yield permuted


def others_assignments(
    instance: Instance,
    voter: VoterId,
    *,
    budget: int | None = DEFAULT_PROFILE_BUDGET,
) -> Iterator[dict[VoterId, ReportedType]]:
    """Joint reports of everyone except ``voter``, in lexicographic order."""
    others = [v for v in instance.graph.voters if v != voter]
    deviation_space_size(instance, {voter: 1}, budget=budget, what="profile enumeration")
    for combo in itertools.product(*(instance.report_space(v) for v in others)):
        yield dict(zip(others, combo))


def voter_participates(
    instance: Instance,
    voter: VoterId,
    others: Mapping[VoterId, ReportedType],
) -> bool:
    """Whether ``voter`` is reachable given the others' reports.

    Participation of a voter never depends on its own report, so any report
    may stand in for it.
    """
    reports = dict(others)
    reports[voter] = instance.truthful_report(voter)
    return voter in participating_voters(instance.graph, reports, validate=False)


def deviation_space_size(
    instance: Instance,
    own_sizes: Mapping[VoterId, int],
    *,
    budget: int | None = None,
    what: str = "deviation enumeration",
) -> int:
    """Projected size of a per-voter deviation enumeration; BudgetExceededError names it above ``budget``.

    Each voter contributes every joint report of the others times
    ``own_sizes[voter]``, the reports it is tried with in each of them.
    """
    total = profile_space_size(instance)
    size = sum(total // instance.report_sizes[v] * own for v, own in own_sizes.items())
    if budget is not None and size > budget:
        raise BudgetExceededError(size, budget, what=what)
    return size


SPACE_CACHE_SIZE = 4  # shapes kept; a peak sweep visits one shape's assignments in a row


class SituationSpace:
    """The profile, deviation and anonymity streams of one tree shape, as ints.

    A situation is what an outcome rule observes (``situation_key``); ids
    number the situations in order of first appearance in
    ``enumerate_profiles``, and ``keys[s]`` is situation ``s``, spelled
    out on first use: the checkers read only ints, and the keys are built
    for the search's variables, a Sat model or a tabulation. Report
    spaces, participation and situations read only the graph and the grid,
    never true peaks, so every peak assignment of a shape shares one space
    (see ``situation_space``). The space holds no profiles: a checker that
    needs one for a witness spells it from its position (``profile_json``).

    - ``reports[voter]`` is the voter's ``report_space``, which does not
      depend on its true peak. A report's index there is its peak's grid
      index times ``invitations[k]``, plus its invited subset's bitmask over
      the sorted children, where ``k`` is the voter's index in
      ``graph.voters`` and ``invitations[k]`` counts its invited subsets.
    - ``digits[s][k]`` is the index of voter ``k``'s report in situation
      ``s``, or -1 when the voter does not take part; ``keys[s]`` spells the
      same situation out.
    - ``profile_sids[i]`` is the situation of the ``i``-th profile of
      ``enumerate_profiles``.
    - ``reached[s]`` is the bitmask of the voters taking part in situation
      ``s``, bit ``k`` for voter ``k``. It fixes each participant's
      invitations too, since a voter takes part exactly when its one parent
      does and invites it: situations with the same ``reached`` differ only
      in their participants' peaks. Rule tabulation computes a weighted
      median's weights, and ``classes`` the anonymity classes, once per
      such set.
    - ``deviation_block(voter)`` is one walk of the voter's contexts, the
      joint reports of the others under which it takes part, in
      lexicographic order. Each context gives a deviation group, the
      situation of each of the voter's reports in ``report_space`` order;
      the block keeps each distinct group once, in order of first
      appearance, with the ordinal and position of its first context, and
      counts the contexts. The checkers' SP and VR scans
      (``properties.RuleTable.rows``) and the encoder's ``deviation_vars``
      both read it.
    - ``set_classes(variant)`` maps each participation set to its anonymity
      classes of two or more voters, each as (class key, voter indices), in
      key order, computed once per set from the report digits of its first
      situation (``set_starts``); ``classes(variant)`` hands them to each
      situation.
    - ``permutations(s, variant)`` yields the peak permutations within the
      classes of situation ``s`` in ``check_anonymity``'s order, each as
      (class key, member indices, permuted peak grid indices, permuted
      situation); the check walks it from the first failing situation only,
      to find the permutation its witness cites.
    - ``orbits(variant)`` lists every orbit of two or more situations, the
      situations that permuting one class's peaks reaches from each other,
      as ascending tuples ordered by least member, then class index; the
      check reads each orbit once.
    - ``orbits`` are laid out once per participation set and class, with
      no per-situation work: the walk visits the sets, not the situations.
      Each set's first situation is where every
      participant reports peak 0; stepping the other participants' peaks by
      their ``units`` gives each class the positions where its members all
      report peak 0. One template per members tuple lists every arrangement
      of their peaks as an offset from such a position, grouped by
      multiset: each multiset at each position is one orbit.
    - ``starts[s]`` is the position where situation ``s`` first appears in
      ``enumerate_profiles``, the profile where every voter not taking part
      reports its first report; ``with_peaks`` moves from it by ``units[k]``
      per grid step of voter ``k``'s peak.
    - ``hulls`` is (lows, highs): ``lows[s]`` and ``highs[s]`` are the
      lowest and highest peak grid index that a voter taking part in
      situation ``s`` reports. ``direct_hulls`` is the same over the
      moderator's children, who always take part. The walk that numbers
      the situations fills both; the PE and depth-1 checks and the
      search's domains read them.
    - ``strides[k]`` is how far apart two positions are whose profiles
      differ by one in voter ``k``'s report index and in nothing else, and
      ``units[k]``, ``invitations[k]`` strides, how far apart they are when
      they differ by one in voter ``k``'s peak alone. Each unit is at least
      ``points`` times the next.
    - ``profile_json(position, omit)`` spells the profile at ``position``,
      without voter ``omit``, as every report and witness spells a
      profile: per voter, in order, its peak by ``format_rational`` and its
      invited children as a sorted list; ``report_json(k, r)`` spells one
      report. Both read the strings ``spelled()`` formats once per space,
      and build new dicts and lists on every call, so a witness is its
      caller's own. ``profile_at`` rebuilds the profile itself.
    - ``key_order()`` lists the situations by ascending key: a key lists
      its entries by voter, and an entry compares by voter, then peak, then
      invited tuple. It sorts integer ranks of the entries, not the keys.
    - The blocks ``cspsearch.encode`` assembles a search encoding from,
      over variables numbered by ascending key, one per key:
      ``variables()``, the variable of each situation and the keys in
      variable order; ``domains(pe, depth1_hull)``, the hull bitmask per
      variable; ``equalities(variant)``, the anonymity equalities, which
      link each orbit's situations to its least one;
      ``deviation_vars(voter)``, the voter's distinct deviation groups as
      variables, which the next two read; ``sp_rows(mode)``, the SP
      constraints of mode ``full`` or ``diffusion`` as rows over those
      groups; and ``relevance_groups(voter)``, the voter's VR groups.
    - ``grid`` is the grid and ``points`` the number of its points.
    - ``tables`` maps a rule and a preference model to the rule's table,
      its outcome per situation (``properties.RuleTable``), which
      ``properties.rule_table`` fills and bounds. The checkers' scan units
      are memoized on each table, so they are evicted with it.

    The keys, deviation blocks, classes, orbits, the anonymity templates, the
    key order, the spelled strings and the encoding blocks are computed on
    first use and kept on the space (``_memoized``), so they are evicted
    with it: every matrix cell and search on one shape and grid shares
    them, and a shape that leaves the cache rebuilds them.
    """

    def __init__(self, instance: Instance) -> None:
        graph = instance.graph
        voters = graph.voters
        self.graph = graph
        self.reports = {v: instance.report_space(v) for v in voters}
        self.invitations = [1 << len(graph.true_children(v)) for v in voters]
        sizes = [len(self.reports[v]) for v in voters]
        strides = [math.prod(sizes[k + 1 :]) for k in range(len(voters))]
        bit = {v: 1 << k for k, v in enumerate(voters)}
        # per voter and report: the bits of the voters it invites
        invites = [[sum(bit[c] for c in rep.invited) for rep in self.reports[v]] for v in voters]

        # One walk in tree order, parents first: a voter that takes part
        # branches on its reports, any other is free. Each leaf is one
        # situation: who takes part, where its profiles start with every free
        # digit 0, the report digits, and the lowest and highest peak index
        # reported, then the same over the direct children. These are walked
        # first and always take part, so once they are walked the hull so far
        # is theirs.
        points = len(instance.grid)
        leaves = [
            (sum(bit[v] for v in graph.moderator_children), 0, (-1,) * len(voters), points, -1, points, -1)
        ]
        frontier = sorted(graph.moderator_children)
        direct, walked = len(frontier), 0
        while frontier:
            k = voters.index(frontier.pop(0))
            frontier.extend(sorted(graph.true_children(voters[k])))
            peaks = [r // self.invitations[k] for r in range(sizes[k])]
            grown = []
            for reached, start, digits, lo, hi, dlo, dhi in leaves:
                if reached >> k & 1:
                    head, tail = digits[:k], digits[k + 1 :]
                    grown.extend(
                        (
                            reached | invites[k][r],
                            start + r * strides[k],
                            head + (r,) + tail,
                            lo if lo < p else p,
                            hi if hi > p else p,
                            dlo,
                            dhi,
                        )
                        for r, p in enumerate(peaks)
                    )
                else:
                    grown.append((reached, start, digits, lo, hi, dlo, dhi))
            walked += 1
            leaves = grown if walked != direct else [leaf[:5] + leaf[3:5] for leaf in grown]
        leaves.sort(key=lambda leaf: leaf[1])  # ids by first appearance in enumerate_profiles
        columns = map(list, zip(*leaves))
        self.reached, self.starts, self.digits, lows, highs, direct_lows, direct_highs = columns
        self.hulls = (lows, highs)
        self.direct_hulls = (direct_lows, direct_highs)

        sids = [0] * math.prod(sizes)
        free = {}  # per set of voters taking part, its situations' profiles as offsets from their start
        for sid, (reached, start) in enumerate(zip(self.reached, self.starts)):
            offsets = free.get(reached)
            if offsets is None:
                offsets = [0]
                for k in range(len(voters)):
                    if not reached >> k & 1:
                        offsets = [p + r * strides[k] for p in offsets for r in range(sizes[k])]
                free[reached] = offsets
            for p in offsets:
                sids[start + p] = sid

        self.profile_sids = sids
        self.grid = instance.grid
        self.points = points
        self.tables: OrderedDict = OrderedDict()
        self.strides = strides
        self.units = [n * stride for n, stride in zip(self.invitations, strides)]
        self._memo = {}  # what the ``_memoized`` methods computed, by name and arguments

    @property
    def keys(self) -> tuple[SituationKey, ...]:
        """``keys[s]`` spells situation ``s`` out, as ``situation_key`` does; built on first use."""
        return self._keys()

    @_memoized
    def _keys(self) -> tuple[SituationKey, ...]:
        # per voter and report: its key entry, shared by every key that holds it;
        # from lists, not generators: a tuple built from a generator is
        # over-allocated, then shrunk, which fragments the heap
        entries = [[(v, rep.peak, tuple(sorted(rep.invited))) for rep in row] for v, row in self.reports.items()]
        return tuple([tuple([entries[k][r] for k, r in enumerate(digits) if r >= 0]) for digits in self.digits])

    def profile_at(self, position: int) -> dict[VoterId, ReportedType]:
        """The profile at ``position`` in ``enumerate_profiles`` order."""
        return {
            v: self.reports[v][position // stride % len(self.reports[v])]
            for v, stride in zip(self.graph.voters, self.strides)
        }

    @_memoized
    def spelled(self) -> tuple[list[str], list[list[tuple]]]:
        """Grid points spelled by ``format_rational``, and per voter index its reports as (peak, sorted invited)."""
        grid = [format_rational(q) for q in self.grid]
        return grid, [
            [(grid[r // n], tuple(sorted(rep.invited))) for r, rep in enumerate(self.reports[v])]
            for v, n in zip(self.graph.voters, self.invitations)
        ]

    def report_json(self, k: int, r: int) -> dict:
        """Report ``r`` of voter index ``k`` as ``{"peak": ..., "invited": [...]}``, in new containers."""
        peak, invited = self.spelled()[1][k][r]
        return {"peak": peak, "invited": list(invited)}

    def profile_json(self, position: int, omit: VoterId | None = None) -> dict:
        """The profile at ``position`` without ``omit``, each voter's report as ``report_json`` spells it."""
        out = {}
        for v, row, stride in zip(self.graph.voters, self.spelled()[1], self.strides):
            if v != omit:
                peak, invited = row[position // stride % len(row)]
                out[v] = {"peak": peak, "invited": list(invited)}
        return out

    @_memoized
    def deviation_block(self, voter: VoterId) -> tuple[list[tuple[int, ...]], list[int], list[int], int]:
        """The voter's distinct deviation groups, each at its first context, and the count of contexts.

        Returns (groups, ordinals, positions, contexts): each group is the
        situation of each of the voter's reports, in ``report_space`` order,
        under one joint report of the others under which the voter takes
        part. Groups come in order of first appearance, the contexts in
        lexicographic order of the others' reports; ``ordinals[i]`` is the
        index among the contexts of group ``i``'s first one, and
        ``positions[i]`` the position of that context's profile where the
        voter reports ``reports[voter][0]``.
        """
        # a profile's position is mixed-radix over the voters, the last
        # fastest; the positions where this voter's digit is 0 list the
        # others' joint reports in lexicographic order, and participation
        # never depends on the voter's own report
        k = self.graph.voters.index(voter)
        stride = self.strides[k]
        block = stride * len(self.reports[voter])
        sids, reached = self.profile_sids, self.reached
        starts = [
            pos
            for start in range(0, len(sids), block)
            for pos in range(start, start + stride)
            if reached[sids[pos]] >> k & 1
        ]
        groups = [tuple(sids[pos : pos + block : stride]) for pos in starts]
        ordinals = _first_indices(groups)
        return [groups[i] for i in ordinals], ordinals, [starts[i] for i in ordinals], len(starts)

    def peaks(self, sid: int, members: Sequence[int]) -> tuple[int, ...]:
        """The grid indices of the peaks voters ``members`` report in situation ``sid``."""
        digits = self.digits[sid]
        return tuple(digits[k] // self.invitations[k] for k in members)

    def with_peaks(self, sid: int, members: Sequence[int], peaks: Sequence[int]) -> int:
        """Situation ``sid`` with voters ``members`` reporting peaks ``peaks`` instead.

        Invitations stay put, so the same voters take part, and only the
        peak part of each member's digit moves.
        """
        digits, position = self.digits[sid], self.starts[sid]
        for k, peak in zip(members, peaks):
            position += (peak - digits[k] // self.invitations[k]) * self.units[k]
        return self.profile_sids[position]

    @_memoized
    def set_classes(self, variant: AnonymityVariant) -> dict[int, tuple[tuple[tuple, tuple[int, ...]], ...]]:
        """Per participation set (``reached``), its classes of two or more voters, as (key, voter indices).

        Classes (``permutation_classes``) read only who takes part and what
        they invite, so each set's are computed once, from the reports of
        its first situation.
        """
        index = {v: k for k, v in enumerate(self.graph.voters)}
        out = {}
        for reached, sid in self.set_starts().items():
            reports = {v: row[r] for (v, row), r in zip(self.reports.items(), self.digits[sid]) if r >= 0}
            out[reached] = tuple(
                (cls.key, tuple(sorted(index[v] for v in cls.members)))
                for cls in permutation_classes(self.graph, reports, variant)
                if len(cls.members) >= 2
            )
        return out

    @_memoized
    def set_starts(self) -> dict[int, int]:
        """Per participation set, its first situation: where every participant reports peak 0.

        Ids follow first positions and a peak is the high part of a digit.
        """
        return {self.reached[sid]: sid for sid in _first_indices(self.reached)}

    @_memoized
    def classes(self, variant: AnonymityVariant) -> list[tuple[tuple[tuple, tuple[int, ...]], ...]]:
        """Per situation, the ``set_classes`` of its participation set, which every situation of the set shares."""
        return list(map(self.set_classes(variant).__getitem__, self.reached))

    def permutations(
        self, sid: int, variant: AnonymityVariant
    ) -> Iterator[tuple[tuple, tuple[int, ...], tuple[int, ...], int]]:
        """Every peak permutation the anonymity check compares with situation ``sid``.

        Classes come in key order and, within one, permutations of the
        members' peaks in ``itertools.permutations`` order; a permutation
        equal to the situation (the identity, or a swap of equal peaks) is
        skipped. Each comes as (class key, member indices, permuted peak grid
        indices, permuted situation).
        """
        for key, members in self.classes(variant)[sid]:
            peaks = self.peaks(sid, members)
            for perm in itertools.permutations(peaks):
                if perm != peaks:
                    yield key, members, perm, self.with_peaks(sid, members, perm)

    @_memoized
    def _template(self, members: tuple[int, ...]) -> list[list[int]]:
        """The arrangements of peaks over voters ``members``, as offsets from where all report peak 0.

        Returns the offsets of each multiset of peaks with two or more
        arrangements, ascending. Peak vectors are expanded in
        ``itertools.product`` order, which is ascending offset order, since
        each unit is at least ``points`` times the next.
        """
        size = len(members) + 1  # a multiset's code counts each peak q in the digit of size**q
        offsets, codes, groups = [0], [0], {}
        for k in members:
            offsets = [offset + p * self.units[k] for offset in offsets for p in range(self.points)]
            codes = [code + size**p for code in codes for p in range(self.points)]
        for code, offset in zip(codes, offsets):
            groups.setdefault(code, []).append(offset)
        return [offsets for offsets in groups.values() if len(offsets) > 1]

    @_memoized
    def orbits(self, variant: AnonymityVariant) -> list[tuple[int, ...]]:
        """Every class orbit of two or more situations, ordered by least member, then class.

        The orbit of a situation and one of its classes holds the situations
        reached by permuting that class's peaks, ascending. Its members share
        their classes, since invitations stay put, so a situation has a
        permutation that moves the outcome exactly when one of its orbits is
        not constant. Each comes from one multiset of the class's template,
        at one position where every member reports peak 0.
        """
        sids, starts, found = self.profile_sids, self.set_starts(), []
        for reached, classes in self.set_classes(variant).items():
            # each other participant's peak steps by its unit from the set's
            # first situation, where every participant reports peak 0
            for c, (_, members) in enumerate(classes):
                bases = [self.starts[starts[reached]]]
                for k, unit in enumerate(self.units):
                    if reached >> k & 1 and k not in members:
                        bases = [base + p * unit for base in bases for p in range(self.points)]
                groups = self._template(members)
                for base in bases:
                    for offsets in groups:
                        orbit = tuple([sids[base + offset] for offset in offsets])
                        found.append((orbit[0], c, orbit))
        found.sort()
        return [orbit for *_, orbit in found]

    @_memoized
    def key_order(self) -> list[int]:
        """Situation ids by ascending key, sorted on ints, not on the keys.

        Each voter's reports are ranked once by (peak, sorted invited
        tuple), as its key entries compare, and offset past every report of
        the voters before it, which sort first by name. A situation then
        sorts as the tuple of its participants' ranks, in voter order.
        """
        ranks, base = [], 0
        for reports, n in zip(self.reports.values(), self.invitations):
            # report r claims peak index r // n
            entries = sorted(range(len(reports)), key=lambda r: (r // n, sorted(reports[r].invited)))
            rank = [0] * len(reports)
            for i, r in enumerate(entries, base):
                rank[r] = i
            ranks.append(rank)
            base += len(reports)
        order = [tuple([rank[r] for rank, r in zip(ranks, digits) if r >= 0]) for digits in self.digits]
        return sorted(range(len(order)), key=order.__getitem__)

    # The blocks of a search encoding (``cspsearch.encode``), over variables
    # numbered by ascending key.

    @_memoized
    def variables(self) -> tuple[list[int], tuple[SituationKey, ...]]:
        """``var[s]``, the variable of situation ``s``, and the keys in variable order."""
        order = self.key_order()
        var = [0] * len(order)
        for i, sid in enumerate(order):
            var[sid] = i
        return var, tuple([self.keys[sid] for sid in order])

    @_memoized
    def domains(self, pe: bool, depth1_hull: bool) -> tuple[int, ...]:
        """Per variable, the grid indices its outcome may take, as a bitmask.

        Under ``pe`` the outcome lies in the participants' peak hull, and
        under ``depth1_hull`` in the direct children's.
        """
        bounds = [hull for hull, on in ((self.hulls, pe), (self.direct_hulls, depth1_hull)) if on]
        masks = []
        for sid in self.key_order():
            mask = (1 << self.points) - 1
            for lows, highs in bounds:
                mask &= (1 << highs[sid] + 1) - (1 << lows[sid])
            masks.append(mask)
        return tuple(masks)

    @_memoized
    def equalities(self, variant: AnonymityVariant) -> tuple[tuple[int, int], ...]:
        """The variable pairs (a, b), a < b, that link each orbit's situations to its least one, ascending.

        Their union-find closure is the anonymity merge: each orbit becomes
        one merged variable, as the swaps of its class's peaks made it. An
        orbit is fixed by any one of its situations and its class, so two
        orbits share at most one situation: no pair repeats, and the order
        comes from the one sort.
        """
        var, pairs = self.variables()[0], []
        for least, *rest in self.orbits(variant):
            a = var[least]
            for sid in rest:
                b = var[sid]
                pairs.append((a, b) if a < b else (b, a))
        pairs.sort()
        return tuple(pairs)

    @_memoized
    def deviation_vars(self, voter: VoterId) -> tuple[tuple[int, ...], ...]:
        """The voter's distinct deviation groups (``deviation_block``) as the variables of its reports.

        Contexts that differ only in non-participants give the same group,
        which is kept once, at its first context.
        """
        var = self.variables()[0]
        return tuple([tuple([var[sid] for sid in group]) for group in self.deviation_block(voter)[0]])

    @_memoized
    def sp_rows(self, mode: str) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """Every SP constraint of the mode, as rows (t, p, ds) per deviation group and peak.

        A voter with true peak index ``p`` weakly prefers variable ``t`` to
        each variable ``d`` of ``ds`` other than ``t``. ``t`` is the voter's
        truthful report in one deviation group and ``ds`` the reports of the
        group it is compared with: all of them (``full``, the group tuple
        itself), or those claiming the true peak (``diffusion``). The
        truthful report invites every child, so ``t`` fixes the reports of
        everyone who can take part, and ``d`` differs from it in the voter's
        report alone: no (t, d, p) repeats, within a row or across rows.
        """
        rows: list[tuple[int, int, tuple[int, ...]]] = []
        for k, voter in enumerate(self.graph.voters):
            n = self.invitations[k]
            for group in self.deviation_vars(voter):
                # report p*n + m claims peak p and invites the children in mask m,
                # so p*n + n-1 is the truthful report of a voter whose peak is p
                peaks = range(self.points)
                devs = itertools.repeat(group) if mode == "full" else [group[p * n : p * n + n] for p in peaks]
                rows += zip(group[n - 1 :: n], peaks, devs)
        return tuple(rows)

    @_memoized
    def relevance_groups(self, voter: VoterId) -> tuple[tuple[int, ...], ...]:
        """The voter's deviation groups of two or more distinct variables, each ascending, without repeats."""
        groups = {}  # an insertion-ordered set of tuples
        for group in self.deviation_vars(voter):
            members = tuple(sorted(set(group)))
            if len(members) >= 2:
                groups[members] = None
        return tuple(groups)


_SPACES: OrderedDict[tuple, SituationSpace] = OrderedDict()


def situation_space(instance: Instance, *, budget: int | None = DEFAULT_PROFILE_BUDGET) -> SituationSpace:
    """The shared space of the instance's shape and grid, built on first use.

    A shape is the graph with its voter names (``Instance.shape_key``, which
    holds the grid too); the last ``SPACE_CACHE_SIZE`` shapes used are kept.
    The space numbers every profile, so the profile count is projected
    against ``budget`` on every call, cached or not, and BudgetExceededError
    names it before anything is built.
    """
    profile_space_size(instance, budget=budget)
    return _lru(_SPACES, instance.shape_key, SPACE_CACHE_SIZE, lambda: SituationSpace(instance))
