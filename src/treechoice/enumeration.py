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
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping, Sequence

from .model import (
    BudgetExceededError,
    Instance,
    InvitationGraph,
    ReportedType,
    SituationKey,
    VoterId,
    participating_voters,
    reported_depths,
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


class AnonymityVariant(Enum):
    """Which voters may swap peaks without changing the outcome."""

    FULL = "AN"
    BY_STRUCTURE = "AN-S"
    BY_DEPTH = "AN-D"
    BY_STRUCTURE_DEPTH = "AN-SD"


@dataclass(frozen=True)
class PermutationClass:
    key: tuple
    members: frozenset[VoterId]


def permutation_classes(
    graph: InvitationGraph,
    reports: Mapping[VoterId, ReportedType],
    variant: AnonymityVariant,
) -> tuple[PermutationClass, ...]:
    """Partition of the participating voters by the variant's class key.

    Structure means the reported invited-children count; depth means the
    reported distance from the moderator. Classes are computed from the
    reported graph, the only structure an outcome rule observes. Reports are
    not validated against the graph, so a situation's reports, which hold
    only the participants, are accepted too.
    """
    depths = reported_depths(graph, reports, validate=False)
    groups: dict[tuple, set[VoterId]] = {}
    for v, d in depths.items():
        k = len(reports[v].invited)
        if variant is AnonymityVariant.FULL:
            key: tuple = ("all",)
        elif variant is AnonymityVariant.BY_STRUCTURE:
            key = ("structure", k)
        elif variant is AnonymityVariant.BY_DEPTH:
            key = ("depth", d)
        else:
            key = ("structure-depth", k, d)
        groups.setdefault(key, set()).add(v)
    return tuple(
        PermutationClass(key, frozenset(members)) for key, members in sorted(groups.items())
    )


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
    size = profile_space_size(instance) // instance.report_space_size(voter)
    if budget is not None and size > budget:
        raise BudgetExceededError(size, budget, what="profile enumeration")
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


def participating_others(
    instance: Instance,
    voter: VoterId,
) -> Iterator[dict[VoterId, ReportedType]]:
    """Joint reports of the others under which ``voter`` participates.

    These are the contexts of a per-voter deviation enumeration, in the
    lexicographic order of ``others_assignments``. Callers bound the size
    beforehand with ``deviation_space_size``.
    """
    for others in others_assignments(instance, voter, budget=None):
        if voter_participates(instance, voter, others):
            yield others


def deviation_space_size(instance: Instance, own_sizes: Mapping[VoterId, int]) -> int:
    """Projected size of a per-voter deviation enumeration.

    Each voter contributes every joint report of the others times
    ``own_sizes[voter]``, the reports it is tried with in each of them.
    """
    total = profile_space_size(instance)
    return sum(total // instance.report_space_size(v) * own for v, own in own_sizes.items())


SPACE_CACHE_SIZE = 4  # shapes kept; a peak sweep visits one shape's assignments in a row
TABLES_PER_SPACE = 4  # rule tables kept per shape


class SituationSpace:
    """The profile, deviation and anonymity streams of one tree shape, as ints.

    A situation is what an outcome rule observes (``situation_key``); ids
    number the situations in order of first appearance in
    ``enumerate_profiles``, and ``keys[s]`` is situation ``s``. Report
    spaces, participation and situations read only the graph and the grid,
    never true peaks, so every peak assignment of a shape shares one space
    (see ``situation_space``). The space holds no profiles: a checker that
    needs one for a witness rebuilds it from its position (``profile_at``).

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
    - ``deviation_groups(voter)`` yields, for each context of
      ``participating_others`` in order, the position of the context's
      profile where the voter reports ``reports[voter][0]``, and the
      situation of each of the voter's reports in ``report_space`` order.
    - ``classes(variant)`` lists, for each situation, its anonymity classes
      of two or more voters, each as (class key, voter indices), in key
      order.
    - ``permutations(s, variant)`` yields the peak permutations within the
      classes of situation ``s`` in ``check_anonymity``'s order, each as
      (class key, member indices, permuted peak grid indices, permuted
      situation); the check walks it from the first failing situation only,
      to find the permutation its witness cites.
    - ``orbits(variant)`` lists every orbit of two or more situations, the
      situations that permuting one class's peaks reaches from each other,
      as ascending tuples ordered by least member; the check reads each
      orbit once.
    - ``starts[s]`` is the position where situation ``s`` first appears in
      ``enumerate_profiles``, the profile where every voter not taking part
      reports its first report; ``with_peaks`` moves from it by one stride
      per moved peak.
    - ``hull(s, members)`` is the grid-index range of the peaks the voters
      ``members`` report in situation ``s``; the PE and depth-1 checks and
      the search encoder all read hulls from it.
    - ``positions_with_peaks(peaks)`` lists the profiles where every voter
      reports a given peak, such as the truthful-peak profiles PE scans.
    - ``key_order()`` lists the situations by ascending key: a key lists
      its entries by voter, and an entry compares by voter, then peak, then
      invited tuple.
    - ``tables`` maps a rule and a preference model to the rule's outcome
      per situation; the checkers fill it (``properties.rule_table``), at
      most ``TABLES_PER_SPACE`` entries. Each table also holds the
      checkers' memoized scans of it, so they are evicted together.
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
        # per voter and report: its key entry, shared by every key that holds
        # it, and the bits of the voters it invites
        entries = [[(v, rep.peak, tuple(sorted(rep.invited))) for rep in self.reports[v]] for v in voters]
        invites = [[sum(bit[c] for c in rep.invited) for rep in self.reports[v]] for v in voters]

        # One walk in tree order, parents first: a voter that takes part
        # branches on its reports, any other is free. Each leaf is one
        # situation: who takes part, where its profiles start with every free
        # digit 0, and the report digits.
        leaves = [(sum(bit[v] for v in graph.moderator_children), 0, (-1,) * len(voters))]
        frontier = sorted(graph.moderator_children)
        while frontier:
            k = voters.index(frontier.pop(0))
            frontier.extend(sorted(graph.true_children(voters[k])))
            grown = []
            for reached, start, digits in leaves:
                if reached >> k & 1:
                    head, tail = digits[:k], digits[k + 1 :]
                    grown.extend(
                        (reached | invites[k][r], start + r * strides[k], head + (r,) + tail)
                        for r in range(sizes[k])
                    )
                else:
                    grown.append((reached, start, digits))
            leaves = grown
        leaves.sort(key=lambda leaf: leaf[1])  # ids by first appearance in enumerate_profiles

        sids = [0] * math.prod(sizes)
        for sid, (reached, start, _) in enumerate(leaves):
            positions = [start]
            for k in range(len(voters)):
                if not reached >> k & 1:
                    positions = [p + r * strides[k] for p in positions for r in range(sizes[k])]
            for p in positions:
                sids[p] = sid

        self.digits: list[tuple[int, ...]] = [digits for _, _, digits in leaves]
        self.starts: list[int] = [start for _, start, _ in leaves]
        # from lists, not generators: a tuple built from a generator is
        # over-allocated, then shrunk, which fragments the heap
        self.keys: tuple[SituationKey, ...] = tuple(
            [tuple([entries[k][r] for k, r in enumerate(digits) if r >= 0]) for digits in self.digits]
        )
        self.profile_sids = sids
        self.tables: OrderedDict = OrderedDict()
        self._strides = strides
        self._contexts: dict[VoterId, tuple[int, int, list[int]]] = {}
        self._classes: dict[AnonymityVariant, list[tuple[tuple[tuple, tuple[int, ...]], ...]]] = {}
        self._orbits: dict[AnonymityVariant, list[tuple[int, ...]]] = {}
        self._key_order: list[int] | None = None

    def profile_at(self, position: int) -> dict[VoterId, ReportedType]:
        """The profile at ``position`` in ``enumerate_profiles`` order."""
        digits = []
        for v in reversed(self.graph.voters):
            position, digit = divmod(position, len(self.reports[v]))
            digits.append(digit)
        return {v: self.reports[v][d] for v, d in zip(self.graph.voters, reversed(digits))}

    def deviation_groups(self, voter: VoterId) -> Iterator[tuple[int, list[int]]]:
        contexts = self._contexts.get(voter)
        if contexts is None:
            # a profile's position is mixed-radix over the voters, the last
            # fastest; the positions where this voter's digit is 0 list the
            # others' joint reports in lexicographic order, and participation
            # never depends on the voter's own report
            voters = self.graph.voters
            k = voters.index(voter)
            stride = self._strides[k]
            block = stride * len(self.reports[voter])
            sids, digits = self.profile_sids, self.digits
            starts = [
                pos
                for start in range(0, len(sids), block)
                for pos in range(start, start + stride)
                if digits[sids[pos]][k] >= 0
            ]
            contexts = self._contexts[voter] = (stride, block, starts)
        stride, block, starts = contexts
        for pos in starts:
            yield pos, self.profile_sids[pos : pos + block : stride]

    def peaks(self, sid: int, members: Sequence[int]) -> tuple[int, ...]:
        """The grid indices of the peaks voters ``members`` report in situation ``sid``."""
        digits = self.digits[sid]
        return tuple(digits[k] // self.invitations[k] for k in members)

    def participants(self, sid: int) -> list[int]:
        """The indices of the voters taking part in situation ``sid``."""
        return [k for k, r in enumerate(self.digits[sid]) if r >= 0]

    def hull(self, sid: int, members: Sequence[int]) -> tuple[int, int]:
        """The lowest and highest grid index among the peaks voters ``members`` report in ``sid``."""
        peaks = self.peaks(sid, members)
        return min(peaks), max(peaks)

    def positions_with_peaks(self, peaks: Sequence[int]) -> list[int]:
        """The positions of the profiles where voter ``k`` reports the peak at grid index ``peaks[k]``.

        Invitations range over every subset; positions come in
        ``enumerate_profiles`` order.
        """
        positions = [0]
        for peak, n, stride in zip(peaks, self.invitations, self._strides):
            positions = [p + (peak * n + m) * stride for p in positions for m in range(n)]
        return positions

    def with_peaks(self, sid: int, members: Sequence[int], peaks: Sequence[int]) -> int:
        """Situation ``sid`` with voters ``members`` reporting peaks ``peaks`` instead.

        Invitations stay put, so the same voters take part, and only the
        peak part of each member's digit moves.
        """
        digits, position = self.digits[sid], self.starts[sid]
        for k, peak in zip(members, peaks):
            n = self.invitations[k]
            position += (peak - digits[k] // n) * n * self._strides[k]
        return self.profile_sids[position]

    def classes(self, variant: AnonymityVariant) -> list[tuple[tuple[tuple, tuple[int, ...]], ...]]:
        """Per situation, its ``permutation_classes`` of two or more voters, as (key, voter indices).

        Classes read only who takes part and what they invite, so they are
        computed once per such pattern.
        """
        out = self._classes.get(variant)
        if out is None:
            index = {v: k for k, v in enumerate(self.graph.voters)}
            by_pattern: dict[tuple[int, ...], tuple[tuple[tuple, tuple[int, ...]], ...]] = {}
            out = []
            for key, digits in zip(self.keys, self.digits):
                pattern = tuple(r if r < 0 else r % n for r, n in zip(digits, self.invitations))
                classes = by_pattern.get(pattern)
                if classes is None:
                    reports = {v: ReportedType(p, frozenset(inv)) for v, p, inv in key}
                    classes = by_pattern[pattern] = tuple(
                        (cls.key, tuple(sorted(index[v] for v in cls.members)))
                        for cls in permutation_classes(self.graph, reports, variant)
                        if len(cls.members) >= 2
                    )
                out.append(classes)
            self._classes[variant] = out
        return out

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

    def orbits(self, variant: AnonymityVariant) -> list[tuple[int, ...]]:
        """Every class orbit of two or more situations, ordered by least member.

        The orbit of a situation and one of its classes holds the situations
        reached by permuting that class's peaks, ascending. Its members share
        their classes, since invitations stay put, so a situation has a
        permutation that moves the outcome exactly when one of its orbits is
        not constant. Situations are walked in id order, so each orbit is
        found from its least member and the list comes ordered by it.
        """
        out = self._orbits.get(variant)
        if out is None:
            classes = self.classes(variant)
            covered = [0] * len(self.keys)  # per situation, a bit per class index already in an orbit
            out = []
            for sid, own in enumerate(classes):
                for c, (_, members) in enumerate(own):
                    if covered[sid] >> c & 1:
                        continue
                    peaks = self.peaks(sid, members)
                    if min(peaks) == max(peaks):  # the orbit is the situation alone
                        continue
                    perms = set(itertools.permutations(peaks))
                    orbit = sorted([self.with_peaks(sid, members, perm) for perm in perms])
                    for other in orbit:
                        covered[other] |= 1 << c
                    out.append(tuple(orbit))
            self._orbits[variant] = out
        return out

    def key_order(self) -> list[int]:
        """Situation ids by ascending key."""
        if self._key_order is None:
            self._key_order = sorted(range(len(self.keys)), key=self.keys.__getitem__)
        return self._key_order


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
    shape = instance.shape_key
    space = _SPACES.get(shape)
    if space is None:
        space = _SPACES[shape] = SituationSpace(instance)
        if len(_SPACES) > SPACE_CACHE_SIZE:
            _SPACES.popitem(last=False)
    else:
        _SPACES.move_to_end(shape)
    return space
