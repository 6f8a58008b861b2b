"""Exhaustive property checkers with concrete, replayable witnesses.

Each checker certifies or refutes one property of an outcome rule on one
finite instance. Fail verdicts always carry a witness that replays with one
rule evaluation per cited profile; witnesses are minimal in the deterministic
enumeration order. Pass verdicts for the incentive, efficiency, and anonymity
checkers are relative to the instance's grid; relevance works the other way
around (a Pass is witnessed exactly, a Fail means no witness on this grid).

Every checker reads the rule's table on the instance's situation space
(``rule_table``), which every peak assignment of one tree shape shares. A
rule is evaluated only there, through a ``PeakBlindInstance`` that hides
the true peaks. A weighted median that keeps ``WeightedMedianRule.outcome``
is tabulated from its ``weights``, once per participation set, on reports
that hold only invitations, and each situation's median is then taken
over grid indices, with no ``outcome`` call. Any other rule, or a median
whose ``weights`` read more than invitations, is evaluated once per
situation, on its first profile, and on every other profile of a
situation where that evaluation read a non-participant's report. Rules
that compare equal share one table. The table layer projects
the profile count against the checker's budget on every read, cached or
not, and SP and VR project their deviation counts before that.

A checker is a fold over scan units, each a ``_memoized`` method of the
table it scans (``RuleTable``), keyed by its arguments, which are exactly
what it reads:

- ``sp``, for SP and SP-D: per voter, the preference model, the ambiguity
  rule, the index of the voter's truthful report, which fixes its true peak
  and no other, and the block of reports the mode tries;
- ``vr``, for VR-d: per voter in scope, so every level shares the unit;
- both scan ``rows``, the voter's distinct outcome rows, each kept at its
  first context: a context's verdict reads only its row, so the first
  context that rejects is the first context of the first row that does;
- ``an``, for AN, AN-S, AN-D and AN-SD: the variant;
- ``pe``, for PE: the true peaks' grid indices, to find the first truthful
  profile in a situation of ``outside(False)``, the situations outside
  their participants' peak hull;
- ``outside(True)`` for DEPTH1-HULL, and ``onto`` for ONTO.

A unit holds ints only: counts, positions and indices. Hulls are compared
as grid indices the space computes once (``SituationSpace.hulls``).
Witnesses are spelled from a unit on every call, into new dicts and lists,
so what a caller receives is its own. Their strings are formatted once per
space (``SituationSpace.spelled``) and once per table (``RuleTable.spelled``).
"""

from __future__ import annotations

import itertools
import math
import weakref
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .enumeration import (
    AnonymityVariant,
    DEFAULT_PROFILE_BUDGET,
    SituationSpace,
    _lru,
    _memoized,
    deviation_space_size,
    situation_space,
)
from .model import (  # the property grammar is defined there and re-exported here
    CHECK_ONLY,
    PROPERTY_TOKENS,
    ConfigurationError,
    Instance,
    PreferenceModel,
    PropertyTokenError,
    VoterId,
    _first_indices,
    compare,
    format_rational,
    parse_property,
    preference_masks,
)
from .scf import (
    PeakBlindInstance,
    SocialChoiceFunction,
    WeightedMedianRule,
    _Invitations,
    _WatchedProfile,
    weighted_median,
)

EXACT_ON_GRID = "ExactOnGrid"
PASS_IS_GRID_RELATIVE = "PassIsGridRelative"

TABLES_PER_SPACE = 4  # rule tables kept per shape


@dataclass
class CheckReport:
    """Verdict plus evidence for one property on one instance."""

    property: str
    verdict: str  # "Pass" | "Fail"
    witness: dict | None
    profiles_examined: int
    soundness_note: str

    @property
    def passed(self) -> bool:
        return self.verdict == "Pass"

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "property": self.property,
            "verdict": self.verdict,
            "witness": self.witness,
            "profiles_examined": self.profiles_examined,
            "soundness_note": self.soundness_note,
        }


class RuleTable:
    """One rule on one situation space: its outcome in situation ``s`` is ``values[outcomes[s]]``.

    ``values`` is the grid, extended in order by any off-grid outcome the
    rule returns. The checkers' scan units are ``_memoized`` methods, each
    keyed by its arguments; a unit is a tuple of ints, never a report or a
    witness, and is evicted with the table. The space holds its tables, so
    a table holds its space by a weak proxy: a space and its tables form no
    reference cycle, and an evicted space is freed as soon as it is dropped.
    """

    def __init__(self, space: SituationSpace, values: tuple[Fraction, ...], outcomes: tuple[int, ...]) -> None:
        self.space = weakref.proxy(space)
        self.values = values
        self.outcomes = outcomes
        self._memo = {}  # what the ``_memoized`` methods computed, by name and arguments

    @_memoized
    def spelled(self) -> list[str]:
        """``values`` spelled by ``format_rational``, for the outcomes a witness cites."""
        return [format_rational(q) for q in self.values]

    @_memoized
    def rows(self, voter: VoterId) -> tuple[list[tuple[tuple[int, ...], int, int]], int]:
        """The voter's distinct outcome rows, each at its first context, and the count of contexts.

        A row is the outcome index of each of the voter's reports under one
        of its deviation groups (``space.deviation_block``). Each distinct
        row comes once, as (row, ordinal, position) of its first group,
        which is its first context, in order.
        """
        groups, ordinals, positions, contexts = self.space.deviation_block(voter)
        rows = list(map(tuple, map(map, itertools.repeat(self.outcomes.__getitem__), groups)))
        return [(rows[i], ordinals[i], positions[i]) for i in _first_indices(rows)], contexts

    def _first_rejected(
        self, voter: VoterId, base: int, tried: Sequence[int], accepts: Sequence[int]
    ) -> tuple[int, int, int, int, int]:
        """The voter's first report whose outcome report ``base``'s rejects, for SP and VR.

        In each of the voter's contexts, in order, the reports ``tried`` are
        compared with report ``base``: outcome ``y`` is accepted against ``x``
        when bit ``y`` of ``accepts[x]`` is set. A context's verdict reads only
        its outcome row, so the first context that rejects is the first
        context of the first distinct row (``rows``) that rejects, and only
        the distinct rows are scanned. Returns (reports tried up to and
        including the first rejected one, its context's position, its report
        index, ``x``, ``y``), or (every report tried, -1, -1, -1, -1).
        """
        rows, contexts = self.rows(voter)
        for row, ordinal, position in rows:
            x = row[base]
            allowed = accepts[x]
            for k, r in enumerate(tried):
                y = row[r]
                if not allowed >> y & 1:
                    return ordinal * len(tried) + k + 1, position, r, x, y
        return contexts * len(tried), -1, -1, -1, -1

    @_memoized
    def sp(
        self, model: PreferenceModel, ambiguous_is_violation: bool, voter: VoterId, truth_at: int, block: int
    ) -> tuple[int, int, int, int, int]:
        """The SP unit of one voter with one true type: the first profitable deviation, if any.

        The deviations tried are the reports in ``truth_at``'s block of ``block``
        consecutive report indices, other than ``truth_at`` itself.
        """
        forward, _ = preference_masks(self.values, model, ambiguous_is_violation)
        start = truth_at - truth_at % block
        tried = [r for r in range(start, start + block) if r != truth_at]
        accepts = forward[self.values.index(self.space.reports[voter][truth_at].peak)]
        return self._first_rejected(voter, truth_at, tried, accepts)

    @_memoized
    def vr(self, voter: VoterId) -> tuple[int, int, int, int, int]:
        """The VR unit of one voter, shared by every VR level: two of its reports with different outcomes."""
        equal = [1 << x for x in range(len(self.values))]
        return self._first_rejected(voter, 0, range(len(self.space.reports[voter])), equal)

    @_memoized
    def pe(self, peaks: tuple[int, ...]) -> tuple[int, int]:
        """The PE unit of one true-peak assignment: (profiles examined, first failing position or -1).

        The truthful profiles are those where voter ``k`` reports peak
        ``peaks[k]``, in ``enumerate_profiles`` order: each profile's rank among
        them reads the voters' invitation masks as digits, voter 0's the most
        significant. A situation outside its participants' hull whose
        participants report those peaks is first reached where every other
        voter's mask is 0.
        """
        space = self.space
        ns, strides = space.invitations, space.strides
        first = None
        for sid in self.outside(False):
            rank = position = 0
            for k, (r, n) in enumerate(zip(space.digits[sid], ns)):
                if r < 0:  # not taking part: its true peak, inviting no one
                    r = peaks[k] * n
                elif r // n != peaks[k]:
                    break
                rank = rank * n + r % n
                position += r * strides[k]
            else:
                if first is None or rank < first[0]:
                    first = rank, position
        if first is None:
            return math.prod(ns), -1
        return first[0] + 1, first[1]

    @_memoized
    def outside(self, direct: bool) -> tuple[int, ...]:
        """The situations whose outcome lies outside their hull, ascending.

        The hull is the direct children's (``space.direct_hulls``) if
        ``direct``, else the participants' (``space.hulls``). ``values`` is
        sorted and holds the grid, so an outcome and a hull compare as
        indices into it.
        """
        space = self.space
        at = [self.values.index(q) for q in space.grid]
        lows, highs = space.direct_hulls if direct else space.hulls
        rows = enumerate(zip(self.outcomes, lows, highs))
        return tuple([sid for sid, (x, lo, hi) in rows if not at[lo] <= x <= at[hi]])

    @_memoized
    def onto(self) -> tuple[int, ...]:
        """The ONTO unit: (profiles examined, then the grid indices no situation hits, ascending)."""
        space = self.space
        at = [self.values.index(q) for q in space.grid]
        wanted = set(at)
        for sid, k in enumerate(self.outcomes):
            wanted.discard(k)
            if not wanted:
                return (space.starts[sid] + 1,)
        return (len(space.profile_sids), *sorted(at.index(k) for k in wanted))

    @_memoized
    def an(self, variant: AnonymityVariant) -> tuple[int, int, int]:
        """The AN unit of one variant: the first situation a peak permutation moves, or -1s.

        That situation is the least member of the first orbit on which the
        outcome is not constant. Returns (the position where it first appears,
        the situation, the index in ``space.permutations`` of its first
        permutation that moves the outcome).
        """
        space, outcomes = self.space, self.outcomes
        for orbit in space.orbits(variant):
            sid = orbit[0]
            base = outcomes[sid]
            if itemgetter(*orbit)(outcomes).count(base) != len(orbit):
                for k, (_, _, _, other) in enumerate(space.permutations(sid, variant)):
                    if outcomes[other] != base:
                        return space.starts[sid], sid, k
        return -1, -1, -1


def rule_table(
    scf: SocialChoiceFunction,
    instance: Instance,
    *,
    budget: int | None = DEFAULT_PROFILE_BUDGET,
) -> tuple[SituationSpace, RuleTable]:
    """The instance's situation space and the rule's table on it, tabulated once.

    Tables are keyed by the rule and the preference model, so rules that
    compare equal share one; a space keeps the ``TABLES_PER_SPACE`` used
    last. ``budget`` bounds the profile count, as in ``situation_space``.
    """
    space = situation_space(instance, budget=budget)
    key = (scf, instance.preference_model)
    return space, _lru(space.tables, key, TABLES_PER_SPACE, lambda: _tabulate(scf, instance, space))


def _tabulate(scf: SocialChoiceFunction, instance: Instance, space: SituationSpace) -> RuleTable:
    """The rule's table on the space, from as few evaluations as the rule allows.

    Tabulation shows the rule a ``PeakBlindInstance``. A rule that keeps
    ``WeightedMedianRule.outcome`` is tabulated by ``_medians``, from one
    ``weights`` call per participation set. Any other rule, and a median
    whose ``weights`` read more than that pass shows, is tabulated by
    ``_evaluate``, from one ``outcome`` call per situation, and more where
    a call strays. For a deterministic rule either gives the table, and
    the error, that evaluating every profile gives: ``values`` holds the
    grid and the outcomes hit, in order.
    """
    view = PeakBlindInstance(instance, scf.name)
    medians = _medians(scf, view, space) if type(scf).outcome is WeightedMedianRule.outcome else None
    values, outs = medians or _evaluate(scf, view, space)
    kept = sorted(set(space.grid).union([values[x] for x in set(outs)]))
    index_of = {q: k for k, q in enumerate(kept)}
    at = [index_of.get(q) for q in values]
    return RuleTable(space, tuple(kept), tuple([at[x] for x in outs]))


def _evaluate(scf: SocialChoiceFunction, view: PeakBlindInstance, space: SituationSpace):
    """(values, each situation's index into them), from one ``outcome`` call per situation and more where it strays.

    It evaluates the rule once per situation, where the situation first
    appears, on a ``_WatchedProfile``. Where that evaluation read a
    non-participant's report, it evaluates the rule on every later profile
    of the situation too, and raises ConfigurationError naming two profiles
    when they give two outcomes. Positions are visited in order: only each
    situation's first (``space.starts``) until one strays, every position
    from there on.
    """
    rows = {v: (k, space.reports[v]) for k, v in enumerate(space.graph.voters)}
    sids = space.profile_sids
    outs: list[Fraction] = []
    strayed = set()  # situations whose first evaluation read a non-participant's report

    def positions():
        # each situation's first profile, until one strays; every later profile from there
        for start in space.starts:
            yield start
            if strayed:
                yield from range(start + 1, len(sids))
                return

    for position in positions():
        sid = sids[position]
        if sid == len(outs):  # the situation's first profile
            watched = _WatchedProfile(rows, space.digits[sid])
            outs.append(scf.outcome(view, watched))
            if watched.strayed[0]:
                strayed.add(sid)
        elif sid in strayed:
            out = scf.outcome(view, space.profile_at(position))
            if out != outs[sid]:
                raise ConfigurationError(
                    f"rule {scf.name!r} does not depend on the observable situation alone: profiles "
                    f"{space.profile_json(space.starts[sid])} and {space.profile_json(position)} "
                    f"share one situation but give {format_rational(outs[sid])} and {format_rational(out)}"
                )
    # by object first, so each distinct object is hashed once: a rule that
    # returns one object everywhere costs one Fraction hash, not one per situation
    objects = dict(zip(map(id, outs), outs))
    index: dict[Fraction, int] = {}
    at = {i: index.setdefault(out, len(index)) for i, out in objects.items()}
    return list(index), list(map(at.__getitem__, map(id, outs)))


def _medians(scf: WeightedMedianRule, view: PeakBlindInstance, space: SituationSpace):
    """(values, each situation's index into them), from one ``weights`` call per participation set, or None.

    ``weights`` runs on the set's first situation (``space.reached``), on a
    ``_WatchedProfile`` of ``_Invitations``. The values are the grid and
    the phantoms, sorted, and a situation's median is the first index into
    them at which its participants' weights, summed on their reported
    peaks' indices, and the phantoms reach ``ceil(m/2)``. It returns None,
    for ``_evaluate``, once a call reads a peak or a non-participant's
    report, compares or hashes a report, or weights a non-participant or
    by anything but an int >= 0.
    """
    voters, ns = space.graph.voters, space.invitations
    seen = [False]  # shared by every view and report the pass shows
    rows = {v: (k, [_Invitations(rep.invited, seen) for rep in space.reports[v]]) for k, v in enumerate(voters)}
    sets = {}
    for sid, reached in enumerate(space.reached):
        if reached in sets:
            continue
        try:
            weights = dict(scf.weights(view, _WatchedProfile(rows, space.digits[sid], seen)).items())
        except Exception:
            if seen[0]:
                return None
            raise
        ws = [(k, ns[k], weights.pop(v, 0)) for k, v in enumerate(voters) if reached >> k & 1]
        if weights or seen[0] or any(type(w) is not int or w < 0 for *_, w in ws):
            return None
        if not sets:  # as ``outcome`` does, after the first weights
            phantoms = scf.phantom_peaks(view)
            values = sorted(set(space.grid).union(phantoms))
            at = [values.index(q) for q in space.grid]
        total = sum(w for *_, w in ws) + len(phantoms)
        if not total:
            weighted_median(())  # raises as ``outcome`` does on an empty multiset
        sets[reached] = [row for row in ws if row[2]], (total + 1) // 2
    base = [0] * len(values)
    for p in phantoms:
        base[values.index(p)] += 1
    outs = []
    for digits, reached in zip(space.digits, space.reached):
        ws, rank = sets[reached]
        counts = base.copy()
        for k, n, w in ws:
            counts[at[digits[k] // n]] += w
        x, below = 0, counts[0]
        while below < rank:
            x += 1
            below += counts[x]
        outs.append(x)
    return values, outs


def check_sp(
    scf: SocialChoiceFunction,
    instance: Instance,
    mode: str = "full",
    *,
    ambiguous_is_violation: bool = True,
    budget: int | None = DEFAULT_PROFILE_BUDGET,
) -> CheckReport:
    """No voter may gain by deviating from the honest report.

    For every manipulator, every joint report of the others, and every
    deviation in the mode's neighborhood (``full``: any peak and any invited
    subset; ``diffusion_only``: true peak, any invited subset), the honest
    report's outcome must be weakly preferred at the manipulator's true
    peak. Under the robust preference model an AMBIGUOUS comparison counts
    as a violation unless ``ambiguous_is_violation`` is disabled.
    """
    if mode not in ("full", "diffusion_only"):
        raise ValueError(f"unknown mode {mode!r}")
    diffusion = mode == "diffusion_only"
    prop = "SP-D" if diffusion else "SP"
    graph = instance.graph
    model = instance.preference_model

    points = len(instance.grid)
    own = {v: 1 + (n // points if diffusion else n) for v, n in instance.report_sizes.items()}
    deviation_space_size(instance, own, budget=budget)

    space, table = rule_table(scf, instance, budget=budget)
    values = table.values
    examined = 0
    for k, (voter, peak) in enumerate(zip(graph.voters, instance.peak_indices)):
        n = space.invitations[k]
        truth_at = peak * n + n - 1  # every child invited
        block = n if diffusion else len(space.reports[voter])  # diffusion keeps the true peak
        count, position, r, x, y = table.sp(model, ambiguous_is_violation, voter, truth_at, block)
        examined += count
        if position >= 0:
            # ``position`` is the context's profile where the voter reports its first report
            stride = space.strides[k]
            spelled = table.spelled()
            witness = {
                "voter": voter,
                "true_peak": space.spelled()[0][peak],
                "mode": mode,
                "truthful_profile": space.profile_json(position + truth_at * stride),
                "deviation_profile": space.profile_json(position + r * stride),
                "truthful_outcome": spelled[x],
                "deviation_outcome": spelled[y],
                "preference_verdict": compare(instance.true_peaks[voter], values[x], values[y], model).value,
            }
            return CheckReport(prop, "Fail", witness, examined, EXACT_ON_GRID)
    return CheckReport(prop, "Pass", None, examined, PASS_IS_GRID_RELATIVE)


def check_pareto(
    scf: SocialChoiceFunction,
    instance: Instance,
    *,
    budget: int | None = DEFAULT_PROFILE_BUDGET,
) -> CheckReport:
    """Outcome stays inside the participating voters' true-peak hull.

    Peaks are reported truthfully while invitations range over every
    configuration; on a line with single-peaked preferences the hull test
    is equivalent to the no-dominating-alternative definition (the tests
    compare the two on every truthful profile of small shapes). On a truthful
    profile the participants' true peaks are their reported peaks, so the
    hull is the situation's.
    """
    space, table = rule_table(scf, instance, budget=budget)
    examined, position = table.pe(instance.peak_indices)
    if position < 0:
        return CheckReport("PE", "Pass", None, examined, PASS_IS_GRID_RELATIVE)
    sid = space.profile_sids[position]
    lows, highs = space.hulls
    grid = space.spelled()[0]
    witness = {
        "profile": space.profile_json(position),
        "participating": [v for v, r in zip(instance.graph.voters, space.digits[sid]) if r >= 0],
        "hull": [grid[lows[sid]], grid[highs[sid]]],
        "outcome": table.spelled()[table.outcomes[sid]],
    }
    return CheckReport("PE", "Fail", witness, examined, EXACT_ON_GRID)


def check_ontoness(
    scf: SocialChoiceFunction,
    instance: Instance,
    *,
    budget: int | None = DEFAULT_PROFILE_BUDGET,
) -> CheckReport:
    """Every grid point is the outcome of at least one report profile.

    ``profiles_examined`` counts the profiles up to the first that hits the
    last grid point. Situations are numbered in order of first appearance,
    so that profile is where the situation that hits it first appears.
    """
    space, table = rule_table(scf, instance, budget=budget)
    examined, *unhit = table.onto()
    if not unhit:
        return CheckReport("ONTO", "Pass", None, examined, PASS_IS_GRID_RELATIVE)
    witness = {"unhit": [space.spelled()[0][i] for i in unhit]}
    return CheckReport("ONTO", "Fail", witness, examined, EXACT_ON_GRID)


def check_anonymity(
    scf: SocialChoiceFunction,
    instance: Instance,
    variant: AnonymityVariant,
    *,
    budget: int | None = DEFAULT_PROFILE_BUDGET,
) -> CheckReport:
    """Swapping peaks within one permutation class never moves the outcome.

    Classes group participating voters by reported invited count, reported
    depth, both, or not at all (full anonymity); invitations stay put, only
    peaks permute. Situations are numbered in order of first appearance, so
    the first failing profile is where the lowest failing situation first
    appears.
    """
    space, table = rule_table(scf, instance, budget=budget)
    position, sid, k = table.an(variant)
    if position < 0:
        return CheckReport(variant.value, "Pass", None, len(space.profile_sids), PASS_IS_GRID_RELATIVE)
    key, members, _, other = next(itertools.islice(space.permutations(sid, variant), k, None))
    # the permuted situation first appears where the same voters take part and every other one
    # reports its first report, as in the situation's own first profile
    spelled = table.spelled()
    witness = {
        "profile": space.profile_json(position),
        "permuted_profile": space.profile_json(space.starts[other]),
        "class_key": list(key),
        "class_members": [instance.graph.voters[m] for m in members],
        "outcome": spelled[table.outcomes[sid]],
        "permuted_outcome": spelled[table.outcomes[other]],
    }
    return CheckReport(variant.value, "Fail", witness, position + 1, EXACT_ON_GRID)


def check_voter_relevance(
    scf: SocialChoiceFunction,
    instance: Instance,
    d: int,
    *,
    budget: int | None = DEFAULT_PROFILE_BUDGET,
) -> CheckReport:
    """Every voter within distance d of the moderator can matter somewhere.

    Scope is the full-invitation depth in the true graph. A voter counts as
    relevant when some joint report of the others admits two of its own
    reports with different outcomes. The legal report set does not depend
    on the voter's true peak, so one witness covers every true type; the
    report records the witness once per voter together with all grid types
    it covers.
    """
    if d < 0:
        raise ValueError("relevance distance must be nonnegative")
    prop = f"VR-{d}"
    graph = instance.graph
    scope = [v for v in graph.voters if 1 <= graph.true_depth(v) <= d]

    own = {v: instance.report_sizes[v] for v in scope}
    deviation_space_size(instance, own, budget=budget, what="relevance enumeration")

    examined = 0
    witnesses: dict[VoterId, dict] = {}
    if scope:
        space, table = rule_table(scf, instance, budget=budget)
        spelled = table.spelled()
        grid_types = list(space.spelled()[0])
    for voter in scope:
        count, position, r, a, b = table.vr(voter)
        examined += count
        if position < 0:
            witness = {
                "voter": voter,
                "types": grid_types,
                "note": "no witness on this grid",
            }
            return CheckReport(prop, "Fail", witness, examined, PASS_IS_GRID_RELATIVE)
        k = graph.voters.index(voter)
        witnesses[voter] = {
            "types": grid_types,
            "others": space.profile_json(position, omit=voter),
            "report_a": space.report_json(k, 0),
            "report_b": space.report_json(k, r),
            "outcome_a": spelled[a],
            "outcome_b": spelled[b],
        }
    return CheckReport(prop, "Pass", {"voters": witnesses}, examined, EXACT_ON_GRID)


def check_depth1_hull(
    scf: SocialChoiceFunction,
    instance: Instance,
    *,
    budget: int | None = DEFAULT_PROFILE_BUDGET,
) -> CheckReport:
    """Outcome stays inside the direct children's reported-peak hull.

    Direct children always take part, so the hull is the situation's, and
    the first profile outside it is where the lowest such situation first
    appears.
    """
    space, table = rule_table(scf, instance, budget=budget)
    outside = table.outside(True)
    if not outside:
        return CheckReport("DEPTH1-HULL", "Pass", None, len(space.profile_sids), PASS_IS_GRID_RELATIVE)
    sid = outside[0]
    position = space.starts[sid]
    lows, highs = space.direct_hulls
    grid = space.spelled()[0]
    witness = {
        "profile": space.profile_json(position),
        "depth1_hull": [grid[lows[sid]], grid[highs[sid]]],
        "outcome": table.spelled()[table.outcomes[sid]],
    }
    return CheckReport("DEPTH1-HULL", "Fail", witness, position + 1, EXACT_ON_GRID)


def run_check(
    scf: SocialChoiceFunction,
    instance: Instance,
    prop: str,
    *,
    budget: int | None = DEFAULT_PROFILE_BUDGET,
    ambiguous_is_violation: bool = True,
) -> CheckReport:
    """Dispatch a property token (see ``parse_property``) to its checker."""
    token = parse_property(prop)
    if token in ("SP", "SP-D"):
        mode = "full" if token == "SP" else "diffusion_only"
        return check_sp(scf, instance, mode, ambiguous_is_violation=ambiguous_is_violation, budget=budget)
    checks = {"PE": check_pareto, "ONTO": check_ontoness, "DEPTH1-HULL": check_depth1_hull}
    if token in checks:
        return checks[token](scf, instance, budget=budget)
    if token.startswith("VR-"):
        return check_voter_relevance(scf, instance, int(token[3:]), budget=budget)
    return check_anonymity(scf, instance, AnonymityVariant(token), budget=budget)
