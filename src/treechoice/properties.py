"""Exhaustive property checkers with concrete, replayable witnesses.

Each checker certifies or refutes one property of an outcome rule on one
finite instance. Fail verdicts always carry a witness that replays with one
rule evaluation per cited profile; witnesses are minimal in the deterministic
enumeration order. Pass verdicts for the incentive, efficiency, and anonymity
checkers are relative to the instance's grid; relevance works the other way
around (a Pass is witnessed exactly, a Fail means no witness on this grid).

Every checker reads the rule's table on the instance's situation space
(``rule_table``), which every peak assignment of one tree shape shares. A
rule is evaluated only there, on every profile, through a
``PeakBlindInstance`` that hides the true peaks; rules that compare equal
share one table. The table layer projects the profile count against the
checker's budget on every read, cached or not, and SP and VR project their
deviation counts before that.

A checker is a fold over scan units, each memoized on the table it scans
(``RuleTable.scans``) and keyed by exactly what it reads:

- SP and SP-D: per voter, the mode, the ambiguity rule and the index of the
  voter's truthful report, which fixes its true peak and no other;
- VR-d: per voter in scope, nothing more, so every level shares the unit;
- AN, AN-S, AN-D, AN-SD: the variant;
- PE: the true peaks' grid indices;
- ONTO and DEPTH1-HULL: nothing more.

A unit holds ints only: counts, positions and indices. Reports, and the
profiles in witnesses, are rebuilt from them on every call, so what a
caller receives is its own.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .enumeration import (
    AnonymityVariant,
    DEFAULT_PROFILE_BUDGET,
    TABLES_PER_SPACE,
    SituationSpace,
    deviation_space_size,
    enumerate_profiles,
    situation_space,
)
from .model import (
    BudgetExceededError,
    ConfigurationError,
    Instance,
    PreferenceModel,
    PreferenceVerdict,
    ReportedType,
    VoterId,
    compare,
    format_rational,
    participating_voters,
    preference_masks,
)
from .scf import SocialChoiceFunction

EXACT_ON_GRID = "ExactOnGrid"
PASS_IS_GRID_RELATIVE = "PassIsGridRelative"

PROPERTY_TOKENS = ("SP", "SP-D", "PE", "AN", "AN-S", "AN-D", "AN-SD", "ONTO", "DEPTH1-HULL")
CHECK_ONLY = ("ONTO", "DEPTH1-HULL")  # checkable properties the complete search cannot encode

_VR_RE = re.compile(r"VR-([0-9]+)")


class PropertyTokenError(ConfigurationError, ValueError):
    """A property token outside the grammar of ``parse_property``."""


def parse_property(raw: str) -> str:
    """Canonical spelling of one property token.

    Surrounding whitespace and letter case are ignored, and ``VR-<d>`` takes
    ASCII digits only, so ``" vr-01"`` reads as ``VR-1``. The tokens are
    ``PROPERTY_TOKENS`` and ``VR-<d>``; those in ``CHECK_ONLY`` have a
    checker but no search encoding.
    """
    token = raw.strip()
    if token.isascii():
        token = token.upper()
        if token in PROPERTY_TOKENS:
            return token
        vr = _VR_RE.fullmatch(token)
        if vr is not None:
            return f"VR-{int(vr.group(1))}"
    raise PropertyTokenError(
        f"unknown property {raw!r}; supported: {', '.join(PROPERTY_TOKENS)}, VR-<d>"
    )


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


def profile_to_json(reports: Mapping[VoterId, ReportedType]) -> dict:
    return {
        v: {"peak": format_rational(rep.peak), "invited": sorted(rep.invited)}
        for v, rep in sorted(reports.items())
    }


class PeakBlindInstance:
    """What an outcome rule may read of an instance: graph, grid, preference model.

    Rule tables are shared by every peak assignment of a tree shape, so a
    rule must not read true peaks. Asking this view for ``true_peaks`` (or
    anything else an ``Instance`` derives from them) raises
    ConfigurationError naming the rule.
    """

    __slots__ = ("graph", "grid", "preference_model", "_rule")

    def __init__(self, instance: Instance, rule: str) -> None:
        self.graph = instance.graph
        self.grid = instance.grid
        self.preference_model = instance.preference_model
        self._rule = rule

    def __getattr__(self, name: str):
        if name.startswith("__"):
            raise AttributeError(name)
        raise ConfigurationError(
            f"rule {self._rule!r} read instance.{name}; an outcome rule may read only the graph, "
            "the grid, the preference model and the participants' reports"
        )


@dataclass(frozen=True)
class RuleTable:
    """One rule on one situation space: its outcome in situation ``s`` is ``values[outcomes[s]]``.

    ``values`` is the grid, extended in order by any off-grid outcome the
    rule returns. ``scans`` memoizes the checkers' scan units on this table,
    each keyed by exactly what it reads; a unit is a tuple of ints, never a
    report or a witness, and is evicted with the table.
    """

    values: tuple[Fraction, ...]
    outcomes: tuple[int, ...]
    scans: dict = field(default_factory=dict, compare=False, repr=False)


def _unit(table: RuleTable, key, scan, *args) -> tuple[int, ...]:
    """``scan(*args)``, computed once per table and key."""
    unit = table.scans.get(key)
    if unit is None:
        unit = table.scans[key] = scan(*args)
    return unit


def rule_table(
    scf: SocialChoiceFunction,
    instance: Instance,
    *,
    budget: int | None = DEFAULT_PROFILE_BUDGET,
) -> tuple[SituationSpace, RuleTable]:
    """The instance's situation space and the rule's table on it, tabulated once.

    Tables are keyed by the rule and the preference model, so rules that
    compare equal share one. ``budget`` bounds the profile count, as in
    ``situation_space``. Tabulation evaluates the rule on every profile,
    through a ``PeakBlindInstance``, and raises ConfigurationError naming
    two profiles when one situation gets two outcomes.
    """
    space = situation_space(instance, budget=budget)
    key = (scf, instance.preference_model)
    table = space.tables.get(key)
    if table is not None:
        space.tables.move_to_end(key)
        return space, table
    view = PeakBlindInstance(instance, scf.name)
    first: dict[int, tuple[Fraction, int]] = {}
    profiles = enumerate_profiles(instance, budget=None)
    for position, (sid, profile) in enumerate(zip(space.profile_sids, profiles)):
        out = scf.outcome(view, profile)
        seen, seen_at = first.setdefault(sid, (out, position))
        if seen != out:
            seen_profile = space.profile_at(seen_at)
            raise ConfigurationError(
                f"rule {scf.name!r} does not depend on the observable situation alone: profiles "
                f"{profile_to_json(seen_profile)} and {profile_to_json(profile)} share one situation "
                f"but give {format_rational(seen)} and {format_rational(out)}"
            )
    outs = [first[sid][0] for sid in range(len(space.keys))]
    values = instance.grid
    if not set(outs) <= set(values):
        values = tuple(sorted(set(values).union(outs)))
    index_of = {q: k for k, q in enumerate(values)}
    table = RuleTable(values, tuple(index_of[out] for out in outs))
    space.tables[key] = table
    if len(space.tables) > TABLES_PER_SPACE:
        space.tables.popitem(last=False)
    return space, table


def _first_rejected(
    space: SituationSpace,
    outcomes: tuple[int, ...],
    voter: VoterId,
    base: int,
    tried: Sequence[int],
    accepts: Sequence[int],
) -> tuple[int, int, int, int, int]:
    """The scan unit of SP and VR: the voter's first report whose outcome report ``base``'s rejects.

    In each of the voter's deviation groups, in order, the reports ``tried``
    are compared with report ``base``: outcome ``y`` is accepted against
    ``x`` when bit ``y`` of ``accepts[x]`` is set. Returns (reports tried up
    to and including the first rejected one, its group's position, its
    report index, ``x``, ``y``), or (every report tried, -1, -1, -1, -1).
    """
    examined = 0
    for position, group in space.deviation_groups(voter):
        x = outcomes[group[base]]
        allowed = accepts[x]
        for k, r in enumerate(tried):
            y = outcomes[group[r]]
            if not allowed >> y & 1:
                return examined + k + 1, position, r, x, y
        examined += len(tried)
    return examined, -1, -1, -1, -1


def _sp_scan(
    space: SituationSpace,
    table: RuleTable,
    model: PreferenceModel,
    ambiguous_is_violation: bool,
    voter: VoterId,
    truth_at: int,
    block: int,
) -> tuple[int, int, int, int, int]:
    """The SP unit of one voter with one true type: the first profitable deviation, if any.

    The deviations tried are the reports in ``truth_at``'s block of ``block``
    consecutive report indices, other than ``truth_at`` itself.
    """
    forward, _ = preference_masks(table.values, model, ambiguous_is_violation)
    start = truth_at - truth_at % block
    tried = [r for r in range(start, start + block) if r != truth_at]
    accepts = forward[table.values.index(space.reports[voter][truth_at].peak)]
    return _first_rejected(space, table.outcomes, voter, truth_at, tried, accepts)


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

    projected = deviation_space_size(
        instance, {v: 1 + instance.report_space_size(v, diffusion_only=diffusion) for v in graph.voters}
    )
    if budget is not None and projected > budget:
        raise BudgetExceededError(projected, budget, what="deviation enumeration")

    space, table = rule_table(scf, instance, budget=budget)
    values = table.values
    examined = 0
    for k, voter in enumerate(graph.voters):
        n = space.invitations[k]
        truth_at = instance.grid.index(instance.true_peaks[voter]) * n + n - 1  # every child invited
        block = n if diffusion else len(space.reports[voter])  # diffusion keeps the true peak
        key = (prop, ambiguous_is_violation, voter, truth_at)
        count, position, r, x, y = _unit(
            table, key, _sp_scan, space, table, model, ambiguous_is_violation, voter, truth_at, block
        )
        examined += count
        if position >= 0:
            context = space.profile_at(position)
            reports = space.reports[voter]
            true_peak = reports[truth_at].peak
            witness = {
                "voter": voter,
                "true_peak": format_rational(true_peak),
                "mode": mode,
                "truthful_profile": profile_to_json({**context, voter: reports[truth_at]}),
                "deviation_profile": profile_to_json({**context, voter: reports[r]}),
                "truthful_outcome": format_rational(values[x]),
                "deviation_outcome": format_rational(values[y]),
                "preference_verdict": compare(true_peak, values[x], values[y], model).value,
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
    is equivalent to the no-dominating-alternative definition (see
    ``find_dominating_point`` for the definitional oracle). On a truthful
    profile the participants' true peaks are their reported peaks, so the
    hull is the situation's.
    """
    space, table = rule_table(scf, instance, budget=budget)
    grid, voters = instance.grid, instance.graph.voters
    peaks = tuple(grid.index(instance.true_peaks[v]) for v in voters)
    examined, position = _unit(table, ("PE", peaks), _pe_scan, space, table, grid, peaks)
    if position < 0:
        return CheckReport("PE", "Pass", None, examined, PASS_IS_GRID_RELATIVE)
    sid = space.profile_sids[position]
    members = space.participants(sid)
    lo, hi = space.hull(sid, members)
    witness = {
        "profile": profile_to_json(space.profile_at(position)),
        "participating": [voters[k] for k in members],
        "hull": [format_rational(grid[lo]), format_rational(grid[hi])],
        "outcome": format_rational(table.values[table.outcomes[sid]]),
    }
    return CheckReport("PE", "Fail", witness, examined, EXACT_ON_GRID)


def _pe_scan(
    space: SituationSpace, table: RuleTable, grid: tuple[Fraction, ...], peaks: tuple[int, ...]
) -> tuple[int, int]:
    """The PE unit of one true-peak assignment: (profiles examined, first failing position or -1)."""
    truthful = space.positions_with_peaks(peaks)
    for examined, position in enumerate(truthful, 1):
        sid = space.profile_sids[position]
        lo, hi = space.hull(sid, space.participants(sid))
        if not grid[lo] <= table.values[table.outcomes[sid]] <= grid[hi]:
            return examined, position
    return len(truthful), -1


def find_dominating_point(
    instance: Instance,
    reports: Mapping[VoterId, ReportedType],
    outcome: Fraction,
) -> Fraction | None:
    """Definitional efficiency oracle under symmetric distances.

    Returns a grid point that every participating voter weakly prefers to
    ``outcome`` (judged at their true peaks) with at least one strict
    preference, or None when no such point exists.
    """
    participating = sorted(participating_voters(instance.graph, reports, validate=False))
    for candidate in instance.grid:
        if candidate == outcome:
            continue
        strict = False
        for v in participating:
            verdict = compare(instance.true_peaks[v], candidate, outcome, PreferenceModel.SYMMETRIC_DISTANCE)
            if verdict is PreferenceVerdict.WORSE:
                break
            if verdict is PreferenceVerdict.BETTER:
                strict = True
        else:
            if strict:
                return candidate
    return None


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
    grid = instance.grid
    examined, *unhit = _unit(table, "ONTO", _onto_scan, space, table, grid)
    if not unhit:
        return CheckReport("ONTO", "Pass", None, examined, PASS_IS_GRID_RELATIVE)
    witness = {"unhit": [format_rational(grid[i]) for i in unhit]}
    return CheckReport("ONTO", "Fail", witness, examined, EXACT_ON_GRID)


def _onto_scan(space: SituationSpace, table: RuleTable, grid: tuple[Fraction, ...]) -> tuple[int, ...]:
    """The ONTO unit: (profiles examined, then the grid indices no situation hits, ascending)."""
    wanted = set(grid)
    for sid, k in enumerate(table.outcomes):
        wanted.discard(table.values[k])
        if not wanted:
            return (space.starts[sid] + 1,)
    return (len(space.profile_sids), *sorted(grid.index(q) for q in wanted))


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
    position, sid, k = _unit(table, variant, _an_scan, space, table.outcomes, variant)
    if position < 0:
        return CheckReport(variant.value, "Pass", None, len(space.profile_sids), PASS_IS_GRID_RELATIVE)
    profile = space.profile_at(position)
    key, members, peaks, other = next(itertools.islice(space.permutations(sid, variant), k, None))
    names = [instance.graph.voters[m] for m in members]
    permuted_profile = dict(profile)
    for v, peak in zip(names, peaks):
        permuted_profile[v] = ReportedType(instance.grid[peak], profile[v].invited)
    witness = {
        "profile": profile_to_json(profile),
        "permuted_profile": profile_to_json(permuted_profile),
        "class_key": list(key),
        "class_members": names,
        "outcome": format_rational(table.values[table.outcomes[sid]]),
        "permuted_outcome": format_rational(table.values[table.outcomes[other]]),
    }
    return CheckReport(variant.value, "Fail", witness, position + 1, EXACT_ON_GRID)


def _an_scan(
    space: SituationSpace, outcomes: tuple[int, ...], variant: AnonymityVariant
) -> tuple[int, int, int]:
    """The AN unit of one variant: the first situation a peak permutation moves, or -1s.

    That situation is the least member of the first orbit on which the
    outcome is not constant. Returns (the position where it first appears,
    the situation, the index in ``space.permutations`` of its first
    permutation that moves the outcome).
    """
    for orbit in space.orbits(variant):
        sid = orbit[0]
        base = outcomes[sid]
        if any(outcomes[other] != base for other in orbit):
            for k, (_, _, _, other) in enumerate(space.permutations(sid, variant)):
                if outcomes[other] != base:
                    return space.starts[sid], sid, k
    return -1, -1, -1


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

    projected = deviation_space_size(instance, {v: instance.report_space_size(v) for v in scope})
    if budget is not None and projected > budget:
        raise BudgetExceededError(projected, budget, what="relevance enumeration")

    grid_types = [format_rational(q) for q in instance.grid]
    examined = 0
    witnesses: dict[VoterId, dict] = {}
    if scope:
        space, table = rule_table(scf, instance, budget=budget)
        values = table.values
    for voter in scope:
        count, position, r, a, b = _unit(table, ("VR", voter), _vr_scan, space, table, voter)
        examined += count
        if position < 0:
            witness = {
                "voter": voter,
                "types": grid_types,
                "note": "no witness on this grid",
            }
            return CheckReport(prop, "Fail", witness, examined, PASS_IS_GRID_RELATIVE)
        reports = space.reports[voter]
        witnesses[voter] = {
            "types": grid_types,
            "others": profile_to_json({u: rep for u, rep in space.profile_at(position).items() if u != voter}),
            "report_a": profile_to_json({voter: reports[0]})[voter],
            "report_b": profile_to_json({voter: reports[r]})[voter],
            "outcome_a": format_rational(values[a]),
            "outcome_b": format_rational(values[b]),
        }
    return CheckReport(prop, "Pass", {"voters": witnesses}, examined, EXACT_ON_GRID)


def _vr_scan(space: SituationSpace, table: RuleTable, voter: VoterId) -> tuple[int, int, int, int, int]:
    """The VR unit of one voter, shared by every VR level: two of its reports with different outcomes."""
    equal = [1 << x for x in range(len(table.values))]
    return _first_rejected(space, table.outcomes, voter, 0, range(len(space.reports[voter])), equal)


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
    grid = instance.grid
    direct = [k for k, v in enumerate(instance.graph.voters) if v in instance.graph.moderator_children]
    (position,) = _unit(table, "DEPTH1-HULL", _depth1_scan, space, table, grid, direct)
    if position < 0:
        return CheckReport("DEPTH1-HULL", "Pass", None, len(space.profile_sids), PASS_IS_GRID_RELATIVE)
    sid = space.profile_sids[position]
    lo, hi = space.hull(sid, direct)
    witness = {
        "profile": profile_to_json(space.profile_at(position)),
        "depth1_hull": [format_rational(grid[lo]), format_rational(grid[hi])],
        "outcome": format_rational(table.values[table.outcomes[sid]]),
    }
    return CheckReport("DEPTH1-HULL", "Fail", witness, position + 1, EXACT_ON_GRID)


def _depth1_scan(
    space: SituationSpace, table: RuleTable, grid: tuple[Fraction, ...], direct: list[int]
) -> tuple[int]:
    """The DEPTH1-HULL unit: the first position outside the direct children's hull, or -1."""
    for sid, k in enumerate(table.outcomes):
        lo, hi = space.hull(sid, direct)
        if not grid[lo] <= table.values[k] <= grid[hi]:
            return (space.starts[sid],)
    return (-1,)


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
    if token == "SP":
        return check_sp(scf, instance, "full", ambiguous_is_violation=ambiguous_is_violation, budget=budget)
    if token == "SP-D":
        return check_sp(
            scf, instance, "diffusion_only", ambiguous_is_violation=ambiguous_is_violation, budget=budget
        )
    if token == "PE":
        return check_pareto(scf, instance, budget=budget)
    if token == "ONTO":
        return check_ontoness(scf, instance, budget=budget)
    if token == "DEPTH1-HULL":
        return check_depth1_hull(scf, instance, budget=budget)
    if token.startswith("VR-"):
        return check_voter_relevance(scf, instance, int(token[3:]), budget=budget)
    return check_anonymity(scf, instance, AnonymityVariant(token), budget=budget)
