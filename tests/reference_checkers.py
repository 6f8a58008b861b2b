"""Loop-based checkers for every property, kept as a test oracle.

These evaluate the rule profile by profile and call ``compare`` on every
deviation, with no shared situation table: the form the table-backed
checkers in ``treechoice.properties`` replaced.
``test_table_checkers_match_reference_loops`` requires both to produce the
same report JSON, byte for byte. ``truthful_peak_profiles`` is the
enumeration the efficiency loop scans, ``participating_others`` the one
the deviation loops scan, and ``profile_to_json`` how every loop spells a
profile. ``find_dominating_point`` is the definitional efficiency oracle
the hull tests compare with.
``situation_numbering`` is the same kind of oracle for the situation
space's constructor, ``tabulate`` for ``properties.rule_table``,
``set_built_equalities`` for ``SituationSpace.equalities``,
``walked_orbits`` for ``SituationSpace.orbits``, and
``situation_classes`` for ``SituationSpace.set_classes``; the first two
read their classes from the third, not from the space.
``walked_participation`` and ``leveled_depths`` are the two walks that
``participating_voters`` and ``reported_depths`` made before they shared
one.
``deviation_groups`` walks a voter's contexts one at a time, as the space
did before it kept each distinct group once, and ``first_rejected`` scans
them, as ``RuleTable``'s SP and VR units did before they scanned distinct
outcome rows.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator, Mapping

from treechoice.enumeration import (
    AnonymityVariant,
    DEFAULT_PROFILE_BUDGET,
    deviation_space_size,
    enumerate_profiles,
    others_assignments,
    peak_permutations,
    permutation_classes,
    voter_participates,
)
from treechoice.model import (
    BudgetExceededError,
    ConfigurationError,
    Instance,
    PreferenceModel,
    PreferenceVerdict,
    ReportedType,
    SituationKey,
    VoterId,
    _validate_reports,
    compare,
    format_rational,
    participating_voters,
    situation_key,
)
from treechoice.properties import EXACT_ON_GRID, PASS_IS_GRID_RELATIVE, CheckReport
from treechoice.scf import PeakBlindInstance, SocialChoiceFunction


def profile_to_json(reports: Mapping[VoterId, ReportedType]) -> dict:
    """A profile as every report and witness spells it: per voter, in order, its peak and sorted invited list."""
    return {
        v: {"peak": format_rational(rep.peak), "invited": sorted(rep.invited)}
        for v, rep in sorted(reports.items())
    }


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


def situation_numbering(instance: Instance) -> tuple[tuple[SituationKey, ...], list[int]]:
    """Keys in order of first appearance, and each profile's key id, one ``situation_key`` per profile."""
    index: dict[SituationKey, int] = {}
    sids = [
        index.setdefault(situation_key(instance.graph, profile), len(index))
        for profile in enumerate_profiles(instance, budget=None)
    ]
    return tuple(index), sids


def deviation_groups(space, voter: VoterId) -> Iterator[tuple[int, list[int]]]:
    """Per context of ``voter``, in order: its position and the situation of each of the voter's reports.

    The body is the space's per-context walk, unchanged: a context is a
    joint report of the others under which the voter takes part, and its
    position is that of its profile where the voter reports its first
    report.
    """
    k = space.graph.voters.index(voter)
    stride = space.strides[k]
    block = stride * len(space.reports[voter])
    sids, digits = space.profile_sids, space.digits
    for start in range(0, len(sids), block):
        for pos in range(start, start + stride):
            if digits[sids[pos]][k] >= 0:
                yield pos, sids[pos : pos + block : stride]


def first_rejected(table, voter: VoterId, base: int, tried, accepts) -> tuple[int, int, int, int, int]:
    """``RuleTable._first_rejected`` as it scanned every context, one at a time; the body is unchanged."""
    outcomes = table.outcomes
    examined = 0
    for position, group in deviation_groups(table.space, voter):
        x = outcomes[group[base]]
        allowed = accepts[x]
        for k, r in enumerate(tried):
            y = outcomes[group[r]]
            if not allowed >> y & 1:
                return examined + k + 1, position, r, x, y
        examined += len(tried)
    return examined, -1, -1, -1, -1


def walked_participation(graph, reports, *, validate: bool = True) -> frozenset[VoterId]:
    """``participating_voters`` as it walked on its own, by a stack; the body is unchanged."""
    if validate:
        _validate_reports(graph, reports)
    reached = set(graph.moderator_children)
    frontier = list(graph.moderator_children)
    while frontier:
        v = frontier.pop()
        for child in reports[v].invited:
            if child not in reached:
                reached.add(child)
                frontier.append(child)
    return frozenset(reached)


def leveled_depths(graph, reports, *, validate: bool = True) -> dict[VoterId, int]:
    """``reported_depths`` as it walked on its own, level by level in sorted order; the body is unchanged."""
    if validate:
        _validate_reports(graph, reports)
    depth: dict[VoterId, int] = {}
    frontier = sorted(graph.moderator_children)
    level = 1
    while frontier:
        nxt: list[VoterId] = []
        for v in frontier:
            depth[v] = level
            nxt.extend(sorted(c for c in reports[v].invited if c not in depth))
        frontier = nxt
        level += 1
    return depth


def situation_classes(space, variant: AnonymityVariant) -> list[tuple[tuple[tuple, tuple[int, ...]], ...]]:
    """Per situation, its anonymity classes, as ``SituationSpace.classes`` built them before the per-set layout.

    One pass over every situation: each participation set's classes are
    computed from its first key and shared by the set's later situations;
    the body is that method's, unchanged. ``SituationSpace.set_classes``
    holds the same classes per set; ``set_built_equalities`` and
    ``walked_orbits`` read these instead.
    """
    self = space
    index = {v: k for k, v in enumerate(self.graph.voters)}
    by_set: dict[int, tuple[tuple[tuple, tuple[int, ...]], ...]] = {}
    out = []
    for key, reached in zip(self.keys, self.reached):
        classes = by_set.get(reached)
        if classes is None:
            reports = {v: ReportedType(p, frozenset(inv)) for v, p, inv in key}
            classes = by_set[reached] = tuple(
                (cls.key, tuple(sorted(index[v] for v in cls.members)))
                for cls in permutation_classes(self.graph, reports, variant)
                if len(cls.members) >= 2
            )
        out.append(classes)
    return out


def set_built_equalities(space, variant: AnonymityVariant) -> tuple[tuple[int, int], ...]:
    """``SituationSpace.equalities`` as it was built before each swap was emitted once.

    Every swap is found from both situations it links and de-duplicated
    through a set; the body is the space method's, but for reading the
    classes from ``situation_classes``.
    """
    self = space
    var, _ = self.variables()
    sids = self.profile_sids
    # swapping peaks a and b of voters i and j moves a position by
    # (b - a) * (unit[i] - unit[j]), as in ``with_peaks``
    unit = [n * stride for n, stride in zip(self.invitations, self.strides)]
    pairs: set[tuple[int, int]] = set()
    for sid, classes in enumerate(situation_classes(space, variant)):
        base, start = var[sid], self.starts[sid]
        for _, members in classes:
            for (i, a), (j, b) in itertools.combinations(zip(members, self.peaks(sid, members)), 2):
                if a != b:
                    other = var[sids[start + (b - a) * (unit[i] - unit[j])]]
                    pairs.add((min(base, other), max(base, other)))
    return tuple(sorted(pairs))


def walked_orbits(space, variant: AnonymityVariant) -> list[tuple[int, ...]]:
    """``SituationSpace.orbits`` as it was built before the per-set templates.

    Situations are walked one at a time in id order, and each orbit is found
    from its least member by permuting the class's peaks; the body is the
    space method's, but for reading the classes from ``situation_classes``.
    """
    self = space
    covered = [0] * len(self.keys)  # per situation, a bit per class index already in an orbit
    out = []
    for sid, own in enumerate(situation_classes(space, variant)):
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
    return out


def tabulate(scf: SocialChoiceFunction, instance: Instance) -> tuple[tuple[Fraction, ...], tuple[int, ...]]:
    """A rule table as ``properties.rule_table`` gives it, from one evaluation per profile.

    Situations are numbered by first appearance and the first profile's
    outcome stands for its situation; a later profile of the same situation
    with another outcome raises ConfigurationError naming both profiles.
    Returns the values (the grid, extended in order by any off-grid
    outcome) and each situation's index into them.
    """
    view = PeakBlindInstance(instance, scf.name)
    first: dict[SituationKey, tuple[Fraction, dict]] = {}
    for profile in enumerate_profiles(instance, budget=None):
        out = scf.outcome(view, profile)
        seen, seen_profile = first.setdefault(situation_key(instance.graph, profile), (out, profile))
        if seen != out:
            raise ConfigurationError(
                f"rule {scf.name!r} does not depend on the observable situation alone: profiles "
                f"{profile_to_json(seen_profile)} and {profile_to_json(profile)} share one situation "
                f"but give {format_rational(seen)} and {format_rational(out)}"
            )
    outs = [out for out, _ in first.values()]
    values = tuple(sorted(set(instance.grid).union(outs)))
    return values, tuple(values.index(out) for out in outs)


def truthful_peak_profiles(
    instance: Instance,
    *,
    budget: int | None = None,
) -> Iterator[dict[VoterId, ReportedType]]:
    """Every profile where each voter reports its true peak, in lexicographic order.

    Invitations range over every subset. Raises BudgetExceededError before
    yielding anything when the count exceeds ``budget``.
    """
    voters = instance.graph.voters
    spaces = [instance.report_space(v, diffusion_only=True) for v in voters]
    size = math.prod(len(space) for space in spaces)
    if budget is not None and size > budget:
        raise BudgetExceededError(size, budget, what="profile enumeration")
    for combo in itertools.product(*spaces):
        yield dict(zip(voters, combo))


class _CachedRule:
    """Memoizes outcomes by observable situation; rules are pure, so this is safe."""

    def __init__(self, scf: SocialChoiceFunction, instance: Instance) -> None:
        self._scf = scf
        self._instance = instance
        self._cache: dict = {}

    def outcome(self, reports: Mapping[VoterId, ReportedType]) -> Fraction:
        key = situation_key(self._instance.graph, reports)
        hit = self._cache.get(key)
        if hit is None:
            hit = self._scf.outcome(self._instance, reports)
            self._cache[key] = hit
        return hit


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
        instance, {v: 1 + len(instance.report_space(v, diffusion_only=diffusion)) for v in graph.voters}
    )
    if budget is not None and projected > budget:
        raise BudgetExceededError(projected, budget, what="deviation enumeration")

    examined = 0
    for voter in graph.voters:
        truthful = instance.truthful_report(voter)
        true_peak = instance.true_peaks[voter]
        space = instance.report_space(voter, diffusion_only=diffusion)
        for others in participating_others(instance, voter):
            profile_truth = dict(others)
            profile_truth[voter] = truthful
            out_truth = scf.outcome(instance, profile_truth)
            for deviation in space:
                if deviation == truthful:
                    continue
                profile_dev = dict(others)
                profile_dev[voter] = deviation
                out_dev = scf.outcome(instance, profile_dev)
                examined += 1
                verdict = compare(true_peak, out_truth, out_dev, model)
                violates = verdict is PreferenceVerdict.WORSE or (
                    model is PreferenceModel.ROBUST_SINGLE_PEAKED
                    and ambiguous_is_violation
                    and verdict is PreferenceVerdict.AMBIGUOUS
                )
                if violates:
                    witness = {
                        "voter": voter,
                        "true_peak": format_rational(true_peak),
                        "mode": mode,
                        "truthful_profile": profile_to_json(profile_truth),
                        "deviation_profile": profile_to_json(profile_dev),
                        "truthful_outcome": format_rational(out_truth),
                        "deviation_outcome": format_rational(out_dev),
                        "preference_verdict": verdict.value,
                    }
                    return CheckReport(prop, "Fail", witness, examined, EXACT_ON_GRID)
    return CheckReport(prop, "Pass", None, examined, PASS_IS_GRID_RELATIVE)


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
    peaks permute.
    """
    graph = instance.graph
    cached = _CachedRule(scf, instance)
    examined = 0
    for profile in enumerate_profiles(instance, budget=budget):
        examined += 1
        base = cached.outcome(profile)
        for cls in permutation_classes(graph, profile, variant):
            if len(cls.members) < 2:
                continue
            for permuted in peak_permutations(profile, cls):
                if permuted == profile:
                    continue
                out = cached.outcome(permuted)
                if out != base:
                    witness = {
                        "profile": profile_to_json(profile),
                        "permuted_profile": profile_to_json(permuted),
                        "class_key": list(cls.key),
                        "class_members": sorted(cls.members),
                        "outcome": format_rational(base),
                        "permuted_outcome": format_rational(out),
                    }
                    return CheckReport(variant.value, "Fail", witness, examined, EXACT_ON_GRID)
    return CheckReport(variant.value, "Pass", None, examined, PASS_IS_GRID_RELATIVE)


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

    projected = deviation_space_size(instance, {v: len(instance.report_space(v)) for v in scope})
    if budget is not None and projected > budget:
        raise BudgetExceededError(projected, budget, what="relevance enumeration")

    grid_types = [format_rational(q) for q in instance.grid]
    examined = 0
    witnesses: dict[VoterId, dict] = {}
    for voter in scope:
        space = instance.report_space(voter)
        found: dict | None = None
        for others in participating_others(instance, voter):
            first_out: Fraction | None = None
            first_rep: ReportedType | None = None
            for rep in space:
                profile = dict(others)
                profile[voter] = rep
                out = scf.outcome(instance, profile)
                examined += 1
                if first_out is None:
                    first_out, first_rep = out, rep
                elif out != first_out:
                    assert first_rep is not None
                    found = {
                        "types": grid_types,
                        "others": profile_to_json(others),
                        "report_a": profile_to_json({voter: first_rep})[voter],
                        "report_b": profile_to_json({voter: rep})[voter],
                        "outcome_a": format_rational(first_out),
                        "outcome_b": format_rational(out),
                    }
                    break
            if found is not None:
                break
        if found is None:
            witness = {
                "voter": voter,
                "types": grid_types,
                "note": "no witness on this grid",
            }
            return CheckReport(prop, "Fail", witness, examined, PASS_IS_GRID_RELATIVE)
        witnesses[voter] = found
    return CheckReport(prop, "Pass", {"voters": witnesses}, examined, EXACT_ON_GRID)


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
    ``find_dominating_point`` for the definitional oracle).
    """
    graph = instance.graph
    view = PeakBlindInstance(instance, scf.name)
    examined = 0
    for profile in truthful_peak_profiles(instance, budget=budget):
        examined += 1
        participating = participating_voters(graph, profile, validate=False)
        peaks = [instance.true_peaks[v] for v in participating]
        lo, hi = min(peaks), max(peaks)
        out = scf.outcome(view, profile)
        if not lo <= out <= hi:
            witness = {
                "profile": profile_to_json(profile),
                "participating": sorted(participating),
                "hull": [format_rational(lo), format_rational(hi)],
                "outcome": format_rational(out),
            }
            return CheckReport("PE", "Fail", witness, examined, EXACT_ON_GRID)
    return CheckReport("PE", "Pass", None, examined, PASS_IS_GRID_RELATIVE)


def check_ontoness(
    scf: SocialChoiceFunction,
    instance: Instance,
    *,
    budget: int | None = DEFAULT_PROFILE_BUDGET,
) -> CheckReport:
    """Every grid point is the outcome of at least one report profile."""
    wanted = set(instance.grid)
    view = PeakBlindInstance(instance, scf.name)
    examined = 0
    for profile in enumerate_profiles(instance, budget=budget):
        examined += 1
        wanted.discard(scf.outcome(view, profile))
        if not wanted:
            return CheckReport("ONTO", "Pass", None, examined, PASS_IS_GRID_RELATIVE)
    witness = {"unhit": [format_rational(q) for q in sorted(wanted)]}
    return CheckReport("ONTO", "Fail", witness, examined, EXACT_ON_GRID)


def check_depth1_hull(
    scf: SocialChoiceFunction,
    instance: Instance,
    *,
    budget: int | None = DEFAULT_PROFILE_BUDGET,
) -> CheckReport:
    """Outcome stays inside the direct children's reported-peak hull."""
    graph = instance.graph
    direct = sorted(graph.moderator_children)
    view = PeakBlindInstance(instance, scf.name)
    examined = 0
    for profile in enumerate_profiles(instance, budget=budget):
        examined += 1
        peaks = [profile[v].peak for v in direct]
        lo, hi = min(peaks), max(peaks)
        out = scf.outcome(view, profile)
        if not lo <= out <= hi:
            witness = {
                "profile": profile_to_json(profile),
                "depth1_hull": [format_rational(lo), format_rational(hi)],
                "outcome": format_rational(out),
            }
            return CheckReport("DEPTH1-HULL", "Fail", witness, examined, EXACT_ON_GRID)
    return CheckReport("DEPTH1-HULL", "Pass", None, examined, PASS_IS_GRID_RELATIVE)
