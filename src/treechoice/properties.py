"""Exhaustive property checkers with concrete, replayable witnesses.

Each checker certifies or refutes one property of an outcome rule on one
finite instance. Fail verdicts always carry a witness that replays with one
rule evaluation per cited profile; witnesses are minimal in the deterministic
enumeration order. Pass verdicts for the incentive, efficiency, and anonymity
checkers are relative to the instance's grid; relevance works the other way
around (a Pass is witnessed exactly, a Fail means no witness on this grid).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .enumeration import (
    AnonymityVariant,
    DEFAULT_PROFILE_BUDGET,
    ProfileFilters,
    deviation_space_size,
    enumerate_profiles,
    participating_others,
    peak_permutations,
    permutation_classes,
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
    situation_key,
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
    examined = 0
    for profile in enumerate_profiles(instance, ProfileFilters(truthful_peaks=True), budget=budget):
        examined += 1
        participating = participating_voters(graph, profile, validate=False)
        peaks = [instance.true_peaks[v] for v in participating]
        lo, hi = min(peaks), max(peaks)
        out = scf.outcome(instance, profile)
        if not lo <= out <= hi:
            witness = {
                "profile": profile_to_json(profile),
                "participating": sorted(participating),
                "hull": [format_rational(lo), format_rational(hi)],
                "outcome": format_rational(out),
            }
            return CheckReport("PE", "Fail", witness, examined, EXACT_ON_GRID)
    return CheckReport("PE", "Pass", None, examined, PASS_IS_GRID_RELATIVE)


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
    """Every grid point is the outcome of at least one report profile."""
    wanted = set(instance.grid)
    examined = 0
    for profile in enumerate_profiles(instance, budget=budget):
        examined += 1
        wanted.discard(scf.outcome(instance, profile))
        if not wanted:
            return CheckReport("ONTO", "Pass", None, examined, PASS_IS_GRID_RELATIVE)
    witness = {"unhit": [format_rational(q) for q in sorted(wanted)]}
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


def check_depth1_hull(
    scf: SocialChoiceFunction,
    instance: Instance,
    *,
    budget: int | None = DEFAULT_PROFILE_BUDGET,
) -> CheckReport:
    """Outcome stays inside the direct children's reported-peak hull."""
    graph = instance.graph
    direct = sorted(graph.moderator_children)
    examined = 0
    for profile in enumerate_profiles(instance, budget=budget):
        examined += 1
        peaks = [profile[v].peak for v in direct]
        lo, hi = min(peaks), max(peaks)
        out = scf.outcome(instance, profile)
        if not lo <= out <= hi:
            witness = {
                "profile": profile_to_json(profile),
                "depth1_hull": [format_rational(lo), format_rational(hi)],
                "outcome": format_rational(out),
            }
            return CheckReport("DEPTH1-HULL", "Fail", witness, examined, EXACT_ON_GRID)
    return CheckReport("DEPTH1-HULL", "Pass", None, examined, PASS_IS_GRID_RELATIVE)


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
