from __future__ import annotations

from fractions import Fraction

import pytest

from treechoice import (
    AnonymityVariant,
    BudgetExceededError,
    DepthWeightedMedian,
    DirectChildrenMedian,
    FixedOutcome,
    Gmvs,
    GmvsParameters,
    Instance,
    InvitationGraph,
    ParticipantMedian,
    ReportedType,
    check_anonymity,
    check_depth1_hull,
    check_ontoness,
    check_pareto,
    check_sp,
    check_voter_relevance,
    parse_rational,
    run_check,
)
from treechoice.fileio import make_chain, make_random, uniform_grid
from treechoice.model import participating_voters
from reference_checkers import find_dominating_point, truthful_peak_profiles
from conftest import make_deep_demo

F = Fraction
GRID3 = uniform_grid(3)


def reports_from_witness(entry: dict) -> dict[str, ReportedType]:
    return {
        v: ReportedType(parse_rational(data["peak"]), frozenset(data["invited"]))
        for v, data in entry.items()
    }


def spvio_chain() -> Instance:
    graph = InvitationGraph(frozenset(["i"]), {"i": frozenset(["j"]), "j": frozenset(["u"])})
    return Instance(graph, {"i": F(0), "j": F(1), "u": F(1)}, GRID3)


def test_sp_passes_for_positive_rules(fig2_instance):
    assert check_sp(DirectChildrenMedian(), fig2_instance).passed
    assert check_sp(DepthWeightedMedian(), fig2_instance).passed


def test_sp_fails_for_participant_median_with_replayable_witness():
    inst = spvio_chain()
    scf = ParticipantMedian()
    report = check_sp(scf, inst)
    assert not report.passed
    w = report.witness
    assert w["voter"] == "i"
    truthful = reports_from_witness(w["truthful_profile"])
    deviated = reports_from_witness(w["deviation_profile"])
    assert scf.outcome(inst, truthful) == parse_rational(w["truthful_outcome"])
    assert scf.outcome(inst, deviated) == parse_rational(w["deviation_outcome"])
    peak = parse_rational(w["true_peak"])
    assert abs(parse_rational(w["deviation_outcome"]) - peak) < abs(
        parse_rational(w["truthful_outcome"]) - peak
    )


def test_sp_diffusion_violations_are_sp_violations():
    inst = spvio_chain()
    scf = ParticipantMedian()
    spd = check_sp(scf, inst, "diffusion_only")
    sp = check_sp(scf, inst)
    assert not spd.passed
    assert not sp.passed


def test_pareto_fail_for_fixed_outcome():
    star = InvitationGraph(frozenset(["a", "b"]), {})
    inst = Instance(star, {"a": F(0), "b": F(0)}, GRID3)
    report = check_pareto(FixedOutcome(F(1, 2)), inst)
    assert not report.passed
    assert report.witness["hull"] == ["0/1", "0/1"]
    assert report.witness["outcome"] == "1/2"


def test_pareto_passes_for_medians(fig2_instance):
    assert check_pareto(DirectChildrenMedian(), fig2_instance).passed
    assert check_pareto(DepthWeightedMedian(), fig2_instance).passed


def test_pareto_hull_agrees_with_dominance_oracle():
    # the hull test and the definitional better-for-all oracle must agree
    inst = make_chain(2, 3)
    rules = [FixedOutcome(F(1, 2)), FixedOutcome(F(1)), DirectChildrenMedian(), ParticipantMedian()]
    for profile in truthful_peak_profiles(inst):
        participating = participating_voters(inst.graph, profile)
        peaks = [inst.true_peaks[v] for v in participating]
        lo, hi = min(peaks), max(peaks)
        for rule in rules:
            outcome = rule.outcome(inst, profile)
            dominated = find_dominating_point(inst, profile, outcome) is not None
            assert dominated == (not lo <= outcome <= hi)


def test_ontoness_verdicts():
    star = InvitationGraph(frozenset(["a", "b"]), {})
    inst = Instance(star, {"a": F(0), "b": F(1)}, GRID3)
    assert check_ontoness(DirectChildrenMedian(), inst).passed
    fixed = check_ontoness(FixedOutcome(F(1, 2)), inst)
    assert not fixed.passed
    assert fixed.witness["unhit"] == ["0/1", "1/1"]
    gmvs = Gmvs(GmvsParameters(anonymous={1: (F(0), F(1)), 2: (F(0), F(1, 2), F(1))}))
    assert check_ontoness(gmvs, inst).passed


def test_anonymity_verdicts_on_demo(fig2_instance):
    dwm = DepthWeightedMedian()
    assert check_anonymity(dwm, fig2_instance, AnonymityVariant.BY_STRUCTURE_DEPTH).passed
    ad = check_anonymity(dwm, fig2_instance, AnonymityVariant.BY_DEPTH)
    assert not ad.passed
    assert sorted(ad.witness["class_members"]) == ["i", "j"]
    base = reports_from_witness(ad.witness["profile"])
    permuted = reports_from_witness(ad.witness["permuted_profile"])
    assert dwm.outcome(fig2_instance, base) == parse_rational(ad.witness["outcome"])
    assert dwm.outcome(fig2_instance, permuted) == parse_rational(ad.witness["permuted_outcome"])
    assert check_anonymity(DirectChildrenMedian(), fig2_instance, AnonymityVariant.BY_DEPTH).passed


def test_voter_relevance_verdicts(fig2_instance):
    assert check_voter_relevance(DirectChildrenMedian(), fig2_instance, 1).passed
    vr2 = check_voter_relevance(DepthWeightedMedian(), fig2_instance, 2)
    assert vr2.passed
    assert set(vr2.witness["voters"]) == {"i", "j", "u", "v"}
    deep = make_deep_demo()
    vr3 = check_voter_relevance(DepthWeightedMedian(), deep, 3)
    assert not vr3.passed
    assert vr3.witness["voter"] == "w"
    assert vr3.witness["note"] == "no witness on this grid"
    assert vr3.soundness_note == "PassIsGridRelative"


def test_relevance_pass_witnesses_replay(fig2_instance):
    dwm = DepthWeightedMedian()
    vr2 = check_voter_relevance(dwm, fig2_instance, 2)
    for voter, entry in vr2.witness["voters"].items():
        others = reports_from_witness(entry["others"])
        rep_a = reports_from_witness({voter: entry["report_a"]})[voter]
        rep_b = reports_from_witness({voter: entry["report_b"]})[voter]
        out_a = dwm.outcome(fig2_instance, {**others, voter: rep_a})
        out_b = dwm.outcome(fig2_instance, {**others, voter: rep_b})
        assert out_a == parse_rational(entry["outcome_a"])
        assert out_b == parse_rational(entry["outcome_b"])
        assert out_a != out_b


def test_depth1_hull_verdicts(fig2_instance):
    assert check_depth1_hull(DirectChildrenMedian(), fig2_instance).passed
    assert check_depth1_hull(DepthWeightedMedian(), fig2_instance).passed
    hull = check_depth1_hull(ParticipantMedian(), spvio_chain())
    assert not hull.passed
    profile = reports_from_witness(hull.witness["profile"])
    outcome = ParticipantMedian().outcome(spvio_chain(), profile)
    assert outcome == parse_rational(hull.witness["outcome"])


def test_budget_exhaustion_is_an_error(fig2_instance):
    with pytest.raises(BudgetExceededError):
        check_sp(DirectChildrenMedian(), fig2_instance, budget=10)
    with pytest.raises(BudgetExceededError):
        check_anonymity(DirectChildrenMedian(), fig2_instance, AnonymityVariant.FULL, budget=10)


def test_soundness_notes():
    inst = make_chain(2, 3)
    assert check_sp(DirectChildrenMedian(), inst).soundness_note == "PassIsGridRelative"
    assert check_voter_relevance(DirectChildrenMedian(), inst, 1).soundness_note == "ExactOnGrid"
    bad = check_sp(ParticipantMedian(), spvio_chain())
    assert bad.soundness_note == "ExactOnGrid"


class _PeakTrigger:
    """Toy rule: 1/4 when voter a claims peak 0, else 3/4; both sides of 1/2."""

    name = "peak-trigger"

    def outcome(self, instance, reports):
        return F(1, 4) if reports["a"].peak == 0 else F(3, 4)

    def weights(self, instance, reports):
        return None


def test_robust_mode_counts_ambiguous_as_violation_by_default():
    graph = InvitationGraph(frozenset(["a"]), {})
    from treechoice import PreferenceModel

    robust = Instance(
        graph, {"a": F(1, 2)}, GRID3, PreferenceModel.ROBUST_SINGLE_PEAKED
    )
    symmetric = Instance(graph, {"a": F(1, 2)}, GRID3)
    rule = _PeakTrigger()
    # equal distances: indifferent under the symmetric model, ambiguous robustly
    assert check_sp(rule, symmetric).passed
    strict = check_sp(rule, robust)
    assert not strict.passed
    assert strict.witness["preference_verdict"] == "Ambiguous"
    assert check_sp(rule, robust, ambiguous_is_violation=False).passed


def test_cross_checker_implications_on_random_instances():
    rules = [
        FixedOutcome(F(1, 2)),
        DirectChildrenMedian(),
        DepthWeightedMedian(),
        ParticipantMedian(),
    ]
    for seed in range(8):
        inst = make_random(size=3, max_depth=3, grid_points=3, seed=seed)
        for rule in rules:
            an = {
                variant: check_anonymity(rule, inst, variant).passed
                for variant in AnonymityVariant
            }
            if an[AnonymityVariant.FULL]:
                assert an[AnonymityVariant.BY_STRUCTURE] and an[AnonymityVariant.BY_DEPTH]
            if an[AnonymityVariant.BY_STRUCTURE] or an[AnonymityVariant.BY_DEPTH]:
                assert an[AnonymityVariant.BY_STRUCTURE_DEPTH]
            if not check_sp(rule, inst, "diffusion_only").passed:
                assert not check_sp(rule, inst).passed
            max_d = inst.graph.max_depth
            passed = {d: check_voter_relevance(rule, inst, d).passed for d in range(max_d + 1)}
            for d in range(1, max_d + 1):
                if passed[d]:
                    assert passed[d - 1]


def test_run_check_dispatch(fig2_instance):
    assert run_check(DirectChildrenMedian(), fig2_instance, "sp").property == "SP"
    assert run_check(DirectChildrenMedian(), fig2_instance, "VR-1").property == "VR-1"
    assert run_check(DirectChildrenMedian(), fig2_instance, "depth1-hull").property == "DEPTH1-HULL"
    with pytest.raises(ValueError):
        run_check(DirectChildrenMedian(), fig2_instance, "NOPE")
