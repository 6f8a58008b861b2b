from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treechoice import (
    Instance,
    InstanceError,
    InvitationGraph,
    NotParticipatingError,
    PreferenceModel,
    PreferenceVerdict,
    ReportedType,
    StructuralError,
    TrueType,
    compare,
    depth,
    format_rational,
    n_d,
    n_s,
    parse_rational,
    participating_voters,
    report_space,
    situation_key,
)
from treechoice.fileio import make_chain, make_fig2, make_random, uniform_grid

F = Fraction
GRID3 = uniform_grid(3)


def chain_graph() -> InvitationGraph:
    return InvitationGraph(frozenset(["i"]), {"i": frozenset(["j"]), "j": frozenset(["u"])})


def full_reports(graph: InvitationGraph, peak: Fraction = F(0)) -> dict[str, ReportedType]:
    return {v: ReportedType(peak, graph.true_children(v)) for v in graph.voters}


def test_parse_and_format_rational():
    assert parse_rational("3/10") == F(3, 10)
    assert parse_rational(" 6/20 ") == F(3, 10)
    assert format_rational(F(3, 10)) == "3/10"
    assert format_rational(F(0)) == "0/1"
    with pytest.raises(ValueError):
        parse_rational("0.5")
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_graph_rejects_duplicate_parent():
    with pytest.raises(StructuralError):
        InvitationGraph(frozenset(["a", "b"]), {"a": frozenset(["c"]), "b": frozenset(["c"])})


def test_graph_rejects_unreachable_cycle():
    with pytest.raises(StructuralError):
        InvitationGraph(frozenset(["a"]), {"b": frozenset(["c"]), "c": frozenset(["b"])})


def test_graph_rejects_self_invite():
    with pytest.raises(StructuralError):
        InvitationGraph(frozenset(["a"]), {"a": frozenset(["a"])})


def test_participating_full_chain():
    g = chain_graph()
    assert participating_voters(g, full_reports(g)) == {"i", "j", "u"}


def test_participating_exclusion_cuts_subtree():
    g = chain_graph()
    reports = full_reports(g)
    reports["i"] = ReportedType(F(0), frozenset())
    assert participating_voters(g, reports) == {"i"}


def test_direct_children_always_participate():
    g = InvitationGraph(frozenset(["a", "b", "c"]), {})
    reports = {v: ReportedType(F(1, 2), frozenset()) for v in "abc"}
    assert participating_voters(g, reports) == {"a", "b", "c"}


def test_reports_must_be_legal():
    g = chain_graph()
    illegal = full_reports(g)
    illegal["j"] = ReportedType(F(0), frozenset(["i"]))  # i is not j's child
    with pytest.raises(StructuralError):
        participating_voters(g, illegal)
    incomplete = full_reports(g)
    del incomplete["u"]
    with pytest.raises(StructuralError):
        participating_voters(g, incomplete)


def test_depths_and_classes_on_demo():
    inst = make_fig2()
    reports = inst.truthful_reports()
    g = inst.graph
    assert depth(g, reports, "i") == 1
    assert depth(g, reports, "u") == 2
    assert n_s(g, reports, 2) == {"i"}
    assert n_s(g, reports, 0) == {"j", "u", "v"}
    assert n_d(g, reports, 1) == {"i", "j"}
    assert n_d(g, reports, 2) == {"u", "v"}


def test_depths_on_chain():
    g = chain_graph()
    reports = full_reports(g)
    assert n_d(g, reports, 1) == {"i"}
    assert n_d(g, reports, 2) == {"j"}
    assert n_d(g, reports, 3) == {"u"}


def test_depth_of_non_participant_raises():
    g = chain_graph()
    reports = full_reports(g)
    reports["i"] = ReportedType(F(0), frozenset())
    with pytest.raises(NotParticipatingError):
        depth(g, reports, "u")


def test_compare_symmetric_examples():
    assert compare(F(1, 2), F(1, 2), F(3, 4)) is PreferenceVerdict.BETTER
    assert compare(F(1, 2), F(1, 4), F(3, 4)) is PreferenceVerdict.INDIFFERENT
    assert compare(F(1, 2), F(3, 4), F(1, 4)) is PreferenceVerdict.INDIFFERENT
    assert compare(F(1, 2), F(1), F(3, 4)) is PreferenceVerdict.WORSE


def test_compare_robust_examples():
    robust = PreferenceModel.ROBUST_SINGLE_PEAKED
    assert compare(F(1, 2), F(1, 4), F(3, 4), robust) is PreferenceVerdict.AMBIGUOUS
    assert compare(F(1, 2), F(1, 2), F(3, 4), robust) is PreferenceVerdict.BETTER
    assert compare(F(1, 2), F(3, 4), F(7, 8), robust) is PreferenceVerdict.BETTER
    assert compare(F(1, 2), F(1, 4), F(1, 4), robust) is PreferenceVerdict.INDIFFERENT
    with pytest.raises(ValueError):
        compare(F(1, 2), F(2), F(0))


def _single_peaked_orders(grid, peak):
    """All strict single-peaked rankings with this peak, as best-to-worst lists."""
    left = sorted((g for g in grid if g < peak), reverse=True)
    right = sorted(g for g in grid if g > peak)

    def merges(xs, ys):
        if not xs:
            yield list(ys)
            return
        if not ys:
            yield list(xs)
            return
        for rest in merges(xs[1:], ys):
            yield [xs[0]] + rest
        for rest in merges(xs, ys[1:]):
            yield [ys[0]] + rest

    for tail in merges(left, right):
        yield [peak] + tail


def test_compare_robust_matches_order_enumeration_oracle():
    # worst-case semantics: BETTER/WORSE only when every single-peaked
    # completion agrees, AMBIGUOUS when completions disagree
    grid = uniform_grid(5)
    robust = PreferenceModel.ROBUST_SINGLE_PEAKED
    for peak in grid:
        orders = list(_single_peaked_orders(grid, peak))
        for a in grid:
            for b in grid:
                prefers_a = [o.index(a) < o.index(b) for o in orders]
                if a == b:
                    expected = PreferenceVerdict.INDIFFERENT
                elif all(prefers_a):
                    expected = PreferenceVerdict.BETTER
                elif not any(prefers_a):
                    expected = PreferenceVerdict.WORSE
                else:
                    expected = PreferenceVerdict.AMBIGUOUS
                assert compare(peak, a, b, robust) is expected, (peak, a, b)


def test_report_space_sizes(fig2_instance):
    leaf = TrueType(F(0), frozenset())
    assert len(report_space(leaf, GRID3)) == 3
    two = TrueType(F(0), frozenset(["x", "y"]))
    assert len(report_space(two, GRID3)) == 12
    assert len(report_space(two, GRID3, diffusion_only=True)) == 4
    for voter in fig2_instance.graph.voters:
        assert fig2_instance.report_space_size(voter) == len(fig2_instance.report_space(voter))


def test_report_space_contains_truthful_and_full_invitation():
    t = TrueType(F(1, 2), frozenset(["x"]))
    space = report_space(t, GRID3)
    assert ReportedType(F(1, 2), frozenset(["x"])) in space
    diffusion = report_space(t, GRID3, diffusion_only=True)
    assert ReportedType(F(1, 2), frozenset(["x"])) in diffusion
    assert set(diffusion) <= set(space)


def test_report_space_rejects_off_grid_peak():
    with pytest.raises(InstanceError):
        report_space(TrueType(F(1, 3), frozenset()), GRID3)


def test_instance_validation():
    g = InvitationGraph(frozenset(["a"]), {})
    with pytest.raises(InstanceError):
        Instance(g, {"a": F(0)}, (F(0), F(1, 2)))  # missing 1
    with pytest.raises(InstanceError):
        Instance(g, {"a": F(1, 3)}, GRID3)  # peak off grid
    with pytest.raises(InstanceError):
        Instance(g, {}, GRID3)  # missing peak
    with pytest.raises(InstanceError):
        Instance(InvitationGraph(frozenset(), {}), {}, GRID3)  # nobody invited


def test_situation_key_ignores_non_participants():
    inst = make_chain(3, 3)
    reports = inst.truthful_reports()
    reports["i"] = ReportedType(F(0), frozenset())
    other = dict(reports)
    other["u"] = ReportedType(F(1), frozenset())  # unreachable, must not matter
    assert situation_key(inst.graph, reports) == situation_key(inst.graph, other)


@st.composite
def instance_and_reports(draw):
    seed = draw(st.integers(0, 500))
    size = draw(st.integers(1, 4))
    inst = make_random(size=size, max_depth=3, grid_points=3, seed=seed)
    reports = {}
    for v in inst.graph.voters:
        space = inst.report_space(v)
        reports[v] = space[draw(st.integers(0, len(space) - 1))]
    return inst, reports


@settings(max_examples=60, deadline=None)
@given(instance_and_reports())
def test_participation_closed_under_reported_parenthood(pair):
    inst, reports = pair
    g = inst.graph
    participating = participating_voters(g, reports)
    for v in participating:
        if v in g.moderator_children:
            continue
        parent = g.parent_of(v)
        assert parent in participating
        assert v in reports[parent].invited


@settings(max_examples=60, deadline=None)
@given(instance_and_reports(), st.data())
def test_dropping_an_invitee_never_adds_participants(pair, data):
    inst, reports = pair
    g = inst.graph
    inviters = [v for v in g.voters if reports[v].invited]
    if not inviters:
        return
    v = inviters[data.draw(st.integers(0, len(inviters) - 1))]
    dropped = sorted(reports[v].invited)[0]
    smaller = dict(reports)
    smaller[v] = ReportedType(reports[v].peak, reports[v].invited - {dropped})
    assert participating_voters(g, smaller) <= participating_voters(g, reports)


_FRACTIONS = st.fractions(min_value=0, max_value=1, max_denominator=8)


@settings(max_examples=100, deadline=None)
@given(_FRACTIONS, _FRACTIONS, _FRACTIONS)
def test_compare_antisymmetric_and_distance_consistent(peak, a, b):
    verdict = compare(peak, a, b)
    mirrored = compare(peak, b, a)
    if verdict is PreferenceVerdict.BETTER:
        assert mirrored is PreferenceVerdict.WORSE
        assert abs(a - peak) < abs(b - peak)
    elif verdict is PreferenceVerdict.WORSE:
        assert mirrored is PreferenceVerdict.BETTER
        assert abs(a - peak) > abs(b - peak)
    else:
        assert mirrored is verdict is PreferenceVerdict.INDIFFERENT
        assert abs(a - peak) == abs(b - peak)
    assert compare(peak, a, a) is PreferenceVerdict.INDIFFERENT
