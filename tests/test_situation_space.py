"""The shared situation space: differential gate, rule contract, budgets and laziness."""

from __future__ import annotations

import dataclasses
import json
from collections import OrderedDict
from fractions import Fraction

import pytest

import reference_checkers as reference
import treechoice.enumeration as enumeration
import treechoice.properties as properties
from treechoice import (
    AnonymityVariant,
    BudgetExceededError,
    ConfigurationError,
    DirectChildrenMedian,
    Instance,
    InvitationGraph,
    ParticipantMedian,
    PreferenceModel,
    SocialChoiceFunction,
    TabulatedScf,
    check_anonymity,
    check_depth1_hull,
    check_ontoness,
    check_pareto,
    check_sp,
    check_voter_relevance,
    parse_scf,
    participating_voters,
    peak_permutations,
    permutation_classes,
    situation_key,
    tabulate_scf,
)
from treechoice.enumeration import SPACE_CACHE_SIZE, SituationSpace, situation_space
from treechoice.fileio import make_chain, make_fig2, uniform_grid
from conftest import graph_from_parents, instances_for, make_deep_demo, space_never_built, tree_shapes

F = Fraction
GRID3 = uniform_grid(3)
RULES = ("direct-median", "depth-weighted-median", "participant-median", "fixed:1/2")


def _reports(module, rule, inst: Instance) -> list[str]:
    """Report JSON of every property, as the checker ``module`` gives it."""
    out = []
    flags = (True, False) if inst.preference_model is PreferenceModel.ROBUST_SINGLE_PEAKED else (True,)
    for mode in ("full", "diffusion_only"):
        for flag in flags:
            out.append(module.check_sp(rule, inst, mode, ambiguous_is_violation=flag).to_json())
    out.extend(module.check_anonymity(rule, inst, variant).to_json() for variant in AnonymityVariant)
    out.extend(module.check_voter_relevance(rule, inst, d).to_json() for d in range(4))
    out.append(module.check_pareto(rule, inst).to_json())
    out.append(module.check_ontoness(rule, inst).to_json())
    out.append(module.check_depth1_hull(rule, inst).to_json())
    return [json.dumps(doc) for doc in out]


def _reversed_names(graph: InvitationGraph) -> InvitationGraph:
    """The same shape with its voter names in reverse order, so children sort before parents."""
    rename = dict(zip(graph.voters, reversed(graph.voters)))
    return InvitationGraph(
        frozenset(rename[v] for v in graph.moderator_children),
        {rename[v]: frozenset(rename[c] for c in kids) for v, kids in graph.children.items()},
    )


def test_space_numbers_situations_as_the_profile_enumeration_does():
    # the walk in tree order against one situation_key per profile, with the
    # tree order and the sorted name order agreeing and disagreeing; a true
    # peak per voter is needed to build an instance, but no space reads it
    graphs = [g for graph in tree_shapes(4, 4) for g in (graph, _reversed_names(graph))]
    shapes = [
        Instance(graph, {v: grid[-1] for v in graph.voters}, grid)
        for grid in (uniform_grid(3), uniform_grid(4))
        for graph in graphs
    ]
    for inst in shapes + [make_deep_demo()]:
        keys, sids = reference.situation_numbering(inst)
        space = SituationSpace(inst)
        assert space.keys == keys
        assert space.profile_sids == sids
    assert len(shapes) == 2 * 2 * 16  # 1 + 2 + 4 + 9 shapes of 1 to 4 voters


def test_permutations_follow_the_dict_streams():
    # the scan's order against permutation_classes then peak_permutations on
    # each situation's first profile, skipping a permutation equal to it; the
    # differential test only reaches shapes of up to 3 voters
    shapes = [Instance(graph, {v: GRID3[-1] for v in graph.voters}, GRID3) for graph in tree_shapes(4, 4)]
    for inst in shapes + [make_fig2()]:
        space = SituationSpace(inst)
        voters = inst.graph.voters
        sid_of = {key: sid for sid, key in enumerate(space.keys)}
        first: dict[int, int] = {}
        for position, sid in enumerate(space.profile_sids):
            first.setdefault(sid, position)
        assert space.starts == [first[sid] for sid in range(len(space.keys))]
        for variant in AnonymityVariant:
            orbits = space.orbits(variant)
            moved = set()
            for sid in range(len(space.keys)):
                profile = space.profile_at(first[sid])
                expected = [
                    (cls.key, sorted(cls.members), sid_of[situation_key(inst.graph, other)])
                    for cls in permutation_classes(inst.graph, profile, variant)
                    if len(cls.members) >= 2
                    for other in peak_permutations(profile, cls)
                    if other != profile
                ]
                stream = [
                    (key, [voters[m] for m in members], other)
                    for key, members, _, other in space.permutations(sid, variant)
                ]
                assert stream == expected
                if stream:
                    moved.add(sid)
            for orbit in orbits:
                # one class's permutations from the least member reach the orbit
                profile = space.profile_at(first[orbit[0]])
                reached = [
                    {sid_of[situation_key(inst.graph, other)] for other in peak_permutations(profile, cls)}
                    for cls in permutation_classes(inst.graph, profile, variant)
                ]
                assert list(orbit) == sorted(orbit) and set(orbit) in reached
            assert [orbit[0] for orbit in orbits] == sorted(orbit[0] for orbit in orbits)
            assert set().union(*orbits) == moved
    assert len(shapes) == 16


def test_anonymity_fails_first_where_the_reference_does():
    # a fully anonymous table with one situation's outcome changed fails AN*
    # on the whole orbit of that situation, so the first failure is often an
    # earlier situation than the changed one; classes of 3 and 4 members
    # (here, a invites c and d) are beyond the differential test's 3 voters
    four = Instance(graph_from_parents((-1, -1, 0, 0)), {v: GRID3[0] for v in "abcd"}, GRID3)
    fig2 = make_fig2()
    verdicts, changes = set(), []
    for inst, changed in ((four, slice(3, None, 7)), (fig2, slice(167, None, 900))):
        table = tabulate_scf(inst, ParticipantMedian())
        keys = list(table)[changed]
        changes.append(len(keys))
        for key in keys:
            rule = TabulatedScf({**table, key: inst.grid[0] if table[key] != inst.grid[0] else inst.grid[-1]})
            for variant in AnonymityVariant:
                got = check_anonymity(rule, inst, variant).to_json()
                assert got == reference.check_anonymity(rule, inst, variant).to_json(), (key, variant)
                verdicts.add((inst is fig2, got["verdict"]))
    assert changes == [21, 2]
    assert verdicts == {(False, "Pass"), (False, "Fail"), (True, "Pass"), (True, "Fail")}


class _ReflectedLastPeak(SocialChoiceFunction):
    """One minus the peak of the last participant by name.

    It leaves the participants' hull on some truthful-peak profiles and not
    on others, so PE's first witness depends on the order of its scan.
    """

    name = "reflected-last-peak"

    def outcome(self, instance, reports):
        return 1 - reports[max(participating_voters(instance.graph, reports, validate=False))].peak


def test_table_checkers_match_reference_loops():
    symmetric = [inst for graph in tree_shapes(3, 3) for inst in instances_for(graph, GRID3)]
    robust = [
        dataclasses.replace(inst, preference_model=PreferenceModel.ROBUST_SINGLE_PEAKED) for inst in symmetric
    ]
    instances = symmetric + robust
    names = RULES + (_ReflectedLastPeak.name,)
    rules = [parse_scf(name) for name in RULES] + [_ReflectedLastPeak()]
    expected = {
        (k, name): _reports(reference, rule, inst)
        for k, inst in enumerate(instances)
        for name, rule in zip(names, rules)
    }
    # forwards, then backwards: a table or space leaking one peak assignment
    # into another shows as a difference on the way back
    order = list(enumerate(instances))
    mismatches = [
        (k, name)
        for k, inst in order + order[::-1]
        for name, rule in zip(names, rules)
        if _reports(properties, rule, inst) != expected[(k, name)]
    ]
    assert len(instances) == 258
    assert mismatches == []


def test_peak_assignments_of_one_shape_share_their_scans(monkeypatch):
    # SP reads only the manipulator's true peak, VR and AN no true peak at all,
    # so sweeping every peak assignment of one shape scans each table at most
    # once per voter and grid point for SP, once per voter for VR, and reads
    # the orbits once per variant for AN
    graph = InvitationGraph(frozenset(["a", "b"]), {"a": frozenset(["c"])})
    instances = instances_for(graph, GRID3)
    rules = [parse_scf(name) for name in RULES]  # one table each, none evicted
    sweeps = {
        "SP": lambda m, rule, inst: [m.check_sp(rule, inst, mode) for mode in ("full", "diffusion_only")],
        "VR": lambda m, rule, inst: [m.check_voter_relevance(rule, inst, d) for d in range(4)],
        "AN": lambda m, rule, inst: [m.check_anonymity(rule, inst, variant) for variant in AnonymityVariant],
    }
    expected = {
        (name, k, rule.name): [report.to_json() for report in run(reference, rule, inst)]
        for name, run in sweeps.items()
        for k, inst in enumerate(instances)
        for rule in rules
    }
    monkeypatch.setattr(enumeration, "_SPACES", OrderedDict())
    reads = {"deviation_groups": 0, "orbits": 0}
    for method in reads:
        def counted(self, *args, _read=getattr(SituationSpace, method), _name=method):
            reads[_name] += 1
            return _read(self, *args)

        monkeypatch.setattr(SituationSpace, method, counted)
    counts = {}
    for name, run in sweeps.items():
        before = dict(reads)
        for k, inst in enumerate(instances):
            for rule in rules:
                got = [report.to_json() for report in run(properties, rule, inst)]
                assert got == expected[(name, k, rule.name)], (name, inst.true_peaks, rule.name)
        counts[name] = {method: reads[method] - before[method] for method in reads}
    voters, points, tables = len(graph.voters), len(GRID3), len(rules)
    assert len(instances) == 27
    assert 0 < counts["SP"]["deviation_groups"] <= 2 * voters * points * tables  # two SP modes
    assert 0 < counts["VR"]["deviation_groups"] <= voters * tables
    assert counts["AN"] == {"deviation_groups": 0, "orbits": len(AnonymityVariant) * tables}


def test_witnesses_are_built_fresh_on_every_call():
    # the memo keeps positions, not witnesses: a caller that edits a witness
    # it was given changes nothing a later call reports
    inst = make_fig2()
    calls = [
        lambda: check_sp(parse_scf("participant-median"), inst),
        lambda: check_voter_relevance(DirectChildrenMedian(), inst, 1),
    ]
    first = [call() for call in calls]
    assert [report.verdict for report in first] == ["Fail", "Pass"]
    for report in first:
        witness = report.witness
        nested = next(value for value in witness.values() if isinstance(value, dict))
        nested.clear()
        witness["edited"] = True
        report.profiles_examined = -1
    again = [call().to_json() for call in calls]
    enumeration._SPACES.clear()
    cold = [call().to_json() for call in calls]
    assert again == cold
    assert all("edited" not in doc["witness"] and doc["profiles_examined"] > 0 for doc in again)


class _TruePeakReader(SocialChoiceFunction):
    """Returns the moderator's first child's true peak: a rule may not see it."""

    name = "true-peak-reader"

    def outcome(self, instance, reports):
        return instance.true_peaks[min(instance.graph.moderator_children)]


@pytest.mark.parametrize(
    "run",
    [
        lambda rule, inst: check_sp(rule, inst),
        lambda rule, inst: check_anonymity(rule, inst, AnonymityVariant.FULL),
        lambda rule, inst: check_voter_relevance(rule, inst, 1),
        lambda rule, inst: tabulate_scf(inst, rule),
        lambda rule, inst: check_pareto(rule, inst),
        lambda rule, inst: check_ontoness(rule, inst),
        lambda rule, inst: check_depth1_hull(rule, inst),
    ],
    ids=[
        "check_sp", "check_anonymity", "check_voter_relevance", "tabulate_scf",
        "check_pareto", "check_ontoness", "check_depth1_hull",
    ],
)
def test_rule_that_reads_true_peaks_is_rejected(run):
    with pytest.raises(ConfigurationError, match="'true-peak-reader' read instance.true_peaks"):
        run(_TruePeakReader(), make_chain(2, 3))


class _NonParticipantPeak(SocialChoiceFunction):
    """Reads j's report even when i does not invite j, so it sees more than a situation."""

    name = "non-participant-peak"

    def outcome(self, instance, reports):
        return reports["j"].peak


class _RaisesOnLastProfile(DirectChildrenMedian):
    """The direct-children median, except on the last profile: every peak 1, every child invited."""

    name = "raises-on-last-profile"

    def outcome(self, instance, reports):
        if all(rep.peak == 1 and rep.invited == instance.graph.true_children(v) for v, rep in reports.items()):
            raise RuntimeError("evaluated the last profile")
        return super().outcome(instance, reports)


@pytest.mark.parametrize("check", [check_pareto, check_ontoness, check_depth1_hull])
@pytest.mark.parametrize(
    "rule, error, match",
    [
        (_NonParticipantPeak(), ConfigurationError, "observable situation"),
        (_RaisesOnLastProfile(), RuntimeError, "last profile"),
    ],
    ids=["non-participant", "raises-late"],
)
def test_hull_and_onto_checks_evaluate_the_rule_on_every_profile(check, rule, error, match):
    # each reads the rule table, which holds the rule's outcome on every profile
    with pytest.raises(error, match=match):
        check(rule, make_chain(2, 3))


def test_rules_with_different_phantoms_get_separate_tables():
    graph = InvitationGraph(frozenset(["a", "b"]), {})
    inst = Instance(graph, {"a": F(0), "b": F(1)}, GRID3)
    low, high = DirectChildrenMedian((F(0),)), DirectChildrenMedian((F(1),))
    first = tabulate_scf(inst, low)
    assert tabulate_scf(inst, high) != first
    assert tabulate_scf(inst, low) == first
    assert properties.rule_table(low, inst)[1] is not properties.rule_table(high, inst)[1]
    # an equal rule built anew shares the table
    assert properties.rule_table(DirectChildrenMedian((F(0),)), inst)[1] is properties.rule_table(low, inst)[1]
    truthful = situation_key(graph, inst.truthful_reports())
    assert (first[truthful], tabulate_scf(inst, high)[truthful]) == (F(0), F(1))


def test_budgets_are_projected_before_the_space_is_read(fig2_instance, monkeypatch):
    dcm = DirectChildrenMedian()
    assert check_sp(dcm, fig2_instance).passed  # fig2's space and table are now cached
    calls = [
        lambda m: m.check_sp(dcm, fig2_instance, budget=10),
        lambda m: m.check_anonymity(dcm, fig2_instance, AnonymityVariant.FULL, budget=10),
        lambda m: m.check_voter_relevance(dcm, fig2_instance, 1, budget=10),
        lambda m: m.check_ontoness(dcm, fig2_instance, budget=10),
        lambda m: m.check_depth1_hull(dcm, fig2_instance, budget=10),
    ]
    for call in calls:
        with pytest.raises(BudgetExceededError) as new:
            call(properties)
        with pytest.raises(BudgetExceededError) as old:
            call(reference)
        assert str(new.value) == str(old.value)
    # PE reads the table, which covers every profile, not only the 4 truthful-peak ones
    assert reference.check_pareto(dcm, fig2_instance, budget=10).profiles_examined == 4
    with pytest.raises(BudgetExceededError, match="profile enumeration size 5184 exceeds budget 10"):
        check_pareto(dcm, fig2_instance, budget=10)
    # tabulation projects the profiles against the default budget before it builds the space
    monkeypatch.setattr(enumeration, "SituationSpace", space_never_built)
    with pytest.raises(BudgetExceededError, match="profile enumeration size 5038848 exceeds budget 2000000"):
        tabulate_scf(make_chain(9, 3), dcm)


def test_diffusion_budget_bounds_the_table_it_reads():
    # one voter on 5 points: SP-D tries 2 reports, but its table covers all 5 profiles
    inst = make_chain(1, 5)
    dcm = DirectChildrenMedian()
    for _ in range(2):  # the second time, the passing check has cached the table
        with pytest.raises(BudgetExceededError, match="profile enumeration size 5 exceeds budget 3"):
            check_sp(dcm, inst, "diffusion_only", budget=3)
        assert check_sp(dcm, inst, "diffusion_only", budget=5).passed


class _AlwaysRaises(SocialChoiceFunction):
    name = "always-raises"

    def outcome(self, instance, reports):
        raise RuntimeError("evaluated")


def test_relevance_with_empty_scope_never_tabulates():
    inst = make_fig2()
    rule = _AlwaysRaises()
    report = check_voter_relevance(rule, inst, 0)
    assert report.to_json() == reference.check_voter_relevance(rule, inst, 0).to_json()
    assert report.passed and report.profiles_examined == 0
    assert all(scf is not rule for scf, _ in situation_space(inst).tables)
    with pytest.raises(RuntimeError, match="evaluated"):
        check_voter_relevance(rule, inst, 1)


def test_space_cache_is_bounded():
    # one voter on grids of 2, 3, ... points: one shape, a new grid each
    singles = [make_chain(1, points) for points in range(2, SPACE_CACHE_SIZE + 3)]
    spaces = [situation_space(inst) for inst in singles]
    assert situation_space(singles[-1]) is spaces[-1]
    assert situation_space(singles[0]) is not spaces[0]  # evicted, rebuilt
