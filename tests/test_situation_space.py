"""The shared situation space: differential gate, rule contract, budgets and laziness."""

from __future__ import annotations

import copy
import dataclasses
import functools
import gc
import itertools
import json
import random
import weakref
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
    DepthWeightedMedian,
    DirectChildrenMedian,
    FixedOutcome,
    Instance,
    InvitationGraph,
    ParticipantMedian,
    PreferenceModel,
    SocialChoiceFunction,
    TabulatedScf,
    WeightedMedianRule,
    check_anonymity,
    check_depth1_hull,
    check_ontoness,
    check_pareto,
    check_sp,
    check_voter_relevance,
    encode,
    enumerate_profiles,
    parse_scf,
    participating_voters,
    peak_permutations,
    permutation_classes,
    situation_key,
    tabulate_scf,
)
from treechoice.enumeration import SPACE_CACHE_SIZE, SituationSpace, situation_space
from treechoice.model import preference_masks
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


def test_row_scans_match_the_per_context_scans():
    # SP and VR scan each voter's distinct outcome rows, each at its first
    # context; the oracle scans every context. Every voter, truthful report,
    # SP block, preference model and ambiguity setting, on every shape of up
    # to 4 voters on 3 points and fig2; a seeded random table makes SP and VR
    # fail at contexts past the first, where rows repeat before they reject
    rng = random.Random(25)
    shapes = [Instance(graph, {v: GRID3[-1] for v in graph.voters}, GRID3) for graph in tree_shapes(4, 4)]
    fixed = [FixedOutcome(F(1, 2)), DirectChildrenMedian(), DepthWeightedMedian(), ParticipantMedian()]
    units, seen = 0, set()  # per unit kind: (rejected, past the first context)
    for inst in shapes + [make_fig2()]:
        keys = SituationSpace(inst).keys
        rules = fixed + [TabulatedScf({key: rng.choice(inst.grid) for key in keys})]
        for model, rule in itertools.product(PreferenceModel, rules):
            space, table = properties.rule_table(rule, dataclasses.replace(inst, preference_model=model))
            values = table.values
            for k, voter in enumerate(inst.graph.voters):
                sizes = len(space.reports[voter])
                vr = reference.first_rejected(table, voter, 0, range(sizes), [1 << x for x in range(len(values))])
                assert table.vr(voter) == vr, (inst.graph, rule.name, voter)
                seen.add(("VR", vr[1] >= 0, vr[0] > sizes))
                n = space.invitations[k]
                for flag, truth_at, block in itertools.product((True, False), range(n - 1, sizes, n), (n, sizes)):
                    forward, _ = preference_masks(values, model, flag)
                    start = truth_at - truth_at % block
                    tried = [r for r in range(start, start + block) if r != truth_at]
                    accepts = forward[values.index(space.reports[voter][truth_at].peak)]
                    sp = reference.first_rejected(table, voter, truth_at, tried, accepts)
                    assert table.sp(model, flag, voter, truth_at, block) == sp, (inst.graph, rule.name, voter)
                    seen.add(("SP", sp[1] >= 0, sp[0] > len(tried)))
                    units += 1
    assert units == 7_320
    assert seen == set(itertools.product(("SP", "VR"), (False, True), (False, True)))


def test_profile_json_spells_what_profile_to_json_spells():
    # every position of every shape of up to 4 voters on 3 points, and fig2,
    # against the profile there in ``enumerate_profiles``, compared as JSON
    # text so that key order counts; ``omit`` drops one voter, a different one
    # from one position to the next, and no two calls share a dict or a list
    shapes = [Instance(graph, {v: GRID3[-1] for v in graph.voters}, GRID3) for graph in tree_shapes(4, 4)]
    positions = 0
    for inst in shapes + [make_fig2()]:
        space = SituationSpace(inst)
        voters = inst.graph.voters
        for k, v in enumerate(voters):
            for r, report in enumerate(space.reports[v]):
                assert space.report_json(k, r) == reference.profile_to_json({v: report})[v]
        for position, profile in enumerate(enumerate_profiles(inst)):
            assert space.profile_at(position) == profile
            omit = voters[position % len(voters)]
            first = space.profile_json(position)
            assert json.dumps(first) == json.dumps(reference.profile_to_json(profile))
            others = reference.profile_to_json({u: rep for u, rep in profile.items() if u != omit})
            assert json.dumps(space.profile_json(position, omit)) == json.dumps(others)
            again = space.profile_json(position)
            assert again is not first
            assert all(again[v] is not first[v] and again[v]["invited"] is not first[v]["invited"] for v in voters)
            positions += 1
    assert positions == 4134 + 5184  # the 16 shapes' profiles, then fig2's


def test_hull_checks_match_the_reference_on_every_peak_assignment():
    # PE picks, among the situations of its out-of-hull index whose
    # participants report the true peaks, the one of least rank; fixed:1/3
    # is off the 3-point grid, so the outcome is a value the grid lacks. A
    # fixed rule that fails PE fails where every mask is 0, the least rank
    # in any order; the reflected rule fails where more voters take part
    # too, so only it tells the ranks' order apart.
    rules = [parse_scf(name) for name in RULES + ("fixed:1/3",)] + [_ReflectedLastPeak()]
    verdicts = set()
    instances = 0
    for graph in tree_shapes(4, 4):
        peak_assignments = instances_for(graph, GRID3)
        for rule in rules:
            # the reference DEPTH1-HULL walks every profile and reads no true
            # peak, so one run of it stands for every assignment of the shape
            depth1 = json.dumps(reference.check_depth1_hull(rule, peak_assignments[0]).to_json())
            for inst in peak_assignments:
                pe = check_pareto(rule, inst).to_json()
                assert json.dumps(pe) == json.dumps(reference.check_pareto(rule, inst).to_json()), (
                    graph, rule.name, inst.true_peaks
                )
                assert json.dumps(check_depth1_hull(rule, inst).to_json()) == depth1, (graph, rule.name)
                verdicts.add(("PE", rule.name, pe["verdict"]))
            verdicts.add(("DEPTH1-HULL", rule.name, json.loads(depth1)["verdict"]))
            instances += len(peak_assignments)
    assert instances == 858 * len(rules)
    failed = {(check, name) for check, name, verdict in verdicts if verdict == "Fail"}
    assert failed == {
        *[
            (check, name)
            for check in ("PE", "DEPTH1-HULL")
            for name in ("fixed:1/2", "fixed:1/3", "reflected-last-peak")
        ],
        ("DEPTH1-HULL", "participant-median"),
    }


def test_peak_assignments_of_one_shape_share_their_scans(monkeypatch):
    # SP reads only the manipulator's true peak, VR and AN no true peak at all,
    # so sweeping every peak assignment of one shape walks each voter's
    # contexts once for the shape and builds each table's outcome rows once
    # per voter, for both SP modes and every VR level, and reads the orbits
    # once per variant for AN; PE and DEPTH1-HULL build their out-of-hull
    # index once per table, and the one space walked for the shape holds the
    # hull arrays they read
    graph = InvitationGraph(frozenset(["a", "b"]), {"a": frozenset(["c"])})
    instances = instances_for(graph, GRID3)
    rules = [parse_scf(name) for name in RULES]  # one table each, none evicted
    sweeps = {
        "SP": lambda m, rule, inst: [m.check_sp(rule, inst, mode) for mode in ("full", "diffusion_only")],
        "VR": lambda m, rule, inst: [m.check_voter_relevance(rule, inst, d) for d in range(4)],
        "AN": lambda m, rule, inst: [m.check_anonymity(rule, inst, variant) for variant in AnonymityVariant],
        "PE": lambda m, rule, inst: [m.check_pareto(rule, inst)],
        "DEPTH1-HULL": lambda m, rule, inst: [m.check_depth1_hull(rule, inst)],
    }
    expected = {
        (name, k, rule.name): [report.to_json() for report in run(reference, rule, inst)]
        for name, run in sweeps.items()
        for k, inst in enumerate(instances)
        for rule in rules
    }
    monkeypatch.setattr(enumeration, "_SPACES", OrderedDict())
    reads = dict.fromkeys(["deviation_block", "rows", "orbits", "outside", "SituationSpace"], 0)

    def counting(name, call):
        @functools.wraps(call)
        def counted(*args):
            reads[name] += 1
            return call(*args)

        return counted

    monkeypatch.setattr(SituationSpace, "orbits", counting("orbits", SituationSpace.orbits))
    # count the builds of the memoized blocks and units, not their reads
    for cls, method in (
        (SituationSpace, "deviation_block"),
        (properties.RuleTable, "rows"),
        (properties.RuleTable, "outside"),
    ):
        build = getattr(cls, method).__wrapped__
        monkeypatch.setattr(cls, method, enumeration._memoized(counting(method, build)))
    monkeypatch.setattr(enumeration, "SituationSpace", counting("SituationSpace", SituationSpace))
    counts = {}
    for name, run in sweeps.items():
        before = dict(reads)
        for k, inst in enumerate(instances):
            for rule in rules:
                got = [report.to_json() for report in run(properties, rule, inst)]
                assert got == expected[(name, k, rule.name)], (name, inst.true_peaks, rule.name)
        counts[name] = {method: reads[method] - before[method] for method in reads}
    voters, tables = len(graph.voters), len(rules)
    assert len(instances) == 27
    unread = dict.fromkeys(reads, 0)
    # the first sweep walks the space, hulls and all, and each voter's
    # contexts, and builds each table's rows per voter, which VR reads again
    assert counts["SP"] == {**unread, "deviation_block": voters, "rows": voters * tables, "SituationSpace": 1}
    assert counts["VR"] == unread
    assert counts["AN"] == {**unread, "orbits": len(AnonymityVariant) * tables}
    assert counts["PE"] == counts["DEPTH1-HULL"] == {**unread, "outside": tables}


def test_witnesses_are_built_fresh_on_every_call():
    # the memo keeps positions, not witnesses: a caller that edits a witness
    # it was given changes nothing a later call reports
    inst = make_fig2()
    calls = [
        lambda: check_sp(parse_scf("participant-median"), inst),
        lambda: check_voter_relevance(DirectChildrenMedian(), inst, 1),
        lambda: check_pareto(FixedOutcome(F(0)), inst),
        lambda: check_anonymity(DepthWeightedMedian(), inst, AnonymityVariant.FULL),
        lambda: check_depth1_hull(ParticipantMedian(), inst),
    ]
    first = [call() for call in calls]
    assert [report.verdict for report in first] == ["Fail", "Pass", "Fail", "Fail", "Fail"]
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


def _values_and_outcomes(rule, inst):
    table = properties.rule_table(rule, inst)[1]
    return table.values, table.outcomes


@pytest.mark.parametrize("inst, sets", [(make_fig2(), 4), (make_chain(3, 3), 3)], ids=["fig2", "chain-3"])
@pytest.mark.parametrize(
    "rule", [FixedOutcome(F(1, 2)), DirectChildrenMedian(), DepthWeightedMedian(), ParticipantMedian()]
)
def test_bundled_medians_are_weighted_once_per_participation_set(inst, sets, rule, monkeypatch):
    # a weighted median's weights read only invitations, which the
    # participants fix, so its table comes from one ``weights`` call per
    # participation set and no ``outcome`` call; a rule that is not a
    # weighted median is evaluated once per situation, on its first profile.
    # ``outcome`` is counted where the rule inherits it, as a tracer wraps it.
    monkeypatch.setattr(enumeration, "_SPACES", OrderedDict())
    calls = {"outcome": 0, "weights": 0}
    owner = WeightedMedianRule if isinstance(rule, WeightedMedianRule) else type(rule)
    for cls, name in ((owner, "outcome"), (type(rule), "weights")):

        def counted(self, *args, method=getattr(cls, name), name=name):
            calls[name] += 1
            return method(self, *args)

        monkeypatch.setattr(cls, name, counted)
    space, table = properties.rule_table(rule, inst)
    assert len(set(space.reached)) == sets
    assert len(space.keys) == len(table.outcomes) < len(space.profile_sids)
    if owner is WeightedMedianRule:
        assert calls == {"outcome": 0, "weights": sets}
    else:
        assert calls == {"outcome": len(space.keys), "weights": 0}


class _ReadsEveryVoter(SocialChoiceFunction):
    """The direct-children median, after one read of every voter's report through ``read``.

    It reads non-participants' reports but ignores them, so its table is the
    median's. It counts its evaluations.
    """

    name = "reads-every-voter"

    def __init__(self, read) -> None:
        self.read = read
        self.calls = 0

    def outcome(self, instance, reports):
        self.calls += 1
        self.read(reports, instance.graph.voters)
        return DirectChildrenMedian().outcome(instance, reports)


_STRAYS = {
    "getitem": lambda reports, voters: [reports[v] for v in voters],
    "get": lambda reports, voters: [reports.get(v) for v in voters],
    "items": lambda reports, voters: list(reports.items()),
    "values": lambda reports, voters: list(reports.values()),
    "dict": lambda reports, voters: dict(reports),
    "copy": lambda reports, voters: [copy.copy(reports)[v] for v in voters],
}
_STAYS = {
    "in": lambda reports, voters: [v in reports for v in voters],
    "len": lambda reports, voters: len(reports),
    "sorted": lambda reports, voters: sorted(reports),
}


@pytest.mark.parametrize("read", [*_STRAYS, *_STAYS])
def test_reading_a_non_participant_evaluates_every_profile_of_its_situation(read):
    # a situation whose first profile had a non-participant's report read is
    # evaluated on every profile; one where only the voter set was read is
    # evaluated once. On this chain every situation with a non-participant
    # has more than one profile, and every other situation has one.
    inst = make_chain(3, 3)
    rule = _ReadsEveryVoter({**_STRAYS, **_STAYS}[read])
    assert _values_and_outcomes(rule, inst) == reference.tabulate(DirectChildrenMedian(), inst)
    space = situation_space(inst)
    assert rule.calls == (len(space.profile_sids) if read in _STRAYS else len(space.keys))
    assert len(space.keys) < len(space.profile_sids)


class _ReadsAllReports(SocialChoiceFunction):
    """The highest participating peak, found after copying out every voter's report."""

    name = "reads-all-reports"

    def outcome(self, instance, reports):
        everyone = dict(reports.items())
        return max(everyone[v].peak for v in participating_voters(instance.graph, everyone, validate=False))


class _HighestReportedPeak(SocialChoiceFunction):
    """The highest reported peak, non-participants' included."""

    name = "highest-reported-peak"

    def outcome(self, instance, reports):
        return max(report.peak for report in reports.values())


class _CountsVoters(SocialChoiceFunction):
    """A grid point picked by how many of the graph's voters are in the reports: always all of them."""

    name = "counts-voters"

    def outcome(self, instance, reports):
        return instance.grid[sum(v in reports for v in instance.graph.voters) % len(instance.grid)]


class _LastVoterPeak(SocialChoiceFunction):
    """The last voter's reported peak by name, read with ``get`` whether it takes part or not."""

    name = "last-voter-peak"

    def outcome(self, instance, reports):
        return reports.get(max(instance.graph.voters)).peak


class _Weighted(WeightedMedianRule):
    """A weighted median whose ``weights`` is given; all of ``_WEIGHTED`` but the last fall back from the weights pass."""

    def __init__(self, name, weights, phantoms=()) -> None:
        self.name, self._weights, self._phantoms = name, weights, phantoms

    def weights(self, instance, reports):
        return self._weights(instance.graph, reports)

    def phantom_peaks(self, instance):
        return self._phantoms


def _taking_part(graph, reports):
    return sorted(participating_voters(graph, reports, validate=False))


_WEIGHTED = [
    # reads the participants' peaks: a voter claiming peak 0 weighs 2
    _Weighted("peak-weighted", lambda g, reports: {v: 1 + (reports[v].peak == 0) for v in _taking_part(g, reports)}),
    # weighs every participant 1, and the first one 1 more per voter, taking part or not, that invites someone
    _Weighted(
        "reads-others",
        lambda g, reports: {
            v: 1 + (i == 0) * sum(bool(reports[u].invited) for u in g.voters)
            for i, v in enumerate(_taking_part(g, reports))
        },
    ),
    # weighs every participant 1, and 1 more if its report differs from the first participant's
    _Weighted(
        "compares-reports",
        lambda g, reports: {v: 1 + (reports[v] != reports[min(reports, key=str)]) for v in _taking_part(g, reports)},
    ),
    # weighs every participant 1, and the first one 1 more per distinct report among the participants
    _Weighted(
        "hashes-reports",
        lambda g, reports: {
            v: 1 + (i == 0) * len({reports[u] for u in _taking_part(g, reports)})
            for i, v in enumerate(_taking_part(g, reports))
        },
    ),
    # weighs every voter 1, non-participants included
    _Weighted("weighs-everyone", lambda g, reports: {v: 1 for v in g.voters}),
    # weighs every participant 1/2
    _Weighted("half-weights", lambda g, reports: {v: F(1, 2) for v in _taking_part(g, reports)}),
    # weighs every participant -1, which ``outcome`` rejects
    _Weighted("negative-weights", lambda g, reports: {v: -1 for v in _taking_part(g, reports)}),
    # weighs every participant 2 against one phantom at 1/3, which a lone participant outweighs
    _Weighted("doubled-with-phantom", lambda g, reports: {v: 2 for v in _taking_part(g, reports)}, (F(1, 3),)),
]


def _table_or_error(tabulate, rule, inst):
    """``tabulate``'s (values, outcomes), or the type and message of what it raised."""
    try:
        return tabulate(rule, inst)
    except Exception as exc:
        return type(exc), str(exc)


def test_rule_table_matches_per_profile_tabulation():
    # every shape of up to 4 voters on 3 points under both preference
    # models, and on 2 and 4 points; the table or the error, message and
    # all, must be what evaluating every profile gives
    rules = [
        FixedOutcome(F(1, 2)),
        DirectChildrenMedian(),
        DepthWeightedMedian(),
        ParticipantMedian(),
        DirectChildrenMedian((F(1, 2),)),
        DirectChildrenMedian((F(1, 3),)),
        DirectChildrenMedian((F(0), F(1), F(1, 2), F(1, 2))),
        *_WEIGHTED,
        _ReadsAllReports(),
        _HighestReportedPeak(),
        _CountsVoters(),
        _LastVoterPeak(),
        _RaisesOnLastProfile(),
    ]
    kinds: dict[str, set] = {rule.name: set() for rule in rules}
    phantom_hit = set()  # whether each table of the doubled weights holds its phantom
    for grid, model in [
        (GRID3, PreferenceModel.SYMMETRIC_DISTANCE),
        (GRID3, PreferenceModel.ROBUST_SINGLE_PEAKED),
        (uniform_grid(2), PreferenceModel.SYMMETRIC_DISTANCE),
        (uniform_grid(4), PreferenceModel.SYMMETRIC_DISTANCE),
    ]:
        for graph in tree_shapes(4, 4):
            inst = Instance(graph, {v: grid[-1] for v in graph.voters}, grid, model)
            for rule in rules:
                expected = _table_or_error(reference.tabulate, rule, inst)
                assert _table_or_error(_values_and_outcomes, rule, inst) == expected, (graph, grid, rule.name)
                if isinstance(expected[0], type):
                    kinds[rule.name].add(expected[0])
                else:
                    kinds[rule.name].add("table")
                    if rule.name == "doubled-with-phantom":
                        phantom_hit.add(F(1, 3) in expected[0])
    # the rules whose outcome reads a non-participant's report tabulate only
    # on shapes where the voters they read always take part; a phantom
    # tuple fits only shapes with one more direct child than it has values
    assert kinds == {
        **{rule.name: {"table"} for rule in rules},
        "direct-median[1/2]": {"table", ConfigurationError},
        "direct-median[1/3]": {"table", ConfigurationError},
        "direct-median[0/1,1/1,1/2,1/2]": {ConfigurationError},
        "reads-others": {"table", ConfigurationError},
        "weighs-everyone": {"table", ConfigurationError},
        "negative-weights": {ValueError},
        "highest-reported-peak": {"table", ConfigurationError},
        "last-voter-peak": {"table", ConfigurationError},
        "raises-on-last-profile": {RuntimeError},
    }
    # an off-grid phantom is among the values only where an outcome hits it,
    # and the one-voter shape's lone voter outweighs the phantom at 1/3
    assert phantom_hit == {True, False}


def test_participation_sets_fix_every_participants_invitations():
    # what the weights pass and ``classes`` rest on: situations with the
    # same ``reached`` give each participant the same invitation digit and
    # every other voter -1, since a voter takes part exactly when its one
    # parent does and invites it
    instances = [Instance(graph, {v: GRID3[0] for v in graph.voters}, GRID3) for graph in tree_shapes(4, 4)]
    for inst in [*instances, make_fig2()]:
        space = situation_space(inst)
        patterns: dict[int, tuple[int, ...]] = {}
        for reached, digits in zip(space.reached, space.digits):
            assert [r >= 0 for r in digits] == [bool(reached >> k & 1) for k in range(len(digits))]
            pattern = tuple(r if r < 0 else r % n for r, n in zip(digits, space.invitations))
            assert patterns.setdefault(reached, pattern) == pattern


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


def test_an_evicted_space_is_freed_without_the_cyclic_collector(monkeypatch):
    # a table holds its space by a weak proxy, so a space and its tables form
    # no reference cycle: evicting the space frees it by reference counting
    monkeypatch.setattr(enumeration, "_SPACES", OrderedDict())
    inst = make_fig2()
    gc.disable()
    try:
        for rule in (ParticipantMedian(), FixedOutcome(F(0))):
            for token in (*properties.PROPERTY_TOKENS, "VR-1", "VR-2"):
                properties.run_check(rule, inst, token)
        encode(inst, ["SP", "PE", "AN", "AN-SD", "VR-2"])
        space = weakref.ref(situation_space(inst))
        for points in range(2, SPACE_CACHE_SIZE + 2):  # as many other shapes as the cache keeps
            situation_space(make_chain(1, points))
        assert space() is None
    finally:
        gc.enable()


def test_space_cache_is_bounded():
    # one voter on grids of 2, 3, ... points: one shape, a new grid each
    singles = [make_chain(1, points) for points in range(2, SPACE_CACHE_SIZE + 3)]
    spaces = [situation_space(inst) for inst in singles]
    assert situation_space(singles[-1]) is spaces[-1]
    assert situation_space(singles[0]) is not spaces[0]  # evicted, rebuilt
