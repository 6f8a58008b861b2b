from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import math
import sys
import time
import tracemalloc
from collections import OrderedDict
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from treechoice import (
    BudgetExceededError,
    ConfigurationError,
    CspOptions,
    DirectChildrenMedian,
    InconclusiveError,
    Instance,
    InvitationGraph,
    PreferenceModel,
    PreferenceVerdict,
    ReportedType,
    SocialChoiceFunction,
    TabulatedScf,
    check_sp,
    compare,
    encode,
    format_rational,
    run_check,
    situation_key,
    solve,
    tabulate_scf,
    verify_model,
)
from treechoice.cspsearch import (
    Csp,
    VrConstraint,
    _Supports,
    _stars,
    collect_situations,
    model_to_json,
    normalize_properties,
)
import treechoice.cspsearch as cspsearch
import treechoice.enumeration as enumeration
from treechoice.enumeration import AnonymityVariant
from treechoice.model import preference_masks
from treechoice.fileio import (
    make_chain,
    make_fig2,
    make_star,
    make_two_children_one_grandchild,
    uniform_grid,
)
from conftest import instances_for, make_deep_demo, space_never_built, tree_shapes
from reference_checkers import deviation_groups, set_built_equalities, situation_classes, walked_orbits
import reference_solver

F = Fraction
GRID3 = uniform_grid(3)


@pytest.mark.parametrize(
    "token, canonical",
    [
        (" sp", "SP"),
        ("vr-01", "VR-1"),
        ("ONTO", "ONTO"),
        ("depth1-hull", "DEPTH1-HULL"),
        ("VR-\u00b2", None),
        ("VR-\u0662", None),
        ("VR-", None),
    ],
)
def test_checker_and_search_share_one_token_grammar(token, canonical):
    inst = make_chain(2, 3)
    if canonical is None:
        with pytest.raises(ConfigurationError, match="unknown property"):
            run_check(DirectChildrenMedian(), inst, token)
        with pytest.raises(ConfigurationError, match="unknown property"):
            encode(inst, [token])
        return
    assert run_check(DirectChildrenMedian(), inst, token).property == canonical
    if canonical in ("ONTO", "DEPTH1-HULL"):
        with pytest.raises(ConfigurationError, match="check-only"):
            encode(inst, [token])
    else:
        assert encode(inst, [token]).properties == (canonical,)


def test_normalize_properties():
    assert normalize_properties(["pe", "SP", "vr-2", "AN-D"]) == ("SP", "PE", "AN-D", "VR-2")
    with pytest.raises(ConfigurationError):
        normalize_properties(["ONTO"])


def test_collect_situations_counts():
    assert len(collect_situations(make_chain(3, 3))) == 39  # 3 + 9 + 27
    assert len(collect_situations(make_two_children_one_grandchild(3))) == 36  # 9 + 27


def test_variable_budget_is_enforced(monkeypatch):
    # the error names the whole situation count, which the shared space knows up front
    with pytest.raises(BudgetExceededError, match="CSP variable size 39 exceeds budget 10"):
        collect_situations(make_chain(3, 3), CspOptions(variable_budget=10))
    with pytest.raises(BudgetExceededError, match="CSP variable size 39 exceeds budget 10"):
        encode(make_chain(3, 3), ["PE"], CspOptions(variable_budget=10))
    # a space whose encoding blocks are built still checks the budget
    encode(make_chain(3, 3), ["SP", "PE", "AN-S"])
    with pytest.raises(BudgetExceededError, match="CSP variable size 39 exceeds budget 10"):
        encode(make_chain(3, 3), ["SP", "PE", "AN-S"], CspOptions(variable_budget=10))
    # the profiles are projected before the space is built: 6**8 * 3 of them
    monkeypatch.setattr(enumeration, "SituationSpace", space_never_built)
    chain9 = make_chain(9, 3)
    for call in (
        lambda: collect_situations(chain9),
        lambda: encode(chain9, ["PE"]),
        lambda: verify_model(chain9, {}, ["PE"]),
    ):
        with pytest.raises(BudgetExceededError, match="profile enumeration size 5038848 exceeds budget 2000000"):
            call()


def test_encode_links_equal_structure_swaps_on_chain():
    inst = make_chain(3, 3)
    csp = encode(inst, ["SP", "PE", "AN-S"])
    assert len(csp.keys) == 39
    index = {k: i for i, k in enumerate(csp.keys)}
    reports = inst.truthful_reports()
    a = dict(reports)
    a["i"] = ReportedType(F(0), frozenset(["j"]))
    a["j"] = ReportedType(F(1), frozenset(["u"]))
    b = dict(reports)
    b["i"] = ReportedType(F(1), frozenset(["j"]))
    b["j"] = ReportedType(F(0), frozenset(["u"]))
    pair = tuple(sorted((index[situation_key(inst.graph, a)], index[situation_key(inst.graph, b)])))
    assert pair in csp.equalities


def test_pe_only_is_trivially_sat():
    inst = make_chain(3, 3)
    csp = encode(inst, ["PE"])
    assert not csp.sp_constraints and not csp.equalities
    result = solve(csp)
    assert result.sat
    for key, value in result.model.items():
        peaks = [p for _, p, _ in key]
        assert min(peaks) <= value <= max(peaks)
    for key, mask in zip(csp.keys, csp.domains):
        peaks = [p for _, p, _ in key]
        assert [q for k, q in enumerate(inst.grid) if mask >> k & 1] == [
            q for q in inst.grid if min(peaks) <= q <= max(peaks)
        ]


def test_structure_anonymity_impossible_on_chain():
    inst = make_chain(3, 3)
    result = solve(encode(inst, ["SP", "PE", "AN-S"]))
    assert result.verdict == "unsat"
    for seed in (11, 22, 33):
        assert solve(encode(inst, ["SP", "PE", "AN-S"]), order_seed=seed).verdict == "unsat"


def test_structure_anonymity_impossible_on_four_point_grid():
    inst = make_chain(3, 4)
    assert solve(encode(inst, ["SP", "PE", "AN-S"])).verdict == "unsat"


def test_depth_anonymity_relevance_two_impossible_on_branch():
    inst = make_two_children_one_grandchild(3)
    assert solve(encode(inst, ["SP", "PE", "AN-D", "VR-2"])).verdict == "unsat"


def test_depth_anonymity_relevance_one_sat_and_replays():
    inst = make_two_children_one_grandchild(3)
    result = solve(encode(inst, ["SP", "PE", "AN-D", "VR-1"]))
    assert result.sat
    reports = verify_model(inst, result.model, ["SP", "PE", "AN-D", "VR-1"])
    assert all(r.passed for r in reports)


def test_adding_a_property_never_flips_unsat_to_sat():
    inst = make_chain(3, 3)
    assert solve(encode(inst, ["SP", "PE"])).sat
    base = solve(encode(inst, ["SP", "PE", "AN-S"]))
    assert not base.sat
    extended = solve(encode(inst, ["SP", "PE", "AN-S", "VR-1"]))
    assert not extended.sat


def test_depth1_hull_option_changes_no_verdict():
    cases = [
        (make_chain(3, 3), ["SP", "PE", "AN-S"]),
        (make_two_children_one_grandchild(3), ["SP", "PE", "AN-D", "VR-2"]),
        (make_two_children_one_grandchild(3), ["SP", "PE", "AN-D", "VR-1"]),
    ]
    for inst, props in cases:
        plain = solve(encode(inst, props))
        pruned = solve(encode(inst, props, CspOptions(depth1_hull=True)))
        assert plain.verdict == pruned.verdict


def test_timeout_is_inconclusive_not_unsat():
    inst = make_chain(3, 3)
    csp = encode(inst, ["PE"])
    with pytest.raises(InconclusiveError):
        solve(csp, timeout_s=1e-9)


def test_timeout_bounds_merging_and_arc_consistency():
    csp = encode(make_fig2(), ["SP", "PE", "AN-SD", "VR-2"])
    started = time.monotonic()
    with pytest.raises(InconclusiveError) as exc:
        solve(csp, timeout_s=0.01)
    assert time.monotonic() - started < 1.0
    assert exc.value.stats["nodes_explored"] == 0


def test_timeout_bounds_the_sp_merge(monkeypatch):
    # no anonymity equalities, so before arc consistency only the SP merge
    # can see the deadline; a clock that ticks a second per read passes it
    # at the first read after the start
    csp = encode(make_chain(3, 3), ["SP", "PE", "VR-2"])
    assert not csp.equalities and csp.sp_rows
    clock = itertools.count()
    monkeypatch.setattr(cspsearch.time, "monotonic", lambda: float(next(clock)))
    with pytest.raises(InconclusiveError) as exc:
        solve(csp, timeout_s=0.5)
    assert exc.value.stats == {"nodes_explored": 0}  # no ac3_prunes: raised in the merge


def test_timeout_bounds_building_the_stars(monkeypatch):
    # the clock reads 0 at the start, at every link and at every new deviation
    # group, and is past the deadline from the next read on: only a check
    # while the stars are built, before arc consistency, raises with no stats
    csp = encode(make_chain(3, 3), ["SP", "PE", "AN-S"])
    assert csp.equalities and csp.sp_rows
    reads = 1 + len(csp.equalities) + len({ds for _, _, ds in csp.sp_rows})
    clock = itertools.count()
    monkeypatch.setattr(cspsearch.time, "monotonic", lambda: 0.0 if next(clock) < reads else 10.0)
    with pytest.raises(InconclusiveError) as exc:
        solve(csp, timeout_s=1.0)
    assert exc.value.stats == {"nodes_explored": 0}


def _merged_reps(csp: Csp) -> list[int]:
    """Each variable's class in the closure of ``csp.equalities``, named by its least member, as ``solve`` names it."""
    rep = list(range(len(csp.keys)))

    def find(v: int) -> int:
        while rep[v] != v:
            v = rep[v]
        return v

    for a, b in csp.equalities:
        ra, rb = find(a), find(b)
        if ra != rb:
            rep[max(ra, rb)] = min(ra, rb)
    return [find(v) for v in range(len(csp.keys))]


def _linking(groups) -> tuple[tuple[int, int], ...]:
    """Equalities that put every member of each group in one class."""
    return tuple(sorted({(g[0], v) for g in groups for v in g[1:]}))


def test_relevance_collapsed_names_the_last_voter_left_without_a_spanning_group():
    # on fig2 VR-2 constrains i, j, u and v; linking u's and v's groups merges
    # no group of i or j whole
    csp = encode(make_fig2(), ["VR-2"])
    by_voter = {c.voter: c.groups for c in csp.vr_constraints}
    assert list(by_voter) == ["i", "j", "u", "v"]
    both = solve(dataclasses.replace(csp, equalities=_linking(by_voter["u"] + by_voter["v"])))
    assert (both.verdict, both.nodes_explored) == ("unsat", 0)
    assert both.stats["refuted_by"] == "relevance-collapsed:v"
    # v keeps one group whose members stay in two classes, so only u is collapsed
    for kept in by_voter["v"]:
        links = _linking(by_voter["u"] + tuple(g for g in by_voter["v"] if g is not kept))
        rep = _merged_reps(dataclasses.replace(csp, equalities=links))
        if len({rep[x] for x in kept}) >= 2:
            break
    else:
        pytest.fail("linking u's groups merges every group of v")
    one = solve(dataclasses.replace(csp, equalities=links))
    assert (one.verdict, one.nodes_explored) == ("unsat", 0)
    assert one.stats["refuted_by"] == "relevance-collapsed:u"


def test_solve_heap_is_bounded_on_fig2():
    # solve keeps the stars and drops their scaffolding before arc
    # consistency; the first solve fills the preference table it shares
    csp = encode(make_fig2(), ["SP", "PE", "AN-SD", "VR-2"])
    solve(csp)
    tracemalloc.start()
    try:
        assert solve(csp).sat
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3072 * 1024


class _NonParticipantPeak(SocialChoiceFunction):
    """Reads j's report even when i does not invite j, so it sees more than a situation."""

    name = "non-participant-peak"

    def outcome(self, instance, reports):
        return reports["j"].peak


def test_tabulation_rejects_rule_that_reads_non_participants():
    inst = make_chain(2, 3)
    rule = _NonParticipantPeak()
    with pytest.raises(ConfigurationError, match="observable situation"):
        check_sp(rule, inst)
    with pytest.raises(ConfigurationError, match="observable situation") as exc:
        tabulate_scf(inst, rule)
    assert str(exc.value).count("'j': {'peak'") == 2


def test_tabulated_rule_agrees_with_functional_rule():
    inst = make_two_children_one_grandchild(3)
    dcm = DirectChildrenMedian()
    table = tabulate_scf(inst, dcm)
    reports = verify_model(inst, table, ["SP", "PE", "AN-D", "VR-1"])
    assert all(r.passed for r in reports)
    from treechoice.properties import run_check

    for token in ("SP", "PE", "AN-D", "VR-1"):
        assert run_check(dcm, inst, token).verdict == {
            r.property: r.verdict for r in reports
        }[token]


def test_verify_model_rejects_incomplete_table():
    inst = make_chain(2, 3)
    table = tabulate_scf(inst, DirectChildrenMedian())
    table.pop(next(iter(table)))
    with pytest.raises(ConfigurationError):
        verify_model(inst, table, ["PE"])


def test_corrupted_cell_is_caught_by_replay():
    graph = InvitationGraph(frozenset(["a", "b"]), {})
    inst = Instance(graph, {"a": F(0), "b": F(1, 2)}, GRID3)
    table = tabulate_scf(inst, DirectChildrenMedian())
    truthful_key = situation_key(inst.graph, inst.truthful_reports())
    table[truthful_key] = F(1)  # outside the [0, 1/2] hull of that situation
    (report,) = verify_model(inst, table, ["PE"])
    assert not report.passed
    assert report.witness["outcome"] == "1/1"


def test_sat_model_outcomes_are_on_grid():
    inst = make_two_children_one_grandchild(3)
    result = solve(encode(inst, ["SP", "PE", "AN-D", "VR-1"]))
    gridset = set(inst.grid)
    assert all(v in gridset for v in result.model.values())
    scf = TabulatedScf(result.model)
    assert scf.outcome(inst, inst.truthful_reports()) in gridset


# sha256 of json.dumps(model_to_json(model)) for the fig2 model under the
# default search order; it moves only if the encoding or the search order does
FIG2_MODEL_SHA256 = "e84b9dc36d501ca9fb3c93fa3d89933e5a169c05ab160c90b3ad94e8ed7cbc56"


def test_fig2_existence_theorem_is_sat_without_backtracking():
    inst = make_fig2()
    props = ["SP", "PE", "AN-SD", "VR-2"]
    limit = sys.getrecursionlimit()
    result = solve(encode(inst, props))
    assert sys.getrecursionlimit() == limit
    assert result.sat
    assert result.stats["merged_variables"] == 1209
    assert result.nodes_explored == 1209
    assert all(r.passed for r in verify_model(inst, result.model, props))
    digest = hashlib.sha256(json.dumps(model_to_json(result.model)).encode()).hexdigest()
    assert digest == FIG2_MODEL_SHA256


@pytest.mark.parametrize(
    "inst, props, verdict, refuted_by",
    [
        (make_two_children_one_grandchild(3), ["SP", "PE", "AN-D", "VR-1"], "sat", None),
        (make_chain(3, 3), ["SP", "PE", "AN-S"], "unsat", "arc-consistency"),
        (make_two_children_one_grandchild(3), ["SP", "PE", "AN-D", "VR-2"], "unsat", None),
    ],
)
def test_solve_reports_phase_times(inst, props, verdict, refuted_by):
    result = solve(encode(inst, props))
    assert (result.verdict, result.stats.get("refuted_by")) == (verdict, refuted_by)
    phases = result.stats["phase_s"]
    assert set(phases) == {"merge", "ac3", "search"}
    assert all(seconds >= 0 for seconds in phases.values())


# the search workload's theorem instances: Sat by long search (fig2), Unsat
# inside arc consistency (chains), Unsat by backtracking (branches, chain VR-2)
SEARCH_CASES = {
    "fig2": (make_fig2(), ("SP", "PE", "AN-SD", "VR-2")),
    "branch-3-vr1": (make_two_children_one_grandchild(3), ("SP", "PE", "AN-D", "VR-1")),
    **{f"chain-3-grid-{g}": (make_chain(3, g), ("SP", "PE", "AN-S")) for g in range(3, 9)},
    **{f"branch-{g}-vr2": (make_two_children_one_grandchild(g), ("SP", "PE", "AN-D", "VR-2")) for g in (3, 4, 5)},
    "chain-3-vr2": (make_chain(3, 3), ("SP", "PE", "VR-2")),
}

# sha256 of the sorted-key JSON list of CspResult.to_json(), without
# wall_time_s and stats.phase_s, under order_seed None, 1 and 7; taken from
# the solver that scanned every variable per node and revised arcs value by
# value, so a kernel change must keep verdicts, models, node counts,
# ac3_prunes and refuted_by alike
SEARCH_SHA256 = {
    "fig2": "12008d61285f8dcafc38d775cde1aedc1a7db38eaa73d7eab8b4bc4ba671eea8",
    "branch-3-vr1": "96e53646ee9d317f6163bc15820726757a8592b3ecc0aff14fefa4939ae13945",
    "chain-3-grid-3": "848ec4240badd32454f1f064d8366047114d0637cb05eb8c284f4e6008813b8c",
    "chain-3-grid-4": "7a34e2a3f09c676d08873177e9b834cba065d8cb07f35267721a0e9e9da6ca1f",
    "chain-3-grid-5": "e02304029d290a070fec27a578c9d03ae8c301b730b14c418b0a37ea9cd8ba51",
    "chain-3-grid-6": "7baebf8873d92b8912b9da009fadce10fc44181982c069851913e31a5ba30f01",
    "chain-3-grid-7": "c417be934a13c53b8a8d9c1489889eb1109a4efe0913b3412c38599bfa6b05d9",
    "chain-3-grid-8": "d93567acd0e64fc45b9e34c55d02a450fcd4bd15fa5368a8e04bd5def789c4c4",
    "branch-3-vr2": "f51f4b1b14e2a8c3dd03a6fd5147b4cfd6b6f1d51c21360063d85a85aa397b7c",
    "branch-4-vr2": "b7881ec2f411e1272af603585a79eedefa70362986c42cfb89f21f04018350a0",
    "branch-5-vr2": "dce55553ad8b76de4f6726efa376b18fd05df05d7798d1450d72aa5a2418afd8",
    "chain-3-vr2": "b621f701731031b8995c6d63f266b10a635a629a65b97c152a97be7da2eb80c8",
}


def _order_docs(solver, csp: Csp) -> list[dict]:
    """The documents of ``solver`` under order_seed None, 1 and 7, without ``wall_time_s`` and ``phase_s``."""
    docs = []
    for seed in (None, 1, 7):
        doc = solver(csp, order_seed=seed).to_json()
        del doc["wall_time_s"]
        del doc["stats"]["phase_s"]
        docs.append(doc)
    return docs


@pytest.mark.parametrize("name", sorted(SEARCH_CASES))
def test_search_order_matches_golden_digest(name):
    inst, props = SEARCH_CASES[name]
    docs = _order_docs(solve, encode(inst, props))
    digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
    assert digest == SEARCH_SHA256[name]


# the kernel against tests/reference_solver.py, the solver that re-read every
# star member on each revision: the digests pin ac3_prunes at a wipe-out for a
# few cases only, these for every case they cover, under three search orders
def _assert_matches_reference_kernel(csp: Csp) -> None:
    assert _order_docs(solve, csp) == _order_docs(reference_solver.solve, csp)


@pytest.mark.parametrize("name", sorted(SEARCH_CASES))
def test_solve_matches_reference_kernel_on_search_cases(name):
    _assert_matches_reference_kernel(encode(*SEARCH_CASES[name]))


def test_solve_matches_reference_kernel_on_every_small_shape():
    for graph in tree_shapes(4, 4):
        inst = instances_for(graph, GRID3)[0]
        for props in (("SP", "PE", "AN-SD", "VR-2"), ("SP-D", "PE", "AN-D", "VR-1")):
            _assert_matches_reference_kernel(encode(inst, props))


def test_stars_keep_the_dict_of_sets_member_order():
    # a star's members come in its set's iteration order, which fixes arc
    # consistency's queue order and so ac3_prunes at a wipe-out; the document
    # tests do not catch a change of that order (a copy that sorted every
    # star's members passed them all), so the stars are compared directly
    unsorted = 0
    for inst in [instances_for(graph, GRID3)[0] for graph in tree_shapes(4, 4)] + [make_fig2()]:
        points = len(inst.grid)
        for sp, an in itertools.product(("SP", "SP-D"), (None, "AN", "AN-S", "AN-D", "AN-SD")):
            csp = encode(inst, [sp] if an is None else [sp, an])
            rep_of = _merged_reps(csp)
            stars = _stars(csp.sp_rows, rep_of, points)
            assert stars == reference_solver.dict_of_sets_stars(csp.sp_rows, rep_of, points), (inst.graph, sp, an)
            unsorted += sum(list(ds) != sorted(ds) for _, _, ds in stars)
    assert unsorted


@pytest.mark.parametrize("points", [3, 4, 5, 6])
@pytest.mark.parametrize("model", [PreferenceModel.SYMMETRIC_DISTANCE, PreferenceModel.ROBUST_SINGLE_PEAKED])
@pytest.mark.parametrize("ambiguous_violates", [True, False])
def test_support_memo_matches_the_per_value_loop(points, model, ambiguous_violates):
    grid = uniform_grid(points)
    reject_ambiguous = model is PreferenceModel.ROBUST_SINGLE_PEAKED and ambiguous_violates

    def accepts(p: int, x: int, y: int) -> bool:
        verdict = compare(grid[p], grid[x], grid[y], model)
        return verdict is not PreferenceVerdict.WORSE and not (
            verdict is PreferenceVerdict.AMBIGUOUS and reject_ambiguous
        )

    masks = preference_masks(grid, model, ambiguous_violates)
    values = range(points)
    for p in values:
        forward, backward = (_Supports(rows[p]) for rows in masks)
        for other in range(1, 1 << points):
            members = [k for k in values if other >> k & 1]
            fwd = sum(1 << x for x in values if any(accepts(p, x, y) for y in members))
            bwd = sum(1 << y for y in values if any(accepts(p, x, y) for x in members))
            assert forward[other] == fwd
            assert backward[other] == bwd
        assert len(forward) == len(backward) == (1 << points) - 1


def _csp_dump(csp: Csp) -> str:
    """Canonical JSON of an encoding, with grid indices spelled as their grid points."""
    grid = [format_rational(q) for q in csp.instance.grid]
    spelled = dict(zip(csp.instance.grid, grid))
    return json.dumps(
        {
            "keys": [[[v, spelled[p], list(inv)] for v, p, inv in key] for key in csp.keys],
            "domains": [[q for k, q in enumerate(grid) if mask >> k & 1] for mask in csp.domains],
            "equalities": [list(pair) for pair in csp.equalities],
            "sp": [[t, d, grid[p]] for t, d, p in csp.sp_constraints],
            "vr": [[c.voter, [list(g) for g in c.groups]] for c in csp.vr_constraints],
            "csp": csp.to_json(),
        }
    )


# sha256 of _csp_dump, taken from the encoder that enumerated profiles and
# keyed its constraints on Fractions; the integer encoder must reproduce it
ENCODING_SHA256 = {
    "fig2": "3277329291d95fe143def328ebc6f6ee96b612b5988f2885a2b1cfd84e27ce41",
    "chain-3-grid-5": "bf32e2bb55d3c2d4e96bb4f11d963314bb702b341fe0c55f8c0946d5d591d922",
}


@pytest.mark.parametrize(
    "name, inst, props",
    [
        ("fig2", make_fig2(), ["SP", "PE", "AN-SD", "VR-2"]),
        ("chain-3-grid-5", make_chain(3, 5), ["SP", "PE", "AN-S"]),
    ],
)
def test_encoding_matches_golden_digest(name, inst, props):
    digest = hashlib.sha256(_csp_dump(encode(inst, props)).encode()).hexdigest()
    assert digest == ENCODING_SHA256[name]


def _dict_built_sp_triples(space: enumeration.SituationSpace, mode: str) -> list[tuple[int, int, int]]:
    """The SP triples as the encoder built them before blocks: deduplicated in a dict, then sorted."""
    var, _ = space.variables()
    triples: dict[tuple[int, int, int], None] = {}
    for k, voter in enumerate(space.graph.voters):
        n = space.invitations[k]
        seen: set[tuple[int, ...]] = set()
        for _, group in deviation_groups(space, voter):
            if tuple(group) in seen:
                continue
            seen.add(tuple(group))
            rep_var = [var[sid] for sid in group]
            for p in range(space.points):
                var_t = rep_var[p * n + n - 1]
                for var_d in rep_var if mode == "full" else rep_var[p * n : (p + 1) * n]:
                    if var_d != var_t:
                        triples[var_t, var_d, p] = None
    return sorted(triples)


def _csp_fields(csp: Csp) -> tuple:
    """What ``_csp_dump`` spells out, unspelled."""
    return csp.keys, csp.domains, csp.equalities, csp.sp_rows, csp.vr_constraints, csp.to_json()


def _solve_doc(csp: Csp, order_seed: int | None = None) -> dict:
    """The document of ``solve``, without ``wall_time_s`` and ``phase_s``."""
    doc = solve(csp, order_seed=order_seed).to_json()
    del doc["wall_time_s"]
    del doc["stats"]["phase_s"]
    return doc


def test_warm_encodings_match_cold_ones_on_every_small_shape(monkeypatch):
    # every shape with up to 4 voters on 3 points, under every mix of SP mode,
    # anonymity, PE, relevance level and depth-1 hull; each set is encoded on a
    # space that has served all the other sets first, and on a space built anew
    monkeypatch.setattr(enumeration, "_SPACES", OrderedDict())
    sp_sets = ([], ["SP"], ["SP-D"])
    an_sets = (["AN"], ["AN-S"], ["AN-D"], ["AN-SD"], ["AN-S", "AN-D"])
    for graph in tree_shapes(4, 4):
        inst = instances_for(graph, GRID3)[0]
        cases = [
            (sp + an + pe + ([f"VR-{d}"] if d else []), CspOptions(depth1_hull=hull))
            for sp, an, pe, d, hull in itertools.product(
                sp_sets, an_sets, ([], ["PE"]), range(graph.max_depth + 1), (False, True)
            )
        ]
        for props, options in cases:
            encode(inst, props, options)
        warm = [encode(inst, props, options) for props, options in cases]
        space = enumeration.situation_space(inst)
        for mode in ("full", "diffusion"):
            flat = sorted((t, d, p) for t, p, ds in space.sp_rows(mode) for d in ds if d != t)
            assert flat == _dict_built_sp_triples(space, mode)
        for csp, (props, options) in zip(warm, cases):
            assert csp.constraint_counts["sp_preference"] == len(csp.sp_constraints)
            enumeration._SPACES.clear()
            cold = encode(inst, props, options)
            # every field the dump reads, compared as is; the dump itself and
            # the solve only for the existence table's cells (SP, PE, one
            # anonymity column, a relevance level), to keep the test short:
            # without SP, relevance is decided at the leaves only, and some
            # 4-voter sets search for seconds
            assert _csp_fields(csp) == _csp_fields(cold), (graph, props, options)
            if props[0] == "SP" and "PE" in props:
                assert _csp_dump(csp) == _csp_dump(cold), (graph, props, options)
                assert _solve_doc(csp) == _solve_doc(cold), (graph, props, options)


def test_solve_ignores_which_spanning_links_it_gets():
    # the equalities link each orbit to its least situation; the set-based
    # builder's one pair per swap spans the same classes, so the merge, and
    # every verdict, model, node and prune after it, must be the same
    sets = (["SP", "PE", "AN", "VR-1"], ["SP", "PE", "AN-S", "VR-2"], ["SP-D", "PE", "AN-D"], ["SP", "PE", "AN-SD", "VR-2"])
    for inst in [instances_for(graph, GRID3)[0] for graph in tree_shapes(4, 4)] + [make_fig2()]:
        space = enumeration.situation_space(inst)
        for props in sets:
            csp = encode(inst, props)
            swaps = dataclasses.replace(csp, equalities=set_built_equalities(space, AnonymityVariant(props[2])))
            for order_seed in (None, 1, 7):
                docs = [_solve_doc(c, order_seed) for c in (csp, swaps)]
                for doc in docs:
                    del doc["stats"]["anon_equalities"]
                assert docs[0] == docs[1], (inst.graph, props, order_seed)


def test_verify_model_replays_beyond_the_variable_budget():
    # the variable budget bounds the search; a model solved under a raised
    # one replays within the profile budget alone
    inst = make_star(5, 8)
    props = ["PE", "AN"]
    csp = encode(inst, props, CspOptions(variable_budget=100_000))
    assert len(csp.keys) > CspOptions().variable_budget
    result = solve(csp)
    assert result.sat
    assert all(report.passed for report in verify_model(inst, result.model, props))


def test_encodings_share_blocks_but_not_domains(monkeypatch):
    monkeypatch.setattr(enumeration, "_SPACES", OrderedDict())
    inst = make_chain(3, 3)
    first = encode(inst, ["SP", "PE", "AN-S", "VR-2"])
    expected = list(first.domains)
    first.domains[:] = [1] * len(first.domains)
    second = encode(inst, ["SP", "PE", "AN-S", "VR-2"])
    assert second.domains == expected and second.domains is not first.domains
    assert second.sp_rows is first.sp_rows
    assert second.equalities is first.equalities
    assert second.keys is first.keys
    assert [c.groups for c in second.vr_constraints] == [c.groups for c in first.vr_constraints]
    assert all(a.groups is b.groups for a, b in zip(first.vr_constraints, second.vr_constraints))
    # two anonymity variants: the union of their blocks, sorted, as one encoding reads it
    both = encode(inst, ["AN-S", "AN-D"]).equalities
    assert both == tuple(sorted(set(encode(inst, ["AN-S"]).equalities) | set(encode(inst, ["AN-D"]).equalities)))


def _count_builds(monkeypatch, *names: str) -> dict:
    """Count the builds of the named ``SituationSpace`` blocks, kept in the same memo."""
    builds: dict = {}
    for name in names:
        build = getattr(enumeration.SituationSpace, name).__wrapped__

        @functools.wraps(build)
        def counted(self, *args, build=build, name=name):
            builds[name, args] = builds.get((name, args), 0) + 1
            return build(self, *args)

        monkeypatch.setattr(enumeration.SituationSpace, name, enumeration._memoized(counted))
    return builds


def test_blocks_are_built_once_per_space_and_key(monkeypatch):
    monkeypatch.setattr(enumeration, "_SPACES", OrderedDict())
    builds = _count_builds(monkeypatch, "deviation_vars", "sp_rows", "equalities", "domains")
    inst = make_chain(3, 3)
    for column in ("AN", "AN-S", "AN-D", "AN-SD"):
        for d in range(4):
            encode(inst, ["SP", "PE", column] + ([f"VR-{d}"] if d else []))
    encode(inst, ["SP-D", "AN-S", "AN-D"], CspOptions(depth1_hull=True))
    # one block of deviation groups per voter, read by both SP modes and by relevance
    assert builds == {
        **{("deviation_vars", (v,)): 1 for v in inst.graph.voters},
        ("sp_rows", ("full",)): 1,
        ("sp_rows", ("diffusion",)): 1,
        **{("equalities", (AnonymityVariant(c),)): 1 for c in ("AN", "AN-S", "AN-D", "AN-SD")},
        ("domains", (True, False)): 1,
        ("domains", (False, True)): 1,
    }


def test_an_evicted_space_rebuilds_its_blocks(monkeypatch):
    monkeypatch.setattr(enumeration, "_SPACES", OrderedDict())
    builds = _count_builds(monkeypatch, "sp_rows")
    inst = make_chain(3, 3)
    before = encode(inst, ["SP", "PE"])
    space = enumeration.situation_space(inst)
    for points in range(4, 4 + enumeration.SPACE_CACHE_SIZE):
        enumeration.situation_space(make_chain(3, points))
    assert enumeration.situation_space(inst) is not space
    after = encode(inst, ["SP", "PE"])
    assert builds == {("sp_rows", ("full",)): 2}
    assert after.sp_rows == before.sp_rows
    assert after.sp_rows is not before.sp_rows


# Differential test: random CSPs over the 12 situations of a two-voter chain,
# decided by brute force over every assignment with the Fraction ``compare``
# on the grid points the masks and indices name.
_CHAIN2 = make_chain(2, 3)
_CHAIN2_KEYS = collect_situations(_CHAIN2)
_ASSIGNMENT_CAP = 5_000
_PREFERENCES = [PreferenceModel.SYMMETRIC_DISTANCE, PreferenceModel.ROBUST_SINGLE_PEAKED]


@functools.lru_cache(maxsize=None)
def _accepts(model: PreferenceModel, peak, truthful, deviated) -> bool:
    # the search counts an AMBIGUOUS comparison as a violation
    verdict = compare(peak, truthful, deviated, model)
    return verdict is not PreferenceVerdict.WORSE and verdict is not PreferenceVerdict.AMBIGUOUS


def _values(csp: Csp, mask: int) -> tuple[Fraction, ...]:
    return tuple(q for k, q in enumerate(csp.instance.grid) if mask >> k & 1)


def _satisfies(csp: Csp, values) -> bool:
    """Whether an assignment of grid points satisfies every constraint."""
    grid = csp.instance.grid
    model = csp.instance.preference_model
    return (
        all(values[a] == values[b] for a, b in csp.equalities)
        and all(_accepts(model, grid[p], values[t], values[d]) for t, d, p in csp.sp_constraints)
        and all(
            any(len({values[v] for v in group}) >= 2 for group in c.groups)
            for c in csp.vr_constraints
        )
    )


@st.composite
def _synthetic_csps(draw) -> Csp:
    n = len(_CHAIN2_KEYS)
    points = len(_CHAIN2.grid)
    var = st.integers(0, n - 1)
    domains = [draw(st.integers(1, (1 << points) - 1)) for _ in range(n)]
    while math.prod(mask.bit_count() for mask in domains) > _ASSIGNMENT_CAP:
        widest = max(range(n), key=lambda i: domains[i].bit_count())
        domains[widest] &= -domains[widest]  # keep the lowest grid point
    pairs = st.tuples(var, var).filter(lambda pair: pair[0] != pair[1])
    sp = draw(
        st.sets(st.tuples(var, var, st.integers(0, points - 1)).filter(lambda c: c[0] != c[1]), max_size=16)
    )
    equalities = draw(st.sets(pairs.map(lambda pair: tuple(sorted(pair))), max_size=4))
    group = st.lists(var, min_size=2, max_size=3, unique=True).map(lambda g: tuple(sorted(g)))
    vr = draw(
        st.lists(
            st.builds(VrConstraint, st.sampled_from(["i", "j"]), st.lists(group, min_size=1, max_size=3).map(tuple)),
            max_size=2,
        )
    )
    model = draw(st.sampled_from(_PREFERENCES))
    # the triples as SP rows: those of one (t, p) in rows of 1 to 3
    # deviations, some of which list t itself, in any order
    by_head: dict[tuple[int, int], list[int]] = {}
    for t, d, p in sorted(sp):
        by_head.setdefault((t, p), []).append(d)
    rows = []
    for (t, p), ds in by_head.items():
        while ds:
            size = draw(st.integers(1, 3))
            row, ds = ds[:size], ds[size:]
            if draw(st.booleans()):
                row.insert(draw(st.integers(0, len(row))), t)
            rows.append((t, p, tuple(row)))
    return Csp(
        instance=dataclasses.replace(_CHAIN2, preference_model=model),
        properties=(),
        options=CspOptions(),
        keys=_CHAIN2_KEYS,
        domains=domains,
        equalities=tuple(sorted(equalities)),
        sp_rows=tuple(draw(st.permutations(rows))),
        vr_constraints=tuple(vr),
    )


@settings(max_examples=200, deadline=None)
@given(_synthetic_csps())
def test_solve_agrees_with_brute_force(csp):
    domains = [_values(csp, mask) for mask in csp.domains]
    sat = any(_satisfies(csp, values) for values in itertools.product(*domains))
    for seed in (None, 1):
        result = solve(csp, order_seed=seed)
        assert result.sat == sat
        if result.sat:
            values = [result.model[key] for key in csp.keys]
            assert all(v in dom for v, dom in zip(values, domains))
            assert _satisfies(csp, values)
    _assert_arc_consistency_contract(csp, result)


@settings(max_examples=200, deadline=None)
@given(_synthetic_csps())
def test_solve_matches_reference_kernel_on_synthetic_csps(csp):
    _assert_matches_reference_kernel(csp)


@settings(max_examples=200, deadline=None)
@given(_synthetic_csps(), st.lists(st.integers(0, 7), min_size=9, max_size=9))
def test_solve_matches_reference_kernel_under_any_preference_table(csp, rows):
    # every table compare fills accepts an outcome against itself, so a star's
    # own head is always inside its forward support; an arbitrary relation on
    # the 3 grid points also checks that the kernel does not lean on that
    points = range(3)
    forward = tuple(tuple(rows[3 * p : 3 * p + 3]) for p in points)
    backward = tuple(
        tuple(sum(1 << x for x in points if forward[p][x] >> y & 1) for y in points) for p in points
    )
    with (
        mock.patch.object(cspsearch, "preference_masks", lambda *_: (forward, backward)),
        mock.patch.object(reference_solver, "preference_masks", lambda *_: (forward, backward)),
    ):
        _assert_matches_reference_kernel(csp)


def _naive_arc_consistency(csp: Csp) -> tuple[set[tuple[int, int, int]], int, list[set[int]]]:
    """The merged SP triples, and the values the arc-consistent closure removes
    from the merged domains together with the closure's domains.

    The classes come from a union-find over ``csp.equalities`` (rooted unlike
    ``solve``'s, so a class is named by another member), the triples from the
    flat ``csp.sp_constraints``, and the closure from passes over every
    triple, value by value against ``compare``, until a pass removes nothing
    or a domain is empty.
    """
    root = list(range(len(csp.keys)))

    def find(v: int) -> int:
        while root[v] != v:
            v = root[v]
        return v

    for a, b in csp.equalities:
        root[find(a)] = find(b)
    rep = [find(v) for v in range(len(csp.keys))]
    triples = {(rep[t], rep[d], p) for t, d, p in csp.sp_constraints if rep[t] != rep[d]}
    grid, model = csp.instance.grid, csp.instance.preference_model
    points = range(len(grid))
    ok = [[[_accepts(model, grid[p], grid[x], grid[y]) for y in points] for x in points] for p in points]
    domains = [set(points) for _ in rep]
    for v, mask in enumerate(csp.domains):
        domains[rep[v]] &= {k for k in points if mask >> k & 1}
    before = sum(len(domains[r]) for r in set(rep))
    changed = True
    while changed and all(domains[r] for r in rep):
        changed = False
        for t, d, p in triples:
            keep_t = {x for x in domains[t] if any(ok[p][x][y] for y in domains[d])}
            keep_d = {y for y in domains[d] if any(ok[p][x][y] for x in domains[t])}
            if (keep_t, keep_d) != (domains[t], domains[d]):
                domains[t], domains[d], changed = keep_t, keep_d, True
    return triples, before - sum(len(domains[r]) for r in set(rep)), [domains[r] for r in rep]


def _assert_arc_consistency_contract(csp: Csp, result) -> None:
    """``solve`` revises the merged SP triples, however it groups them: it
    counts each once, and its AC-3 reaches the unique arc-consistent closure."""
    triples, removed, domains = _naive_arc_consistency(csp)
    stats = result.stats
    assert stats["sp_constraints"] == len(triples)
    refuted_by = stats.get("refuted_by", "")
    if refuted_by == "arc-consistency":
        assert not all(domains)
    elif refuted_by != "empty-domain" and not refuted_by.startswith("relevance-collapsed"):
        assert all(domains)
        assert stats["ac3_prunes"] == removed


@pytest.mark.parametrize("name", sorted(SEARCH_CASES))
def test_search_cases_meet_the_arc_consistency_contract(name):
    inst, props = SEARCH_CASES[name]
    csp = encode(inst, props)
    _assert_arc_consistency_contract(csp, solve(csp))


# The space sorts and links situations on ints; these shapes hold every case
# of voter, peak and invited order: every shape of up to 4 voters on 2 to 5
# points, fig2, the deep demo, and voters whose names sort apart from their
# numbers (v10 < v11 < v2 < v9)
def _integer_order_instances() -> list[Instance]:
    out = [instances_for(graph, uniform_grid(points))[0] for points in (2, 3, 4, 5) for graph in tree_shapes(4, 4)]
    numbered = InvitationGraph(frozenset(["v9", "v10"]), {"v9": frozenset(["v11"]), "v10": frozenset(["v2"])})
    out += [make_fig2(), make_deep_demo(), Instance(numbered, dict.fromkeys(numbered.voters, F(0)), GRID3)]
    return out


def test_key_order_matches_sorting_the_keys():
    for inst in _integer_order_instances():
        space = enumeration.SituationSpace(inst)
        assert space.key_order() == sorted(range(len(space.keys)), key=space.keys.__getitem__)


# The anonymity blocks are laid out once per participation set and class,
# from one template per members tuple; the shapes of five voters add
# classes of five members
def _anonymity_instances() -> list[Instance]:
    five = [graph for graph in tree_shapes(5, 5) if len(graph.voters) == 5]
    return _integer_order_instances() + [instances_for(graph, GRID3)[0] for graph in five]


def _merged(n: int, pairs) -> list[int]:
    """Each of ``n`` variables' least variable in its class under the union-find closure of ``pairs``."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    return [find(x) for x in range(n)]


def test_equalities_match_the_set_based_builder():
    # the equalities link each orbit's situations to its least one, where the
    # set-based builder gave one pair per swap: fewer pairs, the same merge.
    # They are collected in a list and sorted once, with no set, so their
    # order must come from that sort alone, under any hash seed
    for inst in _anonymity_instances():
        space = enumeration.SituationSpace(inst)
        var, keys = space.variables()
        for variant in AnonymityVariant:
            pairs, orbits = space.equalities(variant), space.orbits(variant)
            assert _merged(len(keys), pairs) == _merged(len(keys), set_built_equalities(space, variant))
            assert len(pairs) == sum(len(orbit) - 1 for orbit in orbits)
            assert all(a < b for a, b in pairs) and all(p < q for p, q in zip(pairs, pairs[1:]))
            orbits_of = [set() for _ in keys]  # per variable, the orbits holding it
            for i, orbit in enumerate(orbits):
                for sid in orbit:
                    orbits_of[var[sid]].add(i)
            assert all(orbits_of[a] & orbits_of[b] for a, b in pairs)


def test_classes_match_the_per_situation_builder():
    # classes are laid out once per participation set, from the report
    # digits of its first situation; a situation reads its set's
    for inst in _anonymity_instances():
        space = enumeration.SituationSpace(inst)
        for variant in AnonymityVariant:
            per_situation = [space.set_classes(variant)[reached] for reached in space.reached]
            assert per_situation == situation_classes(space, variant), (inst.graph, variant)


def test_orbits_match_the_situation_walk():
    # templates are grouped in a dict keyed by ints and the orbits of all sets
    # are sorted once, so their order must come from that sort alone, under
    # any hash seed
    for inst in _anonymity_instances():
        space = enumeration.SituationSpace(inst)
        for variant in AnonymityVariant:
            assert space.orbits(variant) == walked_orbits(space, variant)


@pytest.mark.parametrize("name", ["fig2", "branch-3-vr1"])
def test_sat_model_is_a_read_only_table_in_key_order(name):
    inst, props = SEARCH_CASES[name]
    csp = encode(inst, props)
    model = solve(csp).model
    assert list(model) == list(csp.keys)
    table = dict(zip(csp.keys, model.values()))
    assert len(model) == len(table) == len(csp.keys)
    assert list(model.items()) == list(table.items())
    assert all(key in model and model[key] == table[key] for key in csp.keys)
    assert model == table
    absent = (("nobody", F(0), ()),)
    assert absent not in model and model.get(absent) is None
    with pytest.raises(TypeError):
        model[csp.keys[0]] = inst.grid[0]
    # a dict is sorted by key first, the table is walked as it stands
    assert model_to_json(model) == model_to_json(dict(reversed(table.items())))
    assert TabulatedScf(model).table == table
    assert verify_model(inst, model, props) == verify_model(inst, table, props)
    assert all(r.passed for r in verify_model(inst, model, props))


def test_to_json_returns_copies_of_the_stats():
    csp = encode(make_chain(3, 3), ["SP", "PE", "AN-S"])
    result = solve(csp)
    doc = result.to_json()
    del doc["stats"]["phase_s"]
    doc["stats"]["ac3_prunes"] = -1
    result.to_json()["stats"]["phase_s"]["merge"] = -1.0
    assert result.stats["phase_s"]["merge"] >= 0
    again, fresh = result.to_json(), solve(csp).to_json()
    for d in (again, fresh):
        assert set(d["stats"].pop("phase_s")) == {"merge", "ac3", "search"}
        del d["wall_time_s"]
    assert again == fresh
