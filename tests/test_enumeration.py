from __future__ import annotations

from fractions import Fraction

import pytest

from treechoice import (
    AnonymityVariant,
    BudgetExceededError,
    ReportedType,
    enumerate_profiles,
    peak_permutations,
    permutation_classes,
)
from treechoice.enumeration import others_assignments, profile_space_size
from treechoice.fileio import make_chain, make_fig2, make_star
from conftest import tree_shapes
from reference_checkers import truthful_peak_profiles

F = Fraction


def test_profile_counts_on_two_voter_chain():
    inst = make_chain(2, 3)  # i with child j, grid of three points
    assert profile_space_size(inst) == 18
    assert len(list(enumerate_profiles(inst))) == 18
    assert len(list(truthful_peak_profiles(inst))) == 2


def test_tree_shapes_counts_rooted_trees():
    # with no depth cap, n voters under the moderator are the rooted trees on
    # n + 1 nodes (OEIS A000081); past 5 voters the names run past "e"
    shapes = tree_shapes(6, 6)
    counts = [sum(len(graph.voters) == n for graph in shapes) for n in range(1, 7)]
    assert counts == [1, 2, 4, 9, 20, 48]
    assert tree_shapes(6, 3)[-1].voters == tuple("abcdef")


def test_profile_count_single_voter():
    inst = make_star(1, 5)
    assert len(list(enumerate_profiles(inst))) == 5


def test_enumeration_is_deterministic():
    inst = make_chain(2, 3)
    first = list(enumerate_profiles(inst))
    second = list(enumerate_profiles(inst))
    assert first == second
    assert len({tuple(sorted((v, r) for v, r in p.items())) for p in first}) == len(first)


def test_budget_error_names_the_size():
    inst = make_fig2()
    with pytest.raises(BudgetExceededError) as err:
        list(enumerate_profiles(inst, budget=10))
    assert "5184" in str(err.value)
    assert err.value.projected == 5184


def test_structure_classes_on_full_chain():
    inst = make_chain(3, 3)
    reports = inst.truthful_reports()
    classes = permutation_classes(inst.graph, reports, AnonymityVariant.BY_STRUCTURE)
    by_key = {cls.key: cls.members for cls in classes}
    assert by_key[("structure", 1)] == {"i", "j"}
    assert by_key[("structure", 0)] == {"u"}


def test_structure_depth_classes_on_demo():
    inst = make_fig2()
    classes = permutation_classes(
        inst.graph, inst.truthful_reports(), AnonymityVariant.BY_STRUCTURE_DEPTH
    )
    by_key = {cls.key: cls.members for cls in classes}
    assert by_key[("structure-depth", 0, 2)] == {"u", "v"}
    assert by_key[("structure-depth", 0, 1)] == {"j"}
    assert by_key[("structure-depth", 2, 1)] == {"i"}


def test_peak_permutation_counts():
    inst = make_chain(3, 3)
    reports = inst.truthful_reports()
    classes = {c.key: c for c in permutation_classes(inst.graph, reports, AnonymityVariant.BY_STRUCTURE)}
    two = list(peak_permutations(reports, classes[("structure", 1)]))
    assert len(two) == 2
    one = list(peak_permutations(reports, classes[("structure", 0)]))
    assert len(one) == 1 and one[0] == reports
    swapped = two[1]
    assert swapped["i"].peak == reports["j"].peak
    assert swapped["j"].peak == reports["i"].peak
    assert swapped["i"].invited == reports["i"].invited


def test_permutations_form_a_group_action():
    inst = make_star(3, 3)
    reports = {
        "a": ReportedType(F(0), frozenset()),
        "b": ReportedType(F(1, 2), frozenset()),
        "c": ReportedType(F(1), frozenset()),
    }
    (cls,) = permutation_classes(inst.graph, reports, AnonymityVariant.BY_DEPTH)
    stream = list(peak_permutations(reports, cls))
    as_keys = {tuple(sorted((v, r.peak) for v, r in p.items())) for p in stream}
    assert len(stream) == 6
    for first in stream:
        for second in peak_permutations(first, cls):
            key = tuple(sorted((v, r.peak) for v, r in second.items()))
            assert key in as_keys


def test_classes_unchanged_after_permutation():
    inst = make_fig2()
    reports = inst.truthful_reports()
    for cls in permutation_classes(inst.graph, reports, AnonymityVariant.BY_DEPTH):
        for permuted in peak_permutations(reports, cls):
            again = permutation_classes(inst.graph, permuted, AnonymityVariant.BY_DEPTH)
            assert {c.key: c.members for c in again} == {
                c.key: c.members
                for c in permutation_classes(inst.graph, reports, AnonymityVariant.BY_DEPTH)
            }


def test_others_assignments_exclude_the_voter():
    inst = make_chain(2, 3)
    for others in others_assignments(inst, "i"):
        assert set(others) == {"j"}


def test_others_assignments_size_is_the_profile_space_without_the_voter():
    inst = make_fig2()  # 5,184 profiles; voter i has 6 peaks x 4 invited subsets
    assert len(list(others_assignments(inst, "i", budget=216))) == 216
    with pytest.raises(BudgetExceededError, match="profile enumeration size 216 exceeds budget 215"):
        next(others_assignments(inst, "i", budget=215))
