from __future__ import annotations

import pytest

from treechoice import parse_scf, run_check, solve, encode
from treechoice.fileio import make_two_children_one_grandchild, parse_instance
from treechoice.matrix import build_matrix


@pytest.fixture(scope="module")
def branch_matrix():
    return build_matrix(make_two_children_one_grandchild(3))


def test_instance_matrix_rows_follow_depth(branch_matrix):
    assert branch_matrix["rows"] == ["VR-2", "VR-1", "VR-0"]
    assert branch_matrix["columns"] == ["AN", "AN-S", "AN-D", "AN-SD"]


def test_instance_matrix_depth_column_matches_search(branch_matrix):
    cells = branch_matrix["cells"]
    assert cells["VR-1|AN-D"]["verdict"] == "exists"
    assert cells["VR-2|AN-D"]["verdict"] == "not-on-instance"
    assert cells["VR-2|AN-SD"]["verdict"] == "exists"


def test_check_suite_artifacts_replay(branch_matrix):
    cells = branch_matrix["cells"]
    artifacts = branch_matrix["artifacts"]
    cell = cells["VR-1|AN-D"]
    artifact = artifacts[cell["evidence"]]
    assert artifact["kind"] == "check-suite"
    instance = parse_instance(artifact["instance"])
    rule = parse_scf(artifact["scf"])
    for recorded in artifact["reports"]:
        fresh = run_check(rule, instance, recorded["property"])
        assert fresh.verdict == recorded["verdict"] == "Pass"


def test_csp_artifacts_replay(branch_matrix):
    cells = branch_matrix["cells"]
    artifacts = branch_matrix["artifacts"]
    cell = cells["VR-2|AN-D"]
    artifact = artifacts[cell["evidence"]]
    assert artifact["kind"] == "csp"
    instance = parse_instance(artifact["instance"])
    again = solve(encode(instance, artifact["properties"]))
    assert again.verdict == artifact["result"]["verdict"] == "unsat"


def test_searched_existence_path_verifies_its_model():
    # when no bundled rule witnesses a cell, a Sat search result only counts
    # after its table replays through the checkers
    from treechoice.matrix import _run_csp

    cell = _run_csp(make_two_children_one_grandchild(3), "AN-D", 1, timeout_s=None)
    assert cell.verdict == "exists"
    assert cell.artifact["result"]["verdict"] == "sat"
    assert all(r["verdict"] == "Pass" for r in cell.artifact["replay"])


def test_searched_existence_cells_carry_verified_models(branch_matrix):
    cells = branch_matrix["cells"]
    artifacts = branch_matrix["artifacts"]
    for cell in cells.values():
        artifact = artifacts[cell["evidence"]]
        if cell["verdict"] == "exists" and artifact["kind"] == "csp":
            assert artifact["result"]["verdict"] == "sat"
            assert all(r["verdict"] == "Pass" for r in artifact["replay"])
