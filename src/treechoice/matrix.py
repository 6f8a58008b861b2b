"""Existence matrix: anonymity columns against relevance rows, with evidence.

Each cell answers "is there an outcome rule satisfying incentive
compatibility, efficiency, this anonymity variant, and this relevance level"
and is backed by a stored artifact: either a full checker suite for one of
the bundled rules (existence) or a complete-search result (refutation on the
evidence instance). Structure-distance cells at relevance 3 and beyond are
rendered "open" unless the search finds a model, because a grid refutation
on one instance does not settle the general question.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cspsearch import InconclusiveError, encode, solve, verify_model
from .fileio import (
    instance_to_dict,
    make_chain,
    make_fig2,
    make_two_children_one_grandchild,
)
from .model import BudgetExceededError, Instance
from .properties import run_check
from .scf import DepthWeightedMedian, DirectChildrenMedian

COLUMNS = ("AN", "AN-S", "AN-D", "AN-SD")
DEFAULT_ROWS: tuple[tuple[str, int], ...] = (
    ("VR-n", 3),
    ("VR-3 .. VR-n-1", 3),
    ("VR-2", 2),
    ("VR-1", 1),
    ("VR-0", 0),
)

# the rules of the paper's two existence theorems, tried in order before a search
RULES = (DirectChildrenMedian(), DepthWeightedMedian())

_SYMBOLS = {"exists": "✓", "not-on-instance": "✗", "open": "open", "inconclusive": "?"}


@dataclass
class CellResult:
    verdict: str
    artifact: dict
    note: str | None = None


def _properties_for(column: str, d: int) -> list[str]:
    props = ["SP", "PE", column]
    if d >= 1:
        props.append(f"VR-{d}")
    return props


def _try_rules(instance: Instance, column: str, d: int) -> CellResult | None:
    props = _properties_for(column, d)
    for rule in RULES:
        reports = [run_check(rule, instance, token) for token in props]
        if all(r.passed for r in reports):
            artifact = {
                "kind": "check-suite",
                "scf": rule.name,
                "instance": instance_to_dict(instance),
                "properties": props,
                "reports": [r.to_json() for r in reports],
            }
            return CellResult("exists", artifact)
    return None


def _run_csp(instance: Instance, column: str, d: int, *, timeout_s: float | None) -> CellResult:
    props = _properties_for(column, d)
    open_when_unsat = column == "AN-SD" and d >= 3
    try:
        csp = encode(instance, props)
        result = solve(csp, timeout_s=timeout_s)
    except (BudgetExceededError, InconclusiveError) as exc:
        return CellResult(
            "inconclusive",
            {
                "kind": "csp",
                "instance": instance_to_dict(instance),
                "properties": props,
                "error": str(exc),
            },
            note="budget or time limit reached; verdict not fabricated",
        )
    artifact = {
        "kind": "csp",
        "instance": instance_to_dict(instance),
        "properties": props,
        "csp": csp.to_json(),
        "result": result.to_json(),
    }
    if result.sat:
        assert result.model is not None
        replay = verify_model(instance, result.model, props)
        artifact["replay"] = [r.to_json() for r in replay]
        if not all(r.passed for r in replay):
            return CellResult("inconclusive", artifact, note="model failed replay")
        return CellResult("exists", artifact, note="witnessed by a searched table")
    if open_when_unsat:
        return CellResult(
            "open", artifact, note="no rule on this instance; general question open"
        )
    return CellResult("not-on-instance", artifact)


def _default_cell(column: str, d: int, *, timeout_s: float | None) -> CellResult:
    """Cells of the bundled matrix use the canonical evidence instances."""
    if column in ("AN-D", "AN-SD") and d <= 2:
        positive = _try_rules(make_fig2(), column, d)
        if positive is not None:
            return positive
    if column in ("AN", "AN-S"):
        return _run_csp(make_chain(3, 3), column, d, timeout_s=timeout_s)
    if column == "AN-D":
        instance = make_two_children_one_grandchild(3) if d == 2 else make_chain(3, 3)
        return _run_csp(instance, column, d, timeout_s=timeout_s)
    return _run_csp(make_chain(3, 3), column, d, timeout_s=timeout_s)


def _instance_cell(instance: Instance, column: str, d: int, *, timeout_s: float | None) -> CellResult:
    try:
        positive = _try_rules(instance, column, d)
    except BudgetExceededError as exc:
        return CellResult(
            "inconclusive",
            {"kind": "check-suite", "instance": instance_to_dict(instance), "error": str(exc)},
            note="budget reached",
        )
    if positive is not None:
        return positive
    return _run_csp(instance, column, d, timeout_s=timeout_s)


def render_markdown(rows: list[str], cells: dict[str, dict]) -> str:
    lines = ["| | " + " | ".join(COLUMNS) + " |", "|---" * (len(COLUMNS) + 1) + "|"]
    for label in rows:
        row = [label]
        for col in COLUMNS:
            cell = cells[f"{label}|{col}"]
            mark = _SYMBOLS[cell["verdict"]]
            row.append(f"{mark} ({cell['evidence']})" if cell.get("evidence") else mark)
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def build_matrix(
    instance: Instance | None = None,
    *,
    timeout_s: float | None = None,
) -> dict:
    """Run every cell and assemble the JSON report with markdown and artifacts."""
    if instance is None:
        rows = list(DEFAULT_ROWS)
    else:
        rows = [(f"VR-{d}", d) for d in range(instance.graph.max_depth, -1, -1)]

    cells: dict[str, dict] = {}
    artifacts: dict[str, dict] = {}
    for label, d in rows:
        for col in COLUMNS:
            if instance is None:
                result = _default_cell(col, d, timeout_s=timeout_s)
            else:
                result = _instance_cell(instance, col, d, timeout_s=timeout_s)
            evidence = f"a{len(artifacts) + 1:02d}"
            artifacts[evidence] = result.artifact
            cells[f"{label}|{col}"] = {
                "verdict": result.verdict,
                "evidence": evidence,
                "note": result.note,
            }

    row_labels = [label for label, _ in rows]
    return {
        "schema_version": 1,
        "mode": "default" if instance is None else "instance",
        "rows": row_labels,
        "columns": list(COLUMNS),
        "cells": cells,
        "artifacts": artifacts,
        "markdown": render_markdown(row_labels, cells),
    }
