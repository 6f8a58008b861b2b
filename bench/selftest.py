"""Self-tests of the benchmark's independent checks: each must reject a corrupted output.

    python3 bench/selftest.py

Standard library only; it imports ``treechoice`` from this checkout's ``src``.
"""

from __future__ import annotations

import json
import sys
import tempfile
import threading
import time
import unittest
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
from treechoice import (  # noqa: E402
    AnonymityVariant,
    DepthWeightedMedian,
    DirectChildrenMedian,
    ParticipantMedian,
    check_anonymity,
    check_pareto,
    check_sp,
    check_voter_relevance,
    cli,
    encode,
    solve,
)
from treechoice.fileio import make_fig2, make_two_children_one_grandchild  # noqa: E402


def _other_grid_value(grid, value):
    return next(q for q in grid if q != value)


class ModelReplay(unittest.TestCase):
    def test_rejects_a_changed_situation(self):
        instance = make_two_children_one_grandchild(3)
        props = ("SP", "PE", "AN-D", "VR-1")
        result = solve(encode(instance, props))
        tree = oracle.Tree.from_instance(instance)
        model = oracle.model_from_json(result.to_json()["model"])
        self.assertEqual(oracle.model_problems(tree, model, props), [])
        # all participants report one peak, so PE pins the outcome to it
        key = next(k for k in sorted(model) if len({p for _, p, _ in k}) == 1)
        model[key] = _other_grid_value(tree.grid, model[key])
        self.assertTrue(oracle.model_problems(tree, model, props))

    def test_rejects_a_missing_situation(self):
        instance = make_two_children_one_grandchild(3)
        result = solve(encode(instance, ["SP", "PE", "AN-D", "VR-1"]))
        model = oracle.model_from_json(result.to_json()["model"])
        del model[sorted(model)[0]]
        problems = oracle.model_problems(oracle.Tree.from_instance(instance), model, ["SP"])
        self.assertTrue(any("unassigned" in p for p in problems))


class WitnessReplay(unittest.TestCase):
    def assert_replays_then_rejects(self, instance, rule, report, field):
        tree = oracle.Tree.from_instance(instance)
        doc = report.to_json()
        self.assertEqual(oracle.witness_problems(tree, rule, doc), [])
        target = doc["witness"]
        if "voters" in target:  # a VR Pass: one witness per voter
            target = next(iter(target["voters"].values()))
        target[field] = oracle.fmt(_other_grid_value(tree.grid, Fraction(target[field])))
        self.assertTrue(oracle.witness_problems(tree, rule, doc))

    def test_sp_witness_with_altered_outcome(self):
        instance = make_fig2()
        report = check_sp(ParticipantMedian(), instance)
        self.assertFalse(report.passed)
        self.assert_replays_then_rejects(instance, "participant-median", report, "deviation_outcome")

    def test_anonymity_witness_with_altered_outcome(self):
        instance = make_fig2()
        report = check_anonymity(DepthWeightedMedian(), instance, AnonymityVariant.BY_DEPTH)
        self.assertFalse(report.passed)
        self.assert_replays_then_rejects(instance, "depth-weighted-median", report, "permuted_outcome")

    def test_relevance_witness_with_altered_outcome(self):
        instance = make_fig2()
        report = check_voter_relevance(DepthWeightedMedian(), instance, 2)
        self.assertTrue(report.passed)
        self.assert_replays_then_rejects(instance, "depth-weighted-median", report, "outcome_b")


class ClosedForm(unittest.TestCase):
    def test_rejects_a_count_one_short(self):
        instance = make_fig2()
        tree = oracle.Tree.from_instance(instance)
        rule = DirectChildrenMedian()
        for report in (
            check_sp(rule, instance),
            check_sp(rule, instance, "diffusion_only"),
            check_pareto(rule, instance),
            check_anonymity(rule, instance, AnonymityVariant.BY_DEPTH),
        ):
            doc = report.to_json()
            self.assertEqual(doc["verdict"], "Pass")
            self.assertEqual(oracle.examined_problems(tree, doc), [])
            doc["profiles_examined"] -= 1
            self.assertTrue(oracle.examined_problems(tree, doc), doc["property"])


class MatrixCheck(unittest.TestCase):
    def test_rejects_a_cell_without_artifact(self):
        grid = (Fraction(0), Fraction(1, 2), Fraction(1))
        tree = oracle.Tree.build(["a", "b"], {"a": ["c"]}, dict(zip("abc", grid)), grid)
        (BENCH / "out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=BENCH / "out") as folder:
            source, out = Path(folder) / "instance.json", Path(folder) / "matrix.json"
            source.write_text(json.dumps(tree.to_dict()))
            self.assertEqual(cli.main(["matrix", "--instance", str(source), "--out", str(out)]), 0)
            doc = json.loads(out.read_text())
        self.assertEqual(oracle.matrix_problems(doc, tree.to_dict()), [])
        del doc["artifacts"][doc["cells"]["VR-1|AN-D"]["evidence"]]
        self.assertTrue(any("no artifact" in p for p in oracle.matrix_problems(doc, tree.to_dict())))


class Tracing(unittest.TestCase):
    def test_self_time_subtracts_children_per_thread(self):
        tracer = tracing.Tracer()
        hot = tracer.hot("hot", lambda: time.sleep(0.02))
        inner = tracer.span("inner", lambda: time.sleep(0.03))

        def worker_cells():
            threads = [threading.Thread(target=inner) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=5)

        outer = tracer.span("outer", lambda: (hot(), worker_cells()))
        tracer.enabled = True
        outer()
        spans = {s.name: s for s in tracer.spans}
        # two concurrent 30 ms children cover about 30 ms of the parent, not 60
        self.assertLess(spans["outer"].self_time(), 0.015)
        self.assertGreater(spans["outer"].end - spans["outer"].start, 0.045)
        self.assertIs(spans["inner"].parent, spans["outer"])
        self.assertEqual(spans["outer"].hot["hot"][0], 1)

    def test_benchmark_json_lists_every_metric(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]], tracing.LAYER_METRICS
        )
        self.assertEqual({m["name"] for m in spec["end_to_end"]}, {"wall_s", "setup_s", "peak_rss_mib"})


if __name__ == "__main__":
    unittest.main()
