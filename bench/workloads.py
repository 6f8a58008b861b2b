"""The four workloads: inputs made from a seed, one timed round, and its checks.

A workload builds the inputs of round ``r`` from ``(seed, r)`` alone, with
fresh voter names every round, so no round can reuse what an earlier round
left behind in a cache keyed on the instance. ``run`` is the timed part:
it calls into ``treechoice`` through module attributes looked up at call
time, so the traced run's wrappers see every call. ``check`` runs after the
timed window and compares the outputs with ``oracle``'s own computations and
the paper's theorems, never with a stored copy of earlier output.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import oracle
import treechoice.cli as cli
import treechoice.cspsearch as cspsearch
import treechoice.fileio as fileio
import treechoice.model as model
import treechoice.properties as properties
import treechoice.scf as scf

GRID3 = (Fraction(0), Fraction(1, 2), Fraction(1))
FIXED_HALF = "fixed:1/2"
DIRECT = "direct-median"
WEIGHTED = "depth-weighted-median"
PARTICIPANT = "participant-median"
ALL_PROPERTIES = ("SP", "SP-D", "PE", "ONTO", "AN", "AN-S", "AN-D", "AN-SD", "DEPTH1-HULL")


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def _names(rng: random.Random, count: int, *, keep_order: bool) -> list[str]:
    """Fresh voter ids; with ``keep_order`` they sort like the positions they replace."""
    names = sorted(f"v{k}" for k in rng.sample(range(100, 1000), count))
    if not keep_order:
        rng.shuffle(names)
    return names


def _tree(parents: tuple[int, ...], names: list[str], peaks, grid) -> oracle.Tree:
    direct = [names[k] for k, p in enumerate(parents) if p == -1]
    children = {name: [] for name in names}
    for k, p in enumerate(parents):
        if p >= 0:
            children[names[p]].append(names[k])
    return oracle.Tree.build(direct, children, dict(zip(names, peaks)), grid)


def _instance(tree: oracle.Tree):
    graph = model.InvitationGraph(
        frozenset(tree.direct), {v: frozenset(kids) for v, kids in tree.children.items()}
    )
    return model.Instance(graph, tree.peaks, tree.grid)


def _attempt(call, failures: list):
    """One operation; an exception counts it failed instead of ending the run."""
    try:
        return call()
    except Exception as exc:  # the run must go on and report the failure
        failures.append(repr(exc))
        if len(failures) <= 3:
            print(f"operation failed: {exc!r}", file=sys.stderr)
        return None


class Workload:
    name = ""

    def inputs(self, seed: int, round_index: int, workdir: Path):
        raise NotImplementedError

    def run(self, inputs) -> tuple[list, int, int]:
        """Timed: returns (results, attempted, failed)."""
        raise NotImplementedError

    def check(self, inputs, results) -> list[str]:
        raise NotImplementedError


class CheckerWorkload(Workload):
    """Rounds of ``run_check`` calls over (instance, rule, property) triples."""

    def run(self, inputs):
        failures: list = []
        results = []
        for tree, instance, suites in inputs:
            for rule_name, rule, props in suites:
                for prop in props:
                    report = _attempt(lambda: properties.run_check(rule, instance, prop), failures)
                    results.append(report)
        return results, len(results), len(failures)

    def check(self, inputs, results):
        problems: list[str] = []
        reports = iter(results)
        for tree, _, suites in inputs:
            for rule_name, _, props in suites:
                label = f"{rule_name} on {tree.to_dict()['children']}"
                verdicts = {}
                for prop in props:
                    report = next(reports)
                    if report is None:
                        continue
                    doc = report.to_json()
                    verdicts[prop] = report.passed
                    found = oracle.examined_problems(tree, doc) + oracle.witness_problems(tree, rule_name, doc)
                    problems.extend(f"{label}: {p}" for p in found)
                found = oracle.implication_problems(verdicts) + theorem_problems(tree, rule_name, verdicts)
                problems.extend(f"{label}: {p}" for p in found)
        return problems


def theorem_problems(tree: oracle.Tree, rule: str, verdicts: dict[str, bool]) -> list[str]:
    """The existence theorems for the two median rules.

    Direct-median is SP, PE, AN-D and VR-1 everywhere. Depth-weighted-median
    is SP, PE and AN-SD everywhere, and VR-2 exactly when the tree does not
    have one direct child above a deeper voter.
    """
    if rule == DIRECT:
        want = {"SP": True, "PE": True, "AN-D": True, "VR-1": True}
    elif rule == WEIGHTED:
        blocked = len(tree.direct) == 1 and tree.max_depth >= 2
        want = {"SP": True, "PE": True, "AN-SD": True, "VR-2": not blocked}
    else:
        return []
    return [
        f"{prop} is {'Pass' if verdicts[prop] else 'Fail'}, the theorem says {'Pass' if ok else 'Fail'}"
        for prop, ok in want.items()
        if prop in verdicts and verdicts[prop] != ok
    ]


class PeakSweep(CheckerWorkload):
    """The C2 and C3 guarantee suites over every peak assignment of fixed shapes."""

    name = "peak_sweep"
    # every shape with at most 3 voters, plus three direct children one of
    # which has a child: 210 instances on the 3-point grid
    SHAPES = [p for n in (1, 2, 3) for p in oracle.tree_shapes(n, 3)] + [(-1, -1, -1, 0)]

    def inputs(self, seed, round_index, workdir):
        rng = _rng(self.name, seed, round_index)
        suites = [
            (DIRECT, scf.parse_scf(DIRECT), ("SP", "PE", "AN-D", "VR-1")),
            (WEIGHTED, scf.parse_scf(WEIGHTED), ("SP", "PE", "AN-SD", "VR-2")),
        ]
        out = []
        for parents in self.SHAPES:
            names = _names(rng, len(parents), keep_order=False)
            for peaks in itertools.product(GRID3, repeat=len(parents)):
                tree = _tree(parents, names, peaks, GRID3)
                out.append((tree, _instance(tree), suites))
        return out


class DistinctShapes(CheckerWorkload):
    """One seeded peak assignment per 4-voter shape, every rule, every property."""

    name = "distinct_shapes"
    SHAPES = oracle.tree_shapes(4, 4)
    RULES = (FIXED_HALF, DIRECT, WEIGHTED, PARTICIPANT)

    def inputs(self, seed, round_index, workdir):
        rng = _rng(self.name, seed, round_index)
        out = []
        for parents in self.SHAPES:
            names = _names(rng, len(parents), keep_order=False)
            peaks = [rng.choice(GRID3) for _ in parents]
            tree = _tree(parents, names, peaks, GRID3)
            props = ALL_PROPERTIES + tuple(f"VR-{d}" for d in range(tree.max_depth + 1))
            suites = [(rule, scf.parse_scf(rule), props) for rule in self.RULES]
            out.append((tree, _instance(tree), suites))
        return out


class Search(Workload):
    """``encode`` then ``solve`` on the paper's theorem instances."""

    name = "search"

    @staticmethod
    def cases():
        """(instance, properties, expected verdict) for each theorem instance."""
        out = [
            (fileio.make_fig2(), ("SP", "PE", "AN-SD", "VR-2"), "sat"),
            (fileio.make_two_children_one_grandchild(3), ("SP", "PE", "AN-D", "VR-1"), "sat"),
        ]
        out += [(fileio.make_chain(3, g), ("SP", "PE", "AN-S"), "unsat") for g in range(3, 9)]
        out += [
            (fileio.make_two_children_one_grandchild(g), ("SP", "PE", "AN-D", "VR-2"), "unsat")
            for g in (3, 4, 5)
        ]
        out.append((fileio.make_chain(3, 3), ("SP", "PE", "VR-2"), "unsat"))
        return out

    def inputs(self, seed, round_index, workdir):
        # order-preserving names keep the search order, and so its work, fixed
        rng = _rng(self.name, seed, round_index)
        out = []
        for instance, props, verdict in self.cases():
            tree = oracle.Tree.from_instance(instance)
            tree = tree.renamed(dict(zip(tree.voters, _names(rng, len(tree.voters), keep_order=True))))
            out.append((tree, _instance(tree), props, verdict))
        return out

    def run(self, inputs):
        failures: list = []
        results = []
        for _, instance, props, _ in inputs:
            results.append(_attempt(lambda: cspsearch.solve(cspsearch.encode(instance, props)), failures))
        return results, len(results), len(failures)

    def check(self, inputs, results):
        problems = []
        for (tree, _, props, want), result in zip(inputs, results):
            if result is None:
                continue
            label = f"{','.join(props)} on {tree.to_dict()['children']} (grid {len(tree.grid)})"
            if result.verdict != want:
                problems.append(f"{label} is {result.verdict}, the theorem says {want}")
            elif result.sat:
                model_json = result.to_json()["model"]
                found = oracle.model_problems(tree, oracle.model_from_json(model_json), props)
                problems.extend(f"{label}: {p}" for p in found)
        return problems


class Matrix(Workload):
    """``treechoice matrix`` through ``cli.main``: the default matrix and instance files."""

    name = "matrix"
    # two children one grandchild; a fork; a chain; three children one grandchild
    SHAPES = [(-1, -1, 0), (-1, 0, 0), (-1, 0, 1), (-1, -1, -1, 0)]

    def inputs(self, seed, round_index, workdir):
        rng = _rng(self.name, seed, round_index)
        folder = workdir / f"round{round_index}"
        folder.mkdir(parents=True, exist_ok=True)
        jobs = [(None, ["matrix", "--out", str(folder / "default.json")])]
        for k, parents in enumerate(self.SHAPES):
            names = _names(rng, len(parents), keep_order=True)
            tree = _tree(parents, names, [rng.choice(GRID3) for _ in parents], GRID3)
            path = folder / f"instance{k}.json"
            path.write_text(json.dumps(tree.to_dict(), indent=2))
            jobs.append((tree.to_dict(), ["matrix", "--instance", str(path), "--out", str(folder / f"matrix{k}.json")]))
        return jobs

    def run(self, inputs):
        failures: list = []
        codes = [_attempt(lambda: cli.main(argv), failures) for _, argv in inputs]
        failed = len(failures) + sum(1 for code in codes if code not in (None, 0))
        return codes, len(codes), failed

    def check(self, inputs, results):
        problems = []
        for (instance, argv), code in zip(inputs, results):
            if code != 0:
                continue
            out = Path(argv[argv.index("--out") + 1])
            doc = json.loads(out.read_text())
            label = "default matrix" if instance is None else f"matrix of {instance['children']}"
            problems.extend(f"{label}: {p}" for p in oracle.matrix_problems(doc, instance))
        return problems


WORKLOADS = {w.name: w for w in (PeakSweep, DistinctShapes, Search, Matrix)}
