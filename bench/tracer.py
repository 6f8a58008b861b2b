"""Timing wrappers installed from outside on ``treechoice``'s module attributes.

Modules bind imported names when they are imported, so a wrapper replaces a
function under every name, in every package module, that refers to it; rule
classes get their ``outcome`` replaced in the class. Coarse boundaries
(checkers, encode, solve, the matrix, the CLI, file I/O) record one span each,
with parent and thread id. Hot calls (``compare``, ``situation_key``, rule
outcomes, participation, depths, the profile generators) only add to counts
and summed times under the innermost open span of their thread.

Self time is duration minus the time children cover, per thread. A span that
opens on a worker thread with no open span of its own takes as parent the
innermost open span of the main thread (the matrix's cell pool), and its
parent subtracts the union of such children's intervals.
"""

from __future__ import annotations

import importlib
import itertools
import threading
from time import perf_counter

import oracle

SPANS = {
    "properties": (
        "run_check", "check_sp", "check_pareto", "check_anonymity",
        "check_voter_relevance", "check_depth1_hull", "check_ontoness",
    ),
    "cspsearch": ("collect_situations", "encode", "solve", "verify_model"),
    "matrix": ("build_matrix",),
    "cli": ("main",),
    "fileio": ("load_instance", "dump_canonical"),
}
HOT = {
    "model": ("compare", "situation_key", "participating_voters", "reported_depths"),
    "enumeration": ("permutation_classes", "voter_participates"),
}
GENERATORS = {"enumeration": ("enumerate_profiles", "others_assignments", "peak_permutations")}
PACKAGE_MODULES = ("model", "enumeration", "scf", "properties", "cspsearch", "matrix", "fileio", "cli")


class Span:
    __slots__ = ("id", "name", "parent", "thread", "start", "end", "child", "hot", "attrs", "xchildren")

    def __init__(self, sid, name, parent, thread):
        self.id, self.name, self.parent, self.thread = sid, name, parent, thread
        self.start = self.end = self.child = 0.0
        self.hot: dict[str, list] = {}
        self.attrs: dict = {}
        self.xchildren: list[tuple[float, float]] = []

    def self_time(self) -> float:
        covered, last = 0.0, self.start
        for start, end in sorted(self.xchildren):
            start, end = max(start, last), min(end, self.end)
            if end > start:
                covered += end - start
                last = end
        return self.end - self.start - self.child - covered

    def to_json(self) -> dict:
        return {
            "id": self.id, "name": self.name, "parent": self.parent.id if self.parent else None,
            "thread": self.thread, "start": self.start, "end": self.end, "self": self.self_time(),
            "hot": {k: {"calls": c, "items": i, "s": t, "self_s": s} for k, (c, i, t, s) in self.hot.items()},
            "attrs": self.attrs,
        }


class Tracer:
    """Records spans and hot-call aggregates while ``enabled`` is true."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self.roots: list[dict] = []  # per-thread buckets for hot calls outside any span
        self.useful: set = set()  # distinct (rule, shape, situation) evaluated this round
        self.useful_total = 0
        self._local = threading.local()
        self._main_spans: list[Span] | None = None
        self._ids = itertools.count(1)
        self._shapes: dict[int, tuple] = {}

    def _state(self):
        local = self._local
        if not hasattr(local, "frames"):
            local.frames, local.spans, local.root = [], [], {}
            self.roots.append(local.root)
            if threading.current_thread() is threading.main_thread():
                self._main_spans = local.spans
        return local

    def _add_hot(self, local, name: str, calls: int, items: int, total: float, own: float) -> None:
        bucket = local.spans[-1].hot if local.spans else local.root
        rec = bucket.get(name)
        if rec is None:
            bucket[name] = [calls, items, total, own]
        else:
            rec[0] += calls
            rec[1] += items
            rec[2] += total
            rec[3] += own

    def hot(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            local = self._state()
            frames = local.frames
            frame = [0.0]
            frames.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                frames.pop()
                if frames:
                    frames[-1][0] += dur
                self._add_hot(local, name, 1, 0, dur, dur - frame[0])

        return wrapper

    def outcome(self, name: str, fn):
        """A rule's ``outcome`` method; also records which situation it decided."""
        timed = self.hot(name, fn)

        def wrapper(rule, instance, reports):
            if self.enabled:
                t0 = perf_counter()
                self.useful.add((rule.name, self._shape(instance), self._situation(instance, reports)))
                local = self._state()
                if local.frames:  # keep the bookkeeping out of the caller's self time
                    local.frames[-1][0] += perf_counter() - t0
            return timed(rule, instance, reports)

        return wrapper

    def _shape(self, instance) -> tuple:
        graph = instance.graph
        hit = self._shapes.get(id(graph))
        if hit is None or hit[0] is not graph:
            key = (tuple(sorted(graph.moderator_children)), tuple((v, tuple(sorted(graph.children[v]))) for v in graph.voters))
            hit = self._shapes[id(graph)] = (graph, key, oracle.Tree.build(graph.moderator_children, graph.children, {}, ()))
        return hit[1]

    def _situation(self, instance, reports) -> tuple:
        tree = self._shapes[id(instance.graph)][2]
        return oracle.situation(tree, {v: (r.peak, r.invited) for v, r in reports.items()})

    def generator(self, name: str, fn):
        tracer = self

        class TracedIter:
            __slots__ = ("it",)

            def __init__(self, it):
                self.it = it

            def __iter__(self):
                return self

            def __next__(self):
                if not tracer.enabled:
                    return next(self.it)
                local = tracer._state()
                frames = local.frames
                frame = [0.0]
                frames.append(frame)
                t0 = perf_counter()
                items = 0
                try:
                    value = next(self.it)
                    items = 1
                    return value
                finally:
                    dur = perf_counter() - t0
                    frames.pop()
                    if frames:
                        frames[-1][0] += dur
                    tracer._add_hot(local, name, 0, items, dur, dur - frame[0])

        def wrapper(*args, **kwargs):
            if self.enabled:
                self._add_hot(self._state(), name, 1, 0, 0.0, 0.0)
            return TracedIter(fn(*args, **kwargs))

        return wrapper

    def span(self, name: str, fn, hook=None):
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            local = self._state()
            cross = not local.spans and bool(self._main_spans) and local.spans is not self._main_spans
            parent = local.spans[-1] if local.spans else (self._main_spans[-1] if cross else None)
            span = Span(next(self._ids), name, parent, threading.get_ident())
            local.spans.append(span)
            frames = local.frames
            frame = [0.0]
            frames.append(frame)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                frames.pop()
                if frames:
                    frames[-1][0] += span.end - span.start
                local.spans.pop()
                span.child = frame[0]
                if cross:
                    parent.xchildren.append((span.start, span.end))
                self.spans.append(span)
            if hook is not None:
                hook(span, result)
            return result

        return wrapper

    def end_round(self) -> None:
        self.useful_total += len(self.useful)
        self.useful.clear()

    def hot_totals(self) -> dict[str, list]:
        totals: dict[str, list] = {}
        for bucket in [s.hot for s in self.spans] + self.roots:
            for name, rec in bucket.items():
                acc = totals.setdefault(name, [0, 0, 0.0, 0.0])
                for i in range(4):
                    acc[i] += rec[i]
        return totals


def _record(**fields):
    def hook(span, result):
        for key, read in fields.items():
            span.attrs[key] = read(result)

    return hook


HOOKS = {
    "cspsearch.encode": _record(sp_constraints=lambda csp: len(csp.sp_constraints)),
    "cspsearch.solve": _record(
        merged_variables=lambda r: r.stats["merged_variables"], nodes=lambda r: r.nodes_explored
    ),
    "matrix.build_matrix": _record(cells=lambda doc: len(doc["cells"])),
}
for _name in SPANS["properties"][1:]:
    HOOKS[f"properties.{_name}"] = _record(examined=lambda report: report.profiles_examined)


def install(tracer: Tracer) -> None:
    """Wrap every traced function under every name the package binds it to."""
    by_name = {m: importlib.import_module(f"treechoice.{m}") for m in PACKAGE_MODULES}
    modules = [importlib.import_module("treechoice"), *by_name.values()]
    replace: dict[int, object] = {}
    for table, wrap in (
        (SPANS, lambda qual, fn: tracer.span(qual, fn, HOOKS.get(qual))),
        (HOT, tracer.hot),
        (GENERATORS, tracer.generator),
    ):
        for module, names in table.items():
            for name in names:
                fn = getattr(by_name[module], name)
                replace[id(fn)] = wrap(f"{module}.{name}", fn)
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in replace:
                setattr(module, attr, replace[id(value)])
    base = by_name["scf"].SocialChoiceFunction
    for cls in _subclasses(base):
        if "outcome" in cls.__dict__:
            cls.outcome = tracer.outcome("scf.outcome", cls.__dict__["outcome"])


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# name, unit, better: the per-layer metrics a traced run reports, per round
LAYER_METRICS = [
    ("model.compare.calls", "count", "lower"),
    ("model.compare.us", "us", "lower"),
    ("model.situation_key.calls", "count", "lower"),
    ("model.situation_key.us", "us", "lower"),
    ("model.participating_voters.calls", "count", "lower"),
    ("model.reported_depths.calls", "count", "lower"),
    ("enumeration.profiles", "count", "lower"),
    ("enumeration.self_s", "s", "lower"),
    ("enumeration.permutation_classes.calls", "count", "lower"),
    ("scf.outcome.calls", "count", "lower"),
    ("scf.outcome.us", "us", "lower"),
    ("scf.outcome.self_s", "s", "lower"),
    ("scf.outcome.useful_ratio", "ratio", "higher"),
    *((f"properties.{name}.self_s", "s", "lower") for name in SPANS["properties"][1:]),
    ("properties.examined", "count", "lower"),
    ("properties.us_per_examined", "us", "lower"),
    *((f"cspsearch.{name}.self_s", "s", "lower") for name in SPANS["cspsearch"]),
    ("cspsearch.merged_variables", "count", "lower"),
    ("cspsearch.sp_constraints", "count", "lower"),
    ("cspsearch.nodes", "count", "lower"),
    ("matrix.build_matrix.self_s", "s", "lower"),
    ("matrix.check_suites.s", "s", "lower"),
    ("matrix.csp.s", "s", "lower"),
    ("matrix.cells", "count", "higher"),
    ("fileio.load_instance.self_s", "s", "lower"),
    ("fileio.dump_canonical.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
]


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-round values of LAYER_METRICS; a layer that did not run reads 0."""
    hot = tracer.hot_totals()
    zero = [0, 0, 0.0, 0.0]

    def calls(name):
        return hot.get(name, zero)[0]

    def mean_us(name):
        rec = hot.get(name, zero)
        return rec[2] / rec[0] * 1e6 if rec[0] else 0.0

    def self_s(name):
        return sum(s.self_time() for s in tracer.spans if s.name == name)

    def attr(name, key):
        return sum(s.attrs.get(key, 0) for s in tracer.spans if s.name == name)

    def under_matrix(names):
        return sum(
            s.end - s.start
            for s in tracer.spans
            if s.name in names and s.parent is not None and s.parent.name == "matrix.build_matrix"
        )

    checks = [f"properties.{name}" for name in SPANS["properties"][1:]]
    examined = sum(attr(name, "examined") for name in checks)
    check_time = sum(s.end - s.start for s in tracer.spans if s.name in checks)
    enum_self = sum(rec[3] for name, rec in hot.items() if name.startswith("enumeration."))
    outcome_calls = calls("scf.outcome")
    values = {
        "model.compare.calls": calls("model.compare"),
        "model.compare.us": mean_us("model.compare"),
        "model.situation_key.calls": calls("model.situation_key"),
        "model.situation_key.us": mean_us("model.situation_key"),
        "model.participating_voters.calls": calls("model.participating_voters"),
        "model.reported_depths.calls": calls("model.reported_depths"),
        "enumeration.profiles": sum(
            hot.get(f"enumeration.{g}", zero)[1] for g in ("enumerate_profiles", "others_assignments")
        ),
        "enumeration.self_s": enum_self,
        "enumeration.permutation_classes.calls": calls("enumeration.permutation_classes"),
        "scf.outcome.calls": outcome_calls,
        "scf.outcome.self_s": hot.get("scf.outcome", zero)[3],
        "properties.examined": examined,
        "cspsearch.merged_variables": attr("cspsearch.solve", "merged_variables"),
        "cspsearch.sp_constraints": attr("cspsearch.encode", "sp_constraints"),
        "cspsearch.nodes": attr("cspsearch.solve", "nodes"),
        "matrix.build_matrix.self_s": self_s("matrix.build_matrix"),
        "matrix.check_suites.s": under_matrix({"properties.run_check"}),
        "matrix.csp.s": under_matrix({"cspsearch.encode", "cspsearch.solve", "cspsearch.verify_model"}),
        "matrix.cells": attr("matrix.build_matrix", "cells"),
        "fileio.load_instance.self_s": self_s("fileio.load_instance"),
        "fileio.dump_canonical.self_s": self_s("fileio.dump_canonical"),
        "cli.main.self_s": self_s("cli.main"),
    }
    for name in checks + [f"cspsearch.{n}" for n in SPANS["cspsearch"]]:
        values[f"{name}.self_s"] = self_s(name)
    per_round = {name: value / rounds for name, value in values.items()}
    # means and ratios are not divided by the number of rounds
    per_round["model.compare.us"] = values["model.compare.us"]
    per_round["model.situation_key.us"] = values["model.situation_key.us"]
    per_round["scf.outcome.us"] = mean_us("scf.outcome")
    per_round["scf.outcome.useful_ratio"] = tracer.useful_total / outcome_calls if outcome_calls else 0.0
    per_round["properties.us_per_examined"] = check_time / examined * 1e6 if examined else 0.0
    return {name: per_round[name] for name, _, _ in LAYER_METRICS}
