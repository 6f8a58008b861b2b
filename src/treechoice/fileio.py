"""Instance files, report files, and deterministic instance generators.

Rationals serialize as ``num/den`` strings, never floats, so files round-trip
exactly: parse, serialize, parse is the identity on canonical documents.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Mapping

from .model import (
    Instance,
    InvitationGraph,
    PreferenceModel,
    ReportedType,
    StructuralError,
    InstanceError,
    TreeChoiceError,
    VoterId,
    format_rational,
    parse_rational,
)

SCHEMA_VERSION = 1

# voter name pools for the generated shapes
_CHAIN_NAMES = ("i", "j", "u", "v", "w")
_STAR_NAMES = ("a", "b", "c", "d", "e", "f", "g", "h")


class InstanceFileError(TreeChoiceError):
    """Parse or validation failure, qualified by the JSON path at fault."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


def uniform_grid(points: int) -> tuple[Fraction, ...]:
    if points < 2:
        raise InstanceError("a grid needs at least the two endpoints")
    return tuple(Fraction(k, points - 1) for k in range(points))


def rational_at(path: str, text) -> Fraction:
    """A ``num/den`` string; anything else raises InstanceFileError at ``path``."""
    if not isinstance(text, str):
        raise InstanceFileError(path, f"expected a 'num/den' string, got {text!r}")
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise InstanceFileError(path, str(exc)) from exc


def object_at(path: str, data, fields: tuple[str, ...] = (), *, what: str = "a JSON object") -> Mapping:
    """A JSON object holding ``fields``; anything else raises InstanceFileError at the path at fault."""
    if not isinstance(data, Mapping):
        raise InstanceFileError(path, f"expected {what}")
    for field in fields:
        if field not in data:
            raise InstanceFileError(f"{path}.{field}", "missing required field")
    return data


def voter_ids_at(path: str, ids) -> frozenset[VoterId]:
    """A list of voter id strings; anything else raises InstanceFileError at ``path``."""
    if not isinstance(ids, list) or not all(isinstance(v, str) for v in ids):
        raise InstanceFileError(path, "expected a list of voter ids")
    return frozenset(ids)


def parse_instance(data: Mapping, *, source: str = "instance") -> Instance:
    """Build an Instance from a parsed JSON document."""
    object_at(source, data, ("moderator_children", "children", "peaks", "grid"))
    mc = voter_ids_at(f"{source}.moderator_children", data["moderator_children"])
    children_raw = object_at(f"{source}.children", data["children"], what="an object of id -> [ids]")
    children = {v: voter_ids_at(f"{source}.children.{v}", kids) for v, kids in children_raw.items()}
    try:
        graph = InvitationGraph(mc, children)
    except StructuralError as exc:
        raise InstanceFileError(f"{source}.children", str(exc)) from exc

    peaks_raw = object_at(f"{source}.peaks", data["peaks"], what="an object of id -> 'num/den'")
    peaks = {v: rational_at(f"{source}.peaks.{v}", q) for v, q in peaks_raw.items()}

    grid_raw = data["grid"]
    if not isinstance(grid_raw, list):
        raise InstanceFileError(f"{source}.grid", "expected a list of 'num/den' strings")
    grid = tuple(rational_at(f"{source}.grid[{i}]", q) for i, q in enumerate(grid_raw))

    model_raw = data.get("preference_model", "symmetric")
    try:
        model = PreferenceModel(model_raw)
    except ValueError:
        raise InstanceFileError(
            f"{source}.preference_model", f"expected 'symmetric' or 'robust', got {model_raw!r}"
        ) from None

    try:
        return Instance(graph, peaks, grid, model)
    except (InstanceError, StructuralError) as exc:
        raise InstanceFileError(source, str(exc)) from exc


def instance_to_dict(instance: Instance) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "moderator_children": sorted(instance.graph.moderator_children),
        "children": {v: sorted(instance.graph.true_children(v)) for v in instance.graph.voters},
        "peaks": {v: format_rational(instance.true_peaks[v]) for v in instance.graph.voters},
        "grid": [format_rational(q) for q in instance.grid],
        "preference_model": instance.preference_model.value,
    }


_encode_str = json.encoder.encode_basestring_ascii  # the C function, as json's own encoder uses


class _NonStrKey(Exception):
    """A dict key that is not a str: ``json`` spells and sorts those itself."""


def _render(value, newline: str, out: list[str]) -> None:
    """Append ``value``'s JSON to ``out`` as ``json.dumps(..., indent=2, sort_keys=True)`` spells it.

    ``newline`` is a line break and the indent of the line ``value`` starts
    on. Containers and strings are spelled here; any other leaf goes to
    ``json``'s C encoder, which spells numbers, bools and None, and raises
    on anything it cannot encode.
    """
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner, sep = newline + "  ", "{"
        for key in sorted(value):
            if not isinstance(key, str):
                raise _NonStrKey
            out += (sep, inner, _encode_str(key), ": ")
            _render(value[key], inner, out)
            sep = ","
        out += (newline, "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner, sep = newline + "  ", "["
        for item in value:
            out += (sep, inner)
            _render(item, inner, out)
            sep = ","
        out += (newline, "]")
    else:
        out.append(json.dumps(value))


def dump_canonical(data: dict) -> str:
    """``json.dumps(data, indent=2, sort_keys=True)`` and a newline, byte for byte.

    With an indent, ``json`` runs its pure-Python encoder, so the
    containers and strings are spelled here instead (``_render``). A dict
    with a key that is not a str sends the whole document back to
    ``json.dumps``, which converts and sorts such keys its own way.
    """
    out: list[str] = []
    try:
        _render(data, "\n", out)
    except _NonStrKey:
        return json.dumps(data, indent=2, sort_keys=True) + "\n"
    out.append("\n")
    return "".join(out)


def load_instance(path: str | Path) -> Instance:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InstanceFileError(str(path), str(exc)) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFileError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from exc
    return parse_instance(data, source=str(path))


def parse_reports(
    data: Mapping, instance: Instance, *, source: str = "reports"
) -> dict[VoterId, ReportedType]:
    """Report file: voters omitted from the document report truthfully."""
    if not isinstance(data, Mapping) or not isinstance(data.get("reports", {}), Mapping):
        raise InstanceFileError(source, "expected an object with a 'reports' object")
    out = instance.truthful_reports()
    for v, entry in data.get("reports", {}).items():
        if v not in out:
            raise InstanceFileError(f"{source}.reports.{v}", "unknown voter")
        object_at(f"{source}.reports.{v}", entry, what="an object with 'peak' and 'invited'")
        peak = rational_at(f"{source}.reports.{v}.peak", entry.get("peak"))
        invited = voter_ids_at(f"{source}.reports.{v}.invited", entry.get("invited", []))
        extra = invited - instance.graph.true_children(v)
        if extra:
            raise InstanceFileError(
                f"{source}.reports.{v}.invited", f"not children of {v!r}: {sorted(extra)}"
            )
        if peak not in instance.grid:
            raise InstanceFileError(f"{source}.reports.{v}.peak", "peak is not on the grid")
        out[v] = ReportedType(peak, invited)
    return out


def load_reports(path: str | Path, instance: Instance) -> dict[VoterId, ReportedType]:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise InstanceFileError(str(path), str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise InstanceFileError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from exc
    return parse_reports(data, instance, source=str(path))


def _cycle_peaks(grid: tuple[Fraction, ...], count: int) -> list[Fraction]:
    pattern = [grid[0], grid[-1], grid[len(grid) // 2]]
    return [pattern[k % len(pattern)] for k in range(count)]


def _chain_names(depth: int) -> list[str]:
    names = list(_CHAIN_NAMES[:depth])
    names.extend(f"v{k}" for k in range(len(names) + 1, depth + 1))
    return names


def make_chain(depth: int = 3, grid_points: int = 3) -> Instance:
    """A single line of voters hanging off the moderator."""
    if depth < 1:
        raise InstanceError("a chain needs at least one voter")
    names = _chain_names(depth)
    children = {names[k]: frozenset([names[k + 1]]) for k in range(depth - 1)}
    graph = InvitationGraph(frozenset([names[0]]), children)
    grid = uniform_grid(grid_points)
    peaks = dict(zip(names, _cycle_peaks(grid, depth)))
    return Instance(graph, peaks, grid)


def make_star(size: int = 3, grid_points: int = 3) -> Instance:
    """Every voter is a direct child of the moderator."""
    if size < 1:
        raise InstanceError("a star needs at least one voter")
    names = [
        _STAR_NAMES[k] if k < len(_STAR_NAMES) else f"v{k + 1}" for k in range(size)
    ]
    graph = InvitationGraph(frozenset(names), {})
    grid = uniform_grid(grid_points)
    peaks = dict(zip(names, _cycle_peaks(grid, size)))
    return Instance(graph, peaks, grid)


def make_fig2() -> Instance:
    """The bundled four-voter demo: two direct children, one with two children.

    Peaks are fixed so the three invitation levels of voter ``i`` produce
    three distinct weighted-median pictures; the grid is the smallest one
    containing the endpoints and all four peaks.
    """
    graph = InvitationGraph(frozenset(["i", "j"]), {"i": frozenset(["u", "v"])})
    peaks = {
        "j": Fraction(3, 10),
        "v": Fraction(1, 2),
        "i": Fraction(3, 5),
        "u": Fraction(9, 10),
    }
    grid = (
        Fraction(0),
        Fraction(3, 10),
        Fraction(1, 2),
        Fraction(3, 5),
        Fraction(9, 10),
        Fraction(1),
    )
    return Instance(graph, peaks, grid)


def make_two_children_one_grandchild(grid_points: int = 3) -> Instance:
    """Two direct children of the moderator; one of them has one child."""
    graph = InvitationGraph(frozenset(["a", "b"]), {"a": frozenset(["c"])})
    grid = uniform_grid(grid_points)
    peaks = dict(zip(["a", "b", "c"], _cycle_peaks(grid, 3)))
    return Instance(graph, peaks, grid)


def make_random(
    size: int = 3,
    max_depth: int = 2,
    grid_points: int = 3,
    seed: int = 0,
) -> Instance:
    """Seeded random tree and peaks; the same seed gives the same instance."""
    if size < 1:
        raise InstanceError("need at least one voter")
    if max_depth < 1:
        raise InstanceError("max depth must be at least 1")
    rng = random.Random(seed)
    grid = uniform_grid(grid_points)
    names = [f"v{k + 1}" for k in range(size)]
    depth_of: dict[str, int] = {}
    mc: list[str] = []
    children: dict[str, set[str]] = {v: set() for v in names}
    for k, name in enumerate(names):
        eligible = ["m"] + [v for v in names[:k] if depth_of[v] < max_depth]
        parent = "m" if k == 0 else rng.choice(eligible)
        if parent == "m":
            mc.append(name)
            depth_of[name] = 1
        else:
            children[parent].add(name)
            depth_of[name] = depth_of[parent] + 1
    graph = InvitationGraph(
        frozenset(mc), {v: frozenset(kids) for v, kids in children.items()}
    )
    peaks = {v: rng.choice(grid) for v in names}
    return Instance(graph, peaks, grid)


def generate(shape: str, *, depth: int = 3, size: int = 3, grid_points: int = 3, seed: int = 0) -> Instance:
    if shape == "chain":
        return make_chain(depth, grid_points)
    if shape == "star":
        return make_star(size, grid_points)
    if shape == "fig2":
        return make_fig2()
    if shape == "random":
        return make_random(size, depth, grid_points, seed)
    raise InstanceError(f"unknown shape {shape!r}; expected chain, star, fig2, or random")
