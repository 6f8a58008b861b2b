"""Shared helpers: canonical tree shapes and the small-instance family."""

from __future__ import annotations

import itertools
import string
from fractions import Fraction

import pytest

from treechoice import Instance, InvitationGraph
from treechoice.fileio import make_fig2, uniform_grid


def _signature(parents: tuple[int, ...]) -> tuple:
    """Isomorphism-invariant shape key: recursively sorted child signatures."""
    kids: dict[int, list[int]] = {k: [] for k in range(-1, len(parents))}
    for k, p in enumerate(parents):
        kids[p].append(k)

    def sig(node: int) -> tuple:
        return tuple(sorted(sig(c) for c in kids[node]))

    return sig(-1)


def graph_from_parents(parents: tuple[int, ...]) -> InvitationGraph:
    """parents[k] is the parent voter index of voter k; -1 means the moderator."""
    names = string.ascii_lowercase[: len(parents)]  # enumerating trees of over 26 voters is out of reach
    mc = frozenset(names[k] for k, p in enumerate(parents) if p == -1)
    children: dict[str, set[str]] = {name: set() for name in names}
    for k, p in enumerate(parents):
        if p >= 0:
            children[names[p]].add(names[k])
    return InvitationGraph(mc, {v: frozenset(c) for v, c in children.items()})


def tree_shapes(max_voters: int, max_depth: int) -> list[InvitationGraph]:
    """All rooted tree shapes up to isomorphism, one labeled representative each."""
    out: list[InvitationGraph] = []
    seen: set[tuple] = set()
    for n in range(1, max_voters + 1):
        choice_sets = [tuple(range(-1, k)) for k in range(n)]
        for parents in itertools.product(*choice_sets):
            depth: dict[int, int] = {}
            ok = True
            for k, p in enumerate(parents):
                depth[k] = 1 if p == -1 else depth[p] + 1
                if depth[k] > max_depth:
                    ok = False
                    break
            if not ok:
                continue
            key = (n, _signature(parents))
            if key in seen:
                continue
            seen.add(key)
            out.append(graph_from_parents(parents))
    return out


def instances_for(graph: InvitationGraph, grid: tuple[Fraction, ...]) -> list[Instance]:
    """Every true-peak assignment of this shape on the grid."""
    voters = graph.voters
    return [
        Instance(graph, dict(zip(voters, peaks)), grid)
        for peaks in itertools.product(grid, repeat=len(voters))
    ]


def small_family_instances(max_voters: int = 4, max_depth: int = 3) -> list[Instance]:
    grid = uniform_grid(3)
    out: list[Instance] = []
    for graph in tree_shapes(max_voters, max_depth):
        out.extend(instances_for(graph, grid))
    return out


def make_deep_demo() -> Instance:
    """The bundled two-branch demo extended with one depth-3 voter.

    Voter w hangs below u, so depths 1 and 2 behave like the demo while w
    carries zero weight under the depth-weighted rule.
    """
    base = make_fig2()
    graph = InvitationGraph(
        frozenset(["i", "j"]),
        {"i": frozenset(["u", "v"]), "u": frozenset(["w"])},
    )
    peaks = dict(base.true_peaks)
    peaks["w"] = Fraction(1, 2)
    return Instance(graph, peaks, base.grid)


def space_never_built(instance: Instance):
    """Stands in for ``SituationSpace`` where a budget must refuse before any space is built."""
    raise AssertionError("a situation space was built over the profile budget")


@pytest.fixture(scope="session")
def small_family() -> list[Instance]:
    return small_family_instances()


@pytest.fixture(scope="session")
def fig2_instance() -> Instance:
    return make_fig2()
