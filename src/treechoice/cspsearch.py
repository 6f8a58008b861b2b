"""Complete search for outcome rules satisfying a property set on one instance.

The unknown rule is a finite table: one variable per distinct observable
situation (participating set plus reported peaks and invitations), with the
grid as domain. Efficiency becomes a unary hull restriction, anonymity
becomes equalities between peak-permuted situations (merged up front),
incentive compatibility becomes binary weak-preference constraints between
truthful and deviated situations for every hypothetical true peak, and
relevance becomes a lazy at-least-one-pair-differs disjunction. Backtracking
with arc consistency then decides satisfiability completely: a Sat verdict
comes with a full table, an Unsat verdict means exhaustive refutation, and a
timeout is reported as inconclusive, never as Unsat.

This module holds only the encoder, the kernel and the replay. The property
grammar (``normalize_properties``) and ``InconclusiveError`` live in
``model``, and ``model_to_json`` in ``fileio``; they are imported here, so
they can still be imported from this module.

``encode`` assembles the CSP from blocks of the shared ``SituationSpace``
(the one the checkers scan), each built once per space and key, and emits
integers: a domain is a bitmask over grid indices, and the SP constraints
come as rows, one per deviation group and true peak, that name the peak by
grid index. ``solve`` maps each group through the anonymity merge once and
builds the stars one head at a time, one per merged truthful variable and
peak, that hold its merged deviations; no triple is spelled out between
``encode`` and arc consistency, and the merge's maps are released before it.
Each relevance group is mapped through the merge once, at the first complete
assignment, and kept only if distinct and spanning two merged variables.
``solve`` works on the same integers and reads preferences from one table
filled by the exact ``compare``, so Fractions appear only at the boundary:
in situation keys and in Sat models. Its kernel reads tables and revises
incrementally: an arc revision of a star reads its members, one lookup each
in a memo of supported values filled from that table, only on its first
revision and after its truthful variable's domain has changed, and the
smallest-domain variable is the top of a lazy heap rather than the result
of a scan.
"""

from __future__ import annotations

import heapq
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .enumeration import AnonymityVariant, SituationSpace, situation_space
from .fileio import model_to_json
from .model import (
    BudgetExceededError,
    ConfigurationError,
    InconclusiveError,
    Instance,
    ReportedType,
    SituationKey,
    SortedTable,
    VoterId,
    format_rational,
    normalize_properties,
    preference_masks,
    situation_key,
)
from .properties import CheckReport, rule_table, run_check
from .scf import SocialChoiceFunction


@dataclass(frozen=True)
class CspOptions:
    variable_budget: int = 20_000
    depth1_hull: bool = False


@dataclass(frozen=True)
class VrConstraint:
    """At least one group must contain two variables with different values."""

    voter: VoterId
    groups: tuple[tuple[int, ...], ...]


@dataclass
class Csp:
    """Variables are ``keys``; a domain is a bitmask over grid indices.

    An SP constraint ``(t, d, p)`` asks that a voter with true peak
    ``grid[p]`` weakly prefer variable ``t``'s outcome to variable ``d``'s.
    ``sp_rows`` holds them by deviation group: a row ``(t, p, ds)`` stands
    for ``(t, d, p)`` for each ``d`` of ``ds`` other than ``t``.
    ``sp_constraints`` spells the rows out, ascending. ``equalities`` are
    pairs ``(a, b)``, a < b, ascending: links that span each anonymity
    orbit, so their closure is the anonymity merge, not one pair per swap.
    """

    instance: Instance
    properties: tuple[str, ...]
    options: CspOptions
    keys: tuple[SituationKey, ...]
    domains: list[int]
    equalities: tuple[tuple[int, int], ...]
    sp_rows: tuple[tuple[int, int, tuple[int, ...]], ...]
    vr_constraints: tuple[VrConstraint, ...]

    @property
    def sp_constraints(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(sorted([(t, d, p) for t, p, ds in self.sp_rows for d in ds if d != t]))

    @property
    def constraint_counts(self) -> dict[str, int]:
        return {
            "pareto_hull": len(self.keys) if "PE" in self.properties else 0,
            "depth1_hull": len(self.keys) if self.options.depth1_hull else 0,
            "anon_equality": len(self.equalities),
            "sp_preference": sum(len(ds) - (t in ds) for t, _, ds in self.sp_rows),
            "vr_disjunction": len(self.vr_constraints),
        }

    def to_json(self) -> dict:
        sizes: dict[int, int] = {}
        for dom in self.domains:
            size = dom.bit_count()
            sizes[size] = sizes.get(size, 0) + 1
        return {
            "schema_version": 1,
            "variables": len(self.keys),
            "grid": [format_rational(q) for q in self.instance.grid],
            "properties": list(self.properties),
            "domain_sizes": {str(k): v for k, v in sorted(sizes.items())},
            "constraints": self.constraint_counts,
        }


@dataclass
class CspResult:
    """A search verdict, with its model when Sat.

    ``model`` is None unless the verdict is Sat. ``solve`` gives a Sat model
    as a read-only ``SortedTable`` from situation key to grid outcome that
    iterates in ascending key order, which is ``csp.keys`` order; its hash
    index is built only when a caller looks a key up. ``to_json`` returns a
    new document on every call: editing it, ``stats`` and ``phase_s``
    included, leaves the result as it was.
    """

    verdict: str  # "sat" | "unsat"
    model: SortedTable | None
    nodes_explored: int
    stats: dict
    wall_time_s: float

    @property
    def sat(self) -> bool:
        return self.verdict == "sat"

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "verdict": self.verdict,
            "model": None if self.model is None else model_to_json(self.model),
            "nodes_explored": self.nodes_explored,
            "stats": {k: dict(v) if isinstance(v, dict) else v for k, v in self.stats.items()},
            "wall_time_s": self.wall_time_s,
        }


def _situation_space(instance: Instance, options: CspOptions) -> SituationSpace:
    """The instance's shared situation space, within the variable budget."""
    space = situation_space(instance)
    if len(space.digits) > options.variable_budget:
        raise BudgetExceededError(len(space.digits), options.variable_budget, what="CSP variable")
    return space


def collect_situations(instance: Instance, options: CspOptions | None = None) -> tuple[SituationKey, ...]:
    """Every observable situation reachable from some legal report profile, sorted."""
    return _situation_space(instance, options or CspOptions()).variables()[1]


def encode(instance: Instance, properties: Iterable[str], options: CspOptions | None = None) -> Csp:
    """Translate a property set into a finite CSP over situation variables.

    The variables are the situations of the shared space, numbered by
    ascending key. Domains are bitmasks over grid indices and an SP row
    ``(t, p, ds)`` names the grid index ``p`` of the true peak; Fractions
    appear only in the keys.

    The encoding is assembled from blocks the space builds once per key
    (see ``SituationSpace``): the domains per PE and depth-1 hull, the
    equalities per anonymity variant, the SP rows per mode, one per
    deviation group and peak, and the relevance groups per voter. So every
    cell and search on one instance shares them; only ``domains`` is copied,
    since it is a list.
    """
    options = options or CspOptions()
    props = normalize_properties(properties)
    graph = instance.graph
    space = _situation_space(instance, options)
    blocks = [space.equalities(AnonymityVariant(token)) for token in props if token.startswith("AN")]
    sp_mode = "full" if "SP" in props else ("diffusion" if "SP-D" in props else None)
    depth = max([int(token[3:]) for token in props if token.startswith("VR-")], default=0)
    return Csp(
        instance=instance,
        properties=props,
        options=options,
        keys=space.variables()[1],
        domains=list(space.domains("PE" in props, options.depth1_hull)),
        equalities=blocks[0] if len(blocks) == 1 else tuple(sorted(set().union(*blocks))),
        sp_rows=() if sp_mode is None else space.sp_rows(sp_mode),
        vr_constraints=tuple(
            VrConstraint(v, space.relevance_groups(v)) for v in graph.voters if 1 <= graph.true_depth(v) <= depth
        ),
    )


def _supported(support: tuple[int, ...], other: int) -> int:
    """The values whose ``support`` mask meets the ``other`` domain."""
    keep = 0
    for k, allowed in enumerate(support):
        if allowed & other:
            keep |= 1 << k
    return keep


class _Supports(dict):
    """``self[other]`` is ``_supported(support, other)``, filled on first use.

    Over ``preference_masks(...)[0][p]`` it holds the truthful values that
    some deviation in ``other`` does not beat for a voter with peak ``p``;
    over the backward row, the deviations that some truthful value in
    ``other`` does not beat. An arc revision is then one lookup.
    """

    def __init__(self, support: tuple[int, ...]) -> None:
        super().__init__()
        self.support = support

    def __missing__(self, other: int) -> int:
        keep = self[other] = _supported(self.support, other)
        return keep


def _stars(sp_rows: Iterable[tuple], rep_of: list[int], points: int, check=None) -> list[tuple]:
    """The merged SP constraints as stars ``(t, p, ds)``, ascending by ``(t, p)``.

    A star is every merged ``(t, d, p)`` of one merged ``t`` and peak index
    ``p``; ``ds`` excludes ``t`` and an empty star is left out. Each
    distinct deviation group is mapped to its merged set once, however many
    rows share it, and a head ``t * points + p``, which sorts as ``(t, p)``
    does, records only its rows' groups. The stars are then built one head
    at a time: the first group's set copied, the rest OR-ed in row by row,
    ``t`` discarded. Those are the same set operations in the same order
    as when every head kept its own set, so a star's members iterate in the
    same order, which fixes arc consistency's queue order. ``check({})`` is
    called per new group and per head, to see a deadline.
    """
    mapped: dict[tuple[int, ...], set[int]] = {}
    heads: dict[int, tuple[int, ...]] = {}  # a head's first group
    more: dict[int, list] = {}  # the groups of its later rows, if any
    for t, p, ds in sp_rows:
        if ds not in mapped:
            if check:
                check({})
            mapped[ds] = {rep_of[d] for d in ds}
        head = rep_of[t] * points + p
        if head in heads:
            more.setdefault(head, []).append(ds)
        else:
            heads[head] = ds
    stars = []
    for head in sorted(heads):
        if check:
            check({})
        t, p = divmod(head, points)
        members = set(mapped[heads[head]])
        for ds in more.get(head, ()):
            members |= mapped[ds]
        members.discard(t)
        if members:
            stars.append((t, p, tuple(members)))
    return stars


def solve(csp: Csp, *, order_seed: int | None = None, timeout_s: float | None = None) -> CspResult:
    """Complete backtracking over the merged situation variables.

    Anonymity equalities are merged by union-find, and each distinct
    deviation group of the SP rows is mapped to the merged variables once.
    The rows are then folded into stars ``(t, p, ds)``, ascending by
    ``(t, p)``: one per merged truthful variable ``t`` and peak index ``p``,
    whose ``ds`` are the merged deviation variables other than ``t``, each
    once. ``_stars`` builds them one head at a time from the groups each
    head recorded, so one head's set is alive at a time, and its maps are
    gone before arc consistency. Arc consistency revises a star whole, ``t``
    against every ``d`` and every ``d`` against ``t``, from the domains as
    they were before the revision (the prunes are counted ``t`` first, then
    the ``ds`` in order), and forward checking walks a star from whichever
    side was assigned; ``stats["sp_constraints"]`` counts the merged
    triples, the stars' sizes summed. Unary hulls are already in the
    domains. A relevance disjunction none of whose groups spans two merged
    classes refutes at once (``relevance-collapsed``, naming the last such
    voter); otherwise the disjunctions are checked lazily on complete
    assignments. At the first, each group is mapped to its variables'
    representatives, and only the distinct groups that span two of them are
    kept, to be read at every later one.
    The next variable has the smallest domain, ties to the earliest in a
    fixed tie-break order; value order is ascending grid. ``order_seed``
    shuffles the tie-break and value orders (the verdict must not depend on
    it); ``timeout_s`` bounds merging (checked per link, per new deviation
    group and per star head), arc consistency and search alike, and aborts
    with InconclusiveError. Without it the clock is read only to time
    the phases.

    Inside, a value is its index on the grid and a domain is a bitmask of
    indices. The preference constraints read one table built from the exact
    ``compare`` (``preference_masks``, shared with ``check_sp``), so no
    verdict rests on anything coarser than Fractions; an AMBIGUOUS
    comparison counts as a violation, as in ``verify_model``'s replay. A Sat
    model is mapped back to grid Fractions, as a read-only ``SortedTable``
    over ``csp.keys``: the outcomes are a tuple indexed like the keys, it
    iterates in ascending key order, and it hashes the keys only when a
    caller looks one up.

    The kernel looks its answers up. The supported values of each side of a
    star come from a per-peak memo keyed by the other side's domain
    (``_Supports``). A star keeps the AND of its members' forward supports,
    narrowed as each member's domain shrinks, so ``t`` is revised by one AND;
    the members are re-read against ``t``'s backward support only on the
    star's first revision and when ``t``'s domain has changed since the
    last, as a member revised against a domain of ``t`` stays inside its
    support while domains only shrink. The next variable is the top of a lazy
    min-heap of domain size and tie-break rank: every domain change pushes
    an entry, stale entries are dropped when they surface, and the heap is
    rebuilt from the unassigned variables when it outgrows twice the merged
    variable count.

    The hot loops hold ints, not tuples, so they give the cyclic collector
    no containers to count. A heap entry is ``size * width + rank``, with
    ``width`` the merged variable count, so it sorts as (size, rank) does; a
    trail entry is ``var << points | saved``; the DFS stack is three int
    lists (the variable, the next position in ``value_order`` and the trail
    mark); and AC-3 writes a revision's changes as int codes ``var << points
    | keep`` into one reused list.
    ``stats["phase_s"]`` gives the seconds spent merging (with the table),
    in arc consistency and in search.
    """
    t0 = time.monotonic()
    grid = csp.instance.grid
    points = len(grid)
    n = len(csp.keys)
    nodes = 0
    timed = timeout_s is not None

    def check_deadline(progress: dict) -> None:
        if time.monotonic() - t0 > timeout_s:
            raise InconclusiveError({**progress, "nodes_explored": nodes})

    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in csp.equalities:
        if timed:
            check_deadline({})
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    # a class is represented by its smallest variable, so reps ascend
    rep_of = [find(i) for i in range(n)]
    reps = [i for i in range(n) if rep_of[i] == i]
    full = (1 << points) - 1
    dom = [full] * n
    for r, mask in zip(rep_of, csp.domains):
        dom[r] &= mask

    stars = _stars(csp.sp_rows, rep_of, points, check_deadline if timed else None)
    # a voter's relevance is collapsed when no group of it spans two classes;
    # the groups themselves are mapped through rep_of at the first leaf
    vr_collapsed: VoterId | None = None
    for c in csp.vr_constraints:
        if not any(rep_of[v] != rep_of[g[0]] for g in c.groups for v in g):
            vr_collapsed = c.voter

    forward, backward = preference_masks(grid, csp.instance.preference_model, True)
    support_fwd = [_Supports(row) for row in forward]
    support_bwd = [_Supports(row) for row in backward]
    stars_by_var: list[list[int]] = [[] for _ in range(n)]
    for si, (t, _, ds) in enumerate(stars):
        stars_by_var[t].append(si)
        for d in ds:
            stars_by_var[d].append(si)
    t_ac3 = time.monotonic()
    phase_s = {"merge": t_ac3 - t0, "ac3": 0.0, "search": 0.0}
    stats: dict = {
        "variables": n,
        "merged_variables": len(reps),
        "sp_constraints": sum(len(ds) for _, _, ds in stars),
        "anon_equalities": len(csp.equalities),
        "vr_constraints": len(csp.vr_constraints),
        "ac3_prunes": 0,
        "order_seed": order_seed,
        "phase_s": phase_s,
    }

    def finish(verdict: str, model: SortedTable | None, nodes: int) -> CspResult:
        stats["nodes_explored"] = nodes
        return CspResult(verdict, model, nodes, dict(stats), time.monotonic() - t0)

    if any(not dom[r] for r in reps):
        stats["refuted_by"] = "empty-domain"
        return finish("unsat", None, 0)
    if vr_collapsed is not None:
        # every deviation pair of this voter is forced equal by the equalities
        stats["refuted_by"] = f"relevance-collapsed:{vr_collapsed}"
        return finish("unsat", None, 0)

    # arc consistency to a fixpoint. A revision of star si prunes what
    # revising t against every d and every d against t would, from the
    # domains as they were before it, without re-reading every member:
    # fsup[si] is the AND of the members' forward supports, read at the
    # star's first revision and narrowed whenever a member shrinks (a support
    # only shrinks with its domain), and seen[si] is t's domain when the
    # members were last revised against it, 0 before that; while t keeps
    # that domain, every member stays inside its backward support. A
    # revision's changes are int codes var << points | new domain, in one
    # list reused by every revision; a var's old domain is still in dom
    # when its change is applied, since a star holds each var once
    queue = list(range(len(stars)))
    queued = [True] * len(stars)
    fsup = [full] * len(stars)
    seen = [0] * len(stars)
    changed: list[int] = []
    while queue:
        if timed:
            check_deadline(stats)
        si = queue.pop()
        queued[si] = False
        t, p, ds = stars[si]
        dom_t = dom[t]
        changed.clear()
        if seen[si] != dom_t:
            fwd, keep_bwd = support_fwd[p], support_bwd[p][dom_t]
            first = not seen[si]
            seen[si] = dom_t
            for d in ds:
                dom_d = dom[d]
                if first:
                    fsup[si] &= fwd[dom_d]
                if dom_d & keep_bwd != dom_d:
                    changed.append(d << points | dom_d & keep_bwd)
        keep_t = dom_t & fsup[si]
        if keep_t != dom_t:
            # t's prunes count first, as they did when t led every triple; a
            # wipe-out stops the count
            changed.insert(0, t << points | keep_t)
        for code in changed:
            var, keep = code >> points, code & full
            stats["ac3_prunes"] += dom[var].bit_count() - keep.bit_count()
            dom[var] = keep
            if not keep:
                stats["refuted_by"] = "arc-consistency"
                phase_s["ac3"] = time.monotonic() - t_ac3
                return finish("unsat", None, 0)
            for other in stars_by_var[var]:
                head, q, _ = stars[other]
                if head != var:
                    fsup[other] &= support_fwd[q][keep]
                if not queued[other]:
                    queued[other] = True
                    queue.append(other)
    t_search = time.monotonic()
    phase_s["ac3"] = t_search - t_ac3

    by_tie = reps
    value_order = list(range(points))
    if order_seed is not None:
        rng = random.Random(order_seed)
        by_tie = reps[:]
        rng.shuffle(by_tie)
        rng.shuffle(value_order)
    rank = [0] * n
    for i, r in enumerate(by_tie):
        rank[r] = i

    assignment: dict[int, int] = {}
    trail: list[int] = []  # variable << points | its domain before a change, undone by depth
    # domain size * width + rank, which sorts as (size, rank); an entry is live
    # while its variable by_tie[rank] is unassigned and its size is current,
    # and every unassigned variable has one
    width = len(reps)
    heap = [dom[r].bit_count() * width + i for i, r in enumerate(by_tie)]
    heapq.heapify(heap)

    def choose() -> int | None:
        # the smallest domain, ties to the earliest in by_tie
        if len(heap) > 2 * width:
            heap[:] = [dom[r].bit_count() * width + rank[r] for r in by_tie if r not in assignment]
            heapq.heapify(heap)
        while heap:
            r = by_tie[heap[0] % width]
            if r not in assignment and dom[r].bit_count() == heap[0] // width:
                return r
            heapq.heappop(heap)
        return None

    vr_groups = None  # per disjunction, its distinct groups as sets of two or more representatives

    def vr_satisfied() -> bool:
        nonlocal vr_groups
        if vr_groups is None:
            vr_groups = [
                [g for g in dict.fromkeys(frozenset([rep_of[v] for v in g]) for g in c.groups) if len(g) >= 2]
                for c in csp.vr_constraints
            ]
        return all(any(len({assignment[r] for r in g}) >= 2 for g in groups) for groups in vr_groups)

    def propagate(var: int, val: int) -> bool:
        for si in stars_by_var[var]:
            t, p, ds = stars[si]
            if t == var:
                allowed = forward[p][val]
            else:
                # a 1-tuple comes off the interpreter's free list and goes back
                # to it, so unlike a tuple kept per star it sets off no collection
                ds, allowed = (t,), backward[p][val]
            # an assigned other's domain is the singleton of its value, which
            # forward checking from that assignment allowed: the AND keeps it
            for other in ds:
                keep = dom[other] & allowed
                if keep != dom[other]:
                    trail.append(other << points | dom[other])
                    dom[other] = keep
                    if not keep:
                        return False
                    heapq.heappush(heap, keep.bit_count() * width + rank[other])
        return True

    # depth-first search on an explicit stack of three int lists, one entry
    # per open frame: its variable, the next position in value_order to try,
    # and the trail length before it was set. Undoing the trail to that mark
    # gives the variable back the domain its frame opened with
    frame_vars: list[int] = []
    frame_pos: list[int] = []
    marks: list[int] = []
    sat = False
    while True:
        if timed:
            check_deadline(stats)
        var = choose()
        if var is None:
            if vr_satisfied():
                sat = True
                break
        else:
            frame_vars.append(var)
            frame_pos.append(0)
            marks.append(len(trail))
        while frame_vars:  # the next value of the deepest open frame, backtracking
            var, mark = frame_vars[-1], marks[-1]
            while len(trail) > mark:
                code = trail.pop()
                undone, saved = code >> points, code & full
                dom[undone] = saved
                heapq.heappush(heap, saved.bit_count() * width + rank[undone])
            assignment.pop(var, None)
            mask, pos = dom[var], frame_pos[-1]
            while pos < points and not mask >> value_order[pos] & 1:
                pos += 1
            if pos == points:
                frame_vars.pop()
                frame_pos.pop()
                marks.pop()
                continue
            frame_pos[-1] = pos + 1
            val = value_order[pos]
            nodes += 1
            assignment[var] = val
            trail.append(var << points | dom[var])
            dom[var] = 1 << val
            if propagate(var, val):
                break
        else:
            break
    phase_s["search"] = time.monotonic() - t_search

    if sat:
        return finish("sat", SortedTable(csp.keys, tuple([grid[assignment[r]] for r in rep_of])), nodes)
    return finish("unsat", None, nodes)


class TabulatedScf(SocialChoiceFunction):
    """An outcome rule given extensionally, as a situation-to-outcome table."""

    name = "tabulated"

    def __init__(self, table: Mapping[SituationKey, Fraction]) -> None:
        self.table = dict(table.items())  # a SortedTable's keys are hashed once, here

    def outcome(self, instance: Instance, reports: Mapping[VoterId, ReportedType]) -> Fraction:
        key = situation_key(instance.graph, reports)
        try:
            return self.table[key]
        except KeyError:
            raise ConfigurationError("table has no entry for a reachable situation") from None


def tabulate_scf(instance: Instance, scf: SocialChoiceFunction) -> dict[SituationKey, Fraction]:
    """Restrict a functional rule to this instance as an explicit table.

    This reads the checkers' table (``properties.rule_table``): the rule is
    evaluated once per situation, and on every profile of a situation where
    it read a non-participant's report, so a rule whose outcome depends on
    more than the observable situation (say, on a non-participant's report,
    or on a true peak) raises ConfigurationError.
    """
    space, table = rule_table(scf, instance)
    return {key: table.values[k] for key, k in zip(space.keys, table.outcomes)}


def verify_model(
    instance: Instance,
    model: Mapping[SituationKey, Fraction],
    properties: Iterable[str],
) -> list[CheckReport]:
    """Replay a table through the property checkers; Sat models must pass all."""
    props = normalize_properties(properties)
    space = situation_space(instance)
    scf = TabulatedScf(model)
    missing = sum(1 for key in space.keys if key not in scf.table)
    if missing:
        raise ConfigurationError(f"incomplete table: {missing} reachable situations unassigned")
    return [run_check(scf, instance, token) for token in props]
