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

``encode`` reads the situations, deviation groups and anonymity classes of
the shared ``SituationSpace`` (the one the checkers scan) and emits
integers: a domain is a bitmask over grid indices and an SP constraint names
its true peak by grid index. ``solve`` works on the same integers and reads
preferences from one table filled by the exact ``compare``, so Fractions
appear only at the boundary: in situation keys and in Sat models. Its
kernel reads tables: an arc revision is one lookup in a memo of supported
values filled from that table, and the smallest-domain variable is the top
of a lazy heap rather than the result of a scan.
"""

from __future__ import annotations

import heapq
import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .enumeration import AnonymityVariant, SituationSpace, situation_space
from .model import (
    BudgetExceededError,
    ConfigurationError,
    Instance,
    ReportedType,
    SituationKey,
    TreeChoiceError,
    VoterId,
    format_rational,
    preference_masks,
    situation_key,
)
from .properties import CHECK_ONLY, PROPERTY_TOKENS, CheckReport, parse_property, rule_table, run_check
from .scf import SocialChoiceFunction

_SEARCH_TOKENS = tuple(t for t in PROPERTY_TOKENS if t not in CHECK_ONLY)


class InconclusiveError(TreeChoiceError):
    """Search hit its time budget; carries statistics, never an Unsat claim."""

    def __init__(self, stats: dict) -> None:
        super().__init__(f"search inconclusive after {stats.get('nodes_explored', 0)} nodes")
        self.stats = stats


def normalize_properties(properties: Iterable[str]) -> tuple[str, ...]:
    """Validate and canonically order property tokens the search can encode."""
    seen: set[str] = set()
    vr: set[int] = set()
    for raw in properties:
        token = parse_property(raw)
        if token in CHECK_ONLY:
            raise ConfigurationError(
                f"property {raw!r} is check-only; search supports: {', '.join(_SEARCH_TOKENS)}, VR-<d>"
            )
        if token.startswith("VR-"):
            vr.add(int(token[3:]))
        else:
            seen.add(token)
    ordered = [t for t in _SEARCH_TOKENS if t in seen]
    ordered.extend(f"VR-{d}" for d in sorted(vr))
    return tuple(ordered)


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
    """

    instance: Instance
    properties: tuple[str, ...]
    options: CspOptions
    keys: tuple[SituationKey, ...]
    domains: list[int]
    equalities: tuple[tuple[int, int], ...]
    sp_constraints: tuple[tuple[int, int, int], ...]
    vr_constraints: tuple[VrConstraint, ...]

    @property
    def constraint_counts(self) -> dict[str, int]:
        return {
            "pareto_hull": len(self.keys) if "PE" in self.properties else 0,
            "depth1_hull": len(self.keys) if self.options.depth1_hull else 0,
            "anon_equality": len(self.equalities),
            "sp_preference": len(self.sp_constraints),
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
    verdict: str  # "sat" | "unsat"
    model: dict[SituationKey, Fraction] | None
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
            "stats": self.stats,
            "wall_time_s": self.wall_time_s,
        }


def model_to_json(model: Mapping[SituationKey, Fraction]) -> list[dict]:
    out = []
    for key in sorted(model):
        out.append(
            {
                "situation": [
                    {"voter": v, "peak": format_rational(p), "invited": list(inv)}
                    for v, p, inv in key
                ],
                "outcome": format_rational(model[key]),
            }
        )
    return out


def _situation_space(instance: Instance, options: CspOptions) -> SituationSpace:
    """The instance's shared situation space, within the variable budget."""
    space = situation_space(instance)
    if len(space.keys) > options.variable_budget:
        raise BudgetExceededError(len(space.keys), options.variable_budget, what="CSP variable")
    return space


def collect_situations(instance: Instance, options: CspOptions | None = None) -> tuple[SituationKey, ...]:
    """Every observable situation reachable from some legal report profile, sorted."""
    space = _situation_space(instance, options or CspOptions())
    return tuple(space.keys[sid] for sid in space.key_order())


def _hull_mask(space: SituationSpace, sid: int, members: list[int]) -> int:
    """The grid indices of ``space.hull(sid, members)``, as a bitmask."""
    lo, hi = space.hull(sid, members)
    return (1 << hi + 1) - (1 << lo)


def encode(instance: Instance, properties: Iterable[str], options: CspOptions | None = None) -> Csp:
    """Translate a property set into a finite CSP over situation variables.

    The variables are the situations of the shared space, numbered by
    ascending key. Domains are bitmasks over grid indices and an SP
    constraint ``(t, d, p)`` names the grid index ``p`` of the true peak;
    Fractions appear only in the keys.
    """
    options = options or CspOptions()
    props = normalize_properties(properties)
    graph = instance.graph
    points = len(instance.grid)

    space = _situation_space(instance, options)
    order = space.key_order()
    var = [0] * len(order)
    for i, sid in enumerate(order):
        var[sid] = i
    invitations = space.invitations
    direct = [k for k, v in enumerate(graph.voters) if v in graph.moderator_children]

    domains: list[int] = []
    for sid in order:
        mask = (1 << points) - 1
        if "PE" in props:
            mask &= _hull_mask(space, sid, space.participants(sid))
        if options.depth1_hull:
            mask &= _hull_mask(space, sid, direct)
        domains.append(mask)

    equalities: set[tuple[int, int]] = set()
    for token in props:
        if not token.startswith("AN"):
            continue
        for sid, classes in enumerate(space.classes(AnonymityVariant(token))):
            base = var[sid]
            for _, members in classes:
                for pair in itertools.combinations(members, 2):
                    a, b = space.peaks(sid, pair)
                    if a != b:
                        other = var[space.with_peaks(sid, pair, (b, a))]
                        equalities.add((min(base, other), max(base, other)))

    sp_mode = "full" if "SP" in props else ("diffusion" if "SP-D" in props else None)
    sp_constraints: dict[tuple[int, int, int], None] = {}  # insertion-ordered set
    vr_scope: set[VoterId] = set()
    for token in props:
        if token.startswith("VR-"):
            d = int(token[3:])
            vr_scope.update(v for v in graph.voters if 1 <= graph.true_depth(v) <= d)
    vr_constraints: list[VrConstraint] = []
    for k, voter in enumerate(graph.voters):
        if sp_mode is None and voter not in vr_scope:
            continue
        n = invitations[k]
        seen: set[tuple[int, ...]] = set()
        groups: dict[tuple[int, ...], None] = {}  # insertion-ordered set
        for _, group in space.deviation_groups(voter):
            sids = tuple(group)
            if sids in seen:  # contexts that differ only in non-participants
                continue
            seen.add(sids)
            rep_var = [var[sid] for sid in sids]
            if sp_mode is not None:
                # report p*n + m claims peak p and invites the children in mask m,
                # so p*n + n-1 is the truthful report of a voter whose peak is p
                for p in range(points):
                    var_t = rep_var[p * n + n - 1]
                    devs = rep_var if sp_mode == "full" else rep_var[p * n : (p + 1) * n]
                    for var_d in devs:
                        if var_d != var_t:
                            sp_constraints[var_t, var_d, p] = None
            if voter in vr_scope:
                members = tuple(sorted(set(rep_var)))
                if len(members) >= 2:
                    groups[members] = None
        if voter in vr_scope:
            vr_constraints.append(VrConstraint(voter, tuple(groups)))

    # the dict goes before the tuple is built, so at most two copies of the
    # triples are held at once
    sp_triples = sorted(sp_constraints)
    del sp_constraints
    return Csp(
        instance=instance,
        properties=props,
        options=options,
        keys=tuple(space.keys[sid] for sid in order),
        domains=domains,
        equalities=tuple(sorted(equalities)),
        sp_constraints=tuple(sp_triples),
        vr_constraints=tuple(vr_constraints),
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


def solve(csp: Csp, *, order_seed: int | None = None, timeout_s: float | None = None) -> CspResult:
    """Complete backtracking over the merged situation variables.

    Anonymity equalities are merged by union-find, unary hulls are already
    in the domains, arc consistency runs on the preference constraints, and
    the relevance disjunctions are checked lazily on complete assignments.
    The next variable has the smallest domain, ties to the earliest in a
    fixed tie-break order; value order is ascending grid. ``order_seed``
    shuffles the tie-break and value orders (the verdict must not depend on
    it); ``timeout_s`` bounds merging, arc consistency and search alike, and
    aborts with InconclusiveError.

    Inside, a value is its index on the grid and a domain is a bitmask of
    indices. The preference constraints read one table built from the exact
    ``compare`` (``preference_masks``, shared with ``check_sp``), so no
    verdict rests on anything coarser than Fractions; an AMBIGUOUS
    comparison counts as a violation, as in ``verify_model``'s replay. A Sat
    model is mapped back to grid Fractions.

    The kernel looks its answers up. An arc revision reads the supported
    values of one side from a per-peak memo keyed by the other side's
    domain (``_Supports``), and the next variable is the top of a lazy
    min-heap of (domain size, tie-break rank, variable): every domain change
    pushes an entry, stale entries are dropped when they surface, and the
    heap is rebuilt from the unassigned variables when it outgrows twice the
    merged variable count.
    ``stats["phase_s"]`` gives the seconds spent merging (with the table),
    in arc consistency and in search.
    """
    t0 = time.monotonic()
    grid = csp.instance.grid
    n = len(csp.keys)
    nodes = 0

    def check_deadline(progress: dict) -> None:
        if timeout_s is not None and time.monotonic() - t0 > timeout_s:
            raise InconclusiveError({**progress, "nodes_explored": nodes})

    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in csp.equalities:
        check_deadline({})
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    # a class is represented by its smallest variable, so reps ascend
    rep_of = [find(i) for i in range(n)]
    reps = [i for i in range(n) if rep_of[i] == i]
    dom = [(1 << len(grid)) - 1] * n
    for r, mask in zip(rep_of, csp.domains):
        dom[r] &= mask

    sp = sorted(
        dict.fromkeys((rep_of[t], rep_of[d], p) for t, d, p in csp.sp_constraints if rep_of[t] != rep_of[d])
    )
    vr: list[tuple[VoterId, tuple[tuple[int, ...], ...]]] = []
    vr_collapsed: VoterId | None = None
    for c in csp.vr_constraints:
        groups: list[tuple[int, ...]] = []
        seen: set[tuple[int, ...]] = set()
        for g in c.groups:
            rg = tuple(sorted({rep_of[v] for v in g}))
            if len(rg) >= 2 and rg not in seen:
                seen.add(rg)
                groups.append(rg)
        if not groups:
            vr_collapsed = c.voter
        vr.append((c.voter, tuple(groups)))

    forward, backward = preference_masks(grid, csp.instance.preference_model, True)
    support_fwd = [_Supports(row) for row in forward]
    support_bwd = [_Supports(row) for row in backward]
    cons_by_var: list[list[int]] = [[] for _ in range(n)]
    for ci, (t, d, p) in enumerate(sp):
        cons_by_var[t].append(ci)
        cons_by_var[d].append(ci)
    t_ac3 = time.monotonic()
    phase_s = {"merge": t_ac3 - t0, "ac3": 0.0, "search": 0.0}
    stats: dict = {
        "variables": n,
        "merged_variables": len(reps),
        "sp_constraints": len(sp),
        "anon_equalities": len(csp.equalities),
        "vr_constraints": len(vr),
        "ac3_prunes": 0,
        "order_seed": order_seed,
        "phase_s": phase_s,
    }

    def finish(verdict: str, model: dict[SituationKey, Fraction] | None, nodes: int) -> CspResult:
        stats["nodes_explored"] = nodes
        return CspResult(verdict, model, nodes, dict(stats), time.monotonic() - t0)

    if any(not dom[r] for r in reps):
        stats["refuted_by"] = "empty-domain"
        return finish("unsat", None, 0)
    if vr_collapsed is not None:
        # every deviation pair of this voter is forced equal by the equalities
        stats["refuted_by"] = f"relevance-collapsed:{vr_collapsed}"
        return finish("unsat", None, 0)

    # arc consistency to a fixpoint
    queue = list(range(len(sp)))
    queued = [True] * len(sp)
    while queue:
        check_deadline(stats)
        ci = queue.pop()
        queued[ci] = False
        t, d, p = sp[ci]
        dom_t, dom_d = dom[t], dom[d]
        keep_t = dom_t & support_fwd[p][dom_d]
        keep_d = dom_d & support_bwd[p][dom_t]
        if keep_t == dom_t and keep_d == dom_d:
            continue
        for var, old, keep in ((t, dom_t, keep_t), (d, dom_d, keep_d)):
            if keep != old:
                stats["ac3_prunes"] += old.bit_count() - keep.bit_count()
                dom[var] = keep
                if not keep:
                    stats["refuted_by"] = "arc-consistency"
                    phase_s["ac3"] = time.monotonic() - t_ac3
                    return finish("unsat", None, 0)
                for other in cons_by_var[var]:
                    if not queued[other]:
                        queued[other] = True
                        queue.append(other)
    t_search = time.monotonic()
    phase_s["ac3"] = t_search - t_ac3

    by_tie = reps
    value_order = list(range(len(grid)))
    if order_seed is not None:
        rng = random.Random(order_seed)
        by_tie = reps[:]
        rng.shuffle(by_tie)
        rng.shuffle(value_order)
    rank = [0] * n
    for i, r in enumerate(by_tie):
        rank[r] = i

    assignment: dict[int, int] = {}
    trail: list[tuple[int, int]] = []  # (variable, domain before a change), undone by depth
    # (domain size, rank, variable); an entry is live while its variable is
    # unassigned and its size is current, and every unassigned variable has one
    heap = [(dom[r].bit_count(), rank[r], r) for r in by_tie]
    heapq.heapify(heap)
    heap_limit = 2 * len(reps)

    def choose() -> int | None:
        # the smallest domain, ties to the earliest in by_tie
        if len(heap) > heap_limit:
            heap[:] = [(dom[r].bit_count(), rank[r], r) for r in by_tie if r not in assignment]
            heapq.heapify(heap)
        while heap:
            size, _, r = heap[0]
            if r not in assignment and dom[r].bit_count() == size:
                return r
            heapq.heappop(heap)
        return None

    def vr_satisfied() -> bool:
        for _, groups in vr:
            if not any(len({assignment[v] for v in g}) >= 2 for g in groups):
                return False
        return True

    def propagate(var: int, val: int) -> bool:
        for ci in cons_by_var[var]:
            t, d, p = sp[ci]
            if t == var:
                other, allowed = d, forward[p][val]
            else:
                other, allowed = t, backward[p][val]
            if other in assignment:
                # holds by forward checking from the earlier assignment; a guard
                if not allowed >> assignment[other] & 1:
                    return False
                continue
            keep = dom[other] & allowed
            if keep != dom[other]:
                trail.append((other, dom[other]))
                dom[other] = keep
                if not keep:
                    return False
                heapq.heappush(heap, (keep.bit_count(), rank[other], other))
        return True

    # depth-first search on an explicit stack: a frame is the variable, its
    # untried values in value order, and the trail length before it was set
    frames: list[tuple[int, Iterator[int], int]] = []
    sat = False
    while True:
        check_deadline(stats)
        var = choose()
        if var is None:
            if vr_satisfied():
                sat = True
                break
        else:
            mask = dom[var]
            frames.append((var, iter([k for k in value_order if mask >> k & 1]), len(trail)))
        while frames:  # the next value of the deepest open frame, backtracking
            var, values, mark = frames[-1]
            while len(trail) > mark:
                changed, saved = trail.pop()
                dom[changed] = saved
                heapq.heappush(heap, (saved.bit_count(), rank[changed], changed))
            assignment.pop(var, None)
            val = next(values, None)
            if val is None:
                frames.pop()
                continue
            nodes += 1
            assignment[var] = val
            trail.append((var, dom[var]))
            dom[var] = 1 << val
            if propagate(var, val):
                break
        else:
            break
    phase_s["search"] = time.monotonic() - t_search

    if sat:
        model = {key: grid[assignment[rep_of[i]]] for i, key in enumerate(csp.keys)}
        return finish("sat", model, nodes)
    return finish("unsat", None, nodes)


class TabulatedScf(SocialChoiceFunction):
    """An outcome rule given extensionally, as a situation-to-outcome table."""

    name = "tabulated"

    def __init__(self, table: Mapping[SituationKey, Fraction]) -> None:
        self.table = dict(table)

    def outcome(self, instance: Instance, reports: Mapping[VoterId, ReportedType]) -> Fraction:
        key = situation_key(instance.graph, reports)
        try:
            return self.table[key]
        except KeyError:
            raise ConfigurationError("table has no entry for a reachable situation") from None


def tabulate_scf(instance: Instance, scf: SocialChoiceFunction) -> dict[SituationKey, Fraction]:
    """Restrict a functional rule to this instance as an explicit table.

    This reads the checkers' table (``properties.rule_table``): the rule is
    evaluated on every profile, so a rule whose outcome depends on more than
    the observable situation (say, on a non-participant's report, or on a
    true peak) raises ConfigurationError.
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
    space = _situation_space(instance, CspOptions())
    missing = sum(1 for key in space.keys if key not in model)
    if missing:
        raise ConfigurationError(f"incomplete table: {missing} reachable situations unassigned")
    scf = TabulatedScf(model)
    return [run_check(scf, instance, token) for token in props]
