"""The arc-consistency kernel as it was before its star revisions became incremental.

``solve``, ``_Supports`` and ``_supported`` are kept here verbatim from the
solver that re-read every member of a star on each revision and guarded
forward checking against assigned variables. The differential test in
``test_cspsearch.py`` asks the package's ``solve`` for the same document:
verdict, model, node count, ``ac3_prunes`` (also where a wipe-out stops the
count) and ``refuted_by``, under several search orders. Its merge into SP
stars, where every star head kept its own set, is the helper
``dict_of_sets_stars``, which the star-order test reads too.
"""

from __future__ import annotations

import heapq
import random
import time
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from treechoice.cspsearch import Csp, CspResult, InconclusiveError
from treechoice.model import SituationKey, VoterId, preference_masks


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


def dict_of_sets_stars(
    sp_rows: Iterable[tuple[int, int, tuple[int, ...]]],
    rep_of: list[int],
    points: int,
    check: Callable[[dict], None] | None = None,
) -> list[tuple[int, int, tuple[int, ...]]]:
    """The SP stars as the solver built them when every head kept its own set.

    The loop is verbatim but for the deadline, which ``check({})`` sees per
    new deviation group. ``test_cspsearch.py`` asks the package's ``_stars``
    for the same stars, tuple for tuple: a star's member order is its set's
    iteration order, which fixes arc consistency's queue order.
    """
    # the merged SP constraints as stars (t, p, ds), ascending by (t, p): a
    # star is every merged (t, d, p) of one merged t and peak p. Each
    # distinct deviation group is mapped once, however many rows share it,
    # and a star's head t * points + p sorts as (t, p) does
    mapped: dict[tuple[int, ...], set[int]] = {}
    heads: dict[int, set[int]] = {}
    for t, p, ds in sp_rows:
        group = mapped.get(ds)
        if group is None:
            if check is not None:
                check({})
            group = mapped[ds] = {rep_of[d] for d in ds}
        head = rep_of[t] * points + p
        members = heads.get(head)
        if members is None:
            heads[head] = set(group)
        else:
            members |= group
    stars = []
    for head in sorted(heads):
        t, p = divmod(head, points)
        members = heads[head]
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
    once. Arc consistency revises a star whole, ``t`` against every ``d`` and
    every ``d`` against ``t``, from the domains as they were before the
    revision, and forward checking walks a star from whichever side was
    assigned; ``stats["sp_constraints"]`` counts the merged triples, the
    stars' sizes summed. Unary hulls are already in the domains, and the
    relevance disjunctions are checked lazily on complete assignments.
    The next variable has the smallest domain, ties to the earliest in a
    fixed tie-break order; value order is ascending grid. ``order_seed``
    shuffles the tie-break and value orders (the verdict must not depend on
    it); ``timeout_s`` bounds merging, arc consistency and search alike, and
    aborts with InconclusiveError. Without it the clock is read only to time
    the phases.

    Inside, a value is its index on the grid and a domain is a bitmask of
    indices. The preference constraints read one table built from the exact
    ``compare`` (``preference_masks``, shared with ``check_sp``), so no
    verdict rests on anything coarser than Fractions; an AMBIGUOUS
    comparison counts as a violation, as in ``verify_model``'s replay. A Sat
    model is mapped back to grid Fractions.

    The kernel looks its answers up. A star revision reads the supported
    values of each side from a per-peak memo keyed by the other side's
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
    dom = [(1 << points) - 1] * n
    for r, mask in zip(rep_of, csp.domains):
        dom[r] &= mask

    stars = dict_of_sets_stars(csp.sp_rows, rep_of, points, check_deadline if timed else None)
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

    # arc consistency to a fixpoint; a star is revised whole, every side
    # against the domains as they were before the revision
    queue = list(range(len(stars)))
    queued = [True] * len(stars)
    while queue:
        if timed:
            check_deadline(stats)
        si = queue.pop()
        queued[si] = False
        t, p, ds = stars[si]
        dom_t = keep_t = dom[t]
        fwd, keep_bwd = support_fwd[p], support_bwd[p][dom_t]
        changed = []
        for d in ds:
            dom_d = dom[d]
            keep_t &= fwd[dom_d]
            if dom_d & keep_bwd != dom_d:
                changed.append((d, dom_d, dom_d & keep_bwd))
        if keep_t != dom_t:
            # t's prunes count first, as they did when t led every triple; a
            # wipe-out stops the count
            changed.insert(0, (t, dom_t, keep_t))
        for var, old, keep in changed:
            stats["ac3_prunes"] += old.bit_count() - keep.bit_count()
            dom[var] = keep
            if not keep:
                stats["refuted_by"] = "arc-consistency"
                phase_s["ac3"] = time.monotonic() - t_ac3
                return finish("unsat", None, 0)
            for other in stars_by_var[var]:
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
        for si in stars_by_var[var]:
            t, p, ds = stars[si]
            if t == var:
                allowed = forward[p][val]
            else:
                ds, allowed = (t,), backward[p][val]
            for other in ds:
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
        if timed:
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
