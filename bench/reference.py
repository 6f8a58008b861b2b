"""Print the reference figures quoted in bench/README.md.

    python3 bench/reference.py

Per-call costs of the hot functions (median of 5 timed loops), fig2's
encode and solve times together with the time ``solve`` spends before its
first search node, and the default matrix built with and without its thread
pool. Standard library only; it imports ``treechoice`` from this checkout.
"""

from __future__ import annotations

import statistics
import sys
import timeit
from fractions import Fraction
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from treechoice import (  # noqa: E402
    DepthWeightedMedian,
    DirectChildrenMedian,
    InconclusiveError,
    compare,
    encode,
    situation_key,
    solve,
)
from treechoice.fileio import make_fig2  # noqa: E402
from treechoice.matrix import build_matrix  # noqa: E402


def per_call_us(fn, number: int = 20_000) -> float:
    return statistics.median(timeit.repeat(fn, number=number, repeat=5)) / number * 1e6


def timed(fn) -> tuple[float, object]:
    t0 = perf_counter()
    value = fn()
    return perf_counter() - t0, value


def main() -> None:
    fig2 = make_fig2()
    reports = fig2.truthful_reports()
    peak, a, b = Fraction(3, 5), Fraction(1, 2), Fraction(9, 10)
    dwm, dm = DepthWeightedMedian(), DirectChildrenMedian()
    print(f"compare                 {per_call_us(lambda: compare(peak, a, b)):8.2f} us/call")
    print(f"situation_key (fig2)    {per_call_us(lambda: situation_key(fig2.graph, reports)):8.2f} us/call")
    print(f"depth-weighted outcome  {per_call_us(lambda: dwm.outcome(fig2, reports)):8.2f} us/call")
    print(f"direct-median outcome   {per_call_us(lambda: dm.outcome(fig2, reports)):8.2f} us/call")

    props = ["SP", "PE", "AN-SD", "VR-2"]
    encode_s, csp = timed(lambda: encode(fig2, props))
    solve_s, result = timed(lambda: solve(csp))
    t0 = perf_counter()
    try:  # the time limit is first tested when search starts, after AC-3
        solve(csp, timeout_s=0.0)
    except InconclusiveError:
        pass
    before_search_s = perf_counter() - t0
    print(f"fig2 {','.join(props)}: encode {encode_s:.2f} s, solve {solve_s:.2f} s "
          f"({result.verdict}, {result.nodes_explored} nodes), before first node {before_search_s:.2f} s")

    serial_s, _ = timed(lambda: build_matrix(parallel=False))
    threaded_s, _ = timed(lambda: build_matrix())
    print(f"default matrix: serial {serial_s:.2f} s, 4 threads {threaded_s:.2f} s")


if __name__ == "__main__":
    main()
