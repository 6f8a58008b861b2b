"""Run one benchmark workload in this process and print its result as JSON.

    python3 bench/run.py --workload peak_sweep --seed 1 --seconds 25 --trace 0

Run from a checkout: the script puts the checkout's ``src`` first on the
import path and refuses to measure any other copy of ``treechoice``. It
uses only the standard library. Rounds of the workload repeat until the next
one would end past ``--seconds``; each round's outputs are checked after its
timed window. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. A traced
run also writes its spans to ``bench/out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 9
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["peak_sweep", "distinct_shapes", "search", "matrix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="only set up, then print the clock reading at the end of set-up",
    )
    return parser.parse_args(argv)


def import_program() -> None:
    """Import treechoice from this checkout's src, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import treechoice
    except ImportError as exc:
        sys.exit(f"cannot import treechoice from {SRC}: {exc}")
    if not Path(treechoice.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"treechoice was imported from {treechoice.__file__}, not from {SRC}")


def probe_setup(args: argparse.Namespace) -> float:
    """Seconds from starting a fresh interpreter to the end of its set-up."""
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe",
    ]
    started = perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1]) - started


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    workdir = OUT / f"tmp-{args.workload}-{os.getpid()}"
    try:
        inputs = workload.inputs(args.seed, 0, workdir)
        if args.setup_probe:
            print(repr(perf_counter()))
            return 0
        setup = [] if args.trace else [probe_setup(args) for _ in range(SETUP_PROBES)]
        tracer = tracing.Tracer()
        if args.trace:
            tracing.install(tracer)

        durations: list[float] = []
        attempted = failed = 0
        problems: list[str] = []
        started = None
        while True:
            if durations:
                inputs = workload.inputs(args.seed, len(durations), workdir)
            tracer.enabled = bool(args.trace)
            t0 = perf_counter()
            results, tried, lost = workload.run(inputs)
            t1 = perf_counter()
            tracer.enabled = False
            tracer.end_round()
            started = t0 if started is None else started
            durations.append(t1 - t0)
            attempted += tried
            failed += lost
            try:
                problems += workload.check(inputs, results)
            except (KeyError, TypeError, ValueError) as exc:  # malformed output fails the check
                problems.append(f"checking raised {exc!r}")
            del results
            if perf_counter() - started + statistics.median(durations) > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = tracing.layer_metrics(tracer, len(durations))
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
        write_trace(args, tracer, durations, values)
    else:
        values = {
            "wall_s": statistics.median(durations),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(
        f"{args.workload}: {len(durations)} rounds of {attempted // len(durations)} operations, "
        f"round times {[round(d, 3) for d in durations]}, {len(problems)} check failures",
        file=sys.stderr,
    )
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=2))
    print(json.dumps(result))
    return 0


def write_trace(args, tracer, durations, values) -> None:
    OUT.mkdir(exist_ok=True)
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "round_seconds": durations,
        "metrics": values,
        "hot_totals": {k: dict(zip(("calls", "items", "s", "self_s"), v)) for k, v in tracer.hot_totals().items()},
        "spans": [span.to_json() for span in tracer.spans],
    }
    with open(OUT / f"trace-{args.workload}-{args.seed}.json", "w") as handle:
        json.dump(document, handle)


if __name__ == "__main__":
    sys.exit(main())
