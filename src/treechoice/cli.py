"""Command-line surface: evaluate, check, matrix, gen, search-csp.

Exit codes are a stable contract: 0 pass/sat, 2 fail/unsat where existence
was asked, 3 budget or time limit, 1 usage or validation errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .cspsearch import CspOptions, encode, solve
from .enumeration import DEFAULT_PROFILE_BUDGET
from .fileio import dump_canonical, generate, instance_to_dict, load_instance, load_reports
from .matrix import build_matrix
from .model import (
    PROPERTY_TOKENS,
    BudgetExceededError,
    InconclusiveError,
    TreeChoiceError,
    format_rational,
    reported_depths,
)
from .properties import run_check
from .scf import parse_scf

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # keep usage errors at exit code 1
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _non_negative(kind: type):
    """An argparse type: ``kind`` of the text, refused below 0 (and as NaN); 0 stays legal."""

    def parse(text: str):
        value = kind(text)
        if not value >= 0:
            raise argparse.ArgumentTypeError(f"must be a non-negative {kind.__name__}, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value: ..."
    return parse


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit(document: dict, out: str | None) -> None:
    _write(dump_canonical(document), out)


def cmd_evaluate(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    scf = parse_scf(args.scf)
    reports = load_reports(args.reports, instance) if args.reports else instance.truthful_reports()
    outcome = scf.outcome(instance, reports)
    depths = reported_depths(instance.graph, reports)
    weights = scf.weights(instance, reports)
    _emit(
        {
            "schema_version": 1,
            "scf": scf.name,
            "outcome": format_rational(outcome),
            "participating": sorted(depths),
            "depths": depths,
            "weights": weights,
        },
        args.out,
    )
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    scf = parse_scf(args.scf)
    report = run_check(
        scf,
        instance,
        args.property,
        budget=args.budget,
        ambiguous_is_violation=not args.ambiguous_ok,
    )
    _emit(report.to_json(), args.out)
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_matrix(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance) if args.instance else None
    report = build_matrix(instance, timeout_s=args.timeout)
    if args.format == "markdown":
        _write(report["markdown"] + "\n", args.out)
    else:
        _emit(report, args.out)
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    instance = generate(
        args.shape, depth=args.depth, size=args.size, grid_points=args.grid, seed=args.seed
    )
    _emit(instance_to_dict(instance), args.out)
    return EXIT_OK


def cmd_search_csp(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    properties = [p for p in args.properties.split(",") if p.strip()]
    options = CspOptions(variable_budget=args.variable_budget, depth1_hull=args.depth1_hull)
    csp = encode(instance, properties, options)
    result = solve(csp, order_seed=args.order_seed, timeout_s=args.timeout)
    _emit({"csp": csp.to_json(), "result": result.to_json()}, args.out)
    return EXIT_OK if result.sat else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="treechoice", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="run one outcome rule on one report profile")
    p.add_argument("--scf", required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--reports", help="report file; omitted voters report truthfully")
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("check", help="exhaustively check one property of one rule")
    p.add_argument("--scf", required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--property", required=True, help=f"{', '.join(PROPERTY_TOKENS)}, VR-<d>")
    p.add_argument("--budget", type=_non_negative(int), default=DEFAULT_PROFILE_BUDGET)
    p.add_argument("--ambiguous-ok", action="store_true", help="do not count ambiguous comparisons as violations")
    p.add_argument("--out")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("matrix", help="existence matrix with evidence artifacts")
    p.add_argument("--instance", help="run all cells on this instance instead of the bundled ones")
    p.add_argument("--timeout", type=_non_negative(float), help="per-cell search time limit in seconds")
    p.add_argument("--format", choices=["json", "markdown"], default="json")
    p.add_argument("--out", help="write the JSON or markdown to this file instead of stdout")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("gen", help="generate a deterministic instance file")
    p.add_argument("--shape", required=True, choices=["chain", "star", "fig2", "random"])
    p.add_argument("--depth", type=int, default=3, help="chain length / random max depth")
    p.add_argument("--size", type=int, default=3, help="voter count for star and random")
    p.add_argument("--grid", type=int, default=3, help="number of uniform grid points")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("search-csp", help="complete search for a rule satisfying a property set")
    p.add_argument("--instance", required=True)
    p.add_argument("--properties", required=True, help="comma-separated, e.g. SP,PE,AN-S")
    p.add_argument("--depth1-hull", action="store_true", help="add the implied depth-1 hull restriction")
    p.add_argument("--order-seed", type=int)
    p.add_argument("--timeout", type=_non_negative(float))
    p.add_argument("--variable-budget", type=_non_negative(int), default=CspOptions().variable_budget)
    p.add_argument("--out")
    p.set_defaults(func=cmd_search_csp)

    return parser


# parse_args fills a new namespace and leaves the parser as it was, so one
# process builds the parser once, on its first call, and reuses it
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (BudgetExceededError, InconclusiveError) as exc:
        sys.stderr.write(dump_canonical({"error": str(exc), "kind": "budget"}))
        return EXIT_BUDGET
    except TreeChoiceError as exc:
        sys.stderr.write(dump_canonical({"error": str(exc), "kind": type(exc).__name__}))
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
