"""Command-line front end.

Subcommands: eval (reduce a file to weak head or full normal form),
convert (between surface and ordered text formats), check (run the
one-step machine while verifying its per-step obligations), bench
(compare strategies on synthetic workloads), gen (emit a corpus of
random terms). eval and bench share bench's strategy table; eval's
"ordered" strategy with --env list|tree is bench's ordered-list or
ordered-tree.

Exit codes: 0 success; 1 malformed input; 2 fuel exhausted; 3 internal
invariant breach (including benchmark digest mismatches and failed
check obligations); 4 ordered input that is not a valid closed term.

The ORDLAM_FUEL environment variable overrides the default fuel; an
explicit --fuel flag wins over both. All commands run on a large-stack
worker thread so deeply nested terms are safe to process.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import bench, machine
from .deep import run_deep
from .envseq import ListEnv
from .errors import InvariantError
from .gen import gen_terms
from .machine import Fuel, Pending, machine_trace, print_expr, step, weight
from .named import (
    FuelExhausted,
    ParseError,
    alpha_eq,
    parse_surface,
    print_surface,
    reduce_once_all,
)
from .ordered import (
    OrderedSyntaxError,
    is_ordered,
    parse_closed,
    read_ordered,
    write_ordered,
)

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_FUEL = 2
EXIT_INVARIANT = 3
EXIT_NOT_ORDERED = 4

DEFAULT_FUEL = machine.DEFAULT_FUEL


def _resolve_fuel(flag_value) -> int:
    if flag_value is not None:
        return flag_value
    env_value = os.environ.get("ORDLAM_FUEL")
    if env_value is not None:
        try:
            fuel = int(env_value)
        except ValueError:
            raise SystemExit(f"ORDLAM_FUEL is not an integer: {env_value!r}")
        if fuel < 1:
            raise SystemExit("ORDLAM_FUEL must be positive")
        return fuel
    return DEFAULT_FUEL


def _read_file(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _parse_file(path: str):
    try:
        return parse_surface(_read_file(path))
    except ParseError as exc:
        print(f"{path}:{exc}", file=sys.stderr)
        return None


def cmd_eval(args) -> int:
    term = _parse_file(args.file)
    if term is None:
        return EXIT_BAD_INPUT
    name = f"ordered-{args.env}" if args.strategy == "ordered" else args.strategy
    strategy = bench.STRATEGIES[name]
    fuel = Fuel(_resolve_fuel(args.fuel))
    result = strategy.whnf(term, fuel)
    if not isinstance(result, FuelExhausted):
        if args.print == "nf":
            result = strategy.readback(result, fuel, term.free_names)
        else:
            result = strategy.print_value(result)
    if isinstance(result, FuelExhausted):
        print(f"fuel exhausted after {result.spent} steps", file=sys.stderr)
        return EXIT_FUEL
    print(print_surface(result))
    return EXIT_OK


def cmd_convert(args) -> int:
    if args.to == "ordered":
        term = _parse_file(args.file)
        if term is None:
            return EXIT_BAD_INPUT
        print(write_ordered(parse_closed(term)))
        return EXIT_OK
    try:
        ordered = read_ordered(_read_file(args.file))
    except OrderedSyntaxError as exc:
        print(f"{args.file}: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if not is_ordered(ordered):
        print(f"{args.file}: not a valid ordered term", file=sys.stderr)
        return EXIT_NOT_ORDERED
    if ordered.fv != 0:
        print(
            f"{args.file}: term has {ordered.fv} unbound dots, cannot print",
            file=sys.stderr,
        )
        return EXIT_NOT_ORDERED
    print(print_surface(machine.print_ordered(ordered, [])))
    return EXIT_OK


def cmd_check(args) -> int:
    term = _parse_file(args.file)
    if term is None:
        return EXIT_BAD_INPUT
    fuel = Fuel(_resolve_fuel(args.fuel))
    expr = Pending(parse_closed(term), ListEnv.empty())

    preserved = weight_ok = single_beta = 0
    total_beta = total_non_beta = steps = 0
    failures = []
    printed = print_expr(expr)
    measure = weight(expr)
    last = expr
    for _, after, rule in machine_trace(expr, fuel):
        steps += 1
        printed_after = print_expr(after)
        weight_after = weight(after)
        if rule == machine.RULE_BETA:
            total_beta += 1
            if any(alpha_eq(printed_after, c) for c in reduce_once_all(printed)):
                single_beta += 1
            else:
                failures.append(f"step {steps} ({rule}): not a single reduction")
        else:
            total_non_beta += 1
            if alpha_eq(printed, printed_after):
                preserved += 1
            else:
                failures.append(f"step {steps} ({rule}): printed term changed")
            if weight_after > measure:
                weight_ok += 1
            else:
                failures.append(f"step {steps} ({rule}): weight did not increase")
        printed = printed_after
        measure = weight_after
        last = after

    exhausted = step(last) is not None

    def verdict(ok_count, total):
        return "PASS" if ok_count == total else "FAIL"

    print(f"steps: {steps}")
    print(
        f"non-beta steps preserve printed term: "
        f"{verdict(preserved, total_non_beta)} ({preserved}/{total_non_beta})"
    )
    print(
        f"beta steps take exactly one reduction: "
        f"{verdict(single_beta, total_beta)} ({single_beta}/{total_beta})"
    )
    print(
        f"weight strictly increases on non-beta steps: "
        f"{verdict(weight_ok, total_non_beta)} ({weight_ok}/{total_non_beta})"
    )
    if exhausted:
        print(f"fuel exhausted after {steps} steps")
    else:
        print(f"final: {print_surface(print_expr(last))}")
    overall = "PASS" if not failures else "FAIL"
    print(f"RESULT: {overall}")
    for failure in failures:
        print(failure, file=sys.stderr)
    if failures:
        return EXIT_INVARIANT
    if exhausted:
        return EXIT_FUEL
    return EXIT_OK


def cmd_bench(args) -> int:
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    for strategy in strategies:
        if strategy not in bench.STRATEGIES:
            print(f"unknown strategy {strategy!r}", file=sys.stderr)
            return EXIT_BAD_INPUT
    fuel = _resolve_fuel(args.fuel)
    try:
        records = bench.run_comparison(
            args.workload, args.size, strategies, fuel, args.reps
        )
    except bench.DigestMismatch as exc:
        print(f"refusing to emit records: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    base = Path(args.out)
    if base.suffix in (".csv", ".json"):
        base = base.with_suffix("")
    base.parent.mkdir(parents=True, exist_ok=True)
    csv_path = base.with_suffix(".csv")
    json_path = base.with_suffix(".json")
    csv_path.write_text(bench.records_to_csv(records), encoding="utf-8")
    json_path.write_text(bench.records_to_json(records), encoding="utf-8")
    for record in records:
        row = record.as_dict()
        print(
            f"{row['workload']} size={row['size']} {row['strategy']}: "
            f"{row['median_ns']} ns, {row['steps']} steps, "
            f"{row['peak_live_nodes']} live nodes [{row['status']}]"
        )
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


def cmd_gen(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    terms = gen_terms(args.seed, args.count, args.max_size, args.typed_bias)
    for i, term in enumerate(terms):
        (out_dir / f"term_{i:04d}.lam").write_text(
            print_surface(term) + "\n", encoding="utf-8"
        )
    print(f"wrote {len(terms)} terms to {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordlam",
        description="Lambda-calculus evaluator with exact environments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a surface-syntax file")
    p_eval.add_argument("file")
    p_eval.add_argument(
        "--strategy",
        choices=("ordered", "closures", "beta-normal"),
        default="ordered",
    )
    p_eval.add_argument("--env", choices=("list", "tree"), default="list")
    p_eval.add_argument("--fuel", type=int, default=None)
    p_eval.add_argument("--print", choices=("whnf", "nf"), default="whnf")
    p_eval.set_defaults(func=cmd_eval)

    p_convert = sub.add_parser("convert", help="convert between term formats")
    p_convert.add_argument("file")
    p_convert.add_argument("--to", choices=("ordered", "named"), required=True)
    p_convert.set_defaults(func=cmd_convert)

    p_check = sub.add_parser(
        "check", help="run the one-step machine, verifying each step"
    )
    p_check.add_argument("file")
    p_check.add_argument("--fuel", type=int, default=None)
    p_check.set_defaults(func=cmd_check)

    p_bench = sub.add_parser("bench", help="benchmark strategies on a workload")
    p_bench.add_argument("--workload", choices=sorted(bench.WORKLOADS), required=True)
    p_bench.add_argument("--size", type=int, required=True)
    p_bench.add_argument(
        "--strategies", default=",".join(bench.STRATEGIES), metavar="LIST"
    )
    p_bench.add_argument("--reps", type=int, default=bench.DEFAULT_REPETITIONS)
    p_bench.add_argument("--fuel", type=int, default=None)
    p_bench.add_argument("--out", required=True, metavar="PATH")
    p_bench.set_defaults(func=cmd_bench)

    p_gen = sub.add_parser("gen", help="generate a corpus of random terms")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--count", type=int, required=True)
    p_gen.add_argument("--max-size", type=int, required=True)
    p_gen.add_argument("--typed-bias", type=float, default=0.5)
    p_gen.add_argument("--out", required=True, metavar="DIR")
    p_gen.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run_deep(args.func, args)
    except InvariantError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
