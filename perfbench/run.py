"""Layered normalization benchmark for ordlam.

Usage (from the repository root):

    python3 perfbench/run.py --workload chain-eval --seed 1 --seconds 25 --trace 0

One request parses a workload term's surface text, normalizes it with
one strategy, prints the normal form and digests it, exactly as
`ordlam eval --print nf` and `ordlam bench` would. One client sends
requests in a closed loop to one big-stack worker thread. Every result
is checked against a normal form built without evaluation.

Request rates, latencies and set-up time are scaled to a reference
machine speed, measured by a fixed calibration loop before every pass;
the report also prints them unscaled.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
rounds with rounds in which ordlam's layers are wrapped in spans, and
prints per-layer self times and work counts, plus the tracing overhead.
The last line of standard output is a JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("chain-eval", "numerals", "wide-binder", "interleaved-binders")
STRATEGIES = ("ordered-list", "ordered-tree", "closures")

# No request needs more than about 10**5 steps; running out of this is a
# real failure, not a tight budget.
FUEL = 10_000_000
MAX_STEPS_SHARE = 0.01

# Timings are scaled to a reference machine speed: the time this fixed
# loop takes right before each pass (or set-up), against CALIBRATION_NS.
# A shared host's speed can swing by half within seconds, for every
# strategy at once; the scaled figures cancel that and stay comparable
# across runs and commits.
CALIBRATION_NS = 10_000_000

SETUP_REPEATS = 7
MIN_ROUNDS = 4
WORKER_STACK_BYTES = 256 * 1024 * 1024
WORKER_RECURSION_LIMIT = 200_000

TRACE_DIR = HERE / "traces"

# Layers every request reaches, by strategy; plus the ones a workload
# declares because its shape drives them (readback opening closures).
REQUIRED_LAYERS = {
    "ordered": (
        "named.parse",
        "named.free_names",
        "ordered.translate",
        "machine.eval",
        "envseq.split",
        "envseq.insert",
        "machine.readback",
        "machine.names",
        "ordered.free_names",
        "named.print",
        "bench.digest",
        "machine.print_ordered",
    ),
    "closures": (
        "named.parse",
        "named.free_names",
        "baselines.translate",
        "baselines.eval",
        "baselines.readback",
        "named.print",
        "bench.digest",
        "ordered.translate",
        "machine.print_ordered",
        "ordered.free_names",
    ),
}
WORKLOAD_LAYERS = {
    "chain-eval": ("machine.apply",),
    "numerals": ("machine.apply",),
    "wide-binder": (),
    "interleaved-binders": (),
}

# Counts that must repeat exactly whenever the same input is normalized.
EXACT_COUNTS = (
    "ordered.translate.calls",
    "machine.eval.steps",
    "machine.readback.steps",
    "machine.apply.calls",
    "ordered.free_names.calls",
    "envseq.split.calls",
    "envseq.split.cells",
    "envseq.insert.calls",
    "envseq.insert.cells",
    "envseq.max_len",
    "baselines.eval.steps",
    "baselines.readback.steps",
)

# Per-layer metrics: (metric suffix, source, kind). Self times come from
# spans ("self") or envseq counters ("count_ns"); counts from counters.
ORDERED_LAYER_METRICS = (
    ("named.parse_ms", "named.parse", "self"),
    ("named.free_names_ms", "named.free_names", "self"),
    ("ordered.translate_ms", "ordered.translate", "self"),
    ("ordered.translate_calls", "ordered.translate.calls", "count"),
    ("machine.eval_ms", "machine.eval", "self"),
    ("machine.eval_steps", "machine.eval.steps", "count"),
    ("gc.pause_ms", "gc.pause_ns", "count_ns"),
    ("gc.collections", "gc.collections", "count"),
    ("envseq.split_ms", "envseq.split.ns", "count_ns"),
    ("envseq.split_calls", "envseq.split.calls", "count"),
    ("envseq.split_cells", "envseq.split.cells", "count"),
    ("envseq.max_len", "envseq.max_len", "max"),
    ("envseq.insert_ms", "envseq.insert.ns", "count_ns"),
    ("envseq.insert_calls", "envseq.insert.calls", "count"),
    ("envseq.insert_cells", "envseq.insert.cells", "count"),
    ("machine.readback_ms", "machine.readback", "self"),
    ("machine.readback_steps", "machine.readback.steps", "count"),
    ("machine.apply_ms", "machine.apply", "self"),
    ("machine.apply_calls", "machine.apply.calls", "count"),
    ("machine.names_ms", "machine.names", "self"),
    ("ordered.free_names_ms", "ordered.free_names", "self"),
    ("ordered.free_names_calls", "ordered.free_names.calls", "count"),
    ("bench.digest_ms", "bench.digest", "self"),
    ("machine.print_ordered_ms", "machine.print_ordered", "self"),
    ("named.print_ms", "named.print", "self"),
)
CLOSURES_LAYER_METRICS = (
    ("named.parse_ms", "named.parse", "self"),
    ("named.free_names_ms", "named.free_names", "self"),
    ("baselines.translate_ms", "baselines.translate", "self"),
    ("baselines.eval_ms", "baselines.eval", "self"),
    ("baselines.eval_steps", "baselines.eval.steps", "count"),
    ("baselines.readback_ms", "baselines.readback", "self"),
    ("baselines.readback_steps", "baselines.readback.steps", "count"),
    ("gc.pause_ms", "gc.pause_ns", "count_ns"),
    ("gc.collections", "gc.collections", "count"),
    ("bench.digest_ms", "bench.digest", "self"),
    ("ordered.translate_ms", "ordered.translate", "self"),
    ("ordered.translate_calls", "ordered.translate.calls", "count"),
    ("machine.print_ordered_ms", "machine.print_ordered", "self"),
    ("ordered.free_names_ms", "ordered.free_names", "self"),
    ("ordered.free_names_calls", "ordered.free_names.calls", "count"),
    ("named.print_ms", "named.print", "self"),
)


class BenchmarkError(Exception):
    """The program misbehaved in a way the benchmark checks for."""


class RequestFailed(Exception):
    """One request did not produce the expected normal form."""


class ProgramNotFound(Exception):
    """ordlam cannot be imported from src/ next to the benchmark."""


def layer_metrics(strategy: str):
    return CLOSURES_LAYER_METRICS if strategy == "closures" else ORDERED_LAYER_METRICS


def layer_unit(suffix: str) -> str:
    return "ms" if suffix.endswith("_ms") else "count"


# --------------------------------------------------------------------------
# the program under test


def load_program() -> SimpleNamespace:
    """Import ordlam from this checkout's src/ (never from anywhere else).

    Each call imports afresh, so set-up time can be measured more than once
    per process; inputs.py builds terms with ordlam and is imported with it.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m.split(".")[0] in ("ordlam", "inputs")]:
        del sys.modules[name]
    try:
        import ordlam
        from ordlam import baselines, bench, envseq, machine, named
    except ImportError as exc:
        raise ProgramNotFound(f"cannot import ordlam from {SRC}: {exc}") from exc
    if Path(ordlam.__file__).resolve().parent.parent != SRC:
        raise ProgramNotFound(f"ordlam was imported from {ordlam.__file__}, not {SRC}")
    import inputs

    return SimpleNamespace(
        named=named,
        machine=machine,
        baselines=baselines,
        bench=bench,
        envseq=envseq,
        inputs=inputs,
    )


def normalizer(p: SimpleNamespace, strategy: str):
    """The strategy's normalization call; module attributes are looked up per call."""
    if strategy == "closures":
        return lambda m, fuel: p.baselines.db_normalize_by_evaluation(m, fuel)
    backend = p.envseq.ListEnv if strategy == "ordered-list" else p.envseq.TreeEnv
    return lambda m, fuel: p.machine.normalize_by_evaluation(m, fuel, backend)


def request(p: SimpleNamespace, normalize, text: str) -> tuple[str, int]:
    """One user-visible normalization: parse, normalize, print, digest."""
    m = p.named.parse_surface(text)
    fuel = p.machine.Fuel(FUEL)
    nf = normalize(m, fuel)
    if isinstance(nf, p.named.FuelExhausted):
        raise RequestFailed(f"fuel exhausted after {nf.spent} steps")
    p.named.print_surface(nf)
    return p.bench.digest_term(nf), fuel.spent


def calibration_loop() -> int:
    """Fixed pure-Python work that uses no ordlam code and allocates no GC-tracked
    objects; about 10 ms on the reference machine."""
    table: dict[int, int] = {}
    for i in range(60_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
    return len(table)


def timed(fn, *args):
    start = time.perf_counter_ns()
    result = fn(*args)
    return result, time.perf_counter_ns() - start


class DeepWorker:
    """One worker thread with a large stack and a matching recursion limit.

    Translation, printing and readback recurse over terms thousands of
    levels deep, which the main thread's stack cannot hold. The recursion
    limit is process-wide, so it is raised once for the whole run.
    """

    def __init__(self):
        sys.setrecursionlimit(max(sys.getrecursionlimit(), WORKER_RECURSION_LIMIT))
        previous = threading.stack_size(WORKER_STACK_BYTES)
        try:
            self._pool = ThreadPoolExecutor(1, thread_name_prefix="perfbench")
            self._pool.submit(int).result()  # start the thread at this stack size
        finally:
            threading.stack_size(previous)

    def call(self, fn, *args):
        return self._pool.submit(fn, *args).result()

    def close(self) -> None:
        self._pool.shutdown(wait=True)


# --------------------------------------------------------------------------
# set-up


@dataclass
class Setup:
    cases: list
    references: list[str]
    worker: DeepWorker


def set_up(workload: str, seed: int) -> tuple[SimpleNamespace, Setup]:
    """Import, inputs, reference digests, the worker and one warm-up per strategy."""
    p = load_program()
    worker = DeepWorker()
    try:
        cases = worker.call(p.inputs.build_cases, workload, seed)
        references = worker.call(
            lambda: [p.bench.digest_term(c.reference) for c in cases]
        )
        smallest = min(range(len(cases)), key=lambda i: len(cases[i].text))
        for strategy in STRATEGIES:
            digest, spent = worker.call(
                request, p, normalizer(p, strategy), cases[smallest].text
            )
            check_result(cases[smallest], references[smallest], digest, spent)
    except BaseException:
        worker.close()
        raise
    return p, Setup(cases, references, worker)


def check_result(case, reference: str, digest: str, spent: int) -> None:
    if digest != reference:
        raise RequestFailed(f"{case.label}: digest {digest}, expected {reference}")
    if spent > FUEL * MAX_STEPS_SHARE:
        raise BenchmarkError(
            f"{case.label} needs {spent} steps; fuel {FUEL} is not far above need"
        )


def retained_nodes(p: SimpleNamespace, cases) -> tuple[int, int]:
    """WHNF value nodes per strategy family, summed over the distinct inputs."""
    ordered = closures = 0
    for case in cases:
        m = p.named.parse_surface(case.text)
        counts = set()
        for backend in (p.envseq.ListEnv, p.envseq.TreeEnv):
            value = p.machine.whnf(m, p.machine.Fuel(FUEL), backend)
            if isinstance(value, p.named.FuelExhausted):
                raise BenchmarkError(f"{case.label}: WHNF ran out of fuel")
            counts.add(p.machine.value_node_count(value))
        if len(counts) != 1:
            raise BenchmarkError(
                f"{case.label}: backends retain {sorted(counts)} nodes"
            )
        ordered += counts.pop()
        value = p.baselines.db_whnf(m, p.machine.Fuel(FUEL))
        if isinstance(value, p.named.FuelExhausted):
            raise BenchmarkError(f"{case.label}: closure WHNF ran out of fuel")
        closures += p.baselines.db_value_node_count(value)
    return ordered, closures


# --------------------------------------------------------------------------
# measurement


@dataclass
class StrategyRecord:
    # rates and latencies scaled to the reference speed; raw ones for the report
    pass_rates: list[float] = field(default_factory=list)  # untraced rounds
    traced_rates: list[float] = field(default_factory=list)
    latencies_ns: list[float] = field(default_factory=list)
    raw_rates: list[float] = field(default_factory=list)
    raw_latencies_ns: list[int] = field(default_factory=list)
    traced_requests: int = 0
    self_ns: dict = field(default_factory=lambda: defaultdict(int))
    counts: dict = field(default_factory=lambda: defaultdict(int))
    max_counts: dict = field(default_factory=lambda: defaultdict(int))
    exact: dict = field(default_factory=dict)  # case label -> exact counts


@dataclass
class Outcome:
    records: dict
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    speed_scales: list[float] = field(default_factory=list)  # one per pass


def traced_request(p, tracer, normalize, text):
    tracer.reset_counts()
    tracer.request += 1
    tracer.begin(tracing.REQUEST)
    try:
        return request(p, normalize, text)
    finally:
        tracer.end()


def check_trace(strategy: str, case, tracer, spent: int, record: StrategyRecord):
    """Exact invariants of one traced request."""
    c = tracer.counts
    prefix = "baselines" if strategy == "closures" else "machine"
    steps = c[f"{prefix}.eval.steps"] + c[f"{prefix}.readback.steps"]
    if steps != spent:
        raise BenchmarkError(
            f"{strategy} {case.label}: eval + readback steps {steps}"
            f" != fuel spent {spent}"
        )
    exact = tuple(c[name] for name in EXACT_COUNTS)
    first = record.exact.setdefault(case.label, exact)
    if exact != first:
        raise BenchmarkError(
            f"{strategy} {case.label}: work counts changed between runs"
        )


def measure(
    p, setup: Setup, seconds: float, tracer=None, instrumentation=None
) -> Outcome:
    """Closed-loop rounds until the deadline; each round runs every strategy once
    over every input, in alternating order. With a tracer, odd rounds are traced."""
    outcome = Outcome({s: StrategyRecord() for s in STRATEGIES})
    normalizers = {s: normalizer(p, s) for s in STRATEGIES}
    cases, references, worker = setup.cases, setup.references, setup.worker
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        traced = tracer is not None and rounds % 2 == 1
        order = STRATEGIES if (rounds // 2) % 2 == 0 else STRATEGIES[::-1]
        if traced:
            instrumentation.install()
        try:
            for strategy in order:
                record = outcome.records[strategy]
                # above 1 when the machine runs slower than the reference
                scale = worker.call(timed, calibration_loop)[1] / CALIBRATION_NS
                outcome.speed_scales.append(scale)
                started = time.perf_counter()
                for case, reference in zip(cases, references):
                    outcome.attempted += 1
                    call = (traced_request, p, tracer) if traced else (request, p)
                    try:
                        result, elapsed = worker.call(
                            timed, *call, normalizers[strategy], case.text
                        )
                        check_result(case, reference, *result)
                    except BenchmarkError:
                        raise
                    except Exception as exc:  # any error is a failed request
                        outcome.failed += 1
                        outcome.errors.append(f"{strategy} {case.label}: {exc!r}")
                        continue
                    if traced:
                        check_trace(strategy, case, tracer, result[1], record)
                        record.traced_requests += 1
                        for name, ns in tracer.self_ns.items():
                            record.self_ns[name] += ns
                        for name, n in tracer.counts.items():
                            record.counts[name] += n
                            record.max_counts[name] = max(record.max_counts[name], n)
                    else:
                        record.raw_latencies_ns.append(elapsed)
                        record.latencies_ns.append(elapsed / scale)
                rate = len(cases) / (time.perf_counter() - started)
                if traced:
                    record.traced_rates.append(rate * scale)
                else:
                    record.raw_rates.append(rate)
                    record.pass_rates.append(rate * scale)
        finally:
            if traced:
                instrumentation.uninstall()
        rounds += 1
    return outcome


# --------------------------------------------------------------------------
# reporting


def end_to_end_metrics(
    outcome: Outcome, retained: tuple[int, int], setup_s: tuple[float, float]
):
    """Metrics and, for the report, their sample counts and unscaled values."""
    metrics = {}
    notes = {}
    for strategy in STRATEGIES:
        record = outcome.records[strategy]
        rate = f"{strategy}.nf_per_s"
        p50 = f"{strategy}.nf_ms.p50"
        metrics[rate] = (statistics.median(record.pass_rates), "req/s")
        # Every request of a strategy can fail; the run is then incorrect
        # and reports 0 rather than no value.
        metrics[p50] = (statistics.median(record.latencies_ns or [0]) / 1e6, "ms")
        notes[rate] = (
            f"rounds={len(record.pass_rates)}, "
            f"unscaled {statistics.median(record.raw_rates):.4f}"
        )
        raw_p50 = statistics.median(record.raw_latencies_ns or [0]) / 1e6
        notes[p50] = f"n={len(record.latencies_ns)}, unscaled {raw_p50:.4f}"
    metrics["ordered.retained_nodes"] = (retained[0], "nodes")
    metrics["closures.retained_nodes"] = (retained[1], "nodes")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    metrics["setup_s"] = (setup_s[0], "s")
    notes["setup_s"] = f"median of {SETUP_REPEATS}, unscaled {setup_s[1]:.4f}"
    return metrics, notes


def per_layer_metrics(outcome: Outcome):
    metrics = {}
    for strategy in STRATEGIES:
        record = outcome.records[strategy]
        n = max(record.traced_requests, 1)
        for suffix, source, kind in layer_metrics(strategy):
            if kind == "self":
                value = record.self_ns.get(source, 0) / n / 1e6
            elif kind == "count_ns":
                value = record.counts.get(source, 0) / n / 1e6
            elif kind == "max":
                value = record.max_counts.get(source, 0)
            else:
                value = record.counts.get(source, 0) / n
            metrics[f"{strategy}.{suffix}"] = (value, layer_unit(suffix))
        untraced = statistics.median(record.pass_rates)
        traced = statistics.median(record.traced_rates)
        metrics[f"{strategy}.trace.overhead_pct"] = ((untraced / traced - 1) * 100, "%")
    return metrics


def check_layers_reached(workload: str, outcome: Outcome) -> None:
    """A wrapped layer the workload declares but never reached is an error."""
    for strategy in STRATEGIES:
        family = "closures" if strategy == "closures" else "ordered"
        required = REQUIRED_LAYERS[family]
        if family == "ordered":
            required += WORKLOAD_LAYERS[workload]
        counts = outcome.records[strategy].counts
        for layer in required:
            if counts.get(f"{layer}.calls", 0) == 0:
                raise BenchmarkError(
                    f"{strategy} on {workload}: {layer} was never reached"
                )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def write_spans(tracer, workload: str, seed: int) -> Path:
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{workload}-seed{seed}.jsonl"
    fields = ("request", "name", "parent", "start_ns", "end_ns", "self_ns")
    with path.open("w") as out:
        for span in tracer.spans:
            out.write(json.dumps(dict(zip(fields, span))) + "\n")
    return path


def print_result(metrics: dict, notes: dict, outcome: Outcome, correct: bool) -> None:
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:44s} {value:14.4f} {unit}{note}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )


# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setup_times = []  # scaled by a calibration run just before each set-up
    raw_setup_times = []
    setup = None
    for _ in range(SETUP_REPEATS):
        if setup is not None:
            setup.worker.close()
        scale = timed(calibration_loop)[1] / CALIBRATION_NS
        started = time.perf_counter()
        try:
            p, setup = set_up(args.workload, args.seed)
        except ProgramNotFound as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        raw_setup_times.append(time.perf_counter() - started)
        setup_times.append(raw_setup_times[-1] / scale)
    setup_s = (statistics.median(setup_times), statistics.median(raw_setup_times))

    try:
        retained = setup.worker.call(retained_nodes, p, setup.cases)
        tracer = instrumentation = None
        if args.trace:
            tracer = tracing.Tracer()
            instrumentation = tracing.Instrumentation(tracer, p)
        outcome = measure(p, setup, args.seconds, tracer, instrumentation)
    finally:
        setup.worker.close()

    for error in outcome.errors[:20]:
        print(f"failed: {error}", file=sys.stderr)
    if args.trace:
        check_layers_reached(args.workload, outcome)
        metrics, notes = per_layer_metrics(outcome), {}
        print(f"spans written to {write_spans(tracer, args.workload, args.seed)}")
    else:
        metrics, notes = end_to_end_metrics(outcome, retained, setup_s)
        failed_frac = outcome.failed / outcome.attempted
        print(f"{'failed_frac':44s} {failed_frac:14.4f} ratio  (n={outcome.attempted})")
    scale = statistics.median(outcome.speed_scales)
    print(f"{'speed scale (median)':44s} {scale:14.4f} x reference")
    correct = outcome.failed == 0
    print_result(metrics, notes, outcome, correct)
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RequestFailed as exc:  # during set-up, before any result
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(3)
