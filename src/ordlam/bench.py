"""Benchmark runner: strategies against workloads, with a correctness gate.

Every run fully normalizes the workload term and digests a canonical
print of the normal form; records from strategies that disagree are
refused rather than written out. Wall time covers evaluation and
readback only (never digesting or serialization). The space column
counts distinct live value nodes retained by the evaluated result
(term nodes for the eager normalizer), a deterministic stand-in for
process memory. One strategy table drives both this runner and
`ordlam eval`.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import baselines, machine
from .envseq import ListEnv, TreeEnv
from .errors import InvariantError
from .machine import Fuel
from .named import FuelExhausted, NamedTerm, print_surface
from .ordered import parse_closed
from .workloads import WORKLOADS, build_workload

DEFAULT_FUEL = 1_000_000
DEFAULT_REPETITIONS = 3

CSV_COLUMNS = (
    "workload",
    "size",
    "strategy",
    "env_backend",
    "median_ns",
    "steps",
    "peak_live_nodes",
    "digest",
    "status",
)


@dataclass(frozen=True)
class Strategy:
    """How one strategy normalizes: weak-head evaluation, then readback.

    Functions that take fuel share the caller's Fuel object, so the
    steps of both phases add up; either may return FuelExhausted.
    """

    whnf: Callable  # (term, fuel) -> value
    readback: Callable  # (value, fuel, names to avoid) -> normal form
    print_value: Callable  # value -> named term, reducing nothing
    node_count: Callable  # value -> distinct nodes it retains


# Entries look their functions up on every call, so wrappers installed
# on the modules at run time (tracing, for one) apply here as well.
def _ordered(backend) -> Strategy:
    return Strategy(
        lambda m, fuel: machine.whnf(m, fuel, backend),
        lambda v, fuel, avoid: machine.readback_normal_form(v, fuel, avoid),
        lambda v: machine.print_value(v),
        lambda v: machine.value_node_count(v),
    )


STRATEGIES = {
    "ordered-list": _ordered(ListEnv),
    "ordered-tree": _ordered(TreeEnv),
    "closures": Strategy(
        lambda m, fuel: baselines.db_whnf(m, fuel),
        lambda v, fuel, avoid: baselines.db_readback_normal_form(v, fuel, avoid),
        lambda v: baselines.db_print_value(v),
        lambda v: baselines.db_value_node_count(v),
    ),
    # Eager normalization reaches the normal form in its first phase.
    "beta-normal": Strategy(
        lambda m, fuel: baselines.normalize_hsub(m, fuel),
        lambda nf, fuel, avoid: nf,
        lambda nf: nf,
        lambda nf: nf.node_count,
    ),
}

STATUS_OK = "ok"
STATUS_FUEL = "fuel-exhausted"


class DigestMismatch(InvariantError):
    """Strategies produced different normal forms for the same workload."""


@dataclass(frozen=True)
class BenchConfig:
    workload: str
    size: int
    strategy: str
    fuel: int = DEFAULT_FUEL
    repetitions: int = DEFAULT_REPETITIONS

    def __post_init__(self):
        if self.workload not in WORKLOADS:
            raise ValueError(f"unknown workload {self.workload!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.size < 1 or self.fuel < 1 or self.repetitions < 1:
            raise ValueError("size, fuel and repetitions must be at least 1")


@dataclass(frozen=True)
class BenchRecord:
    config: BenchConfig
    wall_time_ns: int
    steps: int
    peak_live_nodes: int
    result_digest: str
    status: str

    @property
    def env_backend(self) -> str:
        if self.config.strategy == "ordered-list":
            return "list"
        if self.config.strategy == "ordered-tree":
            return "tree"
        return "-"

    def as_dict(self) -> dict:
        return {
            "workload": self.config.workload,
            "size": self.config.size,
            "strategy": self.config.strategy,
            "env_backend": self.env_backend,
            "median_ns": self.wall_time_ns,
            "steps": self.steps,
            "peak_live_nodes": self.peak_live_nodes,
            "digest": self.result_digest,
            "status": self.status,
        }


def canonical_text(t: NamedTerm) -> str:
    """Alpha-invariant printed form: binders renamed by the translation round trip."""
    return print_surface(machine.print_ordered(parse_closed(t), []))


def digest_term(t: NamedTerm) -> str:
    return hashlib.sha256(canonical_text(t).encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class StrategyOutcome:
    normal_form: Optional[NamedTerm]
    steps: int
    peak_live_nodes: int

    @property
    def ok(self) -> bool:
        return self.normal_form is not None


def run_strategy(strategy: str, term: NamedTerm, fuel: int) -> StrategyOutcome:
    """Fully normalize term under one strategy, collecting step and space counts."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    entry = STRATEGIES[strategy]
    budget = Fuel(fuel)
    value = entry.whnf(term, budget)
    if isinstance(value, FuelExhausted):
        return StrategyOutcome(None, budget.spent, 0)
    nodes = entry.node_count(value)
    nf = entry.readback(value, budget, term.free_names)
    if isinstance(nf, FuelExhausted):
        return StrategyOutcome(None, budget.spent, nodes)
    return StrategyOutcome(nf, budget.spent, nodes)


def run_config(config: BenchConfig) -> BenchRecord:
    """Run one configuration, timing each repetition and keeping the median."""
    term = build_workload(config.workload, config.size)
    times = []
    outcome = None
    for _ in range(config.repetitions):
        started = time.perf_counter_ns()
        outcome = run_strategy(config.strategy, term, config.fuel)
        times.append(time.perf_counter_ns() - started)
    assert outcome is not None
    if not outcome.ok:
        return BenchRecord(
            config,
            int(statistics.median(times)),
            outcome.steps,
            outcome.peak_live_nodes,
            "",
            STATUS_FUEL,
        )
    return BenchRecord(
        config,
        int(statistics.median(times)),
        outcome.steps,
        outcome.peak_live_nodes,
        digest_term(outcome.normal_form),
        STATUS_OK,
    )


def run_comparison(
    workload: str,
    size: int,
    strategies: Sequence[str],
    fuel: int = DEFAULT_FUEL,
    repetitions: int = DEFAULT_REPETITIONS,
) -> list[BenchRecord]:
    """Run several strategies on one workload and gate on digest agreement."""
    records = [
        run_config(BenchConfig(workload, size, strategy, fuel, repetitions))
        for strategy in strategies
    ]
    digests = {r.result_digest for r in records if r.status == STATUS_OK}
    if len(digests) > 1:
        detail = ", ".join(
            f"{r.config.strategy}={r.result_digest or '(failed)'}" for r in records
        )
        raise DigestMismatch(
            f"strategies disagree on {workload} size {size}: {detail}"
        )
    return records


def records_to_csv(records: Sequence[BenchRecord]) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for record in records:
        writer.writerow(record.as_dict())
    return out.getvalue()


def records_to_json(records: Sequence[BenchRecord]) -> str:
    return json.dumps([r.as_dict() for r in records], indent=2) + "\n"
