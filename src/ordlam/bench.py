"""Benchmark runner: strategies against workloads, with a correctness gate.

Every run fully normalizes the workload term and digests a canonical
print of the normal form; records from strategies that disagree are
refused rather than written out. Wall time covers evaluation, the
space count below and readback (never digesting or serialization);
the count takes microseconds on the two machines, but for the eager
normalizer it walks the whole normal form. The space column
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

from . import baselines, machine, named
from .envseq import BACKENDS
from .errors import InvariantError
from .machine import DEFAULT_FUEL, Fuel
from .named import FuelExhausted, NamedTerm
from .ordered import parse_closed
from .workloads import WORKLOADS, build_workload

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
    steps of both phases add up; either may return FuelExhausted. The
    entry's readback alone picks the names its binders avoid.
    """

    whnf: Callable  # (term, fuel) -> value
    readback: Callable  # (value, fuel, term) -> normal form of that term
    print_value: Callable  # value -> named term, reducing nothing
    node_count: Callable  # value -> distinct nodes it retains


# Entries look their functions up on every call, so wrappers installed
# on the modules at run time (tracing, for one) apply here as well.
def _ordered(backend) -> Strategy:
    return Strategy(
        lambda m, fuel: machine.whnf(m, fuel, backend),
        lambda v, fuel, m: machine.readback_normal_form(v, fuel, m.free_names),
        lambda v: machine.print_value(v),
        lambda v: machine.value_node_count(v),
    )


# The ordered machine's strategy name on each environment backend.
ORDERED_STRATEGIES = {name: f"ordered-{name}" for name in BACKENDS}

STRATEGIES = {
    **{s: _ordered(BACKENDS[name]) for name, s in ORDERED_STRATEGIES.items()},
    "closures": Strategy(
        lambda m, fuel: baselines.db_whnf(m, fuel),
        lambda v, fuel, m: baselines.db_readback_normal_form(v, fuel, m.free_names),
        lambda v: machine.print_value(v),
        lambda v: baselines.db_value_node_count(v),
    ),
    # Eager normalization reaches the normal form in its first phase,
    # its binders already named clear of the input's free names.
    "beta-normal": Strategy(
        lambda m, fuel: baselines.normalize_hsub(m, fuel),
        lambda nf, fuel, m: nf,
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
        strategy = self.config.strategy
        return next((b for b, s in ORDERED_STRATEGIES.items() if s == strategy), "-")

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
    return named.print_surface(machine.print_ordered(parse_closed(t), []))


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
    nf = entry.readback(value, budget, term)
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
    return BenchRecord(
        config,
        int(statistics.median(times)),
        outcome.steps,
        outcome.peak_live_nodes,
        digest_term(outcome.normal_form) if outcome.ok else "",
        STATUS_OK if outcome.ok else STATUS_FUEL,
    )


def run_comparison(
    workload: str,
    size: int,
    strategies: Sequence[str],
    fuel: int = DEFAULT_FUEL,
    repetitions: int = DEFAULT_REPETITIONS,
) -> list[BenchRecord]:
    """Run several strategies on one workload and gate on digest agreement."""
    if not strategies:
        raise ValueError("no strategies to compare")
    # Every configuration is checked before any runs.
    configs = [BenchConfig(workload, size, s, fuel, repetitions) for s in strategies]
    records = [run_config(config) for config in configs]
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
