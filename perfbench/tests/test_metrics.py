import json

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def fake_outcome():
    outcome = run.Outcome({s: run.StrategyRecord() for s in run.STRATEGIES})
    outcome.speed_scales = [2.0, 1.0, 3.0]
    for record in outcome.records.values():
        record.pass_rates = [2.0, 4.0, 3.0]
        record.raw_rates = [1.0, 4.0, 1.0]
        record.traced_rates = [2.0]
        record.latencies_ns = [5_000_000, 1_000_000, 3_000_000]
        record.raw_latencies_ns = [10_000_000, 1_000_000, 9_000_000]
        record.traced_requests = 2
    return outcome


def test_end_to_end_metrics_match_the_spec():
    metrics, _ = run.end_to_end_metrics(fake_outcome(), (3, 30), (0.25, 0.5))
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == spec
    assert metrics["closures.nf_per_s"][0] == 3.0
    assert metrics["closures.nf_ms.p50"][0] == 3.0
    assert metrics["setup_s"][0] == 0.25


def test_per_layer_metrics_match_the_spec():
    metrics = run.per_layer_metrics(fake_outcome())
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == spec
    assert metrics["closures.trace.overhead_pct"][0] == 50.0


def test_spec_names_the_workloads_the_benchmark_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
