import gc

import pytest

import run
import tracing
from ordlam import workloads
from ordlam.named import print_surface


@pytest.fixture(scope="module")
def program():
    return run.load_program()


def traced(program, strategy, text):
    tracer = tracing.Tracer()
    instrumentation = tracing.Instrumentation(tracer, program)
    threshold = gc.get_threshold()
    instrumentation.install()
    gc.set_threshold(50)  # collections inside spans and inside envseq calls
    try:
        result = run.traced_request(
            program, tracer, run.normalizer(program, strategy), text
        )
    finally:
        gc.set_threshold(*threshold)
        instrumentation.uninstall()
    return tracer, result


@pytest.mark.parametrize("strategy", run.STRATEGIES)
def test_self_times_add_up_to_the_request_span(program, strategy):
    tracer, _ = traced(program, strategy, print_surface(workloads.church_add(12)))
    (root,) = [span for span in tracer.spans if span[1] == tracing.REQUEST]
    c = tracer.counts
    accounted = (
        sum(tracer.self_ns.values())
        + c["gc.pause_ns"]
        + c["envseq.split.ns"]
        + c["envseq.insert.ns"]
    )
    assert accounted == root[4] - root[3]
    assert c["gc.collections"] > 0
    assert {span[0] for span in tracer.spans} == {root[0]}
    assert all(span[5] >= 0 for span in tracer.spans)


@pytest.mark.parametrize("strategy", run.STRATEGIES)
def test_steps_split_between_eval_and_readback(program, strategy):
    text = print_surface(workloads.church_mul(9))
    tracer, (_, spent) = traced(program, strategy, text)
    prefix = "baselines" if strategy == "closures" else "machine"
    c = tracer.counts
    assert c[f"{prefix}.eval.steps"] > 0 and c[f"{prefix}.readback.steps"] > 0
    assert c[f"{prefix}.eval.steps"] + c[f"{prefix}.readback.steps"] == spent


def test_ordered_layers_are_reached(program):
    tracer, _ = traced(program, "ordered-tree", print_surface(workloads.church_add(6)))
    for layer in run.REQUIRED_LAYERS["ordered"] + ("machine.apply",):
        assert tracer.counts[f"{layer}.calls"] > 0, layer


def test_uninstall_restores_every_original(program):
    before = {
        "evaluate": program.machine.evaluate,
        "parse_closed": program.bench.parse_closed,
        "split_at": program.envseq.ListEnv.__dict__["split_at"],
        "free_names": program.named.App.__dict__["free_names"],
    }
    tracer = tracing.Tracer()
    instrumentation = tracing.Instrumentation(tracer, program)
    instrumentation.install()
    assert tracer.on_gc in gc.callbacks
    assert program.machine.evaluate is not before["evaluate"]
    instrumentation.uninstall()
    assert program.machine.evaluate is before["evaluate"]
    assert program.bench.parse_closed is before["parse_closed"]
    assert program.envseq.ListEnv.__dict__["split_at"] is before["split_at"]
    assert program.named.App.__dict__["free_names"] is before["free_names"]
    assert tracer.on_gc not in gc.callbacks


def test_unreached_layer_fails_the_traced_run():
    outcome = run.Outcome({s: run.StrategyRecord() for s in run.STRATEGIES})
    with pytest.raises(run.BenchmarkError, match="never reached"):
        run.check_layers_reached("wide-binder", outcome)
