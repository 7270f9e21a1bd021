import random

import pytest

import inputs
from ordlam.named import alpha_eq, normalize, parse_surface

WORKLOADS = sorted(inputs.PLANS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    assert inputs.build_cases(workload, 7, scale=0.1) == inputs.build_cases(
        workload, 7, scale=0.1
    )


def test_seeds_vary_the_inputs():
    first = inputs.build_cases("chain-eval", 1, scale=0.1)
    others = [inputs.build_cases("chain-eval", seed, scale=0.1) for seed in (2, 3, 4)]
    assert any(cases != first for cases in others)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_jitter_keeps_each_pair_sum(workload):
    slots = inputs.PLANS[workload]
    planned = [size for _, size in slots]
    for seed in range(20):
        sizes = inputs.jittered_sizes(random.Random(seed), slots)
        assert sum(sizes) == sum(planned)
        for i in range(0, len(slots) - 1, 2):
            assert sizes[i] + sizes[i + 1] == planned[i] + planned[i + 1]
            assert min(sizes[i], sizes[i + 1]) > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_references_are_the_oracle_normal_forms(workload):
    for case in inputs.build_cases(workload, 3, scale=0.02):
        nf = normalize(parse_surface(case.text))
        assert alpha_eq(nf, case.reference), case.label


def test_interleaved_reference_shape():
    text = inputs.interleaved_binders(4, 2)
    nf = normalize(text)
    expected = parse_surface("k (a (b (a (b c)))) (a (b (a (b c))))")
    assert alpha_eq(nf, expected)
    assert alpha_eq(nf, inputs.spine("k", [inputs.alternating("a", "b", 4)] * 2))
