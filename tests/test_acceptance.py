"""Acceptance suite: every criterion as one test that prints its verdict.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Budgets and tolerances are pinned here, not configurable.
"""

import pytest

from ordlam import baselines, bench, machine
from ordlam.envseq import ListEnv, TreeEnv, _Cons
from ordlam.errors import InvariantError
from ordlam.gen import gen_terms
from ordlam.machine import (
    Closure,
    Fuel,
    Pending,
    Spine,
    evaluate,
    print_ordered,
    print_value,
    verify_trace,
    whnf,
)
from ordlam.named import (
    FuelExhausted,
    alpha_eq,
    normalize,
    parse_surface,
    print_surface,
)
from ordlam.ordered import DOT, OApp, OLam, parse_closed
from ordlam.workloads import build_workload

ORACLE_FUEL = 100_000
S_NAMED = parse_surface(r"\x.\y.\z. x z (y z)")
S_BODY3 = OApp(OApp(DOT, 1, DOT), 2, OApp(DOT, 1, DOT))
S_ORDERED = OLam((0,), OLam((1,), OLam((1, 1), S_BODY3)))


def spine(name, *args):
    cell = None  # the argument chain, last argument first
    for a in args:
        cell = _Cons(a, cell)
    return Spine(name, cell)


def report(number, ok, detail):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


@pytest.fixture(scope="module")
def corpus():
    """Shared corpus with oracle classification (criteria 3 and 7)."""
    terms = gen_terms(1003, 2000, 40, 0.5)
    classified = []
    for term in terms:
        oracle = normalize(term, fuel=ORACLE_FUEL)
        classified.append((term, None if isinstance(oracle, FuelExhausted) else oracle))
    return classified


def test_criterion_1_golden_examples():
    failures = []
    if parse_closed(S_NAMED) != S_ORDERED:
        failures.append("ordered translation of the S combinator")

    t = parse_surface(r"(\x.\y.\z. x z (y z)) g f n")
    if print_surface(print_value(whnf(t))) != "g n (f n)":
        failures.append("S applied to three free variables")

    t2 = parse_surface(r"(\x.\y.\z. x z (y z)) g f")
    expected = Closure(
        OLam((1, 1), S_BODY3), ListEnv.from_values([spine("g"), spine("f")])
    )
    if whnf(t2) != expected:
        failures.append("S applied to two free variables")

    t3 = parse_surface(r"(\x.\y. a b y) g f")
    if print_surface(print_value(whnf(t3))) != "a b f":
        failures.append("dropping an unused substitution")

    report(1, not failures, "; ".join(failures) or "4 golden examples")


def test_criterion_2_round_trip():
    terms = gen_terms(1002, 10_000, 100, 0.3)
    bad = 0
    for term in terms:
        if not alpha_eq(print_ordered(parse_closed(term), []), term):
            bad += 1
    report(2, bad == 0, f"{len(terms) - bad}/{len(terms)} terms round-trip")


def test_criterion_3_soundness_vs_oracle(corpus):
    converging = cbv_diverged = agreed = 0
    for term, oracle_nf in corpus:
        if oracle_nf is None:
            continue
        converging += 1
        value = whnf(term, fuel=ORACLE_FUEL)
        if isinstance(value, FuelExhausted):
            # Normal order can converge where call-by-value does not
            # (a dropped divergent argument); not a converging case.
            cbv_diverged += 1
            continue
        round_tripped = normalize(print_value(value), fuel=ORACLE_FUEL)
        if not isinstance(round_tripped, FuelExhausted) and alpha_eq(
            round_tripped, oracle_nf
        ):
            agreed += 1
    checkable = converging - cbv_diverged
    report(
        3,
        agreed == checkable and checkable > 0,
        f"{agreed}/{checkable} converging cases agree "
        f"({converging} oracle-convergent, {cbv_diverged} value-order divergent)",
    )


@pytest.fixture(scope="module")
def trace_obligations():
    """Per-step machine obligations over 500 converging terms (criteria 4 and 5)."""
    terms = [
        t for t in gen_terms(1004, 800, 40, 0.5)
        if not isinstance(normalize(t, fuel=20_000), FuelExhausted)
    ][:500]
    assert len(terms) == 500
    stats = {
        "terms": 0,
        "non_beta": 0,
        "non_beta_preserved": 0,
        "beta": 0,
        "beta_single_step": 0,
        "weight_increases": 0,
    }
    for term in terms:
        r = verify_trace(Pending(parse_closed(term), ListEnv.empty()), 4000)
        stats["terms"] += 1
        stats["non_beta"] += r.non_beta
        stats["non_beta_preserved"] += r.preserved
        stats["beta"] += r.beta
        stats["beta_single_step"] += r.single_beta
        stats["weight_increases"] += r.weight_increases
    return stats


def test_criterion_4_correctness_table(trace_obligations):
    s = trace_obligations
    ok = (
        s["non_beta_preserved"] == s["non_beta"]
        and s["beta_single_step"] == s["beta"]
        and s["non_beta"] > 0
        and s["beta"] > 0
    )
    report(
        4,
        ok,
        f"{s['terms']} terms: {s['non_beta_preserved']}/{s['non_beta']} non-beta "
        f"steps preserve the printed term, {s['beta_single_step']}/{s['beta']} "
        f"beta steps are single reductions",
    )


def test_criterion_5_weight_monotonicity(trace_obligations):
    s = trace_obligations
    report(
        5,
        s["weight_increases"] == s["non_beta"] and s["non_beta"] > 0,
        f"weight increased on {s['weight_increases']}/{s['non_beta']} non-beta steps",
    )


def test_criterion_6_backend_equivalence():
    terms = gen_terms(1006, 10_000, 100, 0.3)
    agree = 0
    for term in terms:
        ordered = parse_closed(term)
        fuel_list, fuel_tree = Fuel(500), Fuel(500)
        with_list = evaluate(ordered, ListEnv.empty(), fuel_list)
        with_tree = evaluate(ordered, TreeEnv.empty(), fuel_tree)
        if with_list == with_tree and fuel_list.spent == fuel_tree.spent:
            agree += 1
    report(6, agree == len(terms), f"{agree}/{len(terms)} identical values and steps")


def test_criterion_7_strategy_agreement(corpus):
    checked = skipped = disagreements = 0
    for term, oracle_nf in corpus:
        if oracle_nf is None:
            continue
        results = [
            machine.normalize_by_evaluation(term, ORACLE_FUEL, ListEnv),
            machine.normalize_by_evaluation(term, ORACLE_FUEL, TreeEnv),
            baselines.db_normalize_by_evaluation(term, ORACLE_FUEL),
            baselines.normalize_hsub(term, ORACLE_FUEL),
        ]
        if any(isinstance(r, FuelExhausted) for r in results):
            # Value-order strategies may diverge where normal order does
            # not; those cases are counted but carry no obligation.
            skipped += 1
            continue
        checked += 1
        if not all(alpha_eq(r, oracle_nf) for r in results):
            disagreements += 1
    ok = disagreements == 0 and checked > 0 and checked >= 9 * (checked + skipped) // 10
    report(
        7,
        ok,
        f"{checked} converging terms agree across all strategies "
        f"({skipped} skipped as value-order divergent)",
    )


def test_criterion_7b_typed_terms_always_converge_and_agree():
    # On the simply-typed corpus every strategy must terminate, so the
    # agreement obligation has no escape hatch there.
    failures = 0
    terms = gen_terms(1007, 300, 40, 1.0)
    for term in terms:
        oracle_nf = normalize(term, fuel=ORACLE_FUEL)
        results = [
            machine.normalize_by_evaluation(term, ORACLE_FUEL, ListEnv),
            machine.normalize_by_evaluation(term, ORACLE_FUEL, TreeEnv),
            baselines.db_normalize_by_evaluation(term, ORACLE_FUEL),
            baselines.normalize_hsub(term, ORACLE_FUEL),
        ]
        if isinstance(oracle_nf, FuelExhausted) or any(
            isinstance(r, FuelExhausted) for r in results
        ):
            failures += 1
        elif not all(alpha_eq(r, oracle_nf) for r in results):
            failures += 1
    report(
        7.1,
        failures == 0,
        f"{len(terms)} typed terms, all strategies converge and agree",
    )


def test_criterion_8_space_leak_gap():
    gaps = {}
    for n in (10, 100, 1000):
        term = build_workload("leak-family", n)
        loose = baselines.db_whnf(term)
        exact = whnf(term)
        gaps[n] = baselines.db_value_node_count(loose) - machine.value_node_count(
            exact
        )
    linear = gaps[100] - gaps[10] == 90 and gaps[1000] - gaps[100] == 900
    bounded = all(gaps[n] >= n - 2 for n in gaps)

    # Closure exactness is enforced at every construction.
    try:
        Closure(OLam((0,), DOT), ListEnv.singleton(spine("v")))
        exactness_enforced = False
    except InvariantError:
        exactness_enforced = True

    report(
        8,
        linear and bounded and exactness_enforced,
        f"gaps {gaps} grow linearly; closure exactness enforced",
    )


def test_criterion_9_eager_normalization_is_slowest():
    def sweeps():
        wins = 0
        for _ in range(10):
            records = bench.run_comparison(
                "church-exp",
                2048,
                ("ordered-list", "closures", "beta-normal"),
                2_000_000,
                3,
            )
            by = {r.config.strategy: r.wall_time_ns for r in records}
            if by["beta-normal"] > by["ordered-list"] and by["beta-normal"] > by[
                "closures"
            ]:
                wins += 1
        return wins

    wins = sweeps()
    report(9, wins >= 9, f"eager normalizer slowest in {wins}/10 sweeps")
