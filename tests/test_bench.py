import csv
import io
import json

import pytest

from ordlam.bench import (
    BenchConfig,
    CSV_COLUMNS,
    DigestMismatch,
    STATUS_FUEL,
    STATUS_OK,
    STRATEGIES,
    canonical_text,
    digest_term,
    records_to_csv,
    records_to_json,
    run_comparison,
    run_config,
    run_strategy,
)
from ordlam import envseq
from ordlam.envseq import _FLAT
from ordlam.named import alpha_eq, normalize, parse_surface
from ordlam.workloads import (
    WORKLOADS,
    build_workload,
    church,
    church_add,
    church_exp,
    church_mul,
    combinator_chain,
    distinct_spine,
    leak_family,
    wide_binder,
)


class TestWorkloads:
    def test_church_add_normal_form(self):
        assert alpha_eq(normalize(church_add(7)), church(7))

    def test_church_mul_normal_form(self):
        assert alpha_eq(normalize(church_mul(12)), church(12))

    def test_church_exp_normal_form(self):
        assert alpha_eq(normalize(church_exp(16)), church(16))

    def test_combinator_chain_collapses(self):
        assert alpha_eq(normalize(combinator_chain(5)), parse_surface("x"))

    def test_leak_family_normal_form(self):
        assert alpha_eq(normalize(leak_family(4)), parse_surface(r"\y. y"))

    def test_wide_binder_normal_form(self):
        # c a ... a, written out rather than obtained by evaluation.
        expected = parse_surface("c" + " a" * 9)
        assert alpha_eq(normalize(wide_binder(9)), expected)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_wide_binder_normalizes_everywhere(self, strategy):
        outcome = run_strategy(strategy, wide_binder(64), 100_000)
        assert outcome.ok
        assert digest_term(outcome.normal_form) == digest_term(
            parse_surface("c" + " a" * 64)
        )

    def test_distinct_spine_normal_form(self):
        # c a0 ... a8, written out rather than obtained by evaluation.
        expected = parse_surface("c" + "".join(f" a{i}" for i in range(9)))
        assert alpha_eq(normalize(distinct_spine(9)), expected)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_distinct_spine_normalizes_everywhere(self, strategy):
        outcome = run_strategy(strategy, distinct_spine(64), 100_000)
        assert outcome.ok
        assert digest_term(outcome.normal_form) == digest_term(
            parse_surface("c" + "".join(f" a{i}" for i in range(64)))
        )

    def test_unknown_workload(self):
        with pytest.raises(ValueError):
            build_workload("nope", 3)

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError, match="^workload size must be at least 1$"):
            build_workload("church-add", 0)

    def test_all_workloads_buildable(self):
        for name in WORKLOADS:
            build_workload(name, 8)


PINNED_DIGESTS = {
    ("church-add", 8): "8995880b8e2915c8",
    ("church-add", 64): "3ffdf289708dbebb",
    ("church-mul", 8): "c3bf79a8d66ae7a6",
    ("church-mul", 64): "1088a0a25fb83751",
    ("church-exp", 8): "10435cc49f9b2737",
    ("church-exp", 64): "d647798aff2c8cee",
    ("combinator-chain", 8): "75307022fcf844f6",
    ("combinator-chain", 64): "69f21cb9fda9fbc7",
    ("leak-family", 8): "f081f7e7632229ae",
    ("leak-family", 64): "0061c68d2ebc5490",
    ("wide-binder", 8): "2f1714e8f38c005b",
    ("wide-binder", 64): "59b728ae693e45d3",
    ("distinct-spine", 8): "4ff7698d9c1ba6a3",
    ("distinct-spine", 64): "17979dfa2246195d",
}


class TestDigest:
    def test_canonical_text_is_alpha_invariant(self):
        t = parse_surface(r"\x.\y. x (a y)")
        u = parse_surface(r"\u.\v. u (a v)")
        assert canonical_text(t) == canonical_text(u)
        assert digest_term(t) == digest_term(u)

    def test_distinct_terms_distinct_digests(self):
        assert digest_term(parse_surface("a")) != digest_term(parse_surface("b"))

    @pytest.mark.parametrize("size", (8, 64))
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_workload_digests_are_pinned(self, workload, size):
        # Hard-coded, so a change to binder naming or parenthesization in
        # the canonical print cannot pass unnoticed.
        assert digest_term(WORKLOADS[workload](size)) == PINNED_DIGESTS[workload, size]

    @pytest.mark.parametrize(
        "source, expected",
        [
            (r"\x. z0 x", r"\z1. z0 z1"),
            (
                r"(\x. \y. x (z0 y) (\z1. z1 y)) z2",
                r"(\z1. \z3. z1 (z0 z3) (\z4. z4 z3)) z2",
            ),
        ],
    )
    def test_canonical_binders_skip_free_names(self, source, expected):
        assert canonical_text(parse_surface(source)) == expected

    def test_digest_prints_through_the_named_module(self, monkeypatch):
        # A wrapper installed on named.print_surface (perfbench's
        # named.print span) sees the digest's print; the text is the same.
        from ordlam import named

        printed = []
        print_surface = named.print_surface

        def recorded(t):
            printed.append(print_surface(t))
            return printed[-1]

        t = parse_surface(r"(\x. \y. x (z0 y) (\z1. z1 y)) z2")
        monkeypatch.setattr(named, "print_surface", recorded)
        text = canonical_text(t)
        assert printed == [text]
        assert text == r"(\z1. \z3. z1 (z0 z3) (\z4. z4 z3)) z2"


class TestRunStrategy:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_leak_family_normalizes_everywhere(self, strategy):
        term = build_workload("leak-family", 10)
        outcome = run_strategy(strategy, term, 100_000)
        assert outcome.ok
        assert alpha_eq(outcome.normal_form, parse_surface(r"\y. y"))
        assert outcome.steps > 0

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="^unknown strategy 'quantum'$"):
            run_strategy("quantum", parse_surface("a"), 100)

    def test_fuel_exhaustion_reported(self):
        term = parse_surface(r"(\x. x x) (\x. x x)")
        outcome = run_strategy("ordered-list", term, 100)
        assert not outcome.ok
        assert outcome.steps == 100

    def test_backends_have_identical_steps(self):
        term = build_workload("church-exp", 64)
        a = run_strategy("ordered-list", term, 1_000_000)
        b = run_strategy("ordered-tree", term, 1_000_000)
        assert a.steps == b.steps
        assert alpha_eq(a.normal_form, b.normal_form)

    def test_leak_family_space_gap(self):
        term = build_workload("leak-family", 100)
        exact = run_strategy("ordered-list", term, 1_000_000)
        loose = run_strategy("closures", term, 1_000_000)
        assert loose.peak_live_nodes - exact.peak_live_nodes >= 100


class TestRunComparison:
    def test_records_agree_and_serialize(self):
        records = run_comparison("church-add", 8, STRATEGIES, 1_000_000, 2)
        digests = {r.result_digest for r in records}
        assert len(digests) == 1
        assert all(r.status == STATUS_OK for r in records)

        text = records_to_csv(records)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert tuple(rows[0].keys()) == CSV_COLUMNS
        parsed = json.loads(records_to_json(records))
        assert [tuple(d.keys()) for d in parsed] == [CSV_COLUMNS] * len(records)
        # Identical data in both formats (CSV stringifies).
        for row, obj in zip(rows, parsed):
            assert row == {k: str(v) for k, v in obj.items()}

    def test_strategy_order_and_env_backends(self):
        # The ordered strategies come from envseq.BACKENDS, in its order.
        records = run_comparison("church-add", 3, STRATEGIES, 1_000_000, 1)
        assert [(r.config.strategy, r.env_backend) for r in records] == [
            ("ordered-list", "list"),
            ("ordered-tree", "tree"),
            ("closures", "-"),
            ("beta-normal", "-"),
        ]

    def test_failed_records_marked_not_fatal(self):
        records = run_comparison("church-exp", 2**14, ("ordered-list",), 500, 1)
        assert records[0].status == STATUS_FUEL
        assert records[0].result_digest == ""

    def test_determinism_of_steps_and_nodes(self):
        first = run_config(BenchConfig("leak-family", 20, "closures", 10_000, 2))
        second = run_config(BenchConfig("leak-family", 20, "closures", 10_000, 2))
        assert first.steps == second.steps
        assert first.peak_live_nodes == second.peak_live_nodes
        assert first.result_digest == second.result_digest

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            BenchConfig("church-add", 0, "ordered-list")
        with pytest.raises(ValueError, match="^unknown strategy 'quantum'$"):
            BenchConfig("church-add", 4, "quantum")
        with pytest.raises(ValueError, match="^unknown workload 'nope'$"):
            BenchConfig("nope", 4, "ordered-list")

    def test_unknown_strategy_fails_before_any_run(self, monkeypatch):
        import ordlam.bench as bench_mod

        runs = []
        monkeypatch.setattr(bench_mod, "run_config", runs.append)
        with pytest.raises(ValueError, match="^unknown strategy 'quantum'$"):
            run_comparison("church-add", 3, ["ordered-tree", "quantum"])
        assert runs == []

    def test_digest_mismatch_refused(self, monkeypatch):
        import ordlam.bench as bench_mod
        from ordlam.bench import StrategyOutcome

        real = bench_mod.run_strategy

        def broken(strategy, term, fuel):
            if strategy == "closures":
                return StrategyOutcome(parse_surface("wrong"), 1, 1)
            return real(strategy, term, fuel)

        monkeypatch.setattr(bench_mod, "run_strategy", broken)
        with pytest.raises(DigestMismatch):
            run_comparison("church-add", 4, ("ordered-list", "closures"), 10_000, 1)

    @pytest.mark.parametrize(
        "size", (9, 33, 300, _FLAT - 1, _FLAT, _FLAT + 1, 2 * _FLAT + 33)
    )
    def test_reordered_environment_refused(self, monkeypatch, size):
        # Tree backends that reorder their values: the spine over distinct
        # values reads back its arguments out of order, and the digests
        # differ. Below the flat bound every environment is a tuple, and
        # one mutant reverses what each tuple insert returns, whether it
        # takes the one-position path or _gap_insert. From the bound up
        # the environment becomes a tree: one mutant reads its tree's
        # values back to front, and one holds a right finger in sequence
        # order instead of last first; past _FLAT + 1 the spine's splits
        # refill that finger with a chunk again and again. The closure
        # machine is the reference; the list backend's splits near the
        # end make it quadratic at these sizes.
        TreeEnv = envseq.TreeEnv
        tree_insert = TreeEnv.multi_insert
        tree_values = envseq._values

        def reversed_tuple_insert(env, kvec, value):
            out = tree_insert(env, kvec, value)
            if type(env) is tuple:
                return TreeEnv.from_values(list(out)[::-1])
            return out

        mutants = [(TreeEnv, "multi_insert", reversed_tuple_insert)]
        if size >= _FLAT:
            mutants.append(
                (envseq, "_values", lambda node, out: out + tree_values(node, [])[::-1])
            )
            mutants.append((envseq, "_rchain", envseq._chain))
        for owner, name, mutant in mutants:
            with monkeypatch.context() as patch:
                patch.setattr(owner, name, mutant)
                with pytest.raises(DigestMismatch):
                    run_comparison(
                        "distinct-spine",
                        size,
                        ("closures", "ordered-tree"),
                        100_000,
                        1,
                    )
