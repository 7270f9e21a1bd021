import gc
import sys
import tracemalloc

import pytest

from ordlam.baselines import (
    DbClosure,
    db_apply,
    db_normalize_by_evaluation,
    db_value_node_count,
    db_whnf,
    normalize_hsub,
)
from ordlam.bench import run_strategy
from ordlam.cli import main
from ordlam.debruijn import (
    BVar,
    DApp,
    DLam,
    FVar,
    db_free_names,
    locally_closed,
    to_debruijn,
)
from ordlam.envseq import _Cons
from ordlam.errors import InvariantError
from ordlam.gen import gen_terms
from ordlam.machine import Spine, from_debruijn, print_value, value_node_count, whnf
from ordlam.named import (
    App,
    Fuel,
    FuelExhausted,
    Lam,
    Var,
    alpha_eq,
    normalize,
    parse_surface,
    print_surface,
    reduce_once_all,
)
from ordlam.ordered import Free, parse_closed
from ordlam.workloads import combinator_chain, leak_family

S_NAMED = parse_surface(r"\x.\y.\z. x z (y z)")
MOTIVATING = parse_surface(r"(\x.\y. a b y) g f")
OMEGA = parse_surface(r"(\x. x x) (\x. x x)")


def big_spine_term(n: int):
    t = Var("c")
    for _ in range(n):
        t = App(t, Var("a"))
    return t


def leak_term(n: int):
    discard = Lam("x", Lam("y", Var("y")))
    return App(Lam("big", App(discard, Var("big"))), big_spine_term(n))


class TestToDebruijn:
    def test_identity(self):
        assert to_debruijn(parse_surface(r"\x.x")) == DLam(BVar(0))

    def test_constant_function(self):
        assert to_debruijn(parse_surface(r"\x.\y. x")) == DLam(DLam(BVar(1)))

    def test_s_combinator(self):
        expected = DLam(
            DLam(DLam(DApp(DApp(BVar(2), BVar(0)), DApp(BVar(1), BVar(0)))))
        )
        assert to_debruijn(S_NAMED) == expected

    def test_free_names_preserved(self):
        assert to_debruijn(parse_surface("a b")) == DApp(FVar("a"), FVar("b"))

    def test_free_names_are_the_fvar_names(self):
        t = to_debruijn(parse_surface(r"\x. f x (\y. g y x) f"))
        assert db_free_names(t) == {"f", "g"}
        assert db_free_names(t.body.fun.arg) == {"g"}
        assert db_free_names(BVar(0)) == frozenset()

    def test_unbound_index_is_internal_error(self):
        with pytest.raises(InvariantError, match="^unbound index 0 at depth 0$"):
            from_debruijn(BVar(0))
        with pytest.raises(InvariantError, match="^unbound index 1 at depth 1$"):
            from_debruijn(DLam(BVar(1)))

    def test_shadowing(self):
        assert to_debruijn(parse_surface(r"\x.\x. x")) == DLam(DLam(BVar(0)))

    def test_locally_closed(self):
        for term in gen_terms(51, 100, 40, 0.3):
            assert locally_closed(to_debruijn(term))

    def test_round_trip_alpha_equal(self):
        for term in gen_terms(52, 100, 40, 0.3):
            assert alpha_eq(from_debruijn(to_debruijn(term)), term)

    def test_nested_binders_with_shadowing(self):
        # \x0. ... \x(n-1). x0 ... x(n-1) free, where every third binder
        # reuses the name of the binder two levels out and shadows it.
        n = 8000
        names = [f"x{i - 2}" if i % 3 == 2 else f"x{i}" for i in range(n)]
        body = Var(names[0])
        for name in names[1:]:
            body = App(body, Var(name))
        term = App(body, Var("free"))
        for name in reversed(names):
            term = Lam(name, term)
        db = to_debruijn(term)
        for _ in range(n):
            db = db.body
        args = []
        while type(db) is DApp:
            args.append(db.arg)
            db = db.fun
        args.append(db)
        args.reverse()
        assert args[-1] == FVar("free")
        # Each occurrence names the innermost binder of its name.
        innermost = {name: level for level, name in enumerate(names)}
        assert args[:-1] == [BVar(n - 1 - innermost[name]) for name in names]


class TestEvalClosures:
    def test_motivating_term(self):
        result = db_normalize_by_evaluation(MOTIVATING)
        assert alpha_eq(result, parse_surface("a b f"))

    def test_s_applied_to_three(self):
        t = App(App(App(S_NAMED, Var("g")), Var("f")), Var("n"))
        v = db_whnf(t)
        assert isinstance(v, Spine)
        assert alpha_eq(db_normalize_by_evaluation(t), parse_surface("g n (f n)"))

    def test_whnf_stops_at_closure(self):
        t = App(App(S_NAMED, Var("g")), Var("f"))
        assert isinstance(db_whnf(t), DbClosure)

    def test_divergence(self):
        assert isinstance(db_whnf(OMEGA, fuel=500), FuelExhausted)

    def test_fuel_runs_out_at_an_apply(self):
        # Three steps reach the closure and its argument, the fourth enters
        # the closure and the fifth looks up its bound index.
        identity_applied = parse_surface(r"(\x. x) a")
        assert db_whnf(identity_applied, fuel=3) == FuelExhausted(3)
        assert db_whnf(identity_applied, fuel=5) == Spine("a")

    def test_exhaustion_at_every_budget_below_the_step_count(self):
        for term in (MOTIVATING, combinator_chain(5), leak_family(5)):
            full = Fuel(10**6)
            value = db_whnf(term, full)
            assert full.spent > 10
            for k in range(1, full.spent):
                fuel = Fuel(k)
                assert db_whnf(term, fuel) == FuelExhausted(k)
                assert (fuel.remaining, fuel.spent) == (0, k)
            assert db_whnf(term, Fuel(full.spent)) == value

    def test_index_past_the_environment_is_internal_error(self):
        closure = DbClosure(DLam(BVar(1)), None)
        with pytest.raises(InvariantError, match="^environment too short for index 1$"):
            db_apply(closure, Spine("a"))
        # Two past a one-value environment: the lookup runs off its end.
        closure = DbClosure(DLam(BVar(2)), None)
        with pytest.raises(InvariantError, match="^environment too short for index 2$"):
            db_apply(closure, Spine("a"))

    def test_fuel_counts_the_rule_that_raised(self):
        # Entering the closure is one rule; the lookup that raises is the
        # second.
        fuel = Fuel(10)
        with pytest.raises(InvariantError):
            db_apply(DbClosure(DLam(BVar(1)), None), Spine("a"), fuel)
        assert (fuel.spent, fuel.remaining) == (2, 8)

    def test_named_body_is_not_a_de_bruijn_term(self):
        fuel = Fuel(10)
        closure = DbClosure(DLam(Var("a")), None)
        with pytest.raises(TypeError, match=r"^not a de Bruijn term: Var\(name='a'\)$"):
            db_apply(closure, Spine("b"), fuel)
        assert fuel.spent == 2

    def test_normalize_runs_out_before_weak_head_normal_form(self):
        assert db_normalize_by_evaluation(OMEGA, fuel=50) == FuelExhausted(50)

    def test_closure_repr(self):
        closure = DbClosure(DLam(BVar(0)), _Cons(Spine("a"), None))
        assert repr(closure) == "DbClosure(DLam(body=BVar(index=0)), [Spine('a', [])])"

    def test_scope_wide_environment_retains_dead_values(self):
        n = 50
        loose = db_whnf(leak_term(n))
        exact = whnf(leak_term(n))
        assert isinstance(loose, DbClosure)
        gap = db_value_node_count(loose) - value_node_count(exact)
        assert gap >= n

    def test_leak_gap_grows_linearly(self):
        gaps = {}
        for n in (10, 100, 1000):
            loose = db_value_node_count(db_whnf(leak_term(n)))
            exact = value_node_count(whnf(leak_term(n)))
            gaps[n] = loose - exact
        assert gaps[100] - gaps[10] == 90
        assert gaps[1000] - gaps[100] == 900


class TestDbPrintValue:
    @pytest.mark.parametrize(
        "source, expected",
        [
            (r"(\x. \y. \w. x w) (g h)", r"\z0. \z1. g h z1"),
            (
                r"(\x. \y. \w. w x y) (f (\u. \v. u v) (\u. u))",
                r"\z0. \z1. z1 (f (\z2. \z3. z2 z3) (\z4. z4)) z0",
            ),
        ],
    )
    def test_closures_print_their_environment(self, source, expected):
        v = db_whnf(parse_surface(source))
        assert print_surface(print_value(v)) == expected

    def test_a_value_of_the_ordered_machine_is_refused(self):
        # from_debruijn prints de Bruijn terms only; an ordered-machine
        # value goes through print_value.
        with pytest.raises(TypeError, match="^not a de Bruijn term: Closure"):
            from_debruijn(whnf(parse_surface(r"\x. c x")))

    def test_a_named_term_is_refused(self):
        with pytest.raises(TypeError, match="^not a de Bruijn term: Var"):
            from_debruijn(Var("x"))


class TestDeepDbPrinting:
    # Built bottom-up and nested far past the recursion limit; the
    # printed text is compared, since == on deep terms would recurse.
    DEPTH = 100_000

    def test_nested_spine(self):
        v = Spine("x")
        for _ in range(self.DEPTH):
            v = Spine("f", _Cons(v, None))
        expected = "f (" * (self.DEPTH - 1) + "f x" + ")" * (self.DEPTH - 1)
        assert print_surface(print_value(v)) == expected

    def test_closure_under_deep_binders(self):
        # \z0. \z1. ... \zD. y z0, where y comes from the closure's
        # environment past all DEPTH + 1 binders in scope.
        body = DApp(BVar(self.DEPTH + 1), BVar(self.DEPTH))
        for _ in range(self.DEPTH):
            body = DLam(body)
        v = DbClosure(DLam(body), _Cons(Spine("y"), None))
        expected = "".join(f"\\z{i}. " for i in range(self.DEPTH + 1)) + "y z0"
        assert print_surface(print_value(v)) == expected


class TestDeepDbTerms:
    # \s. \z. s (s (... z)) and friends, nested far past the recursion
    # limit and handled on the test thread.
    DEPTH = 100_000

    def numeral(self):
        body = Var("z")
        for _ in range(self.DEPTH):
            body = App(Var("s"), body)
        return Lam("s", Lam("z", body))

    def numeral_text(self, s, z):
        return f"\\{s}. \\{z}. " + f"{s} (" * (self.DEPTH - 1) + f"{s} {z}" + ")" * (
            self.DEPTH - 1
        )

    def test_conversions(self):
        db = to_debruijn(self.numeral())
        assert db_free_names(db) == frozenset()
        assert locally_closed(db)
        assert not locally_closed(db.body)
        assert print_surface(from_debruijn(db)) == self.numeral_text("z0", "z1")

    def test_normalize_hsub(self):
        # The constant function takes the numeral under one binder, which
        # shifts it; the identity then reduces once under that binder.
        t = App(Lam("x", Lam("w", App(Lam("y", Var("y")), Var("x")))), self.numeral())
        assert print_surface(normalize_hsub(t)) == r"\z0. " + self.numeral_text(
            "z1", "z2"
        )

    def test_db_normalize_by_evaluation(self):
        result = db_normalize_by_evaluation(self.numeral(), 10**6)
        assert print_surface(result) == self.numeral_text("z0", "z1")

    def test_term_equality_and_hash(self):
        a, b = to_debruijn(self.numeral()), to_debruijn(self.numeral())
        assert a is not b and a == b and hash(a) == hash(b)
        assert {a: "found"}[b] == "found"
        assert a != DLam(DLam(DApp(BVar(0), a.body.body.arg)))
        assert DLam(BVar(0)) != DLam(FVar("x")) and BVar(0) != BVar(1)
        assert a != "not a term"

    def test_term_repr(self):
        text = repr(to_debruijn(self.numeral()))
        link = "DApp(fun=BVar(index=1), arg="
        start = "DLam(body=DLam(body=" + link
        end = "BVar(index=0)" + ")" * (self.DEPTH + 2)
        assert text.startswith(start) and text.endswith(end)
        assert len(text) == len(start) + (self.DEPTH - 1) * len(link) + len(end)
        # The dataclass-generated text, pinned for a small term.
        assert repr(to_debruijn(parse_surface(r"(\x. \y. a x y) b"))) == (
            "DApp(fun=DLam(body=DLam(body=DApp(fun=DApp(fun=FVar(name='a'), "
            "arg=BVar(index=1)), arg=BVar(index=0)))), arg=FVar(name='b'))"
        )

    def test_terms_of_the_three_families(self):
        # Never equal across families, even where the printed name agrees.
        named, ordered, db = Var("x"), Free("x"), FVar("x")
        assert named != ordered and ordered != db and db != named
        assert ordered != named and db != ordered and named != db
        assert len({named, ordered, db}) == 3
        # Equal terms built separately hash alike in every family.
        source = r"(\x. \y. a x y) b"
        for convert in (lambda m: m, parse_closed, to_debruijn):
            a, b = convert(parse_surface(source)), convert(parse_surface(source))
            assert a is not b and a == b and hash(a) == hash(b)

    def test_whnf_values_compare(self):
        # Each whnf is a closure holding the numeral's own binder node.
        a, b = db_whnf(self.numeral()), db_whnf(self.numeral())
        assert a is not b and a == b
        body = Var("z")
        for _ in range(self.DEPTH):
            body = App(Var("s"), body)
        assert a != db_whnf(Lam("z", Lam("s", body)))
        # Whole environments compare value by value.
        y = Spine("y")
        env = _Cons(y, None)
        lam = DLam(BVar(1))
        assert DbClosure(lam, env) == DbClosure(DLam(BVar(1)), _Cons(Spine("y"), None))
        assert DbClosure(lam, env) != DbClosure(lam, _Cons(Spine("w"), None))
        assert DbClosure(lam, env) != DbClosure(lam, _Cons(y, env))
        assert DbClosure(lam, env) != DbClosure(DLam(BVar(0)), env)
        assert DbClosure(DLam(BVar(0)), None) != whnf(Lam("x", Var("x")))


class TestNormalizeHsub:
    def test_motivating_term(self):
        assert alpha_eq(normalize_hsub(MOTIVATING), parse_surface("a b f"))

    def test_normalizes_under_binders(self):
        t = parse_surface(r"\x. (\y. y) x")
        assert alpha_eq(normalize_hsub(t), parse_surface(r"\x. x"))

    def test_church_exponentiation(self):
        def church(n):
            body = Var("z")
            for _ in range(n):
                body = App(Var("s"), body)
            return Lam("s", Lam("z", body))

        t = App(App(parse_surface(r"\m.\n. n m"), church(2)), church(3))
        result = normalize_hsub(t)
        assert alpha_eq(result, church(8))
        assert alpha_eq(result, normalize(t))

    def test_output_is_beta_normal(self):
        for term in gen_terms(53, 100, 35, 0.6):
            result = normalize_hsub(term, fuel=20_000)
            if isinstance(result, FuelExhausted):
                continue
            assert reduce_once_all(result) == []

    def test_divergence(self):
        assert isinstance(normalize_hsub(OMEGA, fuel=500), FuelExhausted)

    def test_depth_limit_is_not_reported_as_divergence(self):
        # Nested twice the recursion limit, the normal form is reached:
        # neither a RecursionError nor a FuelExhausted.
        deep = Var("a")
        for _ in range(2 * sys.getrecursionlimit()):
            deep = App(Var("f"), deep)
        result = normalize_hsub(App(Lam("x", Var("x")), deep))
        assert print_surface(result) == print_surface(deep)


class TestStrategyAgreement:
    def test_all_strategies_agree_on_converging_terms(self):
        from ordlam.machine import normalize_by_evaluation

        checked = 0
        for term in gen_terms(54, 150, 35, 0.6):
            oracle = normalize(term, fuel=20_000)
            if isinstance(oracle, FuelExhausted):
                continue
            ordered = normalize_by_evaluation(term, fuel=100_000)
            closures = db_normalize_by_evaluation(term, fuel=100_000)
            eager = normalize_hsub(term, fuel=100_000)
            for result in (ordered, closures, eager):
                if isinstance(result, FuelExhausted):
                    continue
                assert alpha_eq(result, oracle)
                checked += 1
        assert checked > 100


def distinct_names(n: int):
    """c a0 ... a(n-1)."""
    t = Var("c")
    for i in range(n):
        t = App(t, Var(f"a{i}"))
    return t


def peak_bytes(call, m) -> int:
    """The tracemalloc peak of call(m); m is built before tracing starts.

    tracemalloc does not see an allocation that CPython serves from one of
    its free lists (up to 2000 tuples per size), so the same call peaks
    lower when code run earlier in the process left a free list full; for
    the 4-tuples of the de Bruijn printer's tasks that was about 21 % at
    n = 1000. A full `gc.collect()` empties every free list, so the peak
    is taken from that emptied state and reads the same whatever ran
    before.
    """
    gc.collect()
    tracemalloc.start()
    try:
        call(m)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def distinct_closure(n: int):
    r"""\x. c a0 ... a(n-1) x."""
    return Lam("x", App(distinct_names(n), Var("x")))


NAME_READERS = pytest.mark.parametrize(
    "build, call",
    [
        (distinct_closure, lambda m: print_value(db_whnf(m))),
        (distinct_names, lambda m: from_debruijn(to_debruijn(m))),
    ],
    ids=["closure-print", "from-debruijn"],
)


class TestNameSpace:
    # Printing reads a term's free names with one walk, so a spine of n
    # distinct names costs O(n) space, not a set of names per node.
    @NAME_READERS
    def test_peak_grows_linearly(self, build, call):
        peaks = [peak_bytes(call, build(n)) for n in (1000, 2000, 4000)]
        assert all(b <= 2.5 * a for a, b in zip(peaks, peaks[1:])), peaks
        assert peaks[-1] < 2 * 2**20, peaks

    @NAME_READERS
    def test_peak_ignores_a_full_tuple_free_list(self, build, call):
        # A full 4-tuple free list before the call must not lower the peak.
        m = build(1000)
        gc.collect()
        emptied = peak_bytes(call, m)
        junk = [(i, i, i, i) for i in range(3000)]
        del junk
        filled = peak_bytes(call, m)
        assert abs(filled - emptied) <= 0.01 * emptied, (emptied, filled)

    @pytest.mark.parametrize("via", ["run-strategy", "eval"])
    def test_eager_strategy_peak_grows_linearly(self, tmp_path, capsys, via):
        # normalize_hsub names its binders from its own de Bruijn term, and
        # neither bench nor eval asks the named input for its free names.
        def bench_nf(m):
            assert run_strategy("beta-normal", m, 100).ok

        def eval_nf(path):
            assert main(["eval", path, "--strategy", "beta-normal", "--print", "nf"]) == 0

        peaks = []
        for n in (1000, 2000, 4000):
            m = distinct_closure(n)
            if via == "eval":
                path = tmp_path / f"{n}.lam"
                path.write_text(print_surface(m), encoding="utf-8")
                peaks.append(peak_bytes(eval_nf, str(path)))
            else:
                peaks.append(peak_bytes(bench_nf, m))
        assert all(b <= 2.5 * a for a, b in zip(peaks, peaks[1:])), peaks
        assert peaks[-1] < 8 * 2**20, peaks
