from ordlam.baselines import (
    BVar,
    DApp,
    DbClosure,
    DLam,
    FVar,
    db_normalize_by_evaluation,
    db_value_node_count,
    db_whnf,
    from_debruijn,
    locally_closed,
    normalize_hsub,
    to_debruijn,
)
from ordlam.gen import gen_terms
from ordlam.machine import Spine, value_node_count, whnf
from ordlam.named import (
    App,
    FuelExhausted,
    Lam,
    Var,
    alpha_eq,
    normalize,
    parse_surface,
    reduce_once_all,
)

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

    def test_shadowing(self):
        assert to_debruijn(parse_surface(r"\x.\x. x")) == DLam(DLam(BVar(0)))

    def test_locally_closed(self):
        for term in gen_terms(51, 100, 40, 0.3):
            assert locally_closed(to_debruijn(term))

    def test_round_trip_alpha_equal(self):
        for term in gen_terms(52, 100, 40, 0.3):
            assert alpha_eq(from_debruijn(to_debruijn(term)), term)


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
