import pytest

from ordlam.named import (
    App,
    FuelExhausted,
    Lam,
    ParseError,
    Var,
    alpha_eq,
    is_normal,
    normalize,
    parse_surface,
    print_surface,
    reduce_once_all,
    subst,
    whnf_oracle,
)

S_COMBINATOR = Lam(
    "x",
    Lam("y", Lam("z", App(App(Var("x"), Var("z")), App(Var("y"), Var("z"))))),
)

MOTIVATING = App(
    App(Lam("x", Lam("y", App(App(Var("a"), Var("b")), Var("y")))), Var("g")),
    Var("f"),
)


def church(n: int) -> Lam:
    body = Var("z")
    for _ in range(n):
        body = App(Var("s"), body)
    return Lam("s", Lam("z", body))


class TestParse:
    def test_s_combinator(self):
        assert parse_surface(r"\x.\y.\z. x z (y z)") == S_COMBINATOR

    def test_single_variable(self):
        assert parse_surface("x") == Var("x")

    def test_motivating_term(self):
        assert parse_surface(r"(\x.\y. a b y) g f") == MOTIVATING

    def test_unicode_lambda(self):
        assert parse_surface("λx. x") == Lam("x", Var("x"))

    def test_application_left_associative(self):
        assert parse_surface("a b c") == App(App(Var("a"), Var("b")), Var("c"))

    def test_primes_in_identifiers(self):
        assert parse_surface("\\x'. x'") == Lam("x'", Var("x'"))

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_surface("   ")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_surface("a b\n  ?")
        assert exc.value.line == 2
        assert exc.value.col == 3

    def test_unclosed_paren(self):
        with pytest.raises(ParseError):
            parse_surface("(a b")

    def test_missing_body(self):
        with pytest.raises(ParseError):
            parse_surface("\\x.")


class TestPrint:
    def test_variable(self):
        assert print_surface(Var("x")) == "x"

    def test_s_combinator(self):
        assert print_surface(S_COMBINATOR) == r"\x. \y. \z. x z (y z)"

    def test_flat_application(self):
        assert print_surface(App(App(Var("a"), Var("b")), Var("f"))) == "a b f"

    def test_round_trip_examples(self):
        for t in (S_COMBINATOR, MOTIVATING, church(3), Lam("x", Var("y"))):
            assert alpha_eq(parse_surface(print_surface(t)), t)

    def test_right_nested_application_parenthesized(self):
        t = App(Var("a"), App(Var("b"), Var("c")))
        assert print_surface(t) == "a (b c)"
        assert parse_surface(print_surface(t)) == t

    def test_round_trip_on_corpus(self):
        from ordlam.gen import gen_terms

        for t in gen_terms(77, 300, 60, 0.3):
            assert alpha_eq(parse_surface(print_surface(t)), t)


class TestAlphaEq:
    def test_identity_renaming(self):
        assert alpha_eq(Lam("x", Var("x")), Lam("y", Var("y")))

    def test_distinct_free_names(self):
        assert not alpha_eq(Lam("x", Var("a")), Lam("x", Var("b")))

    def test_consistent_renaming(self):
        t = parse_surface(r"\x.\y. x z (y z)")
        u = parse_surface(r"\a.\b. a z (b z)")
        assert alpha_eq(t, u)

    def test_free_variable_compared_literally(self):
        assert alpha_eq(Var("x"), Var("x"))
        assert not alpha_eq(Var("x"), Var("y"))

    def test_bound_vs_free(self):
        assert not alpha_eq(Lam("x", Var("x")), Lam("x", Var("y")))

    def test_equivalence_relation(self):
        ts = [S_COMBINATOR, parse_surface(r"\u.\v.\w. u w (v w)"), MOTIVATING]
        for t in ts:
            assert alpha_eq(t, t)
        assert alpha_eq(ts[0], ts[1]) and alpha_eq(ts[1], ts[0])


class TestSubst:
    def test_plain_replacement(self):
        assert subst(App(Var("x"), Var("y")), "x", Var("g")) == App(
            Var("g"), Var("y")
        )

    def test_capture_avoided(self):
        # [x / y] in \x. x y must not capture the substituted x.
        t = Lam("x", App(Var("x"), Var("y")))
        result = subst(t, "y", Var("x"))
        assert isinstance(result, Lam)
        assert result.binder != "x"
        assert result.body == App(Var(result.binder), Var("x"))
        assert result.free_names == frozenset({"x"})

    def test_no_free_occurrence_is_identity(self):
        t = Lam("y", App(App(Var("a"), Var("b")), Var("y")))
        assert subst(t, "x", Var("g")) is t

    def test_shadowed_binder_blocks(self):
        t = Lam("x", Var("x"))
        assert subst(t, "x", Var("g")) is t

    def test_free_name_equation(self):
        cases = [
            (MOTIVATING, "a", parse_surface("g h")),
            (parse_surface(r"\y. x y"), "x", parse_surface(r"\u. u u")),
            (parse_surface("x x y"), "x", Var("y")),
        ]
        for t, x, s in cases:
            expected = t.free_names - {x}
            if x in t.free_names:
                expected |= s.free_names
            assert subst(t, x, s).free_names == expected


class TestReduceOnceAll:
    def test_single_redex(self):
        results = reduce_once_all(parse_surface(r"(\x.x) a"))
        assert len(results) == 1
        assert alpha_eq(results[0], Var("a"))

    def test_no_redex(self):
        assert reduce_once_all(parse_surface("a b")) == []

    def test_two_redex_positions(self):
        t = parse_surface(r"(\x. x x) ((\y.y) z)")
        results = reduce_once_all(t)
        expected = [
            parse_surface(r"((\y.y) z) ((\y.y) z)"),
            parse_surface(r"(\x. x x) z"),
        ]
        assert len(results) == 2
        for e in expected:
            assert any(alpha_eq(r, e) for r in results)

    def test_redex_under_binder(self):
        results = reduce_once_all(parse_surface(r"\u. (\x.x) u"))
        assert len(results) == 1
        assert alpha_eq(results[0], parse_surface(r"\u. u"))


class TestNormalize:
    def test_motivating_example(self):
        assert alpha_eq(normalize(MOTIVATING), parse_surface("a b f"))

    def test_normal_form_fixed_point(self):
        assert normalize(Var("a")) == Var("a")

    def test_church_exponentiation(self):
        exp = parse_surface(r"\m.\n. n m")
        t = App(App(exp, church(2)), church(2))
        assert alpha_eq(normalize(t), church(4))

    def test_result_is_normal(self):
        for t in (MOTIVATING, App(App(parse_surface(r"\m.\n. n m"), church(2)), church(3))):
            result = normalize(t)
            assert reduce_once_all(result) == []
            assert is_normal(result)

    def test_divergent_exhausts_fuel(self):
        omega = parse_surface(r"(\x. x x) (\x. x x)")
        assert isinstance(normalize(omega, fuel=100), FuelExhausted)

    def test_growth_hits_node_ceiling(self):
        grower = parse_surface(r"(\x. x x x) (\x. x x x)")
        result = normalize(grower, fuel=10**9, max_nodes=4000)
        assert isinstance(result, FuelExhausted)

    def test_church_rosser_sanity(self):
        t = parse_surface(r"(\x. x x) ((\y.y) z)")
        want = normalize(t)
        for u in reduce_once_all(t):
            got = normalize(u)
            assert alpha_eq(got, want)


class TestWhnfOracle:
    def test_one_head_step(self):
        t = parse_surface(r"(\x.\y. x) a")
        assert alpha_eq(whnf_oracle(t), parse_surface(r"\y. a"))

    def test_inert_head_arguments_untouched(self):
        t = parse_surface(r"a ((\x.x) b)")
        assert whnf_oracle(t) == t

    def test_s_applied_to_three(self):
        t = App(App(App(S_COMBINATOR, Var("g")), Var("f")), Var("n"))
        assert alpha_eq(whnf_oracle(t), parse_surface("g n (f n)"))

    def test_lambda_is_whnf(self):
        omega = parse_surface(r"(\x. x x) (\x. x x)")
        t = Lam("x", omega)
        assert whnf_oracle(t) == t

    def test_divergent_exhausts_fuel(self):
        omega = parse_surface(r"(\x. x x) (\x. x x)")
        assert isinstance(whnf_oracle(omega, fuel=50), FuelExhausted)
