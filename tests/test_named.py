import random
import re
import sys

import pytest

from ordlam import named
from ordlam.named import (
    App,
    FuelExhausted,
    Lam,
    ParseError,
    Var,
    alpha_eq,
    alpha_key,
    is_normal,
    normalize,
    parse_surface,
    print_surface,
    reduce_once_all,
    subst,
    whnf_oracle,
)
from ordlam.ordered import Free

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


def deeper_than_the_recursion_limit() -> App:
    """(\\x. x) applied to s (s (... z)) nested past the recursion limit."""
    return App(Lam("x", Var("x")), church(2 * sys.getrecursionlimit()).body.body)


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


# (text, message, line, column); lines split only at \n, columns count
# code points from 1, and the end sits just past the last token.
PARSE_ERRORS = [
    ("", "empty input", 1, 1),
    (" \n\t ", "empty input", 1, 1),
    ("a b\n  ?", "unexpected character '?'", 2, 3),
    ("a ) é", "unexpected character 'é'", 1, 5),
    ("a\r\n\r\n  é", "unexpected character 'é'", 3, 3),
    ("a 9", "unexpected character '9'", 1, 3),
    ("a 'b", "unexpected character \"'\"", 1, 3),
    ("x = y", "unexpected character '='", 1, 3),
    ("€", "unexpected character '€'", 1, 1),
    ("\\9. x", "unexpected character '9'", 1, 2),
    ("λx=. x", "unexpected character '='", 1, 3),
    ("(\\x. ) =", "unexpected character '='", 1, 8),
    ("a\r\n)", "unexpected ')' after the term", 2, 1),
    ("\tx )", "unexpected ')' after the term", 1, 4),
    ("x\t\t)", "unexpected ')' after the term", 1, 4),
    ("a\x85)", "unexpected ')' after the term", 1, 3),
    ("a\x0b\x0c)", "unexpected ')' after the term", 1, 4),
    ("a9' )", "unexpected ')' after the term", 1, 5),
    ("a .", "unexpected '.' after the term", 1, 3),
    ("x))", "unexpected ')' after the term", 1, 2),
    ("\\x.\xa0)", "expected a term", 1, 5),
    ("\\x.", "expected a term", 1, 4),
    ("()", "expected a term", 1, 2),
    (") a", "expected a term", 1, 1),
    ("(\\x.)", "expected a term", 1, 5),
    ("\\", "expected a binder name after the lambda", 1, 2),
    ("λ", "expected a binder name after the lambda", 1, 2),
    ("\\.", "expected a binder name after the lambda", 1, 2),
    ("λ(x", "expected a binder name after the lambda", 1, 2),
    ("\\x . \\y . \\", "expected a binder name after the lambda", 1, 12),
    ("\\x", "expected '.' after the binder", 1, 3),
    ("\\x y", "expected '.' after the binder", 1, 4),
    ("(a b", "expected ')'", 1, 5),
    ("(a b\n", "expected ')'", 1, 5),
    ("(((x", "expected ')'", 1, 5),
    ("a (\\x. x", "expected ')'", 1, 9),
    ("x\n\n  (y\n   λ", "expected ')'", 4, 4),
]


@pytest.mark.parametrize(("text", "message", "line", "col"), PARSE_ERRORS)
def test_parse_error_position(text, message, line, col):
    with pytest.raises(ParseError) as exc:
        parse_surface(text)
    assert (str(exc.value), exc.value.line, exc.value.col) == (
        f"{line}:{col}: {message}",
        line,
        col,
    )


@pytest.mark.parametrize(
    ("text", "expected"),
    [
        ("\\x. a\xa0b\u3000c", Lam("x", App(App(Var("a"), Var("b")), Var("c")))),
        ("\x85a\r\n", Var("a")),
        ("a9'", Var("a9'")),
        ("a9 b_'", App(Var("a9"), Var("b_'"))),
    ],
)
def test_unicode_spaces_and_identifier_characters(text, expected):
    assert parse_surface(text) == expected


def test_split_and_regex_agree_on_whitespace():
    # The split tokenizer separates words where str.isspace() holds and
    # _NO_TOKEN lets through what \s matches; both must be one set.
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    spaces = "".join(c for c in every if c.isspace())
    assert "".join(re.findall(r"\s", every)) == spaces
    assert named._NO_TOKEN.search(spaces) is None
    assert ("a" + spaces + "b").split() == ["a", "b"]


def test_split_tokens_are_the_regex_tokens_when_no_character_is_bad():
    rng = random.Random(17)
    alphabet = "\\λ.()  \t\n\rabxyz_'09" + "\x1c\x1d\x1e\x1f\x85\xa0\u3000=1'"
    clean = 0
    for _ in range(100_000):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randrange(16)))
        if named._NO_TOKEN.search(s) is None:
            clean += 1
            assert named._split_tokens(s) == named._TOKEN.findall(s), s
    assert clean > 20_000


def test_repeat_free_spine_shares_every_var():
    # \x0 ... \x899. c (f x0) ... (f x899): no application repeats, and
    # each name is one Var node wherever it occurs.
    n = 900
    text = "".join(f"\\x{i}. " for i in range(n))
    text += "c " + " ".join(f"(f x{i})" for i in range(n))
    t = parse_surface(text)
    by_name = {}
    stack = [t]
    distinct = set()
    while stack:
        u = stack.pop()
        distinct.add(id(u))
        if type(u) is Var:
            by_name.setdefault(u.name, set()).add(id(u))
        elif type(u) is App:
            stack += (u.fun, u.arg)
        else:
            stack.append(u.body)
    assert len(by_name) == n + 2
    assert all(len(ids) == 1 for ids in by_name.values())
    # n lambdas, n spine applications, n (f xi), n + 2 names.
    assert len(distinct) == 4 * n + 2
    assert t.node_count == 5 * n + 1


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

    @pytest.mark.parametrize("nesting", ["left", "right"])
    def test_application_chain_deeper_than_the_recursion_limit(self, nesting):
        depth = 100_000
        t = Var("x")
        for _ in range(depth):
            t = App(t, Var("a")) if nesting == "left" else App(Var("f"), t)
        expected = (
            "x" + " a" * depth
            if nesting == "left"
            else "f (" * (depth - 1) + "f x" + ")" * (depth - 1)
        )
        assert print_surface(t) == expected

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


@pytest.mark.parametrize("oracle", [normalize, whnf_oracle])
def test_depth_limit_is_not_reported_as_divergence(oracle):
    # Past the recursion limit the oracles still reach the normal form
    # (here also the weak head normal form): never FuelExhausted.
    t = deeper_than_the_recursion_limit()
    assert print_surface(oracle(t)) == print_surface(t.arg)


class TestDeepTerms:
    # Nested far past the recursion limit and handled on the test thread.
    # Results are compared as printed text or alpha keys, so that each
    # walk is checked on its own; == and hash() have their own test.
    DEPTH = 100_000

    def chain(self, innermost, head="s"):
        """head (head (... innermost)), DEPTH applications deep."""
        t = innermost
        for _ in range(self.DEPTH):
            t = App(Var(head), t)
        return t

    def chain_text(self, innermost, head="s"):
        return f"{head} (" * (self.DEPTH - 1) + f"{head} {innermost}" + ")" * (
            self.DEPTH - 1
        )

    def test_parse_surface(self):
        text = r"\s. \z. " + self.chain_text("z")
        assert print_surface(parse_surface(text)) == text
        assert alpha_key(parse_surface(text)) == alpha_key(church(self.DEPTH))

    def test_parse_error_past_deep_nesting(self):
        with pytest.raises(ParseError) as exc:
            parse_surface("(" * self.DEPTH + "x")
        assert str(exc.value) == f"1:{self.DEPTH + 2}: expected ')'"

    def test_free_names_and_node_count(self):
        numeral = church(self.DEPTH)
        assert numeral.body.body.free_names == {"s", "z"}
        assert numeral.free_names == frozenset()
        assert numeral.node_count == 2 * self.DEPTH + 3

    def test_alpha_eq(self):
        same = Lam("f", Lam("x", self.chain(Var("x"), "f")))
        other = Lam("f", Lam("x", self.chain(Var("f"), "f")))
        assert alpha_eq(church(self.DEPTH), same)
        assert not alpha_eq(church(self.DEPTH), other)

    def test_equality_and_hash(self):
        a, b = church(self.DEPTH), church(self.DEPTH)
        assert a is not b and a == b and hash(a) == hash(b)
        assert {a: "found"}[b] == "found"
        assert a != Lam("s", Lam("z", self.chain(Var("s"))))
        assert a != Lam("s", Lam("y", self.chain(Var("z"))))
        assert Lam("x", Var("x")) != Lam("y", Var("x"))
        assert App(Var("x"), Var("y")) != App(Var("y"), Var("x"))
        assert a != "not a term"

    def test_repr(self):
        text = repr(church(self.DEPTH))
        link = "App(fun=Var(name='s'), arg="
        start = "Lam(binder='s', body=Lam(binder='z', body=" + link
        end = "Var(name='z')" + ")" * (self.DEPTH + 2)
        assert text.startswith(start) and text.endswith(end)
        assert len(text) == len(start) + (self.DEPTH - 1) * len(link) + len(end)
        # The dataclass-generated text, pinned for a small term.
        assert repr(parse_surface(r"(\x. \y. a x y) b")) == (
            "App(fun=Lam(binder='x', body=Lam(binder='y', body=App(fun=App("
            "fun=Var(name='a'), arg=Var(name='x')), arg=Var(name='y')))), "
            "arg=Var(name='b'))"
        )

    def test_subst_renames_a_capturing_binder(self):
        t = Lam("s", self.chain(Var("x")))
        result = subst(t, "x", Var("s"))
        assert print_surface(result) == r"\z0. " + self.chain_text("s", "z0")

    def test_reduce_once_all_and_normalize(self):
        t = self.chain(App(Lam("x", Var("x")), Var("a")), "f")
        (reduct,) = reduce_once_all(t)
        expected = self.chain_text("a", "f")
        assert print_surface(reduct) == expected
        assert print_surface(normalize(t, max_nodes=10**6)) == expected
        assert is_normal(reduct)

    def test_whnf_oracle(self):
        t = App(Lam("x", Lam("y", Var("x"))), self.chain(Var("z")))
        result = whnf_oracle(t, max_nodes=10**6)
        assert print_surface(result) == r"\y. " + self.chain_text("z")


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


class TestOracleFuel:
    # The oracles spend a Fuel as every reducer does: one unit per
    # contraction, taken once a redex is found, so a budget of exactly
    # the steps returns the result.
    ONE_STEP = parse_surface(r"(\x. x) a")
    TWO_STEPS = parse_surface(r"(\x. x) ((\y. y) a)")

    @pytest.mark.parametrize("oracle", [normalize, whnf_oracle])
    def test_a_budget_of_exactly_the_steps_is_enough(self, oracle):
        assert oracle(self.ONE_STEP, fuel=1) == Var("a")
        assert oracle(self.TWO_STEPS, fuel=1) == FuelExhausted(1)
        assert oracle(self.TWO_STEPS, fuel=2) == Var("a")

    @pytest.mark.parametrize("oracle", [normalize, whnf_oracle])
    def test_a_shared_fuel_counts_the_contractions(self, oracle):
        fuel = named.Fuel(10)
        assert oracle(self.TWO_STEPS, fuel) == Var("a")
        assert (fuel.spent, fuel.remaining) == (2, 8)

    @pytest.mark.parametrize("oracle", [normalize, whnf_oracle])
    def test_fuel_must_be_positive(self, oracle):
        with pytest.raises(ValueError, match="^fuel must be positive$"):
            oracle(self.ONE_STEP, fuel=0)

    def test_whnf_oracle_gives_up_past_the_node_ceiling(self):
        # Each head step adds 7 nodes to the 13 of the redex.
        grower = parse_surface(r"(\x. x x x) (\x. x x x)")
        assert whnf_oracle(grower, fuel=10**9, max_nodes=50) == FuelExhausted(6)


def test_print_surface_needs_a_named_term():
    with pytest.raises(TypeError, match=r"^not a named term: Free\(name='a'\)$"):
        print_surface(Free("a"))
