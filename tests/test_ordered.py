import sys

import pytest

from ordlam.debruijn import BVar, DApp, DLam, FVar, db_free_names, to_debruijn
from ordlam.gen import gen_terms
from ordlam.named import App, Lam, Var, alpha_eq, parse_surface
from ordlam.ordered import (
    DOT,
    Free,
    OApp,
    OLam,
    OrderedSyntaxError,
    ParseResult,
    is_ordered,
    ordered_free_names,
    parse_closed,
    read_ordered,
    subterms,
    to_ordered,
    write_ordered,
)
from ordlam.workloads import combinator_chain

S_NAMED = parse_surface(r"\x.\y.\z. x z (y z)")


def _random_valid_ordered(rng, depth, gamma):
    """A random ordered term over free names disjoint from gamma."""
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        return DOT if rng.random() < 0.6 else Free(rng.choice(("a", "b", "c")))
    if roll < 0.65:
        fun = _random_valid_ordered(rng, depth - 1, gamma)
        arg = _random_valid_ordered(rng, depth - 1, gamma)
        return OApp(fun, fun.fv, arg)
    body = _random_valid_ordered(rng, depth - 1, gamma)
    n = rng.randint(0, body.fv)
    budget = body.fv - n
    kvec = []
    for _ in range(n):
        gap = rng.randint(0, budget)
        kvec.append(gap)
        budget -= gap
    return OLam(tuple(kvec), body)


def _rename_binders(t, new_name, scope=None, depth=0):
    """Give every binder the name new_name(depth), keeping each bound
    occurrence with its binder unless a renamed inner binder captures it."""
    scope = scope or {}
    if isinstance(t, Var):
        return Var(scope.get(t.name, t.name))
    if isinstance(t, App):
        return App(
            _rename_binders(t.fun, new_name, scope, depth),
            _rename_binders(t.arg, new_name, scope, depth),
        )
    name = new_name(depth)
    body = _rename_binders(t.body, new_name, {**scope, t.binder: name}, depth + 1)
    return Lam(name, body)


def _free_occurrences(t, gamma, bound=frozenset()):
    """Free occurrences of gamma's names in t, left to right."""
    if isinstance(t, Var):
        return [t.name] if t.name in gamma and t.name not in bound else []
    if isinstance(t, App):
        return _free_occurrences(t.fun, gamma, bound) + _free_occurrences(
            t.arg, gamma, bound
        )
    return _free_occurrences(t.body, gamma, bound | {t.binder})


def _shadowing_binders(t, scope=frozenset()):
    if isinstance(t, Var):
        return 0
    if isinstance(t, App):
        return _shadowing_binders(t.fun, scope) + _shadowing_binders(t.arg, scope)
    return (t.binder in scope) + _shadowing_binders(t.body, scope | {t.binder})


# The ordered form of the S combinator: each binder records where its
# occurrences sit among the body's unbound dots, each application the
# dot count of its function part.
S_BODY3 = OApp(OApp(DOT, 1, DOT), 2, OApp(DOT, 1, DOT))
S_ORDERED = OLam((0,), OLam((1,), OLam((1, 1), S_BODY3)))

MOTIVATING = parse_surface(r"(\x.\y. a b y) g f")
MOTIVATING_ORDERED = OApp(
    OApp(
        OLam((), OLam((0,), OApp(OApp(Free("a"), 0, Free("b")), 0, DOT))),
        0,
        Free("g"),
    ),
    0,
    Free("f"),
)


class TestFvCount:
    def test_free_variable(self):
        assert Free("a").fv == 0

    def test_dot(self):
        assert DOT.fv == 1

    def test_binder_consumes_occurrences(self):
        t = OLam((1, 1), OApp(OApp(DOT, 1, DOT), 2, OApp(DOT, 1, DOT)))
        assert t.body.fv == 4
        assert t.fv == 2

    def test_negative_on_invalid_preterm(self):
        assert OLam((0, 0, 0), DOT).fv == -2


class TestIsOrdered:
    def test_s_combinator(self):
        assert is_ordered(S_ORDERED)

    def test_bad_split(self):
        assert not is_ordered(OApp(DOT, 0, DOT))

    def test_binder_overcommits(self):
        assert not is_ordered(OLam((0, 0), DOT))

    def test_sum_of_gaps_checked(self):
        assert not is_ordered(OLam((2,), DOT))
        assert is_ordered(OLam((0,), DOT))

    def test_nested_violation_found(self):
        bad = OLam((0,), OApp(OApp(DOT, 0, Free("a")), 0, DOT))
        assert not is_ordered(bad)


class TestToOrdered:
    def test_s_combinator(self):
        assert to_ordered(S_NAMED) == ParseResult(S_ORDERED, ())

    def test_free_variable_outside_context(self):
        assert to_ordered(Var("x")) == ParseResult(Free("x"), ())

    def test_variable_in_context_becomes_dot(self):
        assert to_ordered(Var("x"), frozenset({"x"})) == ParseResult(DOT, ("x",))

    def test_occurrence_list_is_left_to_right(self):
        t = parse_surface("x y x")
        result = to_ordered(t, frozenset({"x", "y"}))
        assert result.vars == ("x", "y", "x")
        assert result.term == OApp(OApp(DOT, 1, DOT), 2, DOT)

    def test_binder_over_context_variable(self):
        t = Lam("x", App(Var("x"), Var("y")))
        result = to_ordered(t, frozenset({"y"}))
        assert result.term == OLam((0,), OApp(DOT, 1, DOT))
        assert result.vars == ("y",)

    def test_shadowing_binder_renamed(self):
        # Inside \x. x the binder wins; the context x contributes nothing.
        result = to_ordered(Lam("x", Var("x")), frozenset({"x"}))
        assert result == ParseResult(OLam((0,), DOT), ())

    def test_shadowing_with_outer_occurrences(self):
        # x (\x. x y): first occurrence is the context's, inner one the binder's.
        t = App(Var("x"), Lam("x", App(Var("x"), Var("y"))))
        result = to_ordered(t, frozenset({"x", "y"}))
        assert result.vars == ("x", "y")
        assert result.term == OApp(DOT, 1, OLam((0,), OApp(DOT, 1, DOT)))

    def test_translation_is_deterministic(self):
        for term in gen_terms(5, 50, 40, 0.0):
            assert to_ordered(term) == to_ordered(term)

    def test_outputs_are_ordered_with_ordered_subterms(self):
        for term in gen_terms(6, 200, 50, 0.3):
            result = to_ordered(term)
            assert result.term.fv == len(result.vars)
            for sub in subterms(result.term):
                assert is_ordered(sub)

    def test_name_discipline(self):
        gamma = frozenset({"f", "g"})
        for term in gen_terms(8, 100, 40, 0.0):
            result = to_ordered(term, gamma)
            assert set(result.vars) <= gamma
            assert not (ordered_free_names(result.term) & gamma)

    def test_shadowing_binders_need_no_renaming(self):
        import random

        from ordlam.machine import print_ordered

        # Binder names drawn from {x, y}, and free a, b renamed to x, y:
        # inner binders shadow outer ones and the context's x and y.
        rng = random.Random(33)
        two_names = lambda depth: rng.choice(("x", "y"))
        terms = [
            _rename_binders(t, two_names, {"a": "x", "b": "y"})
            for t in gen_terms(12, 300, 50, 0.3)
        ]
        assert sum(_shadowing_binders(t) for t in terms) > 100
        for term in terms:
            apart = _rename_binders(term, lambda depth: f"r{depth}")
            for gamma in (frozenset(), frozenset({"x", "y", "a", "f"})):
                result = to_ordered(term, gamma)
                assert result == to_ordered(apart, gamma)
                assert list(result.vars) == _free_occurrences(term, gamma)
            assert alpha_eq(print_ordered(parse_closed(term), []), term)

    def test_every_valid_pair_is_reachable(self):
        # Generate valid (term, occurrence list) pairs directly, print the
        # dots as inert context variables, and re-translate: the original
        # pair must come back, so the translation is onto.
        import random

        from ordlam.machine import Spine, print_ordered

        rng = random.Random(271)
        gamma = ("u", "v", "w")
        for _ in range(300):
            term = _random_valid_ordered(rng, 5, gamma)
            occurrences = tuple(rng.choice(gamma) for _ in range(term.fv))
            assert is_ordered(term)
            named = print_ordered(term, [Spine(x) for x in occurrences])
            again = to_ordered(named, frozenset(gamma))
            assert again == ParseResult(term, occurrences)


class TestParseClosed:
    def test_s_combinator(self):
        assert parse_closed(S_NAMED) == S_ORDERED

    def test_motivating_term(self):
        assert parse_closed(MOTIVATING) == MOTIVATING_ORDERED

    def test_free_variable(self):
        assert parse_closed(Var("a")) == Free("a")


class TestSharedLambdas:
    """A lambda that parse_surface shares between two places translates
    once when its translation is closed in both, and anew where one of
    its free names is bound."""

    def test_closed_lambda_translates_once(self):
        t = parse_surface(r"(\x. x) (\x. x)")
        term = parse_closed(t)
        assert term.fun is term.arg
        d = to_debruijn(t)
        assert d.fun is d.arg

    def test_captured_copy_translates_with_a_dot(self):
        t = parse_surface(r"(\x. y x) (\y. (\x. y x))")
        assert t.fun is t.arg.body
        term = parse_closed(t)
        assert term.fun == OLam((0,), OApp(Free("y"), 0, DOT))
        assert term.arg == OLam((0,), OLam((1,), OApp(DOT, 1, DOT)))
        d = to_debruijn(t)
        assert d.fun == DLam(DApp(FVar("y"), BVar(0)))
        assert d.arg == DLam(DLam(DApp(BVar(1), BVar(0))))

    def test_copy_under_the_binder_first(self):
        t = parse_surface(r"(\y. (\x. y x)) (\x. y x)")
        term = parse_closed(t)
        assert term.fun == OLam((0,), OLam((1,), OApp(DOT, 1, DOT)))
        assert term.arg == OLam((0,), OApp(Free("y"), 0, DOT))
        d = to_debruijn(t)
        assert d.fun == DLam(DLam(DApp(BVar(1), BVar(0))))
        assert d.arg == DLam(DApp(FVar("y"), BVar(0)))

    def test_escape_from_a_nested_lambda_keeps_the_copy_open(self):
        # \z. a escapes both lambdas, so \x. \z. a is open under \a.
        t = parse_surface(r"(\a. \x. \z. a) (\x. \z. a)")
        assert t.fun.body is t.arg
        assert parse_closed(t).arg == OLam((), OLam((), Free("a")))
        assert to_debruijn(t).arg == DLam(DLam(FVar("a")))

    def test_context_name_is_not_closed(self):
        t = parse_surface(r"(\x. y x) (\x. y x)")
        result = to_ordered(t, frozenset({"y"}))
        lam = OLam((1,), OApp(DOT, 1, DOT))
        assert result == ParseResult(OApp(lam, 1, lam), ("y", "y"))

    def test_lambda_closed_inside_an_open_one(self):
        # \x. a x is open under \a, so only its inner closed \z. z is reused.
        t = parse_surface(r"\a. (\x. a x (\z. z)) (\x. a x (\z. z))")
        term = parse_closed(t)
        assert term.body.fun is not term.body.arg
        assert term.body.fun.body.arg is term.body.arg.body.arg
        d = to_debruijn(t)
        assert d.body.fun is not d.body.arg
        assert d.body.fun.body.arg is d.body.arg.body.arg
        assert d == DLam(DApp(*[DLam(DApp(DApp(BVar(1), BVar(0)), DLam(BVar(0))))] * 2))

    def test_free_names_walk_a_shared_lambda_once(self):
        # The innermost lambda is reached 2**40 times through the nested
        # applications; each walk visits every distinct node once.
        t, d = OLam((), Free("a")), DLam(FVar("a"))
        for _ in range(40):
            t, d = OLam((), OApp(t, 0, t)), DLam(DApp(d, d))
        assert ordered_free_names(t) == {"a"}
        assert db_free_names(d) == {"a"}

    def test_free_names_agree_with_the_named_term(self):
        # The named free_names is an independent walk; the corpus shares
        # nothing, the combinator chain shares its closed lambdas.
        for term in gen_terms(61, 300, 40, 0.3) + [combinator_chain(50)]:
            assert ordered_free_names(parse_closed(term)) == term.free_names
            assert db_free_names(to_debruijn(term)) == term.free_names


class TestTextFormat:
    def test_s_combinator_written(self):
        assert (
            write_ordered(S_ORDERED)
            == "(lam (0) (lam (1) (lam (1 1) (app 2 (app 1 . .) (app 1 . .)))))"
        )

    def test_free_variable(self):
        assert write_ordered(Free("x")) == "x"
        assert read_ordered("x") == Free("x")

    def test_round_trip_is_exact(self):
        for term in gen_terms(9, 300, 60, 0.3):
            ordered = parse_closed(term)
            text = write_ordered(ordered)
            assert read_ordered(text) == ordered
            assert write_ordered(read_ordered(text)) == text

    def test_double_conversion_byte_identical(self):
        # Converting named -> ordered, printing back, and converting again
        # reproduces the ordered text byte for byte: the nameless form is
        # a canonical representative of the alpha class.
        from ordlam.machine import print_ordered

        for term in gen_terms(10, 1000, 60, 0.3):
            first = write_ordered(parse_closed(term))
            named_again = print_ordered(read_ordered(first), [])
            assert write_ordered(parse_closed(named_again)) == first

    def test_empty_kvec(self):
        t = OLam((), Free("a"))
        assert write_ordered(t) == "(lam () a)"
        assert read_ordered("(lam () a)") == t

    def test_reads_invalid_preterms(self):
        # Syntactically fine, semantically invalid; validity is is_ordered's job.
        t = read_ordered("(app 0 . .)")
        assert t == OApp(DOT, 0, DOT)
        assert not is_ordered(t)

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "(",
            "(app 1 . .",
            "(app . .)",
            "(lam 0 .)",
            "(lam (0) . extra)",
            "(foo 1 . .)",
            "(app -1 . .)",
            ") x",
            "x y",
        ],
    )
    def test_malformed_input_rejected(self, bad):
        with pytest.raises(OrderedSyntaxError):
            read_ordered(bad)

    def test_end_of_input_where_an_integer_belongs(self):
        message = "^unexpected end of input, expected an integer$"
        with pytest.raises(OrderedSyntaxError, match=message):
            read_ordered("(app")

    def test_write_needs_an_ordered_term(self):
        with pytest.raises(TypeError, match=r"^not an ordered term: Var\(name='a'\)$"):
            write_ordered(Var("a"))

    @pytest.mark.parametrize("number", ["+0", "0_0", "1_0", "\u0660", "-1"])
    @pytest.mark.parametrize("form", ["(app {} x y)", "(lam (0 {}) (app 1 . .))"])
    def test_integers_are_ascii_digits_only(self, form, number):
        # int() would read each of these (the Arabic-Indic zero included).
        with pytest.raises(OrderedSyntaxError) as exc:
            read_ordered(form.format(number))
        assert str(exc.value) == f"expected a non-negative integer, got {number!r}"

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="int() has no digit limit",
    )
    def test_integer_past_the_digit_limit(self):
        with pytest.raises(OrderedSyntaxError, match="^expected a non-negative integer"):
            read_ordered(f"(app {'1' * (sys.get_int_max_str_digits() + 1)} x y)")

    @pytest.mark.parametrize("name", ["é", "xé", "x-y", "2x"])
    def test_names_the_surface_syntax_rejects_are_rejected(self, name):
        with pytest.raises(OrderedSyntaxError):
            read_ordered(name)

    @pytest.mark.parametrize("name", ["x", "_", "x2'", "Foo_bar"])
    def test_surface_names_are_accepted(self, name):
        assert read_ordered(name) == Free(name) == parse_closed(parse_surface(name))


class TestDeepTerms:
    def test_walks_handle_depth_beyond_the_recursion_limit(self):
        # Built bottom-up so construction itself never recurses.
        depth = 100_000
        t = DOT
        prefixes, suffixes = [], []
        for i in range(depth):
            if i % 2:
                t = OApp(t, 1, Free("a"))
                prefixes.append("(app 1 ")
                suffixes.append(" a)")
            else:
                t = OLam((0,), OApp(t, 1, DOT))
                prefixes.append("(lam (0) (app 1 ")
                suffixes.append(" .))")
        assert sum(1 for _ in subterms(t)) == 2 * depth + 1 + depth // 2
        assert is_ordered(t)
        assert ordered_free_names(t) == {"a"}
        expected = "".join(reversed(prefixes)) + "." + "".join(suffixes)
        assert write_ordered(t) == expected
        assert write_ordered(read_ordered(expected)) == expected

    def test_equality_and_hash_handle_depth_beyond_the_recursion_limit(self):
        depth = 100_000

        def numeral(leaf, split=1):
            body = leaf
            for _ in range(depth):
                body = OApp(DOT, split, body)
            return OLam((0,) * depth, OLam((depth,), body))

        a, b = numeral(DOT), numeral(DOT)
        assert a is not b and a == b and hash(a) == hash(b)
        assert {a: "found"}[b] == "found"
        assert a != numeral(Free("z"))
        assert OApp(DOT, 1, a) != OApp(DOT, 0, b)
        assert a != "not a term"

    def test_repr(self):
        depth = 100_000
        body = Var("z")
        for _ in range(depth):
            body = App(Var("s"), body)
        text = repr(parse_closed(Lam("s", Lam("z", body))))
        link = "OApp(fun=Dot(), split=1, arg="
        start = f"OLam(kvec=({'0, ' * (depth - 1)}0), body=OLam(kvec=({depth},), body="
        end = "Dot()" + ")" * (depth + 2)
        assert text.startswith(start + link) and text.endswith(end)
        assert len(text) == len(start) + depth * len(link) + len(end)
        # The dataclass-generated text, pinned for a small term.
        assert repr(parse_closed(parse_surface(r"(\x. \y. a x y) b"))) == (
            "OApp(fun=OLam(kvec=(0,), body=OLam(kvec=(1,), body=OApp(fun=OApp("
            "fun=Free(name='a'), split=0, arg=Dot()), split=1, arg=Dot()))), "
            "split=0, arg=Free(name='b'))"
        )
        assert repr(OLam((), Free("a"))) == "OLam(kvec=(), body=Free(name='a'))"

    def test_read_error_past_deep_nesting(self):
        depth = 100_000
        with pytest.raises(OrderedSyntaxError, match="unexpected end of input"):
            read_ordered("(app 0 a " * depth)

    def test_translation_handles_depth_beyond_the_recursion_limit(self):
        # \s. \z. s (s (... z)), built bottom-up; in the context {s, z}
        # its body becomes nested dots standing for s ... s z.
        depth = 100_000
        body = Var("z")
        for _ in range(depth):
            body = App(Var("s"), body)
        dots = "(app 1 . " * depth + "." + ")" * depth
        result = to_ordered(body, frozenset({"s", "z"}))
        assert result.vars == ("s",) * depth + ("z",)
        assert write_ordered(result.term) == dots
        kvec = " ".join(["0"] * depth)
        numeral = parse_closed(Lam("s", Lam("z", body)))
        assert write_ordered(numeral) == f"(lam ({kvec}) (lam ({depth}) {dots}))"

    def test_left_nested_translation_handles_depth_beyond_the_recursion_limit(self):
        # x a b a b ...: every argument is a variable, waiting for the
        # function part to its left; in the context {a} each a is a dot.
        depth = 100_000
        t = Var("x")
        for i in range(depth):
            t = App(t, Var("ab"[i % 2]))
        result = to_ordered(t, frozenset({"a"}))
        assert result.vars == ("a",) * (depth // 2)
        prefixes = [f"(app {(i + 1) // 2} " for i in reversed(range(depth))]
        suffixes = [" .)" if i % 2 == 0 else " b)" for i in range(depth)]
        assert write_ordered(result.term) == "".join(prefixes) + "x" + "".join(suffixes)

    def test_free_names_of_right_nested_spines(self):
        # f (g (f ... x)) in both nameless families.
        depth = 100_000
        t, d = Free("x"), FVar("x")
        for i in range(depth):
            t, d = OApp(Free("fg"[i % 2]), 0, t), DApp(FVar("fg"[i % 2]), d)
        assert ordered_free_names(t) == {"f", "g", "x"}
        assert db_free_names(d) == {"f", "g", "x"}
