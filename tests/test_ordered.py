import pytest

from ordlam.gen import gen_terms
from ordlam.named import App, Lam, Var, parse_surface
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

    @pytest.mark.parametrize("name", ["é", "xé", "x-y", "2x"])
    def test_names_the_surface_syntax_rejects_are_rejected(self, name):
        with pytest.raises(OrderedSyntaxError):
            read_ordered(name)

    @pytest.mark.parametrize("name", ["x", "_", "x2'", "Foo_bar"])
    def test_surface_names_are_accepted(self, name):
        assert read_ordered(name) == Free(name) == parse_closed(parse_surface(name))
