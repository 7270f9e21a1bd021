from collections import Counter

import pytest

from ordlam import baselines, machine, named
from ordlam.bench import run_strategy
from ordlam.envseq import _FLAT, _TREE_MIN, BACKENDS, ListEnv, TreeEnv, _Cons
from ordlam.errors import InvariantError
from ordlam.gen import gen_terms
from ordlam.machine import (
    DEFAULT_FUEL,
    Closure,
    Done,
    Fuel,
    NON_BETA_RULES,
    Pair,
    Pending,
    RULE_BETA,
    RULE_BOUND,
    RULE_CLOSE,
    RULE_SPINE,
    RULE_SPLIT,
    RULE_VAR,
    Spine,
    _decompose,
    _plug,
    apply_value,
    evaluate,
    machine_trace,
    normalize_by_evaluation,
    print_expr,
    print_ordered,
    print_value,
    readback_normal_form,
    run_machine,
    step,
    value_node_count,
    verify_trace,
    weight,
    whnf,
)
from ordlam.named import (
    App,
    FuelExhausted,
    Lam,
    NamedTerm,
    Var,
    alpha_eq,
    normalize,
    parse_surface,
    print_surface,
    reduce_once_all,
)
from ordlam.ordered import DOT, Free, OApp, OLam, OrderedTerm, parse_closed
from ordlam.workloads import build_workload, combinator_chain, leak_family, wide_binder

from mutation import install

S_NAMED = parse_surface(r"\x.\y.\z. x z (y z)")
S_BODY3 = OApp(OApp(DOT, 1, DOT), 2, OApp(DOT, 1, DOT))
OMEGA = parse_surface(r"(\x. x x) (\x. x x)")
MOTIVATING = parse_surface(r"(\x.\y. a b y) g f")
# Bound variables applied down a spine, x (y (x (y c))), and 2 applied to
# 3 and then to g and x: runs of bound heads with split 1, over a
# spine's values and over closures.
BOUND_HEADS = parse_surface(r"(\x. \y. x (y (x (y c)))) a b")
NUMERAL_APPLIED = parse_surface(r"(\s. \z. s (s z)) (\s. \z. s (s (s z))) g x")

# step reaches each backend's split_at and multi_insert through the
# evaluator's loop, so the machine tests run on every backend in BACKENDS:
# on the list through the module's backend fixture, which keeps their
# test ids, and on the others through a subclass with OnOtherBackends.
OTHER_BACKENDS = {name: env for name, env in BACKENDS.items() if env is not ListEnv}


@pytest.fixture
def backend():
    return ListEnv


class OnOtherBackends:
    @pytest.fixture(params=list(OTHER_BACKENDS.values()), ids=list(OTHER_BACKENDS))
    def backend(self, request):
        return request.param


def spine(name, *args):
    cell = None  # the argument chain, last argument first
    for a in args:
        cell = _Cons(a, cell)
    return Spine(name, cell)


def right_nested_spine(n: int) -> NamedTerm:
    """f (g (f ... x)) with n applications."""
    t = Var("x")
    for i in range(n):
        t = App(Var("fg"[i % 2]), t)
    return t


def left_nested_spine(n: int, first_applied: bool) -> NamedTerm:
    """f applied to n arguments, a and g a alternating; the first is g a
    when first_applied, else a."""
    a = Var("a")
    applied = App(Var("g"), a)
    t = Var("f")
    for i in range(n):
        t = App(t, applied if (i % 2 == 0) == first_applied else a)
    return t


# Each strategy's weak head evaluation and readback, by run_strategy's names.
READERS = {
    "ordered-list": (lambda m: whnf(m, backend=ListEnv), readback_normal_form),
    "ordered-tree": (whnf, readback_normal_form),
    "closures": (baselines.db_whnf, baselines.db_readback_normal_form),
}


def var_objects(t):
    """How many distinct Var objects a named term holds, by name."""
    ids = {}
    stack = [t]
    while stack:
        u = stack.pop()
        if type(u) is Var:
            ids.setdefault(u.name, set()).add(id(u))
        elif type(u) is App:
            stack += (u.fun, u.arg)
        else:
            stack.append(u.body)
    return {name: len(found) for name, found in ids.items()}


class TestEvaluate:
    def test_s_applied_to_three_free_variables(self):
        from ordlam.named import App as NApp

        t = NApp(NApp(NApp(S_NAMED, Var("g")), Var("f")), Var("n"))
        result = whnf(t)
        expected = spine("g", spine("n"), spine("f", spine("n")))
        assert result == expected
        assert print_value(result) == parse_surface("g n (f n)")

    def test_s_applied_to_two_gets_stuck_as_closure(self):
        from ordlam.named import App as NApp

        t = NApp(NApp(S_NAMED, Var("g")), Var("f"))
        result = whnf(t)
        expected = Closure(
            OLam((1, 1), S_BODY3), ListEnv.from_values([spine("g"), spine("f")])
        )
        assert result == expected

    def test_free_variable_is_bare_spine(self):
        assert evaluate(Free("a"), ListEnv.empty()) == spine("a")

    def test_environment_arity_enforced(self):
        too_long = "^environment has 1 entries, term has 0 unbound dots$"
        too_short = "^environment has 0 entries, term has 1 unbound dots$"
        with pytest.raises(InvariantError, match=too_long):
            evaluate(Free("a"), ListEnv.singleton(spine("v")))
        with pytest.raises(InvariantError, match=too_short):
            evaluate(DOT, ListEnv.empty())
        with pytest.raises(InvariantError, match=too_short):
            Pending(DOT, ListEnv.empty())

    @pytest.mark.parametrize("backend", [ListEnv, TreeEnv], ids=["list", "tree"])
    def test_free_variable_under_a_non_empty_environment(self, backend):
        # The split hands the one value to the free variable, none to the dot.
        message = "^free variable evaluated in environment of length 1$"
        with pytest.raises(InvariantError, match=message):
            evaluate(OApp(Free("a"), 1, DOT), backend.singleton(spine("v")))

    @pytest.mark.parametrize(
        "backend, n",
        [(ListEnv, 2), (TreeEnv, 2), (TreeEnv, _FLAT + 88)],
        ids=["list", "tree", "tree-object"],
    )
    def test_dot_under_a_non_singleton_environment(self, backend, n):
        # The split hands the dot all n values and the spine of dots none.
        # The tree backend holds 2 values in a tuple, _FLAT + 88 in a
        # TreeEnv object.
        env = backend.from_values([spine(f"v{i}") for i in range(n)])
        assert (type(env) is TreeEnv) == (n > _FLAT)
        dots = DOT
        for _ in range(n - 2):
            dots = OApp(dots, dots.fv, DOT)
        message = f"^dot evaluated in environment of length {n}$"
        with pytest.raises(InvariantError, match=message):
            evaluate(OApp(DOT, n, dots), env)

    @pytest.mark.parametrize("backend", [ListEnv, TreeEnv], ids=["list", "tree"])
    def test_split_past_the_end_of_the_environment(self, backend):
        message = "^split position 2 outside sequence of length 1$"
        with pytest.raises(InvariantError, match=message):
            evaluate(OApp(DOT, 2, Free("a")), backend.singleton(spine("v")))

    def test_closure_exactness_enforced(self):
        with pytest.raises(InvariantError):
            Closure(OLam((0,), DOT), ListEnv.singleton(spine("v")))
        Closure(OLam((0,), DOT), ListEnv.empty())  # exact: binder owns the only dot

    def test_fuel_exhaustion_is_a_value(self):
        result = whnf(OMEGA, fuel=100)
        assert isinstance(result, FuelExhausted)
        assert result.spent == 100

    def test_fuel_object_reports_steps(self):
        fuel = Fuel(10_000)
        whnf(MOTIVATING, fuel)
        assert 0 < fuel.spent < 10_000

    @pytest.mark.parametrize(
        "t, env, spent",
        [
            (OApp(Free("a"), 1, DOT), (spine("b"),), 2),
            (OApp(DOT, 3, DOT), (spine("a"), spine("b")), 1),
            (OApp(DOT, 3, DOT), ListEnv.from_values([spine("a"), spine("b")]), 1),
        ],
        ids=["loop-check", "tuple-split", "list-split"],
    )
    def test_fuel_counts_the_rule_that_raised(self, t, env, spent):
        # The loop's own check raises on its second rule; an environment's
        # split raises inside the first. Either way the Fuel holds the
        # rules begun.
        fuel = Fuel(10)
        with pytest.raises(InvariantError):
            evaluate(t, env, fuel)
        assert (fuel.spent, fuel.remaining) == (spent, 10 - spent)

    def test_unknown_ordered_term_class(self):
        class Odd(OrderedTerm):
            __slots__ = ()
            fv = 0

        with pytest.raises(TypeError, match=r"^not an ordered term: \S*Odd\(\)$"):
            evaluate(Odd(), ())
        with pytest.raises(TypeError, match=r"^not an ordered term: \S*Odd\(\)$"):
            print_ordered(Odd(), [])


class TestFuel:
    def test_one_class_for_every_reducer(self):
        assert machine.Fuel is named.Fuel is baselines.Fuel

    def test_holds_a_budget_and_what_remains(self):
        fuel = Fuel(2)
        assert Fuel.__slots__ == ("budget", "remaining")
        assert (fuel.budget, fuel.remaining, fuel.spent) == (2, 2, 0)
        assert fuel.take() and fuel.take() and not fuel.take()
        assert (fuel.budget, fuel.remaining, fuel.spent) == (2, 0, 2)
        with pytest.raises(AttributeError):
            fuel.spent = 0
        with pytest.raises(ValueError, match="^fuel must be positive$"):
            Fuel(0)

    def test_budget_is_an_integer(self):
        # A float budget would step from 0.5 to -0.5 and never run out.
        with pytest.raises(TypeError):
            Fuel(2.5)
        with pytest.raises(TypeError):
            whnf(MOTIVATING, fuel=2.5)
        assert whnf(OMEGA, fuel=True) == FuelExhausted(1)


class TestApply:
    def test_spine_append(self):
        w = spine("w")
        assert apply_value(spine("x"), w) == spine("x", w)

    def test_closure_entry(self):
        closure = Closure(
            OLam((1, 1), S_BODY3), ListEnv.from_values([spine("g"), spine("f")])
        )
        n = spine("n")
        direct = evaluate(
            S_BODY3, ListEnv.from_values([spine("g"), n, spine("f"), n])
        )
        assert apply_value(closure, n) == direct

    def test_discarding_closure_drops_argument(self):
        closure = Closure(OLam((), Free("a")), ListEnv.empty())
        assert apply_value(closure, spine("w")) == spine("a")


class TestWhnf:
    def test_motivating_term(self):
        assert print_value(whnf(MOTIVATING)) == parse_surface("a b f")

    def test_no_reduction_under_binder(self):
        from ordlam.named import Lam as NLam

        t = NLam("x", OMEGA)
        result = whnf(t, fuel=1000)
        assert isinstance(result, Closure)

    def test_divergence(self):
        assert isinstance(whnf(OMEGA, fuel=1000), FuelExhausted)

    def test_closures_hold_the_translated_binder_nodes(self, monkeypatch):
        translated = []

        def recording(m):
            translated.append(parse_closed(m))
            return translated[-1]

        monkeypatch.setattr(machine, "parse_closed", recording)
        assert whnf(S_NAMED).lam is translated[-1]
        # After a beta step, the body's own binder node.
        assert whnf(App(S_NAMED, Var("g"))).lam is translated[-1].fun.body

    def test_backends_agree(self):
        from ordlam.named import App as NApp

        t = NApp(NApp(NApp(S_NAMED, Var("g")), Var("f")), Var("n"))
        assert whnf(t, backend=ListEnv) == whnf(t, backend=TreeEnv)

    def test_typed_terms_always_reach_whnf(self):
        # Simply-typed terms normalize strongly, so evaluation terminates
        # on all of them; no such guarantee exists for the general corpus.
        for term in gen_terms(41, 200, 40, 1.0):
            assert not isinstance(whnf(term, fuel=100_000), FuelExhausted)


class TestPrinting:
    def test_round_trip_s(self):
        assert alpha_eq(print_ordered(parse_closed(S_NAMED), []), S_NAMED)

    def test_dot_prints_its_value(self):
        assert print_ordered(DOT, [spine("g")]) == Var("g")

    def test_binder_inserts_fresh_marker(self):
        printed = print_ordered(
            OLam((1, 1), S_BODY3), [spine("g"), spine("f")]
        )
        assert alpha_eq(printed, parse_surface(r"\z. g z (f z)"))

    def test_spine_prints_left_associated(self):
        v = spine("g", spine("n"), spine("f", spine("n")))
        assert print_value(v) == parse_surface("g n (f n)")

    def test_bare_spine(self):
        assert print_value(spine("x")) == Var("x")

    def test_closure_prints_via_binder_rule(self):
        closure = Closure(
            OLam((1, 1), S_BODY3), ListEnv.from_values([spine("g"), spine("f")])
        )
        assert alpha_eq(print_value(closure), parse_surface(r"\z. g z (f z)"))

    def test_closure_prints_without_building_a_binder(self, monkeypatch):
        closure = whnf(parse_surface(r"(\x. \y. \z. y (x z)) (\u. u) f"))
        built = []
        init = OLam.__init__

        def counting(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(OLam, "__init__", counting)
        printed = print_value(closure)
        assert built == []
        assert print_surface(printed) == r"\z0. f ((\z1. z1) z0)"

    def test_fresh_names_avoid_environment(self):
        # z0 is taken by the environment value, so the binder moves on.
        closure = Closure(OLam((0,), DOT), ListEnv.empty())
        pair = Pair(Done(closure), Done(spine("z0")))
        printed = print_expr(pair)
        assert alpha_eq(printed, parse_surface(r"(\u. u) z0"))

    def test_length_mismatch_is_internal_error(self):
        message = "^environment has 0 entries, term has 1 unbound dots$"
        with pytest.raises(InvariantError, match=message):
            print_ordered(DOT, [])

    def test_binder_overrunning_its_window_is_internal_error(self):
        # A gap vector that needs more values than the environment holds:
        # the printer refuses it as every backend's multi_insert does.
        lam = OLam((5,), DOT)
        message = "^insert positions need 5 elements, sequence has 0$"
        for backend in BACKENDS.values():
            with pytest.raises(InvariantError, match=message):
                backend.multi_insert(backend.empty(), lam.kvec, spine("w"))
        with pytest.raises(InvariantError, match=message):
            print_ordered(lam, [])
        with pytest.raises(InvariantError, match=message):
            print_value(Closure(lam, TreeEnv.empty()))
        with pytest.raises(InvariantError, match=message):
            print_expr(Pending(lam, ListEnv.empty()))

    def test_binder_overrunning_its_window_inside_the_buffer(self):
        # The binder's window is [a] of the buffer [a, b]: its gap vector
        # needs two values, so it must not read b, the argument's value.
        t = OApp(OLam((2,), OApp(DOT, 1, DOT)), 1, DOT)
        values = [spine("a"), spine("b")]
        message = "^insert positions need 2 elements, sequence has 1$"
        with pytest.raises(InvariantError, match=message):
            print_ordered(t, values)
        with pytest.raises(InvariantError, match=message):
            print_expr(Pending(t, TreeEnv.from_values(values)))

    def test_dot_function_part_bound_to_a_value(self):
        # A function part's dot whose window holds a spine, or a closure,
        # rather than a binder's Var prints through the value task; the
        # argument after it still reads its own window.
        t = OApp(DOT, 1, OApp(DOT, 1, DOT))
        values = [spine("f", spine("a")), whnf(parse_surface(r"\u. u")), spine("b")]
        assert print_surface(print_ordered(t, values)) == r"f a ((\z0. z0) b)"
        # The same inside a closure, whose environment holds the value.
        for value, text in (("f a", r"\z0. f a z0"), (r"\u. u", r"\z0. (\z1. z1) z0")):
            m = parse_surface(rf"(\g. \x. g x) ({value})")
            assert print_surface(print_value(whnf(m))) == text

    def test_leaf_arguments_of_a_left_nested_spine(self):
        # Past a function part that is no leaf, a free variable argument
        # and a dot over a binder's Var wait as their Var; a dot over any
        # other value waits as a term task.
        m = parse_surface(r"(\x. \y. f (g y) a y x (h x)) (k b)")
        text = r"\z0. f (g z0) a z0 (k b) (h (k b))"
        assert print_surface(print_value(whnf(m))) == text

    @pytest.mark.parametrize(
        "t, message",
        [
            (
                OApp(Free("f"), 0, OApp(DOT, 3, DOT)),
                "^application split exceeds environment length$",
            ),
            (
                OApp(OApp(Free("f"), 0, DOT), 0, DOT),
                "^dot printed under environment of length 0$",
            ),
            (
                OApp(OApp(Free("a"), 1, DOT), 1, DOT),
                "^free variable printed under a non-empty environment$",
            ),
            (
                OApp(OLam((0,), OApp(Free("f"), 0, Free("a"))), 0, DOT),
                "^free variable printed under a non-empty environment$",
            ),
            (
                OApp(
                    OLam((0,), OApp(OApp(Free("f"), 0, Free("g")), 0, Free("a"))),
                    0,
                    DOT,
                ),
                "^free variable printed under a non-empty environment$",
            ),
        ],
        ids=[
            "split-after-a-leaf-function",
            "dot-after-a-leaf-function",
            "free-function-in-a-spine",
            "free-argument-after-a-leaf-function",
            "free-argument-waiting",
        ],
    )
    def test_window_errors_inside_a_spine(self, t, message):
        # Each bad node sits where the loop walks on past a leaf function
        # part, or where an argument waits for its function part, so the
        # guard that refuses it is met inside the spine's own walk.
        with pytest.raises(InvariantError, match=message):
            print_ordered(t, [spine(f"v{i}") for i in range(t.fv)])

    @pytest.mark.parametrize(
        "t, message",
        [
            (OApp(DOT, 3, DOT), "^application split exceeds environment length$"),
            (OApp(DOT, 2, DOT), "^dot printed under environment of length 2$"),
            (
                OApp(Free("a"), 1, DOT),
                "^free variable printed under a non-empty environment$",
            ),
        ],
        ids=["split", "dot", "free"],
    )
    def test_split_disagreeing_with_its_function_is_internal_error(self, t, message):
        # Each split differs from its function part's fv, so the printer
        # meets a node whose window does not fit it.
        with pytest.raises(InvariantError, match=message):
            print_ordered(t, [spine(f"v{i}") for i in range(t.fv)])

    def test_print_value_needs_a_value_of_this_machine(self):
        # A closure-machine term is printed by from_debruijn; bare, it is
        # no value of either machine.
        with pytest.raises(TypeError, match=r"^not a value: DLam\("):
            print_value(baselines.DLam(baselines.BVar(0)))

    def test_print_value_prints_a_value_of_either_machine(self):
        # A closure capturing a closure, held by each machine's own binder
        # nodes; a named term is no value of either.
        m = parse_surface(r"(\x. \y. \z. y (x z)) (\u. u) f")
        for v in (whnf(m), baselines.db_whnf(m)):
            assert print_surface(print_value(v)) == r"\z0. f ((\z1. z1) z0)"
        with pytest.raises(TypeError, match=r"^not a value: Var\(name='x'\)$"):
            print_value(Var("x"))

    def test_one_var_per_name(self):
        # Every occurrence of a name in a printed value or a read-back
        # normal form is one Var object, built once per call.
        m = parse_surface(r"(\x. \y. c x (y x) (c (x y)) (\u. u x)) (a a)")
        one_each = {"a": 1, "c": 1, "z0": 1, "z1": 1}
        for v in (whnf(m, backend=ListEnv), whnf(m), baselines.db_whnf(m)):
            assert var_objects(print_value(v)) == one_each
        for nf in (
            normalize_by_evaluation(m, backend=ListEnv),
            normalize_by_evaluation(m),
            baselines.db_normalize_by_evaluation(m),
        ):
            assert var_objects(nf) == one_each
        text = r"\z0. c (a a) (z0 (a a)) (c (a a z0)) (\z1. z1 (a a))"
        assert print_surface(nf) == text

    def test_spine_repr(self):
        text = "Spine('f', [Spine('a', []), Spine('b', [])])"
        assert repr(spine("f", spine("a"), spine("b"))) == text

    def test_pending_prints_as_its_term(self):
        e = Pending(parse_closed(S_NAMED), ListEnv.empty())
        assert alpha_eq(print_expr(e), S_NAMED)


class TestDeepPrinting:
    # Each input is built bottom-up and nested far past the recursion
    # limit; the printed text is compared, since comparing deep named
    # terms with == would itself recurse.
    DEPTH = 100_000

    def test_ordered_numeral(self):
        body = DOT
        for _ in range(self.DEPTH):
            body = OApp(DOT, 1, body)
        numeral = OLam((0,) * self.DEPTH, OLam((self.DEPTH,), body))
        expected = (
            r"\z0. \z1. "
            + "z0 (" * (self.DEPTH - 1)
            + "z0 z1"
            + ")" * (self.DEPTH - 1)
        )
        assert print_surface(print_ordered(numeral, [])) == expected

    def test_nested_spine(self):
        v = spine("x")
        for _ in range(self.DEPTH):
            v = spine("f", v)
        expected = "f (" * (self.DEPTH - 1) + "f x" + ")" * (self.DEPTH - 1)
        assert print_surface(print_value(v)) == expected

    def test_ordered_left_nested_spine(self):
        # \x. x x ... x: each argument is a dot over the binder's Var,
        # waiting for the function part to its left.
        body = DOT
        for i in range(self.DEPTH):
            body = OApp(body, i + 1, DOT)
        lam = OLam((0,) * (self.DEPTH + 1), body)
        expected = r"\z0. z0" + " z0" * self.DEPTH
        assert print_surface(print_ordered(lam, [])) == expected

    def test_ordered_right_nested_free_heads(self):
        # a (b (a ... c)), the shape of an interleaved-binders normal
        # form: every function part is a free variable.
        t = Free("c")
        for i in range(self.DEPTH):
            t = OApp(Free("ab"[i % 2]), 0, t)
        heads = " (".join("ab"[i % 2] for i in reversed(range(self.DEPTH)))
        expected = heads + " c" + ")" * (self.DEPTH - 1)
        assert print_surface(print_ordered(t, [])) == expected

    def test_pair_chain(self):
        e = Pending(OLam((0,), DOT), ListEnv.empty())
        for _ in range(self.DEPTH):
            e = Pair(Done(spine("f")), e)
        expected = "f (" * self.DEPTH + r"\z0. z0" + ")" * self.DEPTH
        assert print_surface(print_expr(e)) == expected

    def test_closure_over_a_deep_body_repr(self):
        # The weak head normal form of a numeral is a closure holding the
        # numeral's own binder node; its repr() shows that node's repr().
        depth = 3000
        body = Var("z")
        for _ in range(depth):
            body = App(Var("s"), body)
        numeral = Lam("s", Lam("z", body))
        text = repr(whnf(numeral))
        assert text.startswith("Closure(OLam(kvec=(0, 0, ")
        assert text == f"Closure({parse_closed(numeral)!r}, [])"


class TestDeepEquality:
    # == on values and machine expressions walks with an explicit stack;
    # each pair of inputs is built bottom-up, far past the recursion limit.
    DEPTH = 100_000

    def _spine(self, innermost="x"):
        v = spine(innermost)
        for _ in range(self.DEPTH):
            v = spine("f", v)
        return v

    def _numeral(self):
        body = DOT
        for _ in range(self.DEPTH):
            body = OApp(DOT, 1, body)
        return OLam((0,) * self.DEPTH, OLam((self.DEPTH,), body))

    def test_nested_spines(self):
        assert self._spine() == self._spine()
        assert self._spine() != self._spine("y")

    def test_pending_terms_compare(self):
        assert Pending(Free("a"), ListEnv.empty()) == Pending(Free("a"), TreeEnv.empty())
        assert Pending(Free("a"), ListEnv.empty()) != Pending(Free("b"), ListEnv.empty())
        # Equal terms, environments holding different plain values.
        assert Pending(DOT, (1,)) != Pending(DOT, (2,))

    def test_closures_compare_bodies_and_environments(self):
        closure = Closure(self._numeral(), ListEnv.empty())
        assert closure == Closure(self._numeral(), TreeEnv.empty())
        lam = OLam((0,), OApp(DOT, 1, DOT))
        holding = Closure(lam, ListEnv.from_values([self._spine()]))
        assert holding == Closure(lam, TreeEnv.from_values([self._spine()]))
        assert holding != Closure(lam, ListEnv.from_values([self._spine("y")]))

    def test_pending_and_pair_chains(self):
        def chain(backend):
            e = Pending(self._numeral(), backend.empty())
            for _ in range(self.DEPTH):
                e = Pair(Done(spine("f")), e)
            return e

        assert chain(ListEnv) == chain(TreeEnv)
        assert chain(ListEnv) != Pair(Done(spine("f")), chain(ListEnv))


class TestDeepMachine:
    # A Pair chain nested far past the recursion limit, checked by walking
    # it with a loop rather than comparing with == (which would recurse).
    DEPTH = 100_000

    def _chain(self, innermost):
        e = innermost
        for _ in range(self.DEPTH):
            e = Pair(Done(spine("f")), e)
        return e

    def _descend(self, e, levels):
        for _ in range(levels):
            assert isinstance(e, Pair) and isinstance(e.fun, Done)
            e = e.arg
        return e

    def test_step_rewrites_the_innermost_redex(self, backend):
        e = self._chain(Pending(OLam((0,), DOT), backend.empty()))
        after, rule = step(e)
        assert rule == RULE_CLOSE
        inner = self._descend(after, self.DEPTH)
        assert isinstance(inner, Done) and isinstance(inner.value, Closure)
        after, rule = step(after)
        assert rule == RULE_SPINE
        # The deepest pair collapsed into one spine; its parents remain.
        inner = self._descend(after, self.DEPTH - 1)
        assert isinstance(inner, Done) and inner.value.head == "f"
        assert isinstance(inner.value.args.head, Closure)

    def test_step_on_a_chain_of_values_applies_the_deepest_pair(self):
        after, rule = step(self._chain(Done(spine("x"))))
        assert rule == RULE_SPINE
        inner = self._descend(after, self.DEPTH - 1)
        assert isinstance(inner, Done) and inner.value == spine("f", spine("x"))

    def test_weight_of_pair_chain(self, backend):
        e = self._chain(Pending(OLam((0,), DOT), backend.empty()))
        assert weight(e) == 2 * self.DEPTH + 1

    def test_weight_of_nested_spine(self):
        v = spine("x")
        for _ in range(self.DEPTH):
            v = spine("f", v)
        # Each one-argument spine weighs 1 + 2; the bare x weighs 2.
        assert weight(Done(v)) == 3 * self.DEPTH + 2


class TestDeepMachineOnOtherBackends(OnOtherBackends, TestDeepMachine):
    # These two build no environment, so they run once, above.
    test_step_on_a_chain_of_values_applies_the_deepest_pair = None
    test_weight_of_nested_spine = None


class TestMachine:
    def test_close_rule(self, backend):
        e = Pending(parse_closed(S_NAMED), backend.empty())
        after, rule = step(e)
        assert rule == RULE_CLOSE
        assert isinstance(after, Done)
        assert isinstance(after.value, Closure)

    def test_split_rule(self, backend):
        t = OApp(Free("a"), 0, Free("b"))
        after, rule = step(Pending(t, backend.empty()))
        assert rule == RULE_SPLIT
        assert after == Pair(
            Pending(Free("a"), backend.empty()), Pending(Free("b"), backend.empty())
        )

    def test_stuck_on_done(self):
        assert step(Done(spine("x"))) is None
        assert run_machine(Done(spine("x"))) == (Done(spine("x")), 0)

    def test_step_needs_a_machine_expression(self):
        with pytest.raises(TypeError, match="^not a machine expression: Spine$"):
            step(spine("a"))

    def test_run_machine_ends_where_the_trace_ends(self, backend):
        # At full fuel and at every budget below the step count: the last
        # expression machine_trace yields, and the number of its steps.
        from ordlam.named import App as NApp

        s_applied = NApp(NApp(NApp(S_NAMED, Var("g")), Var("f")), Var("n"))
        cases = (
            (s_applied, DEFAULT_FUEL),
            (MOTIVATING, DEFAULT_FUEL),
            (OMEGA, 40),
            (BOUND_HEADS, DEFAULT_FUEL),
            (NUMERAL_APPLIED, DEFAULT_FUEL),
        )
        for t, budget in cases:
            e = Pending(parse_closed(t), backend.empty())
            trace = list(machine_trace(e, budget))
            for k in range(1, len(trace)):
                assert run_machine(e, k) == (trace[k - 1][1], k)
            assert run_machine(e, budget) == (trace[-1][1], len(trace))
        # The one-step machine still takes a bound head with split 1 as a
        # split and then a bound step, whatever run_machine does with it.
        for t, heads in ((BOUND_HEADS, 4), (NUMERAL_APPLIED, 14)):
            trace = list(machine_trace(Pending(parse_closed(t), backend.empty())))
            rules = [rule for _, _, rule in trace]
            seen = 0
            for i, (before, _, rule) in enumerate(trace):
                app = _decompose(before)[0][0] if rule == RULE_SPLIT else None
                if app is not None and app.fun is DOT and app.split == 1:
                    assert rules[i : i + 2] == [RULE_SPLIT, RULE_BOUND]
                    seen += 1
            assert seen == heads
        # On a partly spent Fuel, the count is this run's steps alone.
        e = Pending(parse_closed(MOTIVATING), backend.empty())
        fuel = Fuel(DEFAULT_FUEL)
        fuel.take()
        steps = len(list(machine_trace(e)))
        assert run_machine(e, fuel)[1] == fuel.spent - 1 == steps

    def test_run_machine_decomposes_once(self, backend, monkeypatch):
        calls = []

        def counted(e):
            calls.append(e)
            return decompose(e)

        decompose = machine._decompose
        monkeypatch.setattr(machine, "_decompose", counted)
        e = Pending(parse_closed(MOTIVATING), backend.empty())
        _, steps = run_machine(e)
        assert steps > 10 and calls == [e]

    def test_trace_reaches_big_step_result(self, backend):
        from ordlam.named import App as NApp

        t = NApp(NApp(NApp(S_NAMED, Var("g")), Var("f")), Var("n"))
        final, steps = run_machine(Pending(parse_closed(t), backend.empty()))
        assert isinstance(final, Done)
        assert final.value == whnf(t)
        assert steps > 0

    def test_small_step_count_matches_big_step_fuel(self, backend):
        for term in gen_terms(21, 60, 40, 0.5):
            fuel = Fuel(2000)
            big = evaluate(parse_closed(term), backend.empty(), fuel)
            final, steps = run_machine(
                Pending(parse_closed(term), backend.empty()), 2000
            )
            if isinstance(big, FuelExhausted):
                assert steps == 2000
            else:
                assert isinstance(final, Done)
                assert final.value == big
                assert steps == fuel.spent

    def test_non_beta_steps_preserve_printed_term(self, backend):
        e = Pending(parse_closed(MOTIVATING), backend.empty())
        for before, after, rule in machine_trace(e, 1000):
            printed_before = print_expr(before)
            printed_after = print_expr(after)
            if rule in NON_BETA_RULES:
                assert alpha_eq(printed_before, printed_after)
            else:
                assert rule == RULE_BETA
                candidates = reduce_once_all(printed_before)
                assert any(alpha_eq(printed_after, c) for c in candidates)

    def test_weight_increases_on_non_beta_steps(self, backend):
        e = Pending(parse_closed(MOTIVATING), backend.empty())
        for before, after, rule in machine_trace(e, 1000):
            if rule in NON_BETA_RULES:
                assert weight(after) > weight(before)


class TestMachineOnOtherBackends(OnOtherBackends, TestMachine):
    test_stuck_on_done = None  # builds no environment, so it runs once, above


class TestRefocusing:
    # step is the evaluator's loop run on one unit of fuel: it decomposes
    # an expression into the loop's configuration and plugs the result.
    DEPTH = 100_000

    def _traced(self):
        for seed in range(1002, 1008):
            for term in gen_terms(seed, 30, 40, 0.5):
                for env in BACKENDS.values():
                    yield from machine_trace(Pending(parse_closed(term), env.empty()), 200)

    def test_plug_inverts_decompose_along_traces(self):
        for before, after, _ in self._traced():
            assert _plug(*_decompose(before)) == before
            assert _plug(*_decompose(after)) == after

    def test_plug_inverts_decompose_on_a_deep_chain(self):
        e = Pending(OLam((0,), DOT), ListEnv.empty())
        for _ in range(self.DEPTH):
            e = Pair(Done(spine("f")), e)
        control, is_value, stack = _decompose(e)
        assert len(stack) == self.DEPTH and not is_value
        assert _plug(control, is_value, stack) == e

    def test_unreachable_shapes_raise_type_error(self):
        # A pending function part with an evaluated argument never arises
        # from a Pending: the loop evaluates the function part first.
        e = Pair(Pending(Free("a"), ListEnv.empty()), Done(spine("b")))
        with pytest.raises(TypeError, match="^unevaluated function applied to a Done$"):
            step(e)
        for _ in range(self.DEPTH):
            e = Pair(Done(spine("f")), e)
        for walk in (step, weight, print_expr):
            with pytest.raises(TypeError, match="^unevaluated function applied to a Done$"):
                walk(e)
        nested = Pair(Pending(Free("a"), ListEnv.empty()), Pair(Done(spine("b")), e))
        with pytest.raises(TypeError, match="^unevaluated function applied to a Pair$"):
            step(nested)

    def test_rule_counts_sum_to_big_step_fuel(self):
        all_rules = Counter()
        for term in gen_terms(21, 60, 40, 0.5):
            fuel = Fuel(2000)
            evaluate(parse_closed(term), ListEnv.empty(), fuel)
            e = Pending(parse_closed(term), ListEnv.empty())
            rules = Counter(rule for _, _, rule in machine_trace(e, 2000))
            assert sum(rules.values()) == fuel.spent
            all_rules += rules
        six = {RULE_VAR, RULE_BOUND, RULE_SPLIT, RULE_CLOSE, RULE_SPINE, RULE_BETA}
        assert set(all_rules) == six

    @pytest.mark.parametrize("env", BACKENDS.values(), ids=BACKENDS)
    def test_exhaustion_at_every_budget_below_the_step_count(self, env):
        # Combinator chains and the leak family are mostly closed
        # applications and binders without occurrences; BOUND_HEADS and
        # NUMERAL_APPLIED are mostly bound heads, which the loop takes two
        # rules at a time while the fuel lasts, so some budgets stop
        # between those two rules or inside a run of them. Out of fuel, at
        # every budget, run_machine plugs the paused configuration back into
        # an expression that the steps left take to the same value.
        for term in (
            MOTIVATING,
            combinator_chain(5),
            leak_family(5),
            BOUND_HEADS,
            NUMERAL_APPLIED,
        ):
            t = parse_closed(term)
            full = Fuel(DEFAULT_FUEL)
            value = evaluate(t, env.empty(), full)
            assert full.spent > 10
            for k in range(1, full.spent):
                fuel = Fuel(k)
                assert evaluate(t, env.empty(), fuel) == FuelExhausted(k)
                assert (fuel.remaining, fuel.spent) == (0, k)
                # The paused configuration goes back on the loop's own stack.
                assert not hasattr(fuel, "__dict__")
                paused, steps = run_machine(Pending(t, env.empty()), k)
                final, more = run_machine(paused)
                assert (steps, steps + more) == (k, full.spent)
                assert final == Done(value)
            assert value == whnf(term)


class TestWeight:
    def test_pending_weighs_one(self):
        assert weight(Pending(Free("x"), ListEnv.empty())) == 1

    def test_bare_spine_weighs_two(self):
        assert weight(Done(spine("x"))) == 2

    def test_pair_sums(self):
        e = Pair(Done(spine("x")), Pending(Free("y"), ListEnv.empty()))
        assert weight(e) == 3

    def test_closure_weighs_two(self):
        assert weight(Done(Closure(OLam((0,), DOT), ListEnv.empty()))) == 2

    def test_spine_weight_exponential_in_arity(self):
        v = spine("x", *(spine("a") for _ in range(64)))
        assert weight(Done(v)) == 1 + 2**64 + 64 * 2


class TestArgSharing:
    def test_spine_application_shares_argument_prefix(self):
        s0 = spine("x")
        s1 = apply_value(s0, spine("a"))
        s2 = apply_value(s1, spine("b"))
        # The old chain is a structural tail of the new one, not a copy.
        assert s2.args.tail is s1.args
        assert s2 == spine("x", spine("a"), spine("b"))


class TestNodeCount:
    def test_bare_spine(self):
        assert value_node_count(spine("x")) == 1

    def test_nested_spine(self):
        assert value_node_count(spine("x", spine("y"))) == 2

    def test_shared_value_counted_once(self):
        shared = spine("w", spine("u"))
        env = ListEnv.from_values([spine("g")]).multi_insert((0, 1), shared)
        closure = Closure(OLam((0,), OApp(DOT, 1, OApp(DOT, 1, OApp(DOT, 1, DOT)))), env)
        # env is [shared, g, shared]: nodes = closure + shared(2) + g.
        assert value_node_count(closure) == 4


class TestNormalizeByEvaluation:
    def test_motivating_term(self):
        assert alpha_eq(
            normalize_by_evaluation(MOTIVATING), parse_surface("a b f")
        )

    def test_normalizes_under_binders(self):
        t = parse_surface(r"\x. (\y. y) x")
        assert alpha_eq(normalize_by_evaluation(t), parse_surface(r"\x. x"))

    def test_church_arithmetic_matches_oracle(self):
        t = parse_surface(r"(\m.\n. n m) (\s.\z. s (s z)) (\s.\z. s (s (s z)))")
        ours = normalize_by_evaluation(t)
        oracle = normalize(t)
        assert alpha_eq(ours, oracle)

    def test_agreement_with_oracle_on_corpus(self):
        for term in gen_terms(31, 120, 40, 0.6):
            oracle = normalize(term, fuel=20_000)
            if isinstance(oracle, FuelExhausted):
                continue
            ours = normalize_by_evaluation(term, fuel=100_000)
            if isinstance(ours, FuelExhausted):
                continue
            assert alpha_eq(ours, oracle)

    def test_divergence_reported(self):
        assert isinstance(normalize_by_evaluation(OMEGA, fuel=500), FuelExhausted)

    @pytest.mark.parametrize("backend", [ListEnv, TreeEnv], ids=["list", "tree"])
    def test_closures_open_in_pre_order(self, backend):
        # Binders are named in the order their closures open: pre-order,
        # spine arguments left to right. Digests rename binders, so the
        # text is compared.
        t = parse_surface(r"f (\x. g (\y. y x)) (\u. u)")
        text = print_surface(normalize_by_evaluation(t, backend=backend))
        assert text == r"f (\z0. g (\z1. z1 z0)) (\z2. z2)"

    @pytest.mark.parametrize("backend", [ListEnv, TreeEnv], ids=["list", "tree"])
    def test_numeral_deeper_than_the_recursion_limit(self, backend):
        # Evaluation under both binders and readback of the 100,000-deep
        # spine, on the test thread; the printed text is compared, since
        # == on deep named terms would recurse.
        depth = 100_000
        body = Var("z")
        for _ in range(depth):
            body = App(Var("s"), body)
        result = normalize_by_evaluation(Lam("s", Lam("z", body)), 10**6, backend)
        expected = r"\z0. \z1. " + "z0 (" * (depth - 1) + "z0 z1" + ")" * (depth - 1)
        assert print_surface(result) == expected

    def test_left_nested_spine_deeper_than_the_recursion_limit(self):
        # f a (g a) a (g a) ...: 100,000 arguments, bare heads and
        # applied ones alternating, read back on the test thread.
        depth = 100_000
        arg = spine("g", spine("a"))
        v = spine("f", *[arg if i % 2 else spine("a") for i in range(depth)])
        expected = "f" + " a (g a)" * (depth // 2)
        assert print_surface(readback_normal_form(v, 1)) == expected

    @pytest.mark.parametrize("strategy", READERS)
    @pytest.mark.parametrize(
        "m, expected",
        [
            (
                parse_surface(r"f (\x. g (\y. y x)) (\u. u)"),
                r"f (\z0. g (\z1. z1 z0)) (\z2. z2)",
            ),
            (
                build_workload("church-add", 6),
                r"\z0. \z1. z0 (z0 (z0 (z0 (z0 (z0 z1)))))",
            ),
            (
                parse_surface(r"(\a. \b. k (\x. a x) b (\y. y (\z. z b))) f (\w. w)"),
                r"k (\z0. f z0) (\z1. z1) (\z2. z2 (\z3. z3 (\z4. z4)))",
            ),
        ],
        ids=["siblings", "church-add-6", "captured"],
    )
    def test_readback_runs_out_at_every_budget(self, strategy, m, expected):
        # Readback alone, from a new weak head normal form each time:
        # every budget short of its steps stops it with that budget spent,
        # and a budget of exactly its steps reads the normal form.
        evaluate_whnf, readback = READERS[strategy]
        fuel = Fuel(DEFAULT_FUEL)
        assert print_surface(readback(evaluate_whnf(m), fuel, m.free_names)) == expected
        steps = fuel.spent
        assert steps > 1
        for k in range(1, steps):
            result = readback(evaluate_whnf(m), Fuel(k), m.free_names)
            assert result == FuelExhausted(k), k
        nf = readback(evaluate_whnf(m), Fuel(steps), m.free_names)
        assert print_surface(nf) == expected

    @pytest.mark.parametrize(
        "m",
        [
            right_nested_spine(3000),
            left_nested_spine(3000, first_applied=False),
            left_nested_spine(3000, first_applied=True),
        ],
        ids=["right-nested", "left-nested-bare-first", "left-nested-applied-first"],
    )
    def test_print_value_and_readback_agree_on_spines(self, m):
        # A closure-free value is its own normal form. Printing it and
        # reading it back (which takes no fuel) walk its spines in one
        # loop, a bare first argument joined at once, and build the same
        # term with one Var per name, from either machine's value.
        expected = print_surface(m)
        for v in (whnf(m, backend=ListEnv), whnf(m), baselines.db_whnf(m)):
            for t in (
                print_value(v),
                readback_normal_form(v, 1),
                baselines.db_readback_normal_form(v, 1),
            ):
                assert print_surface(t) == expected
                assert set(var_objects(t).values()) == {1}

    @pytest.mark.parametrize("n", (1000, 2000, 4000))
    def test_wide_binder_builds_tree_cells_linear_in_n(self, cells, n):
        # Each application of the spine c a ... a splits its environment
        # just before the last value; the tree's right finger serves those
        # splits in O(1) cells amortized, where a split of the tree itself
        # would copy an O(log n) path each time. The last _FLAT - 1
        # applications (splits of a TreeEnv object down to _TREE_MIN, then
        # a window over a tuple) are the same work at every n, so the n
        # more values of wide_binder(2n) cost at most 5 cells each.
        built = []
        for width in (n, 2 * n):
            cells.built = 0
            normalize_by_evaluation(wide_binder(width), backend=TreeEnv)
            built.append(cells.built)
        assert built[1] - built[0] <= 5 * n

    @pytest.mark.parametrize("n", (1000, 2000, 4000))
    def test_wide_binder_agrees_across_backends(self, n):
        term = wide_binder(n)
        text = print_surface(normalize_by_evaluation(term, backend=TreeEnv))
        assert text == "c" + " a" * n
        assert print_surface(normalize_by_evaluation(term, backend=ListEnv)) == text


class TestBoundHeadChains:
    """(\\x0. ... \\x(n-1). x0 (x1 (... (x(n-1) E)))) a0 ... a(n-1): a run
    of n bound heads, each with split 1, over n distinct values, so a
    window of the environment that starts a slot off reads a wrong
    value. E ends the run as a free name c (so the last head's argument
    is closed), as the last variable itself (a dot) or as a binder over
    it (a closure built from the window). Sizes straddle _TREE_MIN and
    _FLAT, where the tree holds the environment as a tuple or as a
    TreeEnv object, and reach a refill of its left finger."""

    ENDS = ("free", "dot", "binder")

    @staticmethod
    def chain(n: int, end: str) -> tuple[NamedTerm, str]:
        """The term and its normal form's text."""
        k = n - 1
        end_term, end_text = {
            "free": ("c", "c"),
            "dot": (f"x{k}", f"a{k}"),
            "binder": (rf"\y. x{k} y", rf"(\z0. a{k} z0)"),
        }[end]
        heads = n if end == "free" else k
        body = parse_surface(end_term)
        for i in reversed(range(heads)):
            body = App(Var(f"x{i}"), body)
        for i in reversed(range(n)):
            body = Lam(f"x{i}", body)
        for i in range(n):
            body = App(body, Var(f"a{i}"))
        spine = " (".join(f"a{i}" for i in range(heads))
        return body, f"{spine} {end_text}" + ")" * (heads - 1)

    @pytest.mark.parametrize("end", ENDS)
    @pytest.mark.parametrize("n", (6, 383, 384, 511, 512, 513, 1057))
    def test_normal_form_on_every_strategy(self, n, end):
        term, expected = self.chain(n, end)
        for strategy in ("ordered-list", "ordered-tree", "closures"):
            outcome = run_strategy(strategy, term, DEFAULT_FUEL)
            assert print_surface(outcome.normal_form) == expected, strategy


class TestBoundArgumentSpines:
    """(\\x0. ... \\x(n-1). B) a0 ... a(n-1) over n distinct values, where
    the body B is a head H applied to the variables H does not use, so
    each application of B's spine has a bound argument and a window of
    the environment whose right end is a slot off reads a wrong value.
    H is a free name c, the bound x0 (so the window's left end moves
    too), a binder over x0 (a closure cut from the window) or a run of
    bound heads x0 (x1 (c x2 ... x(n-1))), which uses every variable
    itself. Sizes are TestBoundHeadChains' own."""

    HEADS = ("free", "bound", "binder", "run")

    @staticmethod
    def spine(n: int, head: str) -> tuple[NamedTerm, str]:
        """The term and its normal form's text."""
        args = " ".join(f"x{i}" for i in range(2, n))
        values = " ".join(f"a{i}" for i in range(2, n))
        body, expected = {
            "free": (f"c x0 x1 {args}", f"c a0 a1 {values}"),
            "bound": (f"x0 x1 {args}", f"a0 a1 {values}"),
            "binder": (rf"(\y. x0 y) x1 {args}", f"a0 a1 {values}"),
            "run": (f"x0 (x1 (c {args}))", f"a0 (a1 (c {values}))"),
        }[head]
        body = parse_surface(body)
        for i in reversed(range(n)):
            body = Lam(f"x{i}", body)
        for i in range(n):
            body = App(body, Var(f"a{i}"))
        return body, expected

    @pytest.mark.parametrize("head", HEADS)
    @pytest.mark.parametrize("n", (6, 383, 384, 511, 512, 513, 1057))
    def test_normal_form_on_every_strategy(self, n, head):
        term, expected = self.spine(n, head)
        for strategy in ("ordered-list", "ordered-tree", "closures"):
            outcome = run_strategy(strategy, term, DEFAULT_FUEL)
            assert print_surface(outcome.normal_form) == expected, strategy

    @pytest.mark.parametrize("head", HEADS)
    @pytest.mark.parametrize("env", BACKENDS.values(), ids=BACKENDS)
    def test_every_pause_plugs_back_an_exact_configuration(self, env, head):
        # At every budget below the step count, run_machine stops where
        # the one-step machine does, which never opens a window. The
        # expression it plugs back holds only exact environments (Pending
        # checks each), and the one-step machine takes it on to the same
        # end with every obligation met.
        term, _ = self.spine(6, head)
        e = Pending(parse_closed(term), env.empty())
        trace = list(machine_trace(e))
        final = trace[-1][1]
        assert isinstance(final, Done) and len(trace) > 20
        for k in range(1, len(trace)):
            paused, steps = run_machine(e, k)
            assert (paused, steps) == (trace[k - 1][1], k)
            report = verify_trace(paused)
            assert report.failures == () and not report.exhausted
            assert report.steps == len(trace) - k
            assert report.last == final


class TestEnvironmentCalls:
    """perfbench's tracer counts environment work by wrapping each backend
    class's split_at and multi_insert, so every split and insert the
    evaluator makes must be a call to that class attribute, whether the
    environment is an object or a bare tuple. A split of an application
    with no unbound dots and an insert for a binder with no occurrence
    would change nothing, so the evaluator makes neither call there.
    Over a tuple, unless the split is the last unit of fuel, a bound
    variable applied to an argument, x M with split 1, makes no call
    either, and nor does an application to a bound variable, M x: the
    evaluator keeps a window env[lo:hi] of the tuple, moves its left end
    past x's value, which it reads, or its right end past the argument's
    value, which it hands on as a 1-tuple, and evaluates M in what is
    left. Every other split, on a tuple or on a ListEnv or TreeEnv
    object, is one call."""

    @staticmethod
    def _count_calls(monkeypatch) -> Counter:
        """(backend name, operation) -> calls, from here on."""
        calls = Counter()
        for backend in (ListEnv, TreeEnv):
            for name in ("split_at", "multi_insert"):
                operation = getattr(backend, name)

                def counted(env, *args, key=(backend.__name__, name), op=operation):
                    calls[key] += 1
                    return op(env, *args)

                monkeypatch.setattr(backend, name, counted)
        return calls

    def test_no_call_for_a_closed_application_or_an_unused_binder(
        self, monkeypatch
    ):
        calls = self._count_calls(monkeypatch)
        # (term, steps, split calls on the list and on the tree, insert
        # calls). Every application but x c, f x and x (y c) is closed;
        # f x still splits on the list, although its split is 0, because
        # its argument is a dot. x c and x (y c) are bound heads with
        # split 1 and f x is applied to a bound variable, which the tree's
        # tuples take without a call. The x of \x. c and of \x. \y. y has
        # no occurrence. Every split and beta step costs one unit of fuel,
        # whether it calls the backend or not.
        cases = (
            (r"(\x. c) (\y. y)", 5, (0, 0), 0),
            (r"(\x. x c) a", 8, (1, 0), 1),
            (r"(\x. f x) a", 8, (1, 0), 1),
            (r"(\x. \y. y) a b", 9, (0, 0), 1),
            (r"(\x. \y. x (y c)) a b", 15, (2, 0), 2),
        )
        for text, steps, splits, inserts in cases:
            t = parse_closed(parse_surface(text))
            for backend, split_calls in zip((ListEnv, TreeEnv), splits):
                calls.clear()
                fuel = Fuel(DEFAULT_FUEL)
                evaluate(t, backend.empty(), fuel)
                key = backend.__name__
                assert fuel.spent == steps
                assert calls[key, "split_at"] == split_calls
                assert calls[key, "multi_insert"] == inserts

    def test_one_call_per_open_split_and_per_used_binder(self, monkeypatch):
        # On a corpus, the calls evaluate makes are the split steps at
        # applications with unbound dots, but for a bound head with split
        # 1 or a bound argument over a tuple before the last unit of fuel,
        # and the beta steps into binders with occurrences, counted off
        # the one-step machine's trace.
        calls = self._count_calls(monkeypatch)
        made, expected, skipped = Counter(), Counter(), Counter()
        budget = 500
        for term in gen_terms(1009, 300, 40, 0.5):
            t = parse_closed(term)
            for backend in (ListEnv, TreeEnv):
                key = backend.__name__
                trace = machine_trace(Pending(t, backend.empty()), budget)
                for count, (before, _, rule) in enumerate(trace, 1):
                    control, _, stack = _decompose(before)
                    if rule == RULE_SPLIT:
                        app, env = control
                        windowed = (
                            type(env) is tuple
                            and ((app.fun is DOT and app.split == 1) or app.arg is DOT)
                            and count < budget
                        )
                        used = app.fv > 0 and not windowed
                        operation = "split_at"
                        if windowed:
                            skipped[key, "window"] += 1
                    elif rule == RULE_BETA:
                        used = bool(stack[-1][1].lam.kvec)
                        operation = "multi_insert"
                    else:
                        continue
                    (expected if used else skipped)[key, operation] += 1
                calls.clear()  # the trace's own calls
                evaluate(t, backend.empty(), budget)
                made += calls
        assert made == expected
        # Only the tree's tuples take a window, and they take one at
        # every bound head with split 1 and every bound argument the list
        # splits.
        assert skipped["ListEnv", "window"] == 0 < skipped["TreeEnv", "window"]
        assert made["ListEnv", "split_at"] == (
            made["TreeEnv", "split_at"] + skipped["TreeEnv", "window"]
        )
        assert made["ListEnv", "multi_insert"] == made["TreeEnv", "multi_insert"] > 0
        for operation in ("split_at", "multi_insert"):
            assert made["TreeEnv", operation] > 0
            assert skipped["ListEnv", operation] > 0

    def test_a_shortcut_keyed_on_the_split_is_caught(self, monkeypatch):
        # An application whose function part is closed has split 0 but may
        # have unbound dots in its argument: keyed on the split, the
        # shortcut would hand the whole environment to both parts.
        install(monkeypatch, machine, "_run", "if not term.fv:", "if not term.split:")
        message = "^free variable evaluated in environment of length 1$"
        with pytest.raises(InvariantError, match=message):
            self.test_no_call_for_a_closed_application_or_an_unused_binder(monkeypatch)

    def test_backends_make_the_same_calls_and_short_parts_are_tuples(
        self, monkeypatch
    ):
        work = Counter()  # (backend, operation, measure) -> total
        tree_lengths = []  # the length of every TreeEnv object built

        def counting(backend, name, cells):
            operation = getattr(backend, name)

            def counted(env, *args):
                key = backend.__name__, name
                work[key + ("calls",)] += 1
                work[key + ("cells",)] += cells(len(env), *args)
                work[key + ("max_len",)] = max(work[key + ("max_len",)], len(env))
                result = operation(env, *args)
                if backend is TreeEnv:
                    # A tuple becomes a TreeEnv object at _FLAT, and a
                    # TreeEnv object's part turns back into a tuple under
                    # _TREE_MIN.
                    bound = _FLAT if type(env) is tuple else _TREE_MIN
                    for part in result if name == "split_at" else (result,):
                        assert (type(part) is tuple) == (len(part) < bound)
                return result

            return counted

        for backend in (ListEnv, TreeEnv):
            for name, cells in (
                ("split_at", lambda n, k: k if 0 < k < n else 0),
                ("multi_insert", lambda n, kvec, _: sum(kvec) + len(kvec)),
            ):
                monkeypatch.setattr(backend, name, counting(backend, name, cells))
        init = TreeEnv.__init__

        def counting_init(self, finger, flen, node, length, *rest):
            tree_lengths.append(length)
            init(self, finger, flen, node, length, *rest)

        monkeypatch.setattr(TreeEnv, "__init__", counting_init)
        # Criterion 6's terms to WHNF, criterion 7.1's typed terms and
        # workloads whose environments cross _FLAT to normal form.
        terms = gen_terms(1006, 10_000, 100, 0.3)
        typed = gen_terms(1007, 300, 40, 1.0)
        workloads = [
            build_workload(name, size)
            for name, size in (
                ("wide-binder", _FLAT + 33),
                ("distinct-spine", _FLAT + 33),
                ("church-mul", 30),
                ("church-exp", 5),
            )
        ]

        def run_all(backend):
            for term in terms:
                evaluate(parse_closed(term), backend.empty(), 500)
            for term in typed + workloads:
                assert not isinstance(
                    normalize_by_evaluation(term, 100_000, backend), FuelExhausted
                )

        # Without its windows (no application has a bound head or a bound
        # argument the loop recognizes), the tree makes the list's calls,
        # cell for cell.
        with monkeypatch.context() as m:
            m.setattr(machine, "DOT", object())
            for backend in (ListEnv, TreeEnv):
                run_all(backend)
        for name in ("split_at", "multi_insert"):
            for measure in ("calls", "cells", "max_len"):
                listed = work["ListEnv", name, measure]
                assert listed == work["TreeEnv", name, measure] > 0
        assert work["TreeEnv", "split_at", "max_len"] >= _FLAT + 33
        assert tree_lengths and min(tree_lengths) >= _TREE_MIN
        assert min(tree_lengths) < _FLAT
        # With them, its inserts are the same and its splits fewer.
        windowless = work.copy()
        work.clear()
        run_all(TreeEnv)
        for measure in ("calls", "cells", "max_len"):
            key = "TreeEnv", "multi_insert", measure
            assert work[key] == windowless[key]
        for measure in ("calls", "cells"):
            key = "TreeEnv", "split_at", measure
            assert 0 < work[key] < windowless[key]


class TestVerifyTrace:
    def test_obligations_hold_on_s_applied(self):
        r = verify_trace(Pending(parse_closed(MOTIVATING), ListEnv.empty()))
        assert r.failures == () and not r.exhausted
        assert r.steps == r.beta + r.non_beta and r.beta > 0
        assert r.single_beta == r.beta
        assert r.preserved == r.weight_increases == r.non_beta
        assert print_surface(print_expr(r.last)) == "a b f"

    def test_fuel_runs_out(self):
        r = verify_trace(Pending(parse_closed(OMEGA), ListEnv.empty()), 100)
        assert r.steps == 100 and r.exhausted and r.failures == ()

    @pytest.mark.parametrize(
        "source, rewritten, rule, failure",
        [
            ("a", Done(spine("q")), RULE_SPLIT, "step 1 (split): printed term changed"),
            (r"(\x. x) a", Done(spine("q")), RULE_BETA, "step 1 (beta): not a single reduction"),
            ("a", None, RULE_VAR, "step 1 (var): weight did not increase"),
        ],
    )
    def test_each_broken_obligation_is_reported(
        self, monkeypatch, source, rewritten, rule, failure
    ):
        # A faulty step that rewrites anything pending in one go; None
        # stands for "leave the expression as it is".
        def faulty_step(e):
            if isinstance(e, Done):
                return None
            return (e if rewritten is None else rewritten), rule

        monkeypatch.setattr(machine, "step", faulty_step)
        expr = Pending(parse_closed(parse_surface(source)), ListEnv.empty())
        r = verify_trace(expr, 1)
        assert r.steps == 1
        assert r.failures == (failure,)
