"""Comparison strategies: index-based closures and eager normalization.

Two classical evaluators over the de Bruijn terms of ordlam.debruijn to
measure the ordered representation against:

* db_whnf / db_apply: the textbook call-by-value machine over de Bruijn
  terms. Its closures capture the whole environment in scope, not just
  the entries the body mentions, which is exactly the space behaviour
  the exact-environment evaluator avoids.
* normalize_hsub: eager full beta-normalization where substitution
  immediately reduces every redex it creates, so only normal forms are
  ever built.

Both spend named.Fuel as every reducer does, one unit per rule or
contraction, and print back to named terms through ordlam.machine's
printer, so results can be compared across strategies. The closure
machine differs from the ordered one only in its environment
discipline: its loop, _db_run, has machine._run's configuration,
frames and fuel write-back; its scope-wide environments are chains of
the envseq cons cells that also hold spine arguments; its values are
the ordered machine's spines plus its own DbClosure, which compares and
prints through the closure protocol of ordlam.machine; and readback and
the value walks come from ordlam.machine too. What is left here is the
two evaluators themselves: index lookup in place of split and insert,
and _hsub. Every walk over terms is an explicit-stack loop, so term
depth is bounded by memory.
"""

from __future__ import annotations

from typing import Optional, Union

from .debruijn import BVar, DApp, DbTerm, DLam, FVar, _env_lookup, db_free_names
from .debruijn import to_debruijn
from .envseq import _Cons, _heads
from .machine import (
    _FRAME_APPLY,
    _FRAME_ARG,
    DEFAULT_FUEL,
    Spine,
    _equal,
    _normal_form,
    from_debruijn,
    value_node_count,
)
from .named import Fuel, FuelExhausted, NamedTerm, _as_fuel


# ---------------------------------------------------------------------------
# call-by-value closures over whole environments


class DbClosure:
    """A binder node with the whole environment that was in scope, a
    chain of envseq cons cells, innermost binder's value first.

    Deliberately imprecise: entries the body never mentions are retained
    anyway.
    """

    __slots__ = ("lam", "env")

    def __init__(self, lam: DLam, env: Optional[_Cons]):
        self.lam = lam
        self.env = env

    def __eq__(self, other):
        return _equal(self, other)

    __hash__ = None

    def __repr__(self):
        return f"DbClosure({self.lam!r}, {self.captured()!r})"

    # The value-walk protocol of machine.Closure.

    def captured(self) -> list:
        """Every value of the scope-wide environment."""
        return _heads(self.env, [])

    def body_names(self) -> frozenset[str]:
        """Names free in the closure's body."""
        return db_free_names(self.lam)


DbValue = Union[Spine, DbClosure]


def _db_run(control, is_value: bool, stack: list, fuel: Fuel):
    # machine._run's loop over de Bruijn terms: the same configuration in
    # the same locals, frames and fuel write-back, with index lookup in
    # place of split and a cons onto the whole environment in place of
    # multi-insert. Out of fuel it does not push its configuration back
    # onto the stack, since no caller plugs a closure-machine one back.
    remaining = fuel.remaining
    if is_value:
        value = control
    else:
        term, env = control
    try:
        while True:
            if not is_value:
                if remaining == 0:
                    return FuelExhausted(fuel.budget)
                remaining -= 1
                kind = type(term)
                if kind is DApp:
                    stack.append((_FRAME_ARG, term.arg, env))
                    term = term.fun
                elif kind is BVar:
                    value = _env_lookup(env, term.index)
                    is_value = True
                elif kind is DLam:
                    value = DbClosure(term, env)
                    is_value = True
                elif kind is FVar:
                    value = Spine(term.name)
                    is_value = True
                else:
                    raise TypeError(f"not a de Bruijn term: {term!r}")
            else:
                if not stack:
                    return value
                frame = stack.pop()
                if frame[0] == _FRAME_ARG:
                    stack.append((_FRAME_APPLY, value))
                    _, term, env = frame
                    is_value = False
                else:
                    fun = frame[1]
                    if remaining == 0:
                        return FuelExhausted(fuel.budget)
                    remaining -= 1
                    if type(fun) is Spine:
                        value = Spine(fun.head, _Cons(value, fun.args))
                    else:
                        term = fun.lam.body
                        env = _Cons(value, fun.env)
                        is_value = False
    finally:
        fuel.remaining = remaining


def db_apply(
    v: DbValue, w: DbValue, fuel: Union[int, Fuel] = DEFAULT_FUEL
) -> Union[DbValue, FuelExhausted]:
    """Apply one value to another (spine append or closure entry)."""
    return _db_run(w, True, [(_FRAME_APPLY, v)], _as_fuel(fuel))


def db_whnf(
    m: NamedTerm, fuel: Union[int, Fuel] = DEFAULT_FUEL
) -> Union[DbValue, FuelExhausted]:
    """Translate a named term and evaluate it in the empty environment."""
    return _db_run((to_debruijn(m), None), False, [], _as_fuel(fuel))


def db_readback_normal_form(
    v: DbValue, fuel: Union[int, Fuel], avoid: frozenset[str] = frozenset()
) -> Union[NamedTerm, FuelExhausted]:
    """Fully normalize a closure-machine value back to a named term."""
    return _normal_form(db_apply, v, fuel, avoid)


def db_normalize_by_evaluation(
    m: NamedTerm, fuel: Union[int, Fuel] = DEFAULT_FUEL
) -> Union[NamedTerm, FuelExhausted]:
    """Beta-normal form of a named term via the closure machine: weak
    head evaluation, then readback, both spending one budget."""
    fuel = _as_fuel(fuel)
    v = db_whnf(m, fuel)
    if isinstance(v, FuelExhausted):
        return v
    return db_readback_normal_form(v, fuel, m.free_names)


# Distinct value nodes reachable from a value, through whole environments.
db_value_node_count = value_node_count


# ---------------------------------------------------------------------------
# eager beta-normal forms via substitution that reduces as it goes

# A work item of _hsub besides its tasks: None applies the second result
# from the top to the top one; _BINDER wraps the top in a binder.
_BINDER = ("binder",)


def _hsub(
    t: DbTerm, index: int, s: Union[DbTerm, None, int], fuel: Fuel
) -> Union[DbTerm, FuelExhausted]:
    """Substitute s (normal) for index in t (normal), reducing created
    redexes on the spot so the result is normal again. With s None
    nothing is substituted and t is brought to normal form the same way.

    Tasks carry their own substitution. A task whose s is an int copies
    its term with every index at or above `index` raised by s, moving a
    substituted term under the binders above it. A contraction costs fuel.
    """
    work: list = [(t, index, s)]
    out: list[DbTerm] = []
    while work:
        item = work.pop()
        if item is None:
            arg = out.pop()
            fun = out[-1]
            if type(fun) is not DLam:
                out[-1] = DApp(fun, arg)
            elif fuel.take():
                out.pop()
                work.append((fun.body, 0, arg))
            else:
                return FuelExhausted(fuel.spent)
        elif item is _BINDER:
            out[-1] = DLam(out[-1])
        else:
            t, index, s = item
            if type(t) is DApp:
                work += (None, (t.arg, index, s), (t.fun, index, s))
            elif type(t) is DLam:
                work += (_BINDER, (t.body, index + 1, s))
            elif type(t) is not BVar or s is None or t.index < index:
                out.append(t)
            elif type(s) is int:
                out.append(BVar(t.index + s))
            elif t.index == index:
                work.append((s, 0, index))
            else:
                out.append(BVar(t.index - 1))
    return out.pop()


def normalize_hsub(
    m: NamedTerm, fuel: Union[int, Fuel] = DEFAULT_FUEL
) -> Union[NamedTerm, FuelExhausted]:
    """Eager full beta-normal form; every created redex is reduced immediately."""
    fuel = _as_fuel(fuel)
    db = to_debruijn(m)
    nf = _hsub(db, 0, None, fuel)
    if isinstance(nf, FuelExhausted):
        return nf
    # db's FVar names are exactly m's free names.
    return from_debruijn(nf, db_free_names(db))
