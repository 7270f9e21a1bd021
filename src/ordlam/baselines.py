"""Comparison strategies: index-based closures and eager normalization.

Two classical evaluators to measure the ordered representation against:

* db_whnf / db_apply: the textbook call-by-value machine over de Bruijn
  terms. Its closures capture the whole environment in scope, not just
  the entries the body mentions, which is exactly the space behaviour
  the exact-environment evaluator avoids.
* normalize_hsub: eager full beta-normalization where substitution
  immediately reduces every redex it creates, so only normal forms are
  ever built.

Both spend named.Fuel as every reducer does, one unit per rule or
contraction, and print back to named terms so results can be compared
across strategies. The closure machine differs from the ordered one
only in its environment discipline: its loop, _db_run, has
machine._run's configuration, frames and fuel write-back; its
scope-wide environments are chains of the envseq cons cells that also
hold spine arguments; its values are the ordered machine's spines plus
its own DbClosure, which compares through machine._equal; and readback
and the value walks come from ordlam.machine. What is left here is de
Bruijn specific: the terms (whose ==, hash() and repr() come from
named.Term), to_debruijn, index lookup, printing and _hsub. Every walk
over terms is an explicit-stack loop, so term depth is bounded by
memory.

to_debruijn shares work as ordered.to_ordered does: a lambda node met
again in one conversion (parse_surface shares repeated subterms) reuses
its first result when that one is closed and none of the lambda's free
names is bound where it is met again, so the closure machine gets the
same front end as the ordered one.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator, Optional, Union

from .envseq import _Cons, _heads
from .errors import InvariantError
from .machine import (
    _FRAME_APPLY,
    _FRAME_ARG,
    DEFAULT_FUEL,
    Spine,
    _equal,
    _normal_form,
    names_in_value,
    value_node_count,
)
from .named import App, Fuel, FuelExhausted, Lam, NamedTerm, Term, Var, _as_fuel
from .named import fresh_names


class DbTerm(Term):
    """Base class for de Bruijn terms (BVar / FVar / DApp / DLam).

    Terms compare and hash structurally, as every Term. Nodes hold their
    constructor fields and no caches; db_free_names walks for the names.
    """

    __slots__ = ()


class BVar(DbTerm):
    __slots__ = ("index",)
    __match_args__ = ("index",)

    def __init__(self, index: int):
        _bvar_index(self, index)


class FVar(DbTerm):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __init__(self, name: str):
        _fvar_name(self, name)


class DApp(DbTerm):
    __slots__ = ("fun", "arg")
    __match_args__ = ("fun", "arg")

    def __init__(self, fun: DbTerm, arg: DbTerm):
        _dapp_fun(self, fun)
        _dapp_arg(self, arg)


class DLam(DbTerm):
    __slots__ = ("body",)
    __match_args__ = ("body",)

    def __init__(self, body: DbTerm):
        _dlam_body(self, body)


# Each slot's member-descriptor setter, as in named.
_bvar_index = BVar.__dict__["index"].__set__
_fvar_name = FVar.__dict__["name"].__set__
_dapp_fun = DApp.__dict__["fun"].__set__
_dapp_arg = DApp.__dict__["arg"].__set__
_dlam_body = DLam.__dict__["body"].__set__


def db_free_names(t: DbTerm) -> frozenset[str]:
    """Names of all FVar nodes in t, which are its free names. A lambda
    node that to_debruijn shared is walked once, however often t reaches
    it."""
    names = []
    walked = set()  # ids of the lambda nodes walked; t keeps them alive
    stack = [t]
    while stack:
        t = stack.pop()
        if type(t) is DApp:
            stack += (t.arg, t.fun)
        elif type(t) is DLam:
            if id(t) not in walked:
                walked.add(id(t))
                stack.append(t.body)
        elif type(t) is FVar:
            names.append(t.name)
    return frozenset(names)


# Work items of the loops below, besides terms: None applies the second
# result from the top to the top one; _BINDER (in to_debruijn, a
# (lambda, lowest level) pair) wraps the top in a binder.
_BINDER = ("binder",)


def to_debruijn(m: NamedTerm) -> DbTerm:
    """Standard nameless conversion; free names are kept by name.

    A lambda node met again in the same conversion reuses its first
    result when that one is closed (no index points past the lambda) and
    none of the lambda's free names is bound where it is met again.
    """
    levels: dict[str, list[int]] = defaultdict(list)  # binder levels, by name
    depth = 0  # binders in scope
    # The lowest binder level an index refers to since the innermost open
    # lambda opened; that lambda's result is closed while it stays at or
    # above the lambda's own level.
    lowest = 0
    # The closed results of m's lambdas met so far, by id; m holds them
    # all for the whole call.
    closed: dict[int, DLam] = {}
    work: list = [m]
    out: list[DbTerm] = []
    while work:
        t = work.pop()
        kind = type(t)
        if kind is Var:
            bound = levels.get(t.name)
            if bound:
                level = bound[-1]
                if level < lowest:
                    lowest = level
                out.append(BVar(depth - 1 - level))
            else:
                out.append(FVar(t.name))
        elif kind is App:
            work += (None, t.arg, t.fun)
        elif kind is Lam:
            done = closed.get(id(t))
            if done is not None and not any(map(levels.get, t.free_names)):
                out.append(done)
                continue
            levels[t.binder].append(depth)
            work += ((t, lowest), t.body)
            lowest = depth
            depth += 1
        elif t is None:
            arg = out.pop()
            out[-1] = DApp(out[-1], arg)
        else:
            lam, outer_lowest = t
            levels[lam.binder].pop()
            depth -= 1
            done = out[-1] = DLam(out[-1])
            if lowest >= depth:
                closed[id(lam)] = done
            lowest = min(lowest, outer_lowest)
    return out.pop()


def locally_closed(t: DbTerm, depth: int = 0) -> bool:
    """Every bound index points at an enclosing binder."""
    stack = [(t, depth)]
    while stack:
        t, depth = stack.pop()
        if type(t) is BVar and t.index >= depth:
            return False
        if type(t) is DApp:
            stack += ((t.arg, depth), (t.fun, depth))
        elif type(t) is DLam:
            stack.append((t.body, depth + 1))
    return True


# ---------------------------------------------------------------------------
# call-by-value closures over whole environments


def _env_lookup(env: Optional[_Cons], index: int):
    cell = env
    for _ in range(index):
        if cell is None:
            break
        cell = cell.tail
    if cell is None:
        raise InvariantError(f"environment too short for index {index}")
    return cell.head


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


# _db_print tasks.
_TERM = 0  # (_TERM, de Bruijn term, scope start, environment or _UNBOUND)
_VALUE = 1  # (_VALUE, value)
_APP = 2  # (_APP,): pop an argument and a function, push their application
_LAM = 3  # (_LAM, binder): leave the binder's scope, wrap the body in it
_APP_TASK = (_APP,)
_UNBOUND = object()  # the environment of a term outside any closure


def db_print_value(v: DbValue) -> NamedTerm:
    """Print a value as a named term without reducing anything further."""
    return _db_print((_VALUE, v), fresh_names(names_in_value(v)))


def from_debruijn(t: DbTerm, avoid: frozenset[str] = frozenset()) -> NamedTerm:
    """Name the binders of a de Bruijn term with deterministic fresh names."""
    return _db_print((_TERM, t, 0, _UNBOUND), fresh_names(db_free_names(t) | avoid))


def _db_print(task: tuple, fresh: Iterator[str]) -> NamedTerm:
    """Print one task's term or value. Binders draw fresh names in
    pre-order, function part before argument part, spine arguments left
    to right. The binder names in scope live in one list, innermost last;
    a term task records where its closure's scope starts."""
    scope: list[str] = []
    work: list[tuple] = [task]
    out: list[NamedTerm] = []
    while work:
        task = work.pop()
        kind = task[0]
        if kind == _TERM:
            _, t, base, env = task
            if type(t) is BVar:
                depth = len(scope) - base
                if t.index < depth:
                    out.append(Var(scope[-1 - t.index]))
                elif env is _UNBOUND:
                    raise InvariantError(f"unbound index {t.index} at depth {depth}")
                else:
                    work.append((_VALUE, _env_lookup(env, t.index - depth)))
            elif type(t) is FVar:
                out.append(Var(t.name))
            elif type(t) is DApp:
                work.append(_APP_TASK)
                work.append((_TERM, t.arg, base, env))
                work.append((_TERM, t.fun, base, env))
            elif type(t) is DLam:
                binder = next(fresh)
                work.append((_LAM, binder))
                work.append((_TERM, t.body, base, env))
                scope.append(binder)
            else:
                raise TypeError(f"not a de Bruijn term: {t!r}")
        elif kind == _VALUE:
            value = task[1]
            if type(value) is Spine:
                out.append(Var(value.head))
                for arg in _heads(value.args, []):
                    work.append(_APP_TASK)
                    work.append((_VALUE, arg))
            elif type(value) is DbClosure:
                # A closure's binder node opens a scope of its own: its body
                # sees only that binder, then the closure's env.
                work.append((_TERM, value.lam, len(scope), value.env))
            else:
                raise TypeError(f"not a closure-machine value: {value!r}")
        elif kind == _APP:
            arg = out.pop()
            out[-1] = App(out[-1], arg)
        else:
            scope.pop()
            out[-1] = Lam(task[1], out[-1])
    return out.pop()


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
