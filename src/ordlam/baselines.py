"""Comparison strategies: index-based closures and eager normalization.

Two classical evaluators to measure the ordered representation against:

* eval_closures: the textbook call-by-value machine over de Bruijn
  terms. Its closures capture the whole environment in scope, not just
  the entries the body mentions, which is exactly the space behaviour
  the exact-environment evaluator avoids.
* normalize_hsub: eager full beta-normalization where substitution
  immediately reduces every redex it creates, so only normal forms are
  ever built.

Both share the fuel discipline and print back to named terms so results
can be compared across strategies. The closure machine's values are the
ordered machine's spines plus its own DbClosure; spines, readback and
the value walks come from ordlam.machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Union

from .errors import InvariantError
from .machine import (
    _FRAME_APPLY,
    _FRAME_ARG,
    Fuel,
    Spine,
    _as_fuel,
    _normal_form,
    _OutOfFuel,
    names_in_value,
    value_node_count,
)
from .named import App, FuelExhausted, Lam, NamedTerm, Var, fresh_names


class DbTerm:
    """Base class for de Bruijn terms (BVar / FVar / DApp / DLam)."""


@dataclass(frozen=True)
class BVar(DbTerm):
    index: int

    @cached_property
    def free_names(self) -> frozenset[str]:
        return frozenset()


@dataclass(frozen=True)
class FVar(DbTerm):
    name: str

    @cached_property
    def free_names(self) -> frozenset[str]:
        return frozenset((self.name,))


@dataclass(frozen=True)
class DApp(DbTerm):
    fun: DbTerm
    arg: DbTerm

    @cached_property
    def free_names(self) -> frozenset[str]:
        return self.fun.free_names | self.arg.free_names


@dataclass(frozen=True)
class DLam(DbTerm):
    body: DbTerm

    @cached_property
    def free_names(self) -> frozenset[str]:
        return self.body.free_names


def to_debruijn(m: NamedTerm) -> DbTerm:
    """Standard nameless conversion; free names are kept by name."""
    return _to_db(m, ())


def _to_db(m: NamedTerm, scope: tuple[str, ...]) -> DbTerm:
    if isinstance(m, Var):
        for i, name in enumerate(scope):
            if name == m.name:
                return BVar(i)
        return FVar(m.name)
    if isinstance(m, App):
        return DApp(_to_db(m.fun, scope), _to_db(m.arg, scope))
    assert isinstance(m, Lam)
    return DLam(_to_db(m.body, (m.binder,) + scope))


def locally_closed(t: DbTerm, depth: int = 0) -> bool:
    """Every bound index points at an enclosing binder."""
    if isinstance(t, BVar):
        return t.index < depth
    if isinstance(t, FVar):
        return True
    if isinstance(t, DApp):
        return locally_closed(t.fun, depth) and locally_closed(t.arg, depth)
    return locally_closed(t.body, depth + 1)


# ---------------------------------------------------------------------------
# call-by-value closures over whole environments


class _EnvCell:
    __slots__ = ("value", "rest")

    def __init__(self, value, rest):
        self.value = value
        self.rest = rest


def _env_cons(value, env: Optional[_EnvCell]) -> _EnvCell:
    return _EnvCell(value, env)


def _env_lookup(env: Optional[_EnvCell], index: int):
    cell = env
    for _ in range(index):
        if cell is None:
            break
        cell = cell.rest
    if cell is None:
        raise InvariantError(f"environment too short for index {index}")
    return cell.value


def env_to_list(env: Optional[_EnvCell]) -> list:
    out = []
    while env is not None:
        out.append(env.value)
        env = env.rest
    return out


class DbClosure:
    """A binder body with the whole environment that was in scope.

    Deliberately imprecise: entries the body never mentions are retained
    anyway.
    """

    __slots__ = ("body", "env")

    def __init__(self, body: DbTerm, env: Optional[_EnvCell]):
        self.body = body
        self.env = env

    def __eq__(self, other):
        return (
            isinstance(other, DbClosure)
            and self.body == other.body
            and env_to_list(self.env) == env_to_list(other.env)
        )

    __hash__ = None

    def __repr__(self):
        return f"DbClosure({self.body!r}, {env_to_list(self.env)!r})"

    # The value-walk protocol of machine.Closure.

    def captured(self) -> list:
        """Every value of the scope-wide environment."""
        return env_to_list(self.env)

    def body_names(self) -> frozenset[str]:
        """Names free in the closure's body."""
        return self.body.free_names


DbValue = Union[Spine, DbClosure]


def eval_closures(
    t: DbTerm,
    env: Optional[_EnvCell] = None,
    fuel: Union[int, Fuel] = 1_000_000,
) -> Union[DbValue, FuelExhausted]:
    """Call-by-value evaluation with scope-wide closure environments."""
    fuel = _as_fuel(fuel)
    control = (t, env)
    is_value = False
    stack: list = []
    while True:
        if not is_value:
            term, cur = control
            if not fuel.take():
                return FuelExhausted(fuel.spent)
            if isinstance(term, DApp):
                stack.append((_FRAME_ARG, term.arg, cur))
                control = (term.fun, cur)
            elif isinstance(term, DLam):
                control = DbClosure(term.body, cur)
                is_value = True
            elif isinstance(term, BVar):
                control = _env_lookup(cur, term.index)
                is_value = True
            elif isinstance(term, FVar):
                control = Spine(term.name)
                is_value = True
            else:
                raise TypeError(f"not a de Bruijn term: {term!r}")
        else:
            if not stack:
                return control
            frame = stack.pop()
            if frame[0] == _FRAME_ARG:
                stack.append((_FRAME_APPLY, control))
                control = (frame[1], frame[2])
                is_value = False
            else:
                fun = frame[1]
                if not fuel.take():
                    return FuelExhausted(fuel.spent)
                if isinstance(fun, Spine):
                    control = Spine(fun.head, fun.args.append(control))
                else:
                    control = (fun.body, _env_cons(control, fun.env))
                    is_value = False


def db_apply(
    v: DbValue, w: DbValue, fuel: Union[int, Fuel] = 1_000_000
) -> Union[DbValue, FuelExhausted]:
    fuel = _as_fuel(fuel)
    if not fuel.take():
        return FuelExhausted(fuel.spent)
    if isinstance(v, Spine):
        return Spine(v.head, v.args.append(w))
    return eval_closures(v.body, _env_cons(w, v.env), fuel)


def db_whnf(
    m: NamedTerm, fuel: Union[int, Fuel] = 1_000_000
) -> Union[DbValue, FuelExhausted]:
    return eval_closures(to_debruijn(m), None, fuel)


def db_print_value(v: DbValue) -> NamedTerm:
    """Print a value as a named term without reducing anything further."""
    fresh = fresh_names(names_in_value(v))
    return _db_print_value(v, fresh)


def _db_print_value(v: DbValue, fresh: Iterator[str]) -> NamedTerm:
    if isinstance(v, Spine):
        result: NamedTerm = Var(v.head)
        for arg in v.args.to_list():
            result = App(result, _db_print_value(arg, fresh))
        return result
    binder = next(fresh)
    return Lam(binder, _db_print_term(v.body, (binder,), v.env, fresh))


def _db_print_term(
    t: DbTerm, scope: tuple[str, ...], env: Optional[_EnvCell], fresh: Iterator[str]
) -> NamedTerm:
    if isinstance(t, BVar):
        if t.index < len(scope):
            return Var(scope[t.index])
        return _db_print_value(_env_lookup(env, t.index - len(scope)), fresh)
    if isinstance(t, FVar):
        return Var(t.name)
    if isinstance(t, DApp):
        return App(
            _db_print_term(t.fun, scope, env, fresh),
            _db_print_term(t.arg, scope, env, fresh),
        )
    assert isinstance(t, DLam)
    binder = next(fresh)
    return Lam(binder, _db_print_term(t.body, (binder,) + scope, env, fresh))


def db_readback_normal_form(
    v: DbValue, fuel: Union[int, Fuel], avoid: frozenset[str] = frozenset()
) -> Union[NamedTerm, FuelExhausted]:
    """Fully normalize a closure-machine value back to a named term."""
    return _normal_form(db_apply, v, fuel, avoid)


def db_normalize_by_evaluation(
    m: NamedTerm, fuel: Union[int, Fuel] = 1_000_000
) -> Union[NamedTerm, FuelExhausted]:
    fuel = _as_fuel(fuel)
    v = db_whnf(m, fuel)
    if isinstance(v, FuelExhausted):
        return v
    return db_readback_normal_form(v, fuel, m.free_names)


# Distinct value nodes reachable from a value, through whole environments.
db_value_node_count = value_node_count


# ---------------------------------------------------------------------------
# eager beta-normal forms via substitution that reduces as it goes


def _shift(t: DbTerm, by: int, cutoff: int = 0) -> DbTerm:
    if isinstance(t, BVar):
        return BVar(t.index + by) if t.index >= cutoff else t
    if isinstance(t, FVar):
        return t
    if isinstance(t, DApp):
        return DApp(_shift(t.fun, by, cutoff), _shift(t.arg, by, cutoff))
    return DLam(_shift(t.body, by, cutoff + 1))


def _hsub(t: DbTerm, index: int, s: DbTerm, fuel: Fuel) -> DbTerm:
    """Substitute s (normal) for index in t (normal), reducing created
    redexes on the spot so the result is normal again."""
    if isinstance(t, BVar):
        if t.index == index:
            return _shift(s, index)
        return BVar(t.index - 1) if t.index > index else t
    if isinstance(t, FVar):
        return t
    if isinstance(t, DLam):
        return DLam(_hsub(t.body, index + 1, s, fuel))
    assert isinstance(t, DApp)
    fun = _hsub(t.fun, index, s, fuel)
    arg = _hsub(t.arg, index, s, fuel)
    if isinstance(fun, DLam):
        if not fuel.take():
            raise _OutOfFuel
        return _hsub(fun.body, 0, arg, fuel)
    return DApp(fun, arg)


def _db_normal_form(t: DbTerm, fuel: Fuel) -> DbTerm:
    if isinstance(t, (BVar, FVar)):
        return t
    if isinstance(t, DLam):
        return DLam(_db_normal_form(t.body, fuel))
    assert isinstance(t, DApp)
    fun = _db_normal_form(t.fun, fuel)
    arg = _db_normal_form(t.arg, fuel)
    if isinstance(fun, DLam):
        if not fuel.take():
            raise _OutOfFuel
        return _hsub(fun.body, 0, arg, fuel)
    return DApp(fun, arg)


def from_debruijn(t: DbTerm, avoid: frozenset[str] = frozenset()) -> NamedTerm:
    """Name the binders of a de Bruijn term with deterministic fresh names."""
    fresh = fresh_names(t.free_names | avoid)
    return _from_db(t, (), fresh)


def _from_db(t: DbTerm, scope: tuple[str, ...], fresh) -> NamedTerm:
    if isinstance(t, BVar):
        if t.index >= len(scope):
            raise InvariantError(f"unbound index {t.index} at depth {len(scope)}")
        return Var(scope[t.index])
    if isinstance(t, FVar):
        return Var(t.name)
    if isinstance(t, DApp):
        return App(_from_db(t.fun, scope, fresh), _from_db(t.arg, scope, fresh))
    binder = next(fresh)
    return Lam(binder, _from_db(t.body, (binder,) + scope, fresh))


def normalize_hsub(
    m: NamedTerm, fuel: Union[int, Fuel] = 1_000_000
) -> Union[NamedTerm, FuelExhausted]:
    """Eager full beta-normal form; every created redex is reduced immediately."""
    fuel = _as_fuel(fuel)
    try:
        nf = _db_normal_form(to_debruijn(m), fuel)
    except (_OutOfFuel, RecursionError):
        return FuelExhausted(fuel.spent)
    return from_debruijn(nf, m.free_names)
