"""Values and the call-by-value evaluator over ordered terms.

A value is either a spine (a free-variable head applied to a list of
argument values) or a closure pairing a binder with an environment that
is exact: one entry per unbound dot of the body, nothing else.

Evaluation dispatches six ways, each costing one fuel unit:

* ``var``    a free variable (empty environment) becomes a bare spine;
* ``bound``  a dot (singleton environment) yields its value;
* ``split``  an application splits the environment at its stored index,
  then evaluates function part before argument part;
* ``close``  a binder captures its environment in a closure;
* ``spine``  applying a spine appends the argument;
* ``beta``   applying a closure multi-inserts the argument into the
  environment at the binder's positions and evaluates the body.

The same dispatch drives both the big-step evaluator (an explicit-stack
loop, so deep terms do not recurse) and the one-step rewriting machine
used by the trace checker. Printing turns values back into named terms.

Spines, the walks over values and readback to normal form are shared
with the de Bruijn closure machine in baselines: a closure class takes
part by providing captured() and body_names(), and readback is given
the machine's apply function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .envseq import ListEnv
from .errors import InvariantError
from .named import App, FuelExhausted, Lam, NamedTerm, Var, fresh_names
from .ordered import (
    Dot,
    Free,
    OApp,
    OLam,
    OrderedTerm,
    ordered_free_names,
    parse_closed,
)

DEFAULT_FUEL = 1_000_000

RULE_VAR = "var"
RULE_BOUND = "bound"
RULE_SPLIT = "split"
RULE_CLOSE = "close"
RULE_SPINE = "spine"
RULE_BETA = "beta"

# Every rule except beta leaves the printed term unchanged up to alpha.
NON_BETA_RULES = (RULE_VAR, RULE_BOUND, RULE_SPLIT, RULE_CLOSE, RULE_SPINE)


class Fuel:
    """Mutable step budget; spent counts rule applications."""

    __slots__ = ("remaining", "spent")

    def __init__(self, budget: int):
        if budget < 1:
            raise ValueError("fuel must be positive")
        self.remaining = budget
        self.spent = 0

    def take(self) -> bool:
        """Consume one unit; False when the budget is gone."""
        if self.remaining == 0:
            return False
        self.remaining -= 1
        self.spent += 1
        return True


def _as_fuel(fuel: Union[int, Fuel]) -> Fuel:
    return fuel if isinstance(fuel, Fuel) else Fuel(fuel)


# ---------------------------------------------------------------------------
# values


class _SnocCell:
    __slots__ = ("value", "prev")

    def __init__(self, value, prev):
        self.value = value
        self.prev = prev


class ArgStack:
    """Persistent argument list with O(1) shared append (stored reversed)."""

    __slots__ = ("_cell", "_length")

    def __init__(self, cell: Optional[_SnocCell], length: int):
        self._cell = cell
        self._length = length

    def append(self, value) -> "ArgStack":
        return ArgStack(_SnocCell(value, self._cell), self._length + 1)

    def __len__(self) -> int:
        return self._length

    def to_list(self) -> list:
        out = []
        cell = self._cell
        while cell is not None:
            out.append(cell.value)
            cell = cell.prev
        out.reverse()
        return out


EMPTY_ARGS = ArgStack(None, 0)


class Spine:
    """A free variable applied, left-associatively, to argument values."""

    __slots__ = ("head", "args")

    def __init__(self, head: str, args: ArgStack = EMPTY_ARGS):
        self.head = head
        self.args = args

    def __eq__(self, other):
        return (
            isinstance(other, Spine)
            and self.head == other.head
            and len(self.args) == len(other.args)
            and self.args.to_list() == other.args.to_list()
        )

    __hash__ = None

    def __repr__(self):
        return f"Spine({self.head!r}, {self.args.to_list()!r})"


class Closure:
    """A binder body paired with an exact environment.

    Exactness (environment length equals the body's unbound dots minus
    the binder's own occurrences) is checked on every construction.
    """

    __slots__ = ("kvec", "body", "env")

    def __init__(self, kvec: tuple[int, ...], body: OrderedTerm, env):
        if len(env) != body.fv - len(kvec):
            raise InvariantError(
                f"closure environment has {len(env)} entries, "
                f"body needs {body.fv - len(kvec)}"
            )
        self.kvec = kvec
        self.body = body
        self.env = env

    def __eq__(self, other):
        return (
            isinstance(other, Closure)
            and self.kvec == other.kvec
            and self.body == other.body
            and self.env.to_list() == other.env.to_list()
        )

    __hash__ = None

    def __repr__(self):
        return f"Closure({self.kvec!r}, {self.body!r}, {self.env.to_list()!r})"

    # The value-walk protocol, which baselines.DbClosure provides too.

    def captured(self) -> list:
        """The values the closure holds."""
        return self.env.to_list()

    def body_names(self) -> frozenset[str]:
        """Names free in the closure's body."""
        return ordered_free_names(self.body)


Value = Union[Spine, Closure]


# ---------------------------------------------------------------------------
# big-step evaluation (explicit stack, so term depth never overflows)

_FRAME_ARG = 0  # function value pending; evaluate the argument next
_FRAME_APPLY = 1  # argument value arrived; apply the stored function value


def _run(control, is_value: bool, stack: list, fuel: Fuel):
    # The hot loop: fuel bookkeeping is inlined and types matched exactly,
    # in dispatch-frequency order.
    remaining = fuel.remaining
    spent = fuel.spent

    def _sync():
        fuel.remaining = remaining
        fuel.spent = spent

    while True:
        if not is_value:
            term, env = control
            if remaining == 0:
                _sync()
                return FuelExhausted(spent)
            remaining -= 1
            spent += 1
            kind = type(term)
            if kind is OApp:
                env_fun, env_arg = env.split_at(term.split)
                stack.append((_FRAME_ARG, term.arg, env_arg))
                control = (term.fun, env_fun)
            elif kind is Dot:
                control = env.sole()
                is_value = True
            elif kind is OLam:
                control = Closure(term.kvec, term.body, env)
                is_value = True
            elif kind is Free:
                if len(env) != 0:
                    _sync()
                    raise InvariantError(
                        f"free variable evaluated in environment of length {len(env)}"
                    )
                control = Spine(term.name)
                is_value = True
            else:
                _sync()
                raise TypeError(f"not an ordered term: {term!r}")
        else:
            if not stack:
                _sync()
                return control
            frame = stack.pop()
            if frame[0] == _FRAME_ARG:
                stack.append((_FRAME_APPLY, control))
                control = (frame[1], frame[2])
                is_value = False
            else:
                fun = frame[1]
                if remaining == 0:
                    _sync()
                    return FuelExhausted(spent)
                remaining -= 1
                spent += 1
                if type(fun) is Spine:
                    control = Spine(fun.head, fun.args.append(control))
                else:
                    control = (fun.body, fun.env.multi_insert(fun.kvec, control))
                    is_value = False


def evaluate(
    t: OrderedTerm, env, fuel: Union[int, Fuel] = DEFAULT_FUEL
) -> Union[Value, FuelExhausted]:
    """Evaluate an ordered term in an exact environment to a value."""
    if len(env) != t.fv:
        raise InvariantError(
            f"environment has {len(env)} entries, term has {t.fv} unbound dots"
        )
    return _run((t, env), False, [], _as_fuel(fuel))


def apply_value(
    v: Value, w: Value, fuel: Union[int, Fuel] = DEFAULT_FUEL
) -> Union[Value, FuelExhausted]:
    """Apply one value to another (spine append or closure entry)."""
    return _run(w, True, [(_FRAME_APPLY, v)], _as_fuel(fuel))


def whnf(
    m: NamedTerm,
    fuel: Union[int, Fuel] = DEFAULT_FUEL,
    backend=ListEnv,
) -> Union[Value, FuelExhausted]:
    """Translate a named term and evaluate it in the empty environment."""
    return evaluate(parse_closed(m), backend.empty(), fuel)


# ---------------------------------------------------------------------------
# printing values back to named terms


def _reachable(v: Value) -> Iterator[Value]:
    """Each distinct value node reachable from v, once (explicit stack)."""
    seen: set[int] = set()
    stack: list = [v]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        yield item
        if isinstance(item, Spine):
            stack.extend(item.args.to_list())
        else:
            stack.extend(item.captured())


def names_in_value(v: Value) -> frozenset[str]:
    """Every name reachable in a value: spine heads, closure bodies, environments."""
    names: set[str] = set()
    for item in _reachable(v):
        if isinstance(item, Spine):
            names.add(item.head)
        else:
            names |= item.body_names()
    return frozenset(names)


def _list_multi_insert(values: list, kvec: tuple[int, ...], w) -> list:
    out = []
    pos = 0
    for gap in kvec:
        out.extend(values[pos : pos + gap])
        out.append(w)
        pos += gap
    out.extend(values[pos:])
    return out


def _print_term(t: OrderedTerm, env: list, fresh: Iterator[str]) -> NamedTerm:
    if isinstance(t, Free):
        if env:
            raise InvariantError("free variable printed under a non-empty environment")
        return Var(t.name)
    if isinstance(t, Dot):
        if len(env) != 1:
            raise InvariantError(
                f"dot printed under environment of length {len(env)}"
            )
        return _print_value(env[0], fresh)
    if isinstance(t, OApp):
        if t.split > len(env):
            raise InvariantError("application split exceeds environment length")
        return App(
            _print_term(t.fun, env[: t.split], fresh),
            _print_term(t.arg, env[t.split :], fresh),
        )
    if isinstance(t, OLam):
        binder = next(fresh)
        marker = Spine(binder)
        inner = _list_multi_insert(env, t.kvec, marker)
        return Lam(binder, _print_term(t.body, inner, fresh))
    raise TypeError(f"not an ordered term: {t!r}")


def _print_value(v: Value, fresh: Iterator[str]) -> NamedTerm:
    if isinstance(v, Spine):
        result: NamedTerm = Var(v.head)
        for arg in v.args.to_list():
            result = App(result, _print_value(arg, fresh))
        return result
    if isinstance(v, Closure):
        return _print_term(OLam(v.kvec, v.body), v.env.to_list(), fresh)
    raise TypeError(f"not a value: {v!r}")


def print_ordered(t: OrderedTerm, env: list) -> NamedTerm:
    """Print an ordered term whose dots are bound to the listed values.

    Binders get deterministic fresh names avoiding everything visible in
    the term or the environment.
    """
    if len(env) != t.fv:
        raise InvariantError(
            f"environment has {len(env)} entries, term has {t.fv} unbound dots"
        )
    avoid = set(ordered_free_names(t))
    for v in env:
        avoid |= names_in_value(v)
    return _print_term(t, list(env), fresh_names(avoid))


def print_value(v: Value) -> NamedTerm:
    """Print a value as a named term (spines as applications, closures as lambdas)."""
    return _print_value(v, fresh_names(names_in_value(v)))


# ---------------------------------------------------------------------------
# full normalization by evaluation


class _OutOfFuel(Exception):
    pass


def _readback(v: Value, apply, fuel: Fuel, fresh: Iterator[str]) -> NamedTerm:
    if isinstance(v, Spine):
        result: NamedTerm = Var(v.head)
        for arg in v.args.to_list():
            result = App(result, _readback(arg, apply, fuel, fresh))
        return result
    binder = next(fresh)
    applied = apply(v, Spine(binder), fuel)
    if isinstance(applied, FuelExhausted):
        raise _OutOfFuel
    return Lam(binder, _readback(applied, apply, fuel, fresh))


def _normal_form(
    apply, v: Value, fuel: Union[int, Fuel], avoid: frozenset[str]
) -> Union[NamedTerm, FuelExhausted]:
    """Read a value back to a named beta-normal form, opening each closure
    by applying it (with apply) to a fresh inert head."""
    fuel = _as_fuel(fuel)
    fresh = fresh_names(names_in_value(v) | avoid)
    try:
        return _readback(v, apply, fuel, fresh)
    except _OutOfFuel:
        return FuelExhausted(fuel.spent)


def readback_normal_form(
    v: Value, fuel: Union[int, Fuel], avoid: frozenset[str] = frozenset()
) -> Union[NamedTerm, FuelExhausted]:
    """Fully normalize a value to a named beta-normal form.

    Closures are opened by applying them to fresh inert heads, so this
    keeps evaluating under binders until only spines remain.
    """
    return _normal_form(apply_value, v, fuel, avoid)


def normalize_by_evaluation(
    m: NamedTerm,
    fuel: Union[int, Fuel] = DEFAULT_FUEL,
    backend=ListEnv,
) -> Union[NamedTerm, FuelExhausted]:
    """Beta-normal form of a named term via evaluation plus readback."""
    fuel = _as_fuel(fuel)
    v = whnf(m, fuel, backend)
    if isinstance(v, FuelExhausted):
        return v
    return readback_normal_form(v, fuel, m.free_names)


# ---------------------------------------------------------------------------
# the one-step rewriting machine


class MachineExpr:
    """Base class for machine expressions (Pending / Done / Pair)."""


@dataclass(frozen=True, eq=False)
class Pending(MachineExpr):
    """An ordered term waiting to be evaluated in its environment."""

    term: OrderedTerm
    env: object

    def __post_init__(self):
        if len(self.env) != self.term.fv:
            raise InvariantError(
                f"environment has {len(self.env)} entries, "
                f"term has {self.term.fv} unbound dots"
            )

    def __eq__(self, other):
        # Environments compare observationally, whatever the backend.
        return (
            isinstance(other, Pending)
            and self.term == other.term
            and self.env.to_list() == other.env.to_list()
        )

    __hash__ = None


@dataclass(frozen=True)
class Done(MachineExpr):
    value: Value


@dataclass(frozen=True)
class Pair(MachineExpr):
    """An application of one machine expression to another."""

    fun: MachineExpr
    arg: MachineExpr


def step(e: MachineExpr) -> Optional[tuple[MachineExpr, str]]:
    """One rule application at the leftmost-outermost reducible position.

    Returns the rewritten expression and the rule tag, or None when the
    expression is fully evaluated (stuck).
    """
    if isinstance(e, Done):
        return None
    if isinstance(e, Pending):
        term, env = e.term, e.env
        if isinstance(term, OApp):
            env_fun, env_arg = env.split_at(term.split)
            return Pair(Pending(term.fun, env_fun), Pending(term.arg, env_arg)), RULE_SPLIT
        if isinstance(term, OLam):
            return Done(Closure(term.kvec, term.body, env)), RULE_CLOSE
        if isinstance(term, Dot):
            return Done(env.sole()), RULE_BOUND
        if isinstance(term, Free):
            return Done(Spine(term.name)), RULE_VAR
        raise TypeError(f"not an ordered term: {term!r}")
    assert isinstance(e, Pair)
    inner = step(e.fun)
    if inner is not None:
        rewritten, rule = inner
        return Pair(rewritten, e.arg), rule
    inner = step(e.arg)
    if inner is not None:
        rewritten, rule = inner
        return Pair(e.fun, rewritten), rule
    fun = e.fun.value
    arg = e.arg.value
    if isinstance(fun, Spine):
        return Done(Spine(fun.head, fun.args.append(arg))), RULE_SPINE
    return Pending(fun.body, fun.env.multi_insert(fun.kvec, arg)), RULE_BETA


def machine_trace(
    e: MachineExpr, fuel: Union[int, Fuel] = DEFAULT_FUEL
) -> Iterator[tuple[MachineExpr, MachineExpr, str]]:
    """Yield (before, after, rule) transitions until stuck or out of fuel."""
    fuel = _as_fuel(fuel)
    while True:
        result = step(e)
        if result is None:
            return
        if not fuel.take():
            return
        after, rule = result
        yield e, after, rule
        e = after


def run_machine(
    e: MachineExpr, fuel: Union[int, Fuel] = DEFAULT_FUEL
) -> tuple[MachineExpr, int]:
    """Iterate the machine to a stuck expression; returns it with the step count."""
    steps = 0
    for _, after, _ in machine_trace(e, fuel):
        e = after
        steps += 1
    return e, steps


def print_expr(e: MachineExpr) -> NamedTerm:
    """Print a machine expression (pairs print as applications)."""
    avoid = _names_in_expr(e)
    fresh = fresh_names(avoid)
    return _print_expr(e, fresh)


def _print_expr(e: MachineExpr, fresh: Iterator[str]) -> NamedTerm:
    if isinstance(e, Pending):
        return _print_term(e.term, e.env.to_list(), fresh)
    if isinstance(e, Done):
        return _print_value(e.value, fresh)
    if isinstance(e, Pair):
        return App(_print_expr(e.fun, fresh), _print_expr(e.arg, fresh))
    raise TypeError(f"not a machine expression: {e!r}")


def _names_in_expr(e: MachineExpr) -> set[str]:
    if isinstance(e, Pending):
        names = set(ordered_free_names(e.term))
        for v in e.env.to_list():
            names |= names_in_value(v)
        return names
    if isinstance(e, Done):
        return set(names_in_value(e.value))
    return _names_in_expr(e.fun) | _names_in_expr(e.arg)


def weight(e: MachineExpr) -> int:
    """Termination measure: strictly increases on every non-beta rule.

    A pending term weighs 1, a closure 2, a spine 1 + 2**n plus its
    arguments' weights, a pair the sum of its parts. Arbitrary-precision
    arithmetic matters: spines make the exponential term grow fast.
    """
    if isinstance(e, Pending):
        return 1
    if isinstance(e, Done):
        return _value_weight(e.value)
    if isinstance(e, Pair):
        return weight(e.fun) + weight(e.arg)
    raise TypeError(f"not a machine expression: {e!r}")


def _value_weight(v: Value) -> int:
    if isinstance(v, Closure):
        return 2
    args = v.args.to_list()
    return 1 + 2 ** len(args) + sum(_value_weight(a) for a in args)


# ---------------------------------------------------------------------------
# space accounting


def value_node_count(v: Value) -> int:
    """Distinct value nodes reachable from v; shared substructure counts once."""
    return sum(1 for _ in _reachable(v))
