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

The six rules are written once, in the big-step evaluator's loop
(_run). An environment is a ListEnv, a TreeEnv or, for a tree-backend
sequence shorter than envseq._FLAT (512 values, so nearly every exact
environment) that was not split off a longer one, a bare tuple. _run
calls a tuple's split and insert through the class, as
TreeEnv.split_at(env, k), and any other environment's through its own
methods, so every split and insert it makes is a call to the backend
class's attribute; it reads a dot's value off a tuple by index, after
checking its length. It makes no call that would change nothing: an
application with no unbound dots (fv 0) runs both parts in the empty
environment it has, and a beta into a binder with no occurrence (an
empty kvec) enters the body with the closure's environment. Those are
still the split and beta rules, one fuel unit each, so no rule or step
count changes; only environment operations are saved, which are counted
apart from machine transitions (Accattoli and Barras, "Environments and
the complexity of abstract machines", PPDP 2017).

The one-step machine that the trace checker (verify_trace) steps is
that loop refocused: step decomposes a machine expression into _run's
configuration (control, is_value, stack), runs one rule on one unit of
fuel, and plugs the configuration where _run stops back into an
expression; run_machine does the same once around a whole run. Every
walk here, readback and printing included, is an explicit-stack loop,
so term and value depth is bounded by memory, not by the recursion
limit.

Spines, the walks over values, readback to normal form and printing
are shared with the de Bruijn closure machine in baselines. A closure
of either machine holds the binder node its loop met (lam) and an
environment; a closure class takes part by providing lam, captured()
and body_names(), and readback is given the machine's apply function.
One printer (_print) turns ordered and de Bruijn terms, the values of
both machines and machine expressions back into named terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .debruijn import BVar, DApp, DbTerm, DLam, FVar, _env_lookup, db_free_names
from .envseq import TreeEnv, _Cons, _gap_insert, _heads
from .errors import InvariantError
from .named import App, Fuel, FuelExhausted, Lam, NamedTerm, Var, _as_fuel, _Leaves
from .named import alpha_key, fresh_names, reduct_keys
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


# ---------------------------------------------------------------------------
# values


class Spine:
    """A free variable applied, left-associatively, to argument values.

    args is a chain of envseq cons cells, last argument first, or None,
    so an application shares its function's chain and adds one cell.
    """

    __slots__ = ("head", "args")

    def __init__(self, head: str, args: Optional[_Cons] = None):
        self.head = head
        self.args = args

    def __eq__(self, other):
        return _equal(self, other)

    __hash__ = None

    def __repr__(self):
        return f"Spine({self.head!r}, {_heads(self.args, [])[::-1]!r})"


class Closure:
    """A binder node paired with an exact environment: one value per
    unbound dot of the binder, lam.fv of them, checked on every
    construction."""

    __slots__ = ("lam", "env")

    def __init__(self, lam: OLam, env):
        if len(env) != lam.fv:
            raise InvariantError(
                f"closure environment has {len(env)} entries, binder needs {lam.fv}"
            )
        self.lam = lam
        self.env = env

    def __eq__(self, other):
        return _equal(self, other)

    __hash__ = None

    def __repr__(self):
        return f"Closure({self.lam!r}, {list(self.env)!r})"

    # The value-walk protocol, which baselines.DbClosure provides too.

    def captured(self) -> list:
        """The values the closure holds."""
        return list(self.env)

    def body_names(self) -> frozenset[str]:
        """Names free in the closure's body."""
        return ordered_free_names(self.lam)


Value = Union[Spine, Closure]


def _equal(a, b) -> bool:
    """Structural equality of values and machine expressions, by an
    explicit-stack walk so any depth compares. Environments compare
    observationally, whatever the backend. A closure of either machine
    compares through the value-walk protocol: its binder node, then its
    captured() values pairwise."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        kind = type(a)
        if kind is not type(b):
            return False
        if kind is Spine:
            args_a, args_b = _heads(a.args, []), _heads(b.args, [])
            if a.head != b.head or len(args_a) != len(args_b):
                return False
            stack.extend(zip(args_a, args_b))
        elif kind is Pending:
            # Equal terms have equal fv, so their environments equal length.
            if a.term != b.term:
                return False
            stack.extend(zip(a.env, b.env))
        elif kind is Done:
            stack.append((a.value, b.value))
        elif kind is Pair:
            stack.append((a.arg, b.arg))
            stack.append((a.fun, b.fun))
        elif hasattr(kind, "captured"):
            if a.lam != b.lam:
                return False
            values_a, values_b = a.captured(), b.captured()
            if len(values_a) != len(values_b):
                return False
            stack.extend(zip(values_a, values_b))
        elif a != b:
            return False
    return True


# ---------------------------------------------------------------------------
# big-step evaluation (explicit stack, so term depth never overflows)

_FRAME_ARG = 0  # function value pending; evaluate the argument next
_FRAME_APPLY = 1  # argument value arrived; apply the stored function value


def _run(control, is_value: bool, stack: list, fuel: Fuel):
    # The hot loop. The configuration lives in the locals term and env
    # (evaluating) or value (returning), and the fuel left in remaining,
    # which the finally writes back on every exit, a raise included.
    # Types are matched exactly, in dispatch-frequency order. Out of fuel,
    # it leaves its configuration on the caller's stack (the popped apply
    # frame, then (control, is_value)) for step and run_machine to plug
    # back. A closed application and a beta into a binder with no
    # occurrence call no backend operation (see the module docstring).
    remaining = fuel.remaining
    if is_value:
        value = control
    else:
        term, env = control
    try:
        while True:
            if not is_value:
                if remaining == 0:
                    stack.append(((term, env), False))
                    return FuelExhausted(fuel.budget)
                remaining -= 1
                kind = type(term)
                if kind is OApp:
                    if not term.fv:
                        stack.append((_FRAME_ARG, term.arg, env))
                    elif type(env) is tuple:
                        env, env_arg = TreeEnv.split_at(env, term.split)
                        stack.append((_FRAME_ARG, term.arg, env_arg))
                    else:
                        env, env_arg = env.split_at(term.split)
                        stack.append((_FRAME_ARG, term.arg, env_arg))
                    term = term.fun
                elif kind is Dot:
                    if len(env) != 1:
                        raise InvariantError(
                            f"dot evaluated in environment of length {len(env)}"
                        )
                    value = env[0] if type(env) is tuple else env.sole()
                    is_value = True
                elif kind is OLam:
                    value = Closure(term, env)
                    is_value = True
                elif kind is Free:
                    if len(env) != 0:
                        n = len(env)
                        raise InvariantError(
                            f"free variable evaluated in environment of length {n}"
                        )
                    value = Spine(term.name)
                    is_value = True
                else:
                    raise TypeError(f"not an ordered term: {term!r}")
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
                        stack += (frame, (value, True))
                        return FuelExhausted(fuel.budget)
                    remaining -= 1
                    if type(fun) is Spine:
                        value = Spine(fun.head, _Cons(value, fun.args))
                    else:
                        lam = fun.lam
                        env = fun.env
                        if lam.kvec:
                            if type(env) is tuple:
                                env = TreeEnv.multi_insert(env, lam.kvec, value)
                            else:
                                env = env.multi_insert(lam.kvec, value)
                        term = lam.body
                        is_value = False
    finally:
        fuel.remaining = remaining


def _check_exact(t: OrderedTerm, env) -> None:
    """Raise InvariantError unless env has one entry per unbound dot of t."""
    if len(env) != t.fv:
        raise InvariantError(
            f"environment has {len(env)} entries, term has {t.fv} unbound dots"
        )


def evaluate(
    t: OrderedTerm, env, fuel: Union[int, Fuel] = DEFAULT_FUEL
) -> Union[Value, FuelExhausted]:
    """Evaluate an ordered term in an exact environment to a value."""
    _check_exact(t, env)
    return _run((t, env), False, [], _as_fuel(fuel))


def apply_value(
    v: Value, w: Value, fuel: Union[int, Fuel] = DEFAULT_FUEL
) -> Union[Value, FuelExhausted]:
    """Apply one value to another (spine append or closure entry)."""
    return _run(w, True, [(_FRAME_APPLY, v)], _as_fuel(fuel))


def whnf(
    m: NamedTerm,
    fuel: Union[int, Fuel] = DEFAULT_FUEL,
    backend=TreeEnv,
) -> Union[Value, FuelExhausted]:
    """Translate a named term and evaluate it in the empty environment of
    the given backend (the tree by default)."""
    return evaluate(parse_closed(m), backend.empty(), fuel)


# ---------------------------------------------------------------------------
# printing values back to named terms


def _reachable(v: Value) -> Iterator[Value]:
    """Each distinct value node reachable from v, once (explicit stack).
    Anything reachable that is no value of either machine raises
    TypeError."""
    seen: set[int] = set()
    stack: list = [v]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if type(item) is Spine:
            _heads(item.args, stack)
        elif hasattr(type(item), "captured"):
            stack.extend(item.captured())
        else:
            raise TypeError(f"not a value: {item!r}")
        yield item


def names_in_value(v: Value) -> frozenset[str]:
    """Every name reachable in a value: spine heads, closure bodies, environments."""
    names: set[str] = set()
    for item in _reachable(v):
        if isinstance(item, Spine):
            names.add(item.head)
        else:
            names |= item.body_names()
    return frozenset(names)


# Printer tasks. An ordered term task binds the term's unbound dots to
# the window buf[lo:hi] of a shared list, so an application only moves
# the window's middle. A binder copies its window once, with its fresh
# name's Var inserted, through envseq's _gap_insert, the tuple
# environments' insert of several positions and its range check; a dot
# over that Var emits it as it is. The loop of an ordered term task walks
# into an application's function part on the same window's left part. A
# leaf function part (a dot or a free variable) is emitted there, and the
# loop walks on into the argument, so a right-nested spine such as
# s (s (... z)) pushes one _APP_TASK per application and no task tuple.
# Past any other function part, the argument waits: a leaf argument (a
# free variable, or a dot whose window holds a Var) as its Var, joined
# to the function part when popped, and any other one as a term task
# above an _APP_TASK. A de Bruijn term task reads an index below its
# depth off scope, the binder Vars in scope, innermost last, and any
# other index off its environment. Binders of both families push their
# Var onto scope and one _LAM_TASK pops it. Each free name and spine
# head is one Var too, so the printed term has one leaf node per name.
_TERM = 0  # (_TERM, ordered term, buf, lo, hi)
_DB = 1  # (_DB, de Bruijn term, scope start, cons-chain environment or _UNBOUND)
_VALUE = 2  # (_VALUE, value)
_EXPR = 3  # (_EXPR, machine expression)
_APP_TASK = ("app",)  # pop an argument and a function, push their application
_LAM_TASK = ("lam",)  # pop a body and a binder Var, push their abstraction
_UNBOUND = object()  # the environment of a de Bruijn term outside any closure


def _print(task: tuple, fresh: Iterator[str]) -> NamedTerm:
    """Print one task's term with an explicit work stack, so depth never
    recurses. Binders draw fresh names in pre-order, function part before
    argument part, spine arguments left to right. An ordered term's
    applications are walked in the loop, as the comment above says; a
    work item that is a Var is a leaf argument, joined to the term below
    it at once."""
    work = [task]
    out: list[NamedTerm] = []
    scope: list[Var] = []
    leaves = _Leaves(Var)  # by free name or spine head
    while work:
        task = work.pop()
        if task is _APP_TASK:
            arg = out.pop()
            out[-1] = App(out[-1], arg)
            continue
        if type(task) is Var:
            out[-1] = App(out[-1], task)
            continue
        if task is _LAM_TASK:
            out[-1] = Lam(scope.pop().name, out[-1])
            continue
        kind = task[0]
        if kind == _TERM:
            _, t, buf, lo, hi = task
            rest = None  # the argument of the leaf function part the loop is at
            while True:
                kind = type(t)
                if kind is OApp:
                    if t.split > hi - lo:
                        raise InvariantError(
                            "application split exceeds environment length"
                        )
                    mid = lo + t.split
                    fun = t.fun
                    arg = t.arg
                    if type(fun) is Dot or type(fun) is Free:
                        work.append(_APP_TASK)
                        rest = arg
                        rest_hi = hi
                    elif type(arg) is Free and mid == hi:
                        work.append(leaves[arg.name])
                    elif type(arg) is Dot and hi - mid == 1 and type(buf[mid]) is Var:
                        work.append(buf[mid])
                    else:
                        work += (_APP_TASK, (_TERM, arg, buf, mid, hi))
                    t = fun
                    hi = mid
                    continue
                if kind is Dot:
                    if hi - lo != 1:
                        raise InvariantError(
                            f"dot printed under environment of length {hi - lo}"
                        )
                    v = buf[lo]
                    if type(v) is not Var:
                        if rest is not None:
                            work.append((_TERM, rest, buf, hi, rest_hi))
                        work.append((_VALUE, v))
                        break
                    out.append(v)
                elif kind is Free:
                    if hi > lo:
                        raise InvariantError(
                            "free variable printed under a non-empty environment"
                        )
                    out.append(leaves[t.name])
                elif kind is OLam:
                    var = Var(next(fresh))
                    scope.append(var)
                    buf = _gap_insert(buf, lo, hi, t.kvec, var)
                    lo = 0
                    hi = len(buf)
                    work.append(_LAM_TASK)
                    t = t.body
                    continue
                else:
                    raise TypeError(f"not an ordered term: {t!r}")
                if rest is None:
                    break
                t = rest
                lo = hi
                hi = rest_hi
                rest = None
        elif kind == _DB:
            _, t, base, env = task
            if type(t) is DApp:
                work.append(_APP_TASK)
                work.append((_DB, t.arg, base, env))
                work.append((_DB, t.fun, base, env))
            elif type(t) is BVar:
                depth = len(scope) - base
                if t.index < depth:
                    out.append(scope[-1 - t.index])
                elif env is _UNBOUND:
                    raise InvariantError(f"unbound index {t.index} at depth {depth}")
                else:
                    work.append((_VALUE, _env_lookup(env, t.index - depth)))
            elif type(t) is DLam:
                scope.append(Var(next(fresh)))
                work.append(_LAM_TASK)
                work.append((_DB, t.body, base, env))
            elif type(t) is FVar:
                out.append(leaves[t.name])
            else:
                raise TypeError(f"not a de Bruijn term: {t!r}")
        elif kind == _VALUE:
            # Every caller has read the names of each value it prints
            # (names_in_value), which refuses anything not a value.
            v = task[1]
            if type(v) is Spine:
                out.append(leaves[v.head])
                for arg in _heads(v.args, []):
                    work.append(_APP_TASK)
                    work.append((_VALUE, arg))
            elif type(v) is Closure:
                values = list(v.env)
                work.append((_TERM, v.lam, values, 0, len(values)))
            else:
                # A closure-machine closure: its binder node opens a scope
                # of its own, whose body sees only that binder, then the
                # closure's environment.
                work.append((_DB, v.lam, len(scope), v.env))
        else:
            e = task[1]
            if isinstance(e, Pending):
                values = list(e.env)
                work.append((_TERM, e.term, values, 0, len(values)))
            elif isinstance(e, Done):
                work.append((_VALUE, e.value))
            else:  # a Pair: print_expr has decomposed the whole expression
                work.append(_APP_TASK)
                work.append((_EXPR, e.arg))
                work.append((_EXPR, e.fun))
    return out.pop()


def print_ordered(t: OrderedTerm, env: list) -> NamedTerm:
    """Print an ordered term whose dots are bound to the listed values.

    Binders get deterministic fresh names avoiding everything visible in
    the term or the environment.
    """
    _check_exact(t, env)
    avoid = set(ordered_free_names(t))
    for v in env:
        avoid |= names_in_value(v)
    values = list(env)
    return _print((_TERM, t, values, 0, len(values)), fresh_names(avoid))


def from_debruijn(t: DbTerm, avoid: frozenset[str] = frozenset()) -> NamedTerm:
    """Name the binders of a de Bruijn term with deterministic fresh names."""
    return _print((_DB, t, 0, _UNBOUND), fresh_names(db_free_names(t) | avoid))


def print_value(v: Value) -> NamedTerm:
    """Print a value of either machine as a named term (spines as
    applications, closures as lambdas) without reducing anything."""
    return _print((_VALUE, v), fresh_names(names_in_value(v)))


# ---------------------------------------------------------------------------
# full normalization by evaluation


def _normal_form(
    apply, v: Value, fuel: Union[int, Fuel], avoid: frozenset[str]
) -> Union[NamedTerm, FuelExhausted]:
    """Read a value back to a named beta-normal form, opening each closure
    by applying it (with apply) to a fresh inert head. Closures are opened
    in pre-order, spine arguments left to right. All occurrences of a
    name read back as one Var node.

    The loop walks a spine's argument chain, which holds the last
    argument first. Each argument but the first waits: a bare head (a
    spine with no arguments) as its Var, joined at once when popped, and
    any other value above a join marker. The first argument, like an
    opened closure's body, is read in place. So a right-nested spine
    such as s (s (... z)) pushes one marker per argument and no tuple."""
    fuel = _as_fuel(fuel)
    fresh = fresh_names(names_in_value(v) | avoid)
    # Work items: a value to read back, above a None; None, to pop an
    # argument and a function and push their application; a Var, to
    # apply the top result to it; or a binder name, to wrap the top
    # result in that binder.
    work: list = []
    out: list[NamedTerm] = []
    heads = _Leaves(Var)  # one Var per spine head
    while True:
        while True:
            if type(v) is Spine:
                out.append(heads[v.head])
                cell = v.args
                if cell is None:
                    break
                while cell.tail is not None:
                    arg = cell.head
                    if type(arg) is Spine and arg.args is None:
                        work.append(heads[arg.head])
                    else:
                        work += (None, arg)
                    cell = cell.tail
                v = cell.head
                if type(v) is Spine and v.args is None:
                    out[-1] = App(out[-1], heads[v.head])
                    break
                work.append(None)
            else:
                binder = next(fresh)
                applied = apply(v, Spine(binder), fuel)
                if isinstance(applied, FuelExhausted):
                    return FuelExhausted(fuel.spent)
                work.append(binder)
                v = applied
        while work:
            v = work.pop()
            if v is None:
                arg = out.pop()
                out[-1] = App(out[-1], arg)
            elif type(v) is Var:
                out[-1] = App(out[-1], v)
            elif type(v) is str:
                out[-1] = Lam(v, out[-1])
            else:
                break
        else:
            return out.pop()


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
    backend=TreeEnv,
) -> Union[NamedTerm, FuelExhausted]:
    """Beta-normal form of a named term via evaluation plus readback."""
    fuel = _as_fuel(fuel)
    v = whnf(m, fuel, backend)
    if isinstance(v, FuelExhausted):
        return v
    return readback_normal_form(v, fuel, m.free_names)


# ---------------------------------------------------------------------------
# the one-step machine: _run refocused


class MachineExpr:
    """Base class for machine expressions (Pending / Done / Pair)."""

    def __eq__(self, other):
        return _equal(self, other)

    __hash__ = None


@dataclass(frozen=True, eq=False)
class Pending(MachineExpr):
    """An ordered term waiting to be evaluated in its environment."""

    term: OrderedTerm
    env: object

    def __post_init__(self):
        _check_exact(self.term, self.env)


@dataclass(frozen=True, eq=False)
class Done(MachineExpr):
    value: Value


@dataclass(frozen=True, eq=False)
class Pair(MachineExpr):
    """An application of one machine expression to another."""

    fun: MachineExpr
    arg: MachineExpr


_TERM_RULES = {OApp: RULE_SPLIT, Dot: RULE_BOUND, OLam: RULE_CLOSE, Free: RULE_VAR}


def _decompose(e: MachineExpr) -> tuple[object, bool, list]:
    """_run's configuration (control, is_value, stack) for an expression.

    Pair(Done(f), e) is an apply frame holding f, any other
    Pair(e, Pending(t, env)) an argument frame, and the Pending or Done at
    the bottom the control. No other shape is reachable from a Pending,
    so any other raises TypeError.
    """
    stack: list = []
    while isinstance(e, Pair):
        if isinstance(e.fun, Done):
            stack.append((_FRAME_APPLY, e.fun.value))
            e = e.arg
        elif isinstance(e.arg, Pending):
            stack.append((_FRAME_ARG, e.arg.term, e.arg.env))
            e = e.fun
        else:
            raise TypeError(f"unevaluated function applied to a {type(e.arg).__name__}")
    if isinstance(e, Pending):
        return (e.term, e.env), False, stack
    if isinstance(e, Done):
        return e.value, True, stack
    raise TypeError(f"not a machine expression: {type(e).__name__}")


def _plug(control, is_value: bool, stack: list) -> MachineExpr:
    """The expression of a configuration; the inverse of _decompose."""
    e = Done(control) if is_value else Pending(*control)
    for frame in reversed(stack):
        if frame[0] == _FRAME_APPLY:
            e = Pair(Done(frame[1]), e)
        else:
            e = Pair(e, Pending(frame[1], frame[2]))
    return e


def _parts(e: MachineExpr) -> tuple[list, list]:
    """The pending (term, env) parts and the values of an expression, read
    off its decomposition."""
    control, is_value, stack = _decompose(e)
    pending = [frame[1:] for frame in stack if frame[0] == _FRAME_ARG]
    values = [frame[1] for frame in stack if frame[0] == _FRAME_APPLY]
    (values if is_value else pending).append(control)
    return pending, values


def step(e: MachineExpr) -> Optional[tuple[MachineExpr, str]]:
    """One rule application at the leftmost-outermost reducible position.

    Returns the rewritten expression and the rule tag, or None when the
    expression is fully evaluated (stuck). The rule is _run's: decompose,
    run on one unit of fuel, plug back. The tag follows the pending term's
    class, or the function value's on top of the stack.
    """
    control, is_value, stack = _decompose(e)
    if not is_value:
        rule = _TERM_RULES.get(type(control[0]))
    elif stack:
        rule = RULE_SPINE if type(stack[-1][1]) is Spine else RULE_BETA
    else:
        return None
    result = _run(control, is_value, stack, Fuel(1))
    # Out of fuel, _run left its configuration on the stack; else it emptied it.
    control, is_value = stack.pop() if stack else (result, True)
    return _plug(control, is_value, stack), rule


def machine_trace(
    e: MachineExpr, fuel: Union[int, Fuel] = DEFAULT_FUEL
) -> Iterator[tuple[MachineExpr, MachineExpr, str]]:
    """Yield (before, after, rule) transitions until stuck or out of fuel."""
    fuel = _as_fuel(fuel)
    while True:
        result = step(e)
        if result is None or not fuel.take():
            return
        after, rule = result
        yield e, after, rule
        e = after


def run_machine(
    e: MachineExpr, fuel: Union[int, Fuel] = DEFAULT_FUEL
) -> tuple[MachineExpr, int]:
    """Run the machine to a stuck expression or until the fuel is gone;
    returns the last expression of machine_trace with its step count.
    The configuration is decomposed and plugged once, around one _run."""
    fuel = _as_fuel(fuel)
    before = fuel.spent
    control, is_value, stack = _decompose(e)
    result = _run(control, is_value, stack, fuel)
    control, is_value = stack.pop() if stack else (result, True)
    return _plug(control, is_value, stack), fuel.spent - before


def print_expr(e: MachineExpr) -> NamedTerm:
    """Print a machine expression (pairs print as applications)."""
    pending, values = _parts(e)
    names: set[str] = set()
    for term, env in pending:
        names |= ordered_free_names(term)
        values.extend(env)
    for v in values:
        names |= names_in_value(v)
    return _print((_EXPR, e), fresh_names(names))


def weight(e: MachineExpr) -> int:
    """Termination measure: strictly increases on every non-beta rule.

    A pending term weighs 1, a closure 2, a spine 1 + 2**n plus its
    arguments' weights, a pair the sum of its parts. Arbitrary-precision
    arithmetic matters: spines make the exponential term grow fast.
    """
    pending, values = _parts(e)
    total = len(pending)
    while values:  # spine arguments join the walk
        v = values.pop()
        if isinstance(v, Closure):
            total += 2
        else:
            args = _heads(v.args, [])
            total += 1 + 2 ** len(args)
            values += args
    return total


# ---------------------------------------------------------------------------
# verifying the machine's per-step obligations


@dataclass(frozen=True)
class CheckReport:
    """What verify_trace saw: step counts, the steps meeting each
    obligation, one line per failure, the last expression and whether
    fuel ran out before it was stuck."""

    steps: int
    beta: int
    non_beta: int
    single_beta: int  # beta steps that are exactly one beta reduction
    preserved: int  # non-beta steps that keep the printed term up to alpha
    weight_increases: int  # non-beta steps that strictly increase the weight
    failures: tuple[str, ...]
    last: MachineExpr
    exhausted: bool


def verify_trace(e: MachineExpr, fuel: Union[int, Fuel] = DEFAULT_FUEL) -> CheckReport:
    """Run the one-step machine from e, checking every step: a beta step
    prints as one beta reduction of the term printed before it; any other
    step keeps the printed term up to alpha and increases the weight."""
    steps = beta = single_beta = preserved = weight_increases = 0
    failures = []
    printed = print_expr(e)
    key, measure = alpha_key(printed), weight(e)
    for _, after, rule in machine_trace(e, fuel):
        steps += 1
        printed_after = print_expr(after)
        key_after, weight_after = alpha_key(printed_after), weight(after)
        if rule == RULE_BETA:
            beta += 1
            if key_after in reduct_keys(printed):
                single_beta += 1
            else:
                failures.append(f"step {steps} ({rule}): not a single reduction")
        else:
            if key_after == key:
                preserved += 1
            else:
                failures.append(f"step {steps} ({rule}): printed term changed")
            if weight_after > measure:
                weight_increases += 1
            else:
                failures.append(f"step {steps} ({rule}): weight did not increase")
        printed, key, measure, e = printed_after, key_after, weight_after, after
    return CheckReport(
        steps, beta, steps - beta, single_beta, preserved, weight_increases,
        tuple(failures), e, step(e) is not None
    )


# ---------------------------------------------------------------------------
# space accounting


def value_node_count(v: Value) -> int:
    """Distinct value nodes reachable from v; shared substructure counts once."""
    return sum(1 for _ in _reachable(v))
