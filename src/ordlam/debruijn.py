"""De Bruijn terms: the nameless family of the closure machine.

A bound variable is an index counting the binders between it and its
own; a free variable keeps its name. Terms are slotted classes without
a __dict__ whose immutability, ==, hash() and repr() come from
named.Term, as the ordered family's do.

to_debruijn shares work as ordered.to_ordered does: a lambda node met
again in one conversion (parse_surface shares repeated subterms) reuses
its first result when that one is closed and none of the lambda's free
names is bound where it is met again, so the closure machine gets the
same front end as the ordered one. _env_lookup reads an index off a
scope-wide environment, a chain of envseq cons cells, innermost
binder's value first; the closure machine (baselines) and the printer
(machine) both read indices with it. Every walk here is an
explicit-stack loop, so term depth is bounded by memory.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional

from .envseq import _Cons
from .errors import InvariantError
from .named import App, Lam, NamedTerm, Term, Var, _leaf_names


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
    return _leaf_names(t, DApp, DLam, FVar)


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
    # Work items: a named term; None, to apply the second result from the
    # top to the top one; (lambda, lowest level), to wrap the top in a
    # binder.
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


def _env_lookup(env: Optional[_Cons], index: int):
    """The value at index in a scope-wide environment."""
    cell = env
    for _ in range(index):
        if cell is None:
            break
        cell = cell.tail
    if cell is None:
        raise InvariantError(f"environment too short for index {index}")
    return cell.head
