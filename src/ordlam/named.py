"""Classical named lambda terms: surface syntax, alpha equivalence,
capture-avoiding substitution, and normal-order reduction oracles.

This module is the ground-truth side of the package: everything here is
the textbook treatment, deliberately independent of the nameless
representation it is used to check. It also defines Fuel, the step
budget that every reducer of the package spends, the oracles here
included.

Surface grammar::

    term ::= '\\' ident '.' term | atom+
    atom ::= ident | '(' term ')'

Application is left-associative, ``λ`` is accepted as a synonym for
``\\``, identifiers match ``[A-Za-z_][A-Za-z0-9_']*`` and whitespace is
insignificant.

Term is the base class of all three term families (named here, ordered
and de Bruijn); its ==, hash() and repr() read one walk of each node's
constructor fields, and the two nameless families read their free names
with one more shared walk (_leaf_names). Every walk over terms is an
explicit-stack loop, so term depth is bounded by memory, not by the
recursion limit.
"""

from __future__ import annotations

import operator
import re
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Union


class Term:
    """Base class of the three term families: named (NamedTerm), ordered
    (ordered.OrderedTerm) and de Bruijn (debruijn.DbTerm).

    A term's constructor fields are the ones its class lists in
    __match_args__, in constructor order. Terms are immutable: assigning
    or deleting any attribute raises AttributeError, so constructors
    write each slot through its member descriptor's setter (for App,
    App.__dict__["fun"].__set__ and so on). Terms compare and hash
    structurally, and repr() gives the constructor text
    Cls(field=value, ...). hash() and repr() read one explicit-stack
    walk of those fields (_fields); == walks two terms in step, skips a
    pair that is one object and expands any pair of nodes once, so
    shared subterms compare at once and two separately built shared
    graphs in time linear in their nodes. Any depth works. Terms of
    different classes, families included, are never equal.
    """

    __slots__ = ()
    __match_args__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if not isinstance(other, Term):
            return NotImplemented
        if self is other:
            return True
        stack = [(self, other)]  # pairs of distinct terms still to compare
        # A node of self's graph that has term fields, mapped to the node
        # it was last expanded against: a pair met again is skipped.
        expanded = {}
        while stack:
            a, b = stack.pop()
            kind = type(a)
            if kind is not type(b):
                return False
            key = id(a)
            if expanded.get(key) is b:
                continue
            pushed = False
            for name in kind.__match_args__:
                x = getattr(a, name)
                y = getattr(b, name)
                if x is y:
                    continue
                if isinstance(x, Term):
                    stack.append((x, y))
                    pushed = True
                elif isinstance(y, Term) or x != y:
                    return False
            if pushed:
                expanded[key] = b
        return True

    def __hash__(self):
        return hash(_fields(self))

    def __repr__(self):
        parts = []
        labels = []  # per open node, the labels of its fields to come, last first
        for item in _fields(self):
            if labels:
                parts.append(labels[-1].pop())
            if isinstance(item, type):
                parts.append(f"{item.__qualname__}(")
                names = [f", {name}=" for name in reversed(item.__match_args__)]
                if names:
                    names[-1] = names[-1][2:]  # the first field has no comma
                labels.append(names)
            else:
                parts.append(repr(item))
            while labels and not labels[-1]:
                labels.pop()
                parts.append(")")
        return "".join(parts)


def _fields(t: Term) -> tuple:
    """The pre-order sequence of t's nodes: each node's class, then the
    values of its constructor fields in order, a term value replaced by
    its own sequence. Each class fixes its number of fields, so the
    sequence determines the term."""
    out = []
    stack = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, Term):
            kind = type(item)
            out.append(kind)
            for name in reversed(kind.__match_args__):
                stack.append(getattr(item, name))
        else:
            out.append(item)
    return tuple(out)


def _leaf_names(t: Term, app: type, lam: type, leaf: type) -> frozenset[str]:
    """The names of t's named leaves, which are its free names. t is a
    nameless term (ordered or de Bruijn) whose family's application,
    binder and named-leaf classes are app, lam and leaf. A binder node
    that a translation shared is walked once, however often t reaches
    it.

    The loop reads a named leaf where it meets it, as a child of an
    application too, and walks on into an application's function part;
    it pushes an argument only when the function part needs walking
    as well. A right-nested spine such as s (s (... z)) pushes nothing."""
    names = []
    walked = set()  # ids of the binder nodes walked; t keeps them alive
    stack = [t]
    while stack:
        t = stack.pop()
        while True:
            kind = type(t)
            if kind is app:
                fun = t.fun
                t = t.arg
                kind = type(t)
                if kind is leaf:
                    names.append(t.name)
                    t = fun
                elif kind is app or kind is lam:
                    kind = type(fun)
                    if kind is leaf:
                        names.append(fun.name)
                    elif kind is app or kind is lam:
                        stack.append(t)
                        t = fun
                else:
                    t = fun
            elif kind is lam:
                if id(t) in walked:
                    break
                walked.add(id(t))
                t = t.body
            else:
                if kind is leaf:
                    names.append(t.name)
                break
    return frozenset(names)


class _Leaves(dict):
    """One leaf node per name: a name not yet seen gets a node built by
    the leaf class given, kept for every later lookup, so a lookup is one
    subscript either way."""

    __slots__ = ("leaf",)

    def __init__(self, leaf: type):
        self.leaf = leaf

    def __missing__(self, name: str):
        node = self[name] = self.leaf(name)
        return node


class NamedTerm(Term):
    """Base class for named lambda terms (Var / App / Lam).

    Terms compare and hash structurally (not up to alpha), as every Term.
    Each node keeps a __dict__ slot for its cached free_names and
    node_count.
    """

    __slots__ = ()


class Var(NamedTerm):
    __slots__ = ("name", "__dict__")
    __match_args__ = ("name",)

    def __init__(self, name: str):
        _var_name(self, name)

    @cached_property
    def free_names(self) -> frozenset[str]:
        return frozenset((self.name,))

    @cached_property
    def node_count(self) -> int:
        return 1


class App(NamedTerm):
    __slots__ = ("fun", "arg", "__dict__")
    __match_args__ = ("fun", "arg")

    def __init__(self, fun: NamedTerm, arg: NamedTerm):
        _app_fun(self, fun)
        _app_arg(self, arg)

    @cached_property
    def free_names(self) -> frozenset[str]:
        return _cache_bottom_up(self, "free_names", _free_names_here)

    @cached_property
    def node_count(self) -> int:
        return _cache_bottom_up(self, "node_count", _node_count_here)


class Lam(NamedTerm):
    __slots__ = ("binder", "body", "__dict__")
    __match_args__ = ("binder", "body")

    def __init__(self, binder: str, body: NamedTerm):
        _lam_binder(self, binder)
        _lam_body(self, body)

    @cached_property
    def free_names(self) -> frozenset[str]:
        return _cache_bottom_up(self, "free_names", _free_names_here)

    @cached_property
    def node_count(self) -> int:
        return _cache_bottom_up(self, "node_count", _node_count_here)


# Each slot's member-descriptor setter writes it past Term.__setattr__,
# without the attribute lookup object.__setattr__ makes.
_var_name = Var.__dict__["name"].__set__
_app_fun = App.__dict__["fun"].__set__
_app_arg = App.__dict__["arg"].__set__
_lam_binder = Lam.__dict__["binder"].__set__
_lam_body = Lam.__dict__["body"].__set__


def _cache_bottom_up(t, attr: str, here):
    """Cache attr on t and on every node below it that lacks it, children
    first; here(u) computes u's value from its children's. Returns t's
    value."""
    stack = [t]
    while stack:
        u = stack.pop()
        if attr in u.__dict__:
            continue
        if type(u) is App and not (attr in u.fun.__dict__ and attr in u.arg.__dict__):
            stack += (u, u.arg, u.fun)
        elif type(u) is Lam and attr not in u.body.__dict__:
            stack += (u, u.body)
        else:
            u.__dict__[attr] = here(u)
    return t.__dict__[attr]


def _free_names_here(u: NamedTerm) -> frozenset[str]:
    """u's free names from its children's; a child's set that already is
    the answer is returned itself, not copied."""
    if type(u) is App:
        return _union(u.fun.free_names, u.arg.free_names)
    if type(u) is Lam:
        body = u.body.free_names
        return body - {u.binder} if u.binder in body else body
    return frozenset((u.name,))


def _union(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    """a | b, as a or b itself when one contains the other."""
    if b <= a:
        return a
    return b if a <= b else a | b


def _node_count_here(u: NamedTerm) -> int:
    if type(u) is App:
        return 1 + u.fun.node_count + u.arg.node_count
    return 1 + u.body.node_count if type(u) is Lam else 1


@dataclass(frozen=True)
class FuelExhausted:
    """Budget ran out before a result was reached.

    Signals possible divergence, never malformed input; returned as an
    ordinary value so callers decide how to react.
    """

    spent: int


class Fuel:
    """Mutable step budget, the one every reducer spends: each machine
    rule or beta contraction takes one unit. A reducer that finds nothing
    left to do returns its result without taking a unit, so a budget
    that exactly covers the steps is enough."""

    __slots__ = ("budget", "remaining")

    def __init__(self, budget: int):
        # An integer only: a float budget would step past 0 and never run out.
        budget = operator.index(budget)
        if budget < 1:
            raise ValueError("fuel must be positive")
        self.budget = self.remaining = budget

    @property
    def spent(self) -> int:
        """Units taken so far."""
        return self.budget - self.remaining

    def take(self) -> bool:
        """Consume one unit; False when the budget is gone."""
        if self.remaining == 0:
            return False
        self.remaining -= 1
        return True


def _as_fuel(fuel: Union[int, Fuel]) -> Fuel:
    return fuel if isinstance(fuel, Fuel) else Fuel(fuel)


DEFAULT_FUEL = 100_000

# Terms can outgrow any step budget long before the budget is spent, so
# reducers also give up once a term exceeds this many nodes, or once the
# cumulative traversal work (roughly steps times term size) passes the
# work ceiling.
DEFAULT_NODE_CEILING = 200_000
DEFAULT_WORK_CEILING = 10_000_000


# ---------------------------------------------------------------------------
# surface syntax


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


_IDENT_START = "A-Za-z_"
_IDENT_REST = "A-Za-z0-9_'"
_IDENT = re.compile(f"[{_IDENT_START}][{_IDENT_REST}]*")

# A token is a punctuation character or an identifier; whitespace
# separates tokens. _NO_TOKEN finds a character no token can start with:
# one outside all three classes, or an identifier character that can
# neither start an identifier nor continue the one before it. When it
# finds none, src's tokens are _TOKEN.findall(src), and also the words of
# src with every punctuation character spaced out, since str.split() and
# \s agree on what whitespace is. Both scans run only on the error path.
_TOKEN = re.compile(r"[\\λ.()]|" + _IDENT.pattern)
_NO_TOKEN = re.compile(
    rf"[^\s\\λ.(){_IDENT_REST}]"
    rf"|(?<![{_IDENT_REST}])(?![{_IDENT_START}])[{_IDENT_REST}]"
)
# Tokens that are not identifiers; "" is the end marker.
_PUNCTUATION = frozenset(("\\", "λ", ".", "(", ")", ""))


def _error_at(src: str, offset: int, message: str) -> ParseError:
    """The error for the character at offset: lines split only at \\n, and
    the column counts code points since the previous \\n, from 1."""
    line_start = src.rfind("\n", 0, offset) + 1
    line = src.count("\n", 0, line_start) + 1
    return ParseError(message, line, offset - line_start + 1)


def _parse_error(src: str, i: int, message: str) -> ParseError:
    """The error for a parse of src that fails at token i: a character no
    token can start with, wherever it is, or else message at token i (just
    past the last token when src has only i tokens, at 1:1 when it has
    none)."""
    bad = _NO_TOKEN.search(src)
    if bad:
        return _error_at(src, bad.start(), f"unexpected character {bad.group()!r}")
    matches = list(_TOKEN.finditer(src))
    if not matches:
        return ParseError(message, 1, 1)
    offset = matches[i].start() if i < len(matches) else matches[-1].end()
    return _error_at(src, offset, message)


def _split_tokens(src: str) -> list[str]:
    """The words of src once each punctuation character is spaced out: its
    tokens, when _NO_TOKEN finds nothing in it."""
    return (
        src.replace("\\", " \\ ")
        .replace("λ", " λ ")
        .replace(".", " . ")
        .replace("(", " ( ")
        .replace(")", " ) ")
        .split()
    )


def parse_surface(src: str) -> NamedTerm:
    """Parse surface text into a named term.

    Raises ParseError (with line/column) on malformed or empty input. An
    unexpected character is reported even after an earlier syntax error.

    The tokens come from str.split() once each punctuation character is
    spaced out, and each distinct word is checked to be an identifier the
    first time it is met. The regular-expression scans that find a bad
    character and turn a token index into a line and column run only once
    the parse has failed.

    Within one call every distinct subterm is built once: all occurrences
    of a name share one Var node, and an application or lambda whose
    parts are nodes already built is that earlier node, so repeated text
    such as a combinator written many times becomes one shared node.
    Separate calls share nothing.
    """
    tokens = _split_tokens(src)
    if not tokens:
        raise _parse_error(src, 0, "empty input")
    tokens.append("")
    # The term being read is its binders (outermost first) over the
    # application read so far (None before its first atom); each open
    # parenthesis saves the enclosing term's pair on outer.
    outer: list[tuple[list[str], Optional[NamedTerm]]] = []
    binders: list[str] = []
    app: Optional[NamedTerm] = None
    # Every node built so far, keyed by a name, by (id(fun), id(arg)) or
    # by (binder, id(body)). The nodes hold their parts, so no id is
    # reused while the dict lives. A word is a key once it has been
    # checked to be an identifier.
    nodes: dict = {}
    get = nodes.get
    pos = 0
    while True:
        token = tokens[pos]
        if token not in _PUNCTUATION:
            # An atom: a variable.
            term = get(token)
            if term is None:
                if not _IDENT.fullmatch(token):
                    raise _parse_error(src, pos, f"{token!r} is not an identifier")
                term = nodes[token] = Var(token)
            pos += 1
        elif token == "(":
            outer.append((binders, app))
            binders, app = [], None
            pos += 1
            continue
        elif app is None:
            if token != "\\" and token != "λ":
                raise _parse_error(src, pos, "expected a term")
            name = tokens[pos + 1]
            if name in _PUNCTUATION:
                message = "expected a binder name after the lambda"
                raise _parse_error(src, pos + 1, message)
            if name not in nodes:
                if not _IDENT.fullmatch(name):
                    raise _parse_error(src, pos + 1, f"{name!r} is not an identifier")
                nodes[name] = Var(name)
            binders.append(name)
            if tokens[pos + 2] != ".":
                raise _parse_error(src, pos + 2, "expected '.' after the binder")
            pos += 3
            continue
        else:
            # Anything but an atom ends the term.
            term = app
            for binder in reversed(binders):
                key = (binder, id(term))
                lam = get(key)
                if lam is None:
                    lam = nodes[key] = Lam(binder, term)
                term = lam
            if not outer:
                if token:
                    raise _parse_error(src, pos, f"unexpected {token!r} after the term")
                return term
            if token != ")":
                raise _parse_error(src, pos, "expected ')'")
            pos += 1
            # An atom: the parenthesized term.
            binders, app = outer.pop()
        if app is None:
            app = term
        else:
            key = (id(app), id(term))
            node = get(key)
            if node is None:
                node = nodes[key] = App(app, term)
            app = node


def print_surface(t: NamedTerm) -> str:
    """Render a term with minimal parentheses; re-parses to an alpha-equal term.

    A lambda body extends to the end of the term, so a lambda is bare
    only where nothing follows it. The loop walks a term in such a
    position: into an application's function part, which stays bare
    when it is an application (left-associative) and is parenthesized
    when it is a lambda, pushing the argument, which stays bare only
    when it is a variable, and the closing parenthesis it needs. A
    variable function part is written at once, and the loop goes on
    into the argument, so a right-nested spine such as s (s (... z))
    pushes only its closing parentheses."""
    parts: list[str] = []
    # Closing parentheses, and arguments still to write: a Var written
    # bare, any other term parenthesized.
    stack: list = []
    while True:
        while True:
            kind = type(t)
            if kind is App:
                fun = t.fun
                arg = t.arg
                if type(fun) is Var:
                    if type(arg) is Var:
                        parts += (fun.name, " ", arg.name)
                        break
                    parts += (fun.name, " (")
                    stack.append(")")
                    t = arg
                    continue
                if type(arg) is Var:
                    stack.append(arg)
                else:
                    stack += (")", arg)
                if type(fun) is Lam:
                    parts.append("(")
                    stack.append(")")
                t = fun
            elif kind is Var:
                parts.append(t.name)
                break
            elif kind is Lam:
                parts += ("\\", t.binder, ". ")
                t = t.body
            else:
                raise TypeError(f"not a named term: {t!r}")
        while stack:
            t = stack.pop()
            if type(t) is str:
                parts.append(t)
            elif type(t) is Var:
                parts += (" ", t.name)
            else:
                parts.append(" (")
                break
        else:
            return "".join(parts)


# ---------------------------------------------------------------------------
# alpha equivalence and fresh names


def alpha_eq(t: NamedTerm, u: NamedTerm) -> bool:
    """True iff t and u differ only in bound-variable names."""
    return alpha_key(t) == alpha_key(u)


def alpha_key(t: NamedTerm) -> tuple:
    """Hashable key identical exactly for alpha-equal terms: the pre-order
    listing of "a" per application, "l" per binder, ("f", name) per free
    variable and, per bound variable, the position of its binder's "l"."""
    key: list = []
    binders: dict[str, list[int]] = defaultdict(list)  # positions, by name
    stack: list = [t]  # terms, and binder names whose scope ends
    while stack:
        t = stack.pop()
        if type(t) is str:
            binders[t].pop()
        elif type(t) is Var:
            bound = binders[t.name]
            key.append(bound[-1] if bound else ("f", t.name))
        elif type(t) is App:
            key.append("a")
            stack += (t.arg, t.fun)
        else:
            binders[t.binder].append(len(key))
            key.append("l")
            stack += (t.binder, t.body)
    return tuple(key)


def fresh_names(avoid: frozenset[str] | set[str]) -> Iterator[str]:
    """Deterministic stream of distinct fresh names avoiding a fixed set."""
    i = 0
    while True:
        name = f"z{i}"
        i += 1
        if name not in avoid:
            yield name


# ---------------------------------------------------------------------------
# substitution and reduction


def subst(t: NamedTerm, x: str, s: NamedTerm) -> NamedTerm:
    """Capture-avoiding substitution of s for free occurrences of x in t;
    subterms without a free x are shared, not copied."""
    # Work items: (term, x, s) to substitute; (x, s) to substitute into the
    # top result; None to apply the second result from the top to the top
    # one; a binder name to wrap the top result in it.
    work: list = [(t, x, s)]
    out: list[NamedTerm] = []
    while work:
        task = work.pop()
        if task is None:
            arg = out.pop()
            out[-1] = App(out[-1], arg)
        elif type(task) is str:
            out[-1] = Lam(task, out[-1])
        elif len(task) == 2:
            work.append((out.pop(), *task))
        else:
            t, x, s = task
            if x not in t.free_names:
                out.append(t)
            elif type(t) is Var:
                out.append(s)
            elif type(t) is App:
                work += (None, (t.arg, x, s), (t.fun, x, s))
            elif t.binder in s.free_names:
                # x is free in t, so the binder differs from x. Rename the
                # binder apart from s, then substitute into the result.
                z = next(fresh_names(s.free_names | t.body.free_names | {x}))
                work += (z, (x, s), (t.body, t.binder, Var(z)))
            else:
                work += (t.binder, (t.body, x, s))
    return out.pop()


def _reducts(t: NamedTerm) -> Iterator[NamedTerm]:
    """Each result of contracting one beta redex of t, redexes taken in
    pre-order (leftmost-outermost first). A node's path is (parent, True
    if in the parent's function part, the parent's path), None at the root;
    a reduct is rebuilt along it."""
    stack: list = [(t, None)]
    while stack:
        u, path = stack.pop()
        if type(u) is App:
            if type(u.fun) is Lam:
                reduct = subst(u.fun.body, u.fun.binder, u.arg)
                up = path
                while up is not None:
                    parent, in_fun, up = up
                    if type(parent) is Lam:
                        reduct = Lam(parent.binder, reduct)
                    elif in_fun:
                        reduct = App(reduct, parent.arg)
                    else:
                        reduct = App(parent.fun, reduct)
                yield reduct
            stack += ((u.arg, (u, False, path)), (u.fun, (u, True, path)))
        elif type(u) is Lam:
            stack.append((u.body, (u, False, path)))


def reduce_once_all(t: NamedTerm) -> list[NamedTerm]:
    """All results of contracting exactly one beta redex, deduplicated up to alpha."""
    results: list[NamedTerm] = []
    seen = set()
    for u in _reducts(t):
        key = alpha_key(u)
        if key not in seen:
            seen.add(key)
            results.append(u)
    return results


def reduct_keys(t: NamedTerm) -> set[tuple]:
    """The alpha_keys of all results of contracting exactly one beta redex."""
    return {alpha_key(u) for u in _reducts(t)}


def normalize(
    t: NamedTerm,
    fuel: Union[int, Fuel] = DEFAULT_FUEL,
    max_nodes: int = DEFAULT_NODE_CEILING,
) -> Union[NamedTerm, FuelExhausted]:
    """Normal-order reduction to beta-normal form within a step budget.

    Also gives up (as FuelExhausted) when resources other than the step
    count run out: an intermediate term exceeding max_nodes, or
    cumulative traversal work (about steps times term size) exceeding
    DEFAULT_WORK_CEILING. Divergent terms can grow arbitrarily within a
    few steps, so a pure step budget would not keep this total.
    """
    fuel = _as_fuel(fuel)
    work = 0
    while True:
        reduced = next(_reducts(t), None)  # the leftmost-outermost reduct
        if reduced is None:
            return t
        if not fuel.take():
            return FuelExhausted(fuel.spent)
        t = reduced
        size = t.node_count
        work += size
        if size > max_nodes or work > DEFAULT_WORK_CEILING:
            return FuelExhausted(fuel.spent)


def is_normal(t: NamedTerm) -> bool:
    return next(_reducts(t), None) is None


def whnf_oracle(
    t: NamedTerm,
    fuel: Union[int, Fuel] = DEFAULT_FUEL,
    max_nodes: int = DEFAULT_NODE_CEILING,
) -> Union[NamedTerm, FuelExhausted]:
    """Head reduction to weak head normal form.

    Contracts only the head redex: stops as soon as the term is a lambda
    or a free-variable-headed application. Arguments of an inert head
    are left untouched.
    """
    fuel = _as_fuel(fuel)
    while True:
        head = t
        while isinstance(head, App):
            head = head.fun
        if not isinstance(head, Lam) or head is t:
            return t
        if not fuel.take():
            return FuelExhausted(fuel.spent)
        # The head redex comes first in pre-order.
        t = next(_reducts(t))
        if t.node_count > max_nodes:
            return FuelExhausted(fuel.spent)
