"""Classical named lambda terms: surface syntax, alpha equivalence,
capture-avoiding substitution, and normal-order reduction oracles.

This module is the ground-truth side of the package: everything here is
the textbook treatment, deliberately independent of the nameless
representation it is used to check.

Surface grammar::

    term ::= '\\' ident '.' term | atom+
    atom ::= ident | '(' term ')'

Application is left-associative, ``λ`` is accepted as a synonym for
``\\``, identifiers match ``[A-Za-z_][A-Za-z0-9_']*`` and whitespace is
insignificant.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Union


class NamedTerm:
    """Base class for named lambda terms (Var / App / Lam)."""

    __match_args__ = ()


@dataclass(frozen=True)
class Var(NamedTerm):
    name: str

    @cached_property
    def free_names(self) -> frozenset[str]:
        return frozenset((self.name,))

    @cached_property
    def node_count(self) -> int:
        return 1


@dataclass(frozen=True)
class App(NamedTerm):
    fun: NamedTerm
    arg: NamedTerm

    @cached_property
    def free_names(self) -> frozenset[str]:
        return self.fun.free_names | self.arg.free_names

    @cached_property
    def node_count(self) -> int:
        return 1 + self.fun.node_count + self.arg.node_count


@dataclass(frozen=True)
class Lam(NamedTerm):
    binder: str
    body: NamedTerm

    @cached_property
    def free_names(self) -> frozenset[str]:
        return self.body.free_names - {self.binder}

    @cached_property
    def node_count(self) -> int:
        return 1 + self.body.node_count


@dataclass(frozen=True)
class FuelExhausted:
    """Budget ran out before a result was reached.

    Signals possible divergence, never malformed input; returned as an
    ordinary value so callers decide how to react.
    """

    spent: int


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


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


def _tokenize(src: str) -> list[tuple[str, str, int, int]]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(src):
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in "\\λ":
            tokens.append(("lambda", ch, line, col))
            i += 1
            col += 1
            continue
        if ch == ".":
            tokens.append(("dot", ch, line, col))
            i += 1
            col += 1
            continue
        if ch == "(":
            tokens.append(("lparen", ch, line, col))
            i += 1
            col += 1
            continue
        if ch == ")":
            tokens.append(("rparen", ch, line, col))
            i += 1
            col += 1
            continue
        m = _IDENT.match(src, i)
        if m:
            tokens.append(("ident", m.group(), line, col))
            col += m.end() - i
            i = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int, int]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Optional[tuple[str, str, int, int]]:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        if tok is None:
            if self.tokens:
                _, text, line, col = self.tokens[-1]
                return ParseError(message, line, col + len(text))
            return ParseError(message, 1, 1)
        return ParseError(message, tok[2], tok[3])

    def expect(self, kind: str, what: str) -> tuple[str, str, int, int]:
        tok = self.peek()
        if tok is None or tok[0] != kind:
            raise self.error(f"expected {what}")
        self.pos += 1
        return tok

    def term(self) -> NamedTerm:
        tok = self.peek()
        if tok is None:
            raise self.error("expected a term")
        if tok[0] == "lambda":
            self.pos += 1
            _, name, _, _ = self.expect("ident", "a binder name after the lambda")
            self.expect("dot", "'.' after the binder")
            return Lam(name, self.term())
        result = self.atom()
        if result is None:
            raise self.error("expected a term")
        while True:
            nxt = self.atom()
            if nxt is None:
                return result
            result = App(result, nxt)

    def atom(self) -> Optional[NamedTerm]:
        tok = self.peek()
        if tok is None:
            return None
        if tok[0] == "ident":
            self.pos += 1
            return Var(tok[1])
        if tok[0] == "lparen":
            self.pos += 1
            inner = self.term()
            self.expect("rparen", "')'")
            return inner
        return None


def parse_surface(src: str) -> NamedTerm:
    """Parse surface text into a named term.

    Raises ParseError (with line/column) on malformed or empty input.
    """
    tokens = _tokenize(src)
    if not tokens:
        raise ParseError("empty input", 1, 1)
    parser = _Parser(tokens)
    result = parser.term()
    tok = parser.peek()
    if tok is not None:
        raise parser.error(f"unexpected {tok[1]!r} after the term")
    return result


def print_surface(t: NamedTerm) -> str:
    """Render a term with minimal parentheses; re-parses to an alpha-equal term."""
    parts: list[str] = []
    # Items are literal strings or (term, top) pairs; top is True where the
    # term extends to the end of its enclosing text.
    stack: list = [(t, True)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            parts.append(item)
            continue
        t, top = item
        if isinstance(t, Var):
            parts.append(t.name)
        elif isinstance(t, Lam):
            # A lambda body extends to the end of the term, so a lambda needs
            # parentheses anywhere but the rightmost (top) position.
            if not top:
                parts.append("(")
                stack.append(")")
            parts.append("\\")
            parts.append(t.binder)
            parts.append(". ")
            stack.append((t.body, True))
        elif isinstance(t, App):
            # Function position: applications stay bare (left-associative),
            # lambdas need parentheses. Argument position: only a variable
            # stays bare.
            if isinstance(t.arg, Var):
                stack.append(t.arg.name)
            else:
                stack.append(")")
                stack.append((t.arg, True))
                stack.append("(")
            stack.append(" ")
            stack.append((t.fun, isinstance(t.fun, (Var, App))))
        else:
            raise TypeError(f"not a named term: {t!r}")
    return "".join(parts)


# ---------------------------------------------------------------------------
# alpha equivalence and fresh names


def alpha_eq(t: NamedTerm, u: NamedTerm) -> bool:
    """True iff t and u differ only in bound-variable names."""
    return _alpha_eq(t, u, {}, {}, 0)


def _alpha_eq(t, u, env_t, env_u, depth) -> bool:
    if isinstance(t, Var) and isinstance(u, Var):
        bt = env_t.get(t.name)
        bu = env_u.get(u.name)
        if bt is None and bu is None:
            return t.name == u.name
        return bt == bu
    if isinstance(t, App) and isinstance(u, App):
        return _alpha_eq(t.fun, u.fun, env_t, env_u, depth) and _alpha_eq(
            t.arg, u.arg, env_t, env_u, depth
        )
    if isinstance(t, Lam) and isinstance(u, Lam):
        env_t2 = dict(env_t)
        env_u2 = dict(env_u)
        env_t2[t.binder] = depth
        env_u2[u.binder] = depth
        return _alpha_eq(t.body, u.body, env_t2, env_u2, depth + 1)
    return False


def alpha_key(t: NamedTerm):
    """Hashable key identical for alpha-equal terms (binders replaced by depth)."""
    return _alpha_key(t, {}, 0)


def _alpha_key(t, env, depth):
    if isinstance(t, Var):
        bound = env.get(t.name)
        return ("b", bound) if bound is not None else ("f", t.name)
    if isinstance(t, App):
        return ("a", _alpha_key(t.fun, env, depth), _alpha_key(t.arg, env, depth))
    env2 = dict(env)
    env2[t.binder] = depth
    return ("l", _alpha_key(t.body, env2, depth + 1))


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
    """Capture-avoiding substitution of s for free occurrences of x in t."""
    if x not in t.free_names:
        return t
    if isinstance(t, Var):
        return s
    if isinstance(t, App):
        return App(subst(t.fun, x, s), subst(t.arg, x, s))
    assert isinstance(t, Lam)
    # x is free in t, so the binder differs from x.
    if t.binder in s.free_names:
        z = next(fresh_names(s.free_names | t.body.free_names | {x}))
        renamed = subst(t.body, t.binder, Var(z))
        return Lam(z, subst(renamed, x, s))
    return Lam(t.binder, subst(t.body, x, s))


def reduce_once_all(t: NamedTerm) -> list[NamedTerm]:
    """All results of contracting exactly one beta redex, deduplicated up to alpha."""
    results: list[NamedTerm] = []
    seen = set()

    def add(u: NamedTerm) -> None:
        key = alpha_key(u)
        if key not in seen:
            seen.add(key)
            results.append(u)

    def walk(u: NamedTerm, rebuild) -> None:
        if isinstance(u, App):
            if isinstance(u.fun, Lam):
                add(rebuild(subst(u.fun.body, u.fun.binder, u.arg)))
            walk(u.fun, lambda f: rebuild(App(f, u.arg)))
            walk(u.arg, lambda a: rebuild(App(u.fun, a)))
        elif isinstance(u, Lam):
            walk(u.body, lambda b: rebuild(Lam(u.binder, b)))

    walk(t, lambda v: v)
    return results


def _reduce_normal_once(t: NamedTerm) -> Optional[NamedTerm]:
    """Contract the leftmost-outermost redex, or None if t is beta-normal."""
    if isinstance(t, Var):
        return None
    if isinstance(t, Lam):
        body = _reduce_normal_once(t.body)
        return Lam(t.binder, body) if body is not None else None
    assert isinstance(t, App)
    if isinstance(t.fun, Lam):
        return subst(t.fun.body, t.fun.binder, t.arg)
    fun = _reduce_normal_once(t.fun)
    if fun is not None:
        return App(fun, t.arg)
    arg = _reduce_normal_once(t.arg)
    if arg is not None:
        return App(t.fun, arg)
    return None


def normalize(
    t: NamedTerm,
    fuel: int = DEFAULT_FUEL,
    max_nodes: int = DEFAULT_NODE_CEILING,
    max_work: int = DEFAULT_WORK_CEILING,
) -> Union[NamedTerm, FuelExhausted]:
    """Normal-order reduction to beta-normal form within a step budget.

    Also gives up (as FuelExhausted) when resources other than the step
    count run out: an intermediate term exceeding max_nodes, or
    cumulative traversal work exceeding max_work (each step costs about
    the current term size). Divergent terms can grow arbitrarily within
    a few steps, so a pure step budget would not keep this total. A term
    nested deeper than the recursion limit raises RecursionError.
    """
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    spent = 0
    work = 0
    while spent < fuel:
        reduced = _reduce_normal_once(t)
        if reduced is None:
            return t
        t = reduced
        spent += 1
        size = t.node_count
        work += size
        if size > max_nodes or work > max_work:
            return FuelExhausted(spent)
    return FuelExhausted(spent)


def is_normal(t: NamedTerm) -> bool:
    return _reduce_normal_once(t) is None


def _spine_view(t: NamedTerm) -> tuple[NamedTerm, list[NamedTerm]]:
    args: list[NamedTerm] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fun
    args.reverse()
    return t, args


def whnf_oracle(
    t: NamedTerm,
    fuel: int = DEFAULT_FUEL,
    max_nodes: int = DEFAULT_NODE_CEILING,
) -> Union[NamedTerm, FuelExhausted]:
    """Head reduction to weak head normal form.

    Contracts only the head redex: stops as soon as the term is a lambda
    or a free-variable-headed application. Arguments of an inert head
    are left untouched.
    """
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    spent = 0
    while spent < fuel:
        head, args = _spine_view(t)
        if not (isinstance(head, Lam) and args):
            return t
        reduced = subst(head.body, head.binder, args[0])
        for arg in args[1:]:
            reduced = App(reduced, arg)
        t = reduced
        spent += 1
        if t.node_count > max_nodes:
            return FuelExhausted(spent)
    return FuelExhausted(spent)
