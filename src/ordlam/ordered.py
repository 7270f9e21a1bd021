"""The nameless ordered term representation and its translation from
named terms.

A bound-variable occurrence is a bare dot; a binder carries a vector of
gap counts saying where its occurrences sit among the unbound dots of
the body (read left to right); an application carries the number of
unbound dots in its function part, so an environment can be split
between function and argument without traversing either. fv counts the
unbound dots of a term.

The translation from a named term under a context of names yields the
unique ordered term plus the left-to-right list of context-variable
occurrences that the dots stand for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .named import _IDENT, App, Lam, NamedTerm, Var, fresh_name, subst


class OrderedTerm:
    """Base class for ordered preterms (Free / Dot / OApp / OLam)."""

    fv: int


@dataclass(frozen=True)
class Free(OrderedTerm):
    name: str
    fv: int = field(init=False, default=0, repr=False, compare=False)


@dataclass(frozen=True)
class Dot(OrderedTerm):
    fv: int = field(init=False, default=1, repr=False, compare=False)


DOT = Dot()


@dataclass(frozen=True)
class OApp(OrderedTerm):
    fun: OrderedTerm
    split: int
    arg: OrderedTerm
    fv: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.split < 0:
            raise ValueError("application split must be non-negative")
        object.__setattr__(self, "fv", self.fun.fv + self.arg.fv)


@dataclass(frozen=True)
class OLam(OrderedTerm):
    kvec: tuple[int, ...]
    body: OrderedTerm
    fv: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kvec = tuple(self.kvec)
        object.__setattr__(self, "kvec", kvec)
        if any(k < 0 for k in kvec):
            raise ValueError("binder gap counts must be non-negative")
        # May go negative on invalid preterms; is_ordered reports those.
        object.__setattr__(self, "fv", self.body.fv - len(kvec))


def subterms(t: OrderedTerm) -> Iterator[OrderedTerm]:
    yield t
    if isinstance(t, OApp):
        yield from subterms(t.fun)
        yield from subterms(t.arg)
    elif isinstance(t, OLam):
        yield from subterms(t.body)


def is_ordered(t: OrderedTerm) -> bool:
    """Validity: each application split equals its function part's fv, and
    each binder's occurrence vector fits inside its body's unbound dots."""
    for sub in subterms(t):
        if isinstance(sub, OApp) and sub.split != sub.fun.fv:
            return False
        if isinstance(sub, OLam):
            if len(sub.kvec) + sum(sub.kvec) > sub.body.fv:
                return False
    return True


def ordered_free_names(t: OrderedTerm) -> frozenset[str]:
    """Names of all free-variable nodes in t."""
    names = set()
    for sub in subterms(t):
        if isinstance(sub, Free):
            names.add(sub.name)
    return frozenset(names)


# ---------------------------------------------------------------------------
# translation from named terms


@dataclass(frozen=True)
class ParseResult:
    """An ordered term with the occurrence list its unbound dots stand for."""

    term: OrderedTerm
    vars: tuple[str, ...]

    def __post_init__(self):
        assert self.term.fv == len(self.vars)


def to_ordered(m: NamedTerm, gamma: frozenset[str] = frozenset()) -> ParseResult:
    """Translate a named term under a context of names.

    Names in gamma become dots (recorded in the occurrence list); other
    names stay as free variables. Binders that shadow a name of gamma
    are alpha-renamed first, so the result is deterministic.
    """
    gamma = frozenset(gamma)
    if isinstance(m, Var):
        if m.name in gamma:
            return ParseResult(DOT, (m.name,))
        return ParseResult(Free(m.name), ())
    if isinstance(m, App):
        fun = to_ordered(m.fun, gamma)
        arg = to_ordered(m.arg, gamma)
        return ParseResult(
            OApp(fun.term, len(fun.vars), arg.term), fun.vars + arg.vars
        )
    assert isinstance(m, Lam)
    binder, body = m.binder, m.body
    if binder in gamma:
        binder_new = fresh_name(gamma | body.free_names | {binder})
        body = subst(body, binder, Var(binder_new))
        binder = binder_new
    inner = to_ordered(body, gamma | {binder})
    kvec, outer_vars = _strip_occurrences(inner.vars, binder)
    return ParseResult(OLam(kvec, inner.term), outer_vars)


def _strip_occurrences(
    occurrences: tuple[str, ...], binder: str
) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """Split an occurrence list into the binder's gap vector and the rest.

    Each gap counts the non-binder names between consecutive binder
    occurrences; names after the last binder occurrence stay in the
    remainder list only.
    """
    kvec: list[int] = []
    rest: list[str] = []
    gap = 0
    for name in occurrences:
        if name == binder:
            kvec.append(gap)
            gap = 0
        else:
            rest.append(name)
            gap += 1
    return tuple(kvec), tuple(rest)


def parse_closed(m: NamedTerm) -> OrderedTerm:
    """Translate with an empty context: every name stays free, no dots escape."""
    return to_ordered(m, frozenset()).term


# ---------------------------------------------------------------------------
# text format: `x` | `.` | `(app SPLIT FUN ARG)` | `(lam (K1 ... Kn) BODY)`


class OrderedSyntaxError(ValueError):
    pass


def write_ordered(t: OrderedTerm) -> str:
    parts: list[str] = []
    _write(t, parts)
    return "".join(parts)


def _write(t: OrderedTerm, parts: list[str]) -> None:
    if isinstance(t, Free):
        parts.append(t.name)
    elif isinstance(t, Dot):
        parts.append(".")
    elif isinstance(t, OApp):
        parts.append(f"(app {t.split} ")
        _write(t.fun, parts)
        parts.append(" ")
        _write(t.arg, parts)
        parts.append(")")
    elif isinstance(t, OLam):
        parts.append(f"(lam ({' '.join(str(k) for k in t.kvec)}) ")
        _write(t.body, parts)
        parts.append(")")
    else:
        raise TypeError(f"not an ordered term: {t!r}")


def _tokenize_ordered(src: str) -> list[str]:
    return src.replace("(", " ( ").replace(")", " ) ").split()


def read_ordered(src: str) -> OrderedTerm:
    """Parse the text format back into an ordered preterm.

    Raises OrderedSyntaxError on malformed input. Validity (is_ordered)
    is a separate check.
    """
    tokens = _tokenize_ordered(src)
    if not tokens:
        raise OrderedSyntaxError("empty input")
    term, pos = _read(tokens, 0)
    if pos != len(tokens):
        raise OrderedSyntaxError(f"trailing input from token {pos}: {tokens[pos]!r}")
    return term


def _read(tokens: list[str], pos: int) -> tuple[OrderedTerm, int]:
    if pos >= len(tokens):
        raise OrderedSyntaxError("unexpected end of input")
    tok = tokens[pos]
    if tok == ".":
        return DOT, pos + 1
    if tok == ")":
        raise OrderedSyntaxError("unexpected ')'")
    if tok != "(":
        if not _IDENT.fullmatch(tok):
            raise OrderedSyntaxError(f"bad free-variable name {tok!r}")
        return Free(tok), pos + 1
    if pos + 1 >= len(tokens):
        raise OrderedSyntaxError("unexpected end of input after '('")
    head = tokens[pos + 1]
    if head == "app":
        split, pos = _read_int(tokens, pos + 2)
        fun, pos = _read(tokens, pos)
        arg, pos = _read(tokens, pos)
        pos = _expect(tokens, pos, ")")
        return OApp(fun, split, arg), pos
    if head == "lam":
        pos = _expect(tokens, pos + 2, "(")
        kvec = []
        while pos < len(tokens) and tokens[pos] != ")":
            k, pos = _read_int(tokens, pos)
            kvec.append(k)
        pos = _expect(tokens, pos, ")")
        body, pos = _read(tokens, pos)
        pos = _expect(tokens, pos, ")")
        return OLam(tuple(kvec), body), pos
    raise OrderedSyntaxError(f"expected 'app' or 'lam' after '(', got {head!r}")


def _read_int(tokens: list[str], pos: int) -> tuple[int, int]:
    if pos >= len(tokens):
        raise OrderedSyntaxError("unexpected end of input, expected an integer")
    try:
        value = int(tokens[pos])
    except ValueError:
        raise OrderedSyntaxError(f"expected an integer, got {tokens[pos]!r}") from None
    if value < 0:
        raise OrderedSyntaxError(f"expected a non-negative integer, got {value}")
    return value, pos + 1


def _expect(tokens: list[str], pos: int, tok: str) -> int:
    if pos >= len(tokens) or tokens[pos] != tok:
        found = tokens[pos] if pos < len(tokens) else "end of input"
        raise OrderedSyntaxError(f"expected {tok!r}, got {found!r}")
    return pos + 1
