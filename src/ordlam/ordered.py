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
occurrences that the dots stand for. It needs no renaming: a binder
that shadows a context name claims every occurrence of that name in its
body, and an application's split is its translated function part's fv.
A lambda node met again in the same translation (parse_surface shares
repeated subterms) reuses its first translation when that one is closed
(fv 0) and none of the lambda's free names is bound where it is met
again; a shared lambda under a binder of one of its free names is
translated anew, so that name becomes a dot there. Within one
translation every occurrence of a free name is one Free node, as every
dot is the one DOT.

Every walk over terms, the translation and the text reader included, is
an explicit-stack loop, so term depth is bounded by memory. Term nodes
are slotted classes without a __dict__; immutability, ==, hash() and
repr() come from the shared base class, named.Term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .named import _IDENT, App, Lam, NamedTerm, Term, Var, _Leaves, _leaf_names


class OrderedTerm(Term):
    """Base class for ordered preterms (Free / Dot / OApp / OLam).

    Terms compare and hash structurally, as every Term; fv is derived,
    not a constructor field, so it takes no part.
    """

    __slots__ = ()
    fv: int


class Free(OrderedTerm):
    __slots__ = ("name",)
    __match_args__ = ("name",)
    fv = 0

    def __init__(self, name: str):
        _free_name(self, name)


class Dot(OrderedTerm):
    __slots__ = ()
    fv = 1


DOT = Dot()


class OApp(OrderedTerm):
    __slots__ = ("fun", "split", "arg", "fv")
    __match_args__ = ("fun", "split", "arg")

    def __init__(self, fun: OrderedTerm, split: int, arg: OrderedTerm):
        if split < 0:
            raise ValueError("application split must be non-negative")
        _oapp_fun(self, fun)
        _oapp_split(self, split)
        _oapp_arg(self, arg)
        _oapp_fv(self, fun.fv + arg.fv)


class OLam(OrderedTerm):
    __slots__ = ("kvec", "body", "fv")
    __match_args__ = ("kvec", "body")

    def __init__(self, kvec: tuple[int, ...], body: OrderedTerm):
        kvec = tuple(kvec)
        if kvec and min(kvec) < 0:
            raise ValueError("binder gap counts must be non-negative")
        _olam_kvec(self, kvec)
        _olam_body(self, body)
        # May go negative on invalid preterms; is_ordered reports those.
        _olam_fv(self, body.fv - len(kvec))


# Each slot's member-descriptor setter, as in named.
_free_name = Free.__dict__["name"].__set__
_oapp_fun = OApp.__dict__["fun"].__set__
_oapp_split = OApp.__dict__["split"].__set__
_oapp_arg = OApp.__dict__["arg"].__set__
_oapp_fv = OApp.__dict__["fv"].__set__
_olam_kvec = OLam.__dict__["kvec"].__set__
_olam_body = OLam.__dict__["body"].__set__
_olam_fv = OLam.__dict__["fv"].__set__


def subterms(t: OrderedTerm) -> Iterator[OrderedTerm]:
    """Every subterm of t in pre-order, function part before argument."""
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        kind = type(t)
        if kind is OApp:
            stack.append(t.arg)
            stack.append(t.fun)
        elif kind is OLam:
            stack.append(t.body)


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
    """Names of all free-variable nodes in t. A binder node that the
    translation shared is walked once, however often t reaches it."""
    return _leaf_names(t, OApp, OLam, Free)


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
    names stay as free variables. A binder that shadows a name of gamma
    binds every occurrence of that name in its body, so no renaming is
    needed and the result is deterministic.
    """
    occurrences: list[str] = []
    term = _translate(m, set(gamma), occurrences)
    return ParseResult(term, tuple(occurrences))


def _translate(m: NamedTerm, bound: set[str], occ: list[str]) -> OrderedTerm:
    """Translate m, appending the names its unbound dots stand for to occ
    (subterms go left to right, so occ fills in the order of the dots).

    The loop walks into an application's function part and pushes its
    argument. A variable function part is translated where it is met,
    and the loop walks on into the argument; a variable argument is
    pushed as itself and joined to the function part's translation when
    it is popped. So a spine such as s (s (... z)) or f a b c pushes one
    item per application, and no task per node."""
    # Work items: an argument still to translate, a Var joined at once
    # and any other term above a None; None, to apply the second result
    # from the top to the top one; (lambda, shadows, start), to close a
    # binder.
    work: list = []
    out: list[OrderedTerm] = []
    # The closed translations (fv 0) of m's lambdas met so far, by id; m
    # holds them all for the whole call. A lambda met again translates
    # the same way unless one of its free names is now bound.
    closed: dict[int, OLam] = {}
    # One Free node per name, as DOT is the one dot.
    frees = _Leaves(Free)
    t = m
    while True:
        while True:
            kind = type(t)
            if kind is App:
                fun = t.fun
                arg = t.arg
                if type(fun) is not Var:
                    if type(arg) is Var:
                        work.append(arg)
                    else:
                        work += (None, arg)
                    t = fun
                    continue
                name = fun.name
                if name in bound:
                    occ.append(name)
                    out.append(DOT)
                else:
                    out.append(frees[name])
                if type(arg) is Var:
                    work.append(arg)
                    break
                work.append(None)
                t = arg
            elif kind is Var:
                name = t.name
                if name in bound:
                    occ.append(name)
                    out.append(DOT)
                else:
                    out.append(frees[name])
                break
            elif kind is Lam:
                done = closed.get(id(t))
                if done is not None and t.free_names.isdisjoint(bound):
                    out.append(done)
                    break
                work.append((t, t.binder in bound, len(occ)))
                bound.add(t.binder)
                t = t.body
            else:
                raise TypeError(f"not a named term: {t!r}")
        while work:
            t = work.pop()
            if t is None:
                arg = out.pop()
                out[-1] = OApp(out[-1], out[-1].fv, arg)
            elif type(t) is Var:
                name = t.name
                if name in bound:
                    occ.append(name)
                    arg = DOT
                else:
                    arg = frees[name]
                out[-1] = OApp(out[-1], out[-1].fv, arg)
            elif type(t) is tuple:
                lam, shadows, start = t
                binder = lam.binder
                if not shadows:
                    bound.discard(binder)
                kvec, occ[start:] = _strip_occurrences(occ[start:], binder)
                done = out[-1] = OLam(kvec, out[-1])
                if not done.fv:
                    closed[id(lam)] = done
            else:
                break
        else:
            return out.pop()


def _strip_occurrences(
    occurrences: list[str], binder: str
) -> tuple[tuple[int, ...], list[str]]:
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
    return tuple(kvec), rest


def parse_closed(m: NamedTerm) -> OrderedTerm:
    """Translate with an empty context: every name stays free, no dots escape."""
    return to_ordered(m, frozenset()).term


# ---------------------------------------------------------------------------
# text format: `x` | `.` | `(app SPLIT FUN ARG)` | `(lam (K1 ... Kn) BODY)`,
# SPLIT and each K a run of ASCII decimal digits


class OrderedSyntaxError(ValueError):
    pass


def write_ordered(t: OrderedTerm) -> str:
    parts: list[str] = []
    stack: list = [t]  # terms still to write and literal closing text
    while stack:
        t = stack.pop()
        if isinstance(t, str):
            parts.append(t)
        elif isinstance(t, Free):
            parts.append(t.name)
        elif isinstance(t, Dot):
            parts.append(".")
        elif isinstance(t, OApp):
            parts.append(f"(app {t.split} ")
            stack += (")", t.arg, " ", t.fun)
        elif isinstance(t, OLam):
            parts.append(f"(lam ({' '.join(str(k) for k in t.kvec)}) ")
            stack += (")", t.body)
        else:
            raise TypeError(f"not an ordered term: {t!r}")
    return "".join(parts)


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
    forms: list[list] = []  # ["app", split, function or None] or ["lam", kvec]
    pos = 0
    while True:
        if pos >= len(tokens):
            raise OrderedSyntaxError("unexpected end of input")
        tok = tokens[pos]
        if tok == "(":
            if pos + 1 >= len(tokens):
                raise OrderedSyntaxError("unexpected end of input after '('")
            head = tokens[pos + 1]
            if head == "app":
                split, pos = _read_int(tokens, pos + 2)
                forms.append(["app", split, None])
                continue
            if head != "lam":
                raise OrderedSyntaxError(
                    f"expected 'app' or 'lam' after '(', got {head!r}"
                )
            pos = _expect(tokens, pos + 2, "(")
            kvec = []
            while pos < len(tokens) and tokens[pos] != ")":
                k, pos = _read_int(tokens, pos)
                kvec.append(k)
            pos = _expect(tokens, pos, ")")
            forms.append(["lam", tuple(kvec)])
            continue
        if tok == ".":
            term = DOT
        elif tok == ")":
            raise OrderedSyntaxError("unexpected ')'")
        elif not _IDENT.fullmatch(tok):
            raise OrderedSyntaxError(f"bad free-variable name {tok!r}")
        else:
            term = Free(tok)
        pos += 1
        # Close every form this term completes; an application whose
        # function this is reads its argument next.
        while forms and not (forms[-1][0] == "app" and forms[-1][2] is None):
            form = forms.pop()
            pos = _expect(tokens, pos, ")")
            if form[0] == "app":
                term = OApp(form[2], form[1], term)
            else:
                term = OLam(form[1], term)
        if forms:
            forms[-1][2] = term
        elif pos == len(tokens):
            return term
        else:
            raise OrderedSyntaxError(
                f"trailing input from token {pos}: {tokens[pos]!r}"
            )


def _read_int(tokens: list[str], pos: int) -> tuple[int, int]:
    if pos >= len(tokens):
        raise OrderedSyntaxError("unexpected end of input, expected an integer")
    token = tokens[pos]
    # ASCII digits only: int() would also take a sign, underscores and
    # non-ASCII digits. It still refuses a run longer than the
    # interpreter's integer digit limit.
    if token.isascii() and token.isdigit():
        try:
            return int(token), pos + 1
        except ValueError:
            pass
    raise OrderedSyntaxError(f"expected a non-negative integer, got {token!r}")


def _expect(tokens: list[str], pos: int, tok: str) -> int:
    if pos >= len(tokens) or tokens[pos] != tok:
        found = tokens[pos] if pos < len(tokens) else "end of input"
        raise OrderedSyntaxError(f"expected {tok!r}, got {found!r}")
    return pos + 1
