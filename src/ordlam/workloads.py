"""Synthetic benchmark workloads.

Each builder takes a size knob and returns a named term whose normal
form is the same for every strategy, so benchmark runs can cross-check
results. Terms are built iteratively; only their evaluation is deep.
"""

from __future__ import annotations

import math

from .named import App, Lam, NamedTerm, Var


def church(n: int) -> NamedTerm:
    body: NamedTerm = Var("z")
    for _ in range(n):
        body = App(Var("s"), body)
    return Lam("s", Lam("z", body))


ADD = Lam(
    "m",
    Lam(
        "n",
        Lam(
            "s",
            Lam(
                "z",
                App(
                    App(Var("m"), Var("s")),
                    App(App(Var("n"), Var("s")), Var("z")),
                ),
            ),
        ),
    ),
)

MUL = Lam("m", Lam("n", Lam("s", App(Var("m"), App(Var("n"), Var("s"))))))

# Exponentiation as numeral application: the exponent iterates the base.
EXP = Lam("m", Lam("n", App(Var("n"), Var("m"))))

S_COMBINATOR = Lam(
    "x",
    Lam("y", Lam("z", App(App(Var("x"), Var("z")), App(Var("y"), Var("z"))))),
)
K_COMBINATOR = Lam("x", Lam("y", Var("x")))


def church_add(size: int) -> NamedTerm:
    """Numeral addition; the normal form is the numeral for size."""
    a = size // 2
    return App(App(ADD, church(a)), church(size - a))


def church_mul(size: int) -> NamedTerm:
    """Numeral multiplication with roughly balanced factors."""
    a = max(1, math.isqrt(size))
    b = max(1, size // a)
    return App(App(MUL, church(a)), church(b))


def church_exp(size: int) -> NamedTerm:
    """2 to the floor(log2(size)): the normal form has about size applications."""
    k = max(1, size.bit_length() - 1)
    return App(App(EXP, church(2)), church(k))


def combinator_chain(size: int) -> NamedTerm:
    """size-fold application of the identity built from combinators to a free x."""
    identity = App(App(S_COMBINATOR, K_COMBINATOR), K_COMBINATOR)
    t: NamedTerm = Var("x")
    for _ in range(size):
        t = App(identity, t)
    return t


def big_spine(size: int, arg: str = "a") -> NamedTerm:
    """c arg arg ... arg with size arguments."""
    t: NamedTerm = Var("c")
    for _ in range(size):
        t = App(t, Var(arg))
    return t


def leak_family(size: int) -> NamedTerm:
    """Bind a large value, pass it to a function that ignores it.

    The normal form is tiny; what differs across strategies is how much
    of the dead argument the resulting closure still holds.
    """
    discard = Lam("x", Lam("y", Var("y")))
    return App(Lam("big", App(discard, Var("big"))), big_spine(size))


def wide_binder(size: int) -> NamedTerm:
    """(\\x. c x ... x) a with size occurrences of x; the normal form is
    c a ... a. One beta step inserts a at size positions of one
    environment, and every application splits it near its end, which is
    where the list and tree environments part ways."""
    return App(Lam("x", big_spine(size, "x")), Var("a"))


def distinct_spine(size: int) -> NamedTerm:
    """(\\x0. ... \\x(size-1). c x0 ... x(size-1)) a0 ... a(size-1); the
    normal form is c a0 ... a(size-1). Like wide_binder it splits a long
    environment near its end at every application, but the environment
    holds size distinct values, so a backend that reorders them changes
    the normal form."""
    body: NamedTerm = Var("c")
    for i in range(size):
        body = App(body, Var(f"x{i}"))
    for i in reversed(range(size)):
        body = Lam(f"x{i}", body)
    for i in range(size):
        body = App(body, Var(f"a{i}"))
    return body


WORKLOADS = {
    "church-add": church_add,
    "church-mul": church_mul,
    "church-exp": church_exp,
    "combinator-chain": combinator_chain,
    "leak-family": leak_family,
    "wide-binder": wide_binder,
    "distinct-spine": distinct_spine,
}


def build_workload(name: str, size: int) -> NamedTerm:
    if size < 1:
        raise ValueError("workload size must be at least 1")
    try:
        builder = WORKLOADS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}") from None
    return builder(size)
