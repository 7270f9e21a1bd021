"""Seeded workload inputs and their independently built normal forms.

Each workload is a fixed plan of slots (a term shape and a base size).
The seed jitters the sizes in pairs by opposite amounts, so every sum
that is linear in the sizes (retained nodes, steps) is the same for
every seed, and then shuffles the order. Throughput therefore varies
across seeds only by the small non-linear part of the cost.

A reference normal form is written down from the plan's arithmetic,
never obtained by evaluating the input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ordlam import workloads
from ordlam.named import App, Lam, NamedTerm, Var, print_surface


@dataclass(frozen=True)
class Case:
    """One distinct input: its surface text and the expected normal form."""

    label: str
    text: str
    reference: NamedTerm


# --------------------------------------------------------------------------
# terms ordlam.workloads does not build


def spine(head: str, args: list[NamedTerm]) -> NamedTerm:
    t: NamedTerm = Var(head)
    for a in args:
        t = App(t, a)
    return t


def numeral(n: int) -> NamedTerm:
    """The Church numeral for n, written out (the reference for numerals)."""
    body: NamedTerm = Var("z")
    for _ in range(n):
        body = App(Var("s"), body)
    return Lam("s", Lam("z", body))


def wide_binder(width: int) -> NamedTerm:
    """(\\x. c x x ... x) a with width occurrences of x."""
    return App(Lam("x", spine("c", [Var("x")] * width)), Var("a"))


def alternating(first: str, second: str, length: int) -> NamedTerm:
    """first (second (first (second ... c))) with length heads in all."""
    t: NamedTerm = Var("c")
    for i in reversed(range(length)):
        t = App(Var(first if i % 2 == 0 else second), t)
    return t


def interleaved_binders(length: int, copies: int) -> NamedTerm:
    """k (F a b) ... (F a b) with F = \\x.\\y. x (y (x (y ... c)))."""
    f = Lam("x", Lam("y", alternating("x", "y", length)))
    return spine("k", [App(App(f, Var("a")), Var("b"))] * copies)


# --------------------------------------------------------------------------
# workload plans: (shape, base size) per slot

INTERLEAVED_COPIES = 4


def _chain(size: int) -> tuple[NamedTerm, NamedTerm]:
    return workloads.combinator_chain(size), Var("x")


def _leak(size: int) -> tuple[NamedTerm, NamedTerm]:
    return workloads.leak_family(size), Lam("y", Var("y"))


def _add(size: int) -> tuple[NamedTerm, NamedTerm]:
    # church_add splits size into two addends.
    return workloads.church_add(size), numeral(size)


def _mul(root: int) -> tuple[NamedTerm, NamedTerm]:
    # A perfect square makes church_mul's factors root and root.
    return workloads.church_mul(root * root), numeral(root * root)


def _exp(power: int) -> tuple[NamedTerm, NamedTerm]:
    # church_exp(2**power) computes 2 to the power.
    return workloads.church_exp(2**power), numeral(2**power)


def _wide(width: int) -> tuple[NamedTerm, NamedTerm]:
    return wide_binder(width), spine("c", [Var("a")] * width)


def _interleaved(length: int) -> tuple[NamedTerm, NamedTerm]:
    copies = INTERLEAVED_COPIES
    return (
        interleaved_binders(length, copies),
        spine("k", [alternating("a", "b", length)] * copies),
    )


# Each shape makes an input term and its expected normal form.
SHAPES = {
    "combinator-chain": _chain,
    "leak-family": _leak,
    "church-add": _add,
    "church-mul": _mul,
    "church-exp": _exp,
    "wide-binder": _wide,
    "interleaved": _interleaved,
}

# Consecutive pairs of slots are jittered by opposite amounts, a small
# fraction of the pair's smaller size; an odd slot out keeps its size.
# Where the jitter is nonzero the pair shares its shape, so sums linear
# in size stay fixed. Each plan has three inputs whose latencies lie
# about a factor of two apart on every strategy, so the median latency
# is the middle input's own median rather than a point on the gap
# between two inputs; the jitter is small enough to keep that ranking.
JITTER = 0.02

PLANS: dict[str, list[tuple[str, int]]] = {
    # two combinator chains to one leak term
    "chain-eval": [
        ("combinator-chain", 300),
        ("combinator-chain", 900),
        ("leak-family", 2000),
    ],
    # sizes: an exponent (too small to jitter), a sum, a square root
    "numerals": [
        ("church-exp", 9),
        ("church-add", 1200),
        ("church-mul", 30),
    ],
    "wide-binder": [
        ("wide-binder", 200),
        ("wide-binder", 900),
        ("wide-binder", 550),
    ],
    # length of F's body
    "interleaved-binders": [
        ("interleaved", 200),
        ("interleaved", 600),
        ("interleaved", 400),
    ],
}


def jittered_sizes(rng: random.Random, slots) -> list[int]:
    """Sizes with pairwise opposite jitter: the sum of each pair is kept."""
    sizes = [size for _, size in slots]
    for i in range(0, len(slots) - 1, 2):
        span = int(JITTER * min(sizes[i], sizes[i + 1]))
        delta = rng.randint(-span, span)
        sizes[i] += delta
        sizes[i + 1] -= delta
    return sizes


def build_cases(workload: str, seed: int, scale: float = 1.0) -> list[Case]:
    """The workload's distinct inputs for a seed, in seeded order.

    scale shrinks every size (tests use small terms); the benchmark runs
    at scale 1.
    """
    slots = PLANS[workload]
    rng = random.Random(f"{workload}/{seed}")
    sizes = jittered_sizes(rng, slots)
    cases = []
    for (shape, _), size in zip(slots, sizes):
        size = max(1, int(size * scale))
        term, reference = SHAPES[shape](size)
        cases.append(Case(f"{shape}-{size}", print_surface(term), reference))
    rng.shuffle(cases)
    return cases
