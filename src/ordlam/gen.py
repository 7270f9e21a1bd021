"""Deterministic pseudo-random term generation for property suites.

Two generators share one seeded RNG: an unrestricted one (terms may
diverge; callers guard with fuel) and a simply-typed one whose output
always normalizes. The typed_bias knob mixes them.
"""

from __future__ import annotations

import random

from .named import App, Lam, NamedTerm, Var

# Free names the generators may mention, with the simple types the typed
# generator assumes for them (o = base type, arrows nest to the right).
_BASE = "o"
FREE_POOL: dict[str, tuple] = {
    "a": (_BASE,),
    "b": (_BASE,),
    "n": (_BASE,),
    "f": (_BASE, _BASE),
    "g": (_BASE, _BASE),
    "h": (_BASE, _BASE, _BASE),
}


def gen_terms(
    seed: int,
    count: int,
    max_size: int,
    typed_bias: float = 0.0,
) -> list[NamedTerm]:
    """Generate count pseudo-random terms of at most max_size nodes.

    typed_bias is the fraction drawn from the simply-typed generator
    (those are guaranteed to normalize); the rest are unrestricted.
    Same arguments, same list.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    if not 0.0 <= typed_bias <= 1.0:
        raise ValueError("typed_bias must be between 0 and 1")
    rng = random.Random(seed)
    terms = []
    for _ in range(count):
        if rng.random() < typed_bias:
            terms.append(_typed_term(rng, max_size))
        else:
            terms.append(_untyped_term(rng, max_size))
    return terms


# ---------------------------------------------------------------------------
# unrestricted generator


def _untyped_term(rng: random.Random, max_size: int) -> NamedTerm:
    term, _ = _untyped(rng, max_size, ())
    return term


def _untyped(
    rng: random.Random, budget: int, scope: tuple[str, ...]
) -> tuple[NamedTerm, int]:
    if budget <= 1:
        return _any_var(rng, scope), 1
    roll = rng.random()
    if roll < 0.35:
        return _any_var(rng, scope), 1
    if roll < 0.65 or budget < 3:
        binder = f"v{len(scope)}"
        body, used = _untyped(rng, budget - 1, scope + (binder,))
        return Lam(binder, body), used + 1
    fun, used_f = _untyped(rng, (budget - 1) // 2, scope)
    arg, used_a = _untyped(rng, max(1, budget - 1 - used_f), scope)
    return App(fun, arg), used_f + used_a + 1


def _any_var(rng: random.Random, scope: tuple[str, ...]) -> Var:
    # Prefer bound variables when any are in scope.
    if scope and rng.random() < 0.75:
        return Var(rng.choice(scope))
    return Var(rng.choice(sorted(FREE_POOL)))


# ---------------------------------------------------------------------------
# simply-typed generator (guaranteed normalizing output)

# Types are tuples: (o,) is the base type, (s1, ..., sn, o) the function
# type s1 -> ... -> sn -> o with each si itself a tuple.


def _random_type(rng: random.Random, depth: int) -> tuple:
    if depth <= 0 or rng.random() < 0.55:
        return (_BASE,)
    n_args = rng.randint(1, 2)
    return tuple(_random_type(rng, depth - 1) for _ in range(n_args)) + (_BASE,)


def _typed_term(rng: random.Random, max_size: int) -> NamedTerm:
    for attempt in range(20):
        ctx = [(name, ty) for name, ty in sorted(FREE_POOL.items())]
        term = _typed(rng, _random_type(rng, 2), ctx, max_size, [0])
        if term.node_count <= max_size:
            return term
    return Var("n")


def _typed(
    rng: random.Random,
    ty: tuple,
    ctx: list[tuple[str, tuple]],
    budget: int,
    counter: list[int],
) -> NamedTerm:
    candidates = [name for name, t in ctx if t == ty]
    if budget <= 2:
        if candidates:
            return Var(rng.choice(candidates))
        return _eta_stub(rng, ty, ctx, counter)
    roll = rng.random()
    if len(ty) > 1 and roll < 0.45:
        # Abstract: ty = arg -> rest.
        binder = f"t{counter[0]}"
        counter[0] += 1
        body = _typed(rng, ty[1:], ctx + [(binder, ty[0])], budget - 1, counter)
        return Lam(binder, body)
    if roll < 0.75:
        # Apply something of type sigma -> ty to something of type sigma.
        sigma = _random_type(rng, 1)
        fun = _typed(rng, (sigma,) + ty, ctx, (budget - 1) // 2, counter)
        arg = _typed(rng, sigma, ctx, (budget - 1) // 2, counter)
        return App(fun, arg)
    if candidates:
        return Var(rng.choice(candidates))
    return _eta_stub(rng, ty, ctx, counter)


def _eta_stub(
    rng: random.Random, ty: tuple, ctx: list[tuple[str, tuple]], counter: list[int]
) -> NamedTerm:
    # Cheapest closed-form inhabitant: absorb arguments, return a base term.
    # ctx always holds FREE_POOL's base names, so base_vars is never empty.
    if len(ty) == 1:
        base_vars = [name for name, t in ctx if t == (_BASE,)]
        return Var(rng.choice(base_vars))
    binders = []
    for arg_ty in ty[:-1]:
        name = f"t{counter[0]}"
        counter[0] += 1
        binders.append((name, arg_ty))
    inner_ctx = ctx + binders
    body: NamedTerm = _eta_stub(rng, (_BASE,), inner_ctx, counter)
    for name, _ in reversed(binders):
        body = Lam(name, body)
    return body
