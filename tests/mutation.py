"""Mutants for the tier-1 mutant tables: a function compiled again from its
source with one line replaced, installed for the length of one test."""

import __future__
import inspect
import textwrap


def mutated(function, line, mutant):
    """function compiled again from its source with line, which must occur
    in it exactly once, replaced by mutant, in the function's own module
    namespace."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(line) == 1, line
    code = compile(
        source.replace(line, mutant),
        inspect.getsourcefile(function),
        "exec",
        flags=__future__.annotations.compiler_flag,
        dont_inherit=True,
    )
    namespace = {}
    exec(code, function.__globals__, namespace)
    return namespace[function.__name__]


def install(monkeypatch, owner, function, line, mutant):
    """Replace the function (or classmethod) owner.function, where owner is
    a class or a module, with its mutant."""
    original = owner.__dict__[function]
    if isinstance(original, classmethod):
        patched = classmethod(mutated(original.__func__, line, mutant))
    else:
        patched = mutated(original, line, mutant)
    monkeypatch.setattr(owner, function, patched)
