"""Order-sensitive choices outside envseq, each as a one-line mutant and
the test that must fail under it, as tests/test_envseq.py's MUTANTS: (owner,
function, line, mutant line, test class, test method, its arguments)."""

import pytest

from ordlam import machine, ordered
from ordlam.envseq import TreeEnv

import test_machine
import test_ordered
from mutation import install

ORDER_MUTANTS = {
    # A spine's closure arguments opened right to left, each as soon as its
    # spine is met: the same normal form up to the names of its binders,
    # which a digest renames away.
    "readback opens sibling closures right to left": (
        machine,
        "_normal_form",
        "work += (None, arg)",
        "work += (None, arg) if type(arg) is Spine else "
        "(None, (b := next(fresh)), apply(arg, Spine(b), fuel))",
        test_machine.TestNormalizeByEvaluation,
        "test_closures_open_in_pre_order",
        (TreeEnv,),
    ),
    "a binder's gaps listed last first": (
        ordered,
        "_strip_occurrences",
        "kvec.append(gap)",
        "kvec.insert(0, gap)",
        test_ordered.TestToOrdered,
        "test_every_valid_pair_is_reachable",
        (),
    ),
}


@pytest.mark.parametrize("name", list(ORDER_MUTANTS))
def test_mutant_fails_its_test(monkeypatch, name):
    owner, function, line, mutant, test_class, test, args = ORDER_MUTANTS[name]
    install(monkeypatch, owner, function, line, mutant)
    with pytest.raises(AssertionError):
        getattr(test_class(), test)(*args)
