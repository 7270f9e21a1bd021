"""Order-sensitive choices outside envseq, each as a one-line mutant and
the test that must fail under it, as tests/test_envseq.py's MUTANTS: (owner,
function, line, mutant line, test class, test method, its arguments)."""

import pytest

from ordlam import machine, ordered
from ordlam.envseq import TreeEnv

import test_machine
import test_named
import test_ordered
from mutation import install

ORDER_MUTANTS = {
    # A spine's waiting closure arguments (all but the first, which is
    # read in place) opened right to left, each as soon as its spine is
    # met: the same normal form up to the names of its binders, which a
    # digest renames away.
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
    # A spine's first argument, the end of its chain, is read in place;
    # the last one read there instead comes out first, and twice.
    "readback reads a spine's last argument in place of its first": (
        machine,
        "_normal_form",
        "v = cell.head",
        "v = v.args.head",
        test_machine.TestNormalizeByEvaluation,
        "test_closures_open_in_pre_order",
        (TreeEnv,),
    ),
    # The printer walks on past a leaf function part into its argument;
    # a dot's Var joined after that argument prints x y as y x.
    "the printer emits a dot function part after its argument": (
        machine,
        "_print",
        "out.append(v)",
        "(work.pop(), work.append(v)) if rest is not None else out.append(v)",
        test_machine.TestPrinting,
        "test_round_trip_s",
        (),
    ),
    # Past a function part that is no leaf, the argument waits: walked
    # first instead, the two come out the other way round.
    "translation walks the argument side first": (
        ordered,
        "_translate",
        "work += (None, arg)",
        "work += (None, fun); fun = arg",
        test_ordered.TestToOrdered,
        "test_s_combinator",
        (),
    ),
    # ordered_free_names calls ordered's binding of the shared walk; an
    # argument dropped for a second walk of the function part loses its
    # names.
    "free names walk the function part in place of the argument": (
        ordered,
        "_leaf_names",
        "stack.append(t)",
        "stack.append(fun)",
        test_ordered.TestSharedLambdas,
        "test_free_names_agree_with_the_named_term",
        (),
    ),
    # A variable function part is written at once, before the argument
    # the loop walks on into; written after it, a (b c) reads (b c) a.
    # The test calls its own binding of print_surface.
    "print_surface writes a variable function part after its argument": (
        test_named,
        "print_surface",
        'parts += (fun.name, " (")',
        'parts.append("("); stack.append(fun)',
        test_named.TestPrint,
        "test_right_nested_application_parenthesized",
        (),
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
