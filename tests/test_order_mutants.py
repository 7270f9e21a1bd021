"""Order-sensitive choices outside envseq, each as a one-line mutant and
the test that must fail under it, as tests/test_envseq.py's MUTANTS: (owner,
function, line, mutant line, test class, test method, its arguments)."""

import pytest

from ordlam import machine, ordered
from ordlam.envseq import TreeEnv
from ordlam.errors import InvariantError

import test_bench
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
        "_print",
        "work += (_APP_TASK, (kind, arg))",
        "work += (_APP_TASK, (kind, arg)) "
        "if kind == _VALUE or type(arg) is Spine else "
        "(_APP_TASK, _LAM_TASK, (kind, apply(arg, Spine(b := next(fresh)), fuel)), "
        "scope.append(leaves[b]))[:3]",
        test_machine.TestNormalizeByEvaluation,
        "test_closures_open_in_pre_order",
        (TreeEnv,),
    ),
    # A spine's first argument, the end of its chain, is read in place;
    # the last one read there instead comes out first, and twice.
    "readback reads a spine's last argument in place of its first": (
        machine,
        "_print",
        "v = cell.head",
        "v = v.args.head",
        test_machine.TestNormalizeByEvaluation,
        "test_closures_open_in_pre_order",
        (TreeEnv,),
    ),
    # Readback applies a closure to a spine of its binder's fresh name;
    # applied to the next name instead, the body reads a name no binder
    # holds.
    "readback applies a closure to a name other than its binder's": (
        machine,
        "_print",
        "v = apply(v, Spine(name), fuel)",
        "v = apply(v, Spine(next(fresh)), fuel)",
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
    # A bound head with split 1 over a tuple pushes the window's first
    # value and moves the window on; read one slot late, every head takes
    # the next variable's value.
    "the window is read one slot late": (
        machine,
        "_run",
        "stack.append((_FRAME_APPLY, env[lo]))",
        "stack.append((_FRAME_APPLY, env[lo + 1]))",
        test_machine.TestBoundHeadChains,
        "test_normal_form_on_every_strategy",
        (6, "dot"),
    ),
    # An application to a bound variable over a tuple pushes the
    # window's last value as its argument and moves the window's right
    # end back; read one slot early, every argument takes the value of
    # the variable before it.
    "the right window is read one slot early": (
        machine,
        "_run",
        "(env[hi],)",
        "(env[hi - 1],)",
        test_machine.TestBoundArgumentSpines,
        "test_normal_form_on_every_strategy",
        (6, "free"),
    ),
    # Where a run of bound heads or bound arguments ends, the window
    # becomes an exact tuple; a closure given the whole buffer instead
    # holds the values its binder does not use.
    "a closure takes the whole buffer": (
        machine,
        "_run",
        "if hi is not None:",
        "if hi is not None and kind is not OLam:",
        test_machine.TestBoundHeadChains,
        "test_normal_form_on_every_strategy",
        (6, "binder"),
    ),
    # Fresh binder names skip every name the printed term holds free;
    # printing reads machine's binding of fresh_names.
    "fresh names ignore the names to avoid": (
        machine,
        "fresh_names",
        "if name not in avoid:",
        "if True:",
        test_bench.TestDigest,
        "test_canonical_binders_skip_free_names",
        (r"\x. z0 x", r"\z1. z0 z1"),
    ),
    # Translation reuses a closed lambda's translation only where none of
    # its free names is bound; reused under a binder of one of them, the
    # copy keeps the free variable where a dot belongs.
    "translation reuses a lambda whose free names are bound": (
        ordered,
        "_translate",
        "if done is not None and t.free_names.isdisjoint(bound):",
        "if done is not None:",
        test_ordered.TestSharedLambdas,
        "test_captured_copy_translates_with_a_dot",
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


# A mutant whose test fails on an invariant check rather than on an
# assert: the error the check raises.
CHECKED = {
    "a closure takes the whole buffer": (
        InvariantError,
        "^closure environment has 6 entries, binder needs 1$",
    ),
}


@pytest.mark.parametrize("name", list(ORDER_MUTANTS))
def test_mutant_fails_its_test(monkeypatch, name):
    owner, function, line, mutant, test_class, test, args = ORDER_MUTANTS[name]
    error, message = CHECKED.get(name, (AssertionError, None))
    install(monkeypatch, owner, function, line, mutant)
    with pytest.raises(error, match=message):
        getattr(test_class(), test)(*args)
