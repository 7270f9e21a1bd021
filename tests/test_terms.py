"""Layout, immutability and sharing of the term classes of all three
families (named, ordered, de Bruijn)."""

import copy
import pickle

import pytest

from ordlam.baselines import db_normalize_by_evaluation, db_whnf, normalize_hsub
from ordlam.debruijn import BVar, DApp, DLam, FVar, to_debruijn
from ordlam.envseq import BACKENDS
from ordlam.gen import gen_terms
from ordlam.named import (
    App,
    FuelExhausted,
    Lam,
    NamedTerm,
    Var,
    _fields,
    alpha_key,
    normalize,
    parse_surface,
    print_surface,
    subst,
)
from ordlam.machine import from_debruijn, normalize_by_evaluation, print_ordered
from ordlam.machine import print_value
from ordlam.ordered import DOT, Dot, Free, OApp, OLam, parse_closed, subterms
from ordlam.ordered import to_ordered
from ordlam.workloads import big_spine, church, church_add, combinator_chain

SAMPLES = [
    Var("x"),
    App(Var("f"), Var("x")),
    Lam("x", Var("x")),
    Free("a"),
    Dot(),
    OApp(DOT, 1, Free("a")),
    OLam((0,), DOT),
    BVar(0),
    FVar("a"),
    DApp(BVar(0), FVar("a")),
    DLam(BVar(0)),
]

ORDERED = (Free, Dot, OApp, OLam)


def fields_of(t):
    names = type(t).__match_args__
    return names + ("fv",) if isinstance(t, ORDERED) else names


def test_samples_cover_every_term_class():
    assert len({type(t) for t in SAMPLES}) == 11


@pytest.mark.parametrize("t", SAMPLES, ids=lambda t: type(t).__name__)
def test_fields_cannot_be_assigned_or_deleted(t):
    before = repr(t)
    for name in fields_of(t) + ("other",):
        with pytest.raises(AttributeError):
            setattr(t, name, Var("y"))
    for name in fields_of(t):
        with pytest.raises(AttributeError):
            delattr(t, name)
    assert repr(t) == before


@pytest.mark.parametrize("t", SAMPLES, ids=lambda t: type(t).__name__)
def test_ordered_nodes_have_no_dict(t):
    # Only named nodes cache free_names and node_count; ordered and de
    # Bruijn nodes hold their fields alone.
    named = isinstance(t, NamedTerm)
    assert hasattr(t, "__dict__") == hasattr(t, "free_names") == named


@pytest.mark.parametrize("t", SAMPLES, ids=lambda t: type(t).__name__)
def test_copy_and_pickle_rebuild_through_the_constructor(t):
    for u in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert type(u) is type(t) and u == t and repr(u) == repr(t)
        assert getattr(u, "fv", None) == getattr(t, "fv", None)


def test_cached_properties_fill_their_cache():
    t = parse_surface(r"(\x. f x) y")
    for attr in ("free_names", "node_count"):
        assert attr not in t.__dict__
        getattr(t, attr)
        assert attr in t.__dict__
        assert attr in t.fun.body.arg.__dict__
    assert (t.free_names, t.node_count) == ({"f", "y"}, 6)


def test_ordered_constructor_checks_and_fv():
    with pytest.raises(ValueError, match="split must be non-negative"):
        OApp(DOT, -1, DOT)
    with pytest.raises(ValueError, match="gap counts must be non-negative"):
        OLam([0, -1], DOT)
    lam = OLam([0], OApp(DOT, 1, DOT))
    assert lam.kvec == (0,) and type(lam.kvec) is tuple
    assert (Free("a").fv, DOT.fv, lam.body.fv, lam.fv) == (0, 1, 2, 1)


# repr() text of a fixed sample, which must stay as it is.
REPRS = [
    (
        parse_surface(r"(\x. \y. f x (y x)) (\z. z) w"),
        "App(fun=App(fun=Lam(binder='x', body=Lam(binder='y', body=App(fun=App("
        "fun=Var(name='f'), arg=Var(name='x')), arg=App(fun=Var(name='y'), "
        "arg=Var(name='x'))))), arg=Lam(binder='z', body=Var(name='z'))), "
        "arg=Var(name='w'))",
    ),
    (
        to_ordered(parse_surface(r"\y. x y x"), frozenset({"x"})).term,
        "OLam(kvec=(1,), body=OApp(fun=OApp(fun=Dot(), split=1, arg=Dot()), "
        "split=2, arg=Dot()))",
    ),
    (OLam((0,), DOT), "OLam(kvec=(0,), body=Dot())"),
    (Dot(), "Dot()"),
    (
        to_debruijn(parse_surface(r"(\x. \y. f x (y x)) w")),
        "DApp(fun=DLam(body=DLam(body=DApp(fun=DApp(fun=FVar(name='f'), "
        "arg=BVar(index=1)), arg=DApp(fun=BVar(index=0), arg=BVar(index=1))))), "
        "arg=FVar(name='w'))",
    ),
]


@pytest.mark.parametrize("t, text", REPRS)
def test_repr_is_the_constructor_text(t, text):
    assert repr(t) == text


def test_equality_and_hash():
    shared = parse_surface("f x x")
    fresh = App(App(Var("f"), Var("x")), Var("x"))
    assert shared == fresh and hash(shared) == hash(fresh)
    assert hash(shared) == hash(_fields(shared))
    assert OLam([0], DOT) == OLam((0,), DOT)
    assert hash(OLam([0], DOT)) == hash(OLam((0,), DOT))
    assert Dot() == DOT and hash(Dot()) == hash(DOT)
    assert Var("x") != FVar("x") and Var("x") != Free("x") and FVar("x") != Free("x")
    assert OApp(DOT, 1, DOT) != OApp(DOT, 0, DOT)


def test_equality_skips_a_pair_that_is_one_object():
    t = Var("x")
    for _ in range(60):  # 2**60 leaves unfolded
        t = App(t, t)
    assert t == t
    assert App(t, Var("y")) == App(t, Var("y"))
    assert App(t, Var("y")) != App(t, Var("z"))
    assert App(t, Var("y")) != Lam("y", t)
    assert OLam((0,), DOT) != OLam((1,), DOT)


def test_equality_of_separately_built_shared_graphs_is_linear():
    def graph(levels, leaf):
        t = Var(leaf)
        for _ in range(levels):  # 2**levels leaves unfolded
            t = App(t, t)
        return t

    assert graph(60, "x") == graph(60, "x")
    assert graph(60, "x") != graph(60, "y")
    assert App(graph(60, "x"), Var("y")) != App(graph(60, "x"), Var("z"))
    assert graph(60, "x") != graph(59, "x")


# ---------------------------------------------------------------------------
# sharing


def test_parse_shares_one_var_per_name():
    t = parse_surface("x x")
    assert t.fun is t.arg
    t = parse_surface(r"\x. x (y x) y")
    assert t.body.fun.fun is t.body.fun.arg.arg
    assert t.body.fun.arg.fun is t.body.arg


def test_parse_shares_repeated_subterms():
    t = parse_surface(r"(\x. x) (\x. x)")
    assert t.fun is t.arg
    t = parse_surface(r"f (g x) (g x) (\y. g x)")
    assert t.fun.fun.arg is t.fun.arg is t.arg.body
    t = parse_surface(r"(\x. x) (\y. y) (\x. y)")
    assert len({id(t.fun.fun), id(t.fun.arg), id(t.arg)}) == 3


def test_shared_parse_counts_as_an_unshared_rebuild():
    shared = parse_surface(print_surface(combinator_chain(50)))
    fresh = unshared(shared)
    assert len(distinct_nodes(shared)) < 120 < len(distinct_nodes(fresh))
    # 50 applications of S K K (18 nodes each) to x
    assert shared.node_count == fresh.node_count == 50 * 19 + 1
    assert shared.free_names == fresh.free_names == {"x"}


def test_parse_calls_do_not_share():
    assert parse_surface("x") is not parse_surface("x")


def test_shared_leaves_count_once_per_occurrence():
    assert parse_surface("x x x").node_count == 5


def test_free_names_reuse_a_child_set_that_is_the_answer():
    t = parse_surface("f x x")  # the argument's names are among the function's
    assert t.free_names is t.fun.free_names
    t = parse_surface("x (f x)")  # the function's names are among the argument's
    assert t.free_names is t.arg.free_names
    t = parse_surface("f x")
    assert t.free_names == {"f", "x"}
    assert t.free_names is not t.fun.free_names and t.free_names is not t.arg.free_names
    t = parse_surface(r"\y. f x")  # the binder does not occur
    assert t.free_names is t.body.free_names
    t = parse_surface(r"\x. f x")
    assert t.free_names == {"f"}


def unshared(t):
    """t rebuilt with a fresh Var per occurrence."""
    if type(t) is Var:
        return Var(t.name)
    if type(t) is App:
        return App(unshared(t.fun), unshared(t.arg))
    return Lam(t.binder, unshared(t.body))


def distinct_nodes(t):
    """The ids of t's nodes, each shared node once."""
    seen = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if id(u) in seen:
            continue
        seen.add(id(u))
        if type(u) is App:
            stack += (u.fun, u.arg)
        elif type(u) is Lam:
            stack.append(u.body)
    return seen


def leaves(t, out):
    if type(t) is Var:
        out.append(t)
    elif type(t) is App:
        leaves(t.fun, out)
        leaves(t.arg, out)
    else:
        leaves(t.body, out)
    return out


@pytest.mark.parametrize("seed", range(1002, 1008))
def test_shared_and_fresh_leaves_give_identical_results(seed):
    sharing = 0
    s = parse_surface(r"f v0 (\v1. v1 x)")
    for term in gen_terms(seed, 150, 40, 0.5):
        shared = parse_surface(print_surface(term))
        fresh = unshared(shared)
        occurrences = leaves(shared, [])
        sharing += len({id(v) for v in occurrences}) < len(occurrences)
        assert fresh == shared
        assert alpha_key(shared) == alpha_key(fresh)
        assert shared.free_names == fresh.free_names
        assert shared.node_count == fresh.node_count
        for x in ("x", "v0", "f"):
            assert repr(subst(shared, x, s)) == repr(subst(fresh, x, s))
        a, b = normalize(shared, fuel=200), normalize(fresh, fuel=200)
        if isinstance(a, FuelExhausted):
            assert isinstance(b, FuelExhausted) and a.spent == b.spent
        else:
            assert repr(a) == repr(b)
        for gamma in (frozenset(), shared.free_names):
            assert to_ordered(shared, gamma) == to_ordered(fresh, gamma)
        assert repr(to_debruijn(shared)) == repr(to_debruijn(fresh))
    assert sharing > 0


@pytest.mark.parametrize("seed", range(1000, 1006))
def test_shared_parse_translates_as_an_unshared_rebuild(seed):
    # Each term next to itself, under a binder of one of its own free
    # names where it has one: the copy there must not reuse a closed
    # translation of the first, and every other lambda may.
    reused = 0
    for term in gen_terms(seed, 200, 40, 0.5):
        text = print_surface(term)
        names = sorted(term.free_names)
        copy_text = f"\\{names[0]}. {text}" if names else text
        shared = parse_surface(f"({text}) ({copy_text})")
        fresh = unshared(shared)
        assert shared.fun is (shared.arg.body if names else shared.arg)
        for gamma in (frozenset(), shared.free_names | {"f"}):
            translated = to_ordered(shared, gamma)
            assert repr(translated) == repr(to_ordered(fresh, gamma))
            lams = [id(u) for u in subterms(translated.term) if type(u) is OLam]
            reused += len(set(lams)) < len(lams)
        assert repr(to_debruijn(shared)) == repr(to_debruijn(fresh))
    assert reused > 0


def _check_one_leaf_per_binder(t):
    """The leaves of t's outermost binder are one Var, and t compares,
    hashes and counts as its rebuild with a fresh Var per occurrence."""
    binder_leaves = [v for v in leaves(t, []) if v.name == t.binder]
    assert len(binder_leaves) == 6
    assert len({id(v) for v in binder_leaves}) == 1
    fresh = unshared(t)
    assert t == fresh and hash(t) == hash(fresh)
    assert t.node_count == fresh.node_count


@pytest.mark.parametrize("backend", list(BACKENDS.values()))
def test_readback_shares_one_var_per_name(backend):
    # The numeral six: \z0. \z1. z0 (z0 ... z1), six leaves of z0.
    _check_one_leaf_per_binder(normalize_by_evaluation(church_add(6), backend=backend))


def test_closure_readback_shares_one_var_per_name():
    _check_one_leaf_per_binder(db_normalize_by_evaluation(church_add(6)))


def test_printing_shares_one_var_per_binder():
    _check_one_leaf_per_binder(print_ordered(parse_closed(church(6)), []))


@pytest.mark.parametrize(
    "printed",
    [
        lambda: print_value(db_whnf(church(6))),
        lambda: from_debruijn(to_debruijn(church(6))),
        lambda: normalize_hsub(church_add(6)),
    ],
    ids=["closure-whnf", "from-debruijn", "eager"],
)
def test_de_bruijn_printing_shares_one_var_per_binder(printed):
    # The closure machine's values and de Bruijn terms print through the
    # ordered printer's loop, with one Var per binder.
    _check_one_leaf_per_binder(printed())


def test_translation_shares_one_free_per_name():
    t = to_ordered(big_spine(9)).term
    frees = [u for u in subterms(t) if type(u) is Free and u.name == "a"]
    assert len(frees) == 9 and len({id(u) for u in frees}) == 1
    fresh = Free("c")
    for _ in range(9):
        fresh = OApp(fresh, 0, Free("a"))
    assert t == fresh and hash(t) == hash(fresh)
