import pytest

from ordlam.gen import gen_terms
from ordlam.named import FuelExhausted, NamedTerm, Var, normalize


def test_size_bound_of_one_yields_a_variable():
    (term,) = gen_terms(42, 1, 1, 0)
    assert isinstance(term, Var)


def test_same_seed_same_terms():
    assert gen_terms(7, 200, 40, 0.5) == gen_terms(7, 200, 40, 0.5)


def test_different_seeds_differ():
    assert gen_terms(1, 50, 40, 0.0) != gen_terms(2, 50, 40, 0.0)


def test_sizes_respected():
    for term in gen_terms(11, 500, 30, 0.5):
        assert isinstance(term, NamedTerm)
        assert term.node_count <= 30


def test_at_least_half_converge_with_bias_half():
    terms = gen_terms(7, 1000, 50, 0.5)
    converged = sum(
        1
        for t in terms
        if not isinstance(normalize(t, fuel=100_000), FuelExhausted)
    )
    assert converged >= 500


def test_typed_terms_all_normalize():
    for t in gen_terms(3, 200, 40, 1.0):
        assert not isinstance(normalize(t, fuel=100_000), FuelExhausted)


def test_count_must_be_positive():
    with pytest.raises(ValueError):
        gen_terms(1, 0, 10)
