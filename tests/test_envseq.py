import math
import random
from types import SimpleNamespace

import pytest

from ordlam import envseq
from ordlam.envseq import BACKENDS, ListEnv, TreeEnv, tree_is_balanced
from ordlam.errors import InvariantError


@pytest.fixture(params=["list", "tree"], ids=["list", "tree"])
def backend(request):
    return BACKENDS[request.param]


class TestBasics:
    def test_empty(self, backend):
        assert backend.empty().to_list() == []
        assert len(backend.empty()) == 0

    def test_singleton(self, backend):
        env = backend.singleton("v")
        assert len(env) == 1
        assert env.to_list() == ["v"]

    def test_from_values(self, backend):
        vals = list(range(17))
        assert backend.from_values(vals).to_list() == vals


class TestSplitAt:
    def test_worked_example(self, backend):
        env = backend.from_values(["g", "n", "f", "n"])
        first, second = env.split_at(2)
        assert first.to_list() == ["g", "n"]
        assert second.to_list() == ["f", "n"]

    def test_zero_prefix(self, backend):
        env = backend.from_values([1, 2, 3])
        first, second = env.split_at(0)
        assert first.to_list() == []
        assert second.to_list() == [1, 2, 3]

    def test_full_prefix(self, backend):
        env = backend.from_values(["a", "b", "c"])
        first, second = env.split_at(3)
        assert first.to_list() == ["a", "b", "c"]
        assert second.to_list() == []

    def test_out_of_range(self, backend):
        env = backend.from_values([1, 2])
        with pytest.raises(InvariantError):
            env.split_at(3)
        with pytest.raises(InvariantError):
            env.split_at(-1)

    def test_split_then_concat_identity(self, backend):
        vals = list(range(23))
        env = backend.from_values(vals)
        for k in range(len(vals) + 1):
            first, second = env.split_at(k)
            assert first.to_list() + second.to_list() == vals

    def test_elements_shared_not_copied(self, backend):
        marker = ["mutable marker"]
        env = backend.from_values([marker, marker])
        first, _ = env.split_at(1)
        assert first.to_list()[0] is marker


class TestMultiInsert:
    def test_worked_example(self, backend):
        env = backend.from_values(["g", "f"])
        assert env.multi_insert((1, 1), "n").to_list() == ["g", "n", "f", "n"]

    def test_insert_into_empty(self, backend):
        assert backend.empty().multi_insert((0,), "w").to_list() == ["w"]

    def test_insert_at_both_ends(self, backend):
        env = backend.from_values(["v1", "v2", "v3"])
        assert env.multi_insert((0, 3), "w").to_list() == [
            "w",
            "v1",
            "v2",
            "v3",
            "w",
        ]

    def test_empty_kvec_returns_input(self, backend):
        env = backend.from_values([1, 2])
        assert env.multi_insert((), "w") is env

    def test_length_law(self, backend):
        env = backend.from_values(list(range(10)))
        for kvec in [(0,), (10,), (2, 3, 5), (0, 0, 0, 0)]:
            assert len(env.multi_insert(kvec, "w")) == 10 + len(kvec)

    def test_overcommitted_positions(self, backend):
        env = backend.from_values([1, 2])
        with pytest.raises(InvariantError):
            env.multi_insert((3,), "w")

    def test_inserted_value_shared(self, backend):
        marker = ["shared"]
        result = backend.from_values([1, 2]).multi_insert((0, 2), marker)
        out = result.to_list()
        assert out[0] is marker and out[3] is marker


def _random_kvec(rng, length):
    n = rng.randint(0, 3)
    kvec = []
    remaining = length
    for _ in range(n):
        k = rng.randint(0, remaining)
        kvec.append(k)
        remaining -= k
    return tuple(kvec)


class TestBackendAgreement:
    def test_random_programs(self):
        rng = random.Random(1234)
        for _ in range(60):
            model = list(range(rng.randint(0, 12)))
            lst = ListEnv.from_values(model)
            tree = TreeEnv.from_values(model)
            history = [(model[:], lst, tree)]
            for _ in range(40):
                if rng.random() < 0.5 and model:
                    k = rng.randint(0, len(model))
                    keep_first = rng.random() < 0.5
                    lst = lst.split_at(k)[0 if keep_first else 1]
                    tree = tree.split_at(k)[0 if keep_first else 1]
                    model = model[:k] if keep_first else model[k:]
                else:
                    kvec = _random_kvec(rng, len(model))
                    w = rng.randint(100, 999)
                    lst = lst.multi_insert(kvec, w)
                    tree = tree.multi_insert(kvec, w)
                    expected = []
                    rest = model[:]
                    for gap in kvec:
                        expected.extend(rest[:gap])
                        expected.append(w)
                        rest = rest[gap:]
                    model = expected + rest
                assert lst.to_list() == model
                assert tree.to_list() == model
                assert len(lst) == len(tree) == len(model)
                assert tree_is_balanced(tree)
                history.append((model[:], lst, tree))
            # Persistence: every earlier version still reads back unchanged.
            for snapshot, lst_old, tree_old in history:
                assert lst_old.to_list() == snapshot
                assert tree_old.to_list() == snapshot


class TestTreeBalanceStress:
    def test_repeated_end_insertion_stays_balanced(self):
        # The classic worst case for naive rebalancing schemes.
        env = TreeEnv.empty()
        for i in range(2000):
            env = env.multi_insert((len(env),), i)
        assert tree_is_balanced(env)
        for i in range(2000):
            env = env.multi_insert((0,), -i)
        assert tree_is_balanced(env)
        first, rest = env.split_at(1)
        assert tree_is_balanced(first) and tree_is_balanced(rest)

    def test_large_random_split_insert_cycles(self):
        rng = random.Random(99)
        env = TreeEnv.from_values(range(4096))
        model = list(range(4096))
        for _ in range(300):
            if rng.random() < 0.5 and len(model) > 1:
                k = rng.randint(0, len(model))
                side = rng.random() < 0.5
                env = env.split_at(k)[0 if side else 1]
                model = model[:k] if side else model[k:]
            else:
                kvec = _random_kvec(rng, len(model))
                env = env.multi_insert(kvec, -1)
                rebuilt = []
                rest = model
                for gap in kvec:
                    rebuilt.extend(rest[:gap])
                    rebuilt.append(-1)
                    rest = rest[gap:]
                model = rebuilt + rest
            assert tree_is_balanced(env)
            assert len(env) == len(model)
        assert env.to_list() == model


@pytest.fixture
def cells(monkeypatch):
    """Counts the list and tree cells built while the test runs."""
    counter = SimpleNamespace(built=0)

    def counting(cell_class):
        class Counted(cell_class):
            __slots__ = ()

            def __init__(self, *args):
                counter.built += 1
                super().__init__(*args)

        return Counted

    monkeypatch.setattr(envseq, "_Cons", counting(envseq._Cons))
    monkeypatch.setattr(envseq, "_Node", counting(envseq._Node))
    return counter


class TestAllocationCosts:
    def _split_allocs(self, cells, backend, size):
        env = backend.from_values(range(size))
        cells.built = 0
        env.split_at(size // 2)
        return cells.built

    def _insert_allocs(self, cells, backend, size, kvec):
        env = backend.from_values(range(size))
        cells.built = 0
        env.multi_insert(kvec, "w")
        return cells.built

    def test_list_split_linear(self, cells):
        a1 = self._split_allocs(cells, ListEnv, 1024)
        a2 = self._split_allocs(cells, ListEnv, 4096)
        assert a1 == 512  # exactly the rebuilt prefix
        assert a2 == 2048

    def test_tree_split_logarithmic(self, cells):
        for size in (1024, 4096, 16384):
            allocs = self._split_allocs(cells, TreeEnv, size)
            assert allocs <= 8 * math.log2(size) + 8

    def test_tree_insert_logarithmic_per_position(self, cells):
        for size in (1024, 4096, 16384):
            for kvec in [(size // 2,), (size // 4, size // 4), (0, 1, 2, 3)]:
                allocs = self._insert_allocs(cells, TreeEnv, size, kvec)
                bound = (1 + len(kvec)) * (10 * math.log2(size) + 10)
                assert allocs <= bound

    def test_list_insert_linear(self, cells):
        allocs = self._insert_allocs(cells, ListEnv, 1024, (512,))
        assert allocs == 513  # rebuilt prefix plus the inserted cell
