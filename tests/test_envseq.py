import math
import random
from types import SimpleNamespace

import pytest

from ordlam import envseq
from ordlam.envseq import _FLAT, BACKENDS, ListEnv, TreeEnv, tree_is_balanced
from ordlam.errors import InvariantError


@pytest.fixture(params=list(BACKENDS))
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


def _random_kvec(rng, length, _flen):
    n = rng.randint(0, 3)
    kvec = []
    remaining = length
    for _ in range(n):
        k = rng.randint(0, remaining)
        kvec.append(k)
        remaining -= k
    return tuple(kvec)


def _long_kvec(rng, length, _flen):
    """Dozens of positions: runs of gap 0 and gap 1 and random gaps, with
    positions at both ends of the sequence."""
    kvec = [0] * rng.randint(0, 3)
    remaining = length
    for _ in range(rng.randint(12, 60)):
        shape = rng.random()
        if shape < 0.3:
            gap = 0
        elif shape < 0.7:
            gap = min(1, remaining)
        else:
            gap = rng.randint(0, min(remaining, 5))
        kvec.append(gap)
        remaining -= gap
    if rng.random() < 0.5:
        kvec.extend([remaining] + [0] * rng.randint(0, 3))
    return tuple(kvec)


def _finger_kvec(rng, length, flen):
    """Positions that end inside the tree's finger, exactly on its end, or
    past it (so some positions fall inside the finger and some in the tree)."""
    shape = rng.randrange(3)
    if shape == 0:
        end = rng.randint(0, max(flen - 1, 0))
    elif shape == 1:
        end = flen
    else:
        end = rng.randint(flen, length)
    positions = sorted(rng.randint(0, end) for _ in range(rng.randint(0, 6)))
    positions.append(end)
    return tuple(b - a for a, b in zip([0] + positions, positions))


def _few_kvec(rng, length, _flen):
    """Up to five positions anywhere, keeping the result at most 24 long."""
    positions = sorted(rng.randint(0, length) for _ in range(rng.randint(0, 5)))
    positions = positions[: max(0, 24 - length)]
    return tuple(b - a for a, b in zip([0] + positions, positions))


def _uniform_k(rng, length):
    return rng.randint(0, length)


def _short_k(rng, length):
    """Mostly the short prefixes evaluation takes, now and then any."""
    if rng.random() < 0.1:
        return rng.randint(0, length)
    return min(rng.choice((0, 1, 1, 1, 2, 3)), length)


def _end_k(rng, length):
    """Mostly the splits a spine makes, one to three elements before the
    end, now and then any."""
    if rng.random() < 0.1:
        return rng.randint(0, length)
    return max(length - rng.choice((1, 1, 1, 2, 3)), 0)


def _either_end_k(rng, length):
    return (_short_k if rng.random() < 0.5 else _end_k)(rng, length)


def _check_agreement(
    rng, max_len, programs, steps, draw_kvec, draw_k=_uniform_k, keep_first_share=0.5
):
    """Run random split/insert programs on both backends against a list
    model; the tree stays balanced and every version persists. A split
    keeps its first part with probability keep_first_share, or, when
    that is None, its longer part; the other part is checked too. Returns
    how many tree versions had a non-empty left finger, right finger and
    both, and how many steps took the length across _FLAT upwards and
    downwards."""
    seen = SimpleNamespace(with_finger=0, with_rfinger=0, with_both=0, up=0, down=0)
    for _ in range(programs):
        model = list(range(rng.randint(0, max_len)))
        lst = ListEnv.from_values(model)
        tree = TreeEnv.from_values(model)
        history = [(model[:], lst, tree)]
        for _ in range(steps):
            before = len(model)
            if rng.random() < 0.5 and model:
                k = draw_k(rng, len(model))
                if keep_first_share is None:
                    keep_first = 2 * k >= len(model)
                else:
                    keep_first = rng.random() < keep_first_share
                kept = 0 if keep_first else 1
                lst = lst.split_at(k)[kept]
                parts = tree.split_at(k)
                tree = parts[kept]
                dropped = parts[1 - kept]
                assert dropped.to_list() == (model[k:] if keep_first else model[:k])
                assert tree_is_balanced(dropped)
                model = model[:k] if keep_first else model[k:]
            else:
                kvec = draw_kvec(rng, len(model), tree._flen)
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
            seen.with_finger += tree._flen > 0
            seen.with_rfinger += tree._rlen > 0
            seen.with_both += tree._flen > 0 and tree._rlen > 0
            seen.up += before < _FLAT <= len(model)
            seen.down += len(model) < _FLAT <= before
            history.append((model[:], lst, tree))
        # Persistence: every earlier version still reads back unchanged.
        for snapshot, lst_old, tree_old in history:
            assert lst_old.to_list() == snapshot
            assert tree_old.to_list() == snapshot
            assert tree_is_balanced(tree_old)
    return seen


class TestBackendAgreement:
    def test_random_programs(self):
        _check_agreement(random.Random(1234), 12, 60, 40, _random_kvec)

    def test_random_programs_with_long_kvecs(self):
        _check_agreement(random.Random(4321), 80, 40, 16, _long_kvec)

    def test_short_splits_and_inserts_at_the_finger(self):
        # Short splits that keep the rest refill the tree's finger; the
        # inserts then fold it into the tree, with positions inside it,
        # across its end and exactly on it.
        seen = _check_agreement(
            random.Random(2468), 300, 70, 60, _finger_kvec, _short_k, 0.2
        )
        assert seen.with_finger > 500

    def test_programs_across_the_flat_bound(self):
        # Lengths 0-24: short splits and inserts of up to five positions
        # take sequences between the flat state and the tree, both ways.
        seen = _check_agreement(random.Random(8642), 24, 100, 30, _few_kvec, _short_k)
        assert seen.up > 150 and seen.down > 150
        assert seen.with_finger > 100

    def test_end_splits_across_the_flat_bound(self):
        # Splits one to three elements before the end that keep the first
        # part form right fingers on sequences crossing the flat bound.
        seen = _check_agreement(
            random.Random(9753), 24, 80, 30, _few_kvec, _end_k, 0.8
        )
        assert seen.up > 150 and seen.down > 150
        assert seen.with_rfinger > 100

    def test_splits_at_both_ends_with_inserts_at_the_finger(self):
        # Both fingers at once: inserts fold both into the tree, with
        # positions in, on and past the left one.
        seen = _check_agreement(
            random.Random(3579), 300, 50, 60, _finger_kvec, _either_end_k, None
        )
        assert seen.with_finger > 300 and seen.with_rfinger > 300
        assert seen.with_both > 100

    @pytest.mark.parametrize("size", (8, 9, 16, 24, 40, 100, 5000))
    def test_splits_near_the_ends_of_a_sequence_with_both_fingers(self, size):
        # At 5000 each finger holds ten elements, past the flat bound.
        env = TreeEnv.from_values(range(size + 2))
        _, env = env.split_at(1)  # refills the left finger
        env, _ = env.split_at(size)  # refills the right finger
        values = list(range(1, size + 1))
        assert env.to_list() == values and env._flen and env._rlen
        near_ends = set(range(min(size, 40))) | set(range(max(size - 40, 0), size + 1))
        for k in sorted(near_ends | {size // 2}):
            first, rest = env.split_at(k)
            assert first.to_list() == values[:k] and rest.to_list() == values[k:]
            assert tree_is_balanced(first) and tree_is_balanced(rest)

    @pytest.mark.parametrize("size", (0, 1, 2, 3, 7, 100))
    @pytest.mark.parametrize("copies", (1, 2, 5, 300))
    def test_copies_at_one_position_stay_balanced(self, size, copies):
        model = list(range(size))
        for pos in sorted({0, size // 2, size}):
            kvec = (pos,) + (0,) * (copies - 1)
            tree = TreeEnv.from_values(model).multi_insert(kvec, "w")
            assert tree.to_list() == model[:pos] + ["w"] * copies + model[pos:]
            assert tree_is_balanced(tree)


class TestPublicCalls:
    def test_operations_never_call_public_methods(self, monkeypatch):
        # perfbench's tracer wraps TreeEnv.split_at and multi_insert and
        # counts every call; the counts are the caller's only if neither
        # operation reaches a public one through the class.
        calls = {"split_at": 0, "multi_insert": 0}
        made = dict(calls)

        def counting(name):
            operation = getattr(TreeEnv, name)

            def counted(self, *args):
                calls[name] += 1
                return operation(self, *args)

            return counted

        for name in calls:
            monkeypatch.setattr(TreeEnv, name, counting(name))
        rng = random.Random(1357)
        env = TreeEnv.from_values(range(200))
        seen = SimpleNamespace(finger=0, rfinger=0, flat=0)
        for _ in range(3000):
            if rng.random() < 0.6 and len(env):
                k = rng.choice((_short_k, _end_k, _uniform_k))(rng, len(env))
                first, rest = env.split_at(k)
                env = first if 2 * k >= len(env) else rest
                made["split_at"] += 1
            else:
                kvec = rng.choice((_finger_kvec, _few_kvec))(rng, len(env), env._flen)
                env = env.multi_insert(kvec, "w")
                made["multi_insert"] += 1
            seen.finger += env._flen > 0
            seen.rfinger += env._rlen > 0
            seen.flat += env._flat is not None
        assert calls == made
        assert seen.finger > 100 and seen.rfinger > 100 and seen.flat > 100


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
                kvec = _random_kvec(rng, len(model), 0)
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


class TestAllocationCosts:
    def _counting_cons(self, monkeypatch):
        """Count the cons cells built from here on; nothing else."""
        counter = SimpleNamespace(built=0)

        class Counted(envseq._Cons):
            __slots__ = ()

            def __init__(self, head, tail):
                counter.built += 1
                super().__init__(head, tail)

        monkeypatch.setattr(envseq, "_Cons", Counted)
        return counter

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

    @pytest.mark.parametrize("size", (1024, 4096, 16384))
    def test_tree_successive_short_splits_constant_amortized(self, cells, size):
        # Evaluation peels one element at a time off the front of a long
        # environment; the finger makes each peel O(1) cells amortized.
        env = TreeEnv.from_values(range(size))
        cells.built = 0
        for i in range(size - 1):
            first, env = env.split_at(1)
            assert first.sole() == i
        assert env.sole() == size - 1
        assert cells.built <= 4 * size

    @pytest.mark.parametrize("size", (64, 256, 1024, 4096))
    def test_tree_successive_last_element_splits_constant_amortized(
        self, cells, size
    ):
        # A spine c M1 ... Mn splits its environment just before the last
        # element at each application; the right finger makes each such
        # split O(1) cells amortized.
        env = TreeEnv.from_values(range(size))
        cells.built = 0
        for i in range(size - 1, 0, -1):
            env, last = env.split_at(i)
            assert last.sole() == i
        assert env.sole() == 0
        assert cells.built <= 4 * size

    @pytest.mark.parametrize("size", range(1, 8))
    def test_tiny_tree_never_takes_a_finger(self, size):
        env = TreeEnv.from_values(range(size))
        for k in range(size + 1):
            for part in env.split_at(k):
                assert part._flen == 0
                assert part.multi_insert((0, 1)[: len(part) + 1], "w")._flen == 0

    def test_tree_insert_logarithmic_per_position(self, cells):
        for size in (1024, 4096, 16384):
            for kvec in [(size // 2,), (size // 4, size // 4), (0, 1, 2, 3)]:
                allocs = self._insert_allocs(cells, TreeEnv, size, kvec)
                bound = (1 + len(kvec)) * (10 * math.log2(size) + 10)
                assert allocs <= bound

    @pytest.mark.parametrize("size", (1024, 4096, 16384))
    def test_tree_insert_with_both_fingers_logarithmic_per_position(
        self, cells, size
    ):
        # The insert folds both fingers into the tree first.
        env = TreeEnv.from_values(range(size))
        _, env = env.split_at(1)  # refills the left finger
        env, _ = env.split_at(len(env) - 1)  # refills the right finger
        assert env._flen and env._rlen
        n = len(env)
        for kvec in [(n // 2,), (n // 4, n // 4), (0, 1, 2, 3), (n,)]:
            cells.built = 0
            result = env.multi_insert(kvec, "w")
            assert cells.built <= (1 + len(kvec)) * (10 * math.log2(size) + 10)
            assert len(result) == n + len(kvec) and tree_is_balanced(result)

    @pytest.mark.parametrize("copies", (1, 2, 3, 10, 100, 900))
    def test_tree_copies_into_empty_one_cell_each(self, cells, copies):
        # n flat values plus m front copies build n + m cells, whether the
        # result stays a tuple or reaches _FLAT and becomes a tree.
        for size in range(_FLAT):
            env = TreeEnv.from_values(range(size))
            cells.built = 0
            result = env.multi_insert((0,) * copies, "w")
            assert cells.built == size + copies
            assert result.to_list() == ["w"] * copies + list(range(size))
            assert tree_is_balanced(result)

    @pytest.mark.parametrize("size", (1, 2, 3, 10, 600, 4096))
    def test_tree_gap_one_insert_at_most_two_cells_per_element(self, cells, size):
        # Every element is rebuilt once and gets one new neighbour.
        allocs = self._insert_allocs(cells, TreeEnv, size, (1,) * size)
        assert allocs <= 2 * size

    def test_list_insert_linear(self, cells):
        allocs = self._insert_allocs(cells, ListEnv, 1024, (512,))
        assert allocs == 513  # rebuilt prefix plus the inserted cell

    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_tree_refill_chains_only_the_new_finger(self, monkeypatch, k):
        # A refill off 4096 elements moves a run of 11 onto an empty left
        # finger. The first part is a flat copy of the run's first k
        # values, so only the other 11 - k become cons cells.
        assert envseq._run_length(4096) == 11
        counter = self._counting_cons(monkeypatch)
        env = TreeEnv.from_values(range(4096))
        first, rest = env.split_at(k)
        assert counter.built == 11 - k
        assert first.to_list() + rest.to_list() == list(range(4096))
        assert tree_is_balanced(first) and tree_is_balanced(rest)

    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_tree_right_refill_chains_only_the_new_finger(self, monkeypatch, k):
        # The mirror image: a run of 11 moves onto an empty right finger.
        # The rest is a flat copy of the run's last k values, so only the
        # other 11 - k become cons cells.
        counter = self._counting_cons(monkeypatch)
        env = TreeEnv.from_values(range(4096))
        first, rest = env.split_at(4096 - k)
        assert counter.built == 11 - k
        assert first._rlen == 11 - k
        assert first.to_list() + rest.to_list() == list(range(4096))
        assert tree_is_balanced(first) and tree_is_balanced(rest)


class TestTreeShapeCheck:
    def test_finger_cells_must_match_stored_length(self):
        node = envseq._build(list("bcdefgh"), 0, 7)
        good = TreeEnv(None, envseq._Cons("a", None), 1, node, 8)
        assert tree_is_balanced(good) and good.to_list() == list("abcdefgh")
        assert not tree_is_balanced(TreeEnv(None, envseq._Cons("a", None), 2, node, 9))
        assert not tree_is_balanced(TreeEnv(None, envseq._Cons("a", None), 1, node, 9))

    def test_right_finger_cells_must_match_stored_length(self):
        node = envseq._build(list("abcdefg"), 0, 7)
        good = TreeEnv(None, None, 0, node, 8, envseq._Cons("h", None), 1)
        assert tree_is_balanced(good) and good.to_list() == list("abcdefgh")
        for bad in (
            TreeEnv(None, None, 0, node, 9, envseq._Cons("h", None), 2),
            TreeEnv(None, None, 0, node, 9, envseq._Cons("h", None), 1),
            TreeEnv(None, None, 0, node, 8, envseq._Cons("h", None), 2),
            TreeEnv(("a",), None, 0, None, 1, envseq._Cons("h", None), 1),
        ):
            assert not tree_is_balanced(bad)

    def test_flat_state_must_be_a_short_tuple_alone(self):
        assert tree_is_balanced(TreeEnv(("a", "b"), None, 0, None, 2))
        assert tree_is_balanced(TreeEnv((), None, 0, None, 0))
        leaf = envseq._node(None, "b", None)
        for bad in (
            TreeEnv(("a", "b"), None, 0, None, 3),  # stored length is wrong
            TreeEnv(["a", "b"], None, 0, None, 2),  # not a tuple
            TreeEnv(("a",), envseq._Cons("b", None), 1, None, 2),  # has a finger
            TreeEnv(("a",), None, 0, leaf, 2),  # has a tree
            TreeEnv(tuple("abcdefgh"), None, 0, None, 8),  # at the bound
            TreeEnv(None, envseq._Cons("a", None), 1, leaf, 2),  # short, not flat
        ):
            assert not tree_is_balanced(bad)

    def test_deep_unbalanced_tree_is_rejected_without_recursion(self):
        node = None
        for i in range(100_000):
            node = envseq._node(node, i, None)
        assert not tree_is_balanced(TreeEnv(None, None, 0, node, 100_000))


class TestFlatState:
    def test_bound_is_where_a_refill_first_takes_two(self):
        assert envseq._run_length(_FLAT - 1) <= 1 < envseq._run_length(_FLAT)

    @staticmethod
    def _check_state(env):
        assert (env._flat is not None) == (len(env) < _FLAT)
        assert tree_is_balanced(env)

    @pytest.mark.parametrize("size", range(0, 25))
    def test_every_result_under_the_bound_is_flat(self, size):
        values = list(range(size))
        env = TreeEnv.from_values(values)
        self._check_state(env)
        self._check_state(TreeEnv.singleton("v"))
        self._check_state(TreeEnv.empty())
        for k in range(size + 1):
            first, rest = env.split_at(k)
            self._check_state(first)
            self._check_state(rest)
            assert first.to_list() + rest.to_list() == values
        for kvec in [(0,), (size,), (0,) * 9, (1,) * min(size, 9), (size // 2, 0)]:
            result = env.multi_insert(kvec, "w")
            self._check_state(result)
            assert len(result) == size + len(kvec)

    def test_flat_operations_build_only_their_slots(self, cells):
        env = TreeEnv.from_values(range(6))
        cells.built = 0
        first, rest = env.split_at(2)
        assert first.to_list() == [0, 1] and rest.to_list() == [2, 3, 4, 5]
        assert cells.built == 6  # the two slices, no _Cons or _Node
        cells.built = 0
        assert rest.multi_insert((0, 4), "w").to_list() == ["w", 2, 3, 4, 5, "w"]
        assert cells.built == 6


class TestTreeSharing:
    def test_unreached_subtrees_are_shared(self):
        env = TreeEnv.from_values(range(1000))
        root = env._node
        # Every position falls in the root's left half: the right subtree
        # comes through as the same object.
        assert root.left.size > 5
        result = env.multi_insert((3, 1, 0, 1), "w")
        assert result.to_list()[:9] == [0, 1, 2, "w", 3, "w", "w", 4, "w"]
        assert result._node.right is root.right

    def test_split_inside_the_right_finger_shares_the_rest(self):
        env = TreeEnv.from_values(range(1000))
        _, env = env.split_at(1)  # refills the left finger
        env, _ = env.split_at(len(env) - 1)  # refills the right finger
        assert env._flen > 0 and env._rlen >= 3
        first, rest = env.split_at(len(env) - 2)
        assert rest.to_list() == [997, 998]
        assert first.to_list() == list(range(1, 997))
        assert first._finger is env._finger
        assert first._node is env._node
        assert first._rfinger is env._rfinger.tail.tail
        assert tree_is_balanced(first) and tree_is_balanced(rest)

    def test_front_split_of_a_right_finger_alone(self):
        env = TreeEnv.from_values(range(4096))
        env, _ = env.split_at(4095)  # refills the right finger with 11
        _, rest = env.split_at(4095 - 9)
        # rest is nine values held by a right finger alone.
        assert rest._flen == 0 and rest._node is None and rest._rlen == 9
        first, second = rest.split_at(1)
        assert first.to_list() == [4086]
        assert second.to_list() == list(range(4087, 4095))
        assert tree_is_balanced(first) and tree_is_balanced(second)
