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


def _fingers(env):
    """A tree-backend sequence's left and right finger lengths; a tuple
    has no fingers."""
    return (0, 0) if type(env) is tuple else (env._flen, env._rlen)


class TestBasics:
    def test_empty(self, backend):
        assert list(backend.empty()) == []
        assert len(backend.empty()) == 0

    def test_singleton(self, backend):
        env = backend.singleton("v")
        assert len(env) == 1
        assert list(env) == ["v"]

    def test_from_values(self, backend):
        vals = list(range(17))
        assert list(backend.from_values(vals)) == vals


class TestSplitAt:
    def test_worked_example(self, backend):
        env = backend.from_values(["g", "n", "f", "n"])
        first, second = backend.split_at(env, 2)
        assert list(first) == ["g", "n"]
        assert list(second) == ["f", "n"]

    def test_zero_prefix(self, backend):
        env = backend.from_values([1, 2, 3])
        first, second = backend.split_at(env, 0)
        assert list(first) == []
        assert list(second) == [1, 2, 3]

    def test_full_prefix(self, backend):
        env = backend.from_values(["a", "b", "c"])
        first, second = backend.split_at(env, 3)
        assert list(first) == ["a", "b", "c"]
        assert list(second) == []

    def test_out_of_range(self, backend):
        env = backend.from_values([1, 2])
        with pytest.raises(InvariantError):
            backend.split_at(env, 3)
        with pytest.raises(InvariantError):
            backend.split_at(env, -1)

    def test_split_then_concat_identity(self, backend):
        vals = list(range(23))
        env = backend.from_values(vals)
        for k in range(len(vals) + 1):
            first, second = backend.split_at(env, k)
            assert list(first) + list(second) == vals

    def test_elements_shared_not_copied(self, backend):
        marker = ["mutable marker"]
        env = backend.from_values([marker, marker])
        first, _ = backend.split_at(env, 1)
        assert list(first)[0] is marker


class TestMultiInsert:
    def test_worked_example(self, backend):
        env = backend.from_values(["g", "f"])
        assert list(backend.multi_insert(env, (1, 1), "n")) == ["g", "n", "f", "n"]

    def test_insert_into_empty(self, backend):
        assert list(backend.multi_insert(backend.empty(), (0,), "w")) == ["w"]

    def test_insert_at_both_ends(self, backend):
        env = backend.from_values(["v1", "v2", "v3"])
        assert list(backend.multi_insert(env, (0, 3), "w")) == [
            "w",
            "v1",
            "v2",
            "v3",
            "w",
        ]

    def test_empty_kvec_returns_input(self, backend):
        env = backend.from_values([1, 2])
        assert backend.multi_insert(env, (), "w") is env

    def test_length_law(self, backend):
        env = backend.from_values(list(range(10)))
        for kvec in [(0,), (10,), (2, 3, 5), (0, 0, 0, 0)]:
            assert len(backend.multi_insert(env, kvec, "w")) == 10 + len(kvec)

    def test_overcommitted_positions(self, backend):
        env = backend.from_values([1, 2])
        with pytest.raises(InvariantError):
            backend.multi_insert(env, (3,), "w")

    def test_inserted_value_shared(self, backend):
        marker = ["shared"]
        result = backend.multi_insert(backend.from_values([1, 2]), (0, 2), marker)
        out = list(result)
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
                lst = ListEnv.split_at(lst, k)[kept]
                parts = TreeEnv.split_at(tree, k)
                tree = parts[kept]
                dropped = parts[1 - kept]
                assert list(dropped) == (model[k:] if keep_first else model[:k])
                assert tree_is_balanced(dropped)
                model = model[:k] if keep_first else model[k:]
            else:
                kvec = draw_kvec(rng, len(model), _fingers(tree)[0])
                w = rng.randint(100, 999)
                lst = ListEnv.multi_insert(lst, kvec, w)
                tree = TreeEnv.multi_insert(tree, kvec, w)
                expected = []
                rest = model[:]
                for gap in kvec:
                    expected.extend(rest[:gap])
                    expected.append(w)
                    rest = rest[gap:]
                model = expected + rest
            assert list(lst) == model
            assert list(tree) == model
            assert len(lst) == len(tree) == len(model)
            assert tree_is_balanced(tree)
            flen, rlen = _fingers(tree)
            seen.with_finger += flen > 0
            seen.with_rfinger += rlen > 0
            seen.with_both += flen > 0 and rlen > 0
            seen.up += before < _FLAT <= len(model)
            seen.down += len(model) < _FLAT <= before
            history.append((model[:], lst, tree))
        # Persistence: every earlier version still reads back unchanged.
        for snapshot, lst_old, tree_old in history:
            assert list(lst_old) == snapshot
            assert list(tree_old) == snapshot
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
        _, env = TreeEnv.split_at(env, 1)  # refills the left finger
        env, _ = TreeEnv.split_at(env, size)  # refills the right finger
        values = list(range(1, size + 1))
        assert list(env) == values and env._flen and env._rlen
        near_ends = set(range(min(size, 40))) | set(range(max(size - 40, 0), size + 1))
        for k in sorted(near_ends | {size // 2}):
            first, rest = TreeEnv.split_at(env, k)
            assert list(first) == values[:k] and list(rest) == values[k:]
            assert tree_is_balanced(first) and tree_is_balanced(rest)

    @pytest.mark.parametrize("size", (0, 1, 2, 3, 7, 100))
    @pytest.mark.parametrize("copies", (1, 2, 5, 300))
    def test_copies_at_one_position_stay_balanced(self, size, copies):
        model = list(range(size))
        for pos in sorted({0, size // 2, size}):
            kvec = (pos,) + (0,) * (copies - 1)
            tree = TreeEnv.multi_insert(TreeEnv.from_values(model), kvec, "w")
            assert list(tree) == model[:pos] + ["w"] * copies + model[pos:]
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
                first, rest = TreeEnv.split_at(env, k)
                env = first if 2 * k >= len(env) else rest
                made["split_at"] += 1
            else:
                flen = _fingers(env)[0]
                kvec = rng.choice((_finger_kvec, _few_kvec))(rng, len(env), flen)
                env = TreeEnv.multi_insert(env, kvec, "w")
                made["multi_insert"] += 1
            flen, rlen = _fingers(env)
            seen.finger += flen > 0
            seen.rfinger += rlen > 0
            seen.flat += type(env) is tuple
        assert calls == made
        assert seen.finger > 100 and seen.rfinger > 100 and seen.flat > 100


class TestTreeBalanceStress:
    def test_repeated_end_insertion_stays_balanced(self):
        # The classic worst case for naive rebalancing schemes.
        env = TreeEnv.empty()
        for i in range(2000):
            env = TreeEnv.multi_insert(env, (len(env),), i)
        assert tree_is_balanced(env)
        for i in range(2000):
            env = TreeEnv.multi_insert(env, (0,), -i)
        assert tree_is_balanced(env)
        first, rest = TreeEnv.split_at(env, 1)
        assert tree_is_balanced(first) and tree_is_balanced(rest)

    def test_large_random_split_insert_cycles(self):
        rng = random.Random(99)
        env = TreeEnv.from_values(range(4096))
        model = list(range(4096))
        for _ in range(300):
            if rng.random() < 0.5 and len(model) > 1:
                k = rng.randint(0, len(model))
                side = rng.random() < 0.5
                env = TreeEnv.split_at(env, k)[0 if side else 1]
                model = model[:k] if side else model[k:]
            else:
                kvec = _random_kvec(rng, len(model), 0)
                env = TreeEnv.multi_insert(env, kvec, -1)
                rebuilt = []
                rest = model
                for gap in kvec:
                    rebuilt.extend(rest[:gap])
                    rebuilt.append(-1)
                    rest = rest[gap:]
                model = rebuilt + rest
            assert tree_is_balanced(env)
            assert len(env) == len(model)
        assert list(env) == model


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
        backend.split_at(env, size // 2)
        return cells.built

    def _insert_allocs(self, cells, backend, size, kvec):
        env = backend.from_values(range(size))
        cells.built = 0
        backend.multi_insert(env, kvec, "w")
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
            first, env = TreeEnv.split_at(env, 1)
            assert first == (i,)
        assert env == (size - 1,)
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
            env, last = TreeEnv.split_at(env, i)
            assert last == (i,)
        assert env == (0,)
        assert cells.built <= 4 * size

    @pytest.mark.parametrize("size", range(1, 8))
    def test_tiny_tree_never_takes_a_finger(self, size):
        env = TreeEnv.from_values(range(size))
        for k in range(size + 1):
            for part in TreeEnv.split_at(env, k):
                assert _fingers(part) == (0, 0)
                kvec = (0, 1)[: len(part) + 1]
                assert _fingers(TreeEnv.multi_insert(part, kvec, "w")) == (0, 0)

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
        _, env = TreeEnv.split_at(env, 1)  # refills the left finger
        env, _ = TreeEnv.split_at(env, len(env) - 1)  # refills the right finger
        assert env._flen and env._rlen
        n = len(env)
        for kvec in [(n // 2,), (n // 4, n // 4), (0, 1, 2, 3), (n,)]:
            cells.built = 0
            result = TreeEnv.multi_insert(env, kvec, "w")
            assert cells.built <= (1 + len(kvec)) * (10 * math.log2(size) + 10)
            assert len(result) == n + len(kvec) and tree_is_balanced(result)

    @pytest.mark.parametrize("copies", (1, 2, 3, 10, 100, 900))
    def test_tree_copies_into_empty_one_cell_each(self, cells, copies):
        # n flat values plus m front copies build n + m cells, whether the
        # result stays a tuple or reaches _FLAT and becomes a tree.
        for size in range(_FLAT):
            env = TreeEnv.from_values(range(size))
            cells.built = 0
            result = TreeEnv.multi_insert(env, (0,) * copies, "w")
            assert cells.built == size + copies
            assert list(result) == ["w"] * copies + list(range(size))
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
        first, rest = TreeEnv.split_at(env, k)
        assert counter.built == 11 - k
        assert list(first) + list(rest) == list(range(4096))
        assert tree_is_balanced(first) and tree_is_balanced(rest)

    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_tree_right_refill_chains_only_the_new_finger(self, monkeypatch, k):
        # The mirror image: a run of 11 moves onto an empty right finger.
        # The rest is a flat copy of the run's last k values, so only the
        # other 11 - k become cons cells.
        counter = self._counting_cons(monkeypatch)
        env = TreeEnv.from_values(range(4096))
        first, rest = TreeEnv.split_at(env, 4096 - k)
        assert counter.built == 11 - k
        assert first._rlen == 11 - k
        assert list(first) + list(rest) == list(range(4096))
        assert tree_is_balanced(first) and tree_is_balanced(rest)


class TestTreeShapeCheck:
    def test_finger_cells_must_match_stored_length(self):
        node = envseq._build(list("bcdefgh"), 0, 7)
        good = TreeEnv(envseq._Cons("a", None), 1, node, 8)
        assert tree_is_balanced(good) and list(good) == list("abcdefgh")
        assert not tree_is_balanced(TreeEnv(envseq._Cons("a", None), 2, node, 9))
        assert not tree_is_balanced(TreeEnv(envseq._Cons("a", None), 1, node, 9))

    def test_right_finger_cells_must_match_stored_length(self):
        node = envseq._build(list("abcdefg"), 0, 7)
        good = TreeEnv(None, 0, node, 8, envseq._Cons("h", None), 1)
        assert tree_is_balanced(good) and list(good) == list("abcdefgh")
        for bad in (
            TreeEnv(None, 0, node, 9, envseq._Cons("h", None), 2),
            TreeEnv(None, 0, node, 9, envseq._Cons("h", None), 1),
            TreeEnv(None, 0, node, 8, envseq._Cons("h", None), 2),
            TreeEnv(None, 0, None, 1, envseq._Cons("h", None), 1),  # short
        ):
            assert not tree_is_balanced(bad)

    def test_flat_state_must_be_a_short_tuple_alone(self):
        assert tree_is_balanced(("a", "b"))
        assert tree_is_balanced(())
        leaf = envseq._node(None, "b", None)
        for bad in (
            ["a", "b"],  # not a tuple
            tuple("abcdefgh"),  # at the bound
            TreeEnv(None, 0, None, 0),  # an empty object
            TreeEnv(envseq._Cons("a", None), 1, leaf, 2),  # short, not a tuple
            TreeEnv(None, 0, envseq._build(list("abcdefg"), 0, 7), 7),
        ):
            assert not tree_is_balanced(bad)

    def test_deep_unbalanced_tree_is_rejected_without_recursion(self):
        node = None
        for i in range(100_000):
            node = envseq._node(node, i, None)
        assert not tree_is_balanced(TreeEnv(None, 0, node, 100_000))


class TestFlatState:
    def test_bound_is_where_a_refill_first_takes_two(self):
        assert envseq._run_length(_FLAT - 1) <= 1 < envseq._run_length(_FLAT)

    @staticmethod
    def _check_state(env):
        assert (type(env) is tuple) == (len(env) < _FLAT)
        assert tree_is_balanced(env)

    @pytest.mark.parametrize("size", range(0, 25))
    def test_every_result_under_the_bound_is_flat(self, size):
        values = list(range(size))
        env = TreeEnv.from_values(values)
        self._check_state(env)
        self._check_state(TreeEnv.singleton("v"))
        self._check_state(TreeEnv.empty())
        for k in range(size + 1):
            first, rest = TreeEnv.split_at(env, k)
            self._check_state(first)
            self._check_state(rest)
            assert list(first) + list(rest) == values
        for kvec in [(0,), (size,), (0,) * 9, (1,) * min(size, 9), (size // 2, 0)]:
            result = TreeEnv.multi_insert(env, kvec, "w")
            self._check_state(result)
            assert len(result) == size + len(kvec)

    def test_flat_operations_build_only_their_slots(self, cells):
        env = TreeEnv.from_values(range(6))
        cells.built = 0
        first, rest = TreeEnv.split_at(env, 2)
        assert list(first) == [0, 1] and list(rest) == [2, 3, 4, 5]
        assert cells.built == 6  # the two slices, no _Cons or _Node
        cells.built = 0
        assert list(TreeEnv.multi_insert(rest, (0, 4), "w")) == ["w", 2, 3, 4, 5, "w"]
        assert cells.built == 6


class TestTreeSharing:
    def test_unreached_subtrees_are_shared(self):
        env = TreeEnv.from_values(range(1000))
        root = env._node
        # Every position falls in the root's left half: the right subtree
        # comes through as the same object.
        assert root.left.size > 5
        result = TreeEnv.multi_insert(env, (3, 1, 0, 1), "w")
        assert list(result)[:9] == [0, 1, 2, "w", 3, "w", "w", 4, "w"]
        assert result._node.right is root.right

    def test_split_inside_the_right_finger_shares_the_rest(self):
        env = TreeEnv.from_values(range(1000))
        _, env = TreeEnv.split_at(env, 1)  # refills the left finger
        env, _ = TreeEnv.split_at(env, len(env) - 1)  # refills the right finger
        assert env._flen > 0 and env._rlen >= 3
        first, rest = TreeEnv.split_at(env, len(env) - 2)
        assert list(rest) == [997, 998]
        assert list(first) == list(range(1, 997))
        assert first._finger is env._finger
        assert first._node is env._node
        assert first._rfinger is env._rfinger.tail.tail
        assert tree_is_balanced(first) and tree_is_balanced(rest)

    def test_front_split_of_a_right_finger_alone(self):
        env = TreeEnv.from_values(range(4096))
        env, _ = TreeEnv.split_at(env, 4095)  # refills the right finger with 11
        _, rest = TreeEnv.split_at(env, 4095 - 9)
        # rest is nine values held by a right finger alone.
        assert rest._flen == 0 and rest._node is None and rest._rlen == 9
        first, second = TreeEnv.split_at(rest, 1)
        assert list(first) == [4086]
        assert list(second) == list(range(4087, 4095))
        assert tree_is_balanced(first) and tree_is_balanced(second)
