import math
import random
from types import SimpleNamespace

import pytest

from ordlam import envseq
from ordlam.envseq import (
    _FLAT,
    _TREE_MIN,
    BACKENDS,
    ListEnv,
    TreeEnv,
    tree_is_balanced,
)
from ordlam.errors import InvariantError

from mutation import install


@pytest.fixture(params=list(BACKENDS))
def backend(request):
    return BACKENDS[request.param]


def _fingers(env):
    """A tree-backend sequence's left and right finger lengths; a tuple
    has no fingers."""
    return (0, 0) if type(env) is tuple else (env._flen, env._rlen)


def _tree_of(values):
    """A TreeEnv object holding values, at least _TREE_MIN of them, however
    few: the rest of a tree of at least _FLAT once a prefix is split off."""
    pad = [None] * max(_FLAT - len(values), 1)
    env = TreeEnv.split_at(TreeEnv.from_values(pad + list(values)), len(pad))[1]
    assert type(env) is TreeEnv
    return env


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

    def test_sole_needs_exactly_one_value(self):
        assert ListEnv.singleton("v").sole() == "v"
        for vals in ([], [1, 2]):
            message = rf"^sole\(\) on sequence of length {len(vals)}$"
            with pytest.raises(InvariantError, match=message):
                ListEnv.from_values(vals).sole()

    def test_list_repr(self):
        assert repr(ListEnv.from_values([1, 2])) == "ListEnv([1, 2])"


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
        # On the tree backend, 2 values are a tuple, _FLAT + 88 a TreeEnv.
        for n in (2, _FLAT + 88):
            env = backend.from_values(range(n))
            for k in (n + 1, -1):
                message = f"^split position {k} outside sequence of length {n}$"
                with pytest.raises(InvariantError, match=message):
                    backend.split_at(env, k)

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
        for n in (2, _FLAT + 88):
            env = backend.from_values(range(n))
            message = f"^insert positions need {n + 1} elements, sequence has {n}$"
            with pytest.raises(InvariantError, match=message):
                backend.multi_insert(env, (1, n), "w")

    def test_window_inside_a_buffer(self):
        # The printer inserts into a window of its buffer: the copy starts
        # at lo, stops at hi, and the positions may not reach past hi even
        # where the buffer goes on.
        buffer = list(range(_FLAT + 40))
        lo, hi = 7, _FLAT + 20
        out = envseq._gap_insert(buffer, lo, hi, (0, 2, hi - lo - 2), "w")
        assert out == ["w", 7, 8, "w"] + buffer[9:hi] + ["w"]
        with pytest.raises(InvariantError):
            envseq._gap_insert(buffer, lo, hi, (hi - lo + 1,), "w")

    def test_one_position_at_every_index(self, backend):
        # A tuple takes one position with one concatenation while the
        # result stays under _FLAT, and through _gap_insert from there; a
        # position past the end is refused either way.
        for n in (0, 1, 5, _FLAT - 2, _FLAT - 1):
            values = list(range(n))
            env = backend.from_values(values)
            for k in range(n + 1):
                out = backend.multi_insert(env, (k,), "w")
                assert list(out) == values[:k] + ["w"] + values[k:]
            message = f"^insert positions need {n + 1} elements, sequence has {n}$"
            with pytest.raises(InvariantError, match=message):
                backend.multi_insert(env, (n + 1,), "w")

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
    """Up to five positions anywhere, keeping the result at most 4 past
    the flat bound."""
    positions = sorted(rng.randint(0, length) for _ in range(rng.randint(0, 5)))
    positions = positions[: max(0, _FLAT + 4 - length)]
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
    rng,
    lengths,
    programs,
    steps,
    draw_kvec,
    draw_k=_uniform_k,
    keep_first_share=0.5,
    start=TreeEnv.from_values,
):
    """Run random split/insert programs on both backends against a list
    model, each from a length drawn from the lengths range (inclusive),
    the tree backend's sequence made by start; the tree stays balanced
    and every version persists. A split keeps its first part with
    probability keep_first_share, or, when that is None, its longer part;
    the other part is checked too. Returns how many tree versions were
    TreeEnv objects and had a non-empty left finger, right finger and
    both, how many steps took the length across _FLAT upwards and
    downwards, and how many turned a TreeEnv object into a tuple."""
    seen = SimpleNamespace(
        trees=0, with_finger=0, with_rfinger=0, with_both=0, up=0, down=0, flattened=0
    )
    for _ in range(programs):
        model = list(range(rng.randint(*lengths)))
        lst = ListEnv.from_values(model)
        tree = start(model)
        history = [(model[:], lst, tree)]
        for _ in range(steps):
            before = len(model)
            was_tree = type(tree) is TreeEnv
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
            seen.trees += type(tree) is TreeEnv
            seen.flattened += was_tree and type(tree) is tuple
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
        _check_agreement(random.Random(1234), (0, 12), 60, 40, _random_kvec)
        # The same programs on TreeEnv objects: lengths from the bound up,
        # splits anywhere that keep the longer part, and one to three
        # positions anywhere.
        lengths = (_FLAT, _FLAT + 80)
        seen = _check_agreement(
            random.Random(1235), lengths, 60, 40, _random_kvec, _uniform_k, None
        )
        assert seen.trees > 100 and seen.flattened > 30

    def test_random_programs_with_long_kvecs(self):
        _check_agreement(random.Random(4321), (0, 80), 40, 16, _long_kvec)
        # Dozens of positions inserted into TreeEnv objects in one pass,
        # folding the fingers that splits at either end make.
        lengths = (_FLAT, _FLAT + 80)
        seen = _check_agreement(
            random.Random(4322), lengths, 40, 16, _long_kvec, _either_end_k, None
        )
        assert seen.trees > 300 and seen.with_finger > 50 and seen.with_rfinger > 50

    def test_short_splits_and_inserts_at_the_finger(self):
        # Short splits that keep the longer rest refill the tree's finger;
        # the inserts then fold it into the tree, with positions inside it,
        # across its end and exactly on it.
        lengths = (_FLAT, _FLAT + 300)
        seen = _check_agreement(
            random.Random(2468), lengths, 70, 60, _finger_kvec, _short_k, None
        )
        assert seen.with_finger > 500

    def test_programs_across_the_flat_bound(self):
        # Lengths from 8 under the bound to 4 past it: short splits that
        # keep the longer part and inserts of up to five positions take
        # sequences across the bound both ways; a tuple that reaches it
        # becomes a tree, which stays one on the way back down.
        lengths = (_FLAT - 8, _FLAT + 4)
        seen = _check_agreement(
            random.Random(8642), lengths, 200, 30, _few_kvec, _short_k, None
        )
        assert seen.up > 150 and seen.down > 150
        assert seen.with_finger > 100

    def test_end_splits_across_the_flat_bound(self):
        # Splits one to three elements before the end that keep the first
        # part form right fingers on sequences crossing the flat bound.
        lengths = (_FLAT - 8, _FLAT + 4)
        seen = _check_agreement(
            random.Random(9753), lengths, 200, 30, _few_kvec, _end_k, None
        )
        assert seen.up > 150 and seen.down > 150
        assert seen.with_rfinger > 100

    def test_splits_at_both_ends_with_inserts_at_the_finger(self):
        # Both fingers at once: inserts fold both into the tree, with
        # positions in, on and past the left one.
        lengths = (_FLAT, _FLAT + 300)
        seen = _check_agreement(
            random.Random(3579), lengths, 50, 60, _finger_kvec, _either_end_k, None
        )
        assert seen.with_finger > 300 and seen.with_rfinger > 300
        assert seen.with_both > 100

    def test_programs_across_the_lower_bound(self):
        # TreeEnv objects from _TREE_MIN to 4 past it: short splits that
        # keep the longer part take them under _TREE_MIN, where a part
        # turns back into a tuple, and inserts of up to five positions go
        # into TreeEnv objects shorter than _FLAT.
        lengths = (_TREE_MIN, _TREE_MIN + 4)
        for seed, draw_k in ((7531, _short_k), (7532, _end_k)):
            seen = _check_agreement(
                random.Random(seed), lengths, 100, 30, _few_kvec, draw_k, None, _tree_of
            )
            assert seen.trees > 500 and seen.flattened > 40

    @pytest.mark.parametrize("extra", (8, 9, 16, 24, 40, 100, 5000))
    def test_splits_near_the_ends_of_a_sequence_with_both_fingers(self, extra):
        # A sequence extra elements past the flat bound; once both fingers
        # are refilled, each holds a chunk less the value split off.
        n = _FLAT + extra
        env = TreeEnv.from_values(range(n + 2))
        _, env = TreeEnv.split_at(env, 1)  # refills the left finger
        env, _ = TreeEnv.split_at(env, n)  # refills the right finger
        values = list(range(1, n + 1))
        assert list(env) == values
        assert _fingers(env) == (envseq._CHUNK - 1, envseq._CHUNK - 1)
        near_ends = set(range(80)) | set(range(n - 80, n + 1))
        for k in sorted(near_ends | {n // 2}):
            first, rest = TreeEnv.split_at(env, k)
            assert list(first) == values[:k] and list(rest) == values[k:]
            assert tree_is_balanced(first) and tree_is_balanced(rest)

    @pytest.mark.parametrize("size", (0, 1, 2, 3, 7, 100, _FLAT, _FLAT + 100))
    @pytest.mark.parametrize("copies", (1, 2, 5, 300))
    def test_copies_at_one_position_stay_balanced(self, size, copies):
        # From _FLAT up the copies go into a TreeEnv object: _insert_all
        # builds a run of them where they land in an empty subtree and
        # joins it into the tree.
        model = list(range(size))
        env = TreeEnv.from_values(model)
        assert (type(env) is TreeEnv) == (size >= _FLAT)
        for pos in sorted({0, size // 2, size}):
            kvec = (pos,) + (0,) * (copies - 1)
            tree = TreeEnv.multi_insert(env, kvec, "w")
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
        seen = SimpleNamespace(finger=0, rfinger=0, flat=0)
        for step in range(3000):
            if step % 20 == 0:
                # 150 walks, each from 200 elements past the flat bound.
                env = TreeEnv.from_values(range(_FLAT + 200))
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

    @staticmethod
    def _peel_to_the_end(cells, env, peel):
        """Peel a sequence of _FLAT values down to one: each peel of its
        TreeEnv object (a refill, or its one copy into a tuple under
        _TREE_MIN) and each slice of the tuple it then is builds at most
        _FLAT cells or slots."""
        while len(env) > 1:
            cells.built = 0
            env = peel(env)
            assert cells.built <= _FLAT
        return env

    @pytest.mark.parametrize("size", (1024, 4096, 16384))
    def test_tree_successive_short_splits_constant_amortized(self, cells, size):
        # Evaluation peels one element at a time off the front of a long
        # environment. Above the flat bound the finger makes each peel
        # O(1) cells amortized: one refill's O(log n) split and its chain
        # of _CHUNK cells serve _CHUNK peels. Below it each peel builds at
        # most _FLAT cells or tuple slots.
        env = TreeEnv.from_values(range(_FLAT + size))
        cells.built = 0
        for i in range(size):
            first, env = TreeEnv.split_at(env, 1)
            assert first == (i,)
        assert cells.built <= 4 * size
        assert type(env) is TreeEnv and len(env) == _FLAT
        last = self._peel_to_the_end(cells, env, lambda e: TreeEnv.split_at(e, 1)[1])
        assert last == (_FLAT + size - 1,)

    @pytest.mark.parametrize("size", (64, 256, 1024, 4096))
    def test_tree_successive_last_element_splits_constant_amortized(
        self, cells, size
    ):
        # A spine c M1 ... Mn splits its environment just before the last
        # element at each application; above the flat bound the right
        # finger makes each such split O(1) cells amortized, and below it
        # each builds at most _FLAT cells or tuple slots.
        n = _FLAT + size
        env = TreeEnv.from_values(range(n))
        cells.built = 0
        for i in range(n - 1, _FLAT - 1, -1):
            env, last = TreeEnv.split_at(env, i)
            assert last == (i,)
        assert cells.built <= 4 * size
        assert type(env) is TreeEnv and len(env) == _FLAT
        first = self._peel_to_the_end(
            cells, env, lambda e: TreeEnv.split_at(e, len(e) - 1)[0]
        )
        assert first == (0,)

    @pytest.mark.parametrize("size", (*range(1, 8), _FLAT - 1))
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

    @pytest.mark.parametrize("end", ("left", "right"))
    def test_crossing_the_bound_back_and_forth_builds_one_tree(self, cells, end):
        # A binder that binds one value and a split that drops it again,
        # on a tuple one short of the bound. The first insert builds a
        # tree of _FLAT nodes; its parts stay TreeEnv objects down to
        # _TREE_MIN, so each later pair folds a finger into the tree and
        # refills it, 2 * _CHUNK cells and two O(log n) paths, and never
        # builds or copies the whole sequence again.
        env = TreeEnv.from_values(range(_FLAT - 1))
        cells.built = 0
        for i in range(200):
            if end == "left":
                env = TreeEnv.multi_insert(env, (0,), i)
                first, env = TreeEnv.split_at(env, 1)
            else:
                env = TreeEnv.multi_insert(env, (len(env),), i)
                env, first = TreeEnv.split_at(env, len(env) - 1)
            assert first == (i,) and type(env) is TreeEnv
        assert cells.built <= _FLAT + 200 * 4 * envseq._CHUNK

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
        # A refill off 4096 elements moves a chunk of _CHUNK onto an empty
        # left finger. The first part is a flat copy of the chunk's first k
        # values, so only the other _CHUNK - k become cons cells.
        counter = self._counting_cons(monkeypatch)
        env = TreeEnv.from_values(range(4096))
        first, rest = TreeEnv.split_at(env, k)
        assert counter.built == envseq._CHUNK - k
        assert rest._flen == envseq._CHUNK - k
        assert list(first) + list(rest) == list(range(4096))
        assert tree_is_balanced(first) and tree_is_balanced(rest)

    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_tree_right_refill_chains_only_the_new_finger(self, monkeypatch, k):
        # The mirror image: a chunk moves onto an empty right finger. The
        # rest is a flat copy of the chunk's last k values, so only the
        # other _CHUNK - k become cons cells.
        counter = self._counting_cons(monkeypatch)
        env = TreeEnv.from_values(range(4096))
        first, rest = TreeEnv.split_at(env, 4096 - k)
        assert counter.built == envseq._CHUNK - k
        assert first._rlen == envseq._CHUNK - k
        assert list(first) + list(rest) == list(range(4096))
        assert tree_is_balanced(first) and tree_is_balanced(rest)


class TestTreeShapeCheck:
    def test_finger_cells_must_match_stored_length(self):
        values = list(range(_FLAT))
        node = envseq._build(values, 1, _FLAT)
        good = TreeEnv(envseq._Cons(0, None), 1, node, _FLAT)
        assert tree_is_balanced(good) and list(good) == values
        assert not tree_is_balanced(TreeEnv(envseq._Cons(0, None), 2, node, _FLAT + 1))
        assert not tree_is_balanced(TreeEnv(envseq._Cons(0, None), 1, node, _FLAT + 1))
        # A finger longer than a chunk, which no refill makes.
        chunk = envseq._CHUNK
        long_finger = envseq._chain(values, 0, chunk + 1)
        node = envseq._build(values, chunk + 1, _FLAT)
        assert not tree_is_balanced(TreeEnv(long_finger, chunk + 1, node, _FLAT))

    def test_right_finger_cells_must_match_stored_length(self):
        values = list(range(_FLAT))
        last = envseq._Cons(_FLAT - 1, None)
        node = envseq._build(values, 0, _FLAT - 1)
        good = TreeEnv(None, 0, node, _FLAT, last, 1)
        assert tree_is_balanced(good) and list(good) == values
        chunk = envseq._CHUNK
        for bad in (
            TreeEnv(None, 0, node, _FLAT + 1, last, 2),
            TreeEnv(None, 0, node, _FLAT + 1, last, 1),
            TreeEnv(None, 0, node, _FLAT, last, 2),
            TreeEnv(None, 0, None, 1, last, 1),  # short
            TreeEnv(  # a right finger longer than a chunk
                None,
                0,
                envseq._build(values, 0, _FLAT - chunk - 1),
                _FLAT,
                envseq._rchain(values, _FLAT - chunk - 1, _FLAT),
                chunk + 1,
            ),
        ):
            assert not tree_is_balanced(bad)

    def test_flat_state_must_be_a_short_tuple_alone(self):
        assert tree_is_balanced(("a", "b"))
        assert tree_is_balanced(())
        assert tree_is_balanced(tuple(range(_FLAT - 1)))
        # A TreeEnv object cut down to _TREE_MIN, under _FLAT, is kept.
        least = envseq._build(list(range(_TREE_MIN)), 0, _TREE_MIN)
        assert tree_is_balanced(TreeEnv(None, 0, least, _TREE_MIN))
        leaf = envseq._node(None, "b", None)
        short = envseq._build(list(range(_TREE_MIN - 1)), 0, _TREE_MIN - 1)
        for bad in (
            ["a", "b"],  # not a tuple
            tuple(range(_FLAT)),  # at the bound
            TreeEnv(None, 0, None, 0),  # an empty object
            TreeEnv(envseq._Cons("a", None), 1, leaf, 2),  # short, not a tuple
            TreeEnv(None, 0, short, _TREE_MIN - 1),
        ):
            assert not tree_is_balanced(bad)

    def test_deep_unbalanced_tree_is_rejected_without_recursion(self):
        node = None
        for i in range(100_000):
            node = envseq._node(node, i, None)
        assert not tree_is_balanced(TreeEnv(None, 0, node, 100_000))


class TestFlatState:
    def test_a_refill_fills_a_finger_shorter_than_the_bound(self):
        # A finger holds at most a chunk, so the tree of a TreeEnv holds
        # at least _TREE_MIN - 2 * _CHUNK elements, from which a refill
        # takes a chunk; a part cut out of a finger, with a refill's chunk,
        # has fewer than 2 * _CHUNK and comes back a tuple.
        assert 1 < 3 * envseq._CHUNK <= _TREE_MIN < _FLAT
        env = TreeEnv.from_values(range(_FLAT + 1))
        first, rest = TreeEnv.split_at(env, 1)
        assert first == (0,) and _fingers(rest) == (envseq._CHUNK - 1, 0)
        rest, last = TreeEnv.split_at(env, _FLAT)
        assert last == (_FLAT,) and _fingers(rest) == (0, envseq._CHUNK - 1)

    @staticmethod
    def _check_state(env, source=()):
        # A tuple becomes a TreeEnv object at _FLAT; a part of a TreeEnv
        # object turns back into a tuple only under _TREE_MIN.
        bound = _FLAT if type(source) is tuple else _TREE_MIN
        assert (type(env) is tuple) == (len(env) < bound)
        assert tree_is_balanced(env)

    @classmethod
    def _check_every_result(cls, env, values):
        size = len(values)
        for k in range(size + 1):
            first, rest = TreeEnv.split_at(env, k)
            cls._check_state(first, env)
            cls._check_state(rest, env)
            assert list(first) + list(rest) == values
        for kvec in [(0,), (size,), (0,) * 9, (1,) * min(size, 9), (size // 2, 0)]:
            result = TreeEnv.multi_insert(env, kvec, "w")
            cls._check_state(result, env)
            assert len(result) == size + len(kvec)

    @pytest.mark.parametrize("size", (*range(0, 25), _FLAT - 1, _FLAT, _FLAT + 1))
    def test_every_result_under_the_bound_is_flat(self, size):
        values = list(range(size))
        env = TreeEnv.from_values(values)
        self._check_state(env)
        self._check_state(TreeEnv.singleton("v"))
        self._check_state(TreeEnv.empty())
        self._check_every_result(env, values)

    @pytest.mark.parametrize("size", (_TREE_MIN, _TREE_MIN + 1, _FLAT - 1))
    def test_a_tree_cut_under_the_bound_stays_a_tree(self, size):
        values = list(range(size))
        env = _tree_of(values)
        assert list(env) == values and tree_is_balanced(env)
        self._check_every_result(env, values)

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

    def test_front_split_of_a_right_finger(self):
        env = TreeEnv.from_values(range(4096))
        env, _ = TreeEnv.split_at(env, 4095)  # refills the right finger
        rlen = envseq._CHUNK - 1
        assert env._rlen == rlen
        # A split just past the right finger's first value: the others are
        # copied into the rest, and the first part keeps that value's cell,
        # the chain's last.
        cut = 4095 - rlen + 1
        first, rest = TreeEnv.split_at(env, cut)
        assert list(rest) == list(range(cut, 4095))
        assert list(first) == list(range(cut))
        cell = env._rfinger
        while cell.tail is not None:
            cell = cell.tail
        assert first._rfinger is cell and first._rlen == 1
        assert first._node is env._node
        assert tree_is_balanced(first) and tree_is_balanced(rest)


class TestPeelScaling:
    """Successive peels off either end of a long sequence build O(1) cells
    each, so the cells built grow at most 2.5 times per doubling."""

    @pytest.mark.parametrize("end", ("left", "right"))
    def test_successive_peels_grow_linearly(self, cells, end):
        built = []
        for n in (2 * _FLAT, 4 * _FLAT, 8 * _FLAT, 16 * _FLAT):
            # Peel the first (or last) half of n values: every peel is of
            # a TreeEnv object, which keeps at least _FLAT values.
            env = TreeEnv.from_values(range(n))
            cells.built = 0
            for k in range(n - 1, n // 2 - 1, -1):
                if end == "left":
                    env = TreeEnv.split_at(env, 1)[1]
                else:
                    env = TreeEnv.split_at(env, k)[0]
            assert type(env) is TreeEnv and len(env) == n // 2
            built.append(cells.built)
        for smaller, larger in zip(built, built[1:]):
            assert larger <= 2.5 * smaller


# envseq's order-sensitive choices, each as a one-line mutant and the test
# that must fail under it: (owner, function, line, mutant line, test
# class, test method, its arguments). Every test named runs at sizes
# that reach the flat bound.
MUTANTS = {
    "left refill takes the tree's last chunk": (
        TreeEnv,
        "split_at",
        "a, node = _split(node, _CHUNK)",
        "node, a = _split(node, size - _CHUNK)",
        "TestBackendAgreement",
        "test_short_splits_and_inserts_at_the_finger",
        (),
    ),
    "left refill reverses its chunk": (
        TreeEnv,
        "split_at",
        "values = _values(a, _heads(finger, []))",
        "values = _heads(finger, []) + _values(a, [])[::-1]",
        "TestBackendAgreement",
        "test_splits_at_both_ends_with_inserts_at_the_finger",
        (),
    ),
    "right refill reverses its chunk": (
        TreeEnv,
        "split_at",
        "values = _rheads(rfinger, _values(b, []))",
        "values = _rheads(rfinger, _values(b, [])[::-1])",
        "TestBackendAgreement",
        "test_end_splits_across_the_flat_bound",
        (),
    ),
    "left finger chained last first": (
        TreeEnv,
        "split_at",
        "cell = _chain(values, k, flen)",
        "cell = _rchain(values, k, flen)",
        "TestBackendAgreement",
        "test_splits_near_the_ends_of_a_sequence_with_both_fingers",
        (8,),
    ),
    "right finger chained first first": (
        TreeEnv,
        "split_at",
        "cell = _rchain(values, 0, rlen - m)",
        "cell = _chain(values, 0, rlen - m)",
        "TestTreeSharing",
        "test_split_inside_the_right_finger_shares_the_rest",
        (),
    ),
    "cut off a right finger, values kept last first": (
        TreeEnv,
        "split_at",
        "values.reverse()",
        "pass",
        "TestTreeSharing",
        "test_front_split_of_a_right_finger",
        (),
    ),
    "_gap_insert copies from the buffer's start": (
        envseq,
        "_gap_insert",
        "i = lo",
        "i = 0",
        "TestMultiInsert",
        "test_window_inside_a_buffer",
        (),
    ),
    "_gap_insert copies past its window": (
        envseq,
        "_gap_insert",
        "out += values[i:hi]",
        "out += values[i:]",
        "TestMultiInsert",
        "test_window_inside_a_buffer",
        (),
    ),
    "_gap_insert checks its positions against the buffer": (
        envseq,
        "_gap_insert",
        "if i > hi:",
        "if i > len(values):",
        "TestMultiInsert",
        "test_window_inside_a_buffer",
        (),
    ),
    "a split leaves a tuple of length _TREE_MIN": (
        envseq,
        "_tree_env",
        "if length >= _TREE_MIN:",
        "if length > _TREE_MIN:",
        "TestFlatState",
        "test_every_result_under_the_bound_is_flat",
        (_FLAT + 1,),
    ),
    "a split turns a tree back into a tuple under _FLAT": (
        envseq,
        "_tree_env",
        "if length >= _TREE_MIN:",
        "if length >= _FLAT:",
        "TestFlatState",
        "test_a_tree_cut_under_the_bound_stays_a_tree",
        (_FLAT - 1,),
    ),
    "an insert leaves a tuple of length _FLAT": (
        TreeEnv,
        "multi_insert",
        "if n < _FLAT:",
        "if n <= _FLAT:",
        "TestFlatState",
        "test_every_result_under_the_bound_is_flat",
        (_FLAT - 1,),
    ),
    "a one-position insert places the value one slot late": (
        TreeEnv,
        "multi_insert",
        "return self[:k] + (value,) + self[k:]",
        "return self[: k + 1] + (value,) + self[k + 1 :]",
        "TestMultiInsert",
        "test_one_position_at_every_index",
        (TreeEnv,),
    ),
    "a one-position insert accepts a position one past the end": (
        TreeEnv,
        "multi_insert",
        "if k > n:",
        "if k > n + 1:",
        "TestMultiInsert",
        "test_one_position_at_every_index",
        (TreeEnv,),
    ),
    "from_values keeps a tuple of length _FLAT": (
        TreeEnv,
        "from_values",
        "if n < _FLAT:",
        "if n <= _FLAT:",
        "TestFlatState",
        "test_every_result_under_the_bound_is_flat",
        (_FLAT,),
    ),
}


class TestMutants:
    @pytest.mark.parametrize("name", list(MUTANTS))
    def test_mutant_fails_its_test(self, monkeypatch, name):
        owner, function, line, mutant, test_class, test, args = MUTANTS[name]
        install(monkeypatch, owner, function, line, mutant)
        with pytest.raises((AssertionError, pytest.fail.Exception)):
            getattr(globals()[test_class](), test)(*args)
