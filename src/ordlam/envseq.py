"""Persistent value sequences with positional split and multi-insert.

An environment assigns one value per unbound dot of a term, in order.
Evaluation only ever splits an environment at a known position or
inserts one value at the positions given by a binder's gap vector, so
that is the whole interface.

Two observationally equal backends:

* ListEnv: a shared-tail linked list; split and insert rebuild the
  prefix (linear in the split position).
* TreeEnv: a sequence shorter than _FLAT (512) is a bare tuple, with
  no wrapper object, unless it was cut from a longer one and holds at
  least _TREE_MIN (384); any other is a TreeEnv object, a
  weight-balanced binary tree (one element per node, weight ratio 3,
  single/double rotations) between two short cons chains, the left and
  right fingers. Exact environments hold only the values a body uses,
  so nearly all are short: a flat closure is one vector of exactly its
  free values (Appel, Compiling with Continuations, 1992, ch. 10), and
  on it a split is two slices and a multi-insert one concatenation
  (one position) or one _gap_insert, then a balanced build at _FLAT. The
  class's operations take such a tuple as their first argument, so a
  caller reaches them through the class. The bound is where a tuple
  peel, which copies all but one value, costs about what a tree peel
  costs; like a rope's flat leaves (Boehm, Atkinson and Plass, SPE
  1995), a split of a tuple below it copies fewer than _FLAT slots, and
  never shares a larger tuple through an offset, which would keep the
  values cut off alive. The one exception is the evaluator's own: for a
  bound variable applied to an argument, x M, or an application to a
  bound variable, M x, it reads x's value off a tuple and evaluates M
  in a window of the same tuple one slot shorter at that end, with no
  call here (machine._run). That keeps nothing alive longer, since the
  window only moves past values that the evaluator's pending apply or
  argument frames hold, and it lets the tuple go where the run of such
  applications ends. Evaluation nearly always splits off a prefix of
  one or two elements, or, in a left-nested spine c M1 ... Mn, the last
  argument's values off the end; on a TreeEnv object the finger at that
  end serves those splits in O(1) cells each. A split just past a
  finger first tops the finger up with a chunk of _CHUNK (64)
  elements, taken off the tree's end by one logarithmic split, and then
  splits inside it (Hinze and Paterson's finger trees, JFP 2006, refill
  an exhausted digit from the middle the same way). Any other split is
  logarithmic in the length. A multi-insert of m positions into n
  tree-held elements folds both fingers into the tree and makes one
  pass over it that rebuilds only the paths the positions reach,
  O(m log(n/m + 1)) node builds.

Elements are always held by reference, never copied. Every backend cell
is built through the module's _Cons or _Node class, which the tests
replace with counting subclasses to check asymptotic costs without
timing anything; a short sequence is a tuple, built by no such class,
so they count its slots off the sequences an operation returns. _Cons
also holds the machine's spine arguments and the de Bruijn closure
machine's scope-wide environments (read back with _heads); those
modules import the class by name, so a counting subclass swapped in
here counts only environment cells. The module holds no mutable state.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Any, Iterable, Iterator, Optional

from .errors import InvariantError


# ---------------------------------------------------------------------------
# linked-list backend


class _Cons:
    __slots__ = ("head", "tail")

    def __init__(self, head: Any, tail: Optional["_Cons"]):
        self.head = head
        self.tail = tail


class ListEnv:
    """Persistent sequence as a shared-tail linked list."""

    __slots__ = ("_cell", "_length")

    def __init__(self, cell: Optional[_Cons], length: int):
        self._cell = cell
        self._length = length

    @classmethod
    def empty(cls) -> "ListEnv":
        return _LIST_EMPTY

    @classmethod
    def singleton(cls, value: Any) -> "ListEnv":
        return cls(_Cons(value, None), 1)

    @classmethod
    def from_values(cls, values: Iterable[Any]) -> "ListEnv":
        values = list(values)
        cell = None
        for v in reversed(values):
            cell = _Cons(v, cell)
        return cls(cell, len(values))

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Any]:
        cell = self._cell
        while cell is not None:
            yield cell.head
            cell = cell.tail

    def sole(self) -> Any:
        """The element of a singleton sequence."""
        if self._length != 1:
            raise InvariantError(f"sole() on sequence of length {self._length}")
        return self._cell.head

    def split_at(self, k: int) -> tuple["ListEnv", "ListEnv"]:
        if not 0 <= k <= self._length:
            raise InvariantError(
                f"split position {k} outside sequence of length {self._length}"
            )
        if k == 0:
            return _LIST_EMPTY, self
        if k == self._length:
            return self, _LIST_EMPTY
        # A fresh copy of the first k cells, built front to back; the
        # chain past them is shared.
        cell = self._cell
        first = last = _Cons(cell.head, None)
        for _ in range(k - 1):
            cell = cell.tail
            last.tail = last = _Cons(cell.head, None)
        return ListEnv(first, k), ListEnv(cell.tail, self._length - k)

    def multi_insert(self, kvec: tuple[int, ...], value: Any) -> "ListEnv":
        total = sum(kvec)
        if total > self._length:
            raise InvariantError(
                f"insert positions need {total} elements, sequence has {self._length}"
            )
        if not kvec:
            return self
        # A fresh copy of the first total cells with value after each gap,
        # built front to back from the result's first cell (the first gap
        # and its value, as split_at copies); the chain past them is shared.
        cell = self._cell
        if kvec[0]:
            first = last = _Cons(cell.head, None)
            for _ in range(kvec[0] - 1):
                cell = cell.tail
                last.tail = last = _Cons(cell.head, None)
            cell = cell.tail
            last.tail = last = _Cons(value, None)
        else:
            first = last = _Cons(value, None)
        for gap in kvec[1:]:
            for _ in range(gap):
                last.tail = last = _Cons(cell.head, None)
                cell = cell.tail
            last.tail = last = _Cons(value, None)
        last.tail = cell
        return ListEnv(first, self._length + len(kvec))

    def __repr__(self) -> str:
        return f"ListEnv({list(self)!r})"


_LIST_EMPTY = ListEnv(None, 0)


# ---------------------------------------------------------------------------
# weight-balanced tree backend

# A node is heavy when it outweighs its sibling more than DELTA to one;
# GAMMA picks single versus double rotation.
_DELTA = 3
_GAMMA = 2


class _Node:
    __slots__ = ("left", "value", "right", "size")

    def __init__(self, left, value, right, size):
        self.left = left
        self.value = value
        self.right = right
        self.size = size


def _size(node: Optional[_Node]) -> int:
    return node.size if node is not None else 0


def _node(left, value, right) -> _Node:
    return _Node(left, value, right, _size(left) + _size(right) + 1)


def _balanced_sizes(a: int, b: int) -> bool:
    return a + b <= 1 or (a <= _DELTA * b and b <= _DELTA * a)


def _rebalance_right_heavy(left, value, right) -> _Node:
    # The right subtree grew; one (single or double) rotation restores balance.
    if _size(right.left) < _GAMMA * _size(right.right):
        return _node(_node(left, value, right.left), right.value, right.right)
    rl = right.left
    return _node(
        _node(left, value, rl.left),
        rl.value,
        _node(rl.right, right.value, right.right),
    )


def _rebalance_left_heavy(left, value, right) -> _Node:
    if _size(left.right) < _GAMMA * _size(left.left):
        return _node(left.left, left.value, _node(left.right, value, right))
    lr = left.right
    return _node(
        _node(left.left, left.value, lr.left),
        lr.value,
        _node(lr.right, value, right),
    )


def _join(left, value, right) -> _Node:
    """Tree holding left ++ [value] ++ right, balanced, for any input sizes."""
    sl = left.size if left is not None else 0
    sr = right.size if right is not None else 0
    if sl + sr <= 1 or (sl <= _DELTA * sr and sr <= _DELTA * sl):
        return _Node(left, value, right, sl + sr + 1)
    if sl > sr:
        joined = _join(left.right, value, right)
        if _balanced_sizes(_size(left.left), joined.size):
            return _node(left.left, left.value, joined)
        return _rebalance_right_heavy(left.left, left.value, joined)
    joined = _join(left, value, right.left)
    if _balanced_sizes(joined.size, _size(right.right)):
        return _node(joined, right.value, right.right)
    return _rebalance_left_heavy(joined, right.value, right.right)


def _split(node: Optional[_Node], k: int):
    """The first k elements and the rest, as two balanced trees: each side
    of the cut is rejoined around the node's value by _join (Adams,
    "Efficient sets: a balancing act", JFP 1993)."""
    if k == 0:
        return None, node
    if k == node.size:
        return node, None
    left = node.left
    left_size = left.size if left is not None else 0
    if k <= left_size:
        a, b = _split(left, k)
        return a, _join(b, node.value, node.right)
    a, b = _split(node.right, k - left_size - 1)
    return _join(left, node.value, a), b


def _build(values: list, lo: int, hi: int) -> Optional[_Node]:
    """Balanced tree of values[lo:hi], one node per element."""
    if lo >= hi:
        return None
    if hi - lo == 1:
        return _Node(None, values[lo], None, 1)
    mid = (lo + hi) // 2
    return _Node(
        _build(values, lo, mid), values[mid], _build(values, mid + 1, hi), hi - lo
    )


def _insert_all(
    node: Optional[_Node], positions: list, lo: int, hi: int, base: int, value
) -> Optional[_Node]:
    """Insert value at each of the sorted positions[lo:hi] of the sequence
    held by node, whose first element sits at position base.

    A subtree no position reaches is returned as it is; copies that land
    in an empty subtree become one balanced run; every visited node is
    rebuilt once, by _join.
    """
    if lo == hi:
        return node
    if node is None:
        return _build([value] * (hi - lo), 0, hi - lo)
    left = node.left
    cut = base + (left.size if left is not None else 0)
    # Positions up to cut land before node.value, the rest after it.
    mid = bisect_right(positions, cut, lo, hi)
    return _join(
        _insert_all(left, positions, lo, mid, base, value),
        node.value,
        _insert_all(node.right, positions, mid, hi, cut + 1, value),
    )


def _values(node: Optional[_Node], out: list) -> list:
    """Append the values of node's tree to out, in order (explicit stack)."""
    stack = []
    while node is not None or stack:
        while node is not None:
            stack.append(node)
            node = node.left
        node = stack.pop()
        out.append(node.value)
        node = node.right
    return out


def _heads(cell: Optional[_Cons], out: list) -> list:
    """Append the heads of the chain from cell to out."""
    while cell is not None:
        out.append(cell.head)
        cell = cell.tail
    return out


def _rheads(cell: Optional[_Cons], out: list) -> list:
    """Append the heads of a right finger's chain to out, in sequence
    order (the chain holds its last element first)."""
    out.extend(reversed(_heads(cell, [])))
    return out


def _peel(cell: _Cons, count: int) -> tuple[list, Optional[_Cons]]:
    """The heads of the first count cells of the chain from cell, and the
    cell after them."""
    values = []
    for _ in range(count):
        values.append(cell.head)
        cell = cell.tail
    return values, cell


# How many elements a finger refill takes off the tree's end: one
# logarithmic _split then serves about this many constant-time peels.
# Past 64 a peel got at most 7 % cheaper (BENCH_23.json's sweep), while a
# multi-insert after a refill folds the whole finger back into the tree.
_CHUNK = 64

# The length at which a tuple becomes a TreeEnv object: about where a
# tuple peel, a slice of all but one value, costs as much as a tree peel
# (BENCH_23.json's sweep). A TreeEnv part turns back into a tuple only
# below _TREE_MIN, so a sequence that crosses _FLAT back and forth pays
# the O(_FLAT) build or copy once per 2 * _CHUNK one-value steps, not at
# each step. A finger holds at most _CHUNK elements, so the tree between
# two fingers holds at least _TREE_MIN - 2 * _CHUNK, enough for a chunk,
# and a part cut out of a finger, with a refill's chunk, holds fewer
# than 2 * _CHUNK and is a tuple.
_FLAT = 512
_TREE_MIN = _FLAT - 2 * _CHUNK


def _gap_insert(
    values, lo: int, hi: int, kvec: tuple[int, ...], value: Any
) -> list:
    """values[lo:hi] as a new list, with value inserted after the first
    kvec[0] of them, after kvec[1] more, and so on (the printer's insert
    too, on a window of its buffer)."""
    out = []
    i = lo
    for gap in kvec:
        out += values[i : i + gap]
        out.append(value)
        i += gap
    if i > hi:
        raise InvariantError(
            f"insert positions need {i - lo} elements, sequence has {hi - lo}"
        )
    out += values[i:hi]
    return out


def _chain(values: list, lo: int, hi: int) -> Optional[_Cons]:
    """A fresh chain of _Cons cells holding values[lo:hi]."""
    cell = None
    for i in range(hi - 1, lo - 1, -1):
        cell = _Cons(values[i], cell)
    return cell


def _rchain(values: list, lo: int, hi: int) -> Optional[_Cons]:
    """A fresh right finger holding values[lo:hi], last element first."""
    cell = None
    for i in range(lo, hi):
        cell = _Cons(values[i], cell)
    return cell


def _tree_env(
    finger: Optional[_Cons],
    flen: int,
    node,
    rfinger: Optional[_Cons],
    rlen: int,
    length: int,
) -> tuple | TreeEnv:
    """The sequence of finger, node's tree and the right finger rfinger: a
    TreeEnv from _TREE_MIN up, a tuple below."""
    if length >= _TREE_MIN:
        return TreeEnv(finger, flen, node, length, rfinger, rlen)
    return tuple(_rheads(rfinger, _values(node, _heads(finger, []))))


class TreeEnv:
    """Persistent sequence held as a bare tuple when short, and otherwise
    as a weight-balanced tree between two cons chains, the fingers.

    A sequence of fewer than _FLAT (512) elements is a plain tuple, not
    a TreeEnv: empty(), singleton() and from_values() return one, and so
    do split_at and multi_insert of a tuple for every part under the
    bound, and split_at of a TreeEnv for every part under _TREE_MIN. Exact
    environments are that short nearly always (they hold only the values
    a body uses), so there a split is two slices and no wrapper object
    is built. A multi-insert of one position (a binder with one
    occurrence) is two slices and one concatenation around the value,
    with no list built; one of several positions is one _gap_insert
    list, turned into a tuple. The operations take such
    a tuple as their first argument, so they are called through the
    class, TreeEnv.split_at(env, k), whichever form env has. A split of
    a tuple copies fewer than _FLAT slots. A tuple multi-insert whose
    result reaches the bound, whatever its positions, makes one
    _gap_insert list and then one balanced _build of it, one node per
    element.

    A TreeEnv object holds at least _TREE_MIN (384) elements, so that a
    sequence going back and forth across _FLAT is not rebuilt at each
    step. Its left finger holds the first _flen elements as a chain of
    exactly that many _Cons cells ending in None; its right finger holds
    the last _rlen elements the same way, last element first; the tree
    under _node holds the elements between them; _length caches the
    total. The fingers are not kept as tuples: a tuple finger would copy
    up to _CHUNK slots on every short split, where a cons finger copies
    O(1) amortized. A split at k, leaving n - k elements past it, costs:

    * k new cells when k lies inside the left finger, as on ListEnv, and
      n - k new cells when it lies inside the right finger;
    * when k falls less than _CHUNK past the left finger, first one
      _split that moves a chunk of _CHUNK elements off the tree's left
      end onto the finger, which then holds k: the rest keeps the
      finger's cells past k, so one O(log n) split pays for the _CHUNK
      or so constant-time splits that follow. Evaluation nearly always
      splits off a prefix of one or two elements, and this is the case
      that serves it;
    * the mirror image when k falls less than _CHUNK before the right
      finger. A left-nested spine c M1 ... Mn splits off its last
      argument at each application, so this serves the spine's
      successive splits at n - 1, n - 2, ... while the environment is a
      TreeEnv object. On a tuple the evaluator makes no such split
      where an argument Mi is a bound variable: it moves the right end
      of a window over the tuple instead (machine._run);
    * otherwise one _split of the tree, O(log n), with both fingers
      shared.

    A part cut out of a finger, with a refill's chunk, holds fewer than
    2 * _CHUNK elements and is a tuple. Every other part that keeps finger
    or tree cells is made by _tree_env, so a part shorter than _TREE_MIN
    comes back a tuple, at a cost of its length. A multi-insert folds each
    finger into the tree with one _join and then inserts every position
    in one pass. Only splits make fingers, so no finger holds more than
    _CHUNK elements.
    """

    __slots__ = ("_finger", "_flen", "_node", "_rfinger", "_rlen", "_length")

    def __init__(
        self,
        finger: Optional[_Cons],
        flen: int,
        node: Optional[_Node],
        length: int,
        rfinger: Optional[_Cons] = None,
        rlen: int = 0,
    ):
        self._finger = finger
        self._flen = flen
        self._node = node
        self._rfinger = rfinger
        self._rlen = rlen
        self._length = length

    @classmethod
    def empty(cls) -> tuple:
        return ()

    @classmethod
    def singleton(cls, value: Any) -> tuple:
        return (value,)

    @classmethod
    def from_values(cls, values: Iterable[Any]) -> tuple | TreeEnv:
        values = tuple(values)
        n = len(values)
        if n < _FLAT:
            return values
        return cls(None, 0, _build(values, 0, n), n)

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Any]:
        values = _values(self._node, _heads(self._finger, []))
        return iter(_rheads(self._rfinger, values))

    def split_at(self, k: int) -> tuple[tuple | TreeEnv, tuple | TreeEnv]:
        n = len(self)
        if not 0 <= k <= n:
            raise InvariantError(f"split position {k} outside sequence of length {n}")
        if type(self) is tuple:
            return self[:k], self[k:]
        if k == 0:
            return (), self
        if k == n:
            return self, ()
        flen = self._flen
        finger = self._finger
        node = self._node
        rlen = self._rlen
        rfinger = self._rfinger
        m = n - k
        if k >= flen and m >= rlen:
            size = n - flen - rlen
            j = k - flen
            if j < _CHUNK:
                # Refill: move a chunk off the tree's left end. The split
                # falls inside the finger's values and the chunk's, so their
                # first k values make the first part and only the others
                # are chained into the new finger.
                a, node = _split(node, _CHUNK)
                values = _values(a, _heads(finger, []))
                flen += _CHUNK
                cell = _chain(values, k, flen)
                del values[k:]
            elif size - j < _CHUNK:
                # The mirror image onto the right finger: its last m values
                # make the rest and only the others are chained.
                node, b = _split(node, size - _CHUNK)
                values = _rheads(rfinger, _values(b, []))
                rlen += _CHUNK
                cell = _rchain(values, 0, rlen - m)
                del values[: rlen - m]
            else:
                a, b = _split(node, j)
                return (
                    _tree_env(finger, flen, a, None, 0, k),
                    _tree_env(None, 0, b, rfinger, rlen, m),
                )
        elif k < flen:
            # Inside the left finger. k == 1 is the split evaluation makes
            # most, and its rest is nearly always long.
            if k == 1:
                values, cell = (finger.head,), finger.tail
            else:
                values, cell = _peel(finger, k)
        elif m == 1:
            # Inside the right finger: a spine application splitting off
            # its last argument, whose first part is nearly always long.
            values, cell = (rfinger.head,), rfinger.tail
        else:
            values, cell = _peel(rfinger, m)
            values.reverse()
        if k < flen:
            # The first k values, fewer than 2 * _CHUNK, are copied into a
            # tuple; the rest shares the finger's other cells.
            return tuple(values), _tree_env(cell, flen - k, node, rfinger, rlen, m)
        # The mirror image: the last m values are copied.
        return _tree_env(finger, flen, node, cell, rlen - m, k), tuple(values)

    def multi_insert(self, kvec: tuple[int, ...], value: Any) -> tuple | TreeEnv:
        if not kvec:
            return self
        if type(self) is tuple:
            n = len(self)
            if len(kvec) == 1 and n < _FLAT - 1:
                # One position, a result under the bound: one concatenation.
                k = kvec[0]
                if k > n:
                    raise InvariantError(
                        f"insert positions need {k} elements, sequence has {n}"
                    )
                return self[:k] + (value,) + self[k:]
            out = _gap_insert(self, 0, n, kvec, value)
            n = len(out)
            if n < _FLAT:
                return tuple(out)
            return TreeEnv(None, 0, _build(out, 0, n), n)
        n = self._length
        positions = list(accumulate(kvec))
        total = positions[-1]
        if total > n:
            raise InvariantError(
                f"insert positions need {total} elements, sequence has {n}"
            )
        # Fold both fingers into the tree, which then takes every position.
        node = self._node
        if self._flen:
            values = _heads(self._finger, [])
            node = _join(_build(values, 0, self._flen - 1), values[-1], node)
        if self._rlen:
            values = _rheads(self._rfinger, [])
            node = _join(node, values[0], _build(values, 1, self._rlen))
        node = _insert_all(node, positions, 0, len(positions), 0, value)
        return TreeEnv(None, 0, node, n + len(positions))

    def __repr__(self) -> str:
        return f"TreeEnv({list(self)!r})"


def tree_is_balanced(env: tuple | TreeEnv) -> bool:
    """Check a TreeEnv backend sequence's shape (test helper). A tuple
    is shorter than _FLAT. A TreeEnv object holds at least _TREE_MIN
    elements: its left finger has exactly _flen cells, its right
    finger exactly _rlen, neither more than _CHUNK, the cached length is
    the two fingers plus the tree, and every tree node has a correct size
    and meets the weight-balance criterion."""
    if type(env) is tuple:
        return len(env) < _FLAT
    if type(env) is not TreeEnv:
        return False
    cells = len(_heads(env._finger, []))
    rcells = len(_heads(env._rfinger, []))
    if env._length < _TREE_MIN or cells != env._flen or rcells != env._rlen:
        return False
    if max(cells, rcells) > _CHUNK:
        return False
    if env._length != cells + _size(env._node) + rcells:
        return False
    stack = [env._node]
    while stack:
        node = stack.pop()
        if node is not None:
            left, right = node.left, node.right
            a, b = _size(left), _size(right)
            if node.size != a + b + 1 or not _balanced_sizes(a, b):
                return False
            stack += (left, right)
    return True


BACKENDS = {"list": ListEnv, "tree": TreeEnv}
