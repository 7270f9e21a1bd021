"""Persistent value sequences with positional split and multi-insert.

An environment assigns one value per unbound dot of a term, in order.
Evaluation only ever splits an environment at a known position or
inserts one value at the positions given by a binder's gap vector, so
that is the whole interface.

Two observationally equal backends:

* ListEnv: a shared-tail linked list; split and insert rebuild the
  prefix (linear in the split position).
* TreeEnv: a weight-balanced binary tree (one element per node,
  weight ratio 3, single/double rotations); split and insert are
  logarithmic in the length.

Elements are always held by reference, never copied. Every backend cell
is built through the module's _Cons or _Node class, which the tests
replace with counting subclasses to check asymptotic costs without
timing anything. The module holds no mutable state.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

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

    def to_list(self) -> list[Any]:
        out = []
        cell = self._cell
        while cell is not None:
            out.append(cell.head)
            cell = cell.tail
        return out

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
        cell = self._cell
        prefix = []
        for _ in range(k):
            prefix.append(cell.head)
            cell = cell.tail
        rest = ListEnv(cell, self._length - k)
        rebuilt = None
        for v in reversed(prefix):
            rebuilt = _Cons(v, rebuilt)
        return ListEnv(rebuilt, k), rest

    def multi_insert(self, kvec: tuple[int, ...], value: Any) -> "ListEnv":
        total = sum(kvec)
        if total > self._length:
            raise InvariantError(
                f"insert positions need {total} elements, sequence has {self._length}"
            )
        if not kvec:
            return self
        cell = self._cell
        prefix = []
        for _ in range(total):
            prefix.append(cell.head)
            cell = cell.tail
        consumed = total
        for gap in reversed(kvec):
            cell = _Cons(value, cell)
            for v in reversed(prefix[consumed - gap : consumed]):
                cell = _Cons(v, cell)
            consumed -= gap
        return ListEnv(cell, self._length + len(kvec))

    def __repr__(self) -> str:
        return f"ListEnv({self.to_list()!r})"


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
    sl, sr = _size(left), _size(right)
    if _balanced_sizes(sl, sr):
        return _node(left, value, right)
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
    if node is None:
        return None, None
    left_size = _size(node.left)
    if k <= left_size:
        a, b = _split(node.left, k)
        return a, _join(b, node.value, node.right)
    a, b = _split(node.right, k - left_size - 1)
    return _join(node.left, node.value, a), b


class TreeEnv:
    """Persistent sequence as a weight-balanced tree."""

    __slots__ = ("_node",)

    def __init__(self, node: Optional[_Node]):
        self._node = node

    @classmethod
    def empty(cls) -> "TreeEnv":
        return _TREE_EMPTY

    @classmethod
    def singleton(cls, value: Any) -> "TreeEnv":
        return cls(_node(None, value, None))

    @classmethod
    def from_values(cls, values: Iterable[Any]) -> "TreeEnv":
        values = list(values)

        def build(lo: int, hi: int) -> Optional[_Node]:
            if lo >= hi:
                return None
            mid = (lo + hi) // 2
            return _node(build(lo, mid), values[mid], build(mid + 1, hi))

        return cls(build(0, len(values)))

    def __len__(self) -> int:
        return _size(self._node)

    def to_list(self) -> list[Any]:
        out = []
        stack = []
        node = self._node
        while node is not None or stack:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            out.append(node.value)
            node = node.right
        return out

    def sole(self) -> Any:
        """The element of a singleton sequence."""
        if _size(self._node) != 1:
            raise InvariantError(f"sole() on sequence of length {len(self)}")
        return self._node.value

    def split_at(self, k: int) -> tuple["TreeEnv", "TreeEnv"]:
        if not 0 <= k <= len(self):
            raise InvariantError(
                f"split position {k} outside sequence of length {len(self)}"
            )
        if k == 0:
            return _TREE_EMPTY, self
        if k == len(self):
            return self, _TREE_EMPTY
        a, b = _split(self._node, k)
        return TreeEnv(a), TreeEnv(b)

    def multi_insert(self, kvec: tuple[int, ...], value: Any) -> "TreeEnv":
        total = sum(kvec)
        if total > len(self):
            raise InvariantError(
                f"insert positions need {total} elements, sequence has {len(self)}"
            )
        if not kvec:
            return self
        # Insert right to left so earlier positions stay valid.
        positions = []
        acc = 0
        for gap in kvec:
            acc += gap
            positions.append(acc)
        node = self._node
        for pos in reversed(positions):
            a, b = _split(node, pos)
            node = _join(a, value, b)
        return TreeEnv(node)

    def __repr__(self) -> str:
        return f"TreeEnv({self.to_list()!r})"


_TREE_EMPTY = TreeEnv(None)


def tree_is_balanced(env: TreeEnv) -> bool:
    """Check the weight-balance criterion at every node (test helper)."""

    def check(node: Optional[_Node]) -> bool:
        if node is None:
            return True
        if node.size != _size(node.left) + _size(node.right) + 1:
            return False
        if not _balanced_sizes(_size(node.left), _size(node.right)):
            return False
        return check(node.left) and check(node.right)

    return check(env._node)


BACKENDS = {"list": ListEnv, "tree": TreeEnv}
