from types import SimpleNamespace

import pytest

from ordlam import envseq
from ordlam.envseq import TreeEnv


@pytest.fixture
def cells(monkeypatch):
    """Counts the list and tree cells built while the test runs, and one
    per slot of each new tuple a TreeEnv split or insert returns."""
    counter = SimpleNamespace(built=0)

    def counting(cell_class):
        class Counted(cell_class):
            __slots__ = ()

            def __init__(self, *args):
                counter.built += 1
                super().__init__(*args)

        return Counted

    def counting_slots(operation, returns_parts):
        def counted(self, *args):
            result = operation(self, *args)
            for part in result if returns_parts else (result,):
                if type(part) is tuple and part is not self:
                    counter.built += len(part)
            return result

        return counted

    monkeypatch.setattr(envseq, "_Cons", counting(envseq._Cons))
    monkeypatch.setattr(envseq, "_Node", counting(envseq._Node))
    for name, returns_parts in (("split_at", True), ("multi_insert", False)):
        operation = getattr(TreeEnv, name)
        monkeypatch.setattr(TreeEnv, name, counting_slots(operation, returns_parts))
    return counter
