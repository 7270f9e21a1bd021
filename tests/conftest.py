from types import SimpleNamespace

import pytest

from ordlam import envseq
from ordlam.envseq import TreeEnv


@pytest.fixture
def cells(monkeypatch):
    """Counts the list and tree cells built while the test runs, and one
    per slot of each new flat tuple a TreeEnv split or insert returns."""
    counter = SimpleNamespace(built=0)

    def counting(cell_class):
        class Counted(cell_class):
            __slots__ = ()

            def __init__(self, *args):
                counter.built += 1
                super().__init__(*args)

        return Counted

    def counting_slots(operation):
        def counted(self, *args):
            result = operation(self, *args)
            for part in result if isinstance(result, tuple) else (result,):
                if part._flat is not None and part._flat is not self._flat:
                    counter.built += len(part._flat)
            return result

        return counted

    monkeypatch.setattr(envseq, "_Cons", counting(envseq._Cons))
    monkeypatch.setattr(envseq, "_Node", counting(envseq._Node))
    for name in ("split_at", "multi_insert"):
        monkeypatch.setattr(TreeEnv, name, counting_slots(getattr(TreeEnv, name)))
    return counter
