"""Spans and counters around ordlam's layers, installed at run time.

The library looks up its own module attributes on every call, so
rebinding an attribute (machine.evaluate, bench.parse_closed, ...) to a
wrapper puts a span around every call of it, including calls made from
inside the library. Nothing in ordlam is edited; uninstall() puts every
original back.

A span's self time is its duration minus its child spans, the GC
pauses that fell inside it, and the environment-sequence calls made
under it. Those calls are too many and too short for one span each, so
they are summed into counters and time under their parent span. By
construction the self times of a request, its GC pauses and its
environment time add up exactly to the request span.
"""

from __future__ import annotations

import gc
from collections import defaultdict
from functools import cached_property
from time import perf_counter_ns

REQUEST = "request"


class Tracer:
    """In-memory spans and per-request counters for one traced run."""

    def __init__(self):
        self.spans: list[tuple] = []  # (request, name, parent, start, end, self)
        self.request = -1
        self._stack: list[list] = []  # open spans: [name, start, child_ns]
        self._gc_start = 0
        self.reset_counts()

    def reset_counts(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    # spans -----------------------------------------------------------------

    def begin(self, name: str) -> None:
        self.counts[name + ".calls"] += 1
        self._stack.append([name, perf_counter_ns(), 0])

    def end(self) -> None:
        now = perf_counter_ns()
        name, start, child = self._stack.pop()
        duration = now - start
        parent = None
        if self._stack:
            parent = self._stack[-1][0]
            self._stack[-1][2] += duration
        self.self_ns[name] += duration - child
        self.spans.append((self.request, name, parent, start, now, duration - child))

    def top(self):
        return self._stack[-1][0] if self._stack else None

    def charge(self, ns: int) -> None:
        """Time spent under the open span that belongs to no child span."""
        if self._stack:
            self._stack[-1][2] += ns

    # GC --------------------------------------------------------------------

    def on_gc(self, phase: str, _info: dict) -> None:
        if not self._stack:
            return
        if phase == "start":
            self._gc_start = perf_counter_ns()
        else:
            pause = perf_counter_ns() - self._gc_start
            self._stack[-1][2] += pause
            self.counts["gc.pause_ns"] += pause
            self.counts["gc.collections"] += 1


# --------------------------------------------------------------------------
# wrappers


def _span(tr: Tracer, name: str, fn):
    def traced(*args, **kwargs):
        tr.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tr.end()

    return traced


def _stepped(tr: Tracer, name: str, fn, fuel_index: int):
    """A span that also counts the fuel spent inside it."""

    def traced(*args, **kwargs):
        fuel = args[fuel_index]
        before = fuel.spent
        tr.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tr.end()
            tr.counts[name + ".steps"] += fuel.spent - before

    return traced


def _outermost(tr: Tracer, name: str, fn):
    """A span for a recursive function: only the outermost call opens one."""

    def traced(*args):
        if tr.top() == name:
            return fn(*args)
        tr.begin(name)
        try:
            return fn(*args)
        finally:
            tr.end()

    return traced


def _env_counter(tr: Tracer, layer: str, fn, cells):
    """Sum an environment operation's calls, cells and time under the open span."""

    # Counters are read through the tracer on every call, because
    # reset_counts() replaces the dictionaries between requests.
    def traced(self, *args):
        n = len(self)
        gc_before = tr.counts["gc.pause_ns"]
        start = perf_counter_ns()
        result = fn(self, *args)
        spent = perf_counter_ns() - start - (tr.counts["gc.pause_ns"] - gc_before)
        tr.charge(spent)
        c = tr.counts
        c[layer + ".ns"] += spent
        c[layer + ".calls"] += 1
        c[layer + ".cells"] += cells(n, *args)
        if n > c["envseq.max_len"]:
            c["envseq.max_len"] = n
        return result

    return traced


def _split_cells(n: int, k: int) -> int:
    return k if 0 < k < n else 0


def _insert_cells(_n: int, kvec, _value) -> int:
    return sum(kvec) + len(kvec)


# (module, attribute, layer, index of the Fuel argument or None). The
# two parse_closed names are the same translation, reached from machine
# (evaluation) and from bench (the digest).
SPANS = (
    ("named", "parse_surface", "named.parse", None),
    ("named", "print_surface", "named.print", None),
    ("machine", "parse_closed", "ordered.translate", None),
    ("bench", "parse_closed", "ordered.translate", None),
    ("machine", "evaluate", "machine.eval", 2),
    ("machine", "apply_value", "machine.apply", None),
    ("machine", "readback_normal_form", "machine.readback", 1),
    ("machine", "names_in_value", "machine.names", None),
    ("machine", "ordered_free_names", "ordered.free_names", None),
    ("machine", "print_ordered", "machine.print_ordered", None),
    ("bench", "digest_term", "bench.digest", None),
    ("baselines", "to_debruijn", "baselines.translate", None),
    ("baselines", "db_whnf", "baselines.eval", 1),
    ("baselines", "db_readback_normal_form", "baselines.readback", 1),
)


class Instrumentation:
    """Installs and removes the wrappers on the loaded ordlam modules."""

    def __init__(self, tracer: Tracer, program):
        self.tracer = tracer
        tr = tracer
        self._patches = []  # (owner, attribute, replacement)
        for module, attribute, layer, fuel_index in SPANS:
            owner = getattr(program, module)
            fn = getattr(owner, attribute)
            if fuel_index is None:
                wrapper = _span(tr, layer, fn)
            else:
                wrapper = _stepped(tr, layer, fn, fuel_index)
            self._patches.append((owner, attribute, wrapper))
        for env_class in (program.envseq.ListEnv, program.envseq.TreeEnv):
            for attribute, layer, cells in (
                ("split_at", "envseq.split", _split_cells),
                ("multi_insert", "envseq.insert", _insert_cells),
            ):
                fn = getattr(env_class, attribute)
                wrapper = _env_counter(tr, layer, fn, cells)
                self._patches.append((env_class, attribute, wrapper))
        for term_class in (program.named.Var, program.named.App, program.named.Lam):
            original = term_class.__dict__["free_names"]
            replacement = cached_property(
                _outermost(tr, "named.free_names", original.func)
            )
            replacement.__set_name__(term_class, "free_names")
            self._patches.append((term_class, "free_names", replacement))
        self._saved: list[tuple] = []

    def install(self) -> None:
        if self._saved:
            return
        for owner, name, replacement in self._patches:
            self._saved.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, replacement)
        gc.callbacks.append(self.tracer.on_gc)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()
        if self.tracer.on_gc in gc.callbacks:
            gc.callbacks.remove(self.tracer.on_gc)
