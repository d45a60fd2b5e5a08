"""In-memory span recorder that wraps functions and methods from outside.

A span is (name, start, end, parent). Calls are single-threaded and nested,
so the parent of a span is whatever span was open when it started. Spans are
stored in flat arrays and summarised (or written out) after the run.
"""

from __future__ import annotations

import statistics
from array import array
from dataclasses import dataclass, field
from time import perf_counter_ns


@dataclass
class SpanStats:
    durations_ns: array = field(default_factory=lambda: array("q"))
    self_ns: int = 0

    @property
    def calls(self) -> int:
        return len(self.durations_ns)

    @property
    def total_ns(self) -> int:
        return sum(self.durations_ns)

    def mean_us(self, self_time: bool = False) -> float:
        total = self.self_ns if self_time else self.total_ns
        return total / self.calls / 1e3

    def p50_us(self) -> float:
        return statistics.median(self.durations_ns) / 1e3


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._open = [-1]
        self._undo: list[tuple[object, str, object, bool]] = []
        self.origin_ns = perf_counter_ns()

    def _code(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, name: str, fn, *args):
        """Call fn(*args) inside a span called name."""
        return self._traced(fn, self._code(name), None)(*args)

    def _traced(self, fn, code: int, on_result):
        names, starts, ends, parents, open_ = self.name, self.start, self.end, self.parent, self._open

        def traced(*args, **kwargs):
            idx = len(starts)
            parent = open_[-1]
            names.append(code)
            parents.append(parent)
            starts.append(0)
            ends.append(0)
            open_.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                open_.pop()
                starts[idx] = t0
                ends[idx] = t1
            if on_result is not None:
                on_result(args, result, parent)
            return result

        return traced

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace owner.attr by a traced version until restore().

        on_result(args, result, parent_index) is called after each return.
        """
        original = getattr(owner, attr)
        self.replace(owner, attr, self._traced(original, self._code(name), on_result))

    def replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr), attr in vars(owner)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:  # the wrapper shadowed a class attribute
                delattr(owner, attr)

    def name_of(self, idx: int) -> str | None:
        return self.names[self.name[idx]] if idx >= 0 else None

    def summary(self) -> dict[str, SpanStats]:
        """Per-name durations and self time (duration minus the time covered
        by direct children; children of one span never overlap)."""
        child_ns = array("q", bytes(8 * len(self.start)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        stats = {name: SpanStats() for name in self.names}
        for i, code in enumerate(self.name):
            s = stats[self.names[code]]
            d = self.end[i] - self.start[i]
            s.durations_ns.append(d)
            s.self_ns += d - child_ns[i]
        return stats

    def write(self, path) -> None:
        """One span per line: index, name, start and end (ns since the tracer
        was made), parent index (-1 for none)."""
        t0 = self.origin_ns
        with open(path, "w", encoding="ascii") as fh:
            for i, code in enumerate(self.name):
                fh.write(f"{i}\t{self.names[code]}\t{self.start[i] - t0}\t{self.end[i] - t0}\t{self.parent[i]}\n")
