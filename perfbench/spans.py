"""In-memory span recording for the traced benchmark run.

A span is one call into a library layer, recorded by the benchmark
around the call: its name, start, end and the span it ran under.  Spans
live in flat arrays while the run lasts and are written out once at the
end.  Untraced runs use ``NullTracer``, whose calls go straight through.
"""

from __future__ import annotations

import gzip
from array import array
from contextlib import contextmanager, nullcontext
from time import perf_counter

REFUSED = 1  # the call ended in BoundExceeded
EXTRA = 2    # a call made only by the traced run, not part of the workload


class NullTracer:
    """Tracing off: no spans, no bookkeeping."""

    traced = False
    _none = nullcontext()

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name):
        return self._none


class Tracer:
    """Records every span; see the module docstring."""

    traced = True

    def __init__(self, refusal: type):
        self._refusal = refusal
        self._names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.flags = array("b")
        self._open = -1

    def _begin(self, name: str, flags: int) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open)
        self.flags.append(flags)
        self.end.append(0.0)
        self._open = idx
        self.start.append(perf_counter())
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._open = self.parent[idx]

    def call(self, name, fn, *args, _flags=0, **kwargs):
        idx = self._begin(name, _flags)
        try:
            return fn(*args, **kwargs)
        except self._refusal:
            self.flags[idx] |= REFUSED
            raise
        finally:
            self._finish(idx)

    def extra(self, name, fn, *args, **kwargs):
        """A call the untraced run does not make (counts, layer splits)."""
        return self.call(name, fn, *args, _flags=EXTRA, **kwargs)

    @contextmanager
    def span(self, name):
        idx = self._begin(name, 0)
        try:
            yield
        finally:
            self._finish(idx)

    # -- summaries ----------------------------------------------------------

    def __len__(self):
        return len(self.start)

    def name_of(self, idx: int) -> str:
        return self._names[self.name_id[idx]]

    def self_times(self) -> dict:
        """Seconds per span name, minus the time covered by child spans."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out: dict = {}
        for i in range(n):
            name = self._names[self.name_id[i]]
            out[name] = out.get(name, 0.0) + (
                self.end[i] - self.start[i] - covered[i]
            )
        return out

    def durations(self, name: str) -> list:
        nid = self._name_ids.get(name)
        return [
            self.end[i] - self.start[i]
            for i in range(len(self.start))
            if self.name_id[i] == nid
        ]

    def refusals(self, name: str) -> int:
        nid = self._name_ids.get(name)
        return sum(
            1
            for i in range(len(self.start))
            if self.name_id[i] == nid and self.flags[i] & REFUSED
        )

    def extra_seconds(self) -> float:
        """Time inside extra spans (they never nest)."""
        return sum(
            self.end[i] - self.start[i]
            for i in range(len(self.start))
            if self.flags[i] & EXTRA
        )

    def write(self, path) -> None:
        """One CSV row per span: id, parent, name, start_s, end_s, flags."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s,flags\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.parent[i]},{self.name_of(i)},"
                    f"{self.start[i] - t0:.7f},{self.end[i] - t0:.7f},"
                    f"{self.flags[i]}\n"
                )
