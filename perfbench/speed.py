"""Machine-speed calibration.

The shared 2-core host this benchmark was written on runs the same
pure-Python work anywhere from 14 to 30 ms depending on the moment
(other tenants share its physical cores; CPU time inflates as much as
wall time, and the speed changes within a second), so raw wall times
drift by +-20% between runs.  The benchmark therefore pins itself and
its child processes to one CPU and runs a fixed probe loop, which
touches nothing of the library, between timed items every ``INTERVAL``
seconds.  Every timed interval is converted to *reference seconds*
(units ``ref_s``/``ref_ms``): each stretch between two probes counts at
``REFERENCE_S`` over the mean time of those two probes (averaging more
probes, further away, tracked the speed worse), i.e. the time
the work would take on this host at the speed where the probe takes
``REFERENCE_S``.  Raw times are printed in the report lines next to them.

Fresh-process timings (the cold CLI call, the import cost) follow the
in-process probe poorly: process start-up is mostly kernel and loader
work.  They are calibrated the same way with a different probe, a bare
interpreter start (``python -c pass``) between samples, whose reference
is ``BARE_REFERENCE_S``.

The probe allocates no objects the cyclic garbage collector tracks, so
a library change that grows the heap cannot slow the probe through
collections and flatter itself.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from time import perf_counter

INTERVAL = 0.1        # seconds of measurement between probes
PROBE_ITERATIONS = 10000
REFERENCE_S = 0.0045  # typical probe time on the host described above
BARE_REFERENCE_S = 0.075  # typical bare interpreter start there


def pin_to_one_cpu() -> None:
    """Keep this process (and the processes it starts) on one CPU, so
    the probe and the measured work see the same core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def probe_loop() -> int:
    table = {}
    acc = 0
    for i in range(PROBE_ITERATIONS):
        key = (i * 2654435761) & 0xFFFFF
        hit = table.get(key & 0x3FF)
        if hit is None:
            hit = table[key & 0x3FF] = key | i
        acc ^= (hit & -hit) | (hit >> 3)
    return acc


class Speedometer:
    """Probe times along the run's timeline."""

    def __init__(self, probe=probe_loop, reference: float = REFERENCE_S):
        self._probe = probe
        self.reference = reference
        self.starts: list = []
        self.ends: list = []
        self.samples: list = []
        self._due = 0.0

    def probe(self) -> None:
        t0 = perf_counter()
        self._probe()
        t1 = perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.samples.append(t1 - t0)
        self._due = t1 + INTERVAL

    def tick(self) -> None:
        """Probe if one is due; call only between library calls."""
        if perf_counter() >= self._due:
            self.probe()

    def raw_seconds(self, a: float, b: float) -> float:
        """Wall seconds in [a, b] outside the probes."""
        i, j = bisect_right(self.ends, a), bisect_right(self.starts, b)
        return b - a - sum(self.samples[i:j])

    def ref_seconds(self, a: float, b: float) -> float:
        """Reference seconds for the wall interval [a, b], leaving out
        probes inside it.  Needs a probe at or after ``b``."""
        n = len(self.samples)
        i = bisect_right(self.ends, a)  # first probe ending after a
        t, total = a, 0.0
        while True:
            nxt = self.starts[i] if i < n else b
            stop = min(b, nxt)
            if stop > t:
                around = self.samples[max(i - 1, 0)] + self.samples[min(i, n - 1)]
                total += (stop - t) * 2 * self.reference / around
            if nxt >= b:
                return total
            t = self.ends[i]
            i += 1
