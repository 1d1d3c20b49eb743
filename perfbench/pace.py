"""Host-speed normalisation for the benchmark's timings.

The 2-core x86_64 host the benchmark was calibrated on changes speed every
few seconds: for stretches of 1-10 s the same code runs about 1.5x slower,
in CPU time as well as wall time.  A run-wide median then depends on how
much of the run fell into the slow stretches, and runs of one commit
spread by 25% or more.

A fixed pure-Python probe (about 2 ms) slows down with the host: over
40 s its time correlated 0.75-0.8 with a training epoch's.  :class:`Pace`
runs the probe between operations, never inside one, and cuts the run
into segments at those points.  Every time measured in a segment is
multiplied by ``REFERENCE_PROBE_S / mean(probe before, probe after)``, so
reported times are "seconds at reference host speed".  On the calibration
host, 3.4 s windows of fits spread 0.27 raw and 0.06 normalised.  The
probe is benchmark code, so no change to ``src/`` can move it.
"""

from __future__ import annotations

import os
import time
from typing import List, Tuple

# The probe's time in the host's fast state (5th-25th percentile over 20 s).
REFERENCE_PROBE_S = 0.0016
PROBE_ITERATIONS = 12000


def probe() -> float:
    """Seconds for a fixed loop of interpreter work (arithmetic, dict stores)."""
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(PROBE_ITERATIONS):
        acc += (i * i) % 7
        table[i & 255] = acc
    return time.perf_counter() - start


def host_probe() -> float:
    """Mean probe time over every CPU this process may run on.

    The CPUs of the calibration host change speed independently over short
    spans, and a fleet's work runs on all of them, so the probe visits each
    one (pinning only the calling thread, then restoring its mask).
    """
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:  # no affinity control on this platform
        return probe()
    if len(cpus) < 2:
        return probe()
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(probe())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


class Pace:
    """Segments a run at probe points and scales what was timed in each."""

    def __init__(self, min_segment_s: float = 0.1) -> None:
        self.min_segment_s = min_segment_s
        self.scaled_s = 0.0  # normalised wall time of every closed segment
        self.probes: List[float] = []
        self._pending: List[Tuple[list, List[float]]] = []
        self._last = host_probe()
        self._start = time.perf_counter()

    def ms(self, target: list, value_ms: float) -> None:
        """Append a time to ``target``, normalised when the segment closes."""
        self._pending.append((target, [value_ms]))

    def ms_many(self, target: list, values_ms: List[float]) -> None:
        self._pending.append((target, values_ms))

    def cut(self) -> None:
        """Close the current segment; call only between operations."""
        wall = time.perf_counter() - self._start
        now = host_probe()
        factor = REFERENCE_PROBE_S / ((self._last + now) / 2)
        for target, values in self._pending:
            target.extend(value * factor for value in values)
        self._pending.clear()
        self.scaled_s += wall * factor
        self.probes.append(now)
        self._last = now
        self._start = time.perf_counter()

    def maybe_cut(self) -> None:
        if time.perf_counter() - self._start >= self.min_segment_s:
            self.cut()
