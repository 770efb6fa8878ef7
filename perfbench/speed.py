"""Host-speed calibration, so times compare across a noisy machine.

On a shared 2-vCPU virtual machine the same code runs up to 40 % slower for
minutes at a time: a fixed `refine` workload took 3.8–7.0 s per block of 20
repetitions.  A fixed pure-Python calibration slice slows down with it: the
ratio of the two stayed within 7.34–7.87.  So every measured interval is
scaled by REFERENCE_S over the duration of the calibration slices taken just
before and just after it, which turns it into seconds at the reference speed.
The raw seconds are kept in the report file.
"""

from __future__ import annotations

import time

#: Duration of one calibration slice at the reference speed (seconds).  It is
#: the slice's typical time on the machine the benchmark was defined on and
#: must never change: every figure is scaled by it.
REFERENCE_S = 0.018
#: Default for how much measured work may pass between two slices (seconds).
INTERVAL_S = 0.5


def calibration_slice() -> float:
    """Run the fixed calibration work; return how long it took."""
    t0 = time.perf_counter()
    total, table = 0, {}
    for i in range(60_000):
        total += i * i
        table[i & 1023] = str(i)
    return time.perf_counter() - t0


class Speed:
    """Interleaves calibration slices with measured intervals.

    `add` takes a tuple of raw durations that belong together (for example a
    command's latency and its set-up share, or None where there is none);
    `scaled` returns every tuple added so far in order, each scaled by the
    slices around it.  With `interval` 0 every interval gets its own slices.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self._interval = interval
        self._slice = calibration_slice()
        self._since = time.perf_counter()
        self._pending: list[tuple[float, ...]] = []
        self._done: list[tuple[float, ...]] = []

    def add(self, raw: tuple[float, ...]) -> None:
        self._pending.append(raw)
        if time.perf_counter() - self._since >= self._interval:
            self._flush()

    def _flush(self) -> None:
        if not self._pending:
            return
        before, self._slice = self._slice, calibration_slice()
        self._since = time.perf_counter()
        factor = REFERENCE_S / ((before + self._slice) / 2)
        self._done.extend(tuple(None if v is None else v * factor for v in raw)
                          for raw in self._pending)
        self._pending = []

    def scaled(self) -> list[tuple[float, ...]]:
        self._flush()
        return self._done
