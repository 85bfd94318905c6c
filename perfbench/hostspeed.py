"""Host speed, measured with a fixed reference kernel between timed work.

On a shared host the speed of a core drifts by tens of percent, over
seconds and over minutes, at constant work; process CPU time drifts
with wall time, so it does not help. A run that happens to fall in a
slow minute would read as a regression. To take that drift out, the
benchmark interleaves a fixed reference kernel with the work it times,
in small units run from a timer, and reports

    normalized seconds = measured seconds * REFERENCE_UNIT_S / (mean unit time)

that is, the time the work would have taken on a host that runs one
unit in ``REFERENCE_UNIT_S``. The kernel never touches willmorelab, so a
change to the program moves the measured seconds and not the unit time.

The kernel mixes NumPy ufuncs on a cache-sized array with a pure-Python
loop, as the cache-sized commands and the per-call overhead of the
suites do. On a 2-vCPU Xeon it tracked the drift of the quadrature
passes too, better than a kernel streaming over a fresh 64 MiB array,
and it adds nothing to a workload's peak memory.
"""

from __future__ import annotations

import signal
import time

import numpy as np

REFERENCE_UNIT_S = 0.005  # about the median unit time on a 2-vCPU Xeon
# Timer interval: one 5 ms unit per tick is at most 15% of the time.
TICK_S = 0.033
_X = np.linspace(0.0, 1.0, 16384)  # 128 KiB: cache-sized


def reference_unit() -> float:
    """One unit of fixed work."""
    acc = {}
    for i in range(12):
        y = np.sin(_X) * _X + np.cos(_X)
        acc[i] = float(y[i])
    total = 0.0
    for i in range(3000):
        total += acc[i % 12] * 0.5
    return total


class HostClock:
    """Counts reference units and the seconds they took.

    :meth:`run_units` runs units back to back. Used as a context manager,
    the clock instead runs one unit on every tick of an interval timer
    (``SIGALRM``) while the block runs, so the units sample the host's
    speed all through the timed work, inside long commands too; a tick
    that falls inside a long NumPy call waits for it to return. The
    caller takes the units' seconds out of the time it measured.
    """

    def __init__(self):
        self.units = 0
        self.seconds = 0.0

    def run_units(self, seconds: float) -> None:
        """Run units until they have taken ``seconds`` (at least one unit)."""
        start = time.perf_counter()
        while True:
            reference_unit()
            self.units += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                break
        self.seconds += elapsed

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        self.run_units(0.0)

    def normalize(self, work_s: float) -> float:
        """``work_s`` in seconds at the reference speed."""
        return work_s * REFERENCE_UNIT_S * self.units / self.seconds
