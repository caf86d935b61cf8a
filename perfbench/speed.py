"""Wall-clock times corrected for the speed of the core they ran on.

On a shared virtual machine the speed of each virtual core wanders by
10-40% on every time scale from tens of milliseconds to minutes (other
tenants on the same physical core), and the two cores of a 2-vCPU machine
wander independently.  Ten runs of the same code then differ by more than
the changes the benchmark has to catch.

``SpeedProbe`` measures the speed of the benchmark's own thread while the
program runs.  An interval timer interrupts the process every ``PERIOD``
seconds of wall time; the signal handler runs a fixed calibration chunk
and records when it started and how long it took.  Of the kinds of
calibration work tried (dictionary lookups, random reads from a large list,
frozenset algebra, float arithmetic), frozenset algebra plus arithmetic
followed the program's own speed best: repeats of one input, each
corrected, varied by about 5% where their wall-clock times varied by 17%.

``scaled(start, end)`` turns a wall-clock interval into seconds on a
reference core: the chunk time spent inside the interval is subtracted, and
the rest is multiplied by ``REFERENCE_CHUNK_S`` over the mean duration of
the chunks that ran during the interval and within ``MARGIN`` seconds of it.
``REFERENCE_CHUNK_S`` is a fixed constant (the chunk's median time on a
quiet 2-vCPU x86-64 machine with Python 3.11), so a change that makes the
program slower shows in full, whatever the machine's speed at the time.
"""

from __future__ import annotations

import gc
import signal
from array import array
from bisect import bisect_left, bisect_right
from time import perf_counter

PERIOD = 0.005
MARGIN = 0.02
MIN_CHUNKS = 8
REFERENCE_CHUNK_S = 0.0005

_SETS = tuple(frozenset((i, i * 7 % 13, i % 5, i // 3)) for i in range(64))


def _chunk() -> float:
    """Frozenset algebra and float arithmetic, the two kinds of work whose
    speed tracked the program's best among the kinds tried."""
    acc, x, sets = 0, 1.0001, _SETS
    for i in range(360):
        a = sets[i % 61] | sets[i % 61 + 3]
        acc += len(a) + (a <= sets[i % 61 + 1]) + hash(a) % 3
    for k in range(1500):
        acc += (k * 7) % 13
        x = x * 1.0000001 + 0.5 / (k + 1)
    return acc + x


class SpeedProbe:
    """Samples the thread's speed from a timer signal while the ``with``
    block runs; the timer and the previous handler are restored on exit."""

    def __init__(self):
        self.starts = array("d")  # perf_counter() at each chunk's start
        self.durations = array("d")  # each chunk's wall time, seconds
        self._saved = None
        self._busy = False

    def _handler(self, signum, frame) -> None:
        # A tick that arrives while a chunk runs (the core was taken away
        # for a whole period) is dropped rather than nested in that chunk.
        if self._busy:
            return
        self._busy = True
        # The chunk's sets are freed before it returns; with collections
        # off meanwhile, the program's next collection comes when it would
        # have come without the probe.
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        _chunk()
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)
        if enabled:
            gc.enable()
        self._busy = False

    def __enter__(self) -> SpeedProbe:
        self._saved = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def scaled(self, start: float, end: float) -> float:
        """Seconds the interval [start, end] would have taken on the reference core."""
        inside = self.durations[bisect_left(self.starts, start):bisect_right(self.starts, end)]
        margin = MARGIN
        while True:
            lo = bisect_left(self.starts, start - margin)
            hi = bisect_right(self.starts, end + margin)
            if hi - lo >= MIN_CHUNKS or (lo == 0 and hi == len(self.starts)):
                break
            margin *= 2
        if hi == lo:
            raise RuntimeError("no speed samples: the timer signal never ran")
        near = self.durations[lo:hi]
        return (end - start - sum(inside)) * REFERENCE_CHUNK_S * len(near) / sum(near)
