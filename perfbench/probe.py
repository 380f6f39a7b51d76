"""A sampler that measures how fast the host runs while the program runs.

The benchmark's machine is a few cores of a shared host whose speed
switches every few seconds, by up to half, with its neighbours' load.
Process CPU time moves with it, so neither wall nor CPU time of a body can
be compared between runs made minutes apart.  ``Sampler`` runs a tiny fixed
piece of work (``tick``; no ``mcduality``) from a timer signal every
``INTERVAL_S``, in the measured process itself, so its times follow the
host's speed on the core the program runs on, over the whole of the
interval measured.  The tick does the three kinds of work the workloads'
time goes to: the Python interpreter, numpy on an array that stays in
cache, and the kernel's page faults on fresh memory (a large numpy array
is a fresh mapping each time it is allocated).  ``run.py`` divides each
time by the interval's mean tick; the ticks cost about 2% of the time they
sample.
"""

import mmap
import signal
import time

import numpy as np

INTERVAL_S = 0.04
#: a tick slower than this many median ticks was interrupted; it is dropped
OUTLIER = 3.0
_LOOP = 3000
_PAGES = 64
_A = np.linspace(0.0, 1.0, 1 << 15)
_B = np.empty_like(_A)


def tick() -> float:
    """Seconds taken by the fixed piece of work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(_LOOP):
        acc += (i * 7) & 15
    for _ in range(4):
        np.multiply(_A, 1.000001, out=_B)
        np.add(_B, _A, out=_B)
    fresh = mmap.mmap(-1, _PAGES * mmap.PAGESIZE)
    for i in range(0, _PAGES * mmap.PAGESIZE, mmap.PAGESIZE):
        fresh[i] = 1
    fresh.close()
    return time.perf_counter() - t0


class Sampler:
    """Runs ``tick`` from ``SIGALRM`` and keeps ``(start, seconds)``."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _handler(self, _signum, _frame) -> None:
        self.samples.append((time.perf_counter(), tick()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean_tick(self, t0: float, t1: float) -> tuple[float, int]:
        """Mean tick started in ``[t0, t1)`` (0 when there is none), and the
        number of ticks averaged."""
        ticks = sorted(dt for t, dt in self.samples if t0 <= t < t1)
        if not ticks:
            return 0.0, 0
        median = ticks[len(ticks) // 2]
        kept = [dt for dt in ticks if dt <= OUTLIER * median]
        return sum(kept) / len(kept), len(kept)
