"""Machine-speed reference: a fixed kernel sampled while operations run.

The benchmark runs on virtual machines whose speed drifts by a third within
seconds, with the load of neighbours that share the physical cores.  That
drift does not show as steal time: the process keeps its CPU, but each
instruction takes longer.  So while the timed phase runs, a wall-clock timer
interrupts the caller every ``INTERVAL_S`` and times a fixed kernel that
does not depend on the program under test.  The kernel runs twice and only
the second, warm run is timed, so the sample does not depend on what the
interrupted operation left in the caches.  Each operation's time, less the
time spent in those interruptions, is scaled by the machine's speed around
it:

    reference seconds = measured seconds * NOMINAL_S / mean(kernel samples nearby)

``NOMINAL_S`` is the kernel's time on a quiet 2-vCPU Intel Xeon virtual
machine, so a reference second is about a second of wall time on that
machine when it is quiet.  The kernel mixes, in about equal shares, the
kinds of work the workloads do: Python big-integer arithmetic, many small
Python operations on tuples and dicts, and a small dense LAPACK solve.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from time import perf_counter

import numpy as np

#: median kernel time on the quiet reference machine, in seconds
NOMINAL_S = 0.85e-3
#: wall-clock interval between kernel samples
INTERVAL_S = 0.1
#: kernel samples that count for an operation: those taken while it ran,
#: widened on both sides to at least this many
NEAR_SAMPLES = 20

_rng = np.random.default_rng(20130601)
_M = _rng.standard_normal((40, 40)) + 1j * _rng.standard_normal((40, 40))
_RHS = _rng.standard_normal((40, 4)) + 1j * _rng.standard_normal((40, 4))
_KEYS = [(k % 37, k % 11) for k in range(1000)]
_COUNTS: dict = {}


def _kernel() -> int:
    # big-integer elimination steps, as in the exact backend
    a, b = 3 ** 300 + 7, 5 ** 250 + 11
    for _ in range(250):
        a, b = (a * 1103515245 + b) % (1 << 2048), (b * 12345 + a) % (1 << 2048)
    # many small Python operations, as in the per-call overhead; they
    # allocate no object the cyclic garbage collector tracks
    d = _COUNTS
    d.clear()
    for key in _KEYS:
        d[key] = d.get(key, 0) + len(key)
    # a small dense solve, as in projections and corrections
    np.linalg.lstsq(_M, _RHS, rcond=None)
    return len(d) + (a ^ b) % 2


class SpeedProbe:
    """Timer-driven kernel samples, and the speed scale they give.

    ``paused`` is the total time spent in samples so far; an operation's own
    time is its wall time less the growth of ``paused`` across it.
    """

    def __init__(self):
        self.at: list[float] = []
        self.seconds: list[float] = []
        self.paused = 0.0
        self._busy = False

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()  # a collection would time the program's heap
        start = perf_counter()
        _kernel()  # warm-up, untimed
        t0 = perf_counter()
        _kernel()
        t1 = perf_counter()
        self.at.append(t0)
        self.seconds.append(t1 - t0)
        self.paused += perf_counter() - start
        if collecting:
            gc.enable()
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the mean kernel time near [start, end].

        The mean follows the share of time the machine spent slow, as the
        operation's own time does; trimming a tenth at each end drops
        samples that one interrupt or preemption stretched.
        """
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        while hi - lo < NEAR_SAMPLES and (lo > 0 or hi < len(self.at)):
            lo, hi = max(0, lo - 1), min(len(self.at), hi + 1)
        near = sorted(self.seconds[lo:hi])
        cut = len(near) // 10
        return NOMINAL_S / statistics.fmean(near[cut:len(near) - cut])
