"""The machine's speed, sampled while the timed parts of a run execute.

On a shared host the CPU runs the same code up to ~25% faster or slower for
tens of seconds at a time, whatever else the process does; a run of 15-45 s
cannot average that out. A fixed reference kernel slows down with it: timed
every ``INTERVAL_S`` while the program runs, its 10-s means correlate
0.94-0.98 with those of ``pipeline.window_recording``. So every time metric
is reported in reference seconds: the seconds the program took (the kernel's
own time taken out), times ``REFERENCE_S`` over the kernel's median time in
the same stretch. The kernel is the benchmark's own code, so a change to
capstate cannot move it.

``Sampler`` runs the kernel from a ``SIGALRM`` handler, which Python calls in
the main thread between bytecodes; during a long numpy call the sample waits
until the call returns. The process stays single-threaded.
"""

import bisect
import signal
import statistics
import time

import numpy as np

# About the kernel's median time on the 2-vCPU VM the baseline was recorded
# on (Python 3.11.7, numpy 2.4.6), where it ranged 7-11 ms with the host's
# load; it only sets the scale of reference seconds.
REFERENCE_S = 0.008
INTERVAL_S = 0.2

_X = np.random.default_rng(0).standard_normal(1 << 14)
# Work buffers, so that a sample allocates nothing and leaves the program's
# peak RSS alone.
_Y, _A, _B, _S = (np.empty_like(_X) for _ in range(4))
_F = np.empty(len(_X) // 2 + 1, dtype=complex)


def kernel() -> None:
    """A fixed mix of what capstate spends its time on: a scalar Python loop
    (IIR and peak scans) and elementwise numpy, an FFT and a sort on a long
    array. (Small matrix products and dict-heavy Python were tried too; they
    swing more than the workloads do.)"""
    acc, y1 = 0.0, 0.0
    for i in range(40000):
        y1 = 0.9 * y1 + (i % 17) * 0.1
        acc += y1
    y = _Y
    y[:] = _X
    for _ in range(4):
        np.sin(y, out=_A)
        np.multiply(_A, 0.5, out=_A)
        np.multiply(y, 0.25, out=_B)
        np.add(_A, _B, out=_A)
        np.cumsum(_A, out=y)
        y -= y.mean()
        np.fft.rfft(y, out=_F)
        _S[:] = y
        _S.sort()


class Sampler:
    """Times ``kernel`` every ``INTERVAL_S`` of wall time while active.

    ``with sampler:`` turns it on, and leaving the block takes one sample
    if none was taken inside it; ``samples`` keeps (start, end) of every
    kernel call, in ``time.perf_counter`` seconds, in order.
    """

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.samples: list[tuple[float, float]] = []
        self._entered = 0.0
        self._ticking = False
        self._previous = None

    def _tick(self, signum, frame):
        if self._ticking:  # a signal that came during a sample
            return
        self._ticking = True
        try:
            t0 = time.perf_counter()
            kernel()
            self.samples.append((t0, time.perf_counter()))
        finally:
            self._ticking = False

    def __enter__(self):
        self._entered = time.perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples or self.samples[-1][0] < self._entered:
            self._tick(None, None)  # a stretch shorter than the interval
        return False

    def _between(self, t0: float, t1: float) -> list[tuple[float, float]]:
        lo = bisect.bisect_left(self.samples, (t0, t0))
        hi = bisect.bisect_right(self.samples, (t1, t1))
        return self.samples[max(lo - 1, 0):hi]

    def busy(self, t0: float, t1: float) -> float:
        """Kernel seconds inside [t0, t1]."""
        return sum(max(0.0, min(b, t1) - max(a, t0)) for a, b in self._between(t0, t1))

    def net(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] the program had, the kernel's taken out."""
        return (t1 - t0) - self.busy(t0, t1)

    def factor(self, t0: float, t1: float) -> float:
        """Reference seconds per second in [t0, t1]: ``REFERENCE_S`` over the
        median time of the kernel calls that started in it, or of the first
        call after it when none did."""
        times = [b - a for a, b in self._between(t0, t1) if t0 <= a <= t1]
        if not times:
            after = bisect.bisect_left(self.samples, (t1, t1))
            if after == len(self.samples):
                raise ValueError(f"no speed sample in or after a {t1 - t0:.3f}-s stretch")
            times = [self.samples[after][1] - self.samples[after][0]]
        return REFERENCE_S / statistics.median(times)
