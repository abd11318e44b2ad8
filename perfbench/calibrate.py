"""Machine-speed calibration for the timed metrics.

The benchmark runs on shared virtual CPUs whose speed changes by up to a
factor of 1.8, within seconds as well as over minutes, and the two CPUs
change independently.  So a timing is reported in reference seconds: the
measured time times REFERENCE_S over the mean time a fixed kernel took in
the same process around and during the measurement.  The kernel is
fraction-free integer elimination, the same kind of interpreted big-int
list arithmetic as the program's own work, so it slows down with the
program when the CPU is contended.
"""

import signal
import statistics
import time

# Kernel time on an uncontended 2 GHz virtual CPU; the unit of the metrics.
REFERENCE_S = 0.0002
# Interval of the kernel timings taken while a call runs.
TICK_S = 0.05

_MATRIX = [[(i * 7 + j * 3) % 5 - 2 for j in range(7)] for i in range(7)]


def _kernel():
    for _ in range(10):
        a = [r[:] for r in _MATRIX]
        prev = 1
        for k in range(6):
            if a[k][k] == 0:
                swap = next((i for i in range(k + 1, 7) if a[i][k]), None)
                if swap is None:
                    continue
                a[k], a[swap] = a[swap], a[k]
            pk, rk = a[k][k], a[k]
            for ri in a[k + 1:]:
                aik = ri[k]
                for j in range(k + 1, 7):
                    ri[j] = (pk * ri[j] - aik * rk[j]) // prev
            prev = pk


def kernel_seconds():
    """One timing of the kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class Meter:
    """Times one call and the machine speed while it runs.

    Use as ``with meter:`` around the call.  Afterwards ``elapsed`` is the
    call's wall time without the kernel runs that interrupted it, and
    ``kernel`` the mean kernel time: one timing right before and one right
    after the call, and one every TICK_S during it, from a SIGALRM handler.
    Ticks keep up with speed changes inside a long call.  Every timing is
    of a single kernel run that follows other work, so all of them see the
    kernel's code and data equally cold; repeated runs would be faster.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self.elapsed = self.kernel = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(kernel_seconds())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.samples = [kernel_seconds()]
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.elapsed = elapsed - self.spent
        self.samples.append(kernel_seconds())
        self.kernel = statistics.mean(self.samples)
        return False
