"""Reference clock: elapsed times expressed at a fixed machine speed.

On a shared host, neighbours slow every computation of the benchmark, by up
to 1.7x over a few minutes; CPU time moves with wall time, so the code runs
slower rather than waiting.  A fixed numpy kernel, timed every INTERVAL_S
while the program runs, slows down with it.  `calibrate` turns an elapsed
time into seconds at the kernel's nominal speed:

    (elapsed - kernel time within it) * NOMINAL_S / mean kernel time

The mean, not the median, weights each stretch of the process by its
length.  The kernel uses numpy.fft directly and no code of the program, so
a change to the program moves a calibrated time as it moves the raw one.
"""

import signal
import time

import numpy as np

INTERVAL_S = 0.1  # kernel period while the clock runs
PAIRS = 10  # fftn/ifftn pairs on a 16^3 array per kernel call
# Fastest kernel time seen on the host the benchmark was written on
# (Intel Xeon at 2.0 GHz, 2 vCPUs); it only sets the scale.
NOMINAL_S = 1.8e-3


def calibrate(elapsed_s, kernel_s, kernel_times):
    """Elapsed time net of the kernel's own time, at the nominal speed."""
    mean = sum(kernel_times) / len(kernel_times)
    return (elapsed_s - kernel_s) * NOMINAL_S / mean


class RefClock:
    """Times the kernel at start, every INTERVAL_S after it (from a SIGALRM
    handler in the main thread) and once after stop."""

    def __init__(self):
        self._a = np.random.default_rng(0).standard_normal((16, 16, 16))
        self.times = []
        self._mark = 0
        self.kernel()  # warm-up, not kept
        self.times.clear()

    def kernel(self):
        t = time.perf_counter()
        for _ in range(PAIRS):
            np.fft.ifftn(np.fft.fftn(self._a))
        self.times.append(time.perf_counter() - t)

    def start(self):
        self.kernel()
        self._old = signal.signal(signal.SIGALRM, lambda *_: self.kernel())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def lap(self):
        """Kernel time since start or the previous lap."""
        spent = sum(self.times[self._mark:])
        self._mark = len(self.times)
        return spent

    def stop(self):
        """Stop sampling; return the kernel time of the last lap."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        spent = self.lap()
        self.kernel()
        return spent
