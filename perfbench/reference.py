"""Reference kernel: a fixed piece of CPU work that belongs to the benchmark.

The host is shared: for stretches of seconds to minutes, other tenants on
the same physical cores slow this process by up to about 2x, and process CPU
time slows with it (it is contention for the core, not time spent off it).
The reference kernel is timed between every two items and every SAMPLE_S
seconds during an item, and each item's time is divided by the kernel's mean
time over the item, so a stretch of contention inflates both and cancels.
The kernel mixes what the library's hot loops do (small numpy ufunc calls,
float arithmetic, dict and list work in the interpreter); nothing in it
calls ``hypcycles``, so a change to the library cannot move it.

``Clock.time`` reports a call's wall time rescaled to an uncontended host:
``wall * NOMINAL_S / mean kernel time``.
"""

import math
import signal
import statistics
from time import perf_counter

import numpy as np

# fastest time of one kernel run on the machine of baseline.json, uncontended
NOMINAL_S = 0.0009
# period of the kernel samples taken during a call
SAMPLE_S = 0.1

_X = np.linspace(0.0, 1.0, 15)


def _kernel():
    s = 0.0
    for k in range(200):
        y = np.exp(-_X * (k % 7 + 1)) * np.cos(_X)
        s += float(y.sum()) + math.sqrt(k + 1.0)
        d = {i: i * k for i in range(8)}
        s += sum(d.values()) * 1e-9
    return s


def kernel_time():
    """The kernel's time now: fastest of three back-to-back runs, so that a
    single preemption does not count as contention."""
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        _kernel()
        best = min(best, perf_counter() - t0)
    return best


class Clock:
    """Times calls against the kernel.  The kernel is sampled between calls
    (consecutive calls share the sample between them) and every SAMPLE_S
    seconds during a call, from a SIGALRM handler, so that contention which
    starts and ends inside a long call is seen too.  The handler's own time
    is taken out of the call's time."""

    def __init__(self):
        self.last = kernel_time()
        self._samples = []
        self._paused = 0.0
        self._active = False
        # installed once and never restored: a SIGALRM still pending after
        # the timer is disarmed must not meet the default action
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self._active:
            t0 = perf_counter()
            self._samples.append(kernel_time())
            self._paused += perf_counter() - t0

    def time(self, fn, *args, in_process=True):
        """(result, wall seconds, seconds rescaled to an uncontended host).
        When the call's work runs in a child process (``in_process=False``)
        the samples run beside it, and their time is not taken out."""
        self._samples, self._paused = [self.last], 0.0
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        t0 = perf_counter()
        try:
            out = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall = perf_counter() - t0
            self._active = False
        if in_process:
            wall -= self._paused
        self.last = kernel_time()
        self._samples.append(self.last)
        scaled = wall * NOMINAL_S / statistics.fmean(self._samples)
        return out, wall, scaled
