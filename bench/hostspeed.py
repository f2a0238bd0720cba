"""Host-speed probe: a fixed numpy kernel timed in CPU time around and
during each operation, so that the operation's CPU time can be put at one
reference host speed.

CPU time leaves out the time other tenants of a shared VM take the vCPU
away, but not the host running this vCPU slower or faster.  On a 2-vCPU
VM the CPU time of one fixed pair of library calls drifted by 6.7%
(interquartile range over median of 16-second windows, 240 s), while the
same windows divided by this probe's median CPU time spread by 2.1%.  The
probe is benchmark code that no change to the library touches, made of
the same kind of work the library does (small dense numpy vectors driven
by a Python loop).  All times are CPU times of the calling thread: the
library and the probe are single-threaded.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REFERENCE_S = 1.2e-3       # CPU time of one probe at the reference host speed
STEPS = 100

_V = np.linspace(-1.0, 1.0, 24)
_M = np.outer(_V, _V) + np.eye(24)


def probe():
    """CPU seconds one run of the fixed kernel takes now."""
    c0 = time.thread_time()
    x = _V.copy()
    for _ in range(STEPS):
        y = _M @ x
        x = np.maximum(y - x.mean(), 0.0)
        x = x / (1.0 + np.linalg.norm(x)) + _V
    dt = time.thread_time() - c0
    if not np.isfinite(x).all():
        raise ArithmeticError("host-speed probe diverged")
    return dt


def speed_factor(samples):
    """Multiplier that puts a CPU time at the reference host speed, from
    the probes taken around and during it."""
    return REFERENCE_S / statistics.fmean(samples)


class Sampling:
    """Probes during one operation, so that a long one is scaled by the
    host's speed while it ran and not only at its ends: every
    ``INTERVAL_S`` of CPU time a ``SIGPROF`` handler runs one probe.
    ``cost_s`` is the handler's own CPU time, for the caller to take out
    of the operation's time.  Inactive, it does nothing."""

    INTERVAL_S = 0.05

    def __init__(self, active=True):
        self.active = active
        self.samples = []
        self.cost_s = 0.0

    def _handler(self, signum, frame):
        c0 = time.thread_time()
        self.samples.append(probe())
        self.cost_s += time.thread_time() - c0

    def __enter__(self):
        if self.active:
            self._old = signal.signal(signal.SIGPROF, self._handler)
            signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, self._old)
        return False
