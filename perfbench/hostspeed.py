"""Host-speed probe: a round's wall time rescaled to a fixed host speed.

The benchmark's host is shared: the same round runs up to 2x slower in
phases that last from a second to minutes, while CPU time stays equal to
wall time. Raw wall times of two sets of runs of the same code then
spread by 20-35%, more than any bound can allow.

While a round runs, an interval timer interrupts it every ``PERIOD_S``
seconds of wall time and runs ``kernel``: a fixed piece of interpreter
and numpy work (about 1 ms) that does not touch hetcache, so a change to
the library cannot change it. The probe times it. The round's own work is
its wall time minus the probe time, and its host-normalised time is that
work times ``REF_PROBE_S`` / (mean probe time in the round): the time the
round would take on a host that runs the kernel in ``REF_PROBE_S``. The
probe samples the host's speed at the same moments as the round, not
before or after it, so phases shorter than a round cancel too.

    with HostProbe() as probe:
        start = time.perf_counter()
        ...                                   # the timed body
        wall = time.perf_counter() - start
    normalised = probe.normalise(wall)
"""
from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.05
REF_PROBE_S = 1.0e-3

_SMALL = np.arange(64, dtype=float)
_LARGE = np.linspace(0.0, 1.0, 16384)


def kernel():
    """The fixed probe work: dict and float arithmetic, small and large arrays."""
    acc = float(np.sqrt(np.exp(-_LARGE) + _LARGE * _LARGE).sum())
    table = {}
    for i in range(900):
        key = i % 31
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += (i % 13) ** 0.5
    for i in range(100):
        acc += float(np.exp(-_SMALL / (i + 1)).sum())
    return acc


class HostProbe:
    """Runs ``kernel`` every ``period_s`` of wall time inside a ``with`` block."""

    def __init__(self, period_s=PERIOD_S):
        self.period_s = period_s
        self.samples = []
        self.inside_s = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self.samples = []
        self.inside_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.inside_s = sum(self.samples)
        if not self.samples:
            # a block shorter than one period: sample once, just after it
            self._handler(None, None)
        return False

    def probe_s(self):
        """Mean time of one kernel run during the block."""
        return sum(self.samples) / len(self.samples)

    def normalise(self, wall_s):
        """``wall_s`` less the probe time inside it, at the reference speed."""
        return (wall_s - self.inside_s) * REF_PROBE_S / self.probe_s()
