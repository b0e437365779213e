"""Speed probe: how fast the host runs a fixed reference kernel during a pass.

The benchmark shares a few cores of a host whose speed drifts: for minutes
at a time the same pass runs up to a third slower, in CPU time as well as in
wall time, and a run of 60 s sits inside one such spell.  ``SpeedProbe``
times a small fixed kernel of pure Python integer work about ten times a
second while a pass runs, from a SIGALRM handler, and keeps the probe's own
cost so that it can be taken out of the pass's times.  ``run.py`` scales a
pass's times by ``REFERENCE_S`` over the pass's mean kernel time: the
pass's times on the host at its reference speed.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

# Kernel time on the reference machine (2-vCPU Intel Xeon VM at 2.1 GHz,
# CPython 3.11.7); only a scale for the reported times.
REFERENCE_S = 0.0006


def kernel() -> int:
    """The fixed reference work: integer arithmetic that allocates no containers."""
    acc = 0
    for i in range(2000):
        acc ^= (i * 2654435761 >> 7) & 0xFFFF
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return acc


class SpeedProbe:
    """Time ``kernel`` every ``period`` seconds until closed, and once at each end.

    Each tick runs the kernel twice and times the second run, so that what
    the program left in the caches does not weigh on the sample.  The
    collector is off during a tick: a collection there would measure the
    program's heap, not the host.
    """

    def __init__(self, period: float = 0.1):
        self.period = period
        self.samples: list[float] = []
        self.spent_wall = 0.0  # the probe's own cost, to take out of the pass
        self.spent_cpu = 0.0
        self._old_handler = None

    def tick(self, *_signal_args) -> None:
        collecting = gc.isenabled()
        gc.disable()
        c0, t0 = time.process_time(), time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        kernel()
        t2 = time.perf_counter()
        self.spent_cpu += time.process_time() - c0
        if collecting:
            gc.enable()
        self.samples.append(t2 - t1)
        self.spent_wall += t2 - t0

    def __enter__(self) -> "SpeedProbe":
        self.tick()
        self._old_handler = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self.tick()

    def mean_s(self) -> float:
        return statistics.fmean(self.samples)
