"""Timing of calls together with the machine's speed while they run
(bench/README.md, "Machine speed").

Standard library only, so that the set-up probe can start sampling before
it imports anything else.
"""
from __future__ import annotations

import resource
import signal
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

SAMPLE_EVERY_S = 0.02   # speed samples while a timed call runs
SAMPLE_ITERATIONS = 4000
# Time of one speed sample on the sizing machine (a 2-vCPU Intel Xeon
# virtual machine) in its fast state: speed 1, at which a reference
# second is a second.
SAMPLE_NOMINAL_S = 0.00040


def cpu_seconds() -> float:
    """User + system CPU time of this process and its children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Timing:
    wall_s: float = 0.0       # without the samples taken during the call
    cpu_s: float = 0.0        # likewise
    sampling_s: float = 0.0   # wall time of the samples taken during it
    speed: float = 0.0


class SpeedMeter:
    """Times calls and the machine's speed while they run.

    A speed sample is the wall time of a fixed pure-Python loop. One is
    taken before and one after each timed call and, when `during` is set,
    one every SAMPLE_EVERY_S while it runs, from a SIGALRM handler whose
    own wall and CPU time are taken out of the call's. The speed is
    SAMPLE_NOMINAL_S over the mean sample time. Use it as a context
    manager, which installs and removes the handler.
    """

    def __init__(self, during: bool):
        self.during = during
        self._samples: list[float] = []
        self._armed = False
        self._spent_wall = self._spent_cpu = 0.0
        self._old_handler = None

    def __enter__(self):
        if self.during:
            self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
            # restart system calls the timer interrupts, in C code too
            signal.siginterrupt(signal.SIGALRM, False)
        return self

    def __exit__(self, *exc):
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old_handler)

    def _sample(self) -> None:
        acc = 0.0
        t0 = perf_counter()
        for i in range(SAMPLE_ITERATIONS):
            acc += abs(float(i % 7) - 3.0)
        self._samples.append(perf_counter() - t0)

    def _on_alarm(self, signum, frame) -> None:
        if not self._armed:
            return
        t0, c0 = perf_counter(), cpu_seconds()
        self._sample()
        self._spent_cpu += cpu_seconds() - c0
        self._spent_wall += perf_counter() - t0

    @contextmanager
    def timed(self):
        """Time the body; the Timing is filled in when it ends."""
        timing = Timing()
        self._samples.clear()
        self._spent_wall = self._spent_cpu = 0.0
        self._sample()
        c0, t0 = cpu_seconds(), perf_counter()
        if self.during:
            self._armed = True
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield timing
        finally:
            if self.during:
                self._armed = False
                signal.setitimer(signal.ITIMER_REAL, 0)
            t1, c1 = perf_counter(), cpu_seconds()
            timing.wall_s = t1 - t0 - self._spent_wall
            timing.cpu_s = c1 - c0 - self._spent_cpu
            timing.sampling_s = self._spent_wall
            self._sample()
            timing.speed = SAMPLE_NOMINAL_S / statistics.fmean(self._samples)
