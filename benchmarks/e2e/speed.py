"""Times scaled to a reference CPU speed.

A shared host's CPU speed is not steady: while another tenant loads the
same physical core, the same Python code runs about 1.7 times slower,
in episodes of one to tens of seconds.  A raw wall time then measures
the neighbours as much as the program.  The harness therefore pins
itself and every process it starts to one CPU, and a
:class:`SpeedMeter` thread times a fixed reference loop on that CPU
every :data:`PERIOD_S` seconds.  An interval's *scaled* duration is its
wall time multiplied by the mean of ``REFERENCE_S / loop time`` over the
samples around it: the time the interval would have taken with the
reference loop running in :data:`REFERENCE_S`.

The reference loop is pure Python and touches nothing under ``src/``, so
a change to the program moves scaled times exactly as it moves raw
ones.  Code that slows down less than the loop under contention (the
loop is bound by the core, real work partly by memory) is
over-corrected, NumPy-bound counting by up to a third; hence
:meth:`SpeedMeter.pace`, and the README's record of the spread left.
"""

from __future__ import annotations

import bisect
import os
import threading
import time

PERIOD_S = 0.05
"""Seconds between speed samples."""

REFERENCE_S = 1.0e-4
"""The reference loop's time at the reference speed (a quiet core of the
2-vCPU Xeon host the bounds were set on)."""

SLOW_SHARE = 0.8
"""A sample below this share of the fastest one marks a slow episode
(they read at 0.55 to 0.65 of it on the reference host)."""


def reference_loop() -> None:
    d: dict = {}
    for i in range(1000):
        d[i % 97] = d.get(i % 97, 0) + i


def sample() -> float:
    """CPU seconds of the fastest of three reference loops (thread CPU
    time, so waiting for the interpreter lock or the CPU is excluded)."""
    best = float("inf")
    for _ in range(3):
        c0 = time.thread_time()
        reference_loop()
        best = min(best, time.thread_time() - c0)
    return best


def pin_to_one_cpu() -> set:
    """Pin the calling thread (and so every thread and process it starts
    afterwards) to one CPU; return the previous CPU set."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    return cpus


class SpeedMeter:
    """Samples the speed of the CPU it runs on, on a daemon thread.

    Start it after :func:`pin_to_one_cpu`, so that it shares the CPU
    with the work it scales.  ``wait_budget_s`` is the most
    :meth:`pace` may wait in total.
    """

    def __init__(self, wait_budget_s: float = 0.0):
        self.waited_s = 0.0
        self._budget_s = wait_budget_s
        self._times: list[float] = []
        self._ratios: list[float] = []
        # a run that starts inside a slow episode has not seen a fast
        # sample yet: the reference speed stands in for one
        self._best = 1.0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _record(self) -> None:
        t = time.perf_counter()
        ratio = REFERENCE_S / sample()
        self._times.append(t)
        self._ratios.append(ratio)
        self._best = max(self._best, ratio)

    def pace(self) -> None:
        """Call before an operation: while the CPU reads slower than
        :data:`SLOW_SHARE` of the fastest sample so far (or of the
        reference speed), wait (up to the budget left).  On a host
        slower than the reference one, the first operation spends the
        whole budget, the same way on every run.

        Scaling corrects a slow episode exactly only for code that slows
        down like the reference loop; NumPy-bound counting slows down
        less and would read too fast.  Starting operations outside slow
        episodes keeps the correction small.
        """
        while True:
            with self._lock:
                if (self._ratios[-1] >= SLOW_SHARE * self._best
                        or self.waited_s >= self._budget_s):
                    return
                self.waited_s += PERIOD_S
            time.sleep(PERIOD_S)

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self._record()

    def start(self) -> "SpeedMeter":
        self._record()
        self._thread = threading.Thread(target=self._loop, name="speed-meter",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self._record()

    def factor(self, t0: float, t1: float) -> float:
        """Mean speed ratio over ``[t0, t1]`` (``perf_counter`` times),
        from the samples inside it plus the nearest one on each side."""
        lo = max(bisect.bisect_left(self._times, t0) - 1, 0)
        hi = bisect.bisect_right(self._times, t1) + 1
        ratios = self._ratios[lo:hi]
        if not ratios:
            raise RuntimeError("speed meter has no samples")
        return sum(ratios) / len(ratios)

    def scaled(self, t0: float, t1: float) -> float:
        """``t1 - t0`` in seconds at the reference speed."""
        return (t1 - t0) * self.factor(t0, t1)

    @property
    def samples(self) -> int:
        return len(self._ratios)
