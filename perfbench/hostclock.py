"""Host-speed correction for timings taken on a shared machine.

On a shared virtual machine the speed of one core drifts by tens of percent
within minutes, as neighbours come and go. A fixed pure-Python reference
kernel, timed interleaved with the workload, slows down with it; dividing a
workload's time by the kernel's slowdown cancels most of the drift.
Reported times are thus seconds on a nominal host, one where the kernel
takes ``NOMINAL_KERNEL_S`` (about its median on a 2-vCPU shared virtual
machine with Python 3.11.7). The kernel never changes with specsim, so a
change to specsim should move corrected times as it moves raw ones;
``sensitivity.py`` checks that with a known extra cost inside the engine.

Samples are taken by an interval timer, so the workload needs no hook for
them. The kernel's own time is excluded from every interval measured with
``Stopwatch.now``; ``Stopwatch.nominal`` converts such an interval to
nominal-host seconds with the samples taken around and inside it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

NOMINAL_KERNEL_S = 0.003
SAMPLE_EVERY_S = 0.25  # interval of the timer-driven kernel samples
BRACKET_SAMPLES = 5  # kernel samples at the start and the end of a run


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, next):
        self.key = key
        self.value = value
        self.next = next


class _Set:
    __slots__ = ("tags", "ages")

    def __init__(self, ways: int):
        self.tags: list[int | None] = [None] * ways
        self.ages = [3] * ways


def _touch(s: _Set, line: int) -> int:
    tags, ages = s.tags, s.ages
    for way, tag in enumerate(tags):
        if tag == line:
            ages[way] = 0
            return way
    while True:
        for way, age in enumerate(ages):
            if age >= 3:
                tags[way] = line
                ages[way] = 1
                return way
        for way in range(len(ages)):
            ages[way] += 1


def kernel() -> int:
    """The mix the simulator's inner loops are made of: small-object
    allocation and attribute access, dict and list work, and a
    replacement-state loop over a cache set."""
    counts: dict[int, int] = {}
    head = None
    acc = 0
    for i in range(1200):
        head = _Node(i & 63, i, head)
        counts[i & 255] = counts.get(i & 255, 0) + 1
        if head.key in counts:
            acc += counts[head.key]
        row = [head.key, head.value, acc & 7]
        acc += max(row) - min(row)
    while head is not None:
        acc ^= head.value
        head = head.next
    cset = _Set(16)
    for i in range(1400):
        way = _touch(cset, (i * 7) % 40)
        counts[way] = counts.get(way, 0) + 1
    return acc + len(counts)


class Stopwatch:
    """A clock that stops while the reference kernel runs, with the host
    slowdown each kernel sample measured, stamped with this clock.

    While ``sampling`` is on, an interval timer interrupts the program
    every ``SAMPLE_EVERY_S`` to take one sample, wherever it is."""

    def __init__(self):
        self.times: list[float] = []
        self.slowdowns: list[float] = []
        self._paused = 0.0
        self._busy = False

    def now(self) -> float:
        return perf_counter() - self._paused

    def sample(self, count: int = 1) -> None:
        if self._busy:  # the timer fired during a bracket
            return
        self._busy = True
        try:
            for _ in range(count):
                t0 = perf_counter()
                kernel()
                t1 = perf_counter()
                self._paused += t1 - t0
                self.times.append(t1 - self._paused)
                self.slowdowns.append((t1 - t0) / NOMINAL_KERNEL_S)
        finally:
            self._busy = False

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def nominal(self, t0: float, t1: float) -> float:
        """What the interval [t0, t1] of this clock would have lasted on the
        nominal host: each stretch between two samples is divided by the
        median slowdown of the four samples around it."""
        total = 0.0
        a = t0
        j = bisect.bisect_right(self.times, t0)
        while True:
            b = min(self.times[j], t1) if j < len(self.times) else t1
            around = self.slowdowns[max(0, j - 2): j + 2] or self.slowdowns[-1:]
            total += (b - a) / statistics.median(around)
            if b >= t1:
                return total
            a = b
            j += 1
