"""Host-speed calibration: a fixed kernel sampled on a timer during a run.

Shared 2-core hosts change speed under the benchmark: the same code runs
up to 1.7x slower for seconds at a time while a neighbour is busy.  A
:class:`SpeedSampler` runs a short, fixed pure-Python kernel (dict and
bytearray traffic plus small method calls, and none of this repository's
code) every ``interval`` seconds from a ``SIGALRM`` handler in the
measuring thread, so its samples see the host as the workload does.

- The kernel is timed in thread CPU time.  A sample that waits for
  another thread's turn at the interpreter lock (the fabric's coordinator
  thread), or for a core while worker processes hold both (report-cold's
  farm), still times the host, not that wait.
- Its working set (32 KiB) stays in the core's own caches, so the
  workload's memory footprint does not change the kernel's speed and
  cannot hide a change to that footprint.

:meth:`SpeedSampler.factor_between` is the kernel's mean time near an
interval over :data:`REFERENCE_S`.  A host time, less the sampler's own
time inside it (:meth:`SpeedSampler.busy_between`), divided by that
factor gives *reference seconds*: the time the work would take on a host
where the kernel runs in :data:`REFERENCE_S`.

The kernel never touches the simulator's state, and an interrupted system
call is retried by the interpreter (PEP 475), so sampling changes no
result; it costs about 2% of the run, the same on every commit.
"""

from __future__ import annotations

import random
import signal
import time

#: Kernel time (seconds) that defines one reference second.
REFERENCE_S = 0.001
#: Share of the slowest samples dropped before averaging (a sample that
#: straddled a page fault or a timer interrupt).
TRIM = 0.1


class _Cell:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def bump(self, amount: int) -> None:
        self.value = (self.value + amount) & 0xFFFF


class SpeedSampler:
    """Time a fixed kernel every ``interval`` seconds on ``SIGALRM``."""

    def __init__(self, interval: float = 0.05, rounds: int = 1250):
        self.interval = interval
        self.rounds = rounds
        #: ``(taken at, kernel seconds)`` per sample, and the host-clock
        #: interval each sample occupied.
        self.samples: list[tuple[float, float]] = []
        self.busy: list[tuple[float, float]] = []
        rng = random.Random(20190624)
        self._memory = bytearray(rng.randbytes(1 << 15))
        self._table = {index: index * 3 for index in range(512)}
        self._cells = [_Cell() for _ in range(256)]
        self._previous = None

    def kernel(self) -> float:
        """One timed pass of the calibration kernel, in seconds."""
        memory, table, cells = self._memory, self._table, self._cells
        mask = len(memory) - 1
        index = 12345
        began = time.thread_time()
        for _ in range(self.rounds):
            index = (index * 1103515245 + 12345) & mask
            byte = memory[index]
            memory[index ^ 0x40] = (byte + 1) & 0xFF
            cells[byte].bump(table.get(index & 511, 0))
        return time.thread_time() - began

    def _take(self) -> None:
        began = time.perf_counter()
        duration = self.kernel()
        self.samples.append((began, duration))
        self.busy.append((began, time.perf_counter()))

    def _sample(self, _signum, _frame) -> None:
        self._take()

    def start(self, warm: int = 5) -> "SpeedSampler":
        """Take ``warm`` samples now, then one per ``interval``."""
        for _ in range(warm):
            self._take()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def factor(self) -> float:
        """Host-speed factor over the whole run."""
        return _factor([duration for _, duration in self.samples])

    def busy_between(self, start: float, end: float) -> float:
        """Host seconds the sampler itself took inside ``[start, end]``."""
        return sum(
            min(stop, end) - max(began, start)
            for began, stop in self.busy
            if began < end and stop > start
        )

    def factor_over(self, intervals) -> float:
        """Host-speed factor over the samples taken inside ``intervals``."""
        inside = [
            duration for taken, duration in self.samples
            if any(start <= taken <= end for start, end in intervals)
        ]
        return _factor(inside) if inside else self.factor()

    def factor_between(self, start: float, end: float, pad: float = 0.1) -> float:
        """Host-speed factor over ``[start, end]`` (host clock).

        Uses the samples taken inside the interval widened by ``pad`` on
        each side; the window doubles until it holds two samples, so a
        short injection is judged by the samples nearest to it.
        """
        if not self.samples:
            return 1.0
        while True:
            near = [
                duration for taken, duration in self.samples
                if start - pad <= taken <= end + pad
            ]
            if len(near) >= 2 or len(near) == len(self.samples):
                return _factor(near)
            pad *= 2


def _factor(durations: list[float]) -> float:
    """Mean kernel time (slowest :data:`TRIM` dropped) over the reference."""
    if not durations:
        return 1.0
    ordered = sorted(durations)
    kept = ordered[: max(1, int(len(ordered) * (1 - TRIM)))]
    return (sum(kept) / len(kept)) / REFERENCE_S
