"""Speed probes: how fast the machine runs Python code while the ops run.

On a shared machine the speed of the core drifts by 10-20% from one second
to the next, as other loads come and go.  The library and any other Python
code slow down together.  While a SpeedProbe runs, a SIGALRM every
INTERVAL_S runs a fixed pure-Python kernel in the measuring thread and
records how long it took.  Dividing an op's time by the mean kernel time
around it gives a cost that the drift barely moves.  The benchmark reports
that cost in ref-ms: the op's time at the speed where one kernel takes
REF_KERNEL_MS.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from contextlib import contextmanager

INTERVAL_S = 0.01
REF_KERNEL_MS = 0.3  # defines the ref-ms: about the mean kernel time on a 2-core x86-64 VM


_CELLS = tuple((r, c) for r in range(5) for c in range(5))
_ROOM = {rc: "ABCDE"[rc[0]] for rc in _CELLS}


class _Cell:
    __slots__ = ("rc", "room")

    def __init__(self, rc: tuple[int, int], room: str):
        self.rc = rc
        self.room = room


def kernel(rng: random.Random) -> int:
    """Dicts keyed by cell, small objects, neighbor loops, a shuffle and a
    sort: the kinds of work the library does."""
    total = 0
    for _ in range(5):
        values = {rc: rng.randrange(1, 6) for rc in _CELLS}
        for cell in [_Cell(rc, _ROOM[rc]) for rc in _CELLS]:
            r, c = cell.rc
            for nb in ((r, c + 1), (r + 1, c)):
                if nb in values and _ROOM[nb] != cell.room and values[nb] == values[cell.rc]:
                    total += 1
        order = list(values.values())
        rng.shuffle(order)
        total += sorted(order)[0]
    return total


class SpeedProbe:
    def __init__(self) -> None:
        self.durations: list[float] = []  # seconds, one per kernel run
        self.total = 0.0                  # their sum
        self._rng = random.Random(0)

    def _sample(self, signum, frame) -> None:
        # no collection inside the kernel: it would sweep the op's garbage
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        kernel(self._rng)
        elapsed = time.perf_counter() - start
        if enabled:
            gc.enable()
        self.durations.append(elapsed)
        self.total += elapsed

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mean_since(self, first: int) -> float:
        """Mean kernel seconds from sample `first` on.  Samples over three
        times the median were preempted by another process and are dropped."""
        samples = self.durations[first:] or self.durations
        if not samples:
            raise ValueError("no speed probe has run yet")
        cutoff = 3 * statistics.median(samples)
        kept = [s for s in samples if s <= cutoff]
        return sum(kept) / len(kept)
