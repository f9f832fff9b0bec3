"""The frozen host-speed probe behind host-normalised timings.

The benchmark host is shared: the same ``run(spec)`` swings by tens of
percent between phases that last from a fraction of a second to tens of
seconds, so raw seconds cannot referee a 10 % change. While a timed region
runs, :class:`HostProbe` therefore interrupts it every ``TICK_S`` seconds
(``SIGALRM``) to run one *slice* of a fixed kernel, and times each slice.
The median slice time says how fast the host was *during* the region, and

    normalised = (raw_s - sum(slices)) * CALIB_REF_S / median(slices)

The slices are subtracted because they lengthen a region whose process is
busy. A region that mostly *waits* — ``sharded``'s coordinator, blocked in
join while its workers crawl — is not lengthened by them: they run while it
would have been idle. Such a region (CPU time below ``BLOCKED_CPU_SHARE`` of
its wall time) keeps its whole ``raw_s``. Its slices also share two cores
with the two workers, so their median reads a few percent slow and
``sharded``'s normalised time a few percent low; the bias is the same on
every run, and ``sharded`` is only ever compared with ``sharded``.

Probing inside the region matters: kernels run before and after a one- or
two-second region left twice the spread, because the host's speed changes
faster than that (README.md has the numbers).

The slice mimics what the crawler's hot paths do — str-keyed dict and
``heapq`` churn, and ``searchsorted``/``bincount``/add on small arrays — so
a host phase that slows the crawl slows the slice alike. It uses nothing
from ``repro``: no change to the program can move it. The median, never
the minimum: the point is to measure the host as the region met it. Not the
mean either: while ``sharded``'s two workers keep both cores busy, a few of
the coordinator's slices wait for a core, and their mean made one op's
normalised time three times as noisy as its raw time; on the one-process
workloads mean and median do equally well.

**Frozen.** ``CALIB_REF_S`` was recorded once, on a quiet phase of the
reference host, so that normalised is about raw there. Editing the slice,
the tick or the constant is a benchmark change that re-baselines
``history.jsonl``.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from typing import List

import numpy as np

#: Median seconds of a slice inside a running crawl on the quiet reference host
#: (2-core x86-64 VM, CPython 3.11.7, NumPy 2.4.6) when first recorded.
CALIB_REF_S = 0.00135
#: Seconds between slices: about 4 % of a region goes to probing.
TICK_S = 0.04
#: A region whose process had the CPU for less than this share of its wall
#: time was mostly blocked: its slices ran in time it would have idled.
BLOCKED_CPU_SHARE = 0.5

_N_KEYS = 400
_N_ARRAY_ROUNDS = 100
_EDGES = np.arange(0.0, 512.0)
_X = (np.arange(256) * 1.618) % 512.0
_IDS = np.arange(256) % 32


def kernel_slice() -> float:
    """One slice: URL-keyed dict and heap churn, then small-array NumPy calls."""
    table = {}
    heap = []
    push = heapq.heappush
    pop = heapq.heappop
    for i in range(_N_KEYS):
        key = f"http://site{i % 97}.example/page{i}"
        table[key] = i * 0.5
        push(heap, (((i * 7919) % 10007) * 0.25, i, key))
    total = 0.0
    while heap:
        at, _seq, key = pop(heap)
        total += table[key] + at
    x = _X
    for _ in range(_N_ARRAY_ROUNDS):
        position = np.searchsorted(_EDGES, x, side="right")
        counts = np.bincount(_IDS, minlength=32)
        x = (x + 0.5) % 512.0
        total += float(position[0] + counts[0])
    return total


class HostProbe:
    """Times a region and probes the host's speed while it runs.

    A context manager for the main thread. The first slice runs on entry,
    so even a region shorter than a tick has one; the rest run from the
    ``SIGALRM`` handler, between two bytecodes of whatever the region is
    executing (a long C call delays them). Spawned child processes inherit
    neither the timer nor the handler.
    """

    def __init__(self) -> None:
        self.slices: List[float] = []
        self.raw_s = 0.0
        self.cpu_s = 0.0
        self.started = 0.0
        self._cpu_started = 0.0
        self._in_slice = False
        self._previous_handler = None

    def __enter__(self) -> "HostProbe":
        self.slices = []
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        self._cpu_started = time.process_time()
        self.started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self._tick()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.raw_s = time.perf_counter() - self.started
        self.cpu_s = time.process_time() - self._cpu_started
        signal.signal(signal.SIGALRM, self._previous_handler)

    def _tick(self, *_signal_args) -> None:
        if self._in_slice:  # a tick that fell due while a slice was running
            return
        self._in_slice = True
        try:
            started = time.perf_counter()
            kernel_slice()
            self.slices.append(time.perf_counter() - started)
        finally:
            self._in_slice = False

    @property
    def normalised_s(self) -> float:
        """The region's duration at reference-host speed, probing excluded."""
        blocked = self.cpu_s < BLOCKED_CPU_SHARE * self.raw_s
        own_s = self.raw_s if blocked else self.raw_s - sum(self.slices)
        return own_s * CALIB_REF_S / statistics.median(self.slices)


if __name__ == "__main__":
    for _ in range(10):
        with HostProbe() as probe:
            time.sleep(0.5)
        print(f"{len(probe.slices)} slices, median {statistics.median(probe.slices) * 1e3:.3f} ms")
