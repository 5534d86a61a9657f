"""A host-speed probe and the clock it drives.

The probe kernel is a small discrete-event loop written in the same
idiom as the simulator (objects with attribute dicts, a ``heapq`` event
queue, generator processes, dict and list bookkeeping) but shares no code
with ``src/``, so a change to the program never changes it.

:class:`SpeedProbe` runs the kernel from a ``SIGALRM`` handler every
``interval`` seconds while the program runs in the same process, and
keeps a *reference clock*: host seconds scaled by how fast the kernel ran
at the start of each interval, relative to :data:`REFERENCE_S`.  The
host's speed flips many times a second (another guest on the sibling
hardware thread nearly halves it), and a probe 50 ms away sees the same
state; the reference clock so reads the program's cost at the reference
speed, not the share of slow time.
"""

from __future__ import annotations

import gc
import heapq
import signal
from time import perf_counter
from typing import List


class _Rank:
    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.extents = {}
        self.log = []
        self.done = 0


def _process(rank: _Rank, steps: int, table: dict):
    for step in range(steps):
        offset = (rank.rank * 7919 + step * 104729) & 0xFFFFF
        rank.extents[offset] = (step, 4096)
        rank.log.append((offset, step))
        key = offset & 1023
        table[key] = table.get(key, 0) + 1
        yield ((offset * 2654435761) & 0xFFFF) * 1e-6 + 1e-6
    rank.done = steps


def kernel(ranks: int, steps: int = 6) -> int:
    """Run the probe loop once and return a checksum of its state."""
    table: dict = {}
    population = [_Rank(r) for r in range(ranks)]
    procs = [_process(rank, steps, table) for rank in population]
    queue = [(0.0, i) for i in range(ranks)]
    heapq.heapify(queue)
    events = 0
    while queue:
        now, i = heapq.heappop(queue)
        try:
            delay = next(procs[i])
        except StopIteration:
            continue
        heapq.heappush(queue, (now + delay, i))
        events += 1
    index: dict = {}
    for rank in population:
        for offset, (step, length) in rank.extents.items():
            index.setdefault(offset >> 12, []).append((offset, rank.rank))
    for entries in index.values():
        entries.sort()
    return events + len(index) + sum(table.values())


#: Ranks in one probe run (about 2 ms of host time).
PROBE_RANKS = 128
#: A typical duration of one probe run on the reference host (Intel Xeon
#: at 2.1 GHz, Python 3.11); the reference clock counts seconds at the
#: speed at which a probe run takes this long.
REFERENCE_S = 0.0019
#: ``kernel(PROBE_RANKS)``'s checksum; a mismatch means the probe broke.
CHECKSUM = kernel(PROBE_RANKS)


class SpeedProbe:
    """Probe the host's speed every ``interval`` seconds and keep the
    reference clock (see the module doc).  The probe's own time is left
    out of the clock.  Use it in the main thread only."""

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.samples: List[float] = []
        self._clock = 0.0
        self._mark = 0.0
        self._factor = 1.0
        self._generation = 0
        self._previous = None

    def start(self) -> "SpeedProbe":
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def now(self) -> float:
        """Reference seconds since :meth:`start`."""
        while True:
            generation = self._generation
            value = self._clock + (perf_counter() - self._mark) * self._factor
            if generation == self._generation:
                return value

    def _on_alarm(self, signum, frame) -> None:
        if self._generation < 0:  # an alarm inside the handler
            return
        self._clock += (perf_counter() - self._mark) * self._factor
        generation, self._generation = self._generation, -1
        self._probe()
        self._generation = generation + 1

    def _probe(self) -> None:
        # The cyclic collector stays off so a collection of the program's
        # heap is never timed as host slowness.
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        checksum = kernel(PROBE_RANKS)
        t1 = perf_counter()
        if enabled:
            gc.enable()
        if checksum != CHECKSUM:
            raise RuntimeError("speed probe checksum changed")
        self.samples.append(t1 - t0)
        self._factor = REFERENCE_S / (t1 - t0)
        self._mark = t1
