"""The benchmark's three workloads, their correctness checks and the
simulated-behaviour digest.

Each workload is a closed loop driven from one process through the public
API: every collective waits for the previous one.  ``build(seed)`` does
the set-up (simulation, servers, communicators, workload objects) and
returns ``run``, which performs the measured calls and returns an
:class:`Outcome`.  ``run(untraced)`` enters ``untraced()`` around the
benchmark's own bookkeeping so a traced run does not charge it to the
layers.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Tuple

from repro import chaos
from repro.core.config import UniviStorConfig
from repro.experiments.common import build_simulation
from repro.simulation import Simulation
from repro.units import GiB, MiB
from repro.workloads.bdcats import BdCatsIO
from repro.workloads.iobench import MicroBench
from repro.workloads.vpic import VpicIO

__all__ = ["Outcome", "WORKLOADS", "rank_burst", "vpic_workflow",
           "fault_mix"]

#: The ``repro.chaos`` mixes ``fault_mix`` runs, in order.
FAULT_MIXES = ("storm", "storm2", "partition", "hotspot")
#: Bytes each ``rank_burst`` rank writes and reads back.
RANK_BURST_BYTES = int(MiB)
#: The clock segments are timed with: host seconds, or the reference
#: clock of :class:`calibrate.SpeedProbe` (``iteration.py`` sets it).
clock: Callable[[], float] = perf_counter


def io_time_and_bytes(records: Iterable, app: str,
                      op: str) -> Tuple[float, float]:
    """Simulated seconds and bytes of ``app``'s ``op`` (``"write"`` or
    ``"read"``) for the paper's I/O rate: every open ... close session of
    ``app`` that did ``op`` adds its open, ``op`` and close time.  A
    session that did only the other operation adds nothing, so a write
    phase and a read phase under one communicator stay apart."""
    seconds = nbytes = 0.0
    #: path -> [seconds, bytes, did op] of the session open on it.
    sessions: Dict[str, list] = {}
    for rec in records:
        if rec.app != app:
            continue
        if rec.op == "open":
            sessions[rec.path] = [rec.duration, 0.0, False]
            continue
        session = sessions.get(rec.path)
        if session is None:
            continue
        if rec.op == op:
            session[0] += rec.duration
            session[1] += rec.nbytes
            session[2] = True
        elif rec.op == "close":
            del sessions[rec.path]
            if session[2]:
                seconds += session[0] + rec.duration
                nbytes += session[1]
    return seconds, nbytes


@dataclass
class Outcome:
    """What one measured run did, and the simulated behaviour behind it.

    An operation is the unit each workload verifies: a rank's request in
    ``rank_burst`` and ``fault_mix`` (each rank's read-back is checked), a
    collective call in ``vpic_workflow`` (BD-CATS checks a sample of
    every collective read).

    ``segments`` splits the measured calls into pieces that do the same
    work in every iteration of a given seed (a phase, a chaos run, a slice
    of simulated time), each with its host seconds."""

    segments: List[float] = field(default_factory=list)
    reads_attempted: int = 0
    reads_ok: int = 0
    writes_attempted: int = 0
    writes_ok: int = 0
    #: Wrong bytes, unhandled errors and failed checks.
    violations: List[str] = field(default_factory=list)
    #: Simulated seconds of the workload span, and I/O-rate sums
    #: (see :func:`io_time_and_bytes`).
    sim_makespan_s: float = 0.0
    write_time: float = 0.0
    write_bytes: float = 0.0
    read_time: float = 0.0
    read_bytes: float = 0.0
    #: Telemetry counters, live cached bytes per tier and stored metadata
    #: records, summed over every simulation the run built.
    counters: Dict[str, float] = field(default_factory=dict)
    tier_bytes: Dict[str, float] = field(default_factory=dict)
    records_stored: int = 0
    _digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    @property
    def run_s(self) -> float:
        return sum(self.segments)

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    @property
    def failed(self) -> int:
        return (self.reads_attempted - self.reads_ok) + len(self.violations)

    def absorb(self, sim: Simulation, writer_app: str,
               reader_app: str) -> None:
        """Fold a finished simulation into the digest and the sums.

        The digest hashes every telemetry record the way ``repro.chaos``
        does (``app|op|path|t_start|t_end|nbytes``)."""
        tel = sim.telemetry
        update = self._digest.update
        for rec in tel.records:
            update(f"{rec.app}|{rec.op}|{rec.path}|{rec.t_start:.9f}|"
                   f"{rec.t_end:.9f}|{rec.nbytes}\n".encode())
        seconds, nbytes = io_time_and_bytes(tel.records, writer_app, "write")
        self.write_time += seconds
        self.write_bytes += nbytes
        seconds, nbytes = io_time_and_bytes(tel.records, reader_app, "read")
        self.read_time += seconds
        self.read_bytes += nbytes
        for name, value in tel.counters.items():
            self.counters[name] = self.counters.get(name, 0.0) + value
        system = sim.univistor
        for path in sorted({rec.path for rec in tel.records
                            if rec.op == "open"}):
            if not system.has_session(path):
                continue
            session = system.session(path, create=False)
            for tier, nbytes in session.cached_bytes_per_tier().items():
                self.tier_bytes[tier.value] = (
                    self.tier_bytes.get(tier.value, 0.0) + nbytes)
        self.records_stored += system.metadata.record_count

    def sim_metrics(self) -> Dict[str, float]:
        return {
            "sim_write_gibps": self.write_bytes / self.write_time / GiB,
            "sim_read_gibps": self.read_bytes / self.read_time / GiB,
            "sim_makespan_s": self.sim_makespan_s,
        }


def rank_burst(seed: int, ranks: int = 16384) -> Callable[..., Outcome]:
    """``MicroBench`` write phase, then read phase with ``verify=True``:
    ``ranks`` ranks of :data:`RANK_BURST_BYTES` at 32 per Cori node, all
    in the DRAM cache tier.  ``MicroBench`` checks the first 4 KiB of each
    rank's block; a rank whose extents do not cover its whole block fails
    too."""
    sim, fstype = build_simulation(ranks, "UniviStor/DRAM")
    comm = sim.comm("micro", size=ranks)
    bench = MicroBench(sim, comm, "/pfs/rank_burst.h5", fstype,
                       bytes_per_proc=RANK_BURST_BYTES,
                       payload_seed_base=1000 + seed * ranks)

    def run(untraced=nullcontext) -> Outcome:
        out = Outcome(reads_attempted=ranks, writes_attempted=ranks)
        t0 = clock()
        sim.run_to_completion(bench.write_phase())
        t1 = clock()
        out.writes_ok = ranks
        results = None
        try:
            results = sim.run_to_completion(bench.read_phase(verify=True))
        except AssertionError as err:
            out.violations.append(str(err))
        out.segments = [t1 - t0, clock() - t1]
        out.sim_makespan_s = sim.now
        with untraced():
            if results is not None:
                short = [rank for rank in range(ranks)
                         if sum(ext.length for ext in results.get(rank, ()))
                         != RANK_BURST_BYTES]
                out.reads_ok = ranks - len(short)
                if short:
                    out.violations.append(
                        f"{len(short)} ranks read back other than "
                        f"{RANK_BURST_BYTES} bytes (first: rank {short[0]})")
            out.absorb(sim, "micro", "micro")
        return out

    return run


class SeededVpicIO(VpicIO):
    """``VpicIO`` whose payload streams are shifted by the benchmark seed
    (BD-CATS verifies against the same shifted streams)."""

    def __init__(self, *args, seed_shift: int = 0, **kwargs):
        super().__init__(*args, **kwargs)
        self.seed_shift = seed_shift

    def seed_base(self, step: int, prop_index: int) -> int:
        return super().seed_base(step, prop_index) + self.seed_shift


def run_in_slices(engine, slice_sim_s: float,
                  segments: List[float]) -> None:
    """Run ``engine`` until its queue drains, like ``engine.run()``, but in
    slices of ``slice_sim_s`` simulated seconds on a fixed grid, appending
    the host seconds of each non-empty slice to ``segments``.  Stopping
    at a slice boundary dispatches the same events in the same order."""
    start = engine.now
    k = 1
    while True:
        nxt = engine.peek()
        if nxt == float("inf"):
            return
        k = max(k, math.ceil((nxt - start) / slice_sim_s))
        t0 = clock()
        engine.run(until=start + k * slice_sim_s)
        segments.append(clock() - t0)
        k += 1


def vpic_workflow(seed: int, procs: int = 1024, steps: int = 5,
                  particles_per_proc: int = 24 * 2 ** 20,
                  slice_sim_s: float = 0.25) -> Callable[..., Outcome]:
    """The Fig. 9 overlap workflow on ``UniviStor/(DRAM+BB)``: ``procs/2``
    VPIC-IO writers and ``procs/2`` BD-CATS-IO readers, 16 per node,
    running concurrently under workflow locks.  At the default size each
    node holds 60 GiB against a 48 GiB DRAM cache, so DHP spills to the
    shared burst buffer.  The engine runs in ``slice_sim_s`` slices (see
    :func:`run_in_slices`)."""
    config = UniviStorConfig.dram_bb(workflow_enabled=True)
    sim, fstype = build_simulation(procs, "UniviStor/(DRAM+BB)",
                                   config=config)
    writers = sim.comm("vpic", size=procs // 2, procs_per_node=16)
    readers = sim.comm("bdcats", size=procs // 2, procs_per_node=16)
    vpic = SeededVpicIO(sim, writers, fstype, steps=steps,
                        compute_seconds=0.0,
                        particles_per_proc=particles_per_proc,
                        seed_shift=seed * 1_000_000)
    bdcats = BdCatsIO(sim, readers, vpic, fstype)
    collectives = steps * 8

    def run(untraced=nullcontext) -> Outcome:
        out = Outcome(reads_attempted=collectives,
                      writes_attempted=collectives)
        start = sim.now
        t0 = clock()
        writer = sim.spawn(vpic.run(sync_last=True), name="vpic")
        reader = sim.spawn(bdcats.run(verify_sample=True), name="bdcats")
        out.segments.append(clock() - t0)
        try:
            run_in_slices(sim.engine, slice_sim_s, out.segments)
        except AssertionError as err:
            out.violations.append(str(err))
        # A process still blocked when the queue drains reads as ok, so
        # each must also have finished.
        for proc in (writer, reader):
            if not proc.triggered:
                out.violations.append(f"{proc.name} did not finish")
        with untraced():
            records = sim.telemetry.records
            writes = [r for r in records if r.app == "vpic"
                      and r.op == "write" and r.nbytes > 0]
            reads = [r for r in records if r.app == "bdcats"
                     and r.op == "read"]
            written = sum(r.nbytes for r in writes)
            read = sum(r.nbytes for r in reads)
            if len(writes) != collectives or len(reads) != collectives:
                out.violations.append(
                    f"{len(writes)} collective writes and {len(reads)} "
                    f"reads completed, {collectives} of each expected")
            if read != written:
                out.violations.append(f"bdcats read {read} bytes, vpic "
                                      f"wrote {written}")
            if writer.triggered and writer.ok:
                out.writes_ok = len(writes)
            if reader.triggered and reader.ok and not out.violations:
                out.reads_ok = len(reads)
            out.sim_makespan_s = max((r.t_end for r in records
                                      if r.app == "bdcats"),
                                     default=start) - start
            out.absorb(sim, "vpic", "bdcats")
        return out

    return run


def fault_mix(seed: int, seeds_per_mix: int = 30) -> Callable[..., Outcome]:
    """Hardened ``repro.chaos.run_one`` for ``seeds_per_mix`` consecutive
    seeds from ``seed`` in each of :data:`FAULT_MIXES`, run serially.
    ``run_s`` sums the ``run_one`` calls.

    ``run_one`` builds its own simulation; while the run lasts a recording
    subclass patched into ``repro.chaos`` hands each one to the digest."""
    built: List[Simulation] = []

    class RecordedSimulation(Simulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    def run(untraced=nullcontext) -> Outcome:
        out = Outcome()
        chaos.Simulation = RecordedSimulation
        try:
            for mix in FAULT_MIXES:
                for s in range(seed, seed + seeds_per_mix):
                    t0 = clock()
                    result = chaos.run_one(s, hardened=True, mix=mix)
                    out.segments.append(clock() - t0)
                    with untraced():
                        sim = built.pop()
                        out.reads_attempted += result.reads_total
                        out.reads_ok += result.reads_ok
                        out.writes_attempted += (result.writes_ok
                                                 + result.writes_lost)
                        out.writes_ok += result.writes_ok
                        out.violations.extend(f"{mix} seed {s}: {v}"
                                              for v in result.violations)
                        out.sim_makespan_s += sim.now
                        out.absorb(sim, "chaos", "chaos")
        finally:
            chaos.Simulation = Simulation
        return out

    return run


#: Workload name -> function that sets the workload up from the seed.
WORKLOADS: Dict[str, Callable[..., Callable[..., Outcome]]] = {
    "rank_burst": rank_burst,
    "vpic_workflow": vpic_workflow,
    "fault_mix": fault_mix,
}
