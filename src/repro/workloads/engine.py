"""The multi-job workload engine (docs/MODEL.md §10).

Replays a :class:`~repro.workloads.jobs.JobTrace` against ONE simulated
machine: every job runs in the same event loop, through the same
simmpi + DHP stack, so concurrent jobs genuinely contend for CPU,
network and burst-buffer bandwidth.  What the engine adds on top of the
single-workflow :class:`~repro.simulation.Simulation` facade is
*admission*: jobs arrive over time, ask a pluggable
:class:`~repro.workloads.strategies.StorageScheduler` for a burst-buffer
reservation, and queue (FIFO, head-of-line) when the scheduler defers
them.  A granted reservation becomes the job's per-program byte quota in
the DHP layer (:meth:`UniviStorServers.set_bb_quota`), so a job that
writes more than it reserved spills to the PFS — reservations have real
performance consequences, not just bookkeeping ones.

Public surface: :class:`WorkloadSpec` (kw-only config, mirroring
:class:`~repro.core.config.UniviStorConfig`), :func:`run_trace` and
:func:`compare_strategies`; per-job metrics come back as
:class:`JobResult`/:class:`TraceResult`, side-channel counters (``wl-*``)
flow through ``Telemetry.counters``.
"""

from __future__ import annotations

import hashlib
import math
import os
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.cluster.spec import MachineSpec
from repro.core.config import UniviStorConfig
from repro.sim.faults import FaultSpec
from repro.sim.rng import StreamRNG
from repro.simmpi.mpiio import IORequest
from repro.simulation import Simulation
from repro.storage.datamodel import PatternPayload
from repro.units import MiB
from repro.workloads.iobench import verify_read_back
from repro.workloads.jobs import Job, JobTrace, generate_trace
from repro.workloads.strategies import BBPool, make_strategy

__all__ = [
    "JobResult",
    "TraceResult",
    "WorkloadEngine",
    "WorkloadSpec",
    "compare_strategies",
    "run_trace",
]

_MACHINES = ("small", "cori", "summit")

_SYSTEM_CONFIGS = {
    "UniviStor/BB": UniviStorConfig.bb_only,
    "UniviStor/DRAM": UniviStorConfig.dram_only,
    "UniviStor/(DRAM+BB)": UniviStorConfig.dram_bb,
    "UniviStor/(Disk)": UniviStorConfig.pfs_only,
}

#: The strategies compare-strategies sweeps by default.
DEFAULT_STRATEGIES = ("round_robin", "worst_fit", "random",
                      "interference_aware")


@dataclass(frozen=True, kw_only=True)
class WorkloadSpec:
    """Everything a multi-job run can toggle (kw-only, like
    :class:`UniviStorConfig`).

    The defaults are tuned so the bundled ``small`` test machine is
    genuinely contended by a 50-job heavy-tail trace: a small
    ``bb_fraction`` makes the schedulable burst-buffer slice the scarce
    resource the strategies fight over.
    """

    # -- deployment ---------------------------------------------------------
    machine: str = "small"           # small | cori | summit
    nodes: int = 4
    procs_per_node: int = 4          # placement width for job communicators
    system: str = "UniviStor/BB"
    #: Full override; when set, ``system``/``chunk_size`` are ignored.
    config: Optional[UniviStorConfig] = None
    chunk_size: float = MiB          # finer than the 8 MiB default: multi-
    #                                  job quotas are MiB-scale
    # -- storage scheduling -------------------------------------------------
    strategy: str = "round_robin"
    #: Strategy knobs; accepts a mapping, stored as sorted item pairs so
    #: the spec stays hashable.
    strategy_params: Tuple[Tuple[str, float], ...] = ()
    bb_pools: int = 4
    #: Fraction of the machine's burst-buffer capacity the scheduler may
    #: reserve (the schedulable slice; the rest models other tenants).
    #: The small default keeps the bundled test machine contended.
    bb_fraction: float = 0.10
    #: Cap on concurrently running jobs (0 = unlimited).
    max_concurrent: int = 0
    # -- trace generation (WorkloadSpec.generate) ---------------------------
    jobs: int = 50
    mix: str = "cloud"
    arrival_rate: float = 16.0       # jobs/second
    mean_mb_per_rank: float = 16.0
    max_ranks: int = 0               # 0 -> nodes * procs_per_node
    compute_seconds: float = 0.2
    seed: int = 0
    # -- fault composition --------------------------------------------------
    #: Optional fault mini-language string (see ``FaultSpec.parse``),
    #: armed against the shared system before the first arrival.
    fault_spec: Optional[str] = None
    fault_seed: int = 0
    # -- verification -------------------------------------------------------
    verify_reads: bool = False

    def __post_init__(self):
        if isinstance(self.strategy_params, Mapping):
            object.__setattr__(
                self, "strategy_params",
                tuple(sorted(self.strategy_params.items())))
        else:
            object.__setattr__(
                self, "strategy_params",
                tuple((str(k), v) for k, v in self.strategy_params))
        if self.machine not in _MACHINES:
            raise ValueError(f"unknown machine {self.machine!r}; "
                             f"valid: {list(_MACHINES)}")
        if self.config is None and self.system not in _SYSTEM_CONFIGS:
            raise ValueError(f"unknown system {self.system!r}; "
                             f"valid: {sorted(_SYSTEM_CONFIGS)}")
        if self.nodes < 1:
            raise ValueError("nodes must be >= 1")
        if self.procs_per_node < 1:
            raise ValueError("procs_per_node must be >= 1")
        if self.chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if self.bb_pools < 1:
            raise ValueError("bb_pools must be >= 1")
        if not 0 < self.bb_fraction <= 1:
            raise ValueError("bb_fraction must be in (0, 1]")
        if self.max_concurrent < 0:
            raise ValueError("max_concurrent must be >= 0")
        if self.max_ranks < 0:
            raise ValueError("max_ranks must be >= 0")

    # -- derived ------------------------------------------------------------
    def machine_spec(self) -> MachineSpec:
        if self.machine == "cori":
            return MachineSpec.cori_haswell(nodes=self.nodes)
        if self.machine == "summit":
            return MachineSpec.summit_like(nodes=self.nodes)
        return MachineSpec.small_test(nodes=self.nodes)

    def univistor_config(self) -> UniviStorConfig:
        if self.config is not None:
            return self.config
        return _SYSTEM_CONFIGS[self.system](chunk_size=self.chunk_size)

    def generate(self) -> JobTrace:
        """Generate the synthetic trace this spec describes."""
        return generate_trace(
            jobs=self.jobs, mix=self.mix, seed=self.seed,
            arrival_rate=self.arrival_rate,
            mean_mb_per_rank=self.mean_mb_per_rank,
            max_ranks=self.max_ranks or self.nodes * self.procs_per_node,
            compute_seconds=self.compute_seconds)


@dataclass(frozen=True)
class JobResult:
    """Per-job outcome of a trace replay."""

    job_id: int
    name: str
    pattern: str
    ranks: int
    #: Pool holding the reservation (-1: the job reserved nothing).
    pool_id: int
    granted: float
    arrival: float
    admitted: float
    finished: float
    bytes_written: float
    bytes_read: float
    #: Estimated isolated service time (bytes over nominal BB bandwidth
    #: plus compute) — the stretch denominator.
    ideal_seconds: float

    @property
    def queue_wait(self) -> float:
        return self.admitted - self.arrival

    @property
    def stretch(self) -> float:
        span = self.finished - self.arrival
        return span / self.ideal_seconds if self.ideal_seconds > 0 else 1.0


@dataclass(frozen=True)
class TraceResult:
    """Whole-trace outcome for one strategy."""

    strategy: str
    seed: int
    mix: str
    jobs: Tuple[JobResult, ...]
    makespan: float
    #: Schedulable burst-buffer bytes (capacity * bb_fraction).
    bb_schedulable: float
    #: Time-averaged fraction of the schedulable slice reserved.
    occupancy: float
    counters: Dict[str, float] = field(compare=False)
    digest: str = ""

    @property
    def mean_queue_wait(self) -> float:
        return sum(j.queue_wait for j in self.jobs) / max(1, len(self.jobs))

    @property
    def max_queue_wait(self) -> float:
        return max((j.queue_wait for j in self.jobs), default=0.0)

    @property
    def mean_stretch(self) -> float:
        return sum(j.stretch for j in self.jobs) / max(1, len(self.jobs))

    @property
    def max_stretch(self) -> float:
        return max((j.stretch for j in self.jobs), default=0.0)

    def summary(self) -> Dict[str, float]:
        """The comparison metrics, one flat dict per strategy."""
        return {
            "jobs": float(len(self.jobs)),
            "makespan": self.makespan,
            "mean_queue_wait": self.mean_queue_wait,
            "max_queue_wait": self.max_queue_wait,
            "mean_stretch": self.mean_stretch,
            "max_stretch": self.max_stretch,
            "bb_occupancy": self.occupancy,
            "interference": self.counters.get("wl-interference", 0.0),
            "queued": self.counters.get("wl-queued", 0.0),
        }


class WorkloadEngine:
    """Admits a trace's jobs into one shared simulation."""

    def __init__(self, trace: JobTrace, spec: Optional[WorkloadSpec] = None):
        if not isinstance(trace, JobTrace):
            raise TypeError("trace must be a JobTrace "
                            "(use run_trace for path inputs)")
        if not trace.jobs:
            raise ValueError("empty trace")
        self.trace = trace
        self.spec = spec or WorkloadSpec()
        for job in trace.jobs:
            if self._nodes_needed(job) > self.spec.nodes:
                raise ValueError(
                    f"{job.name}: {job.ranks} ranks do not fit on "
                    f"{self.spec.nodes} nodes x "
                    f"{self.spec.procs_per_node} procs/node")
        self._ran = False

    # -- placement ----------------------------------------------------------
    def _nodes_needed(self, job: Job) -> int:
        ppn = min(self.spec.procs_per_node, job.ranks)
        return math.ceil(job.ranks / ppn)

    # -- the run ------------------------------------------------------------
    def run(self) -> TraceResult:
        if self._ran:
            raise RuntimeError("WorkloadEngine.run is one-shot; "
                               "build a new engine to rerun")
        self._ran = True
        spec = self.spec
        self.sim = sim = Simulation(spec.machine_spec())
        self.system = sim.install_univistor(spec.univistor_config())
        if spec.fault_spec:
            sim.install_faults(FaultSpec.parse(spec.fault_spec),
                               seed=spec.fault_seed)
        rng = StreamRNG(spec.seed).spawn("workload")
        self.strategy = make_strategy(
            spec.strategy, rng=rng.stream(f"strategy.{spec.strategy}"),
            params=dict(spec.strategy_params))
        bb_capacity = sim.machine.burst_buffer.device.capacity
        self.bb_schedulable = bb_capacity * spec.bb_fraction
        self.pool_capacity = self.bb_schedulable / spec.bb_pools
        self.pools = [BBPool(i, self.pool_capacity)
                      for i in range(spec.bb_pools)]
        self._pending: deque = deque()
        self._active: Dict[int, float] = {}     # job_id -> granted bytes
        self._results: List[JobResult] = []
        # Occupancy integral: area under reserved-bytes(t).
        self._occ_bytes = 0.0
        self._occ_area = 0.0
        self._occ_t = 0.0

        for job in self.trace.jobs:
            sim.engine.call_later(job.arrival, self._arrival_fn(job))
        sim.run()

        if self._pending:
            stuck = ", ".join(j.name for j in self._pending)
            raise RuntimeError(
                f"strategy {spec.strategy!r} never admitted: {stuck}")
        results = tuple(sorted(self._results, key=lambda r: r.job_id))
        makespan = max((r.finished for r in results), default=0.0)
        self._occ_touch(makespan)
        occupancy = (self._occ_area / (self.bb_schedulable * makespan)
                     if makespan > 0 and self.bb_schedulable > 0 else 0.0)
        counters = dict(sim.telemetry.counters)
        digest = self._digest(results, makespan)
        return TraceResult(strategy=spec.strategy, seed=spec.seed,
                           mix=self.trace.mix, jobs=results,
                           makespan=makespan,
                           bb_schedulable=self.bb_schedulable,
                           occupancy=occupancy, counters=counters,
                           digest=digest)

    def _digest(self, results: Sequence[JobResult], makespan: float) -> str:
        h = hashlib.sha256()
        h.update(repr((self.spec.strategy, self.spec.seed, self.trace.mix,
                       len(results), makespan)).encode())
        for r in results:
            h.update(f"{r.job_id}|{r.pool_id}|{r.granted!r}|{r.arrival!r}|"
                     f"{r.admitted!r}|{r.finished!r}|{r.bytes_written!r}|"
                     f"{r.bytes_read!r}\n".encode())
        return h.hexdigest()

    # -- admission ----------------------------------------------------------
    def _arrival_fn(self, job: Job):
        def fire(_event=None):
            self.sim.telemetry.incr("wl-arrive")
            self._pending.append(job)
            self._try_admit()
            if self._pending and self._pending[-1] is job:
                self.sim.telemetry.incr("wl-queued")
        return fire

    def _try_admit(self) -> None:
        spec = self.spec
        while self._pending:
            if spec.max_concurrent and \
                    len(self._active) >= spec.max_concurrent:
                return
            job = self._pending[0]
            request = min(job.bb_request, self.pool_capacity)
            if request <= 0:
                self._pending.popleft()
                self._admit(job, pool_id=-1, granted=0.0)
                continue
            alloc = self.strategy.allocate(job, request, self.pools)
            if alloc is None:
                self.sim.telemetry.incr("wl-deferred")
                return
            if alloc.job_id != job.job_id:
                raise RuntimeError(
                    f"strategy {spec.strategy!r} answered for job "
                    f"{alloc.job_id}, asked about {job.job_id}")
            if not 0 <= alloc.pool_id < len(self.pools):
                raise RuntimeError(f"strategy {spec.strategy!r} chose "
                                   f"nonexistent pool {alloc.pool_id}")
            pool = self.pools[alloc.pool_id]
            if alloc.nbytes > request or alloc.nbytes > pool.free + 1e-6:
                raise RuntimeError(
                    f"strategy {spec.strategy!r} overcommitted pool "
                    f"{alloc.pool_id}")
            self._pending.popleft()
            self._admit(job, pool_id=alloc.pool_id, granted=alloc.nbytes)

    def _admit(self, job: Job, pool_id: int, granted: float) -> None:
        sim = self.sim
        tele = sim.telemetry
        if pool_id >= 0:
            pool = self.pools[pool_id]
            self._occ_touch(sim.now)
            pool.allocated += granted
            self._occ_bytes += granted
            tele.incr("wl-interference", float(len(pool.active_jobs)))
            pool.active_jobs.add(job.job_id)
            self.system.set_bb_quota(job.name, granted)
        tele.incr("wl-admit")
        tele.incr("wl-bb-granted-bytes", granted)
        self._active[job.job_id] = granted
        ppn = min(self.spec.procs_per_node, job.ranks)
        offset = job.job_id % max(1, self.spec.nodes
                                  - self._nodes_needed(job) + 1)
        comm = sim.comm(job.name, job.ranks, procs_per_node=ppn,
                        node_offset=offset)
        sim.spawn(self._job_body(job, pool_id, granted, comm, sim.now),
                  name=job.name)

    def _release(self, job: Job, pool_id: int, granted: float) -> None:
        if pool_id >= 0:
            pool = self.pools[pool_id]
            self._occ_touch(self.sim.now)
            pool.allocated -= granted
            self._occ_bytes -= granted
            pool.active_jobs.discard(job.job_id)
            self.system.set_bb_quota(job.name, None)
        self._active.pop(job.job_id, None)
        self.sim.telemetry.incr("wl-complete")
        self._try_admit()

    def _occ_touch(self, now: float) -> None:
        self._occ_area += self._occ_bytes * (now - self._occ_t)
        self._occ_t = now

    # -- job execution ------------------------------------------------------
    def _job_body(self, job: Job, pool_id: int, granted: float, comm,
                  admitted: float):
        sim = self.sim
        path = f"/wl/{job.name}.h5"
        seed_base = (job.job_id + 1) * 100003
        eof = 0               # next write region starts here
        last_base = 0         # start of the most recent write region
        last_nbytes = 0       # its per-rank width
        last_seed = 0
        bytes_written = 0.0
        bytes_read = 0.0
        last_fh = None
        for idx, phase in enumerate(job.phases):
            if phase.kind == "compute":
                if phase.seconds > 0:
                    yield sim.engine.timeout(phase.seconds)
                continue
            if phase.kind == "write":
                n = int(phase.nbytes_per_rank)
                if n <= 0:
                    continue
                seed = seed_base + idx * 1009
                fh = yield from sim.open(comm, path, "w",
                                         fstype="univistor")
                yield from fh.write_at_all([
                    IORequest.contiguous_block(
                        r, n, PatternPayload(seed + r), base_offset=eof)
                    for r in range(comm.size)])
                yield from fh.close()
                last_fh = fh
                last_base, last_nbytes, last_seed = eof, n, seed
                eof += n * comm.size
                bytes_written += float(n) * comm.size
            else:  # read: fetch the most recently written region
                n = min(int(phase.nbytes_per_rank), last_nbytes)
                if n <= 0:
                    continue
                fh = yield from sim.open(comm, path, "r",
                                         fstype="univistor")
                results = yield from fh.read_at_all([
                    IORequest(r, last_base + r * last_nbytes, n)
                    for r in range(comm.size)])
                yield from fh.close()
                last_fh = fh
                bytes_read += float(n) * comm.size
                if self.spec.verify_reads:
                    verify_read_back(
                        results, comm.size, n,
                        lambda rank: PatternPayload(last_seed + rank),
                        job.name)
        if last_fh is not None:
            yield from last_fh.sync()
        self.system.delete_file(path)
        sim.machine.unregister_program(job.name)
        finished = sim.now
        bw = sim.machine.spec.burst_buffer.aggregate_bandwidth
        ideal = ((bytes_written + bytes_read) / bw + job.compute_seconds
                 if bw > 0 else job.compute_seconds)
        self._results.append(JobResult(
            job_id=job.job_id, name=job.name, pattern=job.pattern,
            ranks=job.ranks, pool_id=pool_id, granted=granted,
            arrival=job.arrival, admitted=admitted, finished=finished,
            bytes_written=bytes_written, bytes_read=bytes_read,
            ideal_seconds=ideal))
        self._release(job, pool_id, granted)


# -- public entry points ------------------------------------------------------

def run_trace(trace: Union[JobTrace, str, os.PathLike], *,
              spec: Optional[WorkloadSpec] = None) -> TraceResult:
    """Replay a trace (object or JSON/CSV path) under one strategy."""
    if isinstance(trace, (str, os.PathLike)):
        trace = JobTrace.load(trace)
    return WorkloadEngine(trace, spec).run()


def compare_strategies(trace: Union[JobTrace, str, os.PathLike], *,
                       spec: Optional[WorkloadSpec] = None,
                       strategies: Sequence[str] = DEFAULT_STRATEGIES,
                       repeats: int = 1) -> Dict[str, TraceResult]:
    """Replay one trace under several strategies.

    With ``repeats > 1`` every strategy is rerun that many times and the
    run digests must be bit-identical — a cheap, always-on determinism
    check for the whole stack.
    """
    if isinstance(trace, (str, os.PathLike)):
        trace = JobTrace.load(trace)
    if not strategies:
        raise ValueError("no strategies to compare")
    base = spec or WorkloadSpec()
    out: Dict[str, TraceResult] = {}
    for name in strategies:
        sp = replace(base, strategy=name)
        first: Optional[TraceResult] = None
        for _ in range(max(1, repeats)):
            result = WorkloadEngine(trace, sp).run()
            if first is None:
                first = result
            elif result.digest != first.digest:
                raise RuntimeError(
                    f"strategy {name!r}: replay digests differ across "
                    "repeats (nondeterminism)")
        out[name] = first
    return out
