"""Simulator self-benchmarks: wall-clock cost of the reproduction itself.

Unlike the figure benches (which report *simulated* I/O rates), these
measure how fast the simulator runs on the host — the numbers that decide
whether the full paper sweep is practical.  They exercise the hot paths:
the event kernel, fair-share rescheduling, extent-map writes and the
full-stack micro-benchmark at two scales.
"""

import gc

import numpy as np

from repro.cluster.spec import MachineSpec
from repro.core import client as client_module
from repro.core import location_cache as location_cache_module
from repro.core import metadata as metadata_module
from repro.core.config import StorageTier, UniviStorConfig
from repro.core.dhp import DHPWriter, LogFile, PlacedSegment
from repro.core.flush import FlushService
from repro.core.metadata import (MetadataRecord, MetadataService,
                                 coalesce_records, pieces_by_range)
from repro.core.server import FileSession
from repro.experiments.common import build_simulation
from repro.sim import BandwidthResource, Engine
from repro.simmpi.mpiio import IORequest
from repro.simulation import Simulation
from repro.storage.datamodel import Extent, ExtentMap, PatternPayload
from repro.storage.posix import SimFile
from repro.units import KiB, MiB
from repro.workloads import MicroBench
from repro.workloads.vpic import VpicIO


class TestKernelThroughput:
    def test_event_loop_throughput(self, benchmark):
        """Chained timeouts: pure scheduler overhead per event."""
        def run():
            engine = Engine()

            def ticker():
                for _ in range(20_000):
                    yield engine.timeout(1.0)

            engine.run_process(ticker())
            return engine.now

        assert benchmark(run) == 20_000.0

    def test_fair_share_rescheduling(self, benchmark):
        """Staggered flows force O(flows) rescheduling churn."""
        def run():
            engine = Engine()
            pipe = BandwidthResource(engine, 1000.0)

            def submit(i):
                yield engine.timeout(i * 0.1)
                yield pipe.transfer(100.0 + i, streams=1 + i % 7)

            for i in range(300):
                engine.process(submit(i))
            engine.run()
            return pipe.bytes_moved

        assert benchmark(run) > 0

    def test_extent_map_random_writes(self, benchmark):
        """Interval-map maintenance under overwrite churn."""
        rng = np.random.default_rng(7)
        ops = [(int(o), int(l), int(s)) for o, l, s in
               zip(rng.integers(0, 1 << 20, 3000),
                   rng.integers(1, 1 << 12, 3000),
                   rng.integers(0, 50, 3000))]

        def run():
            m = ExtentMap()
            for offset, length, seed in ops:
                m.write(offset, length, PatternPayload(seed))
            return len(m)

        assert benchmark(run) > 0


class TestMetadataFastPath:
    """Host cost of the metadata plane (docs/MODEL.md §9)."""

    PROCS = 4
    WAVES = 24
    CHUNKS = 64
    CHUNK = int(4 * KiB)

    def _wave_records(self, wave):
        """One collective write's record stream: per-proc contiguous runs
        of chunk records, appended wave after wave (offsets *and* VAs
        continue across waves, so compaction can collapse each proc's
        region while the journal keeps every coalesced batch)."""
        records = []
        run_bytes = self.CHUNKS * self.CHUNK
        for proc in range(self.PROCS):
            base = proc * (64 << 20) + wave * run_bytes
            va = float(wave * run_bytes)
            for i in range(self.CHUNKS):
                records.append(MetadataRecord(
                    1, base + i * self.CHUNK, self.CHUNK, proc,
                    va + i * self.CHUNK, StorageTier.DRAM, proc % 2))
        return records

    def test_metadata_insert_throughput(self, benchmark):
        """Collective-write insert stream: batched + coalesced + merged."""
        waves = [self._wave_records(w) for w in range(self.WAVES)]

        def run():
            md = MetadataService(n_servers=8, range_size=float(1 * MiB),
                                 replication=2)
            for records in waves:
                md.insert_many(coalesce_records(records)[0])
            return md.record_count

        assert benchmark(run) > 0

    def test_cached_read_latency(self, benchmark):
        """Strided multi-range lookups through ``MetadataService.lookup``
        on a file its mirror tracks: mirror hits plus the per-range cost
        accounting, the path every read takes."""
        chunk = int(4 * KiB)
        n_records = 16384  # 64 MiB of 4 KiB pieces, writers alternating
        md = MetadataService(n_servers=4, range_size=float(64 * KiB),
                             replication=1, location_cache=True)
        md.create_file(1)
        hits = []
        md.on_cache_event = lambda name, n: hits.append(name == "cache-hit")
        md.insert_many([MetadataRecord(1, i * chunk, chunk, i % 4,
                                       float(i * chunk), StorageTier.DRAM,
                                       i % 2)
                        for i in range(n_records)])
        span = int(1 * MiB)
        limit = n_records * chunk - span
        offsets = [(j * 997 * chunk) % limit // chunk * chunk
                   for j in range(64)]

        def run():
            total = 0
            for off in offsets:
                found, servers = md.lookup(1, off, span)
                assert len(servers) == 4
                total += len(found)
            return total

        assert benchmark(run) > 0
        assert hits and all(hits)

    def test_route_table_reuse(self, monkeypatch):
        """A 1024-proc VPIC-IO checkpoint (8 collective writes): each
        range's write ackers are computed at most once per routing
        generation — the per-request probes fill the route table — and
        never inside ``insert_many``, whose per-range check is a table
        hit."""
        compute = MetadataService._compute_ackers
        insert_many = MetadataService.insert_many
        probe = MetadataService.write_target_servers
        computed = []
        touched = set()
        probes = []
        inside = [False]

        def counting_compute(md, range_index, offset):
            computed.append((range_index, md.generation, inside[0]))
            return compute(md, range_index, offset)

        def flagged_insert_many(md, *args, **kwargs):
            inside[0] = True
            try:
                return insert_many(md, *args, **kwargs)
            finally:
                inside[0] = False

        def noting_probe(md, fid, offset, length):
            probes.append(offset)
            touched.update(range(int(offset // md.range_size),
                                 int((offset + length - 1)
                                     // md.range_size) + 1))
            return probe(md, fid, offset, length)

        monkeypatch.setattr(MetadataService, "_compute_ackers",
                            counting_compute)
        monkeypatch.setattr(MetadataService, "insert_many",
                            flagged_insert_many)
        monkeypatch.setattr(MetadataService, "write_target_servers",
                            noting_probe)
        procs = 1024
        sim, fstype = build_simulation(procs, "UniviStor/(DRAM+BB)")
        comm = sim.comm("vpic", size=procs)
        vpic = VpicIO(sim, comm, fstype, steps=1, compute_seconds=0.0,
                      particles_per_proc=1 << 20)
        sim.run_to_completion(vpic.run(sync_last=False))

        assert len(probes) == 8 * procs  # one probe per request
        assert not [c for c in computed if c[2]]
        per_generation = [(r, gen) for r, gen, _inside in computed]
        assert len(per_generation) == len(set(per_generation))
        assert {r for r, _gen in per_generation} <= touched
        assert len(computed) <= len(touched)

    def test_one_apply_per_store_range(self, monkeypatch):
        """A 1024-proc VPIC-IO checkpoint: each shipped batch reaches
        each acker's store in one ``apply_insert`` call, whatever the
        number of ranges it touches there, and the metadata mirror in
        one more, and ``MetadataRecord.__post_init__`` runs once per
        record the client builds — cut pieces, merges and slices skip
        it."""
        apply_insert = metadata_module.apply_insert
        insert_many = MetadataService.insert_many
        coalesce = client_module.coalesce_records
        post_init = MetadataRecord.__post_init__
        counts = {"applies": 0, "expected": 0, "per_range": 0, "built": 0,
                  "validated": 0}

        def counting_apply(store, pieces, range_size):
            counts["applies"] += 1
            return apply_insert(store, pieces, range_size)

        def noting_insert_many(md, records):
            touched = insert_many(md, records)
            ackers = set()
            for range_index in pieces_by_range(records, md.range_size):
                # Ackers from the route table: unsplit, no side effects.
                ackers.update(md._ackers[range_index])
                counts["per_range"] += len(md._ackers[range_index]) + 1
            counts["expected"] += len(ackers) + 1
            return touched

        def noting_coalesce(pending):
            counts["built"] += len(pending)
            return coalesce(pending)

        def counting_post_init(record):
            counts["validated"] += 1
            post_init(record)

        monkeypatch.setattr(metadata_module, "apply_insert", counting_apply)
        monkeypatch.setattr(location_cache_module, "apply_insert",
                            counting_apply)
        monkeypatch.setattr(MetadataService, "insert_many",
                            noting_insert_many)
        monkeypatch.setattr(client_module, "coalesce_records",
                            noting_coalesce)
        monkeypatch.setattr(MetadataRecord, "__post_init__",
                            counting_post_init)
        procs = 1024
        sim, fstype = build_simulation(procs, "UniviStor/(DRAM+BB)")
        assert sim.univistor.metadata.location_cache is not None
        comm = sim.comm("vpic", size=procs)
        vpic = VpicIO(sim, comm, fstype, steps=1, compute_seconds=0.0,
                      particles_per_proc=1 << 20)
        sim.run_to_completion(vpic.run(sync_last=False))

        assert counts["built"] >= 8 * procs
        assert counts["applies"] == counts["expected"]
        # Fewer calls than one per (acker, range) and one per mirrored
        # range.
        assert counts["applies"] < counts["per_range"]
        assert counts["validated"] == counts["built"]

    def test_flush_copy_one_window_per_run(self, monkeypatch):
        """A 1024-proc VPIC-IO checkpoint and its flush: the clean
        materialisation reads each record run's log window once and
        builds no extent through the validating constructor (reads,
        rebases and merges skip it), and ``record_runs`` groups the
        file's records without one ``_mergeable`` call per pair."""
        post_init = Extent.__post_init__
        read_at = SimFile.read_at
        materialise = FlushService._materialise_to_pfs
        counts = {"validated": 0, "reads": 0, "runs": 0, "flushes": 0}
        in_flush = []

        def counting_post_init(extent):
            if in_flush:
                counts["validated"] += 1
            post_init(extent)

        def counting_read_at(sim_file, offset, length):
            if in_flush:
                counts["reads"] += 1
            return read_at(sim_file, offset, length)

        def noting_materialise(service, session):
            records = service.system.metadata.records_of(session.fid)
            with monkeypatch.context() as patch:
                mergeable = []
                patch.setattr(metadata_module, "_mergeable",
                              lambda a, b: mergeable.append(1))
                counts["runs"] += len(metadata_module.record_runs(records))
                assert mergeable == []
            counts["flushes"] += 1
            in_flush.append(session.path)
            try:
                materialise(service, session)
            finally:
                in_flush.pop()

        monkeypatch.setattr(Extent, "__post_init__", counting_post_init)
        monkeypatch.setattr(SimFile, "read_at", counting_read_at)
        monkeypatch.setattr(FlushService, "_materialise_to_pfs",
                            noting_materialise)
        procs = 1024
        sim, fstype = build_simulation(procs, "UniviStor/(DRAM+BB)")
        comm = sim.comm("vpic", size=procs)
        vpic = VpicIO(sim, comm, fstype, steps=1, compute_seconds=0.0,
                      particles_per_proc=1 << 20)
        sim.run_to_completion(vpic.run(sync_last=True))

        assert counts["flushes"] == 1
        assert counts["runs"] >= 8 * procs
        assert counts["reads"] == counts["runs"]
        assert counts["validated"] == 0


    def test_lean_write_state_per_rank(self, monkeypatch):
        """A 1024-rank DRAM micro write: each created log and writer runs
        its constructor once (the per-plan checks happen once per layer
        plan, not per rank), and no append-only log holds a per-chunk
        list."""
        counts = {"logs": 0, "writers": 0}
        log_init, writer_init = LogFile.__init__, DHPWriter.__init__

        def counting_log(*args, **kwargs):
            counts["logs"] += 1
            log_init(*args, **kwargs)

        def counting_writer(*args, **kwargs):
            counts["writers"] += 1
            writer_init(*args, **kwargs)

        monkeypatch.setattr(LogFile, "__init__", counting_log)
        monkeypatch.setattr(DHPWriter, "__init__", counting_writer)
        procs = 1024
        sim, fstype = build_simulation(procs, "UniviStor/DRAM")
        comm = sim.comm("iobench", size=procs)
        bench = MicroBench(sim, comm, "/pfs/m.h5", fstype,
                           bytes_per_proc=1 * MiB)
        sim.run_to_completion(bench.write_phase())

        writers = sim.univistor.session("/pfs/m.h5").writers
        logs = [log for writer in writers.values()
                for log in writer.created_logs]
        assert len(writers) == procs
        assert counts["writers"] == len(writers)
        assert counts["logs"] == len(logs) == procs
        for log in logs:
            names = getattr(type(log), "__slots__", None) or vars(log)
            assert not [name for name in names
                        if isinstance(getattr(log, name), list)]

    def test_value_types_write_slots(self, monkeypatch):
        """The hot frozen value types store their fields through slot
        descriptors, not ``object.__setattr__``, and a 1024-rank DRAM
        micro write builds one validated record, placed segment and log
        extent per rank (everything derived from them skips
        validation)."""
        for cls in (MetadataRecord, PlacedSegment, Extent, PatternPayload,
                    IORequest):
            assert "__setattr__" not in cls.__init__.__code__.co_names, cls
        counts = {MetadataRecord: 0, PlacedSegment: 0, Extent: 0}

        def counting(cls, init):
            def counting_init(obj, *args, **kwargs):
                counts[cls] += 1
                init(obj, *args, **kwargs)
            return counting_init

        for cls in counts:
            monkeypatch.setattr(cls, "__init__",
                                counting(cls, cls.__init__))
        procs = 1024
        sim, fstype = build_simulation(procs, "UniviStor/DRAM")
        comm = sim.comm("iobench", size=procs)
        bench = MicroBench(sim, comm, "/pfs/m.h5", fstype,
                           bytes_per_proc=1 * MiB)
        sim.run_to_completion(bench.write_phase())

        session = sim.univistor.session("/pfs/m.h5")
        logs = [log for writer in session.writers.values()
                for log in writer.created_logs]
        assert len(logs) == procs
        assert sum(len(log.sim_file.data) for log in logs) == procs
        assert counts[MetadataRecord] == procs
        assert counts[PlacedSegment] == procs
        assert counts[Extent] == procs

    def test_bulk_build_paused_with_one_step_first_appends(self,
                                                           monkeypatch):
        """A 4096-rank DRAM micro write builds its rank state in bulk:
        no collection of any generation runs from the collective's first
        writer lookup to the return of its metadata ship, every rank's
        first write fits and lands in one step without
        ``LogFile.append``, and the collector is on afterwards."""
        window = {"open": False}
        collections = []
        appends = []
        writer_for = FileSession.writer_for
        ship = client_module.UniviStorDriver._ship_pending
        append = LogFile.append

        def opening_writer_for(*args, **kwargs):
            window["open"] = True
            return writer_for(*args, **kwargs)

        def closing_ship(*args, **kwargs):
            ship(*args, **kwargs)
            window["open"] = False

        def counting_append(*args, **kwargs):
            appends.append(1)
            return append(*args, **kwargs)

        def on_gc(phase, info):
            if phase == "start" and window["open"]:
                collections.append(info["generation"])

        monkeypatch.setattr(FileSession, "writer_for", opening_writer_for)
        monkeypatch.setattr(client_module.UniviStorDriver, "_ship_pending",
                            closing_ship)
        monkeypatch.setattr(LogFile, "append", counting_append)
        procs = 4096
        sim, fstype = build_simulation(procs, "UniviStor/DRAM")
        comm = sim.comm("iobench", size=procs)
        bench = MicroBench(sim, comm, "/pfs/m.h5", fstype,
                           bytes_per_proc=1 * MiB)
        assert gc.isenabled()
        gc.callbacks.append(on_gc)
        try:
            sim.run_to_completion(bench.write_phase())
        finally:
            gc.callbacks.remove(on_gc)
        assert not window["open"]
        assert collections == []
        assert appends == []
        writers = sim.univistor.session("/pfs/m.h5").writers
        assert len(writers) == procs
        assert all(len(w.created_logs) == 1 for w in writers.values())
        assert gc.isenabled()


class TestHotRangeThroughput:
    """Simulated payoff of the adaptive hotspot mitigation
    (docs/MODEL.md §11): every rank hammers a small slot inside ONE
    64 KiB metadata range, so the static layout serializes each
    collective on the range's replica set while the mitigation splits
    the range across the (elastically grown) server pool."""

    RANKS = 6
    WAVES = 60
    SLOTS_PER_RANK = 8
    SLOT = 512

    def _run_skewed(self, adaptive):
        """Returns the simulated hot-phase throughput (bytes/s)."""
        config = UniviStorConfig.hardened(
            metadata_range_size=float(64 * KiB),
            journal_checkpoint=2,
            hotspot_enabled=adaptive,
            range_split_threshold=8,
            range_merge_threshold=0,
            hotspot_interval=0.002,
            pool_max_servers=8)
        sim = Simulation(MachineSpec.small_test(nodes=3))
        sim.install_univistor(config)
        comm = sim.comm("hot", self.RANKS, procs_per_node=2)
        n_slots = self.RANKS * self.SLOTS_PER_RANK
        stride = int(64 * KiB) // n_slots
        elapsed = {}

        def app():
            fh = yield from sim.open(comm, "/hot", "w",
                                     fstype="univistor")
            start = sim.now
            for wave in range(self.WAVES):
                yield from fh.write_at_all([
                    IORequest(r, (r * self.SLOTS_PER_RANK + k) * stride,
                              self.SLOT,
                              PatternPayload(wave * n_slots + r + k))
                    for r in range(comm.size)
                    for k in range(self.SLOTS_PER_RANK)])
            elapsed["hot"] = sim.now - start
            yield from fh.close()
            yield from fh.sync()

        sim.run_to_completion(app())
        sim.run()
        return self.WAVES * n_slots * self.SLOT / elapsed["hot"]

    def test_hot_range_throughput(self, benchmark):
        """Skewed overwrite waves into one range; with the mitigation on
        the simulated hot-range throughput must be at least 2x the
        static layout's."""
        adaptive = benchmark.pedantic(self._run_skewed, args=(True,),
                                      rounds=3, iterations=1)
        benchmark.extra_info["simulated_bytes_per_sec"] = adaptive
        static = self._run_skewed(False)
        assert adaptive >= 2.0 * static, (
            f"hot-range mitigation payoff below 2x: "
            f"{adaptive / static:.2f}x")


class TestWriteQuorumOverhead:
    """Simulated write-ack cost of the synchronous data-plane quorum
    (docs/MODEL.md §12): at ``data_quorum=2`` the shared-BB mirror
    joins the collective's completion, so the ack waits for the slowest
    of the primary placement and the mirror.  Non-gating on the ratio —
    the bench records the dq=2 vs dq=1 simulated write-phase times in
    the trajectory so the durability-vs-latency trade-off stays
    visible across PRs."""

    RANKS = 6
    WAVES = 20
    BLOCK = int(256 * KiB)

    def _run_waves(self, data_quorum):
        """Returns the simulated write-phase duration (seconds)."""
        config = UniviStorConfig.hardened(
            metadata_range_size=float(64 * KiB),
            journal_checkpoint=2,
            data_quorum=data_quorum)
        sim = Simulation(MachineSpec.small_test(nodes=3))
        sim.install_univistor(config)
        comm = sim.comm("quorum", self.RANKS, procs_per_node=2)
        elapsed = {}

        def app():
            fh = yield from sim.open(comm, "/quorum", "w",
                                     fstype="univistor")
            start = sim.now
            for wave in range(self.WAVES):
                yield from fh.write_at_all([
                    IORequest.contiguous_block(
                        r, self.BLOCK,
                        PatternPayload(wave * self.RANKS + r))
                    for r in range(comm.size)])
            elapsed["write"] = sim.now - start
            yield from fh.close()
            yield from fh.sync()

        sim.run_to_completion(app())
        sim.run()
        return elapsed["write"]

    def test_write_quorum_overhead(self, benchmark):
        dq2 = benchmark.pedantic(self._run_waves, args=(2,),
                                 rounds=3, iterations=1)
        dq1 = self._run_waves(1)
        benchmark.extra_info["simulated_write_seconds_dq2"] = dq2
        benchmark.extra_info["simulated_write_seconds_dq1"] = dq1
        benchmark.extra_info["quorum_overhead_ratio"] = dq2 / dq1
        # The mirror rides the ack path, so dq=2 can never be cheaper
        # than the async-replication baseline; the magnitude is
        # trajectory data, not a gate.
        assert dq2 >= dq1


class TestFullStackThroughput:
    def _run_micro(self, procs, bytes_per_proc=256 * MiB, config=None):
        sim, fstype = build_simulation(procs, "UniviStor/DRAM",
                                       config=config)
        comm = sim.comm("iobench", size=procs)
        bench = MicroBench(sim, comm, "/pfs/m.h5", fstype,
                           bytes_per_proc=bytes_per_proc)

        def app():
            yield from bench.write_phase()
            yield from bench.read_phase()

        sim.run_to_completion(app())
        return sim.telemetry.total_bytes(op="write")

    def test_micro_1024_procs_wall_time(self, benchmark):
        """Full write+read at 1024 ranks (32 nodes)."""
        total = benchmark.pedantic(self._run_micro, args=(1024,),
                                   rounds=3, iterations=1)
        assert total == 1024 * 256 * MiB

    def test_micro_8192_procs_wall_time(self, benchmark):
        """Full write+read at the paper's largest scale (256 nodes)."""
        total = benchmark.pedantic(self._run_micro, args=(8192,),
                                   rounds=1, iterations=1)
        assert total == 8192 * 256 * MiB

    def test_micro_100k_procs_wall_time(self, benchmark):
        """Full write+read at 100 000 ranks (3125 nodes) — the ROADMAP's
        whole-machine-rank-count scale gate.

        Per-rank payload is small (1 MiB): the point is rank-count
        scaling of the kernel, collective, and metadata paths, not
        bytes."""
        total = benchmark.pedantic(self._run_micro,
                                   args=(100_000, 1 * MiB),
                                   rounds=1, iterations=1)
        assert total == 100_000 * 1 * MiB


class TestMultiJobThroughput:
    def _run_trace(self):
        from repro.workloads.engine import WorkloadSpec, run_trace
        spec = WorkloadSpec(jobs=25, seed=0)
        return run_trace(spec.generate(), spec=spec)

    def test_multi_job_throughput(self, benchmark):
        """25-job heavy-tail trace through admission + DHP: the wall cost
        of one strategy point in a compare-strategies sweep."""
        result = benchmark.pedantic(self._run_trace, rounds=3, iterations=1)
        assert len(result.jobs) == 25
        assert result.counters["wl-complete"] == 25
