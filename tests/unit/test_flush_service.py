"""Unit tests for the server-side flush service (§II-A/§II-D)."""

import pytest

from repro import (
    IORequest,
    MachineSpec,
    PatternPayload,
    Simulation,
    UniviStorConfig,
)
from repro.core import StorageTier
from repro.core.workflow import FileState
from repro.units import KiB, MiB


def setup(config=None, nodes=2):
    sim = Simulation(MachineSpec.small_test(nodes=nodes))
    sim.install_univistor(config or UniviStorConfig.dram_only())
    comm = sim.comm("app", 4, procs_per_node=2)
    return sim, comm


def write_and_close(sim, comm, path, block=int(256 * KiB), sync=False):
    def app():
        fh = yield from sim.open(comm, path, "w", fstype="univistor")
        yield from fh.write_at_all([
            IORequest.contiguous_block(r, block, PatternPayload(r))
            for r in range(comm.size)])
        yield from fh.close()
        if sync:
            yield from fh.sync()
        return fh

    return sim.run_to_completion(app())


class TestFlushBasics:
    def test_noop_flush_when_nothing_cached(self):
        sim, comm = setup(UniviStorConfig.pfs_only())
        write_and_close(sim, comm, "/f", sync=True)
        # Data went straight to the PFS tier: nothing to flush.
        assert sim.telemetry.select(op="flush") == []

    def test_flush_records_bytes(self):
        sim, comm = setup()
        block = int(256 * KiB)
        write_and_close(sim, comm, "/f", block, sync=True)
        flush, = sim.telemetry.select(op="flush")
        assert flush.nbytes == pytest.approx(4 * block)

    def test_flush_event_idempotent_wait(self):
        sim, comm = setup()
        fh = write_and_close(sim, comm, "/f", sync=True)

        def wait_again():
            yield from fh.sync()
            return sim.now

        # Second sync returns immediately (flush already done).
        before = sim.now
        assert sim.run_to_completion(wait_again()) == before

    def test_flush_toggles_scheduler_state(self):
        sim, comm = setup()
        sched = sim.univistor.scheduler
        states = []

        def snooper():
            for _ in range(200):
                states.append(sched.flush_active)
                yield sim.engine.timeout(0.0005)

        sim.spawn(snooper())
        write_and_close(sim, comm, "/f", int(4 * MiB), sync=True)
        assert any(states), "flush window never observed"
        assert not sched.flush_active

    def test_flush_workflow_states_when_enabled(self):
        sim, comm = setup(UniviStorConfig.dram_only(workflow_enabled=True))
        write_and_close(sim, comm, "/f", sync=True)
        states = [s for s, _ in sim.univistor.workflow.history_of("/f")]
        assert FileState.FLUSHING in states
        assert states[-1] is FileState.FLUSH_DONE

    def test_no_workflow_states_when_disabled(self):
        sim, comm = setup()
        write_and_close(sim, comm, "/f", sync=True)
        assert sim.univistor.workflow.history_of("/f") == []


class TestFlushContent:
    def test_pfs_copy_is_byte_exact(self):
        sim, comm = setup()
        block = int(300 * KiB)  # deliberately unaligned
        write_and_close(sim, comm, "/f", block, sync=True)
        pfs = sim.machine.pfs_files.open("/f")
        for r in range(4):
            assert (pfs.read_bytes(r * block, block)
                    == PatternPayload(r).materialize(0, block))

    def test_spilled_file_flushes_all_tiers(self):
        from repro.cluster.spec import NodeSpec
        spec = MachineSpec.small_test(nodes=2)
        node = NodeSpec(cores=4, numa_sockets=2, dram_capacity=4 * 2**30,
                        dram_cache_capacity=4 * MiB, dram_bandwidth=10e9)
        spec = MachineSpec(nodes=2, node=node,
                           burst_buffer=spec.burst_buffer,
                           lustre=spec.lustre, network=spec.network, seed=1)
        sim = Simulation(spec)
        sim.install_univistor(UniviStorConfig.dram_bb(chunk_size=1 * MiB))
        comm = sim.comm("app", 4, procs_per_node=2)
        block = int(4 * MiB)  # 16 MiB total >> 8 MiB DRAM
        write_and_close(sim, comm, "/f", block, sync=True)
        tiers = sim.univistor.session("/f").cached_bytes_per_tier()
        assert tiers[StorageTier.SHARED_BB] > 0  # really spilled
        pfs = sim.machine.pfs_files.open("/f")
        for r in range(4):
            assert (pfs.read_bytes(r * block, block)
                    == PatternPayload(r).materialize(0, block))

    def test_lost_record_inside_a_run_keeps_its_old_flush(self):
        """One record in the middle of a contiguous run has no clean
        copy at re-flush time: ``flush-lost`` reports exactly its
        bytes, its neighbours materialise, and its span keeps the
        previous flush's bytes *and* version stamp — so a later degraded
        read refuses the stale PFS copy instead of serving it."""
        from repro.core.errors import DataLossError
        from repro.core.metadata import record_runs
        sim, comm = setup(UniviStorConfig.dram_only(
            metadata_range_size=int(64 * KiB)))
        system = sim.univistor
        lo, block = int(32 * KiB), int(192 * KiB)

        def write(pattern):
            fh = yield from sim.open(comm, "/f", "w", fstype="univistor")
            yield from fh.write_at_all([
                IORequest(0, lo, block, PatternPayload(pattern))])
            return fh

        def app():
            fh = yield from write(1)
            yield from fh.close()
            yield from fh.sync()
            fh = yield from write(2)
            # The overwrite's four range pieces form one record run;
            # rot the second one's log bytes before the re-flush.
            session = system.session("/f")
            run, = record_runs(system.metadata.records_of(session.fid))
            assert len(run) == 4
            victim = run[1]
            layer, addr = session.writers[0].vas.resolve(victim.va)
            session.writers[0].log(layer).sim_file.corrupt_at(
                int(addr), victim.length, 99)
            yield from fh.close()
            yield from fh.sync()
            return victim

        victim = sim.run_to_completion(app())
        lost, = sim.telemetry.select(op="flush-lost")
        assert lost.nbytes == victim.length
        pfs = sim.machine.pfs_files.open("/f")
        v1 = PatternPayload(1).materialize(0, block)
        v2 = PatternPayload(2).materialize(0, block)
        cut_lo, cut_hi = victim.offset - lo, victim.end - lo
        # Neighbours hold the overwrite; the lost span the old flush.
        assert pfs.read_bytes(lo, cut_lo) == v2[:cut_lo]
        assert (pfs.read_bytes(victim.offset, victim.length)
                == v1[cut_lo:cut_hi])
        assert (pfs.read_bytes(victim.end, block - cut_hi)
                == v2[cut_hi:])
        session = system.session("/f")
        assert session.pfs_versions.stale_spans(
            session.data_versions, lo, block)[0].start == victim.offset

        def read_victim():
            fh = yield from sim.open(comm, "/f", "r", fstype="univistor")
            yield from fh.read_at_all([
                IORequest(0, victim.offset, victim.length)])

        with pytest.raises(DataLossError) as info:
            sim.run_to_completion(read_victim())
        stale, = info.value.stale_provenance
        assert (stale.start, stale.end) == (victim.offset, victim.end)
        assert (stale.have_version, stale.want_version) == (1, 2)
        assert sim.telemetry.counters["data-stale-reject"] >= 1

    def test_overwrite_after_flush_reflushes(self):
        """Regression (found by the stateful model test): an overwrite
        after a completed flush must be flushed again — live-byte
        accounting alone would see nothing new and leave the PFS stale."""
        sim, comm = setup()
        block = int(64 * KiB)

        def app():
            fh = yield from sim.open(comm, "/f", "w", fstype="univistor")
            yield from fh.write_at_all([
                IORequest(0, 0, block, PatternPayload(1))])
            yield from fh.close()
            yield from fh.sync()
            fh2 = yield from sim.open(comm, "/f", "w", fstype="univistor")
            yield from fh2.write_at_all([
                IORequest(0, 0, block, PatternPayload(2))])  # overwrite
            yield from fh2.close()
            yield from fh2.sync()

        sim.run_to_completion(app())
        flushes = sim.telemetry.select(op="flush")
        assert len(flushes) == 2, "second close must trigger a real flush"
        pfs = sim.machine.pfs_files.open("/f")
        assert pfs.read_bytes(0, block) == PatternPayload(2).materialize(
            0, block), "PFS copy went stale after the overwrite"

    def test_flush_preserves_overwrites(self):
        sim, comm = setup()
        block = int(128 * KiB)

        def app():
            fh = yield from sim.open(comm, "/f", "w", fstype="univistor")
            yield from fh.write_at_all([
                IORequest.contiguous_block(r, block, PatternPayload(r))
                for r in range(4)])
            yield from fh.write_at_all([
                IORequest(0, 0, block, PatternPayload(77))])
            yield from fh.close()
            yield from fh.sync()

        sim.run_to_completion(app())
        pfs = sim.machine.pfs_files.open("/f")
        assert pfs.read_bytes(0, block) == PatternPayload(77).materialize(
            0, block)


class TestAdaptiveVsDefaultFlush:
    def flush_time(self, adaptive):
        config = UniviStorConfig.dram_only()
        if not adaptive:
            config = config.without("adaptive_striping")
        sim = Simulation(MachineSpec.cori_haswell(nodes=2))
        sim.install_univistor(config)
        comm = sim.comm("app", 64)
        write_and_close(sim, comm, "/f", int(64 * MiB), sync=True)
        flush, = sim.telemetry.select(op="flush")
        return flush.duration

    def test_adpt_flushes_faster(self):
        assert self.flush_time(True) < self.flush_time(False)
