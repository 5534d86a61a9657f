"""Unit tests for the UniviStor ADIO driver (COC, telemetry, workflow)."""

import pytest

from repro import (
    IORequest,
    MachineSpec,
    PatternPayload,
    Simulation,
    UniviStorConfig,
)
from repro.core.metadata import MetadataUnavailableError
from repro.units import KiB, MiB


def setup(config=None, nodes=2, cori=False):
    spec = (MachineSpec.cori_haswell(nodes=nodes) if cori
            else MachineSpec.small_test(nodes=nodes))
    sim = Simulation(spec)
    sim.install_univistor(config or UniviStorConfig.dram_only(
        flush_enabled=False))
    comm = sim.comm("app", nodes * (32 if cori else 4))
    return sim, comm


def open_close(sim, comm, mode="w"):
    def app():
        fh = yield from sim.open(comm, "/f", mode, fstype="univistor")
        if mode == "w":
            yield from fh.write_at_all([
                IORequest(0, 0, 1024, PatternPayload(0))])
        yield from fh.close()

    sim.run_to_completion(app())
    return (sim.telemetry.total_time(op="open"),
            sim.telemetry.total_time(op="close"))


class TestCollectiveOpenClose:
    def test_coc_open_cheaper_than_all_to_one(self):
        sim_on, comm_on = setup(cori=True)
        t_open_on, t_close_on = open_close(sim_on, comm_on)
        sim_off, comm_off = setup(
            UniviStorConfig.dram_only(flush_enabled=False).without(
                "collective_open_close"), cori=True)
        t_open_off, t_close_off = open_close(sim_off, comm_off)
        assert t_open_off > t_open_on * 5
        assert t_close_off > t_close_on * 5

    def test_all_to_one_cost_scales_with_ranks(self):
        costs = {}
        for nodes in (2, 8):
            sim, comm = setup(
                UniviStorConfig.dram_only(flush_enabled=False).without(
                    "collective_open_close"), nodes=nodes, cori=True)
            costs[nodes], _ = open_close(sim, comm)
        assert costs[8] > costs[2] * 3  # ~linear in rank count

    def test_coc_cost_near_flat_in_ranks(self):
        costs = {}
        for nodes in (2, 8):
            sim, comm = setup(nodes=nodes, cori=True)
            costs[nodes], _ = open_close(sim, comm)
        assert costs[8] < costs[2] * 3  # log-ish growth only

    def test_read_open_cheaper_than_write_open(self):
        config = UniviStorConfig.dram_only(flush_enabled=False).without(
            "collective_open_close")
        sim, comm = setup(config, cori=True)
        open_close(sim, comm, mode="w")
        t_open_w = sim.telemetry.select(op="open")[0].duration
        sim.telemetry.clear()

        def reader():
            fh = yield from sim.open(comm, "/f", "r", fstype="univistor")
            yield from fh.close()

        sim.run_to_completion(reader())
        t_open_r = sim.telemetry.select(op="open")[0].duration
        # File creates/EOF updates are heavier than attribute fetches.
        assert t_open_r < t_open_w


class TestTelemetry:
    def test_all_ops_recorded(self):
        sim, comm = setup()

        def app():
            fh = yield from sim.open(comm, "/f", "w", fstype="univistor")
            yield from fh.write_at_all([
                IORequest.contiguous_block(r, int(64 * KiB),
                                           PatternPayload(r))
                for r in range(comm.size)])
            yield from fh.close()
            fh2 = yield from sim.open(comm, "/f", "r", fstype="univistor")
            yield from fh2.read_at_all([
                IORequest(r, r * int(64 * KiB), int(64 * KiB))
                for r in range(comm.size)])
            yield from fh2.close()

        sim.run_to_completion(app())
        counts = sim.telemetry.op_counts()
        assert counts == {"open": 2, "write": 1, "read": 1, "close": 2}

    def test_write_bytes_accounted(self):
        sim, comm = setup()

        def app():
            fh = yield from sim.open(comm, "/f", "w", fstype="univistor")
            yield from fh.write_at_all([
                IORequest.contiguous_block(r, int(64 * KiB),
                                           PatternPayload(r))
                for r in range(comm.size)])
            yield from fh.close()

        sim.run_to_completion(app())
        assert sim.telemetry.total_bytes(op="write") == pytest.approx(
            comm.size * 64 * KiB)

    def test_driver_label(self):
        sim, comm = setup()
        open_close(sim, comm)
        assert all(r.driver == "univistor"
                   for r in sim.telemetry.records)


class TestWorkflowIntegration:
    def test_write_lock_held_across_open_close(self):
        sim, comm = setup(UniviStorConfig.dram_only(
            flush_enabled=False, workflow_enabled=True))
        from repro.core.workflow import FileState

        def app():
            fh = yield from sim.open(comm, "/f", "w", fstype="univistor")
            state_during = sim.univistor.workflow.state_of("/f")
            yield from fh.write_at_all([
                IORequest(0, 0, 1024, PatternPayload(0))])
            yield from fh.close()
            return state_during

        state_during = sim.run_to_completion(app())
        assert state_during is FileState.WRITING
        assert sim.univistor.workflow.state_of("/f") is FileState.WRITE_DONE

    def test_reader_blocks_until_writer_closes(self):
        sim, comm = setup(UniviStorConfig.dram_only(
            flush_enabled=False, workflow_enabled=True))
        reader_comm = sim.comm("reader", 2, procs_per_node=1)
        times = {}

        def writer():
            fh = yield from sim.open(comm, "/f", "w", fstype="univistor")
            yield from fh.write_at_all([
                IORequest.contiguous_block(r, int(1 * MiB),
                                           PatternPayload(r))
                for r in range(comm.size)])
            yield sim.engine.timeout(5.0)  # dawdle with the lock held
            yield from fh.close()
            times["writer_close"] = sim.now

        def reader():
            yield sim.engine.timeout(0.1)
            fh = yield from sim.open(reader_comm, "/f", "r",
                                     fstype="univistor")
            times["reader_open"] = sim.now
            yield from fh.read_at_all([IORequest(0, 0, int(1 * MiB))])
            yield from fh.close()

        sim.spawn(writer())
        sim.spawn(reader())
        sim.run()
        assert times["reader_open"] >= times["writer_close"]

    def test_no_blocking_when_workflow_disabled(self):
        sim, comm = setup()
        reader_comm = sim.comm("reader", 2, procs_per_node=1)
        times = {}

        def writer():
            fh = yield from sim.open(comm, "/f", "w", fstype="univistor")
            yield from fh.write_at_all([
                IORequest.contiguous_block(r, int(1 * MiB),
                                           PatternPayload(r))
                for r in range(comm.size)])
            yield sim.engine.timeout(5.0)
            yield from fh.close()

        def reader():
            yield sim.engine.timeout(0.5)
            fh = yield from sim.open(reader_comm, "/f", "r",
                                     fstype="univistor")
            times["reader_open"] = sim.now
            yield from fh.close()

        sim.spawn(writer())
        sim.spawn(reader())
        sim.run()
        # Danger of stale reads — but no waiting (ENABLE_WORKFLOW unset).
        assert times["reader_open"] < 5.0


class TestMetadataRangeLoss:
    def test_write_into_lost_range_ships_earlier_requests_then_raises(self):
        # Baseline config with one metadata copy per range: failing
        # server 1 loses range 1 whole (ranges go round-robin over the
        # 4 servers), and the write runs without quorum.
        block = int(64 * KiB)
        sim, comm = setup(UniviStorConfig.dram_only(
            flush_enabled=False, metadata_replication=1,
            metadata_range_size=float(block)))
        system = sim.univistor
        system.metadata.fail_server(1)
        errors = []

        def app():
            fh = yield from sim.open(comm, "/f", "w", fstype="univistor")
            try:
                # Rank 0 stays in live range 0; rank 1 crosses from
                # range 0 into the dead range 1.
                yield from fh.write_at_all([
                    IORequest(0, 0, block // 4, PatternPayload(0)),
                    IORequest(1, block - block // 4, block // 2,
                              PatternPayload(1))])
            except MetadataUnavailableError as err:
                errors.append(err)

        sim.run_to_completion(app())
        fid = system.session("/f").fid
        assert len(errors) == 1
        err = errors[0]
        # The error names the dead span the refused request touches.
        assert (err.fid, err.offset, err.length) == (fid, block, block // 4)
        # Rank 0's earlier request shipped and is readable; rank 1's was
        # refused whole, its live-range part included.
        found, _ = system.metadata.lookup(fid, 0, block)
        assert [(r.offset, r.length, r.proc_id) for r in found] == [
            (0, block // 4, 0)]
        # The metadata mirror still holds exactly what the stores hold.
        assert system.metadata.location_cache.lookup(fid, 0, block) == \
            system.metadata.records_of(fid) == found
