"""Unit tests for the simulated MPI substrate."""

import pytest

from repro.cluster.spec import MachineSpec
from repro.cluster.topology import Machine
from repro.core.config import UniviStorConfig
from repro.sim import Engine
from repro.simmpi import (
    BYTE,
    Communicator,
    DOUBLE,
    Datatype,
    DriverRegistry,
    File,
    INT,
    IORequest,
    OpenContext,
)
from repro.simmpi.adio import ADIODriver
from repro.simulation import Simulation
from repro.storage.datamodel import BytesPayload, PatternPayload


@pytest.fixture
def machine():
    return Machine(Engine(), MachineSpec.small_test(nodes=2))


class TestDatatypes:
    def test_sizes(self):
        assert BYTE.size == 1
        assert INT.size == 4
        assert DOUBLE.size == 8

    def test_extent(self):
        assert DOUBLE.extent(10) == 80
        with pytest.raises(ValueError):
            DOUBLE.extent(-1)

    def test_contiguous(self):
        vec = DOUBLE.contiguous(3)
        assert vec.size == 24
        assert vec.extent(2) == 48

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Datatype("bad", 0)


class TestCommunicator:
    def test_registers_program_on_nodes(self, machine):
        Communicator(machine, "app", 8, procs_per_node=4)
        assert machine.nodes[0].procs_of("app") == 4
        assert machine.nodes[1].procs_of("app") == 4

    def test_default_procs_per_node_fills_evenly(self, machine):
        comm = Communicator(machine, "app", 6)
        assert comm.procs_per_node == 3

    def test_node_of_rank(self, machine):
        comm = Communicator(machine, "app", 8, procs_per_node=4)
        assert comm.node_of_rank(0).node_id == 0
        assert comm.node_of_rank(3).node_id == 0
        assert comm.node_of_rank(4).node_id == 1
        with pytest.raises(ValueError):
            comm.node_of_rank(8)

    def test_ranks_on_node(self, machine):
        comm = Communicator(machine, "app", 6, procs_per_node=4)
        assert comm.ranks_on_node(0) == [0, 1, 2, 3]
        assert comm.ranks_on_node(1) == [4, 5]

    def test_barrier_costs_log_hops(self, machine):
        comm = Communicator(machine, "app", 8, procs_per_node=4)
        engine = machine.engine

        def proc():
            yield comm.barrier()
            return engine.now

        t = engine.run_process(proc())
        assert t == pytest.approx(3 * 2 * machine.spec.network.latency)

    def test_size_one_barrier_free(self, machine):
        comm = Communicator(machine, "solo", 1)
        engine = machine.engine

        def proc():
            yield comm.barrier()
            return engine.now

        assert engine.run_process(proc()) == 0.0

    def test_free_unregisters(self, machine):
        comm = Communicator(machine, "app", 4, procs_per_node=2)
        comm.free()
        assert machine.nodes[0].procs_of("app") == 0

    def test_invalid_size(self, machine):
        with pytest.raises(ValueError):
            Communicator(machine, "app", 0)


class TestIORequest:
    def test_contiguous_block(self):
        req = IORequest.contiguous_block(3, 100, BytesPayload(b"x" * 100))
        assert req.offset == 300
        assert req.length == 100

    def test_contiguous_block_with_base(self):
        req = IORequest.contiguous_block(2, 10, BytesPayload(b"x" * 10),
                                         base_offset=1000)
        assert req.offset == 1020

    def test_validation(self):
        with pytest.raises(ValueError):
            IORequest(-1, 0, 10)
        with pytest.raises(ValueError):
            IORequest(0, -5, 10)
        with pytest.raises(ValueError):
            IORequest(0, 0, -1)
        with pytest.raises(ValueError, match="negative payload offset -5"):
            IORequest(0, 0, 100, BytesPayload(b"x" * 100), -5)

    def test_negative_payload_offset_cannot_tear_a_collective(self):
        """A write request with a negative payload offset is refused when
        it is built, before a collective could free the bytes it
        overwrites: the earlier write stays live in its log, in the
        metadata and on read-back."""
        sim = Simulation(MachineSpec.small_test(nodes=2))
        sim.install_univistor(UniviStorConfig.dram_only())
        comm = sim.comm("app", 4, procs_per_node=2)
        data = {}

        def app():
            fh = yield from sim.open(comm, "/out/a", "w",
                                     fstype="univistor")
            yield from fh.write_at_all([
                IORequest(r, r * 100, 100, PatternPayload(r))
                for r in range(4)])
            with pytest.raises(ValueError,
                               match="negative payload offset -5"):
                yield from fh.write_at_all([
                    IORequest(1, 100, 50, PatternPayload(7)),
                    IORequest(0, 0, 100, PatternPayload(9), -5)])
            yield from fh.close()
            fh = yield from sim.open(comm, "/out/a", "r",
                                     fstype="univistor")
            data.update((yield from fh.read_at_all([
                IORequest(r, r * 100, 100) for r in range(4)])))
            yield from fh.close()

        sim.run_to_completion(app())
        session = sim.univistor.session("/out/a", create=False)
        assert [log.bytes_live
                for log in session.writers[0].created_logs] == [100]
        records = sim.univistor.metadata.records_of(session.fid)
        assert [(rec.proc_id, rec.offset, rec.length)
                for rec in records] == [(r, r * 100, 100) for r in range(4)]
        for r in range(4):
            assert b"".join(e.materialize() for e in data[r]) == \
                PatternPayload(r).materialize(0, 100)

    def test_end(self):
        assert IORequest(0, 100, 50).end == 150


class _RecordingDriver(ADIODriver):
    """Test double that records calls and returns canned values."""

    name = "recorder"

    def __init__(self):
        self.calls = []

    def open(self, ctx):
        self.calls.append(("open", ctx.path, ctx.mode))
        return {"path": ctx.path}
        yield  # pragma: no cover

    def write_at_all(self, state, requests):
        self.calls.append(("write", len(requests)))
        return
        yield  # pragma: no cover

    def read_at_all(self, state, requests):
        self.calls.append(("read", len(requests)))
        return {r.rank: [] for r in requests}
        yield  # pragma: no cover

    def close(self, state):
        self.calls.append(("close", state["path"]))
        return
        yield  # pragma: no cover


class TestDriverRegistry:
    def test_register_and_resolve(self):
        reg = DriverRegistry()
        drv = _RecordingDriver()
        reg.register(drv)
        assert reg.resolve("recorder") is drv

    def test_duplicate_rejected(self):
        reg = DriverRegistry()
        reg.register(_RecordingDriver())
        with pytest.raises(ValueError):
            reg.register(_RecordingDriver())

    def test_abstract_name_rejected(self):
        reg = DriverRegistry()
        with pytest.raises(ValueError):
            reg.register(ADIODriver())

    def test_unknown_name(self):
        reg = DriverRegistry()
        with pytest.raises(KeyError):
            reg.resolve("nope")

    def test_no_driver_requested(self):
        reg = DriverRegistry()
        with pytest.raises(KeyError):
            reg.resolve(None)

    def test_fstype_force_overrides(self):
        reg = DriverRegistry()
        drv = _RecordingDriver()
        reg.register(drv)
        reg.fstype_force = "recorder"
        assert reg.resolve("anything-else") is drv

    def test_names(self):
        reg = DriverRegistry()
        reg.register(_RecordingDriver())
        assert reg.names() == ["recorder"]


class TestFile:
    def make(self, machine, mode="w"):
        reg = DriverRegistry()
        drv = _RecordingDriver()
        reg.register(drv)
        comm = Communicator(machine, "app", 4, procs_per_node=2)
        engine = machine.engine

        def opener():
            fh = yield from File.open(reg, comm, "/x", mode,
                                      fstype="recorder")
            return fh

        fh = engine.run_process(opener())
        return fh, drv, engine

    def test_open_dispatches_to_driver(self, machine):
        fh, drv, _ = self.make(machine)
        assert drv.calls == [("open", "/x", "w")]

    def test_write_read_mode_enforcement(self, machine):
        fh, drv, engine = self.make(machine, mode="w")

        def reader():
            yield from fh.read_at_all([IORequest(0, 0, 10)])

        with pytest.raises(PermissionError):
            engine.run_process(reader())

    def test_read_only_rejects_write(self, machine):
        fh, drv, engine = self.make(machine, mode="r")

        def writer():
            yield from fh.write_at_all(
                [IORequest(0, 0, 3, BytesPayload(b"abc"))])

        with pytest.raises(PermissionError):
            engine.run_process(writer())

    def test_write_requires_payload(self, machine):
        fh, drv, engine = self.make(machine)

        def writer():
            yield from fh.write_at_all([IORequest(0, 0, 3)])

        with pytest.raises(ValueError, match="payload"):
            engine.run_process(writer())

    def test_rank_outside_comm_rejected(self, machine):
        fh, drv, engine = self.make(machine)

        def writer():
            yield from fh.write_at_all(
                [IORequest(99, 0, 3, BytesPayload(b"abc"))])

        with pytest.raises(ValueError, match="rank"):
            engine.run_process(writer())

    def test_empty_collective_rejected(self, machine):
        fh, drv, engine = self.make(machine)

        def writer():
            yield from fh.write_at_all([])

        with pytest.raises(ValueError):
            engine.run_process(writer())

    def test_use_after_close_rejected(self, machine):
        fh, drv, engine = self.make(machine)

        def closer():
            yield from fh.close()

        engine.run_process(closer())

        def writer():
            yield from fh.write_at_all(
                [IORequest(0, 0, 3, BytesPayload(b"abc"))])

        with pytest.raises(ValueError, match="closed"):
            engine.run_process(writer())

    def test_invalid_mode(self, machine):
        with pytest.raises(ValueError):
            OpenContext("/x", "a", None)


class TestDataCollectives:
    def test_allgather_scales_with_ranks_and_bytes(self, machine):
        comm = Communicator(machine, "app", 8, procs_per_node=4)
        engine = machine.engine

        def proc():
            t0 = engine.now
            yield comm.allgather(1 << 20)
            small = engine.now - t0
            t0 = engine.now
            yield comm.allgather(4 << 20)
            big = engine.now - t0
            return small, big

        small, big = engine.run_process(proc())
        assert big > small * 3.5

    def test_alltoall_costs_more_than_allgather(self, machine):
        comm = Communicator(machine, "app", 8, procs_per_node=4)
        engine = machine.engine

        def proc():
            t0 = engine.now
            yield comm.allgather(1 << 20)
            ag = engine.now - t0
            t0 = engine.now
            yield comm.alltoall(1 << 20)
            a2a = engine.now - t0
            return ag, a2a

        ag, a2a = engine.run_process(proc())
        # Same wire bytes, more rounds of latency.
        assert a2a >= ag

    def test_reduce_cheaper_than_allgather(self, machine):
        comm = Communicator(machine, "app", 8, procs_per_node=4)
        engine = machine.engine

        def proc():
            t0 = engine.now
            yield comm.reduce_data(1 << 20)
            red = engine.now - t0
            t0 = engine.now
            yield comm.allgather(1 << 20)
            ag = engine.now - t0
            return red, ag

        red, ag = engine.run_process(proc())
        assert red < ag

    def test_negative_payloads_rejected(self, machine):
        comm = Communicator(machine, "app", 4, procs_per_node=2)
        with pytest.raises(ValueError):
            comm.allgather(-1)
        with pytest.raises(ValueError):
            comm.alltoall(-1)
        with pytest.raises(ValueError):
            comm.reduce_data(-1)
