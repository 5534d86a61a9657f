"""The scoped pause of the cyclic collector around each bulk build.

:func:`repro.gcpause.collector_paused` switches CPython's cyclic
collector off across a collective's synchronous bulk build — the
placement loop and metadata ship of a collective write, the resolve
loop of a collective read, ``ReadService.copy_records`` (the flush
and replication copy) and a workload's request lists — and gives the
caller back the state it had, on every exit: a normal return, an
exception, or a generator closed inside the pause.  No other simulated process runs while it is off
(docs/MODEL.md §9, "Bulk builds and the cyclic collector").
"""

import gc
import sys

import pytest

from repro import (IORequest, MachineSpec, PatternPayload, Simulation,
                   UniviStorConfig)
from repro.core.config import StorageTier
from repro.core.dhp import DHPWriter
from repro.core.errors import QuorumLostError
from repro.core.metadata import MetadataUnavailableError
from repro.core.read_service import ReadService
from repro.gcpause import collector_paused
from repro.units import KiB
from repro.workloads.hdf5sim import DatasetSpec, Hdf5Layout

BLOCK = int(64 * KiB)


@pytest.fixture(autouse=True)
def collector_on():
    """Every test starts with the collector on; the state found is put
    back afterwards."""
    was = gc.isenabled()
    gc.enable()
    yield
    if not was:
        gc.disable()


class TestCollectorPaused:
    def test_off_inside_and_back_after(self):
        with collector_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_back_after_a_raise(self):
        with pytest.raises(RuntimeError, match="boom"):
            with collector_paused():
                raise RuntimeError("boom")
        assert gc.isenabled()

    def test_nested_pauses(self):
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_a_caller_that_disabled_it_finds_it_disabled(self):
        gc.disable()
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
        with pytest.raises(RuntimeError):
            with collector_paused():
                raise RuntimeError
        assert not gc.isenabled()

    def test_back_after_a_generator_closed_inside(self):
        def gen():
            with collector_paused():
                yield

        it = gen()
        next(it)
        assert not gc.isenabled()
        it.close()
        assert gc.isenabled()


def setup(config=None):
    sim = Simulation(MachineSpec.small_test(nodes=2))
    sim.install_univistor(config or UniviStorConfig.dram_only(
        flush_enabled=False))
    return sim, sim.comm("app", 4, procs_per_node=2)


def blocks(payload_base=0):
    return [IORequest(r, r * BLOCK, BLOCK, PatternPayload(r + payload_base))
            for r in range(4)]


def write_then_read(sim, comm, path="/f"):
    def app():
        fh = yield from sim.open(comm, path, "w", fstype="univistor")
        yield from fh.write_at_all(blocks())
        yield from fh.close()
        fh = yield from sim.open(comm, path, "r", fstype="univistor")
        data = yield from fh.read_at_all(
            [IORequest(r, r * BLOCK, BLOCK) for r in range(4)])
        yield from fh.close()
        return data

    return sim.run_to_completion(app())


def snapshot(sim, path="/f"):
    """A file's logs, records, version map and chunk ledgers."""
    system = sim.univistor
    session = system.session(path, create=False)
    logs = {rank: [(log.tier, log.bytes_written, log.bytes_live,
                    log.free_stack,
                    [log.chunk(i) for i in range(log.allocated_chunks)],
                    list(log.sim_file.data))
                   for log in writer.created_logs]
            for rank, writer in sorted(session.writers.items())}
    records = system.metadata.records_of(session.fid)
    versions = session.data_versions.spans(0, 1 << 40)
    ledgers = (dict(session.tier_bytes_live),
               [system.tier_device(StorageTier.DRAM, node).used
                for node in sim.machine.nodes])
    return logs, records, versions, ledgers


class TestBulkBuilds:
    def test_paused_inside_and_on_for_every_other_process(self, monkeypatch):
        """Placement and resolution run with the collector off; the
        collector is on whenever the engine runs anything else."""
        seen = {"placement": [], "resolve": [], "watcher": []}
        write, resolve_run = DHPWriter.write, ReadService.resolve_run

        def noting_write(writer, *args):
            seen["placement"].append(gc.isenabled())
            return write(writer, *args)

        def noting_resolve_run(service, *args):
            seen["resolve"].append(gc.isenabled())
            return resolve_run(service, *args)

        monkeypatch.setattr(DHPWriter, "write", noting_write)
        monkeypatch.setattr(ReadService, "resolve_run", noting_resolve_run)
        sim, comm = setup()
        done = []

        def watcher():
            while not done:
                seen["watcher"].append(gc.isenabled())
                yield sim.engine.timeout(1e-6)

        sim.spawn(watcher())
        data = write_then_read(sim, comm)
        done.append(True)
        assert set(seen["placement"]) == set(seen["resolve"]) == {False}
        assert len(seen["placement"]) == len(seen["resolve"]) == 4
        assert len(seen["watcher"]) > 10 and all(seen["watcher"])
        assert gc.isenabled()
        assert sorted(data) == [0, 1, 2, 3]

    def test_a_caller_that_disabled_it_finds_it_disabled(self):
        sim, comm = setup()
        gc.disable()
        write_then_read(sim, comm)
        assert not gc.isenabled()

    @staticmethod
    def _failing_placement(monkeypatch, rank):
        """``DHPWriter.write`` raises on ``rank``'s request once armed."""
        armed = []
        write = DHPWriter.write

        def failing_write(writer, *args):
            if armed and writer.rank == rank:
                raise RuntimeError(f"placement of rank {rank} failed")
            return write(writer, *args)

        monkeypatch.setattr(DHPWriter, "write", failing_write)
        return armed

    def _torn_overwrite(self, monkeypatch):
        """Write four blocks, then overwrite them with a collective
        whose third request's placement raises.  Returns the file's
        state before and after the failed collective."""
        armed = self._failing_placement(monkeypatch, rank=2)
        sim, comm = setup()
        states = []

        def app():
            fh = yield from sim.open(comm, "/f", "w", fstype="univistor")
            yield from fh.write_at_all(blocks())
            states.append(snapshot(sim))
            armed.append(True)
            with pytest.raises(RuntimeError, match="rank 2"):
                yield from fh.write_at_all(blocks(payload_base=10))
            states.append(snapshot(sim))

        sim.run_to_completion(app())
        return states

    def test_collector_back_after_a_placement_raises(self, monkeypatch):
        self._torn_overwrite(monkeypatch)
        assert gc.isenabled()

    @pytest.mark.xfail(strict=True, reason=(
        "a collective write is not atomic: the requests placed before "
        "the failing one stay freed, appended and stamped but are never "
        "shipped (ROADMAP direction 3)"))
    def test_a_failed_collective_leaves_the_file_as_it_was(
            self, monkeypatch):
        before, after = self._torn_overwrite(monkeypatch)
        assert after == before

    def test_collector_back_after_a_refused_write(self):
        """A request whose metadata range cannot reach a quorum is
        refused by the admission probe inside the placement loop."""
        sim, comm = setup(UniviStorConfig.dram_only(
            flush_enabled=False, metadata_replication=3, meta_quorum=True,
            metadata_range_size=float(BLOCK)))
        metadata = sim.univistor.metadata
        for server in metadata.replica_servers(1)[1:]:
            metadata.set_unreachable(server)

        def app():
            fh = yield from sim.open(comm, "/f", "w", fstype="univistor")
            with pytest.raises(QuorumLostError):
                yield from fh.write_at_all(blocks())

        sim.run_to_completion(app())
        assert gc.isenabled()

    def test_collector_back_after_a_failed_read(self):
        """A read whose only metadata copy is gone, with nothing flushed
        to fall back on, raises from the resolve loop."""
        sim, comm = setup(UniviStorConfig.dram_only(
            flush_enabled=False, metadata_replication=1,
            metadata_range_size=float(BLOCK)))

        def app():
            fh = yield from sim.open(comm, "/f", "w", fstype="univistor")
            yield from fh.write_at_all(blocks())
            yield from fh.close()
            sim.univistor.metadata.fail_server(1)
            fh = yield from sim.open(comm, "/f", "r", fstype="univistor")
            with pytest.raises(MetadataUnavailableError):
                yield from fh.read_at_all(
                    [IORequest(r, r * BLOCK, BLOCK) for r in range(4)])

        sim.run_to_completion(app())
        assert gc.isenabled()

    def test_collector_back_after_copy_records_raises(self):
        sim, comm = setup()
        write_then_read(sim, comm)
        system = sim.univistor
        session = system.session("/f", create=False)
        records = system.metadata.records_of(session.fid)
        inside = []

        def failing_target(record):
            inside.append(gc.isenabled())
            raise RuntimeError("no copy target")

        with pytest.raises(RuntimeError, match="no copy target"):
            system.read_service.copy_records(
                session, records, failing_target,
                lambda record: session.pfs_versions)
        assert inside == [False]
        assert gc.isenabled()


class TestRequestLists:
    """``Hdf5Layout.write_requests`` and ``read_requests`` build one
    request (and for a write one payload) per rank in a bulk build that
    stays alive, with the collector off."""

    RANKS = 4096

    @pytest.fixture
    def inside(self):
        """The request-list function each collection the collector
        starts inside a request-list build runs under, while the test
        runs (the stack is walked from the collector's callback).  The
        collection the paused allocations trigger right after a build is
        outside it."""
        request_lists = {Hdf5Layout.write_requests.__code__,
                         Hdf5Layout.read_requests.__code__}
        started = []

        def note(phase, _info):
            if phase != "start":
                return
            frame = sys._getframe(1)
            while frame is not None:
                if frame.f_code in request_lists:
                    started.append(frame.f_code.co_name)
                frame = frame.f_back

        gc.callbacks.append(note)
        yield started
        gc.callbacks.remove(note)

    def test_no_collection_inside_a_request_list_build(self, inside):
        """Each build starts with the young generation empty: the
        allocations of a paused build trigger one collection as soon as
        the collector is back, at whatever allocates next, and that
        collection is owed by the build before."""
        layout = Hdf5Layout([DatasetSpec("x", 4 * KiB, self.RANKS)])
        gc.collect()
        writes = layout.write_requests("x", payload_seed_base=7)
        gc.collect()
        reads = layout.read_requests("x")
        assert inside == []
        assert gc.isenabled()
        assert len(writes) == len(reads) == self.RANKS
        assert [r.rank for r in reads] == list(range(self.RANKS))

    def test_collector_back_after_a_refused_read_list(self):
        layout = Hdf5Layout([DatasetSpec("x", 4 * KiB, 4)])
        with pytest.raises(ValueError, match="rank 9"):
            layout.read_requests("x", ranks=[0, 9])
        assert gc.isenabled()
