"""Unit tests for the UniviStor server program (sessions, log plumbing)."""

import math
from dataclasses import replace
from unittest import mock

import pytest

from repro import IORequest, Simulation
from repro.cluster.spec import MachineSpec
from repro.cluster.topology import Machine
from repro.core.config import StorageTier, UniviStorConfig
from repro.core.dhp import DHPWriter, LogFile
from repro.core.metadata import MetadataUnavailableError
from repro.core.server import SERVER_PROGRAM, UniviStorServers
from repro.sim import Engine
from repro.simmpi import Communicator
from repro.storage.datamodel import PatternPayload
from repro.units import GiB, KiB, MiB


def make_system(config=None, nodes=2):
    machine = Machine(Engine(), MachineSpec.small_test(nodes=nodes))
    return machine, UniviStorServers(machine,
                                     config or UniviStorConfig.dram_bb())


class TestDeployment:
    def test_servers_registered_on_every_node(self):
        machine, system = make_system()
        for node in machine.nodes:
            assert node.procs_of(SERVER_PROGRAM) == 2

    def test_total_servers(self):
        machine, system = make_system(nodes=2)
        assert system.total_servers == 4

    def test_custom_servers_per_node(self):
        machine, system = make_system(
            UniviStorConfig.dram_only(servers_per_node=1))
        assert system.total_servers == 2

    def test_bb_config_requires_bb(self):
        engine = Engine()
        spec = MachineSpec.small_test(nodes=1)
        spec = spec.__class__(**{**spec.__dict__, "burst_buffer": None})
        machine = Machine(engine, spec)
        with pytest.raises(ValueError, match="burst buffer"):
            UniviStorServers(machine, UniviStorConfig.bb_only())

    def test_ssd_config_requires_ssd(self):
        machine = Machine(Engine(), MachineSpec.small_test(nodes=1))
        with pytest.raises(ValueError, match="SSD"):
            UniviStorServers(machine, UniviStorConfig(
                cache_tiers=(StorageTier.LOCAL_SSD,)))

    def test_connect_disconnect(self):
        machine, system = make_system()
        comm = Communicator(machine, "app", 4, procs_per_node=2)
        engine = machine.engine

        def proc():
            yield system.connect(comm)
            assert system.connected_clients["app"] == 4
            yield system.disconnect(comm)

        engine.run_process(proc())
        assert "app" not in system.connected_clients


class TestSessions:
    def test_fid_stable_per_path(self):
        _, system = make_system()
        assert system.fid_of("/a") == system.fid_of("/a")
        assert system.fid_of("/a") != system.fid_of("/b")

    def test_session_create_and_lookup(self):
        _, system = make_system()
        s = system.session("/a")
        assert system.session("/a") is s
        assert system.has_session("/a")
        with pytest.raises(FileNotFoundError):
            system.session("/missing", create=False)

    def test_writer_created_lazily_with_all_tiers(self):
        machine, system = make_system()
        comm = Communicator(machine, "app", 4, procs_per_node=2)
        session = system.session("/f")
        writer = session.writer_for(comm, 1)
        assert writer.vas.tiers == (StorageTier.DRAM, StorageTier.SHARED_BB,
                                    StorageTier.PFS)
        assert writer.vas.layer_capacity(2) == math.inf
        # The same writer object comes back for the same rank.
        assert session.writer_for(comm, 1) is writer

    def test_log_capacity_follows_cp_rule_node_local(self):
        machine, system = make_system()
        comm = Communicator(machine, "app", 4, procs_per_node=2)
        writer = system.session("/f").writer_for(comm, 0)
        node = comm.node_of_rank(0)
        expected = node.dram.capacity / 2  # 2 procs on the node
        assert writer.vas.layer_capacity(0) == pytest.approx(expected)
        writer.write(0, 4096, PatternPayload(1))
        assert writer.log(0).capacity == writer.vas.layer_capacity(0)

    def test_log_capacity_follows_cp_rule_shared(self):
        machine, system = make_system()
        comm = Communicator(machine, "app", 4, procs_per_node=2)
        writer = system.session("/f").writer_for(comm, 0)
        expected = machine.burst_buffer.device.capacity / 4  # all clients
        assert writer.vas.layer_capacity(1) == pytest.approx(expected)

    def test_log_capacity_never_below_chunk(self):
        machine, system = make_system(
            UniviStorConfig.dram_bb(chunk_size=64 * MiB))
        comm = Communicator(machine, "app", 4, procs_per_node=2)
        # Shrink the device so c/p < chunk.
        machine.nodes[0].dram.capacity = 32 * MiB
        writer = system.session("/f").writer_for(comm, 0)
        assert writer.vas.layer_capacity(0) >= 64 * MiB

    def test_log_files_created_in_correct_stores(self):
        machine, system = make_system(
            UniviStorConfig.dram_bb(chunk_size=1 * MiB))
        comm = Communicator(machine, "app", 4, procs_per_node=2)
        session = system.session("/f")
        writer = session.writer_for(comm, 0)
        # Overflow the DRAM and BB logs so every layer gets bytes.
        dram_cap = writer.vas.layer_capacity(0)
        bb_cap = writer.vas.layer_capacity(1)
        writer.write(0, int(dram_cap + bb_cap) + 4096, PatternPayload(1))
        node0 = machine.nodes[0]
        fid = session.fid
        assert node0.files.exists(f"/univistor/{fid}/0/dram.log")
        assert machine.bb_files.exists(f"/univistor/{fid}/0/shared_bb.log")
        assert machine.pfs_files.exists(f"/univistor/{fid}/0/pfs.log")

    def test_node_of_proc_requires_writer(self):
        _, system = make_system()
        session = system.session("/f")
        with pytest.raises(RuntimeError):
            session.node_of_proc(0)

    def test_cached_bytes_empty_initially(self):
        machine, system = make_system()
        comm = Communicator(machine, "app", 2, procs_per_node=1)
        session = system.session("/f")
        session.writer_for(comm, 0)
        assert sum(session.cached_bytes_per_tier().values()) == 0

    def test_delete_missing_file_is_noop(self):
        _, system = make_system()
        system.delete_file("/never-existed")  # must not raise


class TestLayerPlans:
    """Writers share per-node layer plans; logs appear at first append."""

    def _writer(self, config=None, rank=0):
        machine, system = make_system(config)
        comm = Communicator(machine, "app", 4, procs_per_node=2)
        session = system.session("/f")
        return machine, system, session, session.writer_for(comm, rank)

    def _log_paths(self, machine, session, rank=0):
        node = machine.nodes[rank // 2]
        prefix = f"/univistor/{session.fid}/{rank}"
        return (node.files.exists(f"{prefix}/dram.log"),
                machine.bb_files.exists(f"{prefix}/shared_bb.log"),
                machine.pfs_files.exists(f"{prefix}/pfs.log"))

    def test_ranks_on_a_node_share_one_plan(self):
        machine, system = make_system()
        comm = Communicator(machine, "app", 4, procs_per_node=2)
        session = system.session("/f")
        w0, w1, w2 = (session.writer_for(comm, r) for r in (0, 1, 2))
        assert w0.vas is w1.vas
        assert w0.vas is not w2.vas  # rank 2 lives on node 1
        assert len(session.plans) == 2

    def test_new_quota_gives_a_new_plan(self):
        machine, system = make_system()
        comm = Communicator(machine, "app", 4, procs_per_node=2)
        session = system.session("/f")
        before = session.writer_for(comm, 0)
        system.set_bb_quota("app", 64 * MiB)
        after = session.writer_for(comm, 1)
        assert after.vas is not before.vas
        assert after.vas.layer_capacity(1) == pytest.approx(16 * MiB)
        assert before.vas.layer_capacity(1) > after.vas.layer_capacity(1)

    def test_no_log_before_first_append(self):
        machine, _, session, writer = self._writer()
        assert writer.created_logs == []
        assert self._log_paths(machine, session) == (False, False, False)
        with pytest.raises(KeyError):
            writer.log(0)

    def test_dram_only_rank_creates_only_dram_log(self):
        machine, _, session, writer = self._writer()
        writer.write(0, 4096, PatternPayload(1))
        assert [log.tier for log in writer.created_logs] == [StorageTier.DRAM]
        assert self._log_paths(machine, session) == (True, False, False)

    def test_spill_creates_bb_log_at_first_append(self):
        machine, _, session, writer = self._writer(
            UniviStorConfig.dram_bb(chunk_size=1 * MiB))
        dram_cap = int(writer.vas.layer_capacity(0))
        writer.write(0, dram_cap, PatternPayload(1))
        assert self._log_paths(machine, session) == (True, False, False)
        segs = writer.write(dram_cap, 4096, PatternPayload(1))
        assert [s.tier for s in segs] == [StorageTier.SHARED_BB]
        assert self._log_paths(machine, session) == (True, True, False)
        assert [log.tier for log in writer.created_logs] == [StorageTier.DRAM,
                                                     StorageTier.SHARED_BB]

    @pytest.mark.parametrize("fault", ["fail", "degrade"])
    def test_failed_or_degraded_tier_skipped_without_a_log(self, fault):
        machine, _, session, writer = self._writer()
        dram = machine.nodes[0].dram
        if fault == "fail":
            dram.fail()
        else:
            dram.degrade(0.25)
        segs = writer.write(0, 4096, PatternPayload(1))
        assert [s.tier for s in segs] == [StorageTier.SHARED_BB]
        assert self._log_paths(machine, session) == (False, True, False)
        assert dram.used == 0
        # The skip does not retire the layer: once restored, new data
        # goes to DRAM again and only then creates its log.
        dram.restore()
        segs = writer.write(4096, 4096, PatternPayload(2))
        assert [s.tier for s in segs] == [StorageTier.DRAM]
        assert self._log_paths(machine, session) == (True, True, False)
        assert [log.tier for log in writer.created_logs] == [StorageTier.DRAM,
                                                     StorageTier.SHARED_BB]

    def test_uncreated_layers_in_accounting_and_delete(self):
        machine, system, session, writer = self._writer()
        writer.write(0, 4096, PatternPayload(1))
        assert session.cached_bytes_per_tier() == {
            StorageTier.DRAM: 4096, StorageTier.SHARED_BB: 0.0,
            StorageTier.PFS: 0.0}
        flush = system.flush_service
        assert flush._per_node_cached(session, StorageTier.DRAM) == {0: 4096}
        assert flush._per_node_cached(session,
                                      StorageTier.SHARED_BB) == {}
        dram = machine.nodes[0].dram
        assert dram.used > 0
        system.delete_file("/f")
        assert dram.used == 0
        assert machine.bb_files.listdir("/univistor") == []
        assert self._log_paths(machine, session) == (False, False, False)


class TestCollectivePlanLookup:
    """A collective looks each node's layer plan up once; writers are
    still created only for requests that pass their probe."""

    RANGE = int(64 * KiB)

    def _sim(self):
        sim = Simulation(MachineSpec.small_test(nodes=2))
        sim.install_univistor(UniviStorConfig.dram_bb(
            metadata_range_size=self.RANGE))
        return sim, sim.comm("app", 4, procs_per_node=2)

    def _write(self, sim, comm, lengths):
        requests = [IORequest(r, r * self.RANGE, length, PatternPayload(r))
                    for r, length in enumerate(lengths)]

        def app():
            fh = yield from sim.open(comm, "/f", "w", fstype="univistor")
            yield from fh.write_at_all(requests)

        sim.run_to_completion(app())

    def test_writers_share_the_plan_a_per_rank_lookup_picks(self):
        sim, comm = self._sim()
        system = sim.univistor
        with mock.patch.object(UniviStorServers, "_plan_for", autospec=True,
                               side_effect=UniviStorServers._plan_for
                               ) as lookups:
            self._write(sim, comm, [self.RANGE] * 4)
        assert lookups.call_count == 2  # one per node, not one per rank
        session = system.session("/f")
        assert sorted(session.writers) == [0, 1, 2, 3]
        for rank, writer in session.writers.items():
            fresh = system._make_writer(session, comm, rank)
            assert fresh.vas is writer.vas

    def test_quota_between_collectives_gives_a_new_plan(self):
        sim, comm = self._sim()
        system = sim.univistor
        self._write(sim, comm, [self.RANGE, 0, 0, 0])
        system.set_bb_quota("app", 64 * MiB)
        self._write(sim, comm, [0, self.RANGE, 0, 0])
        writers = system.session("/f").writers
        assert sorted(writers) == [0, 1]
        assert writers[1].vas is not writers[0].vas
        assert writers[1].vas.layer_capacity(1) == pytest.approx(16 * MiB)

    def test_request_refused_by_its_probe_creates_no_writer(self):
        sim, comm = self._sim()
        system = sim.univistor
        system.metadata.fail_server(2)  # the only server of rank 2's range
        with pytest.raises(MetadataUnavailableError):
            self._write(sim, comm, [self.RANGE] * 4)
        assert sorted(system.session("/f").writers) == [0, 1]


def _walked_tier_bytes(session):
    """Reference: live bytes per tier from a walk over every writer's
    layers, tiers in first-writer order."""
    out = {}
    for writer in session.writers.values():
        for tier, nbytes in zip(writer.vas.tiers, writer.bytes_per_layer()):
            out[tier] = out.get(tier, 0.0) + nbytes
    return out


class TestTierTotals:
    """``cached_bytes_per_tier`` reads running totals the logs keep."""

    def _check(self, session):
        totals = session.cached_bytes_per_tier()
        walked = _walked_tier_bytes(session)
        assert totals == walked
        assert list(totals) == list(walked) == [
            StorageTier.DRAM, StorageTier.SHARED_BB, StorageTier.PFS]

    def test_totals_equal_the_walk(self):
        sim = Simulation(MachineSpec.small_test(nodes=2))
        sim.install_univistor(UniviStorConfig.dram_bb())
        system = sim.univistor
        comm = sim.comm("app", 4, procs_per_node=2)
        # 1.5 GiB per rank overflows its 1 GiB DRAM log into the BB.
        block = int(1536 * MiB)

        def write(path, pattern, offset, length):
            fh = yield from sim.open(comm, path, "w", fstype="univistor")
            yield from fh.write_at_all([
                IORequest(r, offset + r * block, length,
                          PatternPayload(pattern + r)) for r in range(4)])
            yield from fh.close()

        sim.run_to_completion(write("/a", 1, 0, block))
        a = system.session("/a", create=False)
        self._check(a)
        assert a.cached_bytes_per_tier()[StorageTier.SHARED_BB] > 0
        # An overwrite of each rank's middle frees the old segments.
        sim.run_to_completion(write("/a", 10, 300 * MiB, 900 * MiB))
        self._check(a)
        assert sum(a.cached_bytes_per_tier().values()) == 4 * block
        sim.run_to_completion(write("/b", 20, 0, 64 * MiB))
        b = system.session("/b", create=False)
        self._check(b)
        system.crash_node(1)
        self._check(a)
        self._check(b)
        system.delete_file("/b")
        self._check(a)
        self._check(b)


class TestLeanWriteState:
    """Per-rank write state: one constructor run per log and writer
    created, no per-chunk list in an append-only log, and overwrites
    that free the right chunk under a fractional layer base."""

    def _collective(self, sim, comm, path, requests):
        def app():
            fh = yield from sim.open(comm, path, "w", fstype="univistor")
            yield from fh.write_at_all(requests)
            yield from fh.close()

        sim.run_to_completion(app())

    def test_one_constructor_run_per_log_and_writer(self):
        counts = {"logs": 0, "writers": 0}
        log_init, writer_init = LogFile.__init__, DHPWriter.__init__

        def counting_log(*args, **kwargs):
            counts["logs"] += 1
            log_init(*args, **kwargs)

        def counting_writer(*args, **kwargs):
            counts["writers"] += 1
            writer_init(*args, **kwargs)

        sim = Simulation(MachineSpec.small_test(nodes=2))
        sim.install_univistor(UniviStorConfig.dram_bb())
        comm = sim.comm("app", 8, procs_per_node=4)
        # Ranks 0-3 overflow their 512 MiB DRAM log into the BB.
        with mock.patch.object(LogFile, "__init__", counting_log), \
                mock.patch.object(DHPWriter, "__init__", counting_writer):
            self._collective(sim, comm, "/f", [
                IORequest(r, r * GiB, (768 if r < 4 else 64) * MiB,
                          PatternPayload(r)) for r in range(comm.size)])
        writers = sim.univistor.session("/f").writers
        assert counts["writers"] == len(writers) == 8
        assert counts["logs"] == sum(
            len(w.created_logs) for w in writers.values()) == 12
        for rank, writer in writers.items():
            assert writer.node is comm.node_of_rank(rank)
            for log in writer.created_logs:
                assert not [name for name in LogFile.__slots__
                            if isinstance(getattr(log, name), list)]

    def test_overwrite_under_a_fractional_layer_base(self):
        """Three ranks per node give a DRAM log of 128 KiB / 3 bytes, so
        the BB layer's VA base is fractional; a rewrite of a BB span
        that starts on a chunk boundary frees that chunk's bytes, not a
        sliver of the chunk below."""
        spec = MachineSpec.small_test(nodes=2)
        spec = replace(spec, node=replace(spec.node,
                                          dram_cache_capacity=128 * KiB))
        sim = Simulation(spec)
        sim.install_univistor(UniviStorConfig.dram_bb(
            metadata_range_size=int(64 * KiB), chunk_size=16 * KiB))
        comm = sim.comm("app", 6, procs_per_node=3)
        unit = int(8 * KiB)
        for version, (offset, length) in enumerate(
                ((0, 1), (0, 10), (0, 9), (1, 2))):
            self._collective(sim, comm, "/f", [IORequest(
                0, offset * unit, length * unit,
                PatternPayload(100 * version))])
        session = sim.univistor.session("/f")
        writer = session.writers[0]
        assert writer.vas.layer_base(1) % 1 != 0
        bb = writer.log(1)
        assert [bb.chunk(i).live for i in range(bb.allocated_chunks)] == [
            16 * KiB] * 5
        assert bb.free_stack == []
        # Every live record lies inside the chunk bytes it resolves to.
        live = [0] * bb.allocated_chunks
        for record in sim.univistor.metadata.records_of(session.fid):
            layer, addr = writer.vas.resolve(record.va)
            assert layer == 1 and addr == int(addr)
            live[int(addr) // int(16 * KiB)] += record.length
        assert live == [16 * KiB] * 5
