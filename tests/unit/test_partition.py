"""The CAP-complete failure model: quorum metadata, network partitions,
lease fencing, and the PFS namespace fallback.

Service-level tests pin the quorum/fencing state machine directly on
:class:`MetadataService`; the engine-driven tests run the whole stack —
partition faults through the health monitor's suspect/fenced lifecycle,
lease-expiry takeover, stale-read prevention across a heal, the
flushed-namespace read path of last resort, periodic scrub scheduling,
and crash-during-recovery replay resume.
"""

import pytest

from repro import (
    IORequest,
    MachineSpec,
    PatternPayload,
    Simulation,
    UniviStorConfig,
)
from repro.core.config import StorageTier
from repro.core.errors import DataLossError, QuorumLostError
from repro.core.health import ALIVE, FENCED, SUSPECT
from repro.core.metadata import (
    MetadataRecord,
    MetadataService,
    MetadataUnavailableError,
)
from repro.units import KiB

BLOCK = int(64 * KiB)


def rec(offset, length, proc=0, va=None, fid=1, tier=StorageTier.DRAM,
        node=0):
    return MetadataRecord(fid=fid, offset=offset, length=length,
                          proc_id=proc, va=va if va is not None else offset,
                          tier=tier, node_id=node)


def setup(nodes=3, procs_per_node=2, **config_kw):
    config_kw.setdefault("flush_enabled", False)
    config_kw.setdefault("metadata_range_size", float(BLOCK))
    config = UniviStorConfig.hardened(**config_kw)
    sim = Simulation(MachineSpec.small_test(nodes=nodes))
    system = sim.install_univistor(config)
    comm = sim.comm("app", nodes * procs_per_node,
                    procs_per_node=procs_per_node)
    return sim, system, comm


def write_blocks(sim, comm, path, payload_base=0, block=BLOCK, sync=True):
    def app():
        fh = yield from sim.open(comm, path, "w", fstype="univistor")
        yield from fh.write_at_all([
            IORequest.contiguous_block(r, block,
                                       PatternPayload(r + payload_base))
            for r in range(comm.size)])
        yield from fh.close()
        if sync:
            yield from fh.sync()
        return fh

    return sim.run_to_completion(app())


def read_all(sim, comm, path, block=BLOCK):
    def app():
        fh = yield from sim.open(comm, path, "r", fstype="univistor")
        data = yield from fh.read_at_all([
            IORequest(r, r * block, block) for r in range(comm.size)])
        yield from fh.close()
        return data

    return sim.run_to_completion(app())


def assert_pattern(comm, data, payload_base=0, block=BLOCK):
    for r in range(comm.size):
        blob = b"".join(e.materialize() for e in data[r])
        want = PatternPayload(r + payload_base).materialize(0, block)
        assert blob == want, f"rank {r} read wrong bytes"


def telemetry_ops(sim):
    return [r.op for r in sim.telemetry.records]


class TestQuorumService:
    """MetadataService quorum admission, stale marking, read repair."""

    def svc(self, quorum=True, replication=3):
        return MetadataService(6, 100, replication=replication,
                               replica_stride=2, quorum=quorum)

    def test_majority_write_accepted_and_laggard_stale_marked(self):
        svc = self.svc()
        replicas = svc.replica_servers(0)
        svc.set_unreachable(replicas[2])
        svc.insert_many([rec(0, 50)])
        assert svc.stale_members(0) == {replicas[2]}
        found, _ = svc.lookup(1, 0, 50)
        assert len(found) == 1

    def test_minority_write_rejected_whole(self):
        svc = self.svc()
        replicas = svc.replica_servers(0)
        svc.set_unreachable(replicas[1])
        svc.set_unreachable(replicas[2])
        with pytest.raises(QuorumLostError) as err:
            svc.insert_many([rec(0, 50)])
        assert err.value.range_index == 0
        assert err.value.acked == 1
        assert err.value.needed == 2
        # The rejection is annotated with the request it refused and
        # nothing was applied anywhere.
        assert err.value.fid == 1
        assert err.value.offset == 0 and err.value.length == 50
        assert svc.record_count == 0
        assert svc.journal_records(0) == []

    def test_insert_many_falls_back_per_record_on_quorum_loss(self):
        svc = self.svc()
        r1 = svc.replica_servers(1)
        svc.set_unreachable(r1[1])
        svc.set_unreachable(r1[2])
        with pytest.raises(QuorumLostError):
            svc.insert_many([rec(0, 100), rec(100, 100)])
        # Range 0 had a majority and kept its record (partial apply, the
        # documented insert_many contract); range 1 rejected.
        found, _ = svc.lookup(1, 0, 100)
        assert len(found) == 1

    def test_read_repair_brings_laggard_current(self):
        svc = self.svc()
        replicas = svc.replica_servers(0)
        svc.set_unreachable(replicas[0])
        svc.insert_many([rec(0, 50)])
        svc.set_reachable(replicas[0])
        assert svc.stale_members(0) == {replicas[0]}
        server = svc.read_server_of(0)
        assert svc.read_repairs == 1
        assert svc.stale_members(0) == set()
        # The repaired primary is current again and first in line.
        assert server == replicas[0]

    def test_stale_copy_never_serves_without_quorum(self):
        svc = self.svc(quorum=False)
        replicas = svc.replica_servers(0)
        svc.set_unreachable(replicas[0])
        svc.insert_many([rec(0, 50)])
        svc.set_reachable(replicas[0])
        server = svc.read_server_of(0)
        assert server == replicas[1]
        assert svc.fence_rejections == 1
        assert svc.stale_members(0) == {replicas[0]}  # still lagging

    def test_unreachable_majority_read_raises_quorum_lost(self):
        svc = self.svc()
        svc.insert_many([rec(0, 50)])
        for server in svc.replica_servers(0):
            svc.set_unreachable(server)
        with pytest.raises(QuorumLostError):
            svc.read_server_of(0)
        # All-dead stays the legacy structured error.
        for server in svc.replica_servers(0):
            svc.set_reachable(server)
            svc.fail_server(server)
        with pytest.raises(MetadataUnavailableError):
            svc.read_server_of(0)

    def test_takeover_fences_live_ex_member_and_bumps_epoch(self):
        svc = MetadataService(6, 100, replication=2, replica_stride=2,
                              quorum=True)
        svc.insert_many([rec(0, 50)])
        old = svc.replica_servers(0)
        assert svc.range_epoch(0) == 0
        svc.set_unreachable(old[0])     # partitioned, alive
        svc.fail_server(old[1])         # crashed
        actions = svc.recover_server(old[1])
        assert actions
        new = svc.replica_servers(0)
        assert old[0] not in new
        assert svc.range_epoch(0) == 1
        # The live ex-owner is fenced: its copy is stale and its writes
        # no longer land.
        assert old[0] in svc.stale_members(0)
        svc.set_reachable(old[0])
        assert svc.read_server_of(0) in new

    def test_takeover_never_promotes_fenced_ex_member(self):
        # A healed, fenced ex-member is alive and reachable but stale: a
        # later takeover must pick a current spare instead of clearing
        # its fence and making it an owner again.
        svc = MetadataService(4, 100, replication=2, replica_stride=1)
        svc.insert_many([rec(0, 50)])
        svc.set_unreachable(0)
        svc.recover_server(0)
        svc.set_reachable(0)
        svc.fail_server(1)
        svc.recover_server(1)
        assert svc.replica_servers(0) == [2, 3]
        assert 0 in svc.stale_members(0)


class TestPartitionLifecycle:
    """Engine-driven: suspect held, lease fencing, stale-read safety."""

    def test_heal_before_lease_expiry_avoids_takeover(self):
        sim, system, comm = setup(metadata_replication=3)
        write_blocks(sim, comm, "/f")
        config = system.config
        suspect_delay = config.heartbeat_interval * config.suspect_heartbeats
        heal_at = sim.now + 0.01 + (suspect_delay + config.lease_ttl) / 2

        def app():
            system.partition_servers([0, 1], mode="sym")
            yield sim.engine.timeout(0.01 + suspect_delay + 0.01)
            # Partitioned-but-alive is *suspect*, never dead: the
            # minority side holds its breath instead of being buried.
            assert system.health.state_of("server", 0) == SUSPECT
            yield sim.engine.timeout(max(0.0, heal_at - sim.now))
            system.heal_partition()

        sim.run_to_completion(app())
        sim.run()
        ops = telemetry_ops(sim)
        assert "health-fenced" not in ops
        assert "health-dead" not in ops
        assert "recovery-takeover" not in ops
        assert ops.count("health-recovered") == 2
        assert system.health.state_of("server", 0) == ALIVE

    def test_lease_expiry_fences_and_survivors_take_over(self):
        sim, system, comm = setup(metadata_replication=3)
        write_blocks(sim, comm, "/f")

        def app():
            system.partition_servers([0, 1], mode="sym")
            yield sim.engine.timeout(system.config.lease_ttl + 0.05)
            assert system.health.state_of("server", 0) == FENCED

        sim.run_to_completion(app())
        sim.run()
        ops = telemetry_ops(sim)
        assert ops.count("health-fenced") == 2
        assert ops.count("lease-expired") == 2
        assert "recovery-takeover" in ops
        # Every surviving range assignment excludes the fenced servers.
        md = system.metadata
        for ri in range(comm.size):
            assert not ({0, 1} & set(md.replica_servers(ri)))

    def test_oneway_partition_blocks_without_fencing(self):
        sim, system, comm = setup(metadata_replication=3)
        write_blocks(sim, comm, "/f")

        def app():
            system.partition_servers([0, 1], mode="oneway")
            yield sim.engine.timeout(system.config.lease_ttl + 0.1)
            assert system.health.state_of("server", 0) == ALIVE
            system.heal_partition()

        sim.run_to_completion(app())
        sim.run()
        ops = telemetry_ops(sim)
        assert "health-fenced" not in ops
        assert "health-suspect" not in ops
        assert "recovery-takeover" not in ops

    def test_healed_partition_cannot_resurrect_stale_metadata(self):
        """The tentpole scenario: overwrite committed on the majority
        while the ex-owners are cut off; after the heal every read must
        see the new pattern — the fenced copies never answer."""
        sim, system, comm = setup(metadata_replication=3)
        write_blocks(sim, comm, "/f", payload_base=0)

        def overwrite():
            system.partition_servers([0, 1], mode="sym")
            yield sim.engine.timeout(system.config.lease_ttl + 0.05)
            fh = yield from sim.open(comm, "/f", "w", fstype="univistor")
            yield from fh.write_at_all([
                IORequest.contiguous_block(r, BLOCK,
                                           PatternPayload(r + comm.size))
                for r in range(comm.size)])
            yield from fh.close()
            yield sim.engine.timeout(0.05)
            system.heal_partition()
            yield sim.engine.timeout(0.2)

        sim.run_to_completion(overwrite())
        data = read_all(sim, comm, "/f")
        assert_pattern(comm, data, payload_base=comm.size)
        assert "health-fenced" in telemetry_ops(sim)

    def test_no_majority_rejects_overwrite_and_preserves_old_data(self):
        sim, system, comm = setup(metadata_replication=3)
        write_blocks(sim, comm, "/f", payload_base=0)

        def overwrite():
            # Two of three nodes cut: no range keeps a majority.
            system.partition_servers([0, 1], mode="sym")
            system.partition_servers([2, 3], mode="sym")
            fh = yield from sim.open(comm, "/f", "w", fstype="univistor")
            rejected = 0
            for r in range(comm.size):
                try:
                    yield from fh.write_at_all([IORequest.contiguous_block(
                        r, BLOCK, PatternPayload(r + comm.size))])
                except DataLossError:
                    rejected += 1
            assert rejected == comm.size
            yield from fh.close()
            system.heal_partition()
            yield sim.engine.timeout(0.2)

        sim.run_to_completion(overwrite())
        sim.run()
        data = read_all(sim, comm, "/f")
        # Rejected whole: v1 must still be intact everywhere.
        assert_pattern(comm, data, payload_base=0)

    def test_read_repair_counter_fires_after_heal(self):
        sim, system, comm = setup(metadata_replication=3)

        def app():
            system.partition_servers([0, 1], mode="oneway")
            fh = yield from sim.open(comm, "/f", "w", fstype="univistor")
            yield from fh.write_at_all([
                IORequest.contiguous_block(r, BLOCK, PatternPayload(r))
                for r in range(comm.size)])
            yield from fh.close()
            system.heal_partition()

        sim.run_to_completion(app())
        data = read_all(sim, comm, "/f")
        assert_pattern(comm, data)
        assert sim.telemetry.counters.get("meta-read-repair", 0) > 0
        assert not any(system.metadata.stale_members(ri)
                       for ri in range(comm.size))


class TestPfsNamespaceFallback:
    def test_flushed_file_survives_total_metadata_loss(self):
        sim, system, comm = setup(flush_enabled=True)
        cfg_off = UniviStorConfig.hardened(
            flush_enabled=True, metadata_range_size=float(BLOCK),
            self_healing=False)
        sim2 = Simulation(MachineSpec.small_test(nodes=3))
        system2 = sim2.install_univistor(cfg_off)
        comm2 = sim2.comm("app", comm.size, procs_per_node=2)
        write_blocks(sim2, comm2, "/f")  # close+sync: fully flushed
        for server in range(system2.total_servers):
            system2.crash_server(server)
        data = read_all(sim2, comm2, "/f")
        assert_pattern(comm2, data)
        ops = telemetry_ops(sim2)
        assert ops.count("pfs-namespace-fallback") == comm2.size

    def test_unflushed_file_still_raises_structured_loss(self):
        sim, system, comm = setup(flush_enabled=False)
        cfg_off = UniviStorConfig.hardened(
            flush_enabled=False, metadata_range_size=float(BLOCK),
            self_healing=False)
        sim2 = Simulation(MachineSpec.small_test(nodes=3))
        system2 = sim2.install_univistor(cfg_off)
        comm2 = sim2.comm("app", comm.size, procs_per_node=2)
        write_blocks(sim2, comm2, "/f", sync=False)
        for server in range(system2.total_servers):
            system2.crash_server(server)
        with pytest.raises(DataLossError):
            read_all(sim2, comm2, "/f")
        assert "pfs-namespace-fallback" not in telemetry_ops(sim2)


class TestPeriodicScrub:
    def test_periodic_scrub_defers_while_foreground_busy(self):
        sim, system, comm = setup(flush_enabled=True, scrub_interval=0.001,
                                  scrub_rate_limit=float(256 * KiB))

        def app():
            for path in ("/a", "/b"):
                fh = yield from sim.open(comm, path, "w", fstype="univistor")
                yield from fh.write_at_all([
                    IORequest.contiguous_block(r, BLOCK, PatternPayload(r))
                    for r in range(comm.size)])
                yield from fh.close()
                if path == "/b":
                    # Flush is in flight: ticks landing now must defer.
                    assert system.scrub.start_periodic() is not None
                yield from fh.sync()

        sim.run_to_completion(app())
        sim.run()
        assert system.scrub.deferred > 0
        assert sim.telemetry.counters.get("scrub-deferred", 0) \
            == system.scrub.deferred
        # Once the foreground went quiet the sweep ran — rate-limited,
        # so the two sessions take separate ticks via the cursor — and
        # the loop terminated clean.
        assert telemetry_ops(sim).count("scrub") >= 2

    def test_periodic_scrub_disabled_by_default(self):
        sim, system, comm = setup()
        assert system.config.scrub_interval == 0.0
        assert system.scrub.start_periodic() is None

    def test_rate_limited_pass_covers_everything_eventually(self):
        sim, system, comm = setup(scrub_interval=0.002,
                                  scrub_rate_limit=float(64 * KiB))
        write_blocks(sim, comm, "/f")
        system.scrub.start_periodic()
        sim.run()
        # Every byte written got verified despite the per-tick budget.
        assert system.scrub.verified_bytes >= comm.size * BLOCK


class TestReplayCursorResume:
    def test_new_primary_crash_mid_replay_resumes_from_cursor(self):
        sim, system, comm = setup(metadata_replication=2,
                                  journal_checkpoint=10 ** 6)
        # Gapped 512 B pieces (stride 768) defeat coalescing, so range 0
        # journals 85 distinct records = 3 replay chunks of <= 32.
        piece, stride, n_pieces = 512, 768, 85
        assert (n_pieces - 1) * stride + piece <= BLOCK

        def app():
            fh = yield from sim.open(comm, "/f", "w", fstype="univistor")
            yield from fh.write_at_all([
                IORequest(0, i * stride, piece, PatternPayload(0))
                for i in range(n_pieces)])
            yield from fh.close()

        sim.run_to_completion(app())
        md = system.metadata
        victim = md.replica_servers(0)[0]
        config = system.config
        dead_delay = config.heartbeat_interval * config.dead_heartbeats

        def crash_and_interrupt():
            system.crash_server(victim)
            # Takeover fires at the dead declaration; the journal replay
            # then streams 32-record chunks.  Kill the new primary after
            # the first chunk lands but before the last one does.
            yield sim.engine.timeout(dead_delay + 4.5e-5)
            new_primary = next(np for ri, np in system.recovery.takeovers
                               if ri == 0)
            system.crash_server(new_primary)

        sim.run_to_completion(crash_and_interrupt())
        sim.run()
        ops = telemetry_ops(sim)
        aborted = [r for r in sim.telemetry.records
                   if r.op == "recovery-replay-aborted"]
        resumed = [r for r in sim.telemetry.records
                   if r.op == "recovery-replay-resume"]
        assert aborted, f"no abort recorded; ops={set(ops)}"
        assert resumed, f"no resume recorded; ops={set(ops)}"
        # The resume picked up exactly where the abort left off, at a
        # chunk boundary short of the full journal.
        at = aborted[0].path.rsplit("@", 1)[1]
        assert resumed[0].path.rsplit("@", 1)[1] == at
        done, total = at.split("/")
        assert 0 < int(done) < int(total)
        # And the takeover finished: the cursor is clean again.
        assert system.recovery.replay_cursor == {}
