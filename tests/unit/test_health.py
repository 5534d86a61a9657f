"""Failure detection, metadata range takeover, and scrub repair.

Exercises the self-healing pipeline the chaos campaign relies on:
heartbeat-timer detection semantics (suspect/dead states at the
configured delays), the recovery callbacks a dead declaration fires,
journal-replay range takeover, and checksum-scrub repair of corrupted
log chunks and replica files.
"""

import pytest

from repro import (
    IORequest,
    MachineSpec,
    PatternPayload,
    Simulation,
    UniviStorConfig,
)
from repro.core.errors import DataLossError
from repro.core.health import ALIVE, DEAD, SUSPECT
from repro.units import KiB

BLOCK = int(256 * KiB)


def setup(nodes=2, procs_per_node=2, **config_kw):
    config_kw.setdefault("flush_enabled", False)
    config = UniviStorConfig.hardened(**config_kw)
    sim = Simulation(MachineSpec.small_test(nodes=nodes))
    system = sim.install_univistor(config)
    comm = sim.comm("app", nodes * procs_per_node,
                    procs_per_node=procs_per_node)
    return sim, system, comm


def write_blocks(sim, comm, path, block=BLOCK, sync=True):
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


def read_all(sim, comm, path, block=BLOCK):
    def app():
        fh = yield from sim.open(comm, path, "r", fstype="univistor")
        data = yield from fh.read_at_all([
            IORequest(r, r * block, block) for r in range(comm.size)])
        yield from fh.close()
        return data

    return sim.run_to_completion(app())


def assert_correct(comm, data, block=BLOCK):
    for r in range(comm.size):
        blob = b"".join(e.materialize() for e in data[r])
        assert blob == PatternPayload(r).materialize(0, block), \
            f"rank {r} read wrong bytes"


def telemetry_ops(sim):
    return [r.op for r in sim.telemetry.records]


class TestDetectionTiming:
    def test_suspect_then_dead_at_configured_delays(self):
        sim, system, comm = setup()
        config = system.config
        t_crash = sim.now
        system.crash_server(0)
        assert system.health.state_of("server", 0) == ALIVE
        sim.run()
        assert system.health.state_of("server", 0) == DEAD
        by_op = {r.op: r for r in sim.telemetry.records
                 if r.path == "server:0" and r.op.startswith("health-")}
        suspect_at = t_crash + (config.heartbeat_interval
                                * config.suspect_heartbeats)
        dead_at = t_crash + (config.heartbeat_interval
                             * config.dead_heartbeats)
        assert by_op["health-suspect"].t_end == pytest.approx(suspect_at)
        assert by_op["health-dead"].t_end == pytest.approx(dead_at)

    def test_suspect_state_between_the_two_timers(self):
        sim, system, comm = setup()
        system.crash_server(1)

        seen = []

        def probe():
            config = system.config
            # Land between the suspect and dead timers.
            mid = config.heartbeat_interval * (
                config.suspect_heartbeats + config.dead_heartbeats) / 2
            yield sim.engine.timeout(mid)
            seen.append(system.health.state_of("server", 1))

        sim.run_to_completion(probe())
        assert seen == [SUSPECT]

    def test_node_crash_detected_as_node_and_servers(self):
        sim, system, comm = setup()
        system.crash_node(0)
        sim.run()
        assert system.health.state_of("node", 0) == DEAD
        for server in range(system.config.servers_per_node):
            assert system.health.state_of("server", server) == DEAD
        assert system.health.state_of("node", 1) == ALIVE

    def test_double_crash_detected_once(self):
        sim, system, comm = setup()
        system.crash_server(0)
        system.crash_server(0)
        sim.run()
        deaths = [r for r in sim.telemetry.records
                  if r.op == "health-dead" and r.path == "server:0"]
        assert len(deaths) == 1

    def test_callbacks_fire_on_dead_declaration(self):
        sim, system, comm = setup()
        fired = []
        system.health.on_server_dead.append(fired.append)
        system.crash_server(2)
        assert fired == []  # detection is not instantaneous
        sim.run()
        assert fired == [2]


class TestRangeTakeover:
    def test_dead_server_ranges_reassigned(self):
        sim, system, comm = setup(metadata_range_size=float(64 * KiB))
        write_blocks(sim, comm, "/f")
        victim = 0
        owned = [ri for ri in system.metadata._journal
                 if victim in system.metadata.replica_servers(ri)]
        assert owned, "server 0 should own journaled ranges"
        system.crash_server(victim)
        sim.run()
        taken = dict(system.recovery.takeovers)
        for ri in owned:
            replicas = system.metadata.replica_servers(ri)
            assert victim not in replicas
            assert len(replicas) == system.config.metadata_replication
            assert ri in taken
        ops = telemetry_ops(sim)
        assert "recovery-takeover" in ops
        assert "recovery-replay" in ops

    def test_reads_after_takeover_skip_failover(self):
        sim, system, comm = setup(metadata_range_size=float(64 * KiB))
        write_blocks(sim, comm, "/f")
        system.crash_server(0)
        sim.run()  # detection + takeover completes
        data = read_all(sim, comm, "/f")
        assert_correct(comm, data)
        # Lookup now routes straight to the new owner: no per-read
        # failover events, unlike the discover-on-read baseline.
        assert "metadata-failover" not in telemetry_ops(sim)

    def test_takeover_survives_second_crash(self):
        # The rebuilt replica set must itself be crash-tolerant.
        sim, system, comm = setup(nodes=3,
                                  metadata_range_size=float(64 * KiB))
        write_blocks(sim, comm, "/f")
        system.crash_server(0)
        sim.run()
        new_owners = {np for _ri, np in system.recovery.takeovers}
        assert new_owners
        system.crash_server(sorted(new_owners)[0])
        sim.run()
        data = read_all(sim, comm, "/f")
        assert_correct(comm, data)

    def test_without_recovery_failover_still_works(self):
        sim, system, comm = setup(metadata_range_size=float(64 * KiB),
                                  self_healing=False)
        write_blocks(sim, comm, "/f")
        system.crash_server(0)
        data = read_all(sim, comm, "/f")
        assert_correct(comm, data)
        assert "metadata-failover" in telemetry_ops(sim)
        # No takeover without the switch: the crash alone never
        # rewrites ownership.
        assert system.metadata.replica_servers(0)[0] == 0
        assert "recovery-takeover" not in telemetry_ops(sim)

    def test_switch_builds_all_three_services_or_none(self):
        _sim, system, _comm = setup()
        assert None not in (system.health, system.recovery, system.scrub)
        _sim, system, _comm = setup(self_healing=False)
        assert (system.health, system.recovery, system.scrub) == (
            None, None, None)


class TestScrub:
    def _corrupt_first_log(self, sim, system, path="/f"):
        session = system._sessions[path]
        writer = session.writers[0]
        log = writer.log(0)
        log.sim_file.corrupt_at(0, 4096, token=1)
        return session

    def test_scrub_repairs_corrupt_log_from_replica(self):
        sim, system, comm = setup()
        write_blocks(sim, comm, "/f")
        self._corrupt_first_log(sim, system)
        system.scrub.start_scrub()
        sim.run()
        assert system.scrub.repaired_bytes >= 4096
        assert "scrub-repair" in telemetry_ops(sim)
        data = read_all(sim, comm, "/f")
        assert_correct(comm, data)

    def test_scrub_repairs_corrupt_replica_from_log(self):
        sim, system, comm = setup()
        write_blocks(sim, comm, "/f")
        session = system._sessions["/f"]
        replica = system.resilience._replicas["/f"][0]
        replica.corrupt_at(0, 4096, token=2)
        system.scrub.start_scrub()
        sim.run()
        assert replica.corrupt_ranges(0, replica.size) == []
        assert system.scrub.repaired_bytes >= 4096
        # The replica is clean again, so losing the primary is survivable.
        system.crash_node(session.node_of_proc(0).node_id)
        sim.run()
        data = read_all(sim, comm, "/f")
        assert_correct(comm, data)

    def test_scrub_reports_unrepairable_loss(self):
        sim, system, comm = setup()
        write_blocks(sim, comm, "/f")
        session = system._sessions["/f"]
        self._corrupt_first_log(sim, system)
        system.resilience._replicas["/f"][0].corrupt_at(0, 4096, token=3)
        system.scrub.start_scrub()
        sim.run()
        assert system.scrub.lost_bytes > 0
        assert "scrub-lost" in telemetry_ops(sim)
        with pytest.raises(DataLossError):
            read_all(sim, comm, "/f")
        assert session is system._sessions["/f"]

    def test_scrub_idempotent_while_in_flight(self):
        sim, system, comm = setup()
        write_blocks(sim, comm, "/f")
        ev1 = system.scrub.start_scrub()
        ev2 = system.scrub.start_scrub()
        assert ev1 is ev2
        sim.run()

    def test_node_death_triggers_scrub_and_rereplication(self):
        sim, system, comm = setup(nodes=3)
        write_blocks(sim, comm, "/f")
        system.crash_node(0)
        sim.run()
        ops = telemetry_ops(sim)
        assert "scrub" in ops
        data = read_all(sim, comm, "/f")
        assert_correct(comm, data)
