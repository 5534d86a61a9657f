"""Fault injection and the survival mechanisms it exercises.

Covers the failure/recovery matrix of the robustness extension: node
crashes before/during/after replication, metadata-owner crashes with and
without replicas, degraded devices falling out of DHP placement, bounded
retry of transient write errors — plus the determinism guarantee that a
fixed fault seed always produces the identical timeline.
"""

import pytest

from repro import (
    IORequest,
    MachineSpec,
    PatternPayload,
    Simulation,
    UniviStorConfig,
)
from repro.core.metadata import MetadataUnavailableError
from repro.core.resilience import DataLossError
from repro.sim.faults import Fault, FaultSpec
from repro.storage.device import TransientIOError
from repro.units import KiB, MiB

BLOCK = int(256 * KiB)


def setup(nodes=2, procs_per_node=2, **config_kw):
    config_kw.setdefault("flush_enabled", False)
    config_kw.setdefault("resilience_enabled", True)
    config = UniviStorConfig.dram_only(**config_kw)
    sim = Simulation(MachineSpec.small_test(nodes=nodes))
    sim.install_univistor(config)
    comm = sim.comm("app", nodes * procs_per_node,
                    procs_per_node=procs_per_node)
    return sim, comm


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


class TestFaultSpecParsing:
    def test_scheduled_events(self):
        spec = FaultSpec.parse(
            "node-crash@120:node=0;"
            "device-degrade@60:tier=pfs,factor=0.25,duration=300;"
            "write-errors@5:tier=shared_bb,count=3")
        assert spec.events == (
            Fault(at=120.0, kind="node-crash", target=0),
            Fault(at=60.0, kind="device-degrade", tier="pfs",
                  factor=0.25, duration=300.0),
            Fault(at=5.0, kind="write-errors", tier="shared_bb", count=3),
        )

    def test_random_knobs(self):
        spec = FaultSpec.parse(
            "random:node_crash_rate=0.001,horizon=600,degrade_duration=15")
        assert spec.node_crash_rate == 0.001
        assert spec.horizon == 600.0
        assert spec.degrade_duration == 15.0
        assert spec.events == ()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec.parse("meteor-strike@10:node=0")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown fault key"):
            FaultSpec.parse("node-crash@10:node=0,severity=9")

    def test_unknown_random_knob_rejected(self):
        with pytest.raises(ValueError, match="unknown random fault knob"):
            FaultSpec.parse("random:node_crash_rte=0.001,horizon=600")

    def test_random_events_knob_rejected(self):
        # ``events`` is a FaultSpec field but not a random knob.
        with pytest.raises(ValueError, match="unknown random fault knob"):
            FaultSpec.parse("random:events=3,horizon=600")

    def test_malformed_random_entry_rejected(self):
        with pytest.raises(ValueError, match="expected knob=value"):
            FaultSpec.parse("random:node_crash_rate")

    def test_duplicate_crash_target_rejected(self):
        with pytest.raises(ValueError, match="duplicate node-crash"):
            FaultSpec.parse("node-crash@10:node=0;node-crash@20:node=0")
        with pytest.raises(ValueError, match="duplicate server-crash"):
            FaultSpec(events=(
                Fault(at=1.0, kind="server-crash", target=3),
                Fault(at=2.0, kind="server-crash", target=3)))

    def test_same_target_different_kinds_allowed(self):
        # node 0 and server 0 are different targets; and repeated
        # restorable faults (degrade) are fine.
        spec = FaultSpec.parse(
            "node-crash@10:node=0;server-crash@10:server=0;"
            "device-degrade@1:tier=pfs,factor=0.5,duration=1;"
            "device-degrade@5:tier=pfs,factor=0.5,duration=1")
        assert len(spec.events) == 4

    def test_data_corrupt_parsing(self):
        spec = FaultSpec.parse(
            "data-corrupt@3:tier=shared_bb,nbytes=4096;"
            "random:data_corrupt_rate=0.01,corrupt_bytes=8192,horizon=100")
        assert spec.events == (
            Fault(at=3.0, kind="data-corrupt", tier="shared_bb",
                  nbytes=4096.0),)
        assert spec.data_corrupt_rate == 0.01
        assert spec.corrupt_bytes == 8192.0

    def test_data_corrupt_validation(self):
        with pytest.raises(ValueError, match="needs tier"):
            Fault(at=0.0, kind="data-corrupt")
        with pytest.raises(ValueError, match="nbytes must be positive"):
            Fault(at=0.0, kind="data-corrupt", tier="pfs", nbytes=0.0)
        with pytest.raises(ValueError, match="corrupt_bytes"):
            FaultSpec(corrupt_bytes=-1.0)

    def test_fault_validation(self):
        with pytest.raises(ValueError):
            Fault(at=-1.0, kind="node-crash", target=0)
        with pytest.raises(ValueError):
            Fault(at=0.0, kind="device-degrade", tier="pfs", factor=1.5)
        with pytest.raises(ValueError):
            Fault(at=0.0, kind="node-crash")  # missing target
        with pytest.raises(ValueError):
            Fault(at=0.0, kind="device-fail")  # missing tier
        with pytest.raises(ValueError):
            FaultSpec(node_crash_rate=0.1)  # rates need a horizon


class TestDeterminism:
    SPEC = FaultSpec(node_crash_rate=0.002, server_crash_rate=0.002,
                     device_degrade_rate=0.01, horizon=500.0)

    def test_same_seed_identical_timeline(self):
        sims = [setup()[0] for _ in range(2)]
        t1, t2 = [sim.install_faults(self.SPEC, seed=42).timeline
                  for sim in sims]
        assert t1 == t2

    def test_different_seed_different_timeline(self):
        sim_a, _ = setup()
        sim_b, _ = setup()
        t1 = sim_a.install_faults(self.SPEC, seed=1).timeline
        t2 = sim_b.install_faults(self.SPEC, seed=2).timeline
        assert t1 != t2

    def test_faulted_run_fully_reproducible(self):
        # Same workload + same fault seed -> bit-identical telemetry.
        spec = FaultSpec(device_degrade_rate=2.0, degrade_factor=0.5,
                         degrade_duration=0.05, horizon=2.0)

        def run_once():
            sim, comm = setup()
            sim.install_faults(spec, seed=9)
            write_blocks(sim, comm, "/f", block=int(2 * MiB))
            return [(r.op, r.t_start, r.t_end, r.path, r.nbytes)
                    for r in sim.telemetry.records]

        assert run_once() == run_once()


class TestInjectorMechanics:
    def test_install_requires_univistor(self):
        sim = Simulation(MachineSpec.small_test(nodes=2))
        with pytest.raises(RuntimeError, match="install_univistor"):
            sim.install_faults(FaultSpec())

    def test_double_install_rejected(self):
        sim, _ = setup()
        sim.install_faults(FaultSpec())
        with pytest.raises(RuntimeError, match="already installed"):
            sim.install_faults(FaultSpec())

    def test_scheduled_degrade_and_restore(self):
        sim, _ = setup()
        spec = FaultSpec(events=(
            Fault(at=1.0, kind="device-degrade", tier="pfs",
                  factor=0.25, duration=2.0),))
        sim.install_faults(spec)
        lustre_device = sim.machine.lustre.device
        sim.run(until=1.5)
        assert lustre_device.degraded
        assert lustre_device.health == "degraded"
        sim.run(until=4.0)
        assert not lustre_device.degraded
        ops = telemetry_ops(sim)
        assert "fault-device-degrade" in ops
        assert "fault-restore" in ops

    def test_node_crash_via_injector(self):
        sim, comm = setup(metadata_replication=2)
        write_blocks(sim, comm, "/f")
        t0 = sim.now
        sim.install_faults(FaultSpec(events=(
            Fault(at=t0, kind="node-crash", target=0),)))
        sim.run(until=t0 + 1.0)
        system = sim.univistor
        assert 0 in system.failed_nodes
        assert {0, 1} <= system.failed_servers
        ops = telemetry_ops(sim)
        assert "fault-node-crash" in ops
        assert "fault-server-crash" in ops
        assert (sim.fault_injector.applied
                and sim.fault_injector.applied[0][0] == pytest.approx(t0))

    def test_net_degrade_slows_transfers(self):
        sim, _ = setup()
        backbone = sim.machine.network.backbone
        sim.install_faults(FaultSpec(events=(
            Fault(at=0.0, kind="net-degrade", factor=0.5, duration=1.0),)))
        sim.run(until=0.5)
        assert backbone.degrade_factor == 0.5
        sim.run(until=2.0)
        assert backbone.degrade_factor == 1.0

    def test_skipped_partition_cut_never_heals(self):
        """Regression: a cut skipped for runtime overlap is dropped
        *whole* — no partition applied AND no auto-heal scheduled.  A
        heal armed before the skip check would fire for the phantom
        cut, healing the original partition early (and "healing"
        servers the cut never isolated).

        White-box via ``_apply``: the spec parser rejects explicit
        overlapping groups up front, so only random draws (or direct
        application, as here) can reach the runtime skip path.
        """
        sim, _ = setup()
        sim.install_faults(FaultSpec())
        inj = sim.fault_injector
        system = sim.univistor
        t0 = sim.now
        inj._apply(Fault(at=t0, kind="partition", servers=(0,),
                         mode="sym", duration=1.0))
        # Overlapping cut (server 0 still partitioned): dropped whole.
        inj._apply(Fault(at=t0, kind="partition", servers=(0, 1),
                         mode="sym", duration=0.2))
        assert system.partitioned_servers == {0}
        assert sim.telemetry.counters.get("fault-partition-skipped") == 1
        assert any(desc.startswith("skip:") for _t, desc in inj.applied)
        # Past the skipped cut's duration: had its heal been armed it
        # would have fired by now.
        sim.run(until=t0 + 0.5)
        assert system.partitioned_servers == {0}
        assert "partition-heal" not in telemetry_ops(sim)
        # The real cut's own heal still fires on schedule — exactly once,
        # for exactly the servers that were actually cut.
        sim.run(until=t0 + 1.5)
        assert system.partitioned_servers == set()
        heals = [r for r in sim.telemetry.records
                 if r.op == "partition-heal"]
        assert len(heals) == 1
        assert "servers:0" in heals[0].path


class TestFailureRecoveryMatrix:
    def test_crash_before_replication_loses_data(self):
        # Metadata replicas keep the lookup working, so the failure is
        # cleanly the *data* loss (replication had not run yet).
        sim, comm = setup(metadata_replication=2)

        def app():
            fh = yield from sim.open(comm, "/f", "w", fstype="univistor")
            yield from fh.write_at_all([
                IORequest.contiguous_block(r, BLOCK, PatternPayload(r))
                for r in range(comm.size)])
            yield from fh.close()
            # Crash in the same instant: replication never got to run.
            sim.univistor.crash_node(0)
            fh2 = yield from sim.open(comm, "/f", "r", fstype="univistor")
            yield from fh2.read_at_all([IORequest(0, 0, BLOCK)])

        with pytest.raises(DataLossError) as err:
            sim.run_to_completion(app())
        assert err.value.node == 0
        assert "replicate-lost" in telemetry_ops(sim)

    def test_crash_during_replication_recovers(self):
        sim, comm = setup(metadata_replication=2)

        def app():
            fh = yield from sim.open(comm, "/f", "w", fstype="univistor")
            yield from fh.write_at_all([
                IORequest.contiguous_block(r, BLOCK, PatternPayload(r))
                for r in range(comm.size)])
            yield from fh.close()
            # Let the replication pass start (its functional copy is made
            # up front) but crash before its timed copy finishes.
            yield sim.engine.timeout(1e-6)
            sim.univistor.crash_node(0)
            yield from fh.sync()
            fh2 = yield from sim.open(comm, "/f", "r", fstype="univistor")
            data = yield from fh2.read_at_all([
                IORequest(r, r * BLOCK, BLOCK) for r in range(comm.size)])
            yield from fh2.close()
            return data

        data = sim.run_to_completion(app())
        assert_correct(comm, data)

    def test_crash_after_replication_recovers(self):
        sim, comm = setup(metadata_replication=2)
        write_blocks(sim, comm, "/f")  # sync: replication complete
        sim.univistor.crash_node(0)
        data = read_all(sim, comm, "/f")
        assert_correct(comm, data)
        # The crashed node hosted metadata primaries: reads failed over.
        assert "metadata-failover" in telemetry_ops(sim)

    def test_metadata_owner_crash_with_replica(self):
        sim, comm = setup(metadata_replication=2)
        write_blocks(sim, comm, "/f")
        # Server 0 owns range 0 (offsets < 64 MiB with the default range
        # width); its replica lives on server 2 (stride=servers_per_node).
        sim.univistor.crash_server(0)
        data = read_all(sim, comm, "/f")
        assert_correct(comm, data)
        assert "metadata-failover" in telemetry_ops(sim)

    def test_metadata_owner_crash_without_replica(self):
        sim, comm = setup(metadata_replication=1)
        write_blocks(sim, comm, "/f")
        sim.univistor.crash_server(0)
        with pytest.raises(MetadataUnavailableError):
            read_all(sim, comm, "/f")

    def test_whole_replica_set_dead_is_fatal(self):
        sim, comm = setup(metadata_replication=2)
        write_blocks(sim, comm, "/f")
        sim.univistor.crash_server(0)
        sim.univistor.crash_server(2)  # range 0's only replica
        with pytest.raises(MetadataUnavailableError):
            read_all(sim, comm, "/f")

    def test_degraded_bb_placement_falls_to_pfs(self):
        config = UniviStorConfig.bb_only(flush_enabled=False)
        sim = Simulation(MachineSpec.small_test(nodes=2))
        sim.install_univistor(config)
        comm = sim.comm("app", 4, procs_per_node=2)
        sim.machine.burst_buffer.device.degrade(0.1)
        write_blocks(sim, comm, "/f")
        session = sim.univistor.session("/f")
        cached = session.cached_bytes_per_tier()
        from repro.core.config import StorageTier
        assert cached.get(StorageTier.SHARED_BB, 0.0) == 0.0
        assert cached.get(StorageTier.PFS, 0.0) == pytest.approx(
            comm.size * BLOCK)
        data = read_all(sim, comm, "/f")
        assert_correct(comm, data)

    def test_restored_bb_accepts_placement_again(self):
        config = UniviStorConfig.bb_only(flush_enabled=False)
        sim = Simulation(MachineSpec.small_test(nodes=2))
        sim.install_univistor(config)
        comm = sim.comm("app", 4, procs_per_node=2)
        bb = sim.machine.burst_buffer.device
        bb.degrade(0.1)
        write_blocks(sim, comm, "/f")
        bb.restore()
        write_blocks(sim, comm, "/g")
        from repro.core.config import StorageTier
        cached = sim.univistor.session("/g").cached_bytes_per_tier()
        assert cached.get(StorageTier.SHARED_BB, 0.0) == pytest.approx(
            comm.size * BLOCK)


class TestRetry:
    def test_transient_write_errors_retried(self):
        sim, comm = setup(io_retry_limit=3, io_backoff_base=0.01)
        sim.machine.burst_buffer.device.inject_write_errors(2)
        write_blocks(sim, comm, "/f")  # sync waits for replication
        retries = [op for op in telemetry_ops(sim) if op == "io-retry"]
        assert len(retries) == 2
        # The replication still completed despite the injected errors.
        assert "replicate" in telemetry_ops(sim)

    def test_write_errors_without_retries_fail(self):
        sim, comm = setup(io_retry_limit=0)
        sim.machine.burst_buffer.device.inject_write_errors(1)
        with pytest.raises(TransientIOError):
            write_blocks(sim, comm, "/f")

    def test_retry_budget_exhaustion_raises(self):
        sim, comm = setup(io_retry_limit=2, io_backoff_base=0.01)
        sim.machine.burst_buffer.device.inject_write_errors(5)
        with pytest.raises(TransientIOError):
            write_blocks(sim, comm, "/f")


class TestDataCorruption:
    """The ``data-corrupt`` fault kind: silent rot caught by checksums."""

    def _corrupt_paths(self, sim):
        return [(r.path, r.nbytes) for r in sim.telemetry.records
                if r.op == "fault-data-corrupt"]

    def _run_with_corruption(self, **config_kw):
        sim, comm = setup(**config_kw)
        write_blocks(sim, comm, "/f")
        sim.install_faults(FaultSpec(events=(
            Fault(at=sim.now, kind="data-corrupt", tier="dram", target=0,
                  nbytes=4096.0),)))
        sim.run(until=sim.now + 0.01)
        return sim, comm

    def test_corruption_lands_and_is_reported(self):
        sim, comm = self._run_with_corruption()
        corrupted = self._corrupt_paths(sim)
        assert len(corrupted) == 1
        path, nbytes = corrupted[0]
        assert nbytes == 4096.0
        assert "[" in path  # "<file>:[<offset>,+<length>)"

    def test_read_falls_back_to_replica(self):
        sim, comm = self._run_with_corruption()
        data = read_all(sim, comm, "/f")
        assert_correct(comm, data)
        ops = telemetry_ops(sim)
        assert "read-corrupt" in ops  # checksum caught the rot

    def test_corruption_without_replica_raises_structured(self):
        sim, comm = self._run_with_corruption(resilience_enabled=False)
        with pytest.raises(DataLossError, match="checksum|clean"):
            read_all(sim, comm, "/f")

    def test_no_data_to_corrupt_is_reported(self):
        sim, comm = setup()
        sim.install_faults(FaultSpec(events=(
            Fault(at=0.0, kind="data-corrupt", tier="pfs"),)))
        sim.run(until=0.01)
        assert self._corrupt_paths(sim) == [("pfs:no-data", 0.0)]

    def test_same_seed_corrupts_identical_bytes(self):
        runs = [self._run_with_corruption() for _ in range(2)]
        a, b = [self._corrupt_paths(sim) for sim, _comm in runs]
        assert a == b

    def test_rate_resolves_into_timeline(self):
        sim, _ = setup()
        spec = FaultSpec(data_corrupt_rate=1.0, corrupt_bytes=8192.0,
                         horizon=2.0)
        injector = sim.install_faults(spec, seed=5)
        corrupt = [f for f in injector.timeline if f.kind == "data-corrupt"]
        assert corrupt, "rate 1/s over 2s should yield events"
        tiers = {f.tier for f in corrupt}
        assert tiers <= {"pfs", "shared_bb", "dram"}
        for f in corrupt:
            assert f.nbytes == 8192.0
            assert (f.target is not None) == (f.tier == "dram")

    def test_rate_streams_do_not_perturb_crash_draws(self):
        # Adding corruption draws must not move the node-crash times:
        # each fault class draws from its own named stream.
        sim_a, _ = setup()
        sim_b, _ = setup()
        base = dict(node_crash_rate=0.1, horizon=5.0)
        t_a = sim_a.install_faults(FaultSpec(**base), seed=3).timeline
        t_b = sim_b.install_faults(
            FaultSpec(data_corrupt_rate=1.0, **base), seed=3).timeline
        crashes_a = [f for f in t_a if f.kind == "node-crash"]
        crashes_b = [f for f in t_b if f.kind == "node-crash"]
        assert crashes_a == crashes_b


class TestAcceptance:
    """The issue's headline scenario: one node plus one extra
    metadata-owning server crash mid-run; the hardened configuration
    completes with correct reads, the paper's baseline demonstrably
    fails."""

    NODES = 4
    BLOCK = int(64 * KiB)

    def _run(self, **config_kw):
        sim, comm = setup(nodes=self.NODES,
                          metadata_range_size=float(64 * KiB), **config_kw)

        def app():
            fh = yield from sim.open(comm, "/f", "w", fstype="univistor")
            yield from fh.write_at_all([
                IORequest.contiguous_block(r, self.BLOCK, PatternPayload(r))
                for r in range(comm.size)])
            yield from fh.close()
            yield from fh.sync()
            # Mid-run crash of node 0 (servers 0 and 1 plus its storage)
            # and of server 4, a metadata owner on a surviving node.
            sim.install_faults(FaultSpec(events=(
                Fault(at=sim.now, kind="node-crash", target=0),
                Fault(at=sim.now, kind="server-crash", target=4),
            )))
            yield sim.engine.timeout(1e-6)  # let the faults fire
            fh2 = yield from sim.open(comm, "/f", "r", fstype="univistor")
            data = yield from fh2.read_at_all([
                IORequest(r, r * self.BLOCK, self.BLOCK)
                for r in range(comm.size)])
            yield from fh2.close()
            return sim, data

        return sim.run_to_completion(app()), comm

    def test_hardened_run_completes_with_correct_reads(self):
        (sim, data), comm = self._run(metadata_replication=2,
                                      io_retry_limit=2)
        assert_correct(comm, data, block=self.BLOCK)
        ops = telemetry_ops(sim)
        assert "fault-node-crash" in ops
        assert "metadata-failover" in ops

    def test_baseline_run_fails(self):
        with pytest.raises((DataLossError, MetadataUnavailableError)):
            self._run(metadata_replication=1, resilience_enabled=False)


class TestPartitionGrammar:
    """Satellite coverage: the ``partition:``/``heal@`` spec grammar."""

    def test_parse_partition_and_heal(self):
        spec = FaultSpec.parse(
            "partition@0.2:servers=0+1,mode=sym,duration=0.4;"
            "partition@0.3:nodes=2,mode=oneway;"
            "heal@1.0;heal@2.0:servers=4+5")
        assert spec.events == (
            Fault(at=0.2, kind="partition", servers=(0, 1), mode="sym",
                  duration=0.4),
            Fault(at=0.3, kind="partition", nodes=(2,), mode="oneway"),
            Fault(at=1.0, kind="heal"),
            Fault(at=2.0, kind="heal", servers=(4, 5)),
        )

    def test_describe_round_trips_groups(self):
        fault = Fault(at=0.5, kind="partition", nodes=(0, 2), mode="sym",
                      duration=1.0)
        assert fault.describe() == \
            "partition:duration=1:nodes=0+2:mode=sym"

    def test_partition_needs_exactly_one_group(self):
        with pytest.raises(ValueError, match="exactly one of"):
            FaultSpec.parse("partition@0:mode=sym")
        with pytest.raises(ValueError, match="exactly one of"):
            FaultSpec.parse("partition@0:servers=0,nodes=1")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown partition mode"):
            FaultSpec.parse("partition@0:servers=0,mode=asym")

    def test_unknown_knob_rejected(self):
        with pytest.raises(ValueError, match="unknown fault key"):
            FaultSpec.parse("partition@0:servers=0,split=brain")

    def test_group_keys_rejected_on_other_kinds(self):
        with pytest.raises(ValueError, match="only valid for"):
            FaultSpec.parse("node-crash@0:node=0,servers=1")
        with pytest.raises(ValueError, match="only valid for partition"):
            FaultSpec.parse("heal@0:mode=sym")

    def test_degenerate_groups_rejected(self):
        with pytest.raises(ValueError, match="duplicate id"):
            Fault(at=0.0, kind="partition", servers=(1, 1))
        with pytest.raises(ValueError, match="negative id"):
            Fault(at=0.0, kind="partition", nodes=(-1,))

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ValueError, match="overlapping partition"):
            FaultSpec.parse(
                "partition@0.1:servers=0+1;partition@0.2:servers=1+2")
        with pytest.raises(ValueError, match="overlapping partition"):
            FaultSpec.parse("partition@0.1:nodes=0;partition@0.2:nodes=0")

    def test_heal_releases_group_for_reuse(self):
        # An explicit heal or the first cut's duration= auto-heal frees
        # the servers for a later partition event.
        FaultSpec.parse(
            "partition@0.1:servers=0+1;heal@0.5;"
            "partition@0.6:servers=1+2")
        FaultSpec.parse(
            "partition@0.1:servers=0+1,duration=0.2;"
            "partition@0.4:servers=1+2")

    def test_disjoint_concurrent_groups_allowed(self):
        spec = FaultSpec.parse(
            "partition@0.1:nodes=0;partition@0.1:nodes=1")
        assert len(spec.events) == 2


class TestPartitionInjection:
    """The injector resolves groups and drives partition/heal hooks."""

    def _system(self, **config_kw):
        sim, comm = setup(nodes=3, metadata_replication=2,
                          self_healing=True,
                          **config_kw)
        return sim, comm, sim.univistor

    def test_sym_partition_fences_then_heal_recovers(self):
        sim, comm, system = self._system()
        write_blocks(sim, comm, "/f")
        sim.install_faults(FaultSpec.parse(
            f"partition@{sim.now + 0.01:g}:nodes=0,mode=sym,duration=1.0"))
        sim.run()
        ops = telemetry_ops(sim)
        assert "fault-partition" in ops
        # Lease expiry fences both of node 0's servers while cut off...
        assert ops.count("health-fenced") == 2
        # ...and the heal (via the duration= restore) brings them back.
        assert "partition-heal" in ops
        assert ops.count("health-recovered") == 2
        assert system.partitioned_servers == set()
        assert system.metadata.unreachable_servers == set()

    def test_oneway_partition_never_fences(self):
        sim, comm, system = self._system()
        write_blocks(sim, comm, "/f")
        sim.install_faults(FaultSpec.parse(
            f"partition@{sim.now + 0.01:g}:servers=0+1,mode=oneway,"
            f"duration=1.0"))
        sim.run()
        ops = telemetry_ops(sim)
        assert "fault-partition" in ops
        assert "health-fenced" not in ops
        assert "health-suspect" not in ops

    def test_node_group_resolves_to_its_servers(self):
        sim, comm, system = self._system()
        injector = sim.install_faults(FaultSpec.parse(
            "partition@0.01:nodes=1,mode=oneway;heal@0.5"))
        sim.engine.run(until=0.1)
        spn = system.config.servers_per_node
        assert system.partitioned_servers == set(range(spn, 2 * spn))
        sim.run()
        assert system.partitioned_servers == set()
        assert [f.kind for f in injector.timeline] == ["partition", "heal"]

    def test_timeline_determinism_with_partitions(self):
        specs = []
        for _ in range(2):
            sim, comm, _ = self._system()
            injector = sim.install_faults(FaultSpec.parse(
                "partition@0.1:nodes=0,duration=0.2;server-crash@0.15:server=5"),
                seed=7)
            specs.append(tuple(f.describe() for f in injector.timeline))
        assert specs[0] == specs[1]

    def test_mixed_node_server_overlap_rejected_at_install(self):
        # The spec cannot expand nodes= to server ids (no machine
        # config), so a servers= cut overlapping a nodes= cut parses —
        # but the injector knows the topology and must refuse to arm it.
        sim, comm, _ = self._system()
        spec = FaultSpec.parse(
            "partition@0.5:nodes=1,duration=2;partition@1:servers=2,duration=1")
        with pytest.raises(ValueError, match="overlapping partition groups"):
            sim.install_faults(spec)

    def test_mixed_groups_fine_after_auto_heal(self):
        sim, comm, _ = self._system()
        injector = sim.install_faults(FaultSpec.parse(
            "partition@0.1:nodes=1,duration=0.2;"
            "partition@0.5:servers=2,duration=0.1"))
        assert [f.kind for f in injector.timeline] == ["partition", "partition"]
        sim.run()


class TestRandomPartitions:
    """Seeded exponential partition arrivals (``random:partition_rate``).

    Random cuts are *skipped at runtime* when they land on an already-
    partitioned server — unlike explicit cuts, which the injector still
    rejects at arm time — so a probabilistic campaign never aborts on an
    unlucky seed.
    """

    def _system(self, **config_kw):
        sim, comm = setup(nodes=3, metadata_replication=2,
                          self_healing=True,
                          **config_kw)
        return sim, comm, sim.univistor

    def test_partition_knobs_parse(self):
        spec = FaultSpec.parse("random:partition_rate=2.0,"
                               "partition_duration=0.4,"
                               "partition_mode=oneway,horizon=3.0")
        assert spec.partition_rate == 2.0
        assert spec.partition_duration == 0.4
        assert spec.partition_mode == "oneway"

    def test_bad_partition_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown partition mode"):
            FaultSpec.parse("random:partition_rate=1.0,"
                            "partition_mode=diagonal")

    def test_timeline_has_seeded_partitions(self):
        sim, comm, system = self._system()
        spec = FaultSpec.parse("random:partition_rate=2.0,"
                               "partition_duration=0.4,horizon=3.0")
        injector = sim.install_faults(spec, seed=3)
        cuts = [f for f in injector.timeline if f.kind == "partition"]
        assert cuts
        assert all(len(f.servers) == 1 for f in cuts)
        # Same seed, fresh system: identical timeline.
        sim2, _, _ = self._system()
        injector2 = sim2.install_faults(spec, seed=3)
        assert [f.describe() for f in injector2.timeline] \
            == [f.describe() for f in injector.timeline]
        # Different seed: different arrivals.
        sim3, _, _ = self._system()
        injector3 = sim3.install_faults(spec, seed=4)
        assert [f.describe() for f in injector3.timeline] \
            != [f.describe() for f in injector.timeline]

    def test_colliding_random_cuts_skipped_at_runtime(self):
        sim, comm, system = self._system()
        write_blocks(sim, comm, "/f")
        # Rate high enough that some arrivals land mid-cut.
        sim.install_faults(FaultSpec.parse(
            "random:partition_rate=4.0,partition_duration=0.5,horizon=2.0"),
            seed=1)
        sim.run()
        ops = telemetry_ops(sim)
        assert "fault-partition" in ops
        assert "fault-partition-skipped" in ops
        # Every applied cut healed; skipped ones never double-cut.
        assert system.partitioned_servers == set()

    def test_random_plus_explicit_arms_fine(self):
        # The arm-time overlap check covers explicit events only; the
        # random arrivals around this cut resolve by runtime skipping.
        sim, comm, system = self._system()
        injector = sim.install_faults(FaultSpec.parse(
            "partition@0.5:servers=0,duration=0.5;"
            "random:partition_rate=4.0,partition_duration=0.5,horizon=2.0"),
            seed=1)
        assert any(f.kind == "partition" and f.servers == (0,)
                   for f in injector.timeline)
        sim.run()
        assert system.partitioned_servers == set()

    def test_explicit_overlap_still_rejected(self):
        # The arm-time check did not relax for explicit events: two
        # simultaneously active cuts sharing a server stay an error.
        with pytest.raises(ValueError, match="overlapping partition groups"):
            FaultSpec.parse("partition@0.5:servers=0,duration=2;"
                            "partition@1:servers=0+1,duration=1")
