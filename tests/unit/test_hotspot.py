"""Adaptive metadata hotspot mitigation (docs/MODEL.md §11).

Two layers.  The MetadataService layer drives split/merge/re-replication
and runtime pool elasticity directly and checks the invariants every
mitigation op must keep: lookups stay byte-identical across layout
changes, epochs advance, quorum gates refuse minority-side rewrites, and
off-mode routing stays bit-identical to the static arithmetic.  The
simulation layer runs the HotspotManager's tick loop end to end over a
skewed workload: split -> pool grow -> (idle) merge -> pool shrink, with
the engine draining to quiescence and the activity hook reviving the
loop afterwards.
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
from repro.core.errors import QuorumLostError
from repro.core.metadata import MetadataRecord, MetadataService
from repro.units import KiB

KB = 1024
RANGE = 64 * KB


def build(n_servers=4, replication=2, quorum=True, **kw):
    return MetadataService(n_servers=n_servers, range_size=float(RANGE),
                           replication=replication, quorum=quorum, **kw)


def rec(offset, length, proc=0, fid=1):
    return MetadataRecord(fid=fid, offset=offset, length=length,
                          proc_id=proc, va=float(offset),
                          tier=StorageTier.DRAM, node_id=0)


def fill_range(md, range_index=0, pieces=8, fid=1):
    """Insert ``pieces`` distinct-writer records covering one range."""
    step = RANGE // pieces
    base = range_index * RANGE
    md.insert_many([rec(base + i * step, step, proc=i, fid=fid)
                    for i in range(pieces)])


def as_tuples(records):
    return [(r.offset, r.length, r.proc_id, r.va, r.tier, r.node_id)
            for r in records]


def snapshot(md, fid=1, lo=0, hi=RANGE):
    found, _servers = md.lookup(fid, lo, hi - lo)
    return as_tuples(found)


class TestSplitMerge:
    def test_split_preserves_lookup_and_bumps_epoch(self):
        md = build()
        fill_range(md)
        before = snapshot(md)
        epoch0 = md._range_epoch.get(0, 0)
        moved = md.split_range(0)
        assert moved > 0  # the upper half replayed onto fresh members
        subs = md.sub_ranges(0)
        assert len(subs) == 2
        assert subs[0][0] == 0 and subs[1][0] == RANGE // 2
        assert md._range_epoch[0] == epoch0 + 1
        assert md.splits_done == 1
        assert snapshot(md) == before

    def test_repeated_splits_balance_members(self):
        md = build(n_servers=8, replication=2)
        fill_range(md)
        for _ in range(3):
            md.split_range(0)
        subs = md.sub_ranges(0)
        assert len(subs) == 4
        # Least-loaded member choice: no server hoards the sub-ranges.
        load = {}
        for _start, members in subs:
            for server in members:
                load[server] = load.get(server, 0) + 1
        assert max(load.values()) <= 2

    def test_split_stops_at_unit_width(self):
        md = MetadataService(n_servers=4, range_size=2.0, replication=1)
        md.insert_many([MetadataRecord(1, 0, 2, 0, 0.0, StorageTier.DRAM, 0)])
        assert md.split_range(0) >= 0  # 2 -> two width-1 subs
        assert md.split_range(0) == 0  # width < 2: cannot split further

    def test_merge_restores_single_sub_and_lookup(self):
        md = build()
        fill_range(md)
        before = snapshot(md)
        md.split_range(0)
        md.split_range(0)
        epoch_split = md._range_epoch[0]
        moved = md.merge_range(0)
        assert moved > 0
        assert 0 not in md._splits
        assert len(md.sub_ranges(0)) == 1
        assert md._range_epoch[0] == epoch_split + 1
        assert md.merges_done == 1
        assert snapshot(md) == before

    def test_merge_unsplit_is_noop(self):
        md = build()
        fill_range(md)
        assert md.merge_range(0) == 0
        assert md.merges_done == 0


class TestReadSpread:
    def test_rereplicates_and_rotates(self):
        md = build(n_servers=4, replication=2)
        fill_range(md)
        before = snapshot(md)
        members0 = md.replica_servers(0)
        moved = md.set_read_spread(0)
        assert moved > 0  # the spare rebuilt the range via replay
        widened = md.replica_servers(0)
        assert len(widened) == len(members0) + 1
        assert set(members0) < set(widened)
        # Rotation: successive reads are answered by different members.
        answers = {md.read_server_of(0) for _ in range(len(widened))}
        assert len(answers) > 1
        assert snapshot(md) == before

    def test_takeover_refills_widened_set_to_its_own_size(self):
        # A read-spread range has more members than ``replication``; a
        # takeover refills it to that size rather than shrinking it.
        md = MetadataService(5, 100, replication=2, replica_stride=1)
        md.insert_many([rec(0, 50)])
        md.set_read_spread(0)
        assert md.replica_servers(0) == [0, 1, 2]
        md.fail_server(0)
        md.recover_server(0)
        assert md.replica_servers(0) == [1, 2, 3]
        found, _servers = md.lookup(1, 0, 50)
        assert found == [rec(0, 50)]

    def test_spread_on_split_range_enables_rotation_only(self):
        md = build()
        fill_range(md)
        md.split_range(0)
        assert md.set_read_spread(0) == 0  # already fanned out
        assert 0 in md._read_spread


class TestQuorumGates:
    def test_minority_side_cannot_split(self):
        md = build(n_servers=4, replication=3, quorum=True)
        fill_range(md)
        members = md.replica_servers(0)
        for server in members[1:]:
            md.set_unreachable(server)
        with pytest.raises(QuorumLostError):
            md.split_range(0)
        assert 0 not in md._splits  # refused whole: no partial layout
        for server in members[1:]:
            md.set_reachable(server)
        assert md.split_range(0) >= 0
        assert 0 in md._splits

    def test_minority_side_cannot_merge(self):
        md = build(n_servers=4, replication=2, quorum=True)
        fill_range(md)
        md.split_range(0)
        unreachable = [s for _start, m in md._splits[0] for s in m]
        for server in set(unreachable):
            md.set_unreachable(server)
        with pytest.raises(QuorumLostError):
            md.merge_range(0)
        assert 0 in md._splits


class TestPoolElasticity:
    def test_add_server_pins_existing_assignments(self):
        md = build()
        fill_range(md)
        members_before = md.replica_servers(0)
        before = snapshot(md)
        new_id = md.add_server()
        assert new_id == 4
        assert md.n_servers == 5
        assert new_id in md.pool_servers()
        # The modulus change must not re-route the data-bearing range.
        assert md.replica_servers(0) == members_before
        assert snapshot(md) == before

    def test_remove_server_migrates_and_retires(self):
        md = build()
        fill_range(md)
        before = snapshot(md)
        victim = md.replica_servers(0)[0]
        epoch0 = md._range_epoch.get(0, 0)
        moved = md.remove_server(victim)
        assert moved > 0
        assert victim in md.retired_servers
        assert victim not in md.pool_servers()
        assert victim not in md.replica_servers(0)
        assert md._range_epoch[0] == epoch0 + 1
        assert md.migrations_done == 1
        assert snapshot(md) == before
        # A retired server never comes back as a spare.
        md.split_range(0)
        assert victim not in {s for _start, m in md.sub_ranges(0)
                              for s in m}

    def test_remove_split_memberships_migrate_per_sub(self):
        md = build(n_servers=6, replication=2)
        fill_range(md)
        md.split_range(0)
        victim = md.sub_ranges(0)[0][1][0]
        before = snapshot(md)
        assert md.remove_server(victim) > 0
        assert victim not in {s for _start, m in md.sub_ranges(0)
                              for s in m}
        assert snapshot(md) == before

    def test_unreachable_server_cannot_be_drained(self):
        md = build()
        fill_range(md)
        md.set_unreachable(2)
        with pytest.raises(QuorumLostError):
            md.remove_server(2)
        assert 2 not in md.retired_servers

    def test_retire_unknown_server_rejected(self):
        md = build()
        with pytest.raises(ValueError):
            md.remove_server(9)


class TestOffModeAndHeat:
    def test_untouched_service_keeps_static_arithmetic(self):
        """No mitigation op -> routing stays the bare modulus math (the
        digest-identical claim for mitigation-off runs)."""
        md = build(n_servers=4, replication=2)
        fill_range(md)
        assert md._pool is None and not md._splits
        for range_index in range(6):
            assert md.replica_servers(range_index) == [
                range_index % 4, (range_index + 1) % 4]
            assert md.server_of(range_index * RANGE) == range_index % 4

    def test_heat_records_and_drains(self):
        md = build()
        md.heat_enabled = True
        fired = []
        md.on_activity = lambda: fired.append(True)
        fill_range(md, pieces=4)
        md.lookup(1, 0, RANGE)
        heat = md.take_heat()
        writes, reads = heat[0]
        assert writes >= 1 and reads >= 1
        assert fired  # the activity hook saw the traffic
        assert md.take_heat() == {}  # drained

    def test_heat_off_records_nothing(self):
        md = build()
        fill_range(md, pieces=4)
        md.lookup(1, 0, RANGE)
        assert md.take_heat() == {}


# -- simulation layer: the manager's full lifecycle -----------------------

SLOT = 512
SLOTS_PER_RANK = 4


def hot_sim(**overrides):
    kw = dict(metadata_range_size=float(64 * KiB),
              hotspot_enabled=True,
              range_split_threshold=4,
              range_merge_threshold=1,
              hotspot_interval=0.002,
              pool_max_servers=6)
    kw.update(overrides)
    sim = Simulation(MachineSpec.small_test(nodes=2))
    sim.install_univistor(UniviStorConfig.hardened(**kw))
    comm = sim.comm("hot", 4, procs_per_node=2)
    return sim, comm


def hot_waves(sim, comm, waves, path="/hot"):
    """Skewed overwrite waves: every rank hammers slots inside range 0."""
    n_slots = comm.size * SLOTS_PER_RANK
    stride = int(64 * KiB) // n_slots

    def app():
        fh = yield from sim.open(comm, path, "w", fstype="univistor")
        for wave in range(waves):
            yield from fh.write_at_all([
                IORequest(r, (r * SLOTS_PER_RANK + k) * stride, SLOT,
                          PatternPayload(wave * n_slots + r + k))
                for r in range(comm.size)
                for k in range(SLOTS_PER_RANK)])
        yield from fh.close()
        yield from fh.sync()

    sim.run_to_completion(app())


class TestManagerLifecycle:
    def test_split_grow_then_idle_merge_shrink(self):
        sim, comm = hot_sim()
        hot_waves(sim, comm, waves=30)
        system = sim.univistor
        counters = sim.telemetry.counters
        assert counters.get("meta-split", 0) >= 1
        assert counters.get("pool-grow", 0) >= 1
        assert system.hotspot.grown_servers  # grown while hot
        # Layout changes conservatively dropped the location caches.
        assert counters.get("cache-invalidate", 0) > 0
        # Drain: the workload is gone, so cold streaks mature and the
        # tick loop must quiesce (sim.run returning IS the assertion
        # that it does not tick forever).
        sim.run()
        assert counters.get("meta-merge", 0) >= 1
        assert counters.get("pool-shrink", 0) >= 1
        assert not system.hotspot.grown_servers
        assert not system.metadata._splits
        actions = [a for _t, a, _x in system.hotspot.actions]
        for expected in ("split", "grow", "merge", "shrink"):
            assert expected in actions

    def test_reads_stay_correct_across_mitigation(self):
        sim, comm = hot_sim()
        hot_waves(sim, comm, waves=30)
        sim.run()
        n_slots = comm.size * SLOTS_PER_RANK
        stride = int(64 * KiB) // n_slots
        last = 29 * n_slots  # final wave's seed base

        def app():
            fh = yield from sim.open(comm, "/hot", "r", fstype="univistor")
            slots = []  # read_at_all is one request per rank
            for k in range(SLOTS_PER_RANK):
                slots.append((yield from fh.read_at_all([
                    IORequest(r, (r * SLOTS_PER_RANK + k) * stride, SLOT)
                    for r in range(comm.size)])))
            yield from fh.close()
            return slots

        slots = sim.run_to_completion(app())
        for k, data in enumerate(slots):
            for r in range(comm.size):
                blob = b"".join(e.materialize() for e in data[r])
                want = PatternPayload(last + r + k).materialize(0, SLOT)
                assert blob == want, f"rank {r} slot {k} read wrong bytes"

    def test_activity_hook_revives_quiesced_loop(self):
        sim, comm = hot_sim()
        hot_waves(sim, comm, waves=30)
        sim.run()  # loop quiesced
        splits_before = sim.univistor.metadata.splits_done
        hot_waves(sim, comm, waves=30, path="/hot2")
        sim.run()
        assert sim.univistor.metadata.splits_done > splits_before

    def test_disabled_knob_installs_nothing(self):
        sim, comm = hot_sim(hotspot_enabled=False)
        hot_waves(sim, comm, waves=10)
        sim.run()
        system = sim.univistor
        assert system.hotspot is None
        assert not system.metadata.heat_enabled
        assert not system.metadata._splits
        assert "meta-split" not in sim.telemetry.counters
