"""The metadata service's location-cache mirror: mirror exactness and
every drop (overwrite, flush migration, delete, recovery takeover) —
docs/MODEL.md §9."""

import pytest

from repro import (
    IORequest,
    MachineSpec,
    PatternPayload,
    Simulation,
    UniviStorConfig,
)
from repro.core.config import StorageTier
from repro.core.location_cache import LocationCache
from repro.core.metadata import (MetadataRecord, MetadataService,
                                 pieces_by_range)
from repro.units import KiB

KB = 1024


def rec(offset, length, proc=0, va=None, fid=1):
    return MetadataRecord(fid=fid, offset=offset, length=length,
                          proc_id=proc,
                          va=float(offset) if va is None else float(va),
                          tier=StorageTier.DRAM, node_id=0)


def as_tuples(records):
    return [(r.offset, r.length, r.proc_id, r.va, r.tier, r.node_id)
            for r in records]


def store_lookup(md, fid, offset, length):
    """``md.lookup`` answered from the stores alone, as with the mirror
    off."""
    mirror, md.location_cache = md.location_cache, None
    try:
        return md.lookup(fid, offset, length)
    finally:
        md.location_cache = mirror


class TestMirrorExactness:
    """A tracked-since-birth cache answers lookups byte-identically to
    the authoritative store — including overwrites and holes."""

    def mirror_pair(self, range_size=64 * KB):
        md = MetadataService(n_servers=4, range_size=range_size,
                             replication=2)
        cache = LocationCache(range_size)
        cache.begin_file(1)
        return md, cache

    def both_insert(self, md, cache, records):
        md.insert_many(records)
        cache.insert_records(pieces_by_range(records, md.range_size))

    def test_lookup_equals_authoritative(self):
        md, cache = self.mirror_pair()
        self.both_insert(md, cache, [rec(0, 96 * KB, proc=0),
                                     rec(96 * KB, 64 * KB, proc=1,
                                         va=200 * KB)])
        for off, ln in [(0, 32 * KB), (90 * KB, 16 * KB),
                        (0, 160 * KB), (32 * KB, 3)]:
            auth, _servers = md.lookup(1, off, ln)
            assert as_tuples(cache.lookup(1, off, ln)) == as_tuples(auth)

    def test_overwrite_supersedes_in_both(self):
        md, cache = self.mirror_pair()
        self.both_insert(md, cache, [rec(0, 128 * KB, proc=0)])
        self.both_insert(md, cache, [rec(32 * KB, 32 * KB, proc=1,
                                         va=500 * KB)])
        auth, _ = md.lookup(1, 0, 128 * KB)
        got = cache.lookup(1, 0, 128 * KB)
        assert as_tuples(got) == as_tuples(auth)
        assert any(r.proc_id == 1 for r in got)

    def test_tracked_hole_is_authoritative_empty(self):
        md, cache = self.mirror_pair()
        self.both_insert(md, cache, [rec(0, 16 * KB)])
        assert cache.lookup(1, 1024 * KB, 16 * KB) == []

    def test_untracked_file_is_a_miss(self):
        _md, cache = self.mirror_pair()
        assert cache.lookup(7, 0, 16 * KB) is None

    def test_zero_length_lookup_counts_neither_hit_nor_miss(self):
        """A degenerate (length <= 0) request resolves nothing and
        avoids no store search, so it must not move the hit/miss
        telemetry — counting before validation inflated the hit rate."""
        md = MetadataService(n_servers=4, range_size=64 * KB,
                             replication=2, location_cache=True)
        events = []
        md.on_cache_event = lambda name, n: events.append(name)
        md.create_file(1)
        md.insert_many([rec(0, 16 * KB)])
        cache = md.location_cache
        assert cache.lookup(1, 0, 0) == []
        assert cache.lookup(1, 4 * KB, -1) == []
        assert cache.lookup(7, 0, 0) is None  # untracked stays a None
        assert md.lookup(1, 0, 0) == ([], set())
        assert md.overwritten(1, 4 * KB, -1) == []
        assert md.lookup(7, 0, 0) == ([], set())
        assert events == []
        # Real requests still count.
        assert md.lookup(1, 0, 4 * KB)[0]
        assert md.lookup(7, 0, 4 * KB)[0] == []
        assert events == ["cache-hit", "cache-miss"]

    def test_untracked_inserts_ignored_never_retracked(self):
        md, cache = self.mirror_pair()
        assert cache.invalidate_file(1)
        # Records the client "didn't see" while untracked must not
        # resurrect a partial mirror.
        self.both_insert(md, cache, [rec(0, 16 * KB)])
        assert not cache.tracks(1)
        assert cache.lookup(1, 0, 16 * KB) is None

    def test_begin_file_midlife_is_too_late(self):
        md, cache = self.mirror_pair()
        cache.invalidate_file(1)
        md.insert_many([rec(0, 16 * KB)])
        # Tracking restarts only via the fresh-file path; a bare
        # begin_file on a dropped fid would mirror from an empty store
        # again — which is exactly what the server does only when the
        # path is recreated (fid reborn with zero records).
        cache.begin_file(1)
        assert cache.record_count(1) == 0

    def test_clear_drops_everything(self):
        md, cache = self.mirror_pair()
        cache.begin_file(2)
        self.both_insert(md, cache, [rec(0, 16 * KB)])
        assert cache.clear() == 2
        assert cache.lookup(1, 0, 16 * KB) is None

    def test_range_boundary_split_mirrors_store(self):
        md, cache = self.mirror_pair(range_size=64 * KB)
        self.both_insert(md, cache, [rec(0, 256 * KB)])
        auth, _ = md.lookup(1, 0, 256 * KB)
        assert as_tuples(cache.lookup(1, 0, 256 * KB)) == as_tuples(auth)


# -- simulation-level coherence: the four invalidation hooks --------------

def setup(config=None, nodes=2):
    sim = Simulation(MachineSpec.small_test(nodes=nodes))
    sim.install_univistor(config or UniviStorConfig.dram_bb(
        flush_enabled=False))
    comm = sim.comm("app", 4, procs_per_node=2)
    return sim, comm


def write_blocks(sim, comm, path, block, sync=False):
    def app():
        fh = yield from sim.open(comm, path, "w", fstype="univistor")
        yield from fh.write_at_all([
            IORequest.contiguous_block(r, block, PatternPayload(r))
            for r in range(comm.size)])
        yield from fh.close()
        if sync:
            yield from fh.sync()

    sim.run_to_completion(app())


def read_all(sim, comm, path, block):
    def app():
        fh = yield from sim.open(comm, path, "r", fstype="univistor")
        data = yield from fh.read_at_all(
            [IORequest(r, r * block, block) for r in range(comm.size)])
        yield from fh.close()
        return data

    return sim.run_to_completion(app())


def assert_payloads(data, comm, block):
    for r in range(comm.size):
        blob = b"".join(e.materialize() for e in data[r])
        assert blob == PatternPayload(r).materialize(0, block)


class TestSimCoherence:
    def test_write_populates_cache_and_reads_hit(self):
        sim, comm = setup()
        block = int(64 * KiB)
        write_blocks(sim, comm, "/f", block)
        system = sim.univistor
        fid = system.session("/f").fid
        cache = system.metadata.location_cache
        assert cache.tracks(fid)
        # The mirror holds exactly what the authoritative store holds.
        auth, _ = store_lookup(system.metadata, fid, 0, comm.size * block)
        assert as_tuples(cache.lookup(fid, 0, comm.size * block)) \
            == as_tuples(auth)
        data = read_all(sim, comm, "/f", block)
        assert_payloads(data, comm, block)
        assert sim.telemetry.counters.get("cache-hit", 0) >= comm.size

    def test_overwrite_stays_coherent(self):
        sim, comm = setup()
        block = int(64 * KiB)
        write_blocks(sim, comm, "/f", block)
        # Same region rewritten: the overwrite check reads the mirror,
        # the write-through supersedes, and reads still see the fresh
        # bytes (same payloads here; coherence is checked against the
        # authoritative store directly).
        write_blocks(sim, comm, "/f", block)
        system = sim.univistor
        fid = system.session("/f").fid
        auth, _ = store_lookup(system.metadata, fid, 0, comm.size * block)
        assert as_tuples(system.metadata.location_cache.lookup(
            fid, 0, comm.size * block)) == as_tuples(auth)
        assert sim.telemetry.counters.get("cache-hit", 0) > 0
        assert sim.telemetry.counters.get("cache-invalidate", 0) > 0
        assert_payloads(read_all(sim, comm, "/f", block), comm, block)

    def test_flush_migration_invalidates(self):
        sim, comm = setup(UniviStorConfig.dram_bb())  # flush enabled
        block = int(64 * KiB)
        write_blocks(sim, comm, "/f", block, sync=True)
        system = sim.univistor
        fid = system.session("/f").fid
        # Flush moved the bytes down a layer: the cached VAs' layer
        # association is stale, so the file must be dropped...
        assert not system.metadata.location_cache.tracks(fid)
        assert sim.telemetry.counters.get("cache-invalidate", 0) > 0
        # ...and post-flush reads (authoritative path) stay correct.
        assert_payloads(read_all(sim, comm, "/f", block), comm, block)

    def test_delete_invalidates(self):
        sim, comm = setup()
        block = int(64 * KiB)
        write_blocks(sim, comm, "/f", block)
        system = sim.univistor
        fid = system.session("/f").fid
        system.delete_file("/f")
        assert not system.metadata.location_cache.tracks(fid)
        assert sim.telemetry.counters.get("cache-invalidate", 0) > 0

    def test_takeover_clears_cache(self):
        sim, comm = setup(UniviStorConfig.hardened(
            flush_enabled=False, metadata_range_size=float(64 * KiB)))
        block = int(64 * KiB)
        write_blocks(sim, comm, "/f", block)
        system = sim.univistor
        fid = system.session("/f").fid
        assert system.metadata.location_cache.tracks(fid)
        system.metadata.fail_server(0)
        system.recovery.handle_server_dead(0)
        assert system.recovery.takeovers, "no range takeover happened"
        # Replica sets were rewritten under the client: whole cache goes.
        assert not system.metadata.location_cache.tracks(fid)
        assert system.metadata.location_cache.lookup(fid, 0, block) is None
        # Reads after the takeover come from the authoritative stores and
        # still reassemble the right bytes.
        assert_payloads(read_all(sim, comm, "/f", block), comm, block)

    def test_cache_off_knob(self):
        sim, comm = setup(UniviStorConfig.dram_bb(
            flush_enabled=False).without("location_cache"))
        block = int(64 * KiB)
        write_blocks(sim, comm, "/f", block)
        assert sim.univistor.metadata.location_cache is None
        assert "cache-hit" not in sim.telemetry.counters
        assert_payloads(read_all(sim, comm, "/f", block), comm, block)

    def test_unwritten_range_still_raises_with_cache(self):
        sim, comm = setup()
        block = int(64 * KiB)
        write_blocks(sim, comm, "/f", block)
        system = sim.univistor
        session = system.session("/f")

        def app():
            out = yield from system.read_service.read_collective(
                session, comm, [IORequest(0, 100 * block, block)],
                comm.name)
            return out

        with pytest.raises(ValueError, match="unwritten"):
            sim.run_to_completion(app())
