"""Metadata fast path: batched inserts, coalescing, in-store compaction
and journal checkpoint + truncation (docs/MODEL.md §9)."""

import dataclasses
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import location_cache as location_cache_module
from repro.core import metadata as metadata_module
from repro.core.client import UniviStorDriver
from repro.core.config import StorageTier
from repro.core.errors import DataLossError
from repro.core.location_cache import LocationCache
from repro.core.metadata import (MetadataRecord, MetadataService,
                                 MetadataUnavailableError, QuorumLostError,
                                 apply_insert, coalesce_records,
                                 pieces_by_range, split_record)

KB = 1024


def rec(offset, length, proc=0, va=None, fid=1, tier=StorageTier.DRAM,
        node=0):
    return MetadataRecord(fid=fid, offset=offset, length=length,
                          proc_id=proc,
                          va=float(offset) if va is None else float(va),
                          tier=tier, node_id=node)


class TestCoalesceRecords:
    def test_contiguous_run_collapses(self):
        records = [rec(i * 4 * KB, 4 * KB) for i in range(8)]
        out, merges = coalesce_records(records)
        assert merges == 7
        assert len(out) == 1
        assert out[0].offset == 0 and out[0].length == 32 * KB
        assert out[0].va == 0.0

    def test_different_procs_never_merge(self):
        out, merges = coalesce_records([rec(0, 4 * KB, proc=0),
                                        rec(4 * KB, 4 * KB, proc=1)])
        assert merges == 0 and len(out) == 2

    def test_va_gap_never_merges(self):
        # Offset-contiguous but the virtual addresses jump: merging would
        # resolve the second half to the wrong log bytes.
        out, merges = coalesce_records([rec(0, 4 * KB, va=0),
                                        rec(4 * KB, 4 * KB, va=64 * KB)])
        assert merges == 0 and len(out) == 2

    def test_tier_change_never_merges(self):
        # Contiguous VAs can straddle a layer boundary when a log fills
        # exactly to capacity — the tier guard must refuse the merge.
        out, merges = coalesce_records([
            rec(0, 4 * KB, tier=StorageTier.DRAM),
            rec(4 * KB, 4 * KB, tier=StorageTier.SHARED_BB, node=None)])
        assert merges == 0 and len(out) == 2

    def test_only_adjacent_pairs_merge(self):
        # An intervening record from another proc breaks the run even if
        # the outer two are contiguous with each other's far ends.
        records = [rec(0, 4 * KB, proc=0), rec(8 * KB, 4 * KB, proc=1),
                   rec(4 * KB, 4 * KB, proc=0)]
        out, merges = coalesce_records(records)
        assert merges == 0 and len(out) == 3


class TestInsertCompaction:
    def test_merge_on_insert_bounds_store(self):
        md = MetadataService(n_servers=2, range_size=1024 * KB)
        for i in range(64):
            md.insert_many([rec(i * 4 * KB, 4 * KB)])
        # 256 KB of contiguous same-writer data in one range: one record.
        assert md.record_count == 1
        found, _ = md.lookup(1, 0, 256 * KB)
        assert len(found) == 1
        assert found[0].offset == 0 and found[0].length == 256 * KB

    def test_merge_never_crosses_range_boundary(self):
        md = MetadataService(n_servers=1, range_size=64 * KB)
        md.insert_many([rec(0, 128 * KB)])
        # One server owns both ranges: mergeable but range-partitioned.
        assert md.record_count == 2
        for piece in md.records_of(1):
            first = int(piece.offset // md.range_size)
            last = int((piece.end - 1) // md.range_size)
            assert first == last

    def test_compacted_lookup_matches_uncompacted(self):
        # The oracle is the uncompacted byte map: every byte's latest
        # writer and VA, independent of how the stores merge records.
        md = MetadataService(n_servers=4, range_size=64 * KB)
        writes = [(0, 16 * KB, 0), (16 * KB, 16 * KB, 0),
                  (32 * KB, 32 * KB, 1), (8 * KB, 16 * KB, 1),
                  (120 * KB, 16 * KB, 0), (64 * KB, 56 * KB, 0)]
        oracle = {}
        for off, ln, proc in writes:
            md.insert_many([rec(off, ln, proc=proc)])
            oracle.update(self._bytemap([rec(off, ln, proc=proc)]))
        for off in range(0, 136 * KB, 8 * KB):
            found, _ = md.lookup(1, off, 16 * KB)
            # Same bytes from the same sources, possibly fewer records.
            assert self._bytemap(found) == {
                b: v for b, v in oracle.items() if off <= b < off + 16 * KB}

    @staticmethod
    def _bytemap(records):
        out = {}
        for r in records:
            for i in range(0, int(r.length), KB):
                out[int(r.offset) + i] = (r.proc_id, r.va + i, r.tier)
        return out


class TestInsertManyBatching:
    def test_touched_set_deduped_and_journal_batched(self):
        md = MetadataService(n_servers=2, range_size=64 * KB,
                             replication=2)
        records = [rec(i * 64 * KB, 64 * KB) for i in range(4)]
        touched = md.insert_many(records)
        # 4 ranges x full replica set over 2 servers -> both, once each.
        assert touched == {0, 1}
        assert sorted(md._journal) == [0, 1, 2, 3]
        for range_index in range(4):
            assert len(md._journal[range_index]) == 1

    def test_coalesce_before_journal_append(self):
        md = MetadataService(n_servers=2, range_size=1024 * KB)
        records, merges = coalesce_records(
            [rec(i * 4 * KB, 4 * KB) for i in range(8)])
        assert merges == 7
        md.insert_many(records)
        assert len(md._journal[0]) == 1  # one journaled piece, not 8

    def test_batched_equals_sequential(self):
        a = MetadataService(n_servers=4, range_size=64 * KB, replication=2)
        b = MetadataService(n_servers=4, range_size=64 * KB, replication=2)
        records = [rec(0, 96 * KB, proc=0), rec(96 * KB, 32 * KB, proc=1),
                   rec(16 * KB, 48 * KB, proc=1)]
        touched_a = a.insert_many(records)
        touched_b = set()
        for r in records:
            touched_b |= b.insert_many([r])
        assert touched_a == touched_b
        assert a.records_of(1) == b.records_of(1)
        assert a.server_record_counts() == b.server_record_counts()

    def test_dead_range_rejects_batch_like_sequential(self):
        md = MetadataService(n_servers=2, range_size=64 * KB)
        md.fail_server(1)  # range 1 (odd ranges) unavailable
        with pytest.raises(MetadataUnavailableError) as info:
            md.insert_many([rec(0, 128 * KB)])
        # The error names the refused piece: range 1's half.
        err = info.value
        assert (err.fid, err.offset, err.length) == (1, 64 * KB, 64 * KB)
        # The piece in the range before the dead one stuck.
        found, _ = md.lookup(1, 0, 64 * KB)
        assert sum(r.length for r in found) == 64 * KB
        assert 1 not in md._journal

    def test_refusal_follows_first_touch_order(self):
        # Ranges go in the order the batch first touches them, not in
        # offset order: range 2 comes first here, so it sticks, and the
        # later piece in range 0 is left out with the dead range 1.
        md = MetadataService(n_servers=2, range_size=64 * KB)
        md.fail_server(1)
        with pytest.raises(MetadataUnavailableError) as info:
            md.insert_many([rec(128 * KB, 16 * KB),
                            rec(64 * KB, 16 * KB, proc=1),
                            rec(0, 16 * KB)])
        assert info.value.offset == 64 * KB
        assert sorted(md._journal) == [2]
        assert md.lookup(1, 0, 16 * KB)[0] == []


class TestJournalCheckpoint:
    def make(self, **kw):
        kw.setdefault("n_servers", 2)
        kw.setdefault("range_size", 64 * KB)
        kw.setdefault("replication", 2)
        kw.setdefault("checkpoint_threshold", 4)
        return MetadataService(**kw)

    def test_truncation_fires_and_bounds_journal(self):
        md = self.make()
        for i in range(32):
            md.insert_many([rec(i * 2 * KB, 2 * KB, va=i * 2 * KB)])
        assert md.checkpoints_taken > 0
        assert md.journal_entries_truncated > 0
        for range_index, entries in md._journal.items():
            # Contiguous same-writer stream: the checkpoint compacts to
            # one record, so replay cost stays bounded at threshold-ish
            # instead of growing with the 32-insert history.
            assert len(entries) < 4  # live suffix below the threshold
            assert len(md.journal_records(range_index)) <= 4 + len(entries)

    def test_journal_keys_survive_truncation(self):
        # Range ownership is discovered by iterating journal keys; a
        # truncated range must keep its (emptied) key.
        md = self.make()
        for i in range(8):
            md.insert_many([rec(i * 2 * KB, 2 * KB, proc=i % 2,
                                va=i * 2 * KB)])
        assert md.checkpoints_taken > 0
        assert 0 in md._journal

    def test_no_truncation_with_dead_replica(self):
        md = self.make()
        md.insert_many([rec(0, 2 * KB)])
        md.fail_server(1)
        before = md.checkpoints_taken
        for i in range(1, 8):
            md.insert_many([rec(i * 2 * KB, 2 * KB, va=i * 2 * KB)])
        # Server 1 never acked: the range's journal must stay complete.
        assert md.checkpoints_taken == before
        assert len(md._journal[0]) == 8

    def test_replay_after_truncation_rebuilds_range(self):
        md = self.make(n_servers=4)
        for i in range(16):
            md.insert_many([rec(i * 2 * KB, 2 * KB, proc=i % 2,
                                va=i * 2 * KB)])
        assert md.checkpoints_taken > 0
        expect = md.records_of(1)
        expect_map = [(r.offset, r.length, r.proc_id, r.va) for r in expect]
        md.fail_server(0)
        md.recover_server(0)
        got = [(r.offset, r.length, r.proc_id, r.va)
               for r in md.records_of(1)]
        assert got == expect_map
        # Every range readable again.
        found, _ = md.lookup(1, 0, 32 * KB)
        assert sum(r.length for r in found) == 32 * KB

    def test_replay_counts_shrink(self):
        # The point of the ROADMAP item: takeover replay cost stops
        # growing with session lifetime.
        bounded = self.make()
        unbounded = self.make(checkpoint_threshold=0)
        for i in range(64):
            r = rec(i * KB, KB, va=i * KB)
            bounded.insert_many([r])
            unbounded.insert_many([r])
        assert (len(bounded.journal_records(0))
                < len(unbounded.journal_records(0)))

    def test_delete_file_scrubs_checkpoints(self):
        md = self.make()
        for i in range(8):
            md.insert_many([rec(i * 2 * KB, 2 * KB, va=i * 2 * KB)])
        assert md.checkpoints_taken > 0
        md.delete_file(1)
        assert md.record_count == 0
        for range_index in list(md._journal) + list(md._checkpoints):
            assert all(p.fid != 1 for p in md.journal_records(range_index))


_write = st.tuples(st.integers(min_value=0, max_value=150),
                   st.integers(min_value=1, max_value=40),
                   st.integers(min_value=0, max_value=3))


class TestInsertManyContract:
    """The one ``insert_many`` contract against a per-byte oracle: on
    success the lookup bytes are the oracle's; on a raise exactly the
    ranges before the refusing one (in first-touch order) are applied
    and journaled, and the refusing range and every later one are
    untouched in the stores and the journal."""

    @staticmethod
    def _record(offset, length, proc):
        # VA contiguous with the offset per writer, so same-writer runs
        # merge in the stores.
        return MetadataRecord(1, offset, length, proc,
                              float(offset + 1000 * proc),
                              StorageTier.DRAM, 0)

    @staticmethod
    def _pieces(md, record):
        """The record cut at range and sub-range boundaries, computed
        from the layout alone: ``[(range_index, piece)]``."""
        size = int(md.range_size)
        cuts = set()
        r = record.offset // size
        while r * size < record.end:
            cuts.add(r * size)
            cuts.update(start for start, _m in md.sub_ranges(r))
            r += 1
        cuts = sorted(c for c in cuts if record.offset < c < record.end)
        bounds = [record.offset] + cuts + [record.end]
        return [(lo // size, record.slice(lo, hi))
                for lo, hi in zip(bounds, bounds[1:])]

    @staticmethod
    def _refuses(md, range_index, offset):
        """Why the sub-range at ``offset`` cannot ack, or None."""
        members = [m for start, m in md.sub_ranges(range_index)
                   if start <= offset][-1]
        ackers = [s for s in members if s not in md.failed_servers
                  and s not in md.unreachable_servers]
        if all(s in md.failed_servers for s in members):
            return MetadataUnavailableError
        if not ackers or (md.quorum
                          and len(ackers) < len(members) // 2 + 1):
            return QuorumLostError
        return None

    @staticmethod
    def _bytes(records):
        out = {}
        for r in records:
            for b in range(r.offset, r.end):
                out[b] = (r.proc_id, r.va + (b - r.offset))
        return out

    @staticmethod
    def _range_state(md, range_index):
        """Every server's records inside the range, plus its journal."""
        size = md.range_size
        held = [[r for r in store.get(1, ([], []))[1]
                 if int(r.offset // size) == range_index]
                for store in md._stores]
        return held, list(md._journal.get(range_index, ()))

    @given(st.integers(min_value=2, max_value=6),
           st.integers(min_value=1, max_value=3),
           st.booleans(),
           st.sampled_from([8, 16, 32]),
           st.lists(st.integers(min_value=0, max_value=7), max_size=3),
           st.lists(_write, max_size=5),
           st.lists(_write, min_size=1, max_size=12),
           st.sets(st.integers(min_value=0, max_value=5), max_size=3),
           st.sets(st.integers(min_value=0, max_value=5), max_size=2))
    @settings(max_examples=300, deadline=None)
    def test_range_ordered_accept_or_raise(self, n_servers, replication,
                                           quorum, range_size, splits,
                                           before, batch, failed,
                                           unreachable):
        md = MetadataService(n_servers, range_size,
                             replication=replication, quorum=quorum)
        for r in splits:
            md.split_range(r)
        prior = [self._record(*w) for w in before]
        md.insert_many(prior)
        for s in sorted(failed):
            if s < n_servers:
                md.fail_server(s)
        for s in sorted(unreachable):
            if s < n_servers:
                md.set_unreachable(s)

        records = [self._record(*w) for w in batch]
        per_range = {}
        for record in records:
            for r, piece in self._pieces(md, record):
                per_range.setdefault(r, []).append(piece)
        order = list(per_range)
        refused = None
        for i, r in enumerate(order):
            for piece in per_range[r]:
                why = self._refuses(md, r, piece.offset)
                if why is not None:
                    refused = (i, piece, why)
                    break
            if refused:
                break
        applied = order if refused is None else order[:refused[0]]
        states = {r: self._range_state(md, r) for r in order}

        if refused is None:
            md.insert_many(records)
        else:
            _i, piece, why = refused
            with pytest.raises(why) as info:
                md.insert_many(records)
            err = info.value
            assert (err.fid, err.offset, err.length) == (
                piece.fid, piece.offset, piece.length)
            for r in order[refused[0]:]:
                assert self._range_state(md, r) == states[r]

        oracle = self._bytes(prior)
        for r in applied:
            oracle.update(self._bytes(per_range[r]))
            _held, journal = states[r]
            assert md._journal[r] == journal + per_range[r]
        for r in applied:
            # Read back every sub-range the batch wrote to (its others
            # may have lost every member and be unreadable).
            starts = [start for start, _m in md.sub_ranges(r)]
            ends = starts[1:] + [(r + 1) * range_size]
            for lo, hi in zip(starts, ends):
                if not any(lo <= p.offset < hi for p in per_range[r]):
                    continue
                found, _ = md.lookup(1, lo, hi - lo)
                assert self._bytes(found) == {
                    b: v for b, v in oracle.items() if lo <= b < hi}

    # -- in-order (tail-append) fast path ------------------------------
    @staticmethod
    def _general_apply_insert(store, pieces, range_size):
        """``apply_insert`` with its tail-append fast path bypassed:
        every piece of the range goes through the splice."""
        for piece in pieces:
            starts, recs = store.setdefault(piece.fid, ([], []))
            metadata_module._splice_insert(starts, recs, piece, range_size)

    @staticmethod
    def _in_order(steps, cursor):
        """Records laid end to end from ``cursor`` (optionally past a
        gap), each writer keeping a contiguous VA stream so neighbours
        can merge."""
        records, vas = [], {}
        for gap, length, proc, va_jump in steps:
            cursor += gap
            va = vas.get(proc, 1000.0 * proc) + va_jump
            records.append(MetadataRecord(1, cursor, length, proc, va,
                                          StorageTier.DRAM, 0))
            vas[proc] = va + length
            cursor += length
        return records

    _step = st.tuples(st.sampled_from([0, 0, 0, 3]),
                      st.integers(min_value=1, max_value=40),
                      st.integers(min_value=0, max_value=2),
                      st.sampled_from([0, 0, 5]))

    @given(st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=3),
           st.sampled_from([8, 16, 32]),
           st.lists(st.integers(min_value=0, max_value=7), max_size=3),
           st.lists(_write, max_size=4),
           st.lists(st.lists(_step, min_size=1, max_size=8), min_size=1,
                    max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_in_order_batches_match_general_insert(self, n_servers,
                                                   replication, range_size,
                                                   splits, before, batches):
        """In-order ``insert_many`` batches (the tail-append fast path)
        leave every authoritative store and the location cache identical
        to the general bisect-and-splice path, seam merges included."""
        def build(general):
            md = MetadataService(n_servers, range_size,
                                 replication=min(replication, n_servers))
            for r in splits:
                md.split_range(r)
            cache = LocationCache(range_size)
            cache.begin_file(1)
            patches = ()
            if general:
                patches = (
                    mock.patch.object(metadata_module, "apply_insert",
                                      self._general_apply_insert),
                    mock.patch.object(location_cache_module,
                                      "apply_insert",
                                      self._general_apply_insert))
            for patch in patches:
                patch.start()
            try:
                prior = [self._record(*w) for w in before]
                md.insert_many(prior)
                cache.insert_records(pieces_by_range(prior, range_size))
                # Each batch continues past everything stored so far.
                cursor = max([r.end for r in prior], default=0)
                for steps in batches:
                    records = self._in_order(steps, cursor)
                    md.insert_many(records)
                    cache.insert_records(
                        pieces_by_range(records, range_size))
                    cursor = records[-1].end
            finally:
                for patch in patches:
                    patch.stop()
            return md._stores, cache.files

        assert build(general=False) == build(general=True)

    def test_split_record_keeps_an_in_range_record(self):
        record = MetadataRecord(1, 16, 8, 0, 16.0, StorageTier.DRAM, 0)
        assert split_record(record, 32)[0] is record
        assert [(p.offset, p.length) for p in split_record(
            MetadataRecord(1, 16, 40, 0, 16.0, StorageTier.DRAM, 0),
            32)] == [(16, 16), (32, 24)]


class TestCutOnce:
    """A shipped collective cuts each record at range boundaries once
    (:func:`pieces_by_range`, inside ``insert_many``) and hands that
    grouping to both the stores and the mirror (docs/MODEL.md §9)."""

    _pending = st.lists(st.tuples(st.integers(min_value=0, max_value=120),
                                  st.integers(min_value=1, max_value=50),
                                  st.integers(min_value=0, max_value=2),
                                  st.sampled_from([1, 1, 1, 2])),
                        min_size=1, max_size=10)

    @staticmethod
    def _record(offset, length, proc, fid):
        return MetadataRecord(fid, offset, length, proc,
                              float(offset + 1000 * proc),
                              StorageTier.DRAM, 0)

    @staticmethod
    def _service(n_servers, range_size, mirror, replication=1, splits=()):
        """A service with ``splits`` applied whose file 1, created after
        them (a split drops the mirror), is tracked: by the service's own
        mirror, or by a stand-alone cache the reference fills."""
        md = MetadataService(n_servers, range_size, replication=replication,
                             location_cache=mirror)
        for r in splits:
            md.split_range(r)
        md.create_file(1)
        cache = md.location_cache
        if cache is None:
            cache = LocationCache(range_size)
            cache.begin_file(1)
        return md, cache

    @staticmethod
    def _ship(md, cache, pending):
        """The client's real ship step, on a stub driver; the service
        writes its own mirror through."""
        assert cache is md.location_cache
        driver = SimpleNamespace(system=SimpleNamespace(metadata=md),
                                 telemetry=mock.Mock())
        UniviStorDriver._ship_pending(driver, None, pending)

    @staticmethod
    def _per_record(md, cache, pending):
        """Reference: ``insert_many(records)`` on a service without a
        mirror, plus a cache insert that cuts every record again."""
        assert md.location_cache is None
        records, _merges = coalesce_records(pending)
        md.insert_many(records)
        for record in records:
            if cache.tracks(record.fid):
                apply_insert(cache.files,
                             split_record(record, cache.range_size),
                             cache.range_size)

    @given(st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=3),
           st.sampled_from([8, 16, 32]),
           st.lists(st.integers(min_value=0, max_value=7), max_size=3),
           st.lists(_pending, min_size=1, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_shipped_state_equals_per_record_path(self, n_servers,
                                                  replication, range_size,
                                                  splits, batches):
        """Records crossing ranges, split (hotspot) ranges and an
        untracked fid (2): every store, every journal and the cache
        hold the same records as the per-record path."""
        def build(ship):
            md, cache = self._service(n_servers, range_size,
                                      ship == self._ship,
                                      min(replication, n_servers), splits)
            for batch in batches:
                ship(md, cache, [self._record(*w) for w in batch])
            return md._stores, md._journal, cache.files

        assert build(self._ship) == build(self._per_record)

    @staticmethod
    def _builds_per_cut(ship, records, range_size):
        """Run ``ship`` with the module's derived-record constructor
        spied on; for every piece :func:`split_record` cuts from
        ``records`` (records inside one range are kept, not built),
        return how many equal records the ship built."""
        built = []
        derived = metadata_module._derived

        def spy(*fields):
            record = derived(*fields)
            built.append(record)
            return record

        with mock.patch.object(metadata_module, "_derived", spy):
            ship()
        cuts = [piece for record in records
                for piece in split_record(record, range_size)
                if piece is not record]
        assert cuts
        return [sum(b == piece for b in built) for piece in cuts]

    def test_each_shipped_record_is_cut_once(self):
        """Every piece of a record cut at range boundaries is built once,
        for the stores and the mirror together (a sub-range cut of a
        split range builds other, narrower pieces)."""
        md, cache = self._service(4, 16, True, replication=2, splits=[1])
        pending = [self._record(0, 40, 0, 1), self._record(40, 9, 1, 1),
                   self._record(49, 30, 1, 1), self._record(100, 20, 0, 2)]
        records, _merges = coalesce_records(pending)
        assert len(records) == 3
        builds = self._builds_per_cut(
            lambda: self._ship(md, cache, pending), records, 16)
        assert builds == [1] * len(builds)

    def test_collective_cuts_each_record_once(self):
        """A whole collective through ``UniviStorDriver``: each
        range-local piece of each record ``insert_many`` receives is
        built once, not once for the stores and again for the cache."""
        from repro import (IORequest, MachineSpec, PatternPayload,
                           Simulation, UniviStorConfig)
        sim = Simulation(MachineSpec.small_test(nodes=2))
        sim.install_univistor(UniviStorConfig.dram_only(
            metadata_range_size=int(16 * KB)))
        comm = sim.comm("app", 4, procs_per_node=2)
        assert sim.univistor.metadata.location_cache is not None
        batches = []
        shipped = []
        insert_many = MetadataService.insert_many

        def spy(md, records):
            batches.append(len(records))
            shipped.extend(records)
            return insert_many(md, records)

        def app():
            fh = yield from sim.open(comm, "/f", "w", fstype="univistor")
            yield from fh.write_at_all([
                IORequest(r, r * 40 * KB, 40 * KB, PatternPayload(r))
                for r in range(4)])

        def run():
            with mock.patch.object(MetadataService, "insert_many", spy):
                sim.run_to_completion(app())

        # ``shipped`` fills during the run; the cuts are taken after it.
        builds = self._builds_per_cut(run, shipped, int(16 * KB))
        assert batches == [4]
        assert builds == [1] * len(builds)


def _records_of_by_set_dedup(md, fid):
    """``records_of`` as a dedup of every eligible copy: every record of
    every live, reachable server outside its fenced ranges, hashed into
    one set.  Sorted by ``(offset, proc_id)`` as before, with ties broken
    by length and VA: they arise in a split range, where a member holding
    two adjacent sub-ranges merges records across their boundary, and
    were otherwise left in set iteration (hash) order."""
    seen = set()
    for server, store in enumerate(md._stores):
        if server in md.failed_servers or server in md.unreachable_servers:
            continue
        entry = store.get(fid)
        if not entry:
            continue
        fenced = {r for r, members in md._stale.items() if server in members}
        seen.update(r for r in entry[1]
                    if int(r.offset // md.range_size) not in fenced)
    return sorted(seen, key=lambda r: (r.offset, r.proc_id, r.length, r.va))


class TestRecordsOfOneCopy:
    """``records_of`` reads each unsplit range from one eligible copy and
    still returns what deduplicating every eligible copy returns."""

    RANGE = 16
    _server = st.integers(min_value=0, max_value=4)
    _batch = st.lists(st.tuples(st.integers(min_value=0, max_value=63),
                                st.integers(min_value=1, max_value=24),
                                st.integers(min_value=0, max_value=2),
                                st.sampled_from([1, 1, 2])),
                      min_size=1, max_size=5)
    _ops = st.lists(st.one_of(
        st.tuples(st.just("insert"), _batch),
        st.tuples(st.sampled_from(["fail", "cut", "heal", "recover"]),
                  _server),
        st.tuples(st.sampled_from(["split", "merge"]),
                  st.integers(min_value=0, max_value=3))),
        min_size=1, max_size=14)

    @given(st.integers(min_value=2, max_value=5),
           st.integers(min_value=1, max_value=3), st.booleans(),
           st.integers(min_value=0, max_value=2), _ops)
    @settings(max_examples=300, deadline=None)
    def test_equals_set_dedup(self, n_servers, replication, quorum,
                              threshold, ops):
        """Replication 1-3, failed and unreachable servers, fences from
        lagging quorum writes and takeovers, and split ranges."""
        md = MetadataService(n_servers, self.RANGE, replication=replication,
                             checkpoint_threshold=threshold, quorum=quorum)
        for op, arg in ops:
            try:
                if op == "insert":
                    md.insert_many([rec(offset, length, proc=proc, fid=fid)
                                    for offset, length, proc, fid in arg])
                elif op == "fail":
                    md.fail_server(arg % n_servers)
                elif op == "cut":
                    md.set_unreachable(arg % n_servers)
                elif op == "heal":
                    md.set_reachable(arg % n_servers)
                elif op == "recover":
                    md.recover_server(arg % n_servers)
                elif op == "split":
                    md.split_range(arg)
                else:
                    md.merge_range(arg)
            except DataLossError:
                pass
            for fid in (1, 2):
                assert md.records_of(fid) == _records_of_by_set_dedup(md,
                                                                      fid)

    def test_replicas_are_not_hashed(self):
        md = MetadataService(4, self.RANGE, replication=3)
        md.insert_many([rec(i * 8, 8, proc=i % 2) for i in range(8)])
        with mock.patch.object(MetadataRecord, "__hash__",
                               side_effect=AssertionError("hashed")):
            records = md.records_of(1)
        assert [r.offset for r in records] == [i * 8 for i in range(8)]

    @pytest.mark.xfail(strict=True, reason=(
        "records_of on a split range unions copies that compacted "
        "differently: a member holding two adjacent sub-ranges merges "
        "across their boundary while a member holding one keeps the "
        "piece, so the union overlaps"))
    def test_split_range_records_do_not_overlap(self):
        md = MetadataService(4, self.RANGE, replication=2)
        md.fail_server(0)
        md.split_range(1)
        md.insert_many([rec(0, 1), rec(16, 16)])
        records = md.records_of(1)
        assert all(a.end <= b.offset for a, b in zip(records, records[1:]))


def _per_piece_insert(md, server, range_index, pieces):
    """``MetadataService._insert_pieces`` one piece at a time: the fence
    check and the ``apply_insert`` call run once per piece."""
    for piece in pieces:
        index = int(piece.offset // md.range_size)
        if md._stale and server in md._stale.get(index, ()):
            md.fence_rejections += 1
            if md.on_fence_reject is not None:
                md.on_fence_reject(index, server)
            continue
        apply_insert(md._stores[server], [piece], md.range_size)


def _per_piece_admits(md, server, range_index, pieces):
    """``MetadataService._admits`` that applies the pieces at once, one
    at a time (:func:`_per_piece_insert`), and leaves nothing for
    ``insert_many``'s one call per acker after its pass."""
    _per_piece_insert(md, server, range_index, pieces)
    return False


class TestOneApplyPerRange:
    """One :func:`apply_insert` call takes a range's pieces (and
    ``insert_many`` gives each acker a batch's pieces in one call), and
    the store ends where per-piece application ends (docs/MODEL.md §9)."""

    RANGE = 16
    # (offset, length, proc, fid): unsorted, overlapping, two fids, and
    # per-writer contiguous VAs so neighbours merge at the seams.
    _writes = st.lists(st.tuples(st.integers(min_value=0, max_value=47),
                                 st.integers(min_value=1, max_value=20),
                                 st.integers(min_value=0, max_value=2),
                                 st.sampled_from([1, 1, 2])),
                       max_size=10)

    @staticmethod
    def _records(writes):
        return [rec(offset, length, proc=proc, fid=fid)
                for offset, length, proc, fid in writes]

    @given(_writes, st.lists(_writes, min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_range_call_equals_per_piece(self, before, batches):
        """Each batch, cut and grouped per range, goes in one call per
        range; the reference applies every piece alone, once through
        ``apply_insert`` and once through the general splice."""
        one_call, per_piece, spliced = {}, {}, {}
        prior = [piece for record in self._records(before)
                 for piece in split_record(record, self.RANGE)]
        for store in (one_call, per_piece, spliced):
            apply_insert(store, prior, self.RANGE)
        for batch in batches:
            by_range = pieces_by_range(self._records(batch), self.RANGE)
            for pieces in by_range.values():
                apply_insert(one_call, pieces, self.RANGE)
                for piece in pieces:
                    apply_insert(per_piece, [piece], self.RANGE)
                    starts, recs = spliced.setdefault(piece.fid, ([], []))
                    metadata_module._splice_insert(starts, recs, piece,
                                                   self.RANGE)
        assert one_call == per_piece == spliced
        for starts, recs in one_call.values():
            assert starts == [r.offset for r in recs]

    _server = st.integers(min_value=0, max_value=4)
    _ops = st.lists(st.one_of(
        st.tuples(st.just("insert"), _writes),
        st.tuples(st.sampled_from(["fail", "cut", "heal", "recover",
                                   "repair"]), _server),
        st.tuples(st.just("fence"), st.tuples(
            st.integers(min_value=0, max_value=3), _server)),
        st.tuples(st.sampled_from(["split", "merge"]),
                  st.integers(min_value=0, max_value=3))),
        min_size=1, max_size=14)

    @given(st.integers(min_value=2, max_value=5),
           st.integers(min_value=1, max_value=3), st.booleans(),
           st.integers(min_value=0, max_value=2), st.booleans(), _ops)
    @settings(max_examples=300, deadline=None)
    def test_fencing_matches_per_piece(self, n_servers, replication,
                                       quorum, threshold, to_fenced, ops):
        """Takeovers, partitions, read-repair, split ranges and direct
        fences; with ``to_fenced`` every live member is routed a write,
        fenced copies included, so the store-side fence refuses pieces.
        Stores, journals, ``fence_rejections`` and the
        ``on_fence_reject`` call sequence match per-piece application at
        the point each acker takes a range's pieces, although
        ``insert_many`` applies them in one call per acker after its
        pass."""
        def build():
            md = MetadataService(n_servers, self.RANGE,
                                 replication=replication,
                                 checkpoint_threshold=threshold,
                                 quorum=quorum)
            log = []
            md.on_fence_reject = lambda r, s: log.append((r, s))
            for op, arg in ops:
                try:
                    if op == "insert":
                        md.insert_many(self._records(arg))
                    elif op == "fail":
                        md.fail_server(arg % n_servers)
                    elif op == "cut":
                        md.set_unreachable(arg % n_servers)
                    elif op == "heal":
                        md.set_reachable(arg % n_servers)
                    elif op == "recover":
                        md.recover_server(arg % n_servers)
                    elif op == "repair":
                        # A lookup on a quorum service read-repairs.
                        md.lookup(1, (arg % 4) * self.RANGE, self.RANGE)
                    elif op == "fence":
                        md._fence(arg[0], arg[1] % n_servers)
                    elif op == "split":
                        md.split_range(arg)
                    else:
                        md.merge_range(arg)
                except DataLossError:
                    pass
            return (md._stores, md._journal, md._checkpoints,
                    md.fence_rejections, log)

        def every_live_member(md, range_index, offset=None):
            ackers = tuple(s for s in md._members_at(range_index, offset)
                           if s not in md.failed_servers)
            if not ackers:
                raise MetadataUnavailableError("no live member")
            return ackers

        patches = []
        if to_fenced:
            patches.append(mock.patch.object(
                MetadataService, "_write_ackers", every_live_member))
        for patch in patches:
            patch.start()
        try:
            got = build()
            with mock.patch.object(MetadataService, "_insert_pieces",
                                   _per_piece_insert), \
                    mock.patch.object(MetadataService, "_admits",
                                      _per_piece_admits):
                want = build()
        finally:
            for patch in patches:
                patch.stop()
        assert got == want

    def test_fenced_copy_counts_every_refused_piece(self):
        md = MetadataService(2, self.RANGE, replication=2)
        log = []
        md.on_fence_reject = lambda r, s: log.append((r, s))
        md._fence(0, 1)
        md._insert_pieces(1, 0, [rec(0, 4), rec(8, 4), rec(4, 2)])
        assert md.fence_rejections == 3
        assert log == [(0, 1)] * 3
        assert md._stores[1] == {}


class TestDerivedRecords:
    """Slices, cut pieces, merges and splice remnants skip the validating
    constructor, yet are the records it would build."""

    _record = st.tuples(st.integers(min_value=0, max_value=3),
                        st.integers(min_value=0, max_value=200),
                        st.integers(min_value=1, max_value=100),
                        st.integers(min_value=0, max_value=3),
                        st.one_of(st.integers(min_value=0, max_value=10**6),
                                  st.floats(min_value=0, max_value=1e12)),
                        st.sampled_from(list(StorageTier)),
                        st.one_of(st.none(),
                                  st.integers(min_value=0, max_value=7)))

    @staticmethod
    def _validated(record):
        return MetadataRecord(record.fid, record.offset, record.length,
                              record.proc_id, record.va, record.tier,
                              record.node_id)

    def _assert_like_validated(self, record):
        twin = self._validated(record)
        assert record == twin
        assert hash(record) == hash(twin)
        assert repr(record) == repr(twin)

    @given(_record, st.data())
    @settings(max_examples=300, deadline=None)
    def test_derived_records_equal_validated_ones(self, fields, data):
        record = MetadataRecord(*fields)
        start = data.draw(st.integers(min_value=record.offset,
                                      max_value=record.end - 1))
        end = data.draw(st.integers(min_value=start + 1,
                                    max_value=record.end))
        piece = record.slice(start, end)
        self._assert_like_validated(piece)
        assert piece == MetadataRecord(
            record.fid, start, end - start, record.proc_id,
            record.va + (start - record.offset), record.tier,
            record.node_id)
        size = data.draw(st.sampled_from([8, 16, 64]))
        for cut in split_record(record, size):
            self._assert_like_validated(cut)
        after = MetadataRecord(record.fid, record.end, 5, record.proc_id,
                               record.va + record.length, record.tier,
                               record.node_id)
        merged, merges = coalesce_records([record, after])
        assert merges == 1
        self._assert_like_validated(merged[0])

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=60),
                              st.integers(min_value=1, max_value=30),
                              st.integers(min_value=0, max_value=1)),
                    min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_stored_records_equal_validated_ones(self, writes):
        """Trimmed remnants and seam merges left in a store."""
        store = {}
        for offset, length, proc in writes:
            apply_insert(store, split_record(rec(offset, length, proc=proc),
                                             16), 16)
        for _starts, recs in store.values():
            for record in recs:
                self._assert_like_validated(record)

    def test_derived_records_stay_frozen(self):
        record = rec(0, 32)
        derived = [record.slice(4, 8), split_record(record, 16)[1],
                   coalesce_records([record, rec(32, 8)])[0][0]]
        for piece in derived:
            with pytest.raises(dataclasses.FrozenInstanceError):
                piece.offset = 0
            with pytest.raises(dataclasses.FrozenInstanceError):
                del piece.va

    def test_validation_still_raises(self):
        with pytest.raises(ValueError):
            MetadataRecord(1, -1, 4, 0, 0.0, StorageTier.DRAM, 0)
        with pytest.raises(ValueError):
            MetadataRecord(1, 0, 0, 0, 0.0, StorageTier.DRAM, 0)
        for start, end in ((2, 9), (-1, 4), (4, 4), (6, 5), (0, 9)):
            with pytest.raises(ValueError):
                rec(0, 8).slice(start, end)

    def test_client_builds_validated_records_only(self):
        """Only the records the client builds run ``__post_init__``: a
        collective crossing range boundaries ships 4 records, cut into
        more pieces, and none of the pieces is validated again."""
        from repro import (IORequest, MachineSpec, PatternPayload,
                           Simulation, UniviStorConfig)
        sim = Simulation(MachineSpec.small_test(nodes=2))
        sim.install_univistor(UniviStorConfig.dram_only(
            metadata_range_size=int(16 * KB)))
        comm = sim.comm("app", 4, procs_per_node=2)
        validated = []
        post_init = MetadataRecord.__post_init__

        def counting(record):
            validated.append(record)
            post_init(record)

        def app():
            fh = yield from sim.open(comm, "/f", "w", fstype="univistor")
            yield from fh.write_at_all([
                IORequest(r, r * 40 * KB, 40 * KB, PatternPayload(r))
                for r in range(4)])

        with mock.patch.object(MetadataRecord, "__post_init__", counting):
            sim.run_to_completion(app())
        assert len(validated) == 4
        assert sim.univistor.metadata.record_count > 4
