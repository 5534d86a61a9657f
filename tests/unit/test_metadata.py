"""Unit + property tests for the distributed metadata service."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import StorageTier
from repro.core.metadata import MetadataRecord, MetadataService


def rec(offset, length, proc=0, va=None, fid=1, tier=StorageTier.DRAM,
        node=0):
    return MetadataRecord(fid=fid, offset=offset, length=length,
                          proc_id=proc, va=va if va is not None else offset,
                          tier=tier, node_id=node)


class TestPartitioning:
    def test_server_of_round_robin(self):
        svc = MetadataService(n_servers=4, range_size=100)
        assert svc.server_of(0) == 0
        assert svc.server_of(99) == 0
        assert svc.server_of(100) == 1
        assert svc.server_of(399) == 3
        assert svc.server_of(400) == 0  # wraps round-robin (Fig. 3)

    def test_fig3_example(self):
        """Fig. 3: 16 unit offsets, 4 ranges, 4 servers on 2 nodes."""
        svc = MetadataService(n_servers=4, range_size=4)
        owners = [svc.server_of(off) for off in range(16)]
        assert owners == [0] * 4 + [1] * 4 + [2] * 4 + [3] * 4

    def test_servers_for_range(self):
        svc = MetadataService(n_servers=4, range_size=100)
        assert svc.servers_for_range(0, 100) == {0}
        assert svc.servers_for_range(50, 100) == {0, 1}
        assert svc.servers_for_range(0, 400) == {0, 1, 2, 3}
        assert svc.servers_for_range(0, 4000) == {0, 1, 2, 3}

    def test_empty_range(self):
        svc = MetadataService(n_servers=4, range_size=100)
        assert svc.servers_for_range(10, 0) == set()

    def test_owner_follows_takeover(self):
        """After a takeover rewrites range 0's replica set, the owner
        queries name the new primary that ``lookup`` routes to, not the
        dead round-robin one."""
        svc = MetadataService(4, 100, replication=2)
        svc.insert_many([rec(off, 100) for off in range(0, 400, 100)])
        svc.fail_server(0)
        svc.recover_server(0)
        assert svc.replica_servers(0) == [1, 2]
        _found, touched = svc.lookup(1, 0, 100)
        assert touched == {1}
        assert svc.server_of(0) == 1
        assert svc.servers_for_range(0, 100) == {1}
        # Untouched ranges keep their round-robin owners.
        assert svc.server_of(100) == 1
        assert svc.servers_for_range(100, 300) == {1, 2, 3}

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            MetadataService(0, 100)
        with pytest.raises(ValueError):
            MetadataService(4, 0)

    def test_fractional_range_size_rejected(self):
        with pytest.raises(ValueError, match="range_size"):
            MetadataService(4, 100000.5)
        assert MetadataService(4, 64.0).range_size == 64.0


class TestInsertLookup:
    def test_roundtrip(self):
        svc = MetadataService(4, 100)
        svc.insert_many([rec(0, 50)])
        found, touched = svc.lookup(1, 0, 50)
        assert len(found) == 1
        assert found[0].offset == 0 and found[0].length == 50
        assert touched == {0}

    def test_lookup_clips(self):
        svc = MetadataService(4, 100)
        svc.insert_many([rec(0, 50, va=1000)])
        found, _ = svc.lookup(1, 10, 20)
        assert len(found) == 1
        assert found[0].offset == 10
        assert found[0].length == 20
        assert found[0].va == 1010  # VA advances with the clip

    def test_record_split_across_ranges(self):
        svc = MetadataService(4, 100)
        touched = svc.insert_many([rec(50, 100)])  # spans ranges 0 and 1
        assert touched == {0, 1}
        found, _ = svc.lookup(1, 50, 100)
        assert sum(r.length for r in found) == 100
        # Pieces carry contiguous VAs.
        assert found[0].va + found[0].length == found[1].va

    def test_overwrite_replaces(self):
        svc = MetadataService(2, 1000)
        svc.insert_many([rec(0, 100, proc=1)])
        svc.insert_many([rec(20, 30, proc=2)])
        found, _ = svc.lookup(1, 0, 100)
        assert [(r.offset, r.length, r.proc_id) for r in found] == [
            (0, 20, 1), (20, 30, 2), (50, 50, 1)]

    def test_overwrite_va_alignment_preserved(self):
        svc = MetadataService(2, 1000)
        svc.insert_many([rec(0, 100, proc=1, va=500)])
        svc.insert_many([rec(20, 30, proc=2, va=0)])
        found, _ = svc.lookup(1, 50, 10)
        assert found[0].va == 550

    def test_files_are_independent(self):
        svc = MetadataService(2, 1000)
        svc.insert_many([rec(0, 10, fid=1)])
        svc.insert_many([rec(0, 10, fid=2, proc=9)])
        found, _ = svc.lookup(2, 0, 10)
        assert found[0].proc_id == 9

    def test_lookup_hole_returns_partial(self):
        svc = MetadataService(2, 1000)
        svc.insert_many([rec(100, 50)])
        found, _ = svc.lookup(1, 0, 300)
        assert len(found) == 1
        assert found[0].offset == 100

    def test_delete_file(self):
        svc = MetadataService(2, 100)
        svc.insert_many([rec(0, 500)])
        touched = svc.delete_file(1)
        assert touched == {0, 1}
        found, _ = svc.lookup(1, 0, 500)
        assert found == []
        assert svc.record_count == 0

    def test_records_of_sorted(self):
        svc = MetadataService(3, 10)
        for off in (50, 0, 30, 20):
            svc.insert_many([rec(off, 5)])
        records = svc.records_of(1)
        assert [r.offset for r in records] == [0, 20, 30, 50]

    def test_load_balance_across_servers(self):
        """Fig. 3's point: records spread over servers, none owns all."""
        svc = MetadataService(4, 10)
        for off in range(0, 400, 10):
            svc.insert_many([rec(off, 10)])
        counts = svc.server_record_counts()
        assert counts == [10, 10, 10, 10]


class TestRecordSlice:
    def test_slice(self):
        r = rec(10, 20, va=100)
        s = r.slice(15, 25)
        assert s.offset == 15 and s.length == 10 and s.va == 105

    def test_bad_slice(self):
        with pytest.raises(ValueError):
            rec(10, 20).slice(5, 15)

    def test_invalid_record(self):
        with pytest.raises(ValueError):
            rec(-1, 10)
        with pytest.raises(ValueError):
            rec(0, 0)

    @pytest.mark.parametrize("record", [
        rec(10, 20, va=100),
        MetadataRecord(3, 0, 8, 1, 0.0, StorageTier.SHARED_BB, None),
    ])
    def test_slotted_and_pickle_round_trip(self, record):
        # Slots keep the per-instance dict out of the resident set; the
        # chaos campaign's worker pool pickles results built from them.
        assert not hasattr(record, "__dict__")
        assert pickle.loads(pickle.dumps(record)) == record


write = st.tuples(st.integers(min_value=0, max_value=500),
                  st.integers(min_value=1, max_value=64),
                  st.integers(min_value=0, max_value=7))


class TestMetadataProperties:
    @given(st.lists(write, min_size=1, max_size=40),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=128))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_map(self, ops, n_servers, range_size):
        """The distributed store behaves exactly like one flat byte map."""
        svc = MetadataService(n_servers, range_size)
        ref = [None] * 600  # byte -> proc_id
        for offset, length, proc in ops:
            svc.insert_many([MetadataRecord(
                fid=1, offset=offset, length=length, proc_id=proc,
                va=offset, tier=StorageTier.DRAM, node_id=0)])
            for b in range(offset, offset + length):
                ref[b] = proc
        found, _ = svc.lookup(1, 0, 600)
        got = [None] * 600
        for r in found:
            for b in range(r.offset, r.offset + r.length):
                assert got[b] is None, "overlapping records returned"
                got[b] = r.proc_id
        assert got == ref

    @given(st.lists(write, min_size=1, max_size=30),
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=100, deadline=None)
    def test_every_offset_owned_by_exactly_one_server(self, ops, n_servers):
        svc = MetadataService(n_servers, 64)
        for offset, length, proc in ops:
            svc.insert_many([MetadataRecord(
                fid=1, offset=offset, length=length, proc_id=proc,
                va=offset, tier=StorageTier.DRAM, node_id=0)])
        # Each stored piece must live on the server that owns its offset.
        for server in range(n_servers):
            store = svc._stores[server].get(1)
            if not store:
                continue
            for record in store[1]:
                assert svc.server_of(record.offset) == server
                # A piece never crosses a range boundary.
                first = int(record.offset // svc.range_size)
                last = int((record.end - 1) // svc.range_size)
                assert first == last


class TestBisectLookupEdgeCases:
    """The bisect-indexed lookup against range-boundary geometry."""

    def test_window_start_inside_earlier_record(self):
        # The record starts before the window: bisect lands past it and
        # the step-back must recover it.
        svc = MetadataService(4, 1000)
        svc.insert_many([rec(0, 500)])
        found, _ = svc.lookup(1, 200, 100)
        assert [(r.offset, r.length, r.va) for r in found] == [(200, 100, 200)]

    def test_record_ending_at_window_start_excluded(self):
        svc = MetadataService(4, 1000)
        svc.insert_many([rec(0, 200)])
        svc.insert_many([rec(200, 100)])
        found, _ = svc.lookup(1, 200, 50)
        assert [(r.offset, r.length) for r in found] == [(200, 50)]

    def test_record_starting_at_window_end_excluded(self):
        svc = MetadataService(4, 1000)
        svc.insert_many([rec(100, 100)])
        svc.insert_many([rec(200, 100)])
        found, _ = svc.lookup(1, 100, 100)
        assert [(r.offset, r.length) for r in found] == [(100, 100)]

    def test_exact_range_boundary_touches_both_owners(self):
        # A lookup spanning a partition boundary is answered by both
        # range owners, split exactly at the boundary.
        svc = MetadataService(4, 100)
        svc.insert_many([rec(50, 100)])  # insert splits at offset 100
        found, touched = svc.lookup(1, 50, 100)
        assert [(r.offset, r.length) for r in found] == [(50, 50), (100, 50)]
        assert touched == {0, 1}

    def test_fully_covered_record_is_shared_not_copied(self):
        # The identity fast path: an uncut record comes back as the
        # stored frozen object itself.
        svc = MetadataService(4, 1000)
        svc.insert_many([rec(100, 100)])
        stored = svc._stores[0][1][1][0]
        found, _ = svc.lookup(1, 0, 1000)
        assert found[0] is stored

    def test_replicated_lookup_no_duplicates(self):
        svc = MetadataService(4, 100, replication=2)
        svc.insert_many([rec(0, 250)])
        found, touched = svc.lookup(1, 0, 250)
        assert [(r.offset, r.length) for r in found] == [
            (0, 100), (100, 100), (200, 50)]
        # One server per range, primaries when healthy.
        assert touched == {0, 1, 2}

    def test_failed_primary_fails_over_and_fires_hook(self):
        svc = MetadataService(4, 100, replication=2)
        svc.insert_many([rec(0, 100)])
        failovers = []
        svc.on_failover = lambda rng, server: failovers.append((rng, server))
        svc.fail_server(0)
        found, touched = svc.lookup(1, 0, 100)
        assert [(r.offset, r.length) for r in found] == [(0, 100)]
        assert touched == {1}
        assert failovers == [(0, 1)]

    def test_all_replicas_failed_raises(self):
        from repro.core.metadata import MetadataUnavailableError
        svc = MetadataService(4, 100, replication=2)
        svc.insert_many([rec(0, 100)])
        svc.fail_server(0)
        svc.fail_server(1)
        with pytest.raises(MetadataUnavailableError):
            svc.lookup(1, 0, 100)
