"""Unit + property tests for DHP logs, chunks, free-chunk stack, spill."""

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import StorageTier
from repro.core.dhp import (Chunk, DHPWriter, LayerPlan, LogFile,
                            LogFullError, PendingLog, PlacedSegment)
from repro.core.va import VirtualAddressSpace
from repro.sim import Engine
from repro.storage.datamodel import PatternPayload
from repro.storage.device import StorageDevice
from repro.storage.posix import FileStore


def make_log(tier=StorageTier.DRAM, capacity=100, chunk=10, device=None,
             store=None, name="/log"):
    store = store or FileStore()
    return LogFile(tier, capacity, chunk, store.create(name), device=device)


class TestLogFileAppend:
    def test_simple_append_single_run(self):
        log = make_log()
        runs = log.append(25, PatternPayload(1))
        assert runs == [(0.0, 25)]
        assert log.bytes_written == 25
        assert log.allocated_chunks == 3

    def test_appends_are_sequential(self):
        log = make_log()
        log.append(7, PatternPayload(1))
        runs = log.append(7, PatternPayload(2))
        assert runs == [(7.0, 7)]

    def test_append_stores_real_bytes(self):
        log = make_log()
        log.append(5, PatternPayload(1), payload_offset=10)
        assert (log.sim_file.read_bytes(0, 5)
                == PatternPayload(1).materialize(10, 5))

    def test_partial_append_at_log_capacity(self):
        log = make_log(capacity=30, chunk=10)
        runs = log.append(50, PatternPayload(1))
        assert sum(r[1] for r in runs) == 30

    def test_full_log_returns_empty(self):
        log = make_log(capacity=10, chunk=10)
        log.append(10, PatternPayload(1))
        assert log.append(5, PatternPayload(2)) == []

    def test_remaining_in_log(self):
        log = make_log(capacity=40, chunk=10)
        assert log.remaining_in_log() == 40
        log.append(15, PatternPayload(1))
        assert log.remaining_in_log() == 25

    def test_device_pressure_stops_append(self):
        engine = Engine()
        device = StorageDevice(engine, "d", capacity=25, bandwidth=1.0)
        log = make_log(capacity=1000, chunk=10, device=device)
        runs = log.append(100, PatternPayload(1))
        # Only 2 whole chunks fit on the device.
        assert sum(r[1] for r in runs) == 20
        assert device.used == 20

    def test_two_logs_share_device(self):
        engine = Engine()
        device = StorageDevice(engine, "d", capacity=30, bandwidth=1.0)
        store = FileStore()
        a = make_log(capacity=1000, chunk=10, device=device, store=store,
                     name="/a")
        b = make_log(capacity=1000, chunk=10, device=device, store=store,
                     name="/b")
        a.append(20, PatternPayload(1))
        runs = b.append(20, PatternPayload(2))
        assert sum(r[1] for r in runs) == 10  # only one chunk left

    def test_unbounded_log(self):
        log = make_log(capacity=math.inf, chunk=10)
        runs = log.append(10 ** 6, PatternPayload(1))
        assert sum(r[1] for r in runs) == 10 ** 6
        assert log.remaining_in_log() == math.inf

    def test_invalid_append_length(self):
        log = make_log()
        with pytest.raises(ValueError):
            log.append(0, PatternPayload(1))


class TestFreeChunkStack:
    def test_free_full_chunk_returns_to_stack(self):
        log = make_log(capacity=30, chunk=10)
        log.append(30, PatternPayload(1))
        assert log.free_stack == []
        log.free_segment(0, 10)  # kill chunk 0 entirely
        assert log.free_stack == [0]

    def test_partial_free_keeps_chunk(self):
        log = make_log(capacity=30, chunk=10)
        log.append(30, PatternPayload(1))
        log.free_segment(0, 5)
        assert log.free_stack == []

    def test_freed_chunk_is_reused_lifo(self):
        log = make_log(capacity=30, chunk=10)
        log.append(30, PatternPayload(1))
        log.free_segment(10, 10)
        log.free_segment(0, 10)
        # Stack is LIFO: chunk 0 (pushed last) is reused first.
        runs = log.append(10, PatternPayload(2))
        assert runs == [(0.0, 10)]

    def test_no_double_allocation_after_reuse(self):
        log = make_log(capacity=20, chunk=10)
        log.append(20, PatternPayload(1))
        log.free_segment(0, 10)
        log.append(10, PatternPayload(2))
        # Everything allocated exactly once per live byte.
        assert log.bytes_live == 20
        assert log.allocated_chunks == 2

    def test_active_chunk_not_pushed_while_open(self):
        log = make_log(capacity=30, chunk=10)
        log.append(5, PatternPayload(1))  # chunk 0 active, half-full
        log.free_segment(0, 5)
        assert log.free_stack == []  # not fully written: not reusable yet

    def test_free_spanning_chunks(self):
        log = make_log(capacity=30, chunk=10)
        log.append(30, PatternPayload(1))
        log.free_segment(5, 20)  # kills nothing fully... chunk 1 fully dead
        assert log.free_stack == [1]

    def test_over_free_raises(self):
        log = make_log(capacity=30, chunk=10)
        log.append(10, PatternPayload(1))
        log.free_segment(0, 10)
        with pytest.raises(ValueError):
            log.free_segment(0, 10)

    def test_free_unallocated_chunk_raises(self):
        log = make_log(capacity=30, chunk=10)
        log.append(10, PatternPayload(1))
        with pytest.raises(ValueError):
            log.free_segment(25, 5)


def make_writer(caps=(20, 30), chunk=10, rank=0, device_caps=None):
    """A 2-cache-tier + PFS writer on in-memory stores."""
    engine = Engine()
    store = FileStore()
    tiers = [StorageTier.DRAM, StorageTier.SHARED_BB, StorageTier.PFS]
    capacities = list(caps) + [math.inf]
    logs = []
    for i, (tier, cap) in enumerate(zip(tiers, capacities)):
        device = None
        if device_caps and i < len(device_caps) and device_caps[i] is not None:
            device = StorageDevice(engine, f"d{i}", device_caps[i], 1.0)
        logs.append(LogFile(tier, cap, chunk,
                            store.create(f"/{rank}/{tier.value}"),
                            device=device))
    vas = VirtualAddressSpace(tiers, capacities)
    return DHPWriter(rank, vas, logs)


class TestDHPWriter:
    def test_fits_in_first_layer(self):
        w = make_writer()
        segs = w.write(0, 15, PatternPayload(1))
        assert len(segs) == 1
        assert segs[0].tier is StorageTier.DRAM
        assert segs[0].va == 0

    def test_spill_across_layers_matches_fig2(self):
        """The Fig. 2 scenario: 8 unit segments, layer caps 2 and 3 -> 2
        in node-local, 3 in shared BB, 3 on the PFS."""
        w = make_writer(caps=(2, 3), chunk=1)
        placed = []
        for i in range(8):
            placed.extend(w.write(i, 1, PatternPayload(i)))
        tiers = [s.tier for s in placed]
        assert tiers == ([StorageTier.DRAM] * 2
                         + [StorageTier.SHARED_BB] * 3
                         + [StorageTier.PFS] * 3)
        # D4 (index 3): physical address 1 in the BB log, VA 3 (Eq. 1).
        assert placed[3].physical_address == 1
        assert placed[3].va == 3

    def test_single_write_spans_layers(self):
        w = make_writer(caps=(20, 30))
        segs = w.write(0, 60, PatternPayload(1))
        by_tier = {}
        for s in segs:
            by_tier[s.tier] = by_tier.get(s.tier, 0) + s.length
        assert by_tier[StorageTier.DRAM] == 20
        assert by_tier[StorageTier.SHARED_BB] == 30
        assert by_tier[StorageTier.PFS] == 10

    def test_conservation(self):
        w = make_writer()
        segs = w.write(0, 45, PatternPayload(1))
        assert sum(s.length for s in segs) == 45
        assert sum(w.bytes_per_layer()) == 45

    def test_segments_cover_logical_range_in_order(self):
        w = make_writer(caps=(7, 11), chunk=5)
        segs = w.write(100, 30, PatternPayload(1))
        cursor = 100
        for s in segs:
            assert s.logical_offset == cursor
            cursor += s.length
        assert cursor == 130

    def test_va_resolves_back_to_segment(self):
        w = make_writer()
        segs = w.write(0, 45, PatternPayload(1))
        for s in segs:
            layer, addr = w.vas.resolve(s.va)
            assert layer == s.layer
            assert addr == s.physical_address

    def test_spill_level_is_sticky(self):
        w = make_writer(caps=(20, 30))
        w.write(0, 25, PatternPayload(1))  # spills into layer 1
        segs = w.write(25, 5, PatternPayload(2))
        assert all(s.tier is not StorageTier.DRAM for s in segs)

    def test_free_releases_space(self):
        w = make_writer(caps=(20, 30), chunk=10)
        segs = w.write(0, 20, PatternPayload(1))
        for s in segs:
            w.free(s)
        assert w.bytes_per_layer()[0] == 0

    def test_data_readable_via_va(self):
        w = make_writer(caps=(20, 30), chunk=10)
        segs = w.write(0, 45, PatternPayload(7))
        got = bytearray(45)
        for s in segs:
            layer, addr = w.vas.resolve(s.va)
            data = w.log(layer).sim_file.read_bytes(int(addr), s.length)
            got[s.logical_offset:s.logical_offset + s.length] = data
        assert bytes(got) == PatternPayload(7).materialize(0, 45)

    def test_mismatched_logs_rejected(self):
        w = make_writer()
        with pytest.raises(ValueError):
            DHPWriter(0, w.vas, w.created_logs[:2])

    def test_log_tier_must_match_va_tier(self):
        w = make_writer()
        swapped = [w.created_logs[1], w.created_logs[0], w.created_logs[2]]
        with pytest.raises(ValueError, match="VA tier"):
            DHPWriter(0, w.vas, swapped)
        plan = make_plan()
        with pytest.raises(ValueError, match="VA tier"):
            DHPWriter(0, plan.vas, plan.logs[::-1])
        with pytest.raises(ValueError, match="one log per VA layer"):
            DHPWriter(0, plan.vas, plan.logs[:2])


def make_plan(caps=(20, 30), chunk=10, devices=(None, None)):
    """A shared 2-cache-tier + PFS layer plan on one in-memory store."""
    store = FileStore()
    tiers = (StorageTier.DRAM, StorageTier.SHARED_BB, StorageTier.PFS)
    capacities = (*caps, math.inf)
    logs = tuple(PendingLog(tier, cap, chunk, store, device,
                            f"/{{rank}}/{tier.value}")
                 for tier, cap, device in zip(tiers, capacities,
                                              (*devices, None)))
    return LayerPlan(VirtualAddressSpace(tiers, capacities), logs)


def plan_writer(plan, rank):
    return DHPWriter(rank, plan.vas, plan.logs)


class TestLayerPlan:
    def test_writers_share_the_plan_not_the_logs(self):
        plan = make_plan()
        w0, w1 = plan_writer(plan, 0), plan_writer(plan, 1)
        assert w0.vas is w1.vas is plan.vas
        w0.write(0, 25, PatternPayload(1))
        w1.write(0, 5, PatternPayload(2))
        store = plan.logs[0].store
        assert store.listdir("/") == ["/0/dram", "/0/shared_bb", "/1/dram"]
        assert [log.tier for log in w1.created_logs] == [StorageTier.DRAM]
        assert w0.bytes_per_layer() == [20, 5, 0.0]
        assert w1.bytes_per_layer() == [5, 0.0, 0.0]

    def test_log_lookup_needs_a_created_layer(self):
        w = plan_writer(make_plan(), 0)
        segs = w.write(0, 5, PatternPayload(1))
        assert w.log(segs[0].layer).tier is StorageTier.DRAM
        with pytest.raises(KeyError):
            w.log(1)

    def test_spill_matches_eager_logs(self):
        """Pending logs place bytes exactly like logs created up front."""
        lazy = plan_writer(make_plan(caps=(7, 11), chunk=5), 0)
        eager = make_writer(caps=(7, 11), chunk=5)
        for offset in range(0, 40, 8):
            assert (lazy.write(offset, 8, PatternPayload(offset))
                    == eager.write(offset, 8, PatternPayload(offset)))

    def test_dry_device_spills_without_a_log(self):
        """A layer whose device cannot take one chunk is passed over like
        the empty append of a fresh log — for good — and gets no log."""
        dram = StorageDevice(Engine(), "dram", 25, 1.0)
        plan = make_plan(devices=(dram, None))
        # Another rank leaves 5 B of DRAM: less than one chunk.
        plan_writer(plan, 1).write(0, 20, PatternPayload(1))
        w = plan_writer(plan, 0)
        eager = make_writer(device_caps=(5,))
        assert (w.write(0, 8, PatternPayload(1))
                == eager.write(0, 8, PatternPayload(1)))
        assert [log.tier for log in w.created_logs] == [StorageTier.SHARED_BB]
        assert plan.logs[0].store.listdir("/0") == ["/0/shared_bb"]
        # The spill is sticky: DRAM space coming back does not reopen it.
        dram.free(20)
        segs = w.write(8, 8, PatternPayload(2))
        assert [s.tier for s in segs] == [StorageTier.SHARED_BB]
        assert [log.tier for log in w.created_logs] == [StorageTier.SHARED_BB]


class TestPlacedSegment:
    def test_slotted_and_pickle_round_trip(self):
        # Slots keep the per-instance dict out of the resident set.
        seg = make_writer().write(0, 25, PatternPayload(1))[0]
        assert isinstance(seg, PlacedSegment)
        assert not hasattr(seg, "__dict__")
        assert pickle.loads(pickle.dumps(seg)) == seg


class TestDHPProperties:
    @given(writes=st.lists(st.integers(min_value=1, max_value=40),
                           min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_spill_conservation(self, writes):
        """Bytes in == bytes across all layers, whatever the write sizes."""
        w = make_writer(caps=(50, 70), chunk=8)
        offset = 0
        for length in writes:
            segs = w.write(offset, length, PatternPayload(offset))
            assert sum(s.length for s in segs) == length
            offset += length
        assert sum(w.bytes_per_layer()) == offset

    @given(writes=st.lists(st.integers(min_value=1, max_value=40),
                           min_size=1, max_size=15))
    @settings(max_examples=200, deadline=None)
    def test_content_reassembles(self, writes):
        """Reading back through VA resolution yields the exact bytes."""
        w = make_writer(caps=(50, 70), chunk=8)
        offset = 0
        all_segs = []
        for length in writes:
            all_segs.extend(w.write(offset, length, PatternPayload(3),
                                    payload_offset=offset))
            offset += length
        got = bytearray(offset)
        for s in all_segs:
            layer, addr = w.vas.resolve(s.va)
            data = w.log(layer).sim_file.read_bytes(int(addr), s.length)
            got[s.logical_offset:s.logical_offset + s.length] = data
        assert bytes(got) == PatternPayload(3).materialize(0, offset)

    @given(chunk=st.integers(min_value=1, max_value=16),
           n=st.integers(min_value=1, max_value=60))
    @settings(max_examples=200, deadline=None)
    def test_free_then_rewrite_never_double_allocates(self, chunk, n):
        w = make_writer(caps=(64, 64), chunk=chunk)
        segs = w.write(0, n, PatternPayload(1))
        for s in segs:
            w.free(s)
        w.write(0, n, PatternPayload(2))
        log0 = w.created_logs[0]
        for cid in range(log0.allocated_chunks):
            c = log0.chunk(cid)
            assert c.live <= log0.chunk_size + 1e-9


class _ChunkModel:
    """Per-chunk reference for :class:`LogFile`: every chunk is taken,
    filled and freed one at a time (no fresh batches)."""

    def __init__(self, capacity, chunk, device_capacity):
        self.chunk = chunk
        self.max_chunks = (math.inf if capacity == math.inf
                           else max(1, int(capacity // chunk)))
        self.device_left = device_capacity
        self.used, self.live, self.free = [], [], []
        self.active = None

    def append(self, length):
        runs, placed = [], 0
        while placed < length:
            if self.active is None:
                if self.free:
                    cid = self.free.pop()
                    self.used[cid] = self.live[cid] = 0
                elif (len(self.used) < self.max_chunks
                      and self.device_left >= self.chunk):
                    self.device_left -= self.chunk
                    self.used.append(0)
                    self.live.append(0)
                    cid = len(self.used) - 1
                else:
                    break
                self.active = cid
            take = min(self.chunk - self.used[self.active], length - placed)
            addr = self.active * self.chunk + self.used[self.active]
            if runs and runs[-1][0] + runs[-1][1] == addr:
                runs[-1] = (runs[-1][0], runs[-1][1] + take)
            else:
                runs.append((addr, take))
            self.used[self.active] += take
            self.live[self.active] += take
            placed += take
            if self.used[self.active] == self.chunk:
                self.active = None
        return runs

    def free_segment(self, addr, length):
        while length > 0:
            cid = addr // self.chunk
            in_chunk = min(length, (cid + 1) * self.chunk - addr)
            self.live[cid] -= in_chunk
            if (self.live[cid] == 0 and self.used[cid] == self.chunk
                    and cid != self.active and cid not in self.free):
                self.free.append(cid)
            addr += in_chunk
            length -= in_chunk

    def remaining_in_log(self):
        if self.max_chunks is math.inf:
            return math.inf
        open_space = (0 if self.active is None
                      else self.chunk - self.used[self.active])
        fresh = self.max_chunks - len(self.used) + len(self.free)
        return open_space + fresh * self.chunk


_log_ops = st.lists(
    st.one_of(st.tuples(st.just("append"), st.integers(1, 60)),
              st.tuples(st.just("free"), st.integers(0, 10 ** 6),
                        st.integers(0, 10 ** 6), st.integers(1, 40))),
    min_size=1, max_size=30)


class TestLogFileAgainstChunkModel:
    @given(chunk=st.integers(1, 12),
           capacity=st.one_of(st.integers(1, 150), st.just(math.inf)),
           device_chunks=st.one_of(st.none(), st.integers(0, 14)),
           ops=_log_ops)
    @settings(max_examples=300, deadline=None)
    def test_appends_and_frees_match_the_per_chunk_model(
            self, chunk, capacity, device_chunks, ops):
        """Random appends and frees — fresh batches, partial chunks,
        free-stack reuse, device pressure — leave the runs, chunks, free
        stack and byte counts a chunk-at-a-time log would."""
        device = None
        device_capacity = math.inf
        if device_chunks is not None:
            # A little slack, so the device is not a multiple of chunks.
            device_capacity = device_chunks * chunk + chunk // 2
            device = StorageDevice(Engine(), "d", capacity=device_capacity,
                                   bandwidth=1.0)
        log = make_log(capacity=capacity, chunk=chunk, device=device)
        model = _ChunkModel(capacity, chunk, device_capacity)
        run_against_model(log, model, ops, [], device)


def run_against_model(log, model, ops, live, device):
    """Apply ``ops`` to ``log`` and ``model`` and check, after each, that
    they hold the same runs, chunks, free stack and byte counts.
    ``live`` lists the ``(addr, length)`` pieces already appended and not
    yet freed."""
    for op in ops:
        if op[0] == "append":
            runs = log.append(op[1], PatternPayload(1))
            assert runs == model.append(op[1])
            live.extend((int(a), n) for a, n in runs)
        elif live:
            _, pick, at, want = op
            addr, length = live.pop(pick % len(live))
            skip = at % length
            n = min(want, length - skip)
            log.free_segment(addr + skip, n)
            model.free_segment(addr + skip, n)
            live.extend(piece for piece in ((addr, skip),
                                            (addr + skip + n,
                                             length - skip - n))
                        if piece[1] > 0)
        assert log.allocated_chunks == len(model.used)
        assert [log.chunk(i) for i in range(log.allocated_chunks)] == [
            Chunk(i, u, v)
            for i, (u, v) in enumerate(zip(model.used, model.live))]
        assert log.free_stack == model.free
        assert log.remaining_in_log() == model.remaining_in_log()
        assert log.bytes_live == sum(model.live)
        assert log.bytes_live == sum(n for _a, n in live)
        if device is not None:
            assert device.used == len(model.used) * model.chunk


def per_chunk_state(log):
    """The names of a log's attributes that hold a list."""
    return [name for name in type(log).__slots__
            if isinstance(getattr(log, name), list)]


_appends = st.lists(st.integers(1, 60), min_size=1, max_size=12)


class TestLeanLogFile:
    """An append-only log is a fill pointer; its per-chunk live bytes and
    free stack appear at the first free, equal to what per-chunk lists
    would have held."""

    def test_slotted_log_and_writer(self):
        w = make_writer()
        w.write(0, 45, PatternPayload(1))
        for obj in (w, *w.created_logs):
            assert not hasattr(obj, "__dict__")
        assert not hasattr(w.created_logs[0], "_chunk_used")

    @given(chunk=st.integers(1, 12),
           capacity=st.one_of(st.integers(1, 150), st.just(math.inf)),
           appends=_appends)
    @settings(max_examples=150, deadline=None)
    def test_append_only_log_holds_no_per_chunk_state(self, chunk, capacity,
                                                      appends):
        log = make_log(capacity=capacity, chunk=chunk)
        model = _ChunkModel(capacity, chunk, math.inf)
        for length in appends:
            assert log.append(length, PatternPayload(1)) == model.append(
                length)
        assert per_chunk_state(log) == []
        assert log.free_stack == []
        assert [log.chunk(i) for i in range(log.allocated_chunks)] == [
            Chunk(i, u, v)
            for i, (u, v) in enumerate(zip(model.used, model.live))]

    @given(chunk=st.integers(1, 12),
           capacity=st.one_of(st.integers(1, 150), st.just(math.inf)),
           appends=_appends, pick=st.integers(0, 10 ** 6),
           at=st.integers(0, 10 ** 6), want=st.integers(1, 60))
    @settings(max_examples=150, deadline=None)
    def test_first_free_creates_the_per_chunk_lists(
            self, chunk, capacity, appends, pick, at, want):
        log = make_log(capacity=capacity, chunk=chunk)
        model = _ChunkModel(capacity, chunk, math.inf)
        runs = []
        for length in appends:
            runs.extend(log.append(length, PatternPayload(1)))
            model.append(length)
        if not runs:
            return
        addr, length = runs[pick % len(runs)]
        skip = at % length
        n = min(want, length - skip)
        log.free_segment(addr + skip, n)
        model.free_segment(int(addr) + skip, n)
        assert sorted(per_chunk_state(log)) == ["_free", "_live"]
        assert log._live == model.live
        assert log._free == model.free
        assert log.remaining_in_log() == model.remaining_in_log()

    def test_empty_free_creates_nothing(self):
        log = make_log()
        log.append(25, PatternPayload(1))
        log.free_segment(0, 0)
        assert per_chunk_state(log) == []

    def test_free_of_an_unallocated_chunk_is_refused(self):
        log = make_log(chunk=10)
        log.append(15, PatternPayload(1))
        with pytest.raises(ValueError, match="unallocated"):
            log.free_segment(20, 5)
        assert log.bytes_live == 15

    def test_chunk_indexes_like_a_list(self):
        log = make_log(chunk=10)
        log.append(25, PatternPayload(1))
        assert log.chunk(-1) == Chunk(-1, 5, 5)
        with pytest.raises(IndexError):
            log.chunk(3)


class TestPlanChecks:
    """A layer plan checks its geometry and layer alignment once; the
    logs and writers made from it skip those checks and come out the
    same."""

    def test_checked_plan_logs_equal_unchecked_ones(self):
        store = FileStore()
        checked = PendingLog.make(StorageTier.DRAM, 25, 10, store, None,
                                  "/{rank}/a")
        assert checked.capacity == 25.0 and checked.max_chunks == 2
        plain = checked._replace(max_chunks=None, path="/{rank}/b")
        for pending in (checked, plain):
            log = pending.create(0)
            assert (log.capacity, log.chunk_size, log.max_chunks) == (
                25.0, 10.0, 2)
            assert log.append(30, PatternPayload(1)) == [(0.0, 20)]

    def test_plan_geometry_is_checked(self):
        with pytest.raises(ValueError, match="capacity"):
            PendingLog.make(StorageTier.DRAM, 0, 10, FileStore(), None, "/x")
        with pytest.raises(ValueError, match="chunk size"):
            PendingLog.make(StorageTier.DRAM, 10, 0, FileStore(), None, "/x")

    def test_plan_alignment_is_checked(self):
        plan = make_plan()
        with pytest.raises(ValueError, match="VA tier"):
            LayerPlan.make(plan.vas, plan.logs[::-1])
        with pytest.raises(ValueError, match="one log per VA layer"):
            LayerPlan.make(plan.vas, plan.logs[:2])
        made = LayerPlan.make(plan.vas, list(plan.logs))
        assert made == plan
        checked = DHPWriter(0, made.vas, made.logs, checked=True)
        unchecked = plan_writer(make_plan(), 0)
        for offset in range(0, 60, 12):
            assert (checked.write(offset, 12, PatternPayload(offset))
                    == unchecked.write(offset, 12, PatternPayload(offset)))


def log_state(log):
    """Every field of a log but its file, device and ledger, with types
    (``repr`` tells 5 from 5.0), plus the file's path and extents."""
    return repr([getattr(log, name) for name in type(log).__slots__
                 if name not in ("sim_file", "device", "tier_totals")]
                + [log.sim_file.path, list(log.sim_file.data)])


class TestOneStepFirstAppend:
    """A rank's first write to a pending log whose healthy device can
    take it whole in fresh chunks creates the log in one step
    (:meth:`PendingLog.create_filled`): the file, its single extent, one
    device charge and the tier ledger, leaving exactly what creating
    the log and calling :meth:`LogFile.append` leaves.  Partial fits,
    unchecked geometry, failed or degraded tiers and dry devices take
    the generic path."""

    @staticmethod
    def _build(chunk, capacity, device_chunks, health, checked):
        device = None
        if device_chunks is not None:
            device = StorageDevice(Engine(), "d",
                                   capacity=device_chunks * chunk + chunk // 2,
                                   bandwidth=1.0)
            if health == "failed":
                device.fail()
            elif health == "degraded":
                device.degrade(0.5)
        store = FileStore()
        totals = {StorageTier.DRAM: 0.0, StorageTier.PFS: 0.0}
        dram = (StorageTier.DRAM, capacity, chunk, store, device,
                "/{rank}/dram", totals)
        layers = [PendingLog.make(*dram) if checked else PendingLog(*dram)]
        if capacity != math.inf:
            # A PFS layer to spill to.
            layers.append(PendingLog.make(StorageTier.PFS, math.inf, chunk,
                                          store, None, "/{rank}/pfs",
                                          totals))
        vas = VirtualAddressSpace([p.tier for p in layers],
                                  [p.capacity for p in layers])
        return DHPWriter(0, vas, layers), device, totals, store

    @given(length=st.integers(1, 200), chunk=st.integers(1, 12),
           capacity=st.one_of(st.integers(1, 150), st.just(math.inf)),
           device_chunks=st.one_of(st.none(), st.integers(0, 20)),
           health=st.sampled_from(["ok", "failed", "degraded"]),
           checked=st.booleans(), ops=_log_ops)
    @settings(max_examples=300, deadline=None)
    def test_one_step_leaves_what_the_generic_path_leaves(
            self, length, chunk, capacity, device_chunks, health, checked,
            ops):
        def first_write(one_step):
            writer, device, totals, store = self._build(
                chunk, capacity, device_chunks, health, checked)
            filled, appended = [], []
            create_filled, append = PendingLog.create_filled, LogFile.append

            def noting_create_filled(pending, *args):
                log = create_filled(pending, *args) if one_step else None
                filled.append((pending.tier, log is not None))
                return log

            def noting_append(log, *args):
                appended.append(log.tier)
                return append(log, *args)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(PendingLog, "create_filled", noting_create_filled)
                mp.setattr(LogFile, "append", noting_append)
                try:
                    outcome = writer.write(0, length, PatternPayload(3))
                except LogFullError as err:
                    outcome = str(err)
            state = (outcome,
                     [log_state(log) for log in writer.created_logs],
                     None if device is None else device.used,
                     totals, store.listdir("/"))
            return state, writer, device, filled, appended

        one, writer, device, filled, appended = first_write(True)
        generic, *_ = first_write(False)
        assert one == generic
        # The one step served the DRAM layer exactly when it fits whole.
        max_chunks = (math.inf if capacity == math.inf
                      else max(1, capacity // chunk))
        n_chunks = math.ceil(length / chunk)
        healthy = device is None or health == "ok"
        fits = (checked and healthy and n_chunks <= max_chunks
                and (device_chunks is None or n_chunks <= device_chunks))
        assert ((StorageTier.DRAM, True) in filled) == fits
        if fits:
            assert StorageTier.DRAM not in appended
        if not healthy:
            assert StorageTier.DRAM not in [tier for tier, _ in filled]
        # What the one step left then behaves like the per-chunk model.
        dram = [log for log in writer.created_logs
                if log.tier is StorageTier.DRAM]
        if healthy and dram:
            model = _ChunkModel(capacity, chunk,
                                math.inf if device is None
                                else device.capacity)
            runs = model.append(length)
            if isinstance(one[0], list):  # not refused for want of space
                assert [(s.physical_address, s.length) for s in one[0]
                        if s.tier is StorageTier.DRAM] == runs
            assert one[3][StorageTier.DRAM] == sum(n for _a, n in runs)
            run_against_model(dram[0], model, ops, list(runs), device)
