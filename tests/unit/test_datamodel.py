"""Unit + property tests for extent maps and payloads."""

import hashlib
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.datamodel import (
    BytesPayload,
    CorruptPayload,
    Extent,
    ExtentMap,
    PatternPayload,
    ZeroPayload,
)


class TestPayloads:
    def test_bytes_payload_slices(self):
        p = BytesPayload(b"hello world")
        assert p.materialize(0, 5) == b"hello"
        assert p.materialize(6, 5) == b"world"

    def test_bytes_payload_out_of_range(self):
        p = BytesPayload(b"abc")
        with pytest.raises(IndexError):
            p.materialize(1, 10)

    def test_pattern_deterministic(self):
        assert (PatternPayload(7).materialize(100, 64)
                == PatternPayload(7).materialize(100, 64))

    def test_pattern_seeds_differ(self):
        assert (PatternPayload(1).materialize(0, 64)
                != PatternPayload(2).materialize(0, 64))

    def test_pattern_slice_consistent_with_whole(self):
        whole = PatternPayload(3).materialize(0, 256)
        part = PatternPayload(3).materialize(100, 50)
        assert whole[100:150] == part

    def test_zero_payload_zeros(self):
        assert ZeroPayload().materialize(5, 4) == b"\x00" * 4

    def test_zero_payload_singleton(self):
        assert ZeroPayload() is ZeroPayload()

    @pytest.mark.parametrize("bad", [-1, -2 ** 70, 1.0, "3", None])
    def test_invalid_stream_ids_rejected(self, bad):
        with pytest.raises(ValueError, match="non-negative int"):
            PatternPayload(bad)
        with pytest.raises(ValueError, match="non-negative int"):
            CorruptPayload(bad)

    @pytest.mark.parametrize("seed", [2 ** 64 // 40503, 2 ** 64, 2 ** 100 + 3])
    def test_huge_seeds_follow_formula(self, seed):
        """Seeds past the old 64-bit product limit materialise per formula."""
        assert (PatternPayload(seed).materialize(2 ** 70, 600)
                == _pattern_ref(seed, 2 ** 70, 600))
        assert (CorruptPayload(seed).materialize(5, 600)
                == _corrupt_ref(seed, 5, 600))

    def test_same_source(self):
        assert PatternPayload(4).same_source(PatternPayload(4))
        assert not PatternPayload(4).same_source(PatternPayload(5))
        assert not PatternPayload(4).same_source(ZeroPayload())
        assert BytesPayload(b"x").same_source(BytesPayload(b"x"))


def _pattern_ref(seed, start, length):
    """The documented ``PatternPayload`` formula, one Python int per byte."""
    return bytes((i * 2654435761 + seed * 40503 + (i >> 8)) & 0xFF
                 for i in range(start, start + length))


def _corrupt_ref(token, start, length):
    """The documented ``CorruptPayload`` formula, one Python int per byte."""
    return bytes((i * 2246822519 + token * 65599 + 0xB17F) & 0xFF
                 for i in range(start, start + length))


PERIOD = 65536

# (seed, start, length): the edge cases named explicitly, then random draws.
_GOLDEN_CASES = [
    (0, 0, 0),                                 # empty
    (5, 3, 0),                                 # empty, unaligned
    (1, PERIOD - 10, 20),                      # crosses a period boundary
    (77, 3 * PERIOD - 1, PERIOD + 2),          # crosses two boundaries
    (9, 12345, 2 * PERIOD + 777),              # more than two periods
    (3, 2 ** 32 + PERIOD - 50, 300),           # start >= 2**32
    (2 ** 48 - 1, 2 ** 40 + 1, 5000),          # large seed and start
]
_rng = random.Random(20181)
for _ in range(12):
    _GOLDEN_CASES.append((
        _rng.randrange(2 ** 48),
        _rng.choice([_rng.randrange(4 * PERIOD),
                     _rng.randrange(2 ** 32, 2 ** 48)]),
        _rng.choice([0, _rng.randrange(1, 300),
                     _rng.randrange(PERIOD - 300, PERIOD + 300),
                     _rng.randrange(2 * PERIOD, 3 * PERIOD)]),
    ))


class TestGoldenBytes:
    """Payload bytes against the formulas, independent of the kernel."""

    @pytest.mark.parametrize("seed,start,length", _GOLDEN_CASES)
    def test_pattern_matches_formula(self, seed, start, length):
        assert (PatternPayload(seed).materialize(start, length)
                == _pattern_ref(seed, start, length))

    @pytest.mark.parametrize("seed,start,length", _GOLDEN_CASES)
    def test_corrupt_matches_formula(self, seed, start, length):
        token = seed % 2 ** 31
        assert (CorruptPayload(token).materialize(start, length)
                == _corrupt_ref(token, start, length))

    @pytest.mark.parametrize("payload,start,length,sha256", [
        (PatternPayload(0), 0, 1 << 20,
         "8a617978f8d249ab6b6027dc358b80b2b75f5d5e769a93cdf5b1aa9d215c5a5e"),
        (PatternPayload(123456789), 2 ** 33 + 5, 200000,
         "ec36cdba1d2eb9e07d58d88c574702e327fc1a46e99fc894a6a59738a3431baa"),
        (PatternPayload(2 ** 48 - 1), PERIOD - 1, 3 * PERIOD,
         "35909b0b43eda1c7fdb493d1ae12db91399a477bddd28185138f7c25c6a3fa30"),
        (CorruptPayload(2 ** 31 - 1), 7, 70000,
         "fcf39013f6d7b2aa1fe3128f3023f8d9baaabb25d48638b21e1169aa829c4e0d"),
    ])
    def test_pinned_digests(self, payload, start, length, sha256):
        data = payload.materialize(start, length)
        assert len(data) == length
        assert hashlib.sha256(data).hexdigest() == sha256


class TestExtent:
    def test_end(self):
        e = Extent(10, 5, ZeroPayload())
        assert e.end == 15

    def test_slice_preserves_payload_alignment(self):
        e = Extent(10, 10, PatternPayload(1), payload_offset=100)
        s = e.slice(12, 17)
        assert s.offset == 12 and s.length == 5
        assert s.payload_offset == 102

    def test_slice_out_of_range(self):
        e = Extent(10, 10, ZeroPayload())
        with pytest.raises(ValueError):
            e.slice(5, 12)

    def test_invalid_extent(self):
        with pytest.raises(ValueError):
            Extent(-1, 5, ZeroPayload())
        with pytest.raises(ValueError):
            Extent(0, 0, ZeroPayload())

    @pytest.mark.parametrize("value", [
        Extent(10, 5, PatternPayload(3), payload_offset=7),
        Extent(0, 4, BytesPayload(b"abcd")),
        Extent(4, 8, CorruptPayload(11), payload_offset=2),
        PatternPayload(2 ** 40),
        BytesPayload(b"xyz"),
        CorruptPayload(5),
    ])
    def test_slotted_and_pickle_round_trip(self, value):
        # Slots keep the per-instance dict out of the resident set; the
        # chaos campaign's worker pool pickles extents and payloads.
        assert not hasattr(value, "__dict__")
        assert pickle.loads(pickle.dumps(value)) == value

    def test_zero_payload_pickles_to_the_singleton(self):
        extent = pickle.loads(pickle.dumps(Extent(0, 3, ZeroPayload())))
        assert extent.payload is ZeroPayload()

    def test_abuts(self):
        a = Extent(0, 10, PatternPayload(1), 0)
        b = Extent(10, 5, PatternPayload(1), 10)
        c = Extent(10, 5, PatternPayload(1), 11)
        assert a.abuts(b)
        assert not a.abuts(c)


class TestExtentMapBasics:
    def test_empty(self):
        m = ExtentMap()
        assert m.size == 0
        assert m.bytes_stored == 0
        assert m.read(0, 10)[0].payload.same_source(ZeroPayload())

    def test_single_write_read_back(self):
        m = ExtentMap()
        m.write(100, 50, PatternPayload(1), 0)
        ext, = m.read(100, 50)
        assert ext.offset == 100 and ext.length == 50
        assert ext.payload.same_source(PatternPayload(1))

    def test_read_with_holes(self):
        m = ExtentMap()
        m.write(10, 10, PatternPayload(1))
        parts = m.read(0, 30)
        assert [(e.offset, e.length) for e in parts] == [
            (0, 10), (10, 10), (20, 10)]
        assert parts[0].payload.same_source(ZeroPayload())
        assert parts[2].payload.same_source(ZeroPayload())

    def test_overwrite_middle_splits(self):
        m = ExtentMap()
        m.write(0, 30, PatternPayload(1), 0)
        m.write(10, 10, PatternPayload(2), 0)
        exts = m.read(0, 30)
        assert [(e.offset, e.length, e.payload.describe()) for e in exts] == [
            (0, 10, "pattern[1]"),
            (10, 10, "pattern[2]"),
            (20, 10, "pattern[1]"),
        ]
        # The tail keeps its original payload alignment.
        assert exts[2].payload_offset == 20

    def test_overwrite_exact(self):
        m = ExtentMap()
        m.write(0, 10, PatternPayload(1))
        m.write(0, 10, PatternPayload(2))
        ext, = m.read(0, 10)
        assert ext.payload.same_source(PatternPayload(2))

    def test_adjacent_writes_merge(self):
        m = ExtentMap()
        m.write(0, 10, PatternPayload(1), 0)
        m.write(10, 10, PatternPayload(1), 10)
        assert len(m) == 1

    def test_non_continuation_does_not_merge(self):
        m = ExtentMap()
        m.write(0, 10, PatternPayload(1), 0)
        m.write(10, 10, PatternPayload(1), 0)  # restarts payload at 0
        assert len(m) == 2

    def test_size_tracks_last_byte(self):
        m = ExtentMap()
        m.write(100, 10, PatternPayload(1))
        assert m.size == 110

    def test_zero_length_write_noop(self):
        m = ExtentMap()
        m.write(0, 0, PatternPayload(1))
        assert len(m) == 0

    def test_read_bytes_materialises(self):
        m = ExtentMap()
        m.write(2, 3, BytesPayload(b"abc"))
        assert m.read_bytes(0, 7) == b"\x00\x00abc\x00\x00"

    def test_same_content(self):
        a, b = ExtentMap(), ExtentMap()
        a.write(0, 20, PatternPayload(1), 0)
        b.write(0, 10, PatternPayload(1), 0)
        b.write(10, 10, PatternPayload(1), 10)
        assert a.same_content(b, 0, 20)
        b.write(5, 1, PatternPayload(9), 0)
        assert not a.same_content(b, 0, 20)


# -- property-based tests ---------------------------------------------------

write_op = st.tuples(
    st.integers(min_value=0, max_value=200),   # offset
    st.integers(min_value=1, max_value=64),    # length
    st.integers(min_value=0, max_value=5),     # payload seed
    st.integers(min_value=0, max_value=100),   # payload offset
)


append_op = st.tuples(
    st.sampled_from(["continue"] * 6 + ["append"] * 2 + ["gap", "overwrite"]),
    st.integers(min_value=1, max_value=64),    # length
    st.integers(min_value=0, max_value=5),     # payload seed
    st.integers(min_value=1, max_value=80),    # gap size / distance back
)


class TestExtentMapProperties:
    @given(st.lists(write_op, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_bytes(self, ops):
        """The extent map must describe exactly the bytes a plain buffer holds."""
        m = ExtentMap()
        ref = bytearray(512)
        for offset, length, seed, poff in ops:
            m.write(offset, length, PatternPayload(seed), poff)
            ref[offset:offset + length] = PatternPayload(seed).materialize(
                poff, length)
        assert m.read_bytes(0, 512) == bytes(ref)

    @given(st.lists(write_op, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_invariants_hold(self, ops):
        m = ExtentMap()
        for offset, length, seed, poff in ops:
            m.write(offset, length, PatternPayload(seed), poff)
            m.check_invariants()

    @given(st.lists(write_op, max_size=20),
           st.integers(min_value=0, max_value=300),
           st.integers(min_value=1, max_value=100))
    @settings(max_examples=200, deadline=None)
    def test_read_covers_exactly_requested_range(self, ops, offset, length):
        m = ExtentMap()
        for o, l, s, p in ops:
            m.write(o, l, PatternPayload(s), p)
        parts = m.read(offset, length)
        assert parts[0].offset == offset
        assert parts[-1].end == offset + length
        for a, b in zip(parts, parts[1:]):
            assert a.end == b.offset

    @given(st.lists(append_op, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_append_heavy_matches_reference(self, ops):
        """Mostly sequential writes: continuations, gaps and an occasional
        overwrite behind the tail, like DHP log appends and flush copies."""
        m = ExtentMap()
        ref = bytearray()
        for kind, length, seed, back in ops:
            if kind == "overwrite" and ref:
                offset = max(0, len(ref) - back)
                m.write(offset, length, PatternPayload(seed), 0)
                data = PatternPayload(seed).materialize(0, length)
            else:
                last = m.extents[-1] if len(m) else None
                if kind == "continue" and last is not None:
                    offset, payload = last.end, last.payload
                    poff = last.payload_offset + last.length
                else:
                    offset = len(ref) + (back if kind == "gap" else 0)
                    payload, poff = PatternPayload(seed), 0
                before = len(m)
                m.write(offset, length, payload, poff)
                data = payload.materialize(poff, length)
                if kind == "continue" and last is not None:
                    # A continued stream stays one extent.
                    assert len(m) == before
                    assert m.extents[-1].offset == last.offset
            end = offset + length
            if end > len(ref):
                ref.extend(bytes(end - len(ref)))
            ref[offset:end] = data
            m.check_invariants()
        assert m.size == len(ref)
        assert m.read_bytes(0, len(ref)) == bytes(ref)

    @given(st.lists(write_op, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_bytes_stored_le_span(self, ops):
        m = ExtentMap()
        for o, l, s, p in ops:
            m.write(o, l, PatternPayload(s), p)
        assert m.bytes_stored <= m.size


def _reference_read(extents, offset, length):
    """Brute-force read: every extent clipped to the window, holes as
    zero extents, continuation pieces merged."""
    end = offset + length
    pieces, cursor = [], offset
    for ext in extents:
        lo, hi = max(ext.offset, offset), min(ext.end, end)
        if lo >= hi:
            continue
        if lo > cursor:
            pieces.append(Extent(cursor, lo - cursor, ZeroPayload()))
        pieces.append(Extent(lo, hi - lo, ext.payload,
                             ext.payload_offset + (lo - ext.offset)))
        cursor = hi
    if cursor < end:
        pieces.append(Extent(cursor, end - cursor, ZeroPayload()))
    merged = []
    for piece in pieces:
        prev = merged[-1] if merged else None
        if prev is not None and prev.end == piece.offset and (
                prev.abuts(piece)
                or (isinstance(prev.payload, ZeroPayload)
                    and isinstance(piece.payload, ZeroPayload))):
            merged[-1] = Extent(prev.offset, prev.length + piece.length,
                                prev.payload, prev.payload_offset)
        else:
            merged.append(piece)
    return merged


def _validated(ext):
    return Extent(ext.offset, ext.length, ext.payload, ext.payload_offset)


class TestDerivedExtents:
    """Slices, rebases, merges and holes skip the validating constructor
    and must still equal validated extents."""

    def test_slice_and_at_equal_validated_extents(self):
        ext = Extent(10, 20, PatternPayload(3), 5)
        part = ext.slice(14, 22)
        assert part == Extent(14, 8, PatternPayload(3), 9)
        assert hash(part) == hash(Extent(14, 8, PatternPayload(3), 9))
        moved = part.at(100)
        assert moved == Extent(100, 8, PatternPayload(3), 9)
        assert pickle.loads(pickle.dumps(moved)) == moved
        assert not hasattr(moved, "__dict__")
        with pytest.raises(ValueError):
            part.at(-1)
        with pytest.raises(ValueError):
            ext.slice(9, 12)

    @given(st.lists(write_op, max_size=30),
           st.lists(st.tuples(st.integers(0, 300), st.integers(1, 100)),
                    max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_stored_and_read_extents_equal_validated_ones(self, ops,
                                                          windows):
        m = ExtentMap()
        for offset, length, seed, poff in ops:
            m.write(offset, length, PatternPayload(seed), poff)
        for ext in m:
            assert ext == _validated(ext)
        for offset, length in windows:
            for ext in m.read(offset, length):
                assert ext == _validated(ext)

    @given(st.lists(write_op, min_size=1, max_size=30), st.data())
    @settings(max_examples=300, deadline=None)
    def test_read_equals_brute_force(self, ops, data):
        """Windows inside one extent (one bisect, no merge pass) and
        arbitrary windows read as the brute-force reference and the
        byte model say."""
        m = ExtentMap()
        ref = bytearray(512)
        for offset, length, seed, poff in ops:
            m.write(offset, length, PatternPayload(seed), poff)
            ref[offset:offset + length] = PatternPayload(seed).materialize(
                poff, length)
        extents = m.extents
        windows = []
        for _ in range(4):
            ext = data.draw(st.sampled_from(extents))
            lo = data.draw(st.integers(ext.offset, ext.end - 1))
            hi = data.draw(st.integers(lo + 1, ext.end))
            windows.append((lo, hi - lo))
            windows.append((data.draw(st.integers(0, 300)),
                            data.draw(st.integers(1, 200))))
        for offset, length in windows:
            got = m.read(offset, length)
            assert got == _reference_read(extents, offset, length)
            data_bytes = b"".join(e.materialize() for e in got)
            want = bytes(ref[offset:offset + length])
            assert data_bytes == want + bytes(length - len(want))

    @given(st.lists(st.tuples(st.sampled_from(["tail", "continue", "back"]),
                              st.integers(1, 40), st.integers(0, 3),
                              st.integers(0, 30)),
                    max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_extend_equals_write_one_at_a_time(self, ops):
        """Already-built extents taken at the tail (continuations merge)
        or, overlapping the map, through write: the map ``write`` leaves."""
        batches, built, size = [], [], 0
        for kind, length, seed, gap in ops:
            if kind == "continue" and built:
                last = built[-1]
                ext = Extent(last.end, length, last.payload,
                             last.payload_offset + last.length)
            elif kind == "back":
                ext = Extent(max(0, size - gap), length, PatternPayload(seed))
            else:
                ext = Extent(size + gap % 3, length, PatternPayload(seed),
                             gap)
            built.append(ext)
            size = max(size, ext.end)
            if gap % 4 == 0:
                batches.append(built)
                built = []
        batches.append(built)
        by_extend, by_write = ExtentMap(), ExtentMap()
        for batch in batches:
            by_extend.extend(batch)
            for ext in batch:
                by_write.write(ext.offset, ext.length, ext.payload,
                               ext.payload_offset)
            by_extend.check_invariants()
            assert by_extend.extents == by_write.extents
