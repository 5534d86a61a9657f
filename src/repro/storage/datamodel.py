"""File contents as extent maps over symbolic payloads.

The evaluation writes up to ``8192 procs x 256 MiB x 10 steps`` = 20 TiB of
data; holding real bytes is impossible, but the reproduction must still
*verify* that every read returns exactly what was written (that is the whole
point of UniviStor's addressing machinery).  The trick: data is described by
**payloads** — lazily sliceable content sources:

* :class:`BytesPayload` — literal bytes (for tests and metadata regions),
* :class:`PatternPayload` — a deterministic synthetic stream identified by a
  seed (what the VPIC/BD-CATS workload generators emit),
* :class:`ZeroPayload` — holes.

An :class:`ExtentMap` maps file offsets to payload slices with full
overwrite semantics.  Two maps describe identical bytes iff their
normalised extent lists are equal — and for small sizes the map can be
materialised to actual bytes to cross-check that claim.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.slotinit import slot_init

__all__ = [
    "Payload",
    "BytesPayload",
    "CorruptPayload",
    "PatternPayload",
    "ZeroPayload",
    "Extent",
    "ExtentMap",
]


class Payload:
    """Abstract content source addressed by a non-negative byte offset."""

    # Empty slots here let the slotted payload dataclasses below drop
    # their per-instance ``__dict__`` (a base without ``__slots__``
    # would give every instance one anyway).
    __slots__ = ()

    def materialize(self, start: int, length: int) -> bytes:
        """Return the literal bytes of ``[start, start + length)``."""
        raise NotImplementedError

    def same_source(self, other: "Payload") -> bool:
        """True if ``self`` and ``other`` are the same byte stream."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@slot_init
@dataclass(frozen=True, slots=True)
class BytesPayload(Payload):
    """Literal byte content (small data: metadata regions, test payloads)."""

    data: bytes

    def materialize(self, start: int, length: int) -> bytes:
        if start < 0 or start + length > len(self.data):
            raise IndexError(
                f"slice [{start}, {start + length}) outside payload of "
                f"{len(self.data)} bytes")
        return self.data[start:start + length]

    def same_source(self, other: Payload) -> bool:
        return isinstance(other, BytesPayload) and self.data == other.data

    def describe(self) -> str:
        return f"bytes[{len(self.data)}]"


#: ``_ADD[c:c + 256]`` is the :meth:`bytes.translate` table adding ``c``.
_ADD = bytes(range(256)) * 2
#: One period of pattern stream 0: byte ``j`` is
#: ``(177 * (j & 0xFF) + (j >> 8)) & 0xFF``, i.e. 256-byte row ``j >> 8`` is
#: row 0 plus ``j >> 8``.  Built from 256-byte pieces, with no temporary
#: larger than the table itself.
_PATTERN_ROW = bytes((177 * lo) & 0xFF for lo in range(256))
_PATTERN_TABLE = b"".join(_PATTERN_ROW.translate(_ADD[hi:hi + 256])
                          for hi in range(256))
#: One period of a corrupt stream before its token's constant is added:
#: byte ``j`` is ``(119 * j) & 0xFF``.
_CORRUPT_TABLE = bytes((119 * j) & 0xFF for j in range(256))


def _cyclic(table: bytes, start: int, length: int) -> bytes:
    """``length`` bytes of the endless repetition of ``table``, from stream
    offset ``start``."""
    period = len(table)
    off = start % period
    if off + length <= period:
        return table[off:off + length]
    whole, part = divmod(off + length - period, period)
    view = memoryview(table)
    return b"".join([view[off:], *[view] * whole, view[:part]])


def _check_stream_id(kind: str, name: str, value) -> None:
    if not isinstance(value, int) or value < 0:
        raise ValueError(
            f"{kind} {name} must be a non-negative int, got {value!r}")


@slot_init
@dataclass(frozen=True, slots=True)
class PatternPayload(Payload):
    """A deterministic infinite byte stream identified by ``seed``.

    Byte ``i`` of stream ``s`` is
    ``(i * 2654435761 + s * 40503 + (i >> 8)) & 0xFF`` — cheap, stable
    across runs, and differing seeds disagree almost everywhere, so payload
    mix-ups are caught by materialised comparisons in tests.

    ``seed`` is any non-negative ``int``.  Since 2654435761 is 177 mod
    256, byte ``i`` is ``(177 * (i & 0xFF) + (i >> 8) + 40503 * s) & 0xFF``:
    the stream repeats every 65536 bytes, and the seed only adds a
    constant to the high byte of ``i``, i.e. moves the start of stream 0 by
    ``((40503 * s) & 0xFF) * 256`` bytes.  :meth:`materialize` is therefore
    a slice of one precomputed period.
    """

    seed: int

    def __post_init__(self):
        _check_stream_id("pattern", "seed", self.seed)

    def materialize(self, start: int, length: int) -> bytes:
        if start < 0:
            raise IndexError(f"negative payload offset {start}")
        shift = ((self.seed * 40503) & 0xFF) << 8
        return _cyclic(_PATTERN_TABLE, start + shift, length)

    def same_source(self, other: Payload) -> bool:
        return isinstance(other, PatternPayload) and self.seed == other.seed

    def describe(self) -> str:
        return f"pattern[{self.seed}]"


@slot_init
@dataclass(frozen=True, slots=True)
class CorruptPayload(Payload):
    """Bit-rotted content: bytes whose stored checksum no longer matches.

    Injected by the ``data-corrupt`` fault (via :meth:`SimFile.corrupt_at`)
    in place of whatever payload previously covered the range.  The
    simulation models checksum verification as payload provenance: a clean
    copy still carries its original payload, a rotted one carries a
    ``CorruptPayload``, so "verify the checksum" is "is any piece of this
    range corrupt?".  Materialisation is deterministic garbage derived from
    ``token`` (the corruption event id), so even a run that *fails* to
    detect rot stays bit-reproducible.

    Byte ``i`` of token ``t`` (any non-negative ``int``) is
    ``(i * 2246822519 + t * 65599 + 0xB17F) & 0xFF``; 2246822519 is 119
    mod 256, so the stream repeats every 256 bytes.
    """

    token: int

    def __post_init__(self):
        _check_stream_id("corrupt", "token", self.token)

    def materialize(self, start: int, length: int) -> bytes:
        if start < 0:
            raise IndexError(f"negative payload offset {start}")
        add = (self.token * 65599 + 0xB17F) & 0xFF
        return _cyclic(_CORRUPT_TABLE, start, length).translate(
            _ADD[add:add + 256])

    def same_source(self, other: Payload) -> bool:
        return isinstance(other, CorruptPayload) and self.token == other.token

    def describe(self) -> str:
        return f"corrupt[{self.token}]"


class ZeroPayload(Payload):
    """All zeros — unwritten holes read as zeros, like POSIX."""

    _instance: Optional["ZeroPayload"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def materialize(self, start: int, length: int) -> bytes:
        if start < 0:
            raise IndexError(f"negative payload offset {start}")
        return bytes(length)

    def same_source(self, other: Payload) -> bool:
        return isinstance(other, ZeroPayload)

    def describe(self) -> str:
        return "zeros"


@slot_init
@dataclass(frozen=True, slots=True)
class Extent:
    """``length`` bytes at file ``offset`` drawn from ``payload`` at
    ``payload_offset``."""

    offset: int
    length: int
    payload: Payload
    payload_offset: int = 0

    def __post_init__(self):
        if self.offset < 0:
            raise ValueError(f"negative extent offset {self.offset}")
        if self.length <= 0:
            raise ValueError(f"non-positive extent length {self.length}")
        if self.payload_offset < 0:
            raise ValueError(f"negative payload offset {self.payload_offset}")

    @property
    def end(self) -> int:
        return self.offset + self.length

    def slice(self, start: int, end: int) -> "Extent":
        """Sub-extent covering file range [start, end) ⊆ [offset, end)."""
        if not (self.offset <= start < end <= self.end):
            raise ValueError(
                f"slice [{start}, {end}) outside extent [{self.offset}, {self.end})")
        # A slice of a valid extent is valid once the bounds check has
        # passed, so it skips the validating constructor.
        return _derived(start, end - start, self.payload,
                        self.payload_offset + (start - self.offset))

    def at(self, offset: int) -> "Extent":
        """The same bytes placed at file ``offset`` (a copy rebased from
        one file's address space into another's)."""
        if offset < 0:
            raise ValueError(f"negative extent offset {offset}")
        return _derived(offset, self.length, self.payload,
                        self.payload_offset)

    def materialize(self) -> bytes:
        return self.payload.materialize(self.payload_offset, self.length)

    def matches(self, other: "Extent") -> bool:
        """Same file range and identical content source/alignment."""
        return (self.offset == other.offset
                and self.length == other.length
                and self.payload_offset == other.payload_offset
                and self.payload.same_source(other.payload))

    def abuts(self, other: "Extent") -> bool:
        """True if ``other`` directly continues ``self`` in file and payload."""
        return (other.offset == self.offset + self.length
                and other.payload.same_source(self.payload)
                and other.payload_offset == self.payload_offset + self.length)


# The module-private constructor of extents derived from a valid extent
# (a slice, a rebase, a merge, a hole between valid extents):
# :func:`~repro.slotinit.slot_init`'s positional constructor, which
# stores the fields and skips ``__post_init__``.  Only for fields that
# are valid by construction (a non-negative offset and payload offset, a
# positive length); the public constructor still validates.
_derived = Extent._derived


class ExtentMap:
    """An ordered, non-overlapping set of extents with overwrite semantics.

    The invariant (checked by :meth:`check_invariants` and property tests):
    extents are sorted by offset, never overlap, and adjacent extents from
    the same payload stream are merged.
    """

    # One map per simulated file, tens of thousands per large run: slots
    # keep the per-instance dict out of the peak resident set.
    __slots__ = ("_starts", "_extents")

    def __init__(self):
        self._starts: List[int] = []
        self._extents: List[Extent] = []

    # -- queries ---------------------------------------------------------
    @property
    def extents(self) -> List[Extent]:
        return list(self._extents)

    @property
    def size(self) -> int:
        """One past the last written byte (0 if empty)."""
        return self._extents[-1].end if self._extents else 0

    @property
    def bytes_stored(self) -> int:
        return sum(e.length for e in self._extents)

    def __len__(self) -> int:
        return len(self._extents)

    def __iter__(self) -> Iterator[Extent]:
        return iter(self._extents)

    # -- mutation ----------------------------------------------------------
    def write(self, offset: int, length: int, payload: Payload,
              payload_offset: int = 0) -> None:
        """Overwrite file range [offset, offset+length) with payload bytes."""
        if length == 0:
            return
        new = Extent(offset, length, payload, payload_offset)
        extents = self._extents
        if not extents or offset >= extents[-1].end:
            self._append(new)
            return
        lo = bisect.bisect_left(self._starts, new.offset)
        # Step back to an extent that may overlap from the left.
        if lo > 0 and self._extents[lo - 1].end > new.offset:
            lo -= 1
        hi = lo
        keep_left: Optional[Extent] = None
        keep_right: Optional[Extent] = None
        while hi < len(self._extents) and self._extents[hi].offset < new.end:
            ext = self._extents[hi]
            if ext.offset < new.offset:
                keep_left = ext.slice(ext.offset, new.offset)
            if ext.end > new.end:
                keep_right = ext.slice(new.end, ext.end)
            hi += 1
        replacement = []
        if keep_left is not None:
            replacement.append(keep_left)
        replacement.append(new)
        if keep_right is not None:
            replacement.append(keep_right)
        self._extents[lo:hi] = replacement
        self._starts[lo:hi] = [e.offset for e in replacement]
        self._merge_around(lo, lo + len(replacement))

    def extend(self, extents: Iterable[Extent]) -> None:
        """Write already-built extents in order: the map :meth:`write`
        leaves one at a time.  An extent at or past the end of the map
        is taken as it is (copies land offset-sorted at the tail); one
        that overlaps the map, such as a re-flush over an existing file,
        goes through :meth:`write`."""
        mine = self._extents
        for ext in extents:
            if mine and ext.offset < mine[-1].offset + mine[-1].length:
                self.write(ext.offset, ext.length, ext.payload,
                           ext.payload_offset)
            else:
                self._append(ext)

    def _append(self, new: Extent) -> None:
        """Add ``new`` at or past the end of the map (log appends, flush
        copies): no overlap is possible and only the last extent can
        merge with it."""
        extents = self._extents
        if extents and extents[-1].abuts(new):
            last = extents[-1]
            extents[-1] = _derived(last.offset, last.length + new.length,
                                   last.payload, last.payload_offset)
        else:
            extents.append(new)
            self._starts.append(new.offset)

    def _merge_around(self, lo: int, hi: int) -> None:
        """Coalesce continuation extents in the window [lo-1, hi+1)."""
        i = max(0, lo - 1)
        while i + 1 < len(self._extents) and i < hi + 1:
            a, b = self._extents[i], self._extents[i + 1]
            if a.abuts(b):
                merged = _derived(a.offset, a.length + b.length, a.payload,
                                  a.payload_offset)
                self._extents[i:i + 2] = [merged]
                self._starts[i:i + 2] = [merged.offset]
                hi -= 1
            else:
                i += 1

    # -- reading ---------------------------------------------------------
    def read(self, offset: int, length: int) -> List[Extent]:
        """Extents covering [offset, offset+length); holes become zeros."""
        if offset < 0:
            raise ValueError(f"negative read offset {offset}")
        if length == 0:
            return []
        end = offset + length
        starts = self._starts
        extents = self._extents
        # The last extent starting at or before the window.
        lo = bisect.bisect_right(starts, offset) - 1
        if lo < 0:
            lo = 0
        else:
            ext = extents[lo]
            ext_end = ext.offset + ext.length
            if end <= ext_end:
                # The window lies inside one extent (a log read of one
                # record run): one piece and nothing to merge.
                if ext.offset == offset and ext_end == end:
                    return [ext]
                return [_derived(offset, length, ext.payload,
                                 ext.payload_offset + (offset - ext.offset))]
            if ext_end <= offset:
                lo += 1
        out: List[Extent] = []
        cursor = offset
        # Upper bound by bisect: iterating a tail *slice* copied the
        # whole remainder of the extent list on every read.
        hi = bisect.bisect_left(starts, end, lo)
        for i in range(lo, hi):
            ext = extents[i]
            ext_end = ext.offset + ext.length
            if ext.offset > cursor:
                out.append(_derived(cursor, ext.offset - cursor,
                                    ZeroPayload(), 0))
                cursor = ext.offset
            if cursor == ext.offset and ext_end <= end:
                # Fully-covered extent: share the frozen object instead
                # of allocating an identical copy.
                piece = ext
            else:
                piece = ext.slice(cursor, min(ext_end, end))
            out.append(piece)
            cursor = piece.offset + piece.length
        if cursor < end:
            out.append(_derived(cursor, end - cursor, ZeroPayload(), 0))
        # Coalesce continuation pieces so reads are provenance-normalised
        # (two zero holes, or two chunks of one payload stream, compare
        # equal regardless of how the writes were fragmented).
        merged: List[Extent] = []
        for piece in out:
            if merged and (merged[-1].abuts(piece)
                           or (isinstance(piece.payload, ZeroPayload)
                               and isinstance(merged[-1].payload, ZeroPayload)
                               and merged[-1].end == piece.offset)):
                prev = merged.pop()
                merged.append(_derived(prev.offset,
                                       prev.length + piece.length,
                                       prev.payload, prev.payload_offset))
            else:
                merged.append(piece)
        return merged

    def read_bytes(self, offset: int, length: int) -> bytes:
        """Materialise a read (test-sized data only)."""
        return b"".join(e.materialize() for e in self.read(offset, length))

    # -- verification ------------------------------------------------------
    def same_content(self, other: "ExtentMap", offset: int, length: int) -> bool:
        """True if both maps describe identical bytes over the range."""
        mine = _normalise(self.read(offset, length))
        theirs = _normalise(other.read(offset, length))
        return mine == theirs

    def check_invariants(self) -> None:
        """Raise AssertionError if internal invariants are violated."""
        assert self._starts == [e.offset for e in self._extents], \
            "starts index out of sync"
        for a, b in zip(self._extents, self._extents[1:]):
            assert a.end <= b.offset, f"overlap: {a} / {b}"
            assert not a.abuts(b), f"unmerged continuation: {a} / {b}"

    def describe(self) -> str:  # pragma: no cover - debugging aid
        return ", ".join(
            f"[{e.offset}+{e.length})<-{e.payload.describe()}@{e.payload_offset}"
            for e in self._extents) or "<empty>"


def _key(ext: Extent) -> Tuple[int, int, str, int]:
    return (ext.offset, ext.length, ext.payload.describe(), ext.payload_offset)


def _normalise(extents: List[Extent]) -> List[Tuple[int, int, str, int]]:
    return [_key(e) for e in extents]
