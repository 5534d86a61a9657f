"""Data-plane version/epoch stamping (docs/MODEL.md §12).

The metadata plane got CAP-complete (quorum, lease fencing, range
epochs); the *data* plane's degraded read chain, however, trusted any
copy that passed checksum verification — so after a node crash wiped an
overwrite's only primary, an older replica or flushed PFS copy could be
served silently.  This module supplies the ordering that closes the gap:

* every write stamps an **authority map** (per session) with a
  monotonically increasing per-session write version plus the range
  epoch current at write time;
* every data *copy* (resilience replica log, flushed PFS file) carries a
  **copy map** stamped from the authority at copy time;
* the degraded read chain compares copy against authority per byte — a
  copy holding an older version for any byte of the requested span is
  **stale** and must never be served.

Maps are pure functional bookkeeping: stamping costs no simulated time
and emits no telemetry, so the stamps are observation-neutral for every
configuration (the golden chaos digests are bit-identical).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import List, Sequence, Tuple

_START = itemgetter(0)
_END = itemgetter(1)

__all__ = ["StaleSpan", "VersionMap", "stamp_with_epochs"]


@dataclass(frozen=True)
class StaleSpan:
    """One byte range where a copy lags the authority (provenance for
    :class:`~repro.core.errors.DataLossError` messages and chaos
    failure-cause reporting)."""

    start: int
    end: int
    have_version: int
    have_epoch: int
    want_version: int
    want_epoch: int

    def describe(self) -> str:
        return (f"[{self.start}, +{self.end - self.start}) holds "
                f"v{self.have_version} (epoch {self.have_epoch}), "
                f"current is v{self.want_version} "
                f"(epoch {self.want_epoch})")


class VersionMap:
    """Interval map ``offset -> (version, epoch)`` with overwrite splice.

    Spans are kept sorted and disjoint; bytes never stamped read back as
    version 0 / epoch 0 (older than any real write, so an unstamped copy
    can never satisfy a stamped authority).
    """

    __slots__ = ("_spans",)

    def __init__(self):
        # (start, end, version, epoch), sorted by start, disjoint.
        self._spans: List[Tuple[int, int, int, int]] = []

    def __len__(self) -> int:
        return len(self._spans)

    def stamp(self, offset: int, length: int, version: int,
              epoch: int = 0) -> None:
        """Record that [offset, offset+length) is at ``version`` of
        ``epoch``, superseding whatever the window held before."""
        if length <= 0:
            return
        start, end = int(offset), int(offset + length)
        self._splice(start, end, [(start, end, version, epoch)])

    def _splice(self, start: int, end: int,
                middle: List[Tuple[int, int, int, int]]) -> None:
        """Replace the window [start, end) with ``middle`` (sorted,
        disjoint spans inside the window), trimming the spans that
        straddle its edges."""
        spans = self._spans
        # Splice only the overlapped window (spans are sorted and
        # disjoint, so ends are sorted too): sessions accumulate one
        # span per rank-block and a full-list rebuild per stamp turns
        # a 1024-rank collective quadratic.
        i = bisect_right(spans, start, key=_END)   # first span ending past start
        j = bisect_left(spans, end, key=_START, lo=i)  # first span at/after end
        if i < j and spans[i][0] < start:
            s, _e, v, ep = spans[i]
            middle.insert(0, (s, start, v, ep))
        if i < j and spans[j - 1][1] > end:
            _s, e, v, ep = spans[j - 1]
            middle.append((end, e, v, ep))
        spans[i:j] = middle

    def spans(self, offset: int, length: int
              ) -> List[Tuple[int, int, int, int]]:
        """Stamped sub-spans overlapping the window, clipped to it, as
        ``(start, end, version, epoch)`` tuples.  Gaps are omitted."""
        if length <= 0:
            return []
        start, end = int(offset), int(offset + length)
        spans = self._spans
        out: List[Tuple[int, int, int, int]] = []
        for idx in range(bisect_right(spans, start, key=_END), len(spans)):
            span = spans[idx]
            s, e, v, ep = span
            if s >= end:
                break
            out.append(span if start <= s and e <= end
                       else (max(s, start), min(e, end), v, ep))
        return out

    def copy_from(self, authority: "VersionMap", offset: int,
                  length: int) -> None:
        """Stamp this (copy) map over the window with the authority's
        current spans — "this copy now reflects what the authority says
        those bytes are".  Used at copy time (replication, flush
        materialisation, scrub repair)."""
        for s, e, v, ep in authority.spans(offset, length):
            self.stamp(s, e - s, v, ep)

    def copy_from_cuts(self, authority: "VersionMap",
                       cuts: Sequence[int]) -> None:
        """:meth:`copy_from` over each window ``[cuts[k], cuts[k+1])``
        of a contiguous record run (``cuts`` strictly increasing), in one
        splice.  The spans left are exactly those of the per-window
        calls: the authority's spans cut at every window edge.  A gap in
        the authority keeps the copy's old spans there, so it takes the
        per-window path."""
        cuts = [int(c) for c in cuts]
        start, end = cuts[0], cuts[-1]
        auth = authority.spans(start, end - start)
        cursor = start
        for s, e, _v, _ep in auth:
            if s != cursor:
                break
            cursor = e
        if cursor != end:
            for lo, hi in zip(cuts, cuts[1:]):
                self.copy_from(authority, lo, hi - lo)
            return
        self._splice(start, end, _cut_at(auth, cuts))

    def stale_spans(self, authority: "VersionMap", offset: int,
                    length: int) -> List[StaleSpan]:
        """Byte ranges where this copy is older than the authority.

        Every byte the authority has stamped inside the window must be
        covered by this map at the same (or newer) version; unstamped
        copy bytes count as version 0.  Authority-unstamped bytes demand
        nothing (nothing was ever written there)."""
        stale: List[StaleSpan] = []
        for a_s, a_e, want_v, want_ep in authority.spans(offset, length):
            cursor = a_s
            for c_s, c_e, have_v, have_ep in self.spans(a_s, a_e - a_s):
                if c_s > cursor:
                    stale.append(StaleSpan(cursor, c_s, 0, 0,
                                           want_v, want_ep))
                if have_v < want_v:
                    stale.append(StaleSpan(c_s, c_e, have_v, have_ep,
                                           want_v, want_ep))
                cursor = c_e
            if cursor < a_e:
                stale.append(StaleSpan(cursor, a_e, 0, 0, want_v, want_ep))
        return stale

    def max_version(self) -> int:
        return max((v for _s, _e, v, _ep in self._spans), default=0)


def stamp_with_epochs(vmap: VersionMap, metadata, offset: int,
                      length: int, version: int,
                      cuts: Sequence[int] = ()) -> None:
    """Stamp an authority window with ``version``, splitting it at
    metadata range boundaries so every sub-span carries the range epoch
    current at stamp time (``metadata`` is a
    :class:`~repro.core.metadata.MetadataService`).

    ``cuts`` (strictly increasing, inside the window) are the request
    edges of a *stretch*: back-to-back requests of one op, each
    starting where the one before ends, stamped in one splice.  The
    spans left are exactly those of one call per request — an edge at
    every request edge and at every epoch change."""
    if length <= 0:
        return
    range_size = metadata.range_size
    start, end = int(offset), int(offset + length)
    first = int(start // range_size)
    last = int((end - 1) // range_size)
    # Coalesce consecutive ranges sharing an epoch into one span: in
    # the common case (no takeover ever bumped an epoch in the window)
    # a multi-MiB request is one span, not one per 64 KiB range.
    epoch_runs: List[Tuple[int, int, int, int]] = []
    run_start = start
    run_epoch = metadata.range_epoch(first)
    for range_index in range(first + 1, last + 1):
        epoch = metadata.range_epoch(range_index)
        if epoch == run_epoch:
            continue
        hi = int(range_index * range_size)
        epoch_runs.append((run_start, hi, version, run_epoch))
        run_start, run_epoch = hi, epoch
    epoch_runs.append((run_start, end, version, run_epoch))
    vmap._splice(start, end,
                 _cut_at(epoch_runs, [*(int(c) for c in cuts), end]))


def _cut_at(spans: Sequence[Tuple[int, int, int, int]],
            edges: Sequence[int]) -> List[Tuple[int, int, int, int]]:
    """Contiguous ``(start, end, version, epoch)`` spans cut at every
    edge (``edges`` strictly increasing, the last at the spans' end)."""
    middle: List[Tuple[int, int, int, int]] = []
    k = 0
    for s, e, v, ep in spans:
        while edges[k] <= s:
            k += 1
        edge = edges[k]
        while edge < e:
            middle.append((s, edge, v, ep))
            s = edge
            k += 1
            edge = edges[k]
        middle.append((s, e, v, ep))
    return middle
