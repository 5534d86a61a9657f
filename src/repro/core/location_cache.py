"""Client-side location cache (metadata fast path, docs/MODEL.md §9).

The paper's local-metadata shortcut: a per-client map of ``(FID, offset
range) -> (ProcID, VA)`` that lets reads (and the overwrite-free pass of
writes) resolve placement without searching the authoritative KV stores.
A cache hit skips the server-side store bisect entirely; the *simulated*
cost is unchanged — the client still charges the same per-range metadata
RPCs (``MetadataService.read_servers_for`` contacts the identical
servers, fires the identical failover telemetry, and raises the
identical unavailability errors), so the fast path is observation- and
timing-neutral by construction.

Coherence model — the cache only answers for files it has **tracked
since creation** (``begin_file`` at session creation, before any record
exists), and every accepted insert is written through with the same
``apply_insert`` algorithm the authoritative stores run.  A tracked
file's cache is therefore a byte-identical mirror, holes included, so a
miss *inside* a tracked file is authoritative ("unwritten bytes") rather
than a cache artifact.  Anything that could break the mirror drops the
file (or the whole cache) instead of patching it:

* **overwrite** — the write-through supersede trims overlapped entries
  exactly like the stores (the client admits each request before
  placing it, so no shipped batch applies only in part);
* **flush-driven layer migration** — flush completion drops the file
  (the cached VAs' layer association is no longer authoritative);
* **delete** — ``delete_file`` drops the file;
* **recovery takeover** — a metadata range takeover clears the whole
  cache (replica sets were rewritten under the client).

A dropped file is never re-tracked mid-life (records the client did not
see would be missing); it re-enters the cache only when the path is
recreated from scratch.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.metadata import MetadataRecord, apply_insert

__all__ = ["LocationCache"]


class LocationCache:
    """Per-client (fid, offset-range) -> (ProcID, VA) record cache."""

    def __init__(self, range_size: float):
        if range_size <= 0:
            raise ValueError(f"range_size must be positive, got {range_size}")
        self.range_size = float(range_size)
        # fid -> (sorted start offsets, records); same shape as one
        # authoritative store, but holding every range of the file.
        self._files: Dict[int, Tuple[List[int], List[MetadataRecord]]] = {}
        self._tracked: Set[int] = set()
        #: Host-side statistics (mirrored into Telemetry.counters by the
        #: call sites that can reach a telemetry sink).
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    # -- lifecycle ---------------------------------------------------------
    def begin_file(self, fid: int) -> None:
        """Start tracking a file.  Must be called before any record of
        ``fid`` exists (session creation): the empty cache is then a
        complete mirror and stays one via write-through."""
        if fid not in self._tracked:
            self._tracked.add(fid)
            self._files[fid] = ([], [])

    def invalidate_file(self, fid: int) -> bool:
        """Drop one file from the cache; returns True if it was tracked."""
        self._files.pop(fid, None)
        if fid in self._tracked:
            self._tracked.discard(fid)
            self.invalidations += 1
            return True
        return False

    def clear(self) -> int:
        """Drop everything (recovery takeover); returns files dropped."""
        dropped = len(self._tracked)
        self._files.clear()
        self._tracked.clear()
        self.invalidations += dropped
        return dropped

    def tracks(self, fid: int) -> bool:
        return fid in self._tracked

    def record_count(self, fid: int) -> int:
        entry = self._files.get(fid)
        return len(entry[1]) if entry else 0

    # -- write-through -----------------------------------------------------
    def insert_records(self, by_range: Mapping[int, Iterable[MetadataRecord]]
                       ) -> None:
        """Mirror an accepted insert batch, given as the range-local
        pieces the stores applied, grouped by range
        (:func:`~repro.core.metadata.pieces_by_range`); the pieces are
        applied as given, never cut again, one :func:`apply_insert` call
        per range.  Untracked fids are ignored — a partial mirror would
        be exactly the stale cache this class exists to prevent."""
        files = self._files
        range_size = self.range_size
        for pieces in by_range.values():
            tracked = [piece for piece in pieces if piece.fid in files]
            if tracked:
                apply_insert(files, tracked, range_size)

    # -- lookup ------------------------------------------------------------
    def lookup(self, fid: int, offset: int,
               length: int) -> Optional[List[MetadataRecord]]:
        """Records overlapping [offset, offset+length), clipped to it —
        identical to ``MetadataService.lookup``'s record list — or
        ``None`` when the file is not tracked (cache miss: consult the
        authoritative store).  An empty list on a tracked file is an
        authoritative hole, not a miss."""
        if length <= 0:
            # Degenerate request: nothing is resolved and no store search
            # is avoided, so it must not count as a hit or a miss —
            # counting before this validation inflated hit telemetry.
            return [] if fid in self._tracked else None
        if fid not in self._tracked:
            self.misses += 1
            return None
        self.hits += 1
        starts, recs = self._files[fid]
        end = offset + length
        lo = bisect.bisect_left(starts, offset)
        if lo > 0 and recs[lo - 1].end > offset:
            lo -= 1
        hi = bisect.bisect_left(starts, end, lo)
        found: List[MetadataRecord] = []
        for i in range(lo, hi):
            rec = recs[i]
            rec_end = rec.offset + rec.length
            if rec_end <= offset:
                continue
            if rec.offset >= offset and rec_end <= end:
                # Fully covered: share the frozen record, like the
                # authoritative lookup does.
                found.append(rec)
            else:
                found.append(rec.slice(max(rec.offset, offset),
                                       min(rec_end, end)))
        return found
