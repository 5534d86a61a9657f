"""The metadata service's per-file mirror (docs/MODEL.md §9).

The paper's local-metadata shortcut: a map of ``(FID, offset range) ->
(ProcID, VA)`` that answers placement lookups without searching the
authoritative KV stores.  :class:`~repro.core.metadata.MetadataService`
owns the one instance (built only with ``UniviStorConfig.location_cache``
on) and is its only user: callers ask ``MetadataService.lookup`` (or the
write path's ``overwritten``) and never pick a path.  A hit skips the
store search; the *simulated* cost is unchanged — the service charges
the same per-range routing as its store search (the identical servers,
failover telemetry and unavailability errors of
``MetadataService.read_servers_for``), so the mirror is observation-
and timing-neutral by construction.

Coherence model — the mirror only answers for files it has **tracked
since creation** (``MetadataService.create_file``, before any record
exists), and every accepted insert is written through with the same
range-local pieces and the same ``apply_insert`` algorithm the
authoritative stores run (a refused range is not written, in the stores
or here).  A tracked file's mirror is therefore a byte-identical copy,
holes included, so a miss *inside* a tracked file is authoritative
("unwritten bytes") rather than a mirror artifact.  An overwrite
supersedes mirrored entries exactly like the stores.  Anything that
could outdate the mirror drops the file, or the whole mirror, instead
of patching it; the service drops it on these metadata events:

* ``delete_file`` and the flush's layer migration (``drop_mirror``)
  drop the file;
* a range takeover (``recover_server`` when it moved a range),
  ``split_range``, ``merge_range``, ``set_read_spread`` when it moved
  pieces, ``add_server`` and ``remove_server`` drop every file.

A dropped file is never re-tracked mid-life (records the mirror did not
see would be missing); it re-enters only when the path is recreated
from scratch.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.metadata import MetadataRecord, apply_insert, clip_records

__all__ = ["LocationCache"]


class LocationCache:
    """Per-file (fid, offset-range) -> (ProcID, VA) mirror of the
    metadata stores."""

    def __init__(self, range_size: float):
        if range_size <= 0:
            raise ValueError(f"range_size must be positive, got {range_size}")
        self.range_size = float(range_size)
        #: fid -> (sorted start offsets, records) of every tracked file:
        #: the shape of one authoritative store, but holding every range
        #: of the file (``MetadataService.lookup`` searches it in place
        #: of the stores).
        self.files: Dict[int, Tuple[List[int], List[MetadataRecord]]] = {}

    # -- lifecycle ---------------------------------------------------------
    def begin_file(self, fid: int) -> None:
        """Start tracking a file.  Must be called before any record of
        ``fid`` exists (file creation): the empty mirror is then
        complete and stays so via write-through."""
        if fid not in self.files:
            self.files[fid] = ([], [])

    def invalidate_file(self, fid: int) -> bool:
        """Drop one file from the cache; returns True if it was tracked."""
        return self.files.pop(fid, None) is not None

    def clear(self) -> int:
        """Drop everything (a layout change); returns files dropped."""
        dropped = len(self.files)
        self.files.clear()
        return dropped

    def tracks(self, fid: int) -> bool:
        return fid in self.files

    def record_count(self, fid: int) -> int:
        entry = self.files.get(fid)
        return len(entry[1]) if entry else 0

    # -- write-through -----------------------------------------------------
    def insert_records(self, by_range: Mapping[int, Iterable[MetadataRecord]]
                       ) -> None:
        """Mirror an accepted insert batch, given as the range-local
        pieces the stores applied, grouped by range
        (:func:`~repro.core.metadata.pieces_by_range`); the pieces are
        applied as given, never cut again, all in one
        :func:`apply_insert` call (pieces of different ranges commute).
        Untracked fids are ignored — a partial mirror would be exactly
        the stale cache this class exists to prevent."""
        files = self.files
        apply_insert(files, (piece for pieces in by_range.values()
                             for piece in pieces if piece.fid in files),
                     self.range_size)

    # -- lookup ------------------------------------------------------------
    def lookup(self, fid: int, offset: int,
               length: int) -> Optional[List[MetadataRecord]]:
        """Records overlapping [offset, offset+length), clipped to it
        (:func:`~repro.core.metadata.clip_records`), or ``None`` when the
        file is not tracked (a miss: the service searches its stores).
        An empty list on a tracked file is an authoritative hole, not a
        miss."""
        if length <= 0:
            # Degenerate request: nothing to clip.
            return [] if fid in self.files else None
        entry = self.files.get(fid)
        if entry is None:
            return None
        found: List[MetadataRecord] = []
        clip_records(entry[0], entry[1], offset, offset + length, found)
        return found
