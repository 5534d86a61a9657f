"""Distributed metadata service (§II-B3) with optional replication.

One record per placed segment maps ``(FID, logical offset range)`` to
``(ProcID, VA)`` — Fig. 3's ``M1..M16``.  Records are partitioned into
fixed-width **offset ranges** and the ranges are assigned to servers
round-robin, so (a) no single server owns a whole file's metadata (the
scalability argument against the naive centralised map) and (b) a client
can compute the owning server of any offset locally — one RPC per lookup.

Replication (robustness extension): with ``replication >= 2`` every range
is mirrored onto the next ``replication - 1`` servers at ``replica_stride``
steps (a stride of ``servers_per_node`` keeps replicas off the primary's
node, so a node crash never takes a range's whole replica set).  Writes go
to every live replica; a client computes the replica set locally and reads
from the first live member — owner death costs nothing but the failover.
When every replica of a range is dead the range is gone:
:class:`MetadataUnavailableError`.

Recovery (self-healing extension): every accepted insert is also appended
to a **write-ahead journal** on durable shared storage, partitioned by
offset range (each server journals the ranges it owns; the segments
transfer with the range on takeover).  :meth:`recover_server` — driven by
the failure detector through :class:`~repro.core.recovery.RecoveryService`
— reassigns every range that lost a copy with the dead server to surviving
servers and rebuilds the missing copies by replaying the journal, so
lookups route to the new owner instead of failing over per-read forever,
and a range whose *whole* replica set died comes back instead of raising
``MetadataUnavailableError`` until the end of time.

Metadata fast path (perf extension, docs/MODEL.md §9): one insert path,
:meth:`insert_many`, which takes a batch of records in one range-ordered
pass (one journal ``extend`` per touched range; the first range that
cannot ack raises, earlier ranges stay applied), **merge-on-insert
compaction** inside the stores (adjacent contiguous records of the same
writer collapse, bounding the list length every lookup bisects over),
and **journal checkpoint + truncation** (once every replica of a range
is alive to acknowledge, the range's journal folds into a compacted
snapshot, so takeover replay cost stops growing with session lifetime).
Callers coalesce contiguous records with :func:`coalesce_records`
before the insert.  Routing is kept in a **route table** valid for one
routing generation (:attr:`MetadataService.generation`): a collective
computes each range's write ackers once, not once per request, and
every change to routing state starts a new generation.  All of it is
timing-neutral: the simulated cost accounting is unchanged, only the
simulator's own work shrinks.

Every placement lookup goes through :meth:`MetadataService.lookup` (the
write path's overwrite check through :meth:`~MetadataService.overwritten`).
With ``location_cache`` on, the service keeps a per-file **mirror** of
its stores (:class:`~repro.core.location_cache.LocationCache`): a file is
tracked from :meth:`~MetadataService.create_file`, every accepted insert
is written through, and the mirror is dropped on delete, flush migration
and every layout change.  A tracked file's lookup is answered from the
mirror, with the same routing charged, so callers never pick a path.

Hotspot mitigation (adaptive extension, docs/MODEL.md §11): a base
offset range can be **split online** into contiguous sub-ranges with
independent replica sets (:meth:`split_range` / :meth:`merge_range`), so
a skewed workload's inserts and lookups spread over several servers
instead of serialising on one owner.  The journal, checkpoints, epochs
and the stale/fence table all stay **base-range granular** — a split
range hands state off through exactly the journal-replay machinery a
takeover uses, and fencing a server fences it for every sub-range it
touches (conservative but always safe).  The server pool itself is
**elastic**: :meth:`add_server` pins every data-bearing range's current
assignment before extending the round-robin arithmetic, and
:meth:`remove_server` drains a retiree's memberships through quorum-
checked per-range migrations.  Read-hot ranges can be **re-replicated**
(:meth:`set_read_spread`) with rotating replica selection to cut lookup
fan-out.  When no mitigation state exists every new branch is a falsy
check: routing, cost accounting and digests are bit-identical to the
static assignment.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import chain, takewhile
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from repro.core.config import StorageTier
from repro.core.errors import DataLossError, QuorumLostError
from repro.slotinit import slot_init

__all__ = ["MetadataRecord", "MetadataService", "MetadataUnavailableError",
           "QuorumLostError", "coalesce_records", "split_record",
           "pieces_by_range", "record_run_end", "record_runs",
           "apply_insert", "clip_records"]


class MetadataUnavailableError(DataLossError):
    """Every replica of a metadata range has failed — its records are gone.

    A :class:`~repro.core.errors.DataLossError` subclass: losing the map
    to the data is losing the data, and the chaos harness's durability
    invariant treats both identically.
    """


def _mergeable(prev: "MetadataRecord", cur: "MetadataRecord") -> bool:
    """True when ``cur`` is the byte-exact continuation of ``prev``.

    Safe to merge only when the merged record resolves to the same bytes
    as the pair: same file, same writing process, same tier (a VA is only
    meaningful within one layer — contiguous VAs can straddle a layer
    boundary when a log fills exactly to capacity), same node, and both
    the logical offsets *and* the virtual addresses are contiguous.
    """
    return (prev.fid == cur.fid
            and prev.proc_id == cur.proc_id
            and prev.tier is cur.tier
            and prev.node_id == cur.node_id
            and prev.offset + prev.length == cur.offset
            and prev.va + prev.length == cur.va)


def _merge(prev: "MetadataRecord", cur: "MetadataRecord") -> "MetadataRecord":
    return _derived(prev.fid, prev.offset, prev.length + cur.length,
                    prev.proc_id, prev.va, prev.tier, prev.node_id)


def coalesce_records(
        records: Iterable["MetadataRecord"],
) -> Tuple[List["MetadataRecord"], int]:
    """Merge *immediately consecutive* contiguous records; returns
    ``(coalesced, merges)``.

    Only adjacent pairs in the stream are considered: merging across an
    intervening record could reorder an overwrite (a later overlapping
    record from another process must still supersede exactly the bytes
    it did before).  Streams from one collective write op are per-process
    runs of chunk records, so the common case collapses completely.
    """
    out: List[MetadataRecord] = []
    merges = 0
    for rec in records:
        if out and _mergeable(out[-1], rec):
            out[-1] = _merge(out[-1], rec)
            merges += 1
        else:
            out.append(rec)
    return out, merges


def split_record(record: "MetadataRecord",
                 range_size: float) -> Sequence["MetadataRecord"]:
    """Split a record at range boundaries so each piece has one owner;
    the pieces lie in consecutive ranges, the first in the record's.

    A record already inside one range — every piece of an aligned
    collective write — comes back unchanged, not copied.
    """
    start = offset = record.offset
    end = start + record.length
    index = int(start // range_size)
    if index == int((end - 1) // range_size):
        return (record,)
    fid, proc_id, va = record.fid, record.proc_id, record.va
    tier, node_id = record.tier, record.node_id
    pieces = []
    while start < end:
        index += 1
        cut = min(end, int(index * range_size))
        pieces.append(_derived(fid, start, cut - start, proc_id,
                               va + (start - offset), tier, node_id))
        start = cut
    return pieces


def pieces_by_range(records: Iterable["MetadataRecord"], range_size: float
                    ) -> Dict[int, List["MetadataRecord"]]:
    """Cut a batch into range-local pieces, grouped by range index in
    the order the batch first touches each range.  Ranges partition the
    offset space, so the grouping keeps every range's pieces in batch
    order and cannot reorder an overwrite.
    :meth:`MetadataService.insert_many` cuts its batch once and hands
    the grouping to both the stores and the mirror.

    The cut is :func:`split_record`'s, done inline in integer
    arithmetic on the whole-byte range width: the same pieces, and a
    record inside one range is kept, not copied."""
    size = int(range_size)
    by_range: Dict[int, List[MetadataRecord]] = {}
    get = by_range.get
    for record in records:
        start = record.offset
        end = start + record.length
        index = int(start // size)
        if index == int((end - 1) // size):
            pieces = get(index)
            if pieces is None:
                by_range[index] = [record]
            else:
                pieces.append(record)
            continue
        offset, va = start, record.va
        fid, proc_id = record.fid, record.proc_id
        tier, node_id = record.tier, record.node_id
        while start < end:
            cut = (index + 1) * size
            if cut >= end:
                cut = end
            piece = _derived(fid, start, cut - start, proc_id,
                             va + (start - offset), tier, node_id)
            pieces = get(index)
            if pieces is None:
                by_range[index] = [piece]
            else:
                pieces.append(piece)
            start = cut
            index += 1
    return by_range


def record_run_end(records: Sequence["MetadataRecord"], i: int) -> int:
    """One past the last index of the record run that starts at
    ``records[i]``: each record of a run is the byte-exact continuation
    of the one before (the :func:`_mergeable` rule, tested inline
    against the run's first record and the offset and VA its last record
    ends at)."""
    first = records[i]
    fid, proc, tier, node = first.fid, first.proc_id, first.tier, first.node_id
    end = first.offset + first.length
    va_end = first.va + first.length
    n = len(records)
    j = i + 1
    while j < n:
        rec = records[j]
        if (rec.offset != end or rec.va != va_end or rec.proc_id != proc
                or rec.tier is not tier or rec.node_id != node
                or rec.fid != fid):
            break
        end = rec.offset + rec.length
        va_end = rec.va + rec.length
        j += 1
    return j


def record_runs(records: Sequence["MetadataRecord"]
                ) -> List[List["MetadataRecord"]]:
    """Group offset-sorted records into maximal **record runs**
    (:func:`record_run_end`): same writer, tier and node, offsets and
    VAs both contiguous, so a run reads as one window of one log.
    Range boundaries do not cut runs; any other break does."""
    runs: List[List[MetadataRecord]] = []
    i, n = 0, len(records)
    while i < n:
        j = record_run_end(records, i)
        runs.append(records[i:j])
        i = j
    return runs


def apply_insert(store: Dict[int, Tuple[List[int], List["MetadataRecord"]]],
                 pieces: Iterable["MetadataRecord"],
                 range_size: float) -> None:
    """Insert range-local pieces, in order, into a ``fid -> (starts,
    records)`` interval store.  Each piece trims or removes the records
    it overlaps (an overwrite supersedes them), then the seams it
    created merge, never across a range boundary.  The result is the
    store that applying the pieces one at a time leaves; callers pass a
    whole range's pieces (they may be unsorted, overlap one another and
    mix fids) in one call.  One call may take several ranges' pieces,
    each range's in its order: no piece crosses a range and no merge
    does, so pieces of different ranges commute.

    Shared by the authoritative per-server stores, the journal
    checkpoint's scratch replay and the service's mirror
    (:class:`~repro.core.location_cache.LocationCache`), so every view
    holds byte-identical record lists by construction.
    """
    fid = None
    for piece in pieces:
        if piece.fid != fid:
            fid = piece.fid
            entry = store.get(fid)
            if entry is None:
                entry = store[fid] = ([], [])
            starts, recs = entry
        if recs:
            prev = recs[-1]
            if piece.offset < prev.offset + prev.length:
                _splice_insert(starts, recs, piece, range_size)
                continue
            # Tail append (the in-order case of every collective write):
            # nothing to trim, and the only seam the insert creates is
            # with the last record — the same in-range merge rule as the
            # splice path.
            if (_mergeable(prev, piece)
                    and int(prev.offset // range_size)
                    == int((piece.end - 1) // range_size)):
                recs[-1] = _merge(prev, piece)
                continue
        recs.append(piece)
        starts.append(piece.offset)


def _splice_insert(starts: List[int], recs: List["MetadataRecord"],
                   piece: "MetadataRecord", range_size: float) -> None:
    """:func:`apply_insert`'s general path: bisect to the overlapped
    window, splice the piece in, merge the seams around it."""
    lo = bisect.bisect_left(starts, piece.offset)
    if lo > 0 and recs[lo - 1].end > piece.offset:
        lo -= 1
    hi = lo
    keep_left: Optional[MetadataRecord] = None
    keep_right: Optional[MetadataRecord] = None
    while hi < len(recs) and recs[hi].offset < piece.end:
        old = recs[hi]
        if old.offset < piece.offset:
            keep_left = _cut(old, old.offset, piece.offset)
        if old.end > piece.end:
            keep_right = _cut(old, piece.end, old.end)
        hi += 1
    replacement = [r for r in (keep_left, piece, keep_right)
                   if r is not None]
    recs[lo:hi] = replacement
    starts[lo:hi] = [r.offset for r in replacement]
    # Merge the seams the insert created: recs[lo-1] through the record
    # after the replacement.  Merges never cross a range boundary —
    # replicas hold per-range piece streams, so an in-range merge is
    # identical on every copy (and pieces keep the "one owner per piece"
    # property the partitioning tests pin).
    j = max(lo, 1)
    end_idx = lo + len(replacement)
    while j <= end_idx and j < len(recs):
        prev, cur = recs[j - 1], recs[j]
        if (_mergeable(prev, cur)
                and int(prev.offset // range_size)
                == int((cur.end - 1) // range_size)):
            recs[j - 1:j + 1] = [_merge(prev, cur)]
            del starts[j]
            end_idx -= 1
        else:
            j += 1


@slot_init
@dataclass(frozen=True, slots=True)
class MetadataRecord:
    """Fig. 3's record: FID + offset -> source process + VA (+ locality)."""

    fid: int
    offset: int
    length: int
    proc_id: int
    va: float
    tier: StorageTier
    #: Compute node hosting the segment (meaningful for node-local tiers;
    #: the location-aware read service keys on this, §II-B4).
    node_id: Optional[int] = None

    def __post_init__(self):
        if self.offset < 0 or self.length <= 0:
            raise ValueError(f"invalid record range [{self.offset}, "
                             f"+{self.length})")

    @property
    def end(self) -> int:
        return self.offset + self.length

    def slice(self, start: int, end: int) -> "MetadataRecord":
        """Sub-record for [start, end) ⊆ [offset, end); VA advances too."""
        if not (self.offset <= start < end <= self.offset + self.length):
            raise ValueError(f"slice [{start}, {end}) outside record "
                             f"[{self.offset}, {self.end})")
        # A slice of a valid record is valid once the bounds check has
        # passed, so it skips the validating constructor: slice() sits
        # on the lookup/insert hot paths.
        return _cut(self, start, end)


# The module-private constructor of records derived from a valid record
# (a slice, a cut piece, a merge): :func:`~repro.slotinit.slot_init`'s
# positional constructor, which stores the fields and skips
# ``__post_init__``.  Only for fields that already passed validation (a
# non-negative offset and a positive length); the public constructor
# still validates.
_derived = MetadataRecord._derived


def _cut(record: MetadataRecord, start: int, end: int) -> MetadataRecord:
    """:meth:`MetadataRecord.slice` without its bounds check, for callers
    whose ``[start, end)`` lies inside ``record`` by construction; the
    VA advances by the same arithmetic."""
    return _derived(record.fid, start, end - start, record.proc_id,
                    record.va + (start - record.offset), record.tier,
                    record.node_id)


def clip_records(starts: List[int], recs: List[MetadataRecord], lo: int,
                 hi: int, found: List[MetadataRecord]) -> None:
    """Append the records of one ``(starts, records)`` interval list that
    overlap [lo, hi) to ``found``, clipped to it, in offset order — the
    search of every lookup, over a server's store or the mirror.  A
    record inside the span is shared (records are frozen), not copied."""
    first = bisect.bisect_left(starts, lo)
    if first > 0 and recs[first - 1].end > lo:
        first -= 1
    # Upper bound by bisect too: iterating a tail *slice* copied
    # O(records-per-server) per lookup.
    for i in range(first, bisect.bisect_left(starts, hi, first)):
        rec = recs[i]
        rec_end = rec.offset + rec.length
        if rec_end <= lo:
            continue
        if rec.offset >= lo and rec_end <= hi:
            found.append(rec)
        else:
            found.append(_cut(rec, max(rec.offset, lo), min(rec_end, hi)))


class MetadataService:
    """The distributed KV store over all UniviStor servers.

    The functional store is exact (interval lists per (server, fid));
    the *cost* of an operation is returned as the set of servers
    contacted, which the caller prices with the network model.
    """

    def __init__(self, n_servers: int, range_size: float,
                 replication: int = 1, replica_stride: int = 1,
                 checkpoint_threshold: int = 0, quorum: bool = False,
                 location_cache: bool = False):
        if n_servers < 1:
            raise ValueError(f"need at least one server, got {n_servers}")
        if range_size <= 0:
            raise ValueError(f"range_size must be positive, got {range_size}")
        if not float(range_size).is_integer():
            # Range boundaries are byte offsets: a fractional width puts
            # them between bytes and the cut makes empty pieces.
            raise ValueError(f"range_size must be a whole number of bytes, "
                             f"got {range_size}")
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        if replica_stride < 1:
            raise ValueError(
                f"replica_stride must be >= 1, got {replica_stride}")
        if checkpoint_threshold < 0:
            raise ValueError(f"checkpoint_threshold must be >= 0, got "
                             f"{checkpoint_threshold}")
        self.n_servers = n_servers
        self.range_size = float(range_size)
        # The same width as an int: the span walk's floor divisions stay
        # in integer arithmetic.
        self._range_bytes = int(range_size)
        self.replication = min(replication, n_servers)
        self.replica_stride = replica_stride
        #: Fold a range's journal into a compacted checkpoint once it
        #: reaches this many entries *and* every replica is alive to
        #: acknowledge.  0 disables truncation (journal grows unbounded,
        #: the pre-fast-path behaviour).
        self.checkpoint_threshold = checkpoint_threshold
        #: Checkpoint/truncation observability (host-side only).
        self.checkpoints_taken = 0
        self.journal_entries_truncated = 0
        #: Observer called as ``on_checkpoint(range_index, truncated)``
        #: after a journal truncation (telemetry counter wiring).
        self.on_checkpoint: Optional[Callable[[int, int], None]] = None
        #: Majority-quorum mode (CAP-complete failure model): writes need
        #: a majority of the replica set, reads repair lagging copies
        #: instead of skipping past them silently.
        self.quorum = quorum
        #: Servers whose partition is lost (crash injection).
        self.failed_servers: Set[int] = set()
        #: Servers that are alive but cut off by a network partition —
        #: requests to them are lost, so they can neither ack writes nor
        #: serve reads until the partition heals.
        self.unreachable_servers: Set[int] = set()
        #: Quorum/fencing observability (host-side only).
        self.read_repairs = 0
        self.fence_rejections = 0
        #: Observer called as ``on_read_repair(range_index, server)`` when
        #: a read brings a lagging replica current (telemetry wiring).
        self.on_read_repair: Optional[Callable[[int, int], None]] = None
        #: Observer called as ``on_fence_reject(range_index, server)``
        #: when a stale (fenced / lagging) copy is refused as a read or
        #: write target.
        self.on_fence_reject: Optional[Callable[[int, int], None]] = None
        #: Observer called as ``on_failover(range_index, server)`` when a
        #: read is served by a non-primary replica (telemetry wiring).
        self.on_failover: Optional[Callable[[int, int], None]] = None
        #: The per-file mirror of the stores (docs/MODEL.md §9), or None
        #: with ``location_cache`` off.
        self.location_cache = None
        if location_cache:
            from repro.core.location_cache import LocationCache
            self.location_cache = LocationCache(self.range_size)
        #: Observer called as ``on_cache_event(counter, n)`` for mirror
        #: hits, misses and drops: ``cache-hit`` / ``cache-miss`` once
        #: per lookup, ``cache-invalidate`` once per dropped file and
        #: once per overwrite check that found records on a hit
        #: (telemetry wiring).
        self.on_cache_event: Optional[Callable[[str, int], None]] = None
        # server -> fid -> (sorted start offsets, records)
        self._stores: List[Dict[int, Tuple[List[int], List[MetadataRecord]]]] = [
            dict() for _ in range(n_servers)]
        # Write-ahead journal, partitioned by range: every accepted insert
        # piece, in arrival order.  Models the durable per-server journal
        # segments on shared storage — it survives ``fail_server`` (which
        # only loses the in-memory partition) and is what ``recover_server``
        # replays to rebuild a range on its new owner.
        self._journal: Dict[int, List[MetadataRecord]] = {}
        # Compacted snapshot of everything truncated out of a range's
        # journal.  Replay order is checkpoint first, then the live
        # journal suffix — equivalent to replaying the full history.
        self._checkpoints: Dict[int, List[MetadataRecord]] = {}
        # Ranges whose replica set was rewritten by a takeover.  Absent
        # entries use the computed round-robin set, so the healthy-cluster
        # routing (and its cost accounting) is bit-identical to before.
        self._range_replicas: Dict[int, List[int]] = {}
        # Lease epoch per range (absent -> 0).  Bumped whenever ownership
        # is rewritten by a takeover; a copy written under an older epoch
        # is fenced until rebuilt.
        self._range_epoch: Dict[int, int] = {}
        # range -> servers holding a stale copy: members that missed a
        # quorum write while unreachable (lagging) or whose lease epoch
        # was superseded by a takeover (fenced).  Stale copies never
        # serve reads, never ack writes, and are invisible to
        # :meth:`records_of` until rebuilt from the journal.
        self._stale: Dict[int, Set[int]] = {}
        # -- hotspot mitigation state (docs/MODEL.md §11) ------------------
        # All empty/disabled by default; every consumer guards on
        # falsiness, so static-assignment routing (and digests) is
        # bit-identical until the first split, pool change, or heat bump.
        # base range -> sorted [(sub_start_offset, members), ...].  The
        # first sub always starts at the base range's low offset; a range
        # absent here is unsplit.
        self._splits: Dict[int, List[Tuple[int, List[int]]]] = {}
        # Explicit server pool (None until the first add/remove_server):
        # replaces the ``% n_servers`` arithmetic for ranges without a
        # pinned assignment, while every pre-existing data-bearing range
        # is pinned into _range_replicas before the pool first changes.
        self._pool: Optional[List[int]] = None
        # Retired (drained) servers: never spares, never split members.
        self._retired: Set[int] = set()
        # Read-hot ranges: rotation counter for replica selection, so
        # lookups fan out over the (possibly re-replicated) member set.
        self._read_spread: Dict[int, int] = {}
        #: Record per-range activity for :meth:`take_heat` (set by the
        #: :class:`~repro.core.hotspot.HotspotManager` when enabled).
        self.heat_enabled = False
        self._write_heat: Dict[int, int] = {}
        self._read_heat: Dict[int, int] = {}
        #: Hook fired when heat is recorded (the hotspot manager restarts
        #: its quiesced tick loop from it).
        self.on_activity: Optional[Callable[[], None]] = None
        #: Mitigation observability (host-side only).
        self.splits_done = 0
        self.merges_done = 0
        self.migrations_done = 0
        #: Routing generation: bumped (:meth:`_routing_changed`) by every
        #: change to the state a route depends on — failures,
        #: reachability, fences, layouts and epochs, read-spread and the
        #: server pool.
        self.generation = 0
        # The route table, valid for the current generation only (a bump
        # empties it): unsplit range -> the write ackers
        # :meth:`_write_ackers` computed.  Split ranges are never in it.
        self._ackers: Dict[int, Tuple[int, ...]] = {}

    def _routing_changed(self) -> None:
        """Start a new routing generation: every cached route is void."""
        self.generation += 1
        self._ackers.clear()

    def read_routing_silent(self) -> bool:
        """True when :meth:`read_server_of` can neither raise nor leave a
        trace for any range: heat recording is off, no server is failed,
        unreachable or stale, and no range is read-spread.  Every member
        set is non-empty, so its head then answers — no failover, fence
        rejection, read-repair or rotation can happen."""
        return not (self.heat_enabled or self.failed_servers
                    or self.unreachable_servers or self._stale
                    or self._read_spread)

    @property
    def record_count(self) -> int:
        return sum(len(recs) for store in self._stores
                   for _starts, recs in store.values())

    # -- partitioning ------------------------------------------------------
    def server_of(self, offset: int) -> int:
        """Owning server of ``offset``: range index round-robin (Fig. 3).

        With a split range, an elastic pool or a taken-over range the
        owner is the primary of the member set responsible at ``offset``."""
        if offset < 0:
            raise ValueError(f"negative offset {offset}")
        range_index = int(offset // self.range_size)
        if self._splits or self._pool is not None or self._range_replicas:
            return self._members_at(range_index, offset)[0]
        return range_index % self.n_servers

    def replica_servers(self, range_index: int) -> List[int]:
        """Replica set of a range, primary first.

        Client-computable from the range index alone on a healthy cluster;
        after a takeover the rewritten set is served from the (replicated)
        assignment table instead.  For a *split* range this is the ordered
        union of every sub-range's members (what checkpointing and
        recovery must account for); per-offset routing uses
        :meth:`_members_at`.
        """
        override = self._range_replicas.get(range_index)
        if override is not None:
            return list(override)
        subs = self._splits.get(range_index)
        if subs is not None:
            union: List[int] = []
            for _start, members in subs:
                for server in members:
                    if server not in union:
                        union.append(server)
            return union
        if self._pool is not None:
            pool = self._pool
            out: List[int] = []
            for k in range(self.replication):
                server = pool[(range_index + k * self.replica_stride)
                              % len(pool)]
                if server not in out:
                    out.append(server)
            return out
        out = []
        for k in range(self.replication):
            server = (range_index + k * self.replica_stride) % self.n_servers
            if server not in out:
                out.append(server)
        return out

    def _members_at(self, range_index: int,
                    offset: Optional[int] = None) -> List[int]:
        """Members responsible at ``offset`` inside the range — the
        sub-range's set when split, else the whole replica set.  With
        ``offset=None`` a split range answers with its member union."""
        subs = self._splits.get(range_index)
        if subs is None or offset is None:
            return self.replica_servers(range_index)
        members = subs[0][1]
        for start, sub_members in subs:
            if start <= offset:
                members = sub_members
            else:
                break
        return list(members)

    def _spans(self, offset: int, end: int
               ) -> Sequence[Tuple[int, int, int]]:
        """``(range_index, span_lo, span_hi)`` of every sub-range
        overlapping [offset, end), clipped to it, in offset order — an
        unsplit range is one sub-range.  The one walk every routing
        query runs; a span's ``span_lo`` picks its sub-range's members
        (:meth:`read_server_of`, :meth:`_write_ackers`)."""
        size = self._range_bytes
        splits = self._splits
        first = offset // size
        last = (end - 1) // size
        if first == last and not splits:
            # The hot case: one unsplit range, the request itself.
            return ((int(first), offset, end),)
        spans = []
        lo = offset
        for range_index in range(int(first), int(last) + 1):
            range_end = (range_index + 1) * size
            hi = end if end < range_end else range_end
            subs = splits.get(range_index) if splits else None
            if subs is None:
                spans.append((range_index, lo, hi))
            else:
                for i, (start, _members) in enumerate(subs):
                    sub_end = (subs[i + 1][0] if i + 1 < len(subs)
                               else range_end)
                    if sub_end > lo and start < hi:
                        spans.append((range_index, max(lo, start),
                                      min(hi, sub_end)))
            lo = hi
        return spans

    def _refused(self, err: DataLossError, fid: int, range_index: int,
                 offset: int, end: int) -> None:
        """Range-level detection, request-level reporting: name the
        refusing range's span, clipped to the request, on the error."""
        err.fid = fid
        err.offset = max(offset, int(range_index * self.range_size))
        err.length = (min(end, int((range_index + 1) * self.range_size))
                      - err.offset)

    def _note_write(self, range_index: int) -> None:
        self._write_heat[range_index] = (
            self._write_heat.get(range_index, 0) + 1)
        if self.on_activity is not None:
            self.on_activity()

    def _note_read(self, range_index: int) -> None:
        self._read_heat[range_index] = (
            self._read_heat.get(range_index, 0) + 1)
        if self.on_activity is not None:
            self.on_activity()

    def take_heat(self) -> Dict[int, Tuple[int, int]]:
        """Drain the per-range ``(writes, reads)`` recorded since the
        last call — the hotspot manager's decision input."""
        heat: Dict[int, Tuple[int, int]] = {}
        for range_index, n in self._write_heat.items():
            heat[range_index] = (n, 0)
        for range_index, n in self._read_heat.items():
            writes, _ = heat.get(range_index, (0, 0))
            heat[range_index] = (writes, n)
        self._write_heat.clear()
        self._read_heat.clear()
        return heat

    def read_server_of(self, range_index: int,
                       offset: Optional[int] = None) -> int:
        """First live, reachable, *current* replica of a range — the
        server a client reads from.

        A fenced or lagging copy never answers: with quorum mode a
        reachable one is **read-repaired** (journal replay) before
        selection, without it the copy is skipped.  Raises
        :class:`MetadataUnavailableError` when the whole replica set is
        dead, :class:`QuorumLostError` when live copies exist but none
        is reachable and current; fires :attr:`on_failover` when the
        intended replica is not the one answering.

        ``offset`` narrows a *split* range to the sub-range responsible
        for it; a range marked read-hot (:meth:`set_read_spread`) rotates
        which member answers, spreading lookup fan-out.
        """
        if self.heat_enabled:
            self._note_read(range_index)
        if (self.replication == 1 and not self.failed_servers
                and not self.unreachable_servers and not self._stale
                and not self._splits and not self._read_spread
                and self._pool is None):
            # Fast path: unreplicated healthy cluster with no mitigation
            # state — the primary *is* the replica set, no list to build.
            return range_index % self.n_servers
        stale = self._stale.get(range_index)
        if stale and self.quorum:
            # Read-repair: bring every reachable lagging copy current
            # from the journal before picking who answers.
            for server in sorted(stale):
                if (server not in self.failed_servers
                        and server not in self.unreachable_servers):
                    self._rebuild_copy(range_index, server)
                    self.read_repairs += 1
                    if self.on_read_repair is not None:
                        self.on_read_repair(range_index, server)
            stale = self._stale.get(range_index)
        replicas = self._members_at(range_index, offset)
        spread = self._read_spread.get(range_index)
        if spread is not None and len(replicas) > 1:
            # Read-hot range: rotate the intended replica.  Serving a
            # member other than the *rotated* head is still a failover.
            k = spread % len(replicas)
            self._read_spread[range_index] = spread + 1
            order = replicas[k:] + replicas[:k]
        else:
            order = replicas
        for server in order:
            if (server in self.failed_servers
                    or server in self.unreachable_servers):
                continue
            if stale and server in stale:
                # Fenced copy without quorum read-repair: it must not
                # answer — its records may predate the current epoch.
                self.fence_rejections += 1
                if self.on_fence_reject is not None:
                    self.on_fence_reject(range_index, server)
                continue
            if server != order[0] and self.on_failover is not None:
                self.on_failover(range_index, server)
            return server
        if all(s in self.failed_servers for s in replicas):
            raise MetadataUnavailableError(
                f"metadata range {range_index} lost: all replicas "
                f"{replicas} have failed")
        raise QuorumLostError(
            f"metadata range {range_index} unavailable: no reachable "
            f"current replica in {replicas} (partitioned or fenced)",
            range_index=range_index, acked=0,
            needed=(len(replicas) // 2 + 1) if self.quorum else 1)

    def fail_server(self, server: int) -> None:
        """A server process dies: its partition (all copies it held) is
        gone.  Surviving replicas keep their ranges readable."""
        if not 0 <= server < self.n_servers:
            raise ValueError(f"no server {server}")
        self.failed_servers.add(server)
        self._stores[server].clear()
        self._routing_changed()

    def set_unreachable(self, server: int) -> None:
        """A live server is cut off by a network partition: it can
        neither ack writes nor serve reads until the link heals."""
        if not 0 <= server < self.n_servers:
            raise ValueError(f"no server {server}")
        self.unreachable_servers.add(server)
        self._routing_changed()

    def set_reachable(self, server: int) -> None:
        """The partition healed for ``server``.  Copies that lagged or
        were fenced while it was away stay stale until read-repaired or
        rebuilt by a takeover — reachability is not currency."""
        self.unreachable_servers.discard(server)
        self._routing_changed()

    def range_epoch(self, range_index: int) -> int:
        """Current lease epoch of a range (0 until a takeover rewrites
        its ownership)."""
        return self._range_epoch.get(range_index, 0)

    def stale_members(self, range_index: int) -> Set[int]:
        """Servers holding a fenced or lagging copy of the range."""
        return set(self._stale.get(range_index, ()))

    def servers_for_range(self, offset: int, length: int) -> Set[int]:
        """All servers owning part of [offset, offset+length): the
        primary of every sub-range it touches."""
        if length <= 0:
            return set()
        return {self._members_at(range_index, lo)[0]
                for range_index, lo, _hi in self._spans(offset,
                                                        offset + length)}

    @staticmethod
    def _cut_at_subs(pieces: List[MetadataRecord],
                     subs: List[Tuple[int, List[int]]]
                     ) -> List[MetadataRecord]:
        """A *split* range's pieces, sliced again at its sub-range
        boundaries, so every journaled piece has exactly one responsible
        member set."""
        out: List[MetadataRecord] = []
        for piece in pieces:
            start = piece.offset
            while start < piece.end:
                nxt = piece.end
                for sub_start, _members in subs:
                    if sub_start > start:
                        nxt = min(nxt, sub_start)
                        break
                out.append(piece.slice(start, nxt))
                start = nxt
        return out

    # -- mutation ----------------------------------------------------------
    def _write_ackers(self, range_index: int,
                      offset: Optional[int] = None) -> Tuple[int, ...]:
        """Replica-set members that can ack a write to the range: alive,
        reachable, and current (not fenced).

        With quorum mode the write is rejected
        (:class:`QuorumLostError`) unless a strict majority of the
        *full* replica set can ack — the minority side of a partition
        must not apply a write the majority side could contradict after
        a takeover.  Without quorum any single acker suffices (the
        original any-replica-alive semantics), but a range whose live
        copies are all partitioned away still raises: there is nobody to
        apply the write to.

        ``offset`` narrows a *split* range to the sub-range responsible
        for it; quorum majorities are then over that sub's member set.

        An unsplit range's ackers are computed once per generation and
        then answered from the route table; the heat note fires on every
        call, and a refusal is never kept — it is recomputed and raised
        again.
        """
        if self.heat_enabled:
            self._note_write(range_index)
        ackers = self._ackers.get(range_index)
        if ackers is not None:
            return ackers
        ackers = tuple(self._compute_ackers(range_index, offset))
        if range_index not in self._splits:
            self._ackers[range_index] = ackers
        return ackers

    def _compute_ackers(self, range_index: int,
                        offset: Optional[int]) -> List[int]:
        """:meth:`_write_ackers` without the note and the route table."""
        replicas = self._members_at(range_index, offset)
        if not (self.unreachable_servers or self._stale):
            ackers = [s for s in replicas if s not in self.failed_servers]
        else:
            stale = self._stale.get(range_index, ())
            ackers = [s for s in replicas
                      if s not in self.failed_servers
                      and s not in self.unreachable_servers
                      and s not in stale]
        if not ackers:
            if all(s in self.failed_servers for s in replicas):
                raise MetadataUnavailableError(
                    f"metadata range {range_index} lost: all replicas "
                    f"{replicas} have failed")
            raise QuorumLostError(
                f"metadata range {range_index} unavailable: no reachable "
                f"current replica in {replicas}",
                range_index=range_index, acked=0,
                needed=(len(replicas) // 2 + 1) if self.quorum else 1)
        if self.quorum:
            needed = len(replicas) // 2 + 1
            if len(ackers) < needed:
                raise QuorumLostError(
                    f"metadata range {range_index}: only {len(ackers)} of "
                    f"{len(replicas)} replicas can ack, majority {needed} "
                    f"required", range_index=range_index,
                    acked=len(ackers), needed=needed)
        return ackers

    def _mark_missed(self, range_index: int, ackers: Sequence[int],
                     members: Optional[List[int]] = None) -> None:
        """Fence every live member that missed an accepted write: a
        lagging copy must not serve reads or ack writes until rebuilt
        from the journal (read-repair or takeover).  ``members`` narrows
        the check to a split sub-range's set (the fence itself stays
        base-range granular — conservative but always safe)."""
        replicas = (members if members is not None
                    else self.replica_servers(range_index))
        if len(ackers) == len(replicas):
            return
        for server in replicas:
            if server in ackers or server in self.failed_servers:
                continue
            self._fence(range_index, server)

    def _fence(self, range_index: int, server: int) -> None:
        """Mark the server's copy of the range stale.  Only a new fence
        changes routing: re-fencing a copy that is already stale (every
        write to the range while it lags) keeps the generation."""
        fenced = self._stale.setdefault(range_index, set())
        if server not in fenced:
            fenced.add(server)
            self._routing_changed()

    def insert_many(self, records: Iterable[MetadataRecord]) -> Set[int]:
        """Insert a batch (overwriting overlaps); returns servers contacted.

        One range-ordered pass: every record is cut once into range-local
        pieces (:func:`pieces_by_range`), and the ranges are handled in
        the order the batch first touches them.  Only a *split* range's
        pieces are cut again, at its sub-range boundaries.  Ranges
        partition the offset space, so grouping pieces by range cannot
        reorder an overwrite.  Per range, the ackers are checked before
        any piece is applied (every sub-range's, for a split range —
        :meth:`_write_ackers`); then the range's pieces are journaled
        with one ``extend`` (after the check: a rejected write must not
        be resurrected by a later takeover replay), each acker's copy
        takes them (:meth:`_admits`; a split range's pieces one at a
        time, on their sub-ranges' ackers), live members that missed
        them are fenced as stale, and the journal may checkpoint.

        The pieces an acker takes are applied to its store after the
        pass, in one :func:`apply_insert` call per acker: no piece
        crosses a range and no merge does, so the pieces of different
        ranges commute, and the call leaves the store the per-range
        calls would.  The mirror is written through with the range-local
        pieces, before any sub-range cut, in one call.

        The first range that cannot ack raises, with the fid, offset and
        length of the refused piece attached.  Every earlier range stays
        applied, journaled and mirrored; the refused range and every
        later one are left untouched.
        """
        by_range = pieces_by_range(records, self._range_bytes)
        mirror = self.location_cache
        splits = self._splits
        touched: Set[int] = set()
        admits = self._admits
        # acker -> the piece lists its copy takes, range by range (the
        # lists themselves: a batch's pieces are not copied).
        taken: Dict[int, List[Sequence[MetadataRecord]]] = {}
        try:
            for range_index, pieces in by_range.items():
                subs = splits.get(range_index)
                split = subs is not None
                if split and len(subs) > 1:
                    pieces = self._cut_at_subs(pieces, subs)
                # The piece a refusal names: the range's first, or for a
                # split range the first whose sub-range cannot ack.
                piece = pieces[0]
                try:
                    if split:
                        # Each piece routes to its sub-range's member set
                        # (pieces are already sliced at sub boundaries).
                        per_piece = []
                        for piece in pieces:
                            per_piece.append(
                                self._write_ackers(range_index, piece.offset))
                    else:
                        ackers = self._write_ackers(range_index)
                except DataLossError as err:
                    err.fid = piece.fid
                    err.offset = piece.offset
                    err.length = piece.length
                    if mirror is not None:
                        mirror.insert_records({
                            done: by_range[done] for done in
                            takewhile(range_index.__ne__, by_range)})
                    raise
                self._journal.setdefault(range_index, []).extend(pieces)
                if split:
                    for piece, ackers in zip(pieces, per_piece):
                        for server in ackers:
                            touched.add(server)
                            if admits(server, range_index, (piece,)):
                                taken.setdefault(server, []).append(
                                    (piece,))
                        if self.unreachable_servers or self._stale:
                            self._mark_missed(
                                range_index, ackers,
                                self._members_at(range_index, piece.offset))
                else:
                    for server in ackers:
                        touched.add(server)
                        if admits(server, range_index, pieces):
                            taken.setdefault(server, []).append(pieces)
                    if self.unreachable_servers or self._stale:
                        self._mark_missed(range_index, ackers)
                self._maybe_checkpoint(range_index)
        finally:
            stores = self._stores
            for server, lists in taken.items():
                apply_insert(stores[server], chain.from_iterable(lists),
                             self.range_size)
        if mirror is not None:
            mirror.insert_records(by_range)
        return touched

    def _admits(self, server: int, range_index: int,
                pieces: Sequence[MetadataRecord]) -> bool:
        """True when the server's copy of the range takes the pieces.
        The fencing enforcement point: a stale-epoch copy refuses the
        write even if some path routes one here — the rebuilt journal
        replay is the only way back to currency.  The check is per
        (server, range); each refused piece still counts and reports
        once."""
        if self._stale and server in self._stale.get(range_index, ()):
            self.fence_rejections += len(pieces)
            if self.on_fence_reject is not None:
                for _piece in pieces:
                    self.on_fence_reject(range_index, server)
            return False
        return True

    def _insert_pieces(self, server: int, range_index: int,
                       pieces: Sequence[MetadataRecord]) -> None:
        """Apply one range's pieces to the server's store in one
        :func:`apply_insert` call, if its copy takes them
        (:meth:`_admits`)."""
        if self._admits(server, range_index, pieces):
            apply_insert(self._stores[server], pieces, self.range_size)

    # -- journal checkpointing ---------------------------------------------
    def _maybe_checkpoint(self, range_index: int) -> None:
        """Truncate a range's journal behind a compacted checkpoint.

        Fires when the live journal reaches ``checkpoint_threshold``
        entries and **every** replica of the range is alive to
        acknowledge the batch (a dead replica has not acked; its rebuild
        keeps the full journal until it is recovered or replaced).  The
        checkpoint is the scratch-replay of (old checkpoint + journal):
        exactly the record list a store holds for the range, so replaying
        checkpoint-then-suffix reproduces what replaying the full history
        would have.  The journal key survives (emptied, not deleted) —
        range ownership is discovered by iterating journal keys.
        """
        threshold = self.checkpoint_threshold
        if threshold <= 0:
            return
        journal = self._journal.get(range_index)
        if not journal or len(journal) < threshold:
            return
        stale = self._stale.get(range_index, ())
        for server in self.replica_servers(range_index):
            if (server in self.failed_servers
                    or server in self.unreachable_servers
                    or server in stale):
                return
        scratch: Dict[int, Tuple[List[int], List[MetadataRecord]]] = {}
        apply_insert(scratch, self.journal_records(range_index),
                     self.range_size)
        snapshot: List[MetadataRecord] = []
        for f in sorted(scratch):
            snapshot.extend(scratch[f][1])
        truncated = len(journal)
        self._checkpoints[range_index] = snapshot
        self._journal[range_index] = []
        self.checkpoints_taken += 1
        self.journal_entries_truncated += truncated
        if self.on_checkpoint is not None:
            self.on_checkpoint(range_index, truncated)

    # -- the mirror's lifecycle ---------------------------------------------
    def create_file(self, fid: int) -> None:
        """A new file: no record of ``fid`` exists yet, so the mirror
        (when on) tracks it from here and stays complete by
        write-through."""
        if self.location_cache is not None:
            self.location_cache.begin_file(fid)

    def drop_mirror(self, fid: int) -> None:
        """Stop answering ``fid`` from the mirror (delete, and the flush's
        layer migration); a dropped file is never tracked again."""
        if (self.location_cache is not None
                and self.location_cache.invalidate_file(fid)
                and self.on_cache_event is not None):
            self.on_cache_event("cache-invalidate", 1)

    def _drop_mirrors(self) -> None:
        """A layout change: every tracked file leaves the mirror."""
        if self.location_cache is not None:
            dropped = self.location_cache.clear()
            if dropped and self.on_cache_event is not None:
                self.on_cache_event("cache-invalidate", dropped)

    def delete_file(self, fid: int) -> Set[int]:
        """Drop all records of ``fid``; returns servers contacted."""
        touched = set()
        for server, store in enumerate(self._stores):
            if fid in store:
                touched.add(server)
                del store[fid]
        for range_index in list(self._journal.keys() | self._checkpoints.keys()):
            entries = self._journal.get(range_index, [])
            kept = [p for p in entries if p.fid != fid]
            ck = [p for p in self._checkpoints.get(range_index, ())
                  if p.fid != fid]
            if ck:
                self._checkpoints[range_index] = ck
            else:
                self._checkpoints.pop(range_index, None)
            if kept or ck:
                self._journal[range_index] = kept
            elif range_index in self._journal:
                del self._journal[range_index]
        self.drop_mirror(fid)
        return touched

    # -- recovery (range takeover) -----------------------------------------
    def journal_records(self, range_index: int) -> List[MetadataRecord]:
        """What a takeover must replay for a range, in replay order:
        the compacted checkpoint (if any) followed by the live journal
        suffix.  With truncation enabled this is what bounds replay cost
        for long-lived sessions."""
        checkpoint = self._checkpoints.get(range_index)
        suffix = self._journal.get(range_index, ())
        if checkpoint:
            return list(checkpoint) + list(suffix)
        return list(suffix)

    def _layout(self, range_index: int) -> List[Tuple[int, List[int]]]:
        """The ``(sub_start_offset, members)`` layout of a range, in offset
        order.  An unsplit range is one sub-range covering the whole range
        whose members are :meth:`replica_servers` — so takeover, migration
        and rebuild run one algorithm over sub-ranges."""
        subs = self._splits.get(range_index)
        if subs is not None:
            return subs
        return [(int(range_index * self.range_size),
                 self.replica_servers(range_index))]

    def _sub_spans(self, range_index: int) -> List[Tuple[int, int, List[int]]]:
        """``(lo, hi, members)`` of every sub-range in :meth:`_layout`."""
        subs = self._layout(range_index)
        ends = [start for start, _members in subs[1:]]
        ends.append(int((range_index + 1) * self.range_size))
        return [(start, end, members)
                for (start, members), end in zip(subs, ends)]

    def _bump_epoch(self, range_index: int) -> None:
        """A new lease epoch: the range's layout changed (takeover,
        split, merge, re-replication, migration), so routes move too."""
        self._range_epoch[range_index] = (
            self._range_epoch.get(range_index, 0) + 1)
        self._routing_changed()

    def _commit_layout(self, range_index: int,
                       subs: List[Tuple[int, List[int]]]) -> None:
        """Write a changed layout back to whichever of ``_splits`` /
        ``_range_replicas`` held it, under a new lease epoch."""
        if range_index in self._splits:
            self._splits[range_index] = subs
        else:
            self._range_replicas[range_index] = subs[0][1]
        self._bump_epoch(range_index)

    def recover_server(self, dead: int) -> List[Tuple[int, int]]:
        """Reassign every range that lost a copy with server ``dead``.

        For each journaled range with ``dead`` among its members, every
        sub-range (an unsplit range is one) that lost a copy — to
        ``dead`` or to any other failed, unreachable, retired or stale
        member — keeps its surviving current members at the head of its
        set and is refilled to its own size with spares picked
        round-robin from the sub's home position.  A spare is never a
        stale copy: a fenced ex-member must not be promoted back by a
        takeover, only rebuilt by read-repair.  Each spare's copy is
        rebuilt by replaying the sub's span of the write-ahead journal,
        so a range with any live copy keeps answering from it.

        Returns ``(range_index, new_primary)`` for every range whose
        layout changed.  Idempotent: a second call for the same death
        finds the rewritten sets already free of failed members.

        ``dead`` may also be a *fenced* server (lease expired while
        partitioned): it is excluded the same way, and — being alive —
        is marked stale on every range it loses, so a healed partition
        finds its old lease superseded rather than a range it can still
        serve.  Every layout rewrite bumps the range's lease epoch.
        Fencing is base-range granular: a live ex-member of any sub is
        fenced for the whole range, which is safe because the exclusion
        reasons are server-wide and remove it from every sub it held.
        """
        if not 0 <= dead < self.n_servers:
            raise ValueError(f"no server {dead}")
        excluded = (self.failed_servers | self.unreachable_servers
                    | self._retired)
        actions: List[Tuple[int, int]] = []
        for range_index in sorted(self._journal.keys()
                                  | self._checkpoints.keys()):
            spans = self._sub_spans(range_index)
            if not any(dead in members for _lo, _hi, members in spans):
                continue
            stale = self._stale.get(range_index, ())
            new_subs: List[Tuple[int, List[int]]] = []
            fenced: List[int] = []
            changed = False
            for i, (start, end, members) in enumerate(spans):
                new_set = [s for s in members
                           if s not in excluded and s not in stale]
                kept = len(new_set)
                for k in range(self.n_servers):
                    if len(new_set) >= len(members):
                        break
                    cand = (range_index + i + k) % self.n_servers
                    if (cand not in excluded and cand not in stale
                            and cand not in new_set):
                        new_set.append(cand)
                if new_set == members or not new_set:
                    # Intact, or the whole pool is down for this sub: the
                    # assignment stays (and a lost sub stays lost).
                    new_subs.append((start, members))
                    continue
                for server in new_set[kept:]:
                    self._rebuild_span(range_index, server, start, end)
                new_subs.append((start, new_set))
                changed = True
                fenced.extend(s for s in members if s not in new_set
                              and s not in self.failed_servers)
            if not changed:
                continue
            self._commit_layout(range_index, new_subs)
            for server in fenced:
                self._fence(range_index, server)
            actions.append((range_index, new_subs[0][1][0]))
        if actions:
            self._drop_mirrors()
        return actions

    def _rebuild_copy(self, range_index: int, server: int) -> None:
        """Bring a stale copy current: clear the fence, then rebuild the
        sub-spans the server is a member of from the journal — the full
        accepted history, missed writes included — and drop the rest (a
        fenced ex-member comes back empty and current)."""
        members = self._stale.get(range_index)
        if members is not None:
            members.discard(server)
            if not members:
                del self._stale[range_index]
        self._routing_changed()
        for start, end, sub_members in self._sub_spans(range_index):
            if server in sub_members:
                self._rebuild_span(range_index, server, start, end)
            else:
                self._drop_span(server, start, end)

    def _drop_span(self, server: int, lo: int, hi: int) -> None:
        """Discard what the server holds inside [lo, hi), slicing records
        that straddle a boundary — unlike base-range boundaries, in-store
        compaction *can* merge records across a sub-range boundary."""
        store = self._stores[server]
        for fid in list(store):
            _starts, recs = store[fid]
            if not recs or recs[-1].end <= lo or recs[0].offset >= hi:
                continue
            keep: List[MetadataRecord] = []
            changed = False
            for rec in recs:
                if rec.end <= lo or rec.offset >= hi:
                    keep.append(rec)
                    continue
                changed = True
                if rec.offset < lo:
                    keep.append(rec.slice(rec.offset, lo))
                if rec.end > hi:
                    keep.append(rec.slice(hi, rec.end))
            if not changed:
                continue
            if keep:
                store[fid] = ([r.offset for r in keep], keep)
            else:
                del store[fid]

    def _rebuild_span(self, range_index: int, server: int,
                      lo: int, hi: int) -> int:
        """Replace the server's copy of [lo, hi) with the slice of the
        range's accepted history inside it — checkpoint first, then the
        journal suffix — the handoff path of takeover, split, merge,
        re-replication and migration.  Returns pieces applied (the
        handoff volume)."""
        self._drop_span(server, lo, hi)
        pieces: List[MetadataRecord] = []
        for piece in self.journal_records(range_index):
            if piece.end <= lo or piece.offset >= hi:
                continue
            if piece.offset < lo or piece.end > hi:
                piece = piece.slice(max(piece.offset, lo),
                                    min(piece.end, hi))
            pieces.append(piece)
        self._insert_pieces(server, range_index, pieces)
        return len(pieces)

    # -- hotspot mitigation ops (docs/MODEL.md §11) ------------------------
    def sub_ranges(self, range_index: int) -> List[Tuple[int, List[int]]]:
        """The ``(sub_start_offset, members)`` layout of a range — one
        entry covering the whole range when unsplit (introspection)."""
        return [(start, list(members))
                for start, members in self._layout(range_index)]

    def pool_servers(self) -> List[int]:
        """Servers currently in the placement pool (non-retired)."""
        return self._active_pool()

    @property
    def retired_servers(self) -> Set[int]:
        return set(self._retired)

    def _active_pool(self) -> List[int]:
        if self._pool is not None:
            return list(self._pool)
        return list(range(self.n_servers))

    def _require_quorum(self, range_index: int, members: List[int],
                        verb: str) -> List[int]:
        """Refuse a mitigation op that a majority (or, without quorum
        mode, any) of ``members`` cannot acknowledge — a split, merge or
        migration decided on the minority side of a partition could
        contradict the majority's epoch after it heals.  Returns the
        live, current members."""
        stale = self._stale.get(range_index, ())
        live = [s for s in members
                if s not in self.failed_servers
                and s not in self.unreachable_servers
                and s not in stale]
        needed = (len(members) // 2 + 1) if self.quorum else 1
        if len(live) < needed:
            raise QuorumLostError(
                f"metadata range {range_index}: cannot {verb}, only "
                f"{len(live)} of {len(members)} members can ack "
                f"({needed} required)", range_index=range_index,
                acked=len(live), needed=needed)
        return live

    def _pick_members(self, range_index: int, count: int,
                      avoid: Iterable[int], rotate: int = 0) -> List[int]:
        """Pick up to ``count`` healthy, current, non-retired members for
        a (sub-)range, walking the pool round-robin from the range's home
        position plus ``rotate`` and preferring servers outside ``avoid``
        (the already-loaded members)."""
        avoid = set(avoid)
        stale = self._stale.get(range_index, ())
        pool = self._active_pool()
        ordered = [pool[(range_index + rotate + k) % len(pool)]
                   for k in range(len(pool))]
        usable = [s for s in ordered
                  if s not in self.failed_servers
                  and s not in self.unreachable_servers
                  and s not in stale]
        # Prefer the servers carrying the fewest of this range's subs:
        # repeated splits would otherwise pile sub-ranges onto the walk's
        # first healthy servers and re-create the hotspot being split
        # away.  The sort is stable, so the rotated walk order still
        # breaks ties deterministically.
        load: Dict[int, int] = {}
        for _start, members in self._splits.get(range_index, ()):
            for s in members:
                load[s] = load.get(s, 0) + 1
        usable.sort(key=lambda s: load.get(s, 0))
        picked = [s for s in usable if s not in avoid][:count]
        for server in usable:
            if len(picked) >= count:
                break
            if server not in picked:
                picked.append(server)
        return picked

    def split_range(self, range_index: int) -> int:
        """Split the widest sub-range of ``range_index`` at its midpoint,
        handing the upper half to a (preferably fresh) member set.

        The op drains through quorum (:meth:`_require_quorum`), so the
        minority side of a partition cannot rewrite ownership; the new
        members rebuild their half through the same checkpoint + journal
        replay path a takeover uses; the base range's lease epoch is
        bumped so the layout change is ordered against takeovers.  Old
        members explicitly drop the half they handed off — nothing is
        fenced, because every old member stays current for the sub it
        keeps.  Returns the pieces replayed onto the new members (the
        handoff volume the caller prices), 0 when the range cannot split
        further.
        """
        spans = self._sub_spans(range_index)
        width, i = max((end - start, i)
                       for i, (start, end, _members) in enumerate(spans))
        if width < 2:
            return 0
        start, end, members = spans[i]
        mid = start + width // 2
        self._require_quorum(range_index, members, "split")
        new_members = self._pick_members(range_index, len(members),
                                         avoid=members, rotate=len(spans))
        if not new_members:
            raise QuorumLostError(
                f"metadata range {range_index}: cannot split, no healthy "
                f"server can host the new sub-range",
                range_index=range_index, acked=0, needed=1)
        moved = 0
        for server in new_members:
            if server in members:
                continue  # already holds the whole sub, stays current
            moved += self._rebuild_span(range_index, server, mid, end)
        for server in members:
            if server in new_members or server in self.failed_servers:
                continue
            self._drop_span(server, mid, end)
        subs = self._layout(range_index)
        self._splits[range_index] = (subs[:i]
                                     + [(start, list(members)),
                                        (mid, new_members)]
                                     + subs[i + 1:])
        self._range_replicas.pop(range_index, None)
        self._bump_epoch(range_index)
        self._drop_mirrors()
        self.splits_done += 1
        return moved

    def merge_range(self, range_index: int) -> int:
        """Collapse a split range back onto its first sub's live member
        set, replaying the full range onto members that held only part
        of it.  Every sub must pass the quorum check — merging with an
        unaccounted-for member could resurrect a stale layout.  Returns
        pieces replayed; 0 when the range is not split."""
        subs = self._splits.get(range_index)
        if subs is None:
            return 0
        target: List[int] = []
        for _start, members in subs:
            live = self._require_quorum(range_index, members, "merge")
            if not target:
                target = live
        if not target:
            raise QuorumLostError(
                f"metadata range {range_index}: cannot merge, first sub "
                f"has no live member", range_index=range_index,
                acked=0, needed=1)
        base_lo = int(range_index * self.range_size)
        base_hi = int((range_index + 1) * self.range_size)
        old_members = {s for _start, m in subs for s in m}
        del self._splits[range_index]
        self._range_replicas[range_index] = target
        self._bump_epoch(range_index)
        moved = 0
        for server in target:
            moved += self._rebuild_span(range_index, server, base_lo, base_hi)
        for server in old_members:
            if server in target or server in self.failed_servers:
                continue
            self._drop_span(server, base_lo, base_hi)
        self._drop_mirrors()
        self.merges_done += 1
        return moved

    def set_read_spread(self, range_index: int, extra: int = 1) -> int:
        """Re-replicate a read-hot range onto up to ``extra`` additional
        servers and rotate reads over the widened set.

        No fencing: the membership only grows and every old copy stays
        current.  The spares become full members — they ack writes and
        count toward quorum majorities.  Returns pieces replayed onto
        the new members (0 when no spare exists or the range is split —
        a split range already fans out, rotation alone is enabled)."""
        if range_index in self._splits:
            self._read_spread.setdefault(range_index, 0)
            return 0
        members = self.replica_servers(range_index)
        self._require_quorum(range_index, members, "re-replicate")
        spares = [s for s in self._pick_members(
                      range_index, extra, avoid=members,
                      rotate=len(members))
                  if s not in members]
        moved = 0
        base_lo = int(range_index * self.range_size)
        base_hi = int((range_index + 1) * self.range_size)
        for server in spares:
            moved += self._rebuild_span(range_index, server, base_lo, base_hi)
        if spares:
            self._commit_layout(range_index, [(base_lo, members + spares)])
        # Rotation changes read routing only, not the write ackers the
        # table holds; the bump keeps the generation a count of every
        # routing change.  (The split branch above needs none of its
        # own: split ranges never enter the table.)
        self._read_spread.setdefault(range_index, 0)
        self._routing_changed()
        if moved:
            self._drop_mirrors()
        return moved

    def _pin_assignments(self) -> None:
        """Pin every data-bearing range's current replica set before the
        pool changes, so the modulus change cannot silently re-route a
        range away from its data.  A pinned set is the set the range
        already routed to, so pinning alone starts no generation."""
        for range_index in sorted(self._journal.keys()
                                  | self._checkpoints.keys()):
            if (range_index not in self._range_replicas
                    and range_index not in self._splits):
                self._range_replicas[range_index] = self.replica_servers(
                    range_index)

    def add_server(self) -> int:
        """Grow the pool by one server at runtime.

        Existing assignments are pinned first (:meth:`_pin_assignments`);
        only ranges first touched after the grow — and explicit
        migrations — land on the newcomer.  Returns the new server id.
        """
        self._pin_assignments()
        if self._pool is None:
            self._pool = [s for s in range(self.n_servers)
                          if s not in self._retired]
        new_id = self.n_servers
        self.n_servers += 1
        self._stores.append(dict())
        self._pool.append(new_id)
        # Pinning kept every data-bearing range's route; ranges without
        # data route over the grown pool from now on.
        self._routing_changed()
        self._drop_mirrors()
        return new_id

    def remove_server(self, server: int) -> int:
        """Drain and retire a pool server at runtime.

        Refuses to retire an unreachable or sole-live server: a
        partitioned box cannot be drained, because its copies cannot be
        verified current.  Every membership the retiree holds — per
        sub-range on split ranges — is migrated to a healthy spare
        through the takeover replay path with a per-range epoch bump.
        Returns pieces replayed onto the replacements.
        """
        if (not 0 <= server < self.n_servers or server in self._retired):
            raise ValueError(f"no server {server}")
        if server in self.unreachable_servers:
            raise QuorumLostError(
                f"cannot retire server {server}: unreachable — a "
                f"partitioned server cannot be drained",
                range_index=-1, acked=0, needed=1)
        live_pool = [s for s in self._active_pool()
                     if s not in self.failed_servers and s != server]
        if not live_pool:
            raise QuorumLostError(
                f"cannot retire server {server}: no live server left to "
                f"migrate its ranges to", range_index=-1, acked=0,
                needed=1)
        self._pin_assignments()
        if self._pool is None:
            self._pool = [s for s in range(self.n_servers)
                          if s not in self._retired]
        moved = 0
        for range_index in sorted(self._journal.keys()
                                  | self._checkpoints.keys()):
            new_subs: List[Tuple[int, List[int]]] = []
            changed = False
            for i, (start, end, members) in enumerate(
                    self._sub_spans(range_index)):
                if server in members:
                    self._require_quorum(range_index, members, "migrate")
                    spares = [s for s in self._pick_members(
                                  range_index, 1, avoid=members,
                                  rotate=i + 1)
                              if s not in members]
                    for spare in spares:
                        moved += self._rebuild_span(range_index, spare,
                                                    start, end)
                    new_set = [s for s in members if s != server] + spares
                    if new_set:
                        new_subs.append((start, new_set))
                        changed = True
                        continue
                    # Nobody to take it: assignment stays, data too.
                new_subs.append((start, members))
            if changed:
                self._commit_layout(range_index, new_subs)
        self._stores[server].clear()
        self._retired.add(server)
        if server in self._pool:
            self._pool.remove(server)
        self._routing_changed()
        self._drop_mirrors()
        self.migrations_done += 1
        return moved

    # -- routing queries ----------------------------------------------------
    def write_target_servers(self, fid: int, offset: int,
                             length: int) -> Set[int]:
        """Servers an insert covering [offset, offset+length) contacts —
        the live replica set of every touched sub-range.

        Client-computable without the records themselves: the write
        path ships one aggregated :meth:`insert_many` per collective op
        but prices it per *request* with this — the touched set an
        ``insert_many`` of that request's records alone would return.
        Raises like :meth:`insert_many` when a touched range cannot ack,
        annotated with the fid and the touched range's clipped span.
        An unsplit range in the route table is answered from it by
        :meth:`_write_ackers`.
        """
        if length <= 0:
            return set()
        end = offset + length
        touched: Set[int] = set()
        try:
            for range_index, lo, _hi in self._spans(offset, end):
                touched.update(self._write_ackers(range_index, lo))
        except DataLossError as err:
            self._refused(err, fid, range_index, offset, end)
            raise
        return touched

    def read_servers_for(self, fid: int, offset: int,
                         length: int) -> Set[int]:
        """Servers a :meth:`lookup` over the span contacts, without
        searching the stores — the routing the overwrite check charges
        on a mirror hit.

        Calls :meth:`read_server_of` per sub-range in the same order as
        the store search, so failover telemetry fires identically and a
        lost range raises the same request-annotated
        :class:`MetadataUnavailableError`.
        """
        if length <= 0:
            return set()
        end = offset + length
        touched: Set[int] = set()
        try:
            for range_index, lo, _hi in self._spans(offset, end):
                touched.add(self.read_server_of(range_index, lo))
        except DataLossError as err:
            self._refused(err, fid, range_index, offset, end)
            raise
        return touched

    # -- lookup ------------------------------------------------------------
    def lookup(self, fid: int, offset: int,
               length: int) -> Tuple[List[MetadataRecord], Set[int]]:
        """Records overlapping [offset, offset+length), clipped to it and
        in offset order, plus the servers contacted.  Unmapped holes are
        simply absent.

        Each sub-range in the span is answered by its first live replica
        (:meth:`read_server_of`), so the result never duplicates records
        across replicas and a dead primary costs only the failover to
        the next copy.  A file the mirror tracks is answered from the
        mirror instead, with the identical routing charged (the servers,
        failover telemetry and errors of :meth:`read_servers_for`).
        """
        if length <= 0:
            # Resolves nothing and avoids no store search: counts as
            # neither a mirror hit nor a miss.
            return [], set()
        end = offset + length
        # The mirror's interval list of a tracked file: it answers in
        # place of the serving replicas' stores.
        mirrored = None
        mirror = self.location_cache
        note = self.on_cache_event
        if mirror is not None:
            files = mirror.files
            if fid in files:
                mirrored = files[fid]
            elif note is not None:
                note("cache-miss", 1)
        touched: Set[int] = set()
        found: List[MetadataRecord] = []
        stores = self._stores
        spans = self._spans(offset, end)
        try:
            for range_index, lo, hi in spans:
                server = self.read_server_of(range_index, lo)
                touched.add(server)
                if mirrored is None:
                    entry = stores[server].get(fid)
                    if entry is not None:
                        clip_records(entry[0], entry[1], lo, hi, found)
        except DataLossError as err:
            self._refused(err, fid, range_index, offset, end)
            raise
        if mirrored is not None:
            if self._splits:
                # The mirror merges records across sub-range boundaries,
                # like a member holding adjacent subs: clip each span
                # apart, as the stores answer it.
                for _r, lo, hi in spans:
                    clip_records(mirrored[0], mirrored[1], lo, hi, found)
            else:
                # No mirrored record crosses a range boundary: one clip
                # answers every span.
                clip_records(mirrored[0], mirrored[1], offset, end, found)
            if note is not None:
                note("cache-hit", 1)
        return found, touched

    def overwritten(self, fid: int, offset: int,
                    length: int) -> List[MetadataRecord]:
        """The write path's overwrite check: the records a write over
        [offset, offset+length) supersedes — :meth:`lookup`'s records.
        It prices nothing, so on a mirror hit the routing
        (:meth:`read_servers_for`) runs only for its side effects and is
        skipped while :meth:`read_routing_silent`; a hit that finds
        records also counts their mirror entries' supersede as a
        ``cache-invalidate``."""
        mirror = self.location_cache
        found = (mirror.lookup(fid, offset, length)
                 if mirror is not None and length > 0 else None)
        if found is None:
            return self.lookup(fid, offset, length)[0]
        if not self.read_routing_silent():
            self.read_servers_for(fid, offset, length)
        if self._splits and found:
            # The mirror merges records across sub-range boundaries, like
            # a member holding adjacent subs; lookup answers each sub's
            # span apart.
            whole, found = found, []
            starts = [rec.offset for rec in whole]
            for _r, lo, hi in self._spans(offset, offset + length):
                clip_records(starts, whole, lo, hi, found)
        note = self.on_cache_event
        if note is not None:
            note("cache-hit", 1)
            if found:
                # The write-through supersedes these entries.
                note("cache-invalidate", 1)
        return found

    def records_of(self, fid: int) -> List[MetadataRecord]:
        """All records of a file in ``(offset, proc_id)`` order (flush
        path).

        Each unsplit range is read from one copy: the first live,
        reachable server not fenced for the range that holds any of it —
        current copies of an unsplit range hold identical record lists.
        A split range is the union of every such server's records of it:
        a member holding two adjacent sub-ranges may merge records
        across their boundary, so its copy differs in shape from one
        holding a single sub-range.  Ranges whose whole replica set died
        are simply absent (the flush path surfaces those through the
        per-record loss checks instead).  Unreachable servers cannot
        answer, and fenced copies are invisible: a flush or scrub pass
        must never act on records a stale-epoch ex-owner holds.
        """
        range_size = self.range_size
        stale = self._stale
        splits = self._splits
        bisect_left = bisect.bisect_left
        # range -> the record list it is read from (one copy's list, or
        # for a split range the union of copies) and its index span in
        # it.  Spans are ranges, which the cyclic GC does not track: a
        # list per range, alive until the end, would add one tracked
        # object per range to every flush and replication pass.
        source: Dict[int, List[MetadataRecord]] = {}
        taken: Dict[int, range] = {}
        unions: Dict[int, Set[MetadataRecord]] = {}
        for server, store in enumerate(self._stores):
            if (server in self.failed_servers
                    or server in self.unreachable_servers):
                continue
            entry = store.get(fid)
            if not entry:
                continue
            fenced = ({r for r, members in stale.items() if server in members}
                      if stale else ())
            starts, recs = entry
            i, n = 0, len(recs)
            while i < n:
                range_index = int(recs[i].offset // range_size)
                # Records never cross a range boundary.
                j = bisect_left(starts, (range_index + 1) * range_size, i)
                if range_index in fenced:
                    pass  # a fenced copy is invisible
                elif range_index in splits:
                    unions.setdefault(range_index, set()).update(recs[i:j])
                elif range_index not in taken:
                    source[range_index] = recs
                    taken[range_index] = range(i, j)
                i = j
        for range_index, union in unions.items():
            # Copies of different shape overlap: order them fully, so no
            # tie is left in set iteration (hash) order.
            source[range_index] = sorted(
                union, key=lambda r: (r.offset, r.proc_id, r.length, r.va))
            taken[range_index] = range(len(union))
        out: List[MetadataRecord] = []
        for range_index in sorted(taken):
            span = taken[range_index]
            out += source[range_index][span.start:span.stop]
        return out

    def server_record_counts(self) -> List[int]:
        """Records per server (for load-balance assertions in tests)."""
        return [sum(len(recs) for _s, recs in store.values())
                for store in self._stores]
