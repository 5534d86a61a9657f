"""Location-aware read service (§II-B4).

Baseline read path: every read request goes to the co-located server,
which looks up the metadata, fetches the segment (possibly from a remote
node's log) and hands it back — at least one network round trip and a
server-side memory copy per request.

The location-aware service removes both overheads where locality allows:

* segments cached on the **reader's own node** are resolved against the
  server's shared metadata buffer and copied straight out of local
  storage — no server hop, no extra copy;
* segments on the **shared burst buffer** are globally visible, so after
  fetching the metadata the client reads them directly — no
  server-to-server transfer.

Only segments on *other nodes'* local storage still take the server
round trip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, Generator, List, Optional, Sequence,
                    Tuple)

from repro.core.config import StorageTier
from repro.core.errors import DataLossError
from repro.core.metadata import (MetadataRecord, MetadataUnavailableError,
                                 QuorumLostError, record_run_end,
                                 record_runs)
from repro.core.versioning import VersionMap
from repro.gcpause import collector_paused
from repro.simmpi.comm import Communicator
from repro.simmpi.mpiio import IORequest
from repro.storage.datamodel import (CorruptPayload, Extent, ExtentMap,
                                     ZeroPayload)

__all__ = ["ReadService", "ReadBreakdown"]

#: Extra goodput penalty for local reads that are funnelled through the
#: co-located server process (one more memory copy) when the
#: location-aware service is disabled.
_SERVER_COPY_FACTOR = 0.65


@dataclass
class ReadBreakdown:
    """Byte accounting of one collective read (inspectable by tests)."""

    local_bytes: float = 0.0
    remote_bytes: float = 0.0
    bb_bytes: float = 0.0
    pfs_bytes: float = 0.0
    #: ranks that touched each category (stream counts for the flows)
    local_ranks: set = field(default_factory=set)
    remote_ranks: set = field(default_factory=set)
    bb_ranks: set = field(default_factory=set)
    pfs_ranks: set = field(default_factory=set)
    #: reader ranks with node-local hits, counted per node
    local_ranks_by_node: Dict[int, int] = field(default_factory=dict)
    lookups_per_server: Dict[int, int] = field(default_factory=dict)

    @property
    def total_bytes(self) -> float:
        return (self.local_bytes + self.remote_bytes + self.bb_bytes
                + self.pfs_bytes)


class ReadService:
    """Plans and executes collective reads against a file session."""

    def __init__(self, system):
        # ``system`` is a UniviStorServers; typed loosely to avoid an
        # import cycle with repro.core.server.
        self.system = system
        self.machine = system.machine
        self.engine = system.engine

    # -- functional resolution ------------------------------------------------
    def resolve(self, session, record: MetadataRecord) -> List[Extent]:
        """Materialise a metadata record into logical-offset extents.

        Records pointing at a failed node's local storage fall back to
        the resilience replicas (when enabled) or raise
        :class:`~repro.core.resilience.DataLossError`.
        """
        # Failed-node set first: it is almost always empty, which
        # short-circuits past the tier property on the per-record path.
        if (record.node_id in self.system.failed_nodes
                and record.tier.is_node_local):
            return self.resolve_degraded(session, record)
        writer = session.writers.get(record.proc_id)
        if writer is None:
            raise KeyError(
                f"{session.path}: no log for source process {record.proc_id}")
        layer, addr = writer.vas.resolve(record.va)
        pieces = writer.log(layer).sim_file.read_at(int(addr),
                                                    int(record.length))
        for p in pieces:
            # Checksum verification: rot in the cached log must never be
            # returned as data.  Corrupt segments fall back to a clean
            # copy (replica, then flushed PFS) or raise DataLossError —
            # the durability invariant forbids silent wrong bytes.
            if isinstance(p.payload, CorruptPayload):
                self.system.telemetry_hook(
                    "read-corrupt",
                    f"{session.path}:rank{record.proc_id}",
                    float(record.length))
                return self.resolve_degraded(session, record)
        rebase = record.offset - addr
        return [p.at(int(p.offset + rebase)) for p in pieces]

    def _run_extents(self, session, first: MetadataRecord, length: int
                     ) -> Optional[List[Extent]]:
        """Logical extents of the clean record run of ``length`` bytes
        that starts with ``first``, from one ``vas.resolve`` and one log
        ``read_at``, or None when the run needs the per-record path: its
        node has failed, it would leave its first record's layer, or any
        piece read back corrupt.  Emits no telemetry — the per-record
        path reports exactly as before."""
        if (first.node_id in self.system.failed_nodes
                and first.tier.is_node_local):
            return None
        writer = session.writers.get(first.proc_id)
        if writer is None:
            return None
        vas = writer.vas
        layer, addr = vas.resolve(first.va)
        if addr + length > vas.capacities[layer]:
            return None
        pieces = writer.log(layer).sim_file.read_at(int(addr), int(length))
        for p in pieces:
            if isinstance(p.payload, CorruptPayload):
                return None
        rebase = first.offset - addr
        return [p.at(int(p.offset + rebase)) for p in pieces]

    def resolve_run(self, session, run: Sequence[MetadataRecord]
                    ) -> List[Extent]:
        """Materialise a record run (:func:`~repro.core.metadata.
        record_runs`) into logical-offset extents: the same bytes as
        concatenating :meth:`resolve` over its records, in one log read
        when the run is clean, else through :meth:`resolve` record by
        record (degraded reads, ``read-corrupt`` telemetry and
        :class:`DataLossError` exactly as per record)."""
        first = run[0]
        extents = self._run_extents(session, first,
                                    run[-1].end - first.offset)
        if extents is None:
            extents = []
            for record in run:
                extents.extend(self.resolve(session, record))
        return extents

    def copy_records(self, session, records: Sequence[MetadataRecord],
                     target: Callable[[MetadataRecord], ExtentMap],
                     versions: Callable[[MetadataRecord], VersionMap]
                     ) -> float:
        """Copy a file's offset-sorted records (one file's, as
        :meth:`~repro.core.metadata.MetadataService.records_of` lists
        them) into copy targets — the flush's PFS file, the replication
        pass's replica logs — and return the bytes that have no clean
        copy.  The one copy primitive of both passes.

        One pass over ``records``: each record run
        (:func:`~repro.core.metadata.record_run_end`) grows inline by
        index, reads its log window once and lands at the tail of its
        target's extent map (:meth:`ExtentMap.extend`).
        ``target(record)`` names the extent map a run goes to; it is
        called once per run, before the run is read.  The target's
        version map, ``versions(record)`` of the stretch's first record,
        then reflects the authority over each *stretch* of
        offset-contiguous runs with one target in one
        :meth:`VersionMap.copy_from_cuts` splice, span-identical to
        stamping record by record.  A stretch is spliced before the next
        run that does not continue it is read, and a degraded read looks
        at a copy's versions only inside its own record's window, so no
        read sees a deferred stamp.

        A run that cannot take the one-window path (failed node, layer
        edge, rot) copies record by record through :meth:`resolve`:
        degraded reads, ``read-corrupt`` telemetry and losses stay
        exactly per record.  A lost record ends its stretch and keeps
        its span's old stamp.  The cyclic collector is off across the
        copy (docs/MODEL.md §9)."""
        with collector_paused():
            authority = session.data_versions
            lost = 0.0
            # The open stretch: its target, first record and record edges.
            dest = opener = None
            cuts: List[int] = []
            i, n = 0, len(records)
            while i < n:
                first = records[i]
                j = record_run_end(records, i)
                last = records[j - 1]
                to = target(first)
                if cuts and (to is not dest or cuts[-1] != first.offset):
                    versions(opener).copy_from_cuts(authority, cuts)
                    cuts = []
                dest = to
                extents = self._run_extents(session, first,
                                            last.offset + last.length
                                            - first.offset)
                if extents is not None:
                    to.extend(extents)
                    if not cuts:
                        opener = first
                        cuts.append(first.offset)
                    cuts.extend([rec.offset + rec.length
                                 for rec in records[i:j]])
                else:
                    for rec in records[i:j]:
                        try:
                            extents = self.resolve(session, rec)
                        except DataLossError:
                            lost += rec.length
                            if cuts:
                                versions(opener).copy_from_cuts(authority,
                                                                cuts)
                                cuts = []
                            continue
                        to.extend(extents)
                        # Records of a run are contiguous: a copied one
                        # continues the stretch.
                        if not cuts:
                            opener = rec
                            cuts.append(rec.offset)
                        cuts.append(rec.offset + rec.length)
                i = j
            if cuts:
                versions(opener).copy_from_cuts(authority, cuts)
            return lost

    def resolve_degraded(self, session, record: MetadataRecord
                         ) -> List[Extent]:
        """Clean logical extents for a record whose primary copy is
        unusable (its node died, or it failed checksum verification):
        the resilience replica first, then the flushed PFS copy;
        :class:`DataLossError` when no clean copy survives.  The
        scrubber uses the same chain as its repair source.
        """
        system = self.system
        stale_notes: list = []
        if system.config.resilience_enabled:
            try:
                return system.resilience.resolve_replica(session, record)
            except DataLossError as err:
                stale_notes.extend(err.stale_provenance)
        extents, pfs_stale = self._clean_pfs_extents(
            session, record.offset, record.length)
        if extents is not None:
            return extents
        stale_notes.extend(pfs_stale)
        message = (
            f"{session.path}: [{record.offset}, +{record.length}) has no "
            f"clean surviving copy (primary on node {record.node_id} dead "
            f"or failed checksum verification)")
        if stale_notes:
            message += ("; stale copies refused: "
                        + "; ".join(s.describe() for s in stale_notes))
        err = DataLossError(
            message, fid=record.fid, rank=record.proc_id,
            node=record.node_id, offset=record.offset,
            length=record.length)
        err.stale_provenance = tuple(stale_notes)
        raise err

    def _clean_pfs_extents(self, session, offset: int, length: int):
        """The flushed PFS copy of ``[offset, +length)`` as
        ``(extents, stale_spans)``; ``extents`` is None unless the copy
        is clean.

        The PFS copy is only authoritative when nothing newer sits
        unflushed in the cache — repairing from a stale flush would be
        exactly the silent corruption the fallbacks exist to prevent.
        The byte-count guard alone is not: a flush that skipped lost
        records still bumps the counter, so the PFS version map must
        also match the authority over the span (version-ordered reads,
        docs/MODEL.md §12); lagging spans are counted as
        ``data-stale-reject`` and returned.  Every byte must then read
        back as real flushed data, not holes or rot.
        """
        pfs = self.machine.pfs_files
        if (session.flushed_bytes < session.cached_bytes_written
                or not pfs.exists(session.path)):
            return None, ()
        stale = session.pfs_versions.stale_spans(session.data_versions,
                                                 offset, length)
        if stale:
            self.system.count("data-stale-reject")
            return None, stale
        extents = pfs.open(session.path).read_at(offset, length)
        good = sum(e.length for e in extents
                   if not isinstance(e.payload,
                                     (ZeroPayload, CorruptPayload)))
        return (extents if good >= length else None), ()

    def _pfs_namespace_extents(self, session, req):
        """Serve one request straight from the flushed PFS file, or
        return None when the fallback is not safe
        (:meth:`_clean_pfs_extents`): a post-flush overwrite whose
        metadata is now unreachable makes the PFS copy stale, and the
        honest answer is then the metadata error.
        """
        extents, _stale = self._clean_pfs_extents(session, req.offset,
                                                  req.length)
        if extents is None:
            return None
        self.system.telemetry_hook(
            "pfs-namespace-fallback",
            f"{session.path}:[{req.offset},+{req.length})",
            float(req.length))
        return extents

    # -- the collective read ----------------------------------------------------
    def read_collective(self, session, comm: Communicator,
                        requests: List[IORequest], program: str
                        ) -> Generator:
        """Timed collective read; returns ``({rank: [Extent]}, breakdown)``."""
        location_aware = self.system.config.location_aware_reads
        metadata = self.system.metadata
        breakdown = ReadBreakdown()
        results: Dict[int, List[Extent]] = {}
        # keyed (node_id, tier): DRAM and local-SSD hits use their device.
        local_bytes_by_node: Dict[Tuple[int, StorageTier], float] = {}
        remote_bytes_by_source: Dict[Tuple[int, StorageTier], float] = {}

        failed_nodes = self.system.failed_nodes
        lookups_per_server = breakdown.lookups_per_server
        resolve_run = self.resolve_run
        # The resolve loop never yields: the cyclic collector stays off
        # across it (docs/MODEL.md §9).
        with collector_paused():
            for req in requests:
                if req.length == 0:
                    results[req.rank] = []
                    continue
                try:
                    records, servers = metadata.lookup(session.fid,
                                                       req.offset, req.length)
                except (MetadataUnavailableError, QuorumLostError):
                    # PFS namespace fallback: the range's metadata is lost or
                    # quorum-unreachable, but if every cached byte has been
                    # flushed the PFS file is itself an authoritative
                    # offset-addressed namespace — serve the span from it.
                    extents = self._pfs_namespace_extents(session, req)
                    if extents is None:
                        raise
                    breakdown.pfs_bytes += req.length
                    breakdown.pfs_ranks.add(req.rank)
                    results[req.rank] = extents
                    continue
                for s in servers:
                    lookups_per_server[s] = lookups_per_server.get(s, 0) + 1
                covered = sum(r.length for r in records)
                if covered < req.length:
                    raise ValueError(
                        f"{session.path}: read [{req.offset}, +{req.length}) "
                        f"touches {req.length - covered} unwritten bytes")
                extents: List[Extent] = []
                reader_node = comm.node_of_rank(req.rank)
                # One resolve and one accounting step per record run: a
                # run's records share writer, tier and node, so they land in
                # the same byte category.
                for run in record_runs(records):
                    extents.extend(resolve_run(session, run))
                    record = run[0]
                    nbytes = run[-1].end - record.offset
                    if (record.node_id in failed_nodes
                            and record.tier.is_node_local):
                        # Fail-over: served from the BB replica.
                        breakdown.bb_bytes += nbytes
                        breakdown.bb_ranks.add(req.rank)
                    elif record.tier.is_node_local:
                        if record.node_id == reader_node.node_id:
                            key = (reader_node.node_id, record.tier)
                            breakdown.local_bytes += nbytes
                            if req.rank not in breakdown.local_ranks:
                                breakdown.local_ranks.add(req.rank)
                                breakdown.local_ranks_by_node[key] = (
                                    breakdown.local_ranks_by_node.get(key, 0)
                                    + 1)
                            local_bytes_by_node[key] = (
                                local_bytes_by_node.get(key, 0.0) + nbytes)
                        else:
                            rkey = (record.node_id, record.tier)
                            breakdown.remote_bytes += nbytes
                            breakdown.remote_ranks.add(req.rank)
                            remote_bytes_by_source[rkey] = (
                                remote_bytes_by_source.get(rkey, 0.0)
                                + nbytes)
                    elif record.tier is StorageTier.SHARED_BB:
                        breakdown.bb_bytes += nbytes
                        breakdown.bb_ranks.add(req.rank)
                    else:
                        breakdown.pfs_bytes += nbytes
                        breakdown.pfs_ranks.add(req.rank)
                # Offset-sorted already: the records are, and each run
                # resolves its window in offset order.
                results[req.rank] = extents

        yield from self._execute_flows(session, comm, breakdown,
                                       local_bytes_by_node,
                                       remote_bytes_by_source, program,
                                       location_aware)
        return results, breakdown

    # -- timing ------------------------------------------------------------
    def _execute_flows(self, session, comm: Communicator,
                       breakdown: ReadBreakdown,
                       local_bytes_by_node: Dict[Tuple[int, StorageTier],
                                                 float],
                       remote_bytes_by_source: Dict[Tuple[int, StorageTier],
                                                    float],
                       program: str, location_aware: bool) -> Generator:
        machine = self.machine
        net = machine.network
        sched = self.system.scheduler
        timed_io = self.system.timed_io
        flows = []

        # Metadata look-ups: the busiest KV server serialises its queue.
        if breakdown.lookups_per_server:
            busiest = max(breakdown.lookups_per_server.values())
            cost = net.rpc_cost(busiest, serialized=True)
            if not location_aware:
                # Indirection through the co-located server doubles hops.
                cost *= 2.0
            flows.append(self.engine.timeout(cost))

        # Local node-storage reads.  Scheduling efficiency is pooled
        # across nodes (CFS migration averages placements out over a
        # collective; see the same choice in the write path).
        pooled_eff = 1.0
        if local_bytes_by_node:
            effs = [sched.client_efficiency(machine.nodes[nid], program,
                                            "read")
                    for nid, _tier in local_bytes_by_node]
            pooled_eff = sum(effs) / len(effs)
        for (node_id, tier), nbytes in local_bytes_by_node.items():
            node = machine.nodes[node_id]
            ranks_here = breakdown.local_ranks_by_node.get((node_id, tier),
                                                           0)
            if ranks_here == 0:
                continue
            eff = pooled_eff
            if not location_aware:
                eff *= _SERVER_COPY_FACTOR
            device = self.system.tier_device(tier, node)
            if tier.value == "dram":
                # The client cache path bounds the node rate; the device's
                # read_factor (reads skip append bookkeeping) scales this
                # cap inside StorageDevice.read.
                cap = node.spec.dram_cache_bandwidth / ranks_here
            else:
                cap = device.pipe.bandwidth / ranks_here
            flows.append(timed_io(
                lambda device=device, nbytes=nbytes, ranks_here=ranks_here,
                cap=cap, eff=eff, tier=tier: device.read(
                    nbytes / ranks_here, streams=ranks_here,
                    per_stream_cap=cap, efficiency=eff,
                    tag=f"read-local-{tier.value}"),
                f"read-local-{tier.value}"))

        # Remote node-storage reads: remote device + backbone transfer.
        if breakdown.remote_bytes > 0:
            streams = max(1, len(breakdown.remote_ranks))
            per_stream = breakdown.remote_bytes / streams
            for (node_id, tier), nbytes in remote_bytes_by_source.items():
                node = machine.nodes[node_id]
                device = self.system.tier_device(tier, node)
                src_streams = max(1, round(
                    streams * nbytes / breakdown.remote_bytes))
                flows.append(timed_io(
                    lambda device=device, nbytes=nbytes,
                    src_streams=src_streams: device.read(
                        nbytes / src_streams, streams=src_streams,
                        tag="read-remote-src"),
                    "read-remote-src"))
            flows.append(net.transfer(per_stream, streams=streams,
                                      streams_per_node=comm.procs_per_node,
                                      tag="read-remote-net"))

        # Shared burst-buffer reads.
        if breakdown.bb_bytes > 0:
            bb = machine.burst_buffer
            assert bb is not None
            streams = max(1, len(breakdown.bb_ranks))
            per_stream = breakdown.bb_bytes / streams
            cap = bb.client_read_cap(comm.procs_per_node)
            bb_eff = 1.0 if location_aware else _SERVER_COPY_FACTOR
            flows.append(timed_io(
                lambda bb=bb, per_stream=per_stream, streams=streams,
                cap=cap, bb_eff=bb_eff: bb.read(
                    per_stream, streams=streams, per_stream_cap=cap,
                    efficiency=bb_eff, tag="read-bb"),
                "read-bb"))
            if not location_aware:
                # Server-mediated fetch: the payload additionally crosses
                # the network twice (BB -> server -> client); the server
                # copy also throttles the BB stream itself (bb_eff above).
                flows.append(net.transfer(
                    per_stream, streams=streams,
                    streams_per_node=comm.procs_per_node,
                    tag="read-bb-forward"))

        # PFS reads (spilled DHP logs are file-per-process: no N-to-1
        # penalty, but each stream only engages a couple of OSTs).
        if breakdown.pfs_bytes > 0:
            lustre = machine.lustre
            streams = max(1, len(breakdown.pfs_ranks))
            per_stream_bytes = breakdown.pfs_bytes / streams
            cap = min(2 * lustre.spec.ost_bandwidth,
                      lustre.spec.client_node_bandwidth * 2
                      / comm.procs_per_node)
            flows.append(timed_io(
                lambda lustre=lustre, per_stream_bytes=per_stream_bytes,
                streams=streams, cap=cap: lustre.device.read(
                    per_stream_bytes, streams=streams, per_stream_cap=cap,
                    efficiency=lustre.spec.fpp_efficiency(streams),
                    tag="read-pfs"),
                "read-pfs"))

        if flows:
            yield self.engine.all_of(flows)
