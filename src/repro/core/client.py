"""The UniviStor ADIO driver (§II-F).

Installed in the MPI-IO layer (select it with ``ROMIO_FSTYPE_FORCE =
univistor``, i.e. ``registry.fstype_force = "univistor"``), the driver
transparently redirects an application's MPI-IO traffic to the UniviStor
servers:

* **open/close** — metadata operations against the server owning the file
  (by name hash).  With collective open/close (COC) only the root rank
  talks to the server and broadcasts the result; without it, all ranks
  send the same request to the same server, which serialises them — the
  §II-F scalability problem the evaluation's COC variant isolates.
* **write** — DHP placement into per-rank logs (§II-B1) plus metadata
  record insertion (§II-B3).
* **read** — the (location-aware) read service (§II-B4).
* **close on a written file** — triggers the asynchronous server-side
  flush; workflow lock release piggybacks here too (§II-E).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

from repro.analysis.metrics import Telemetry
from repro.core.config import StorageTier
from repro.core.errors import DataQuorumLostError
from repro.core.dhp import LayerPlan
from repro.core.metadata import (MetadataRecord, MetadataUnavailableError,
                                 QuorumLostError, coalesce_records)
from repro.core.server import FileSession, UniviStorServers
from repro.core.versioning import stamp_with_epochs
from repro.gcpause import collector_paused
from repro.storage.device import TransientIOError
from repro.simmpi.adio import ADIODriver, OpenContext
from repro.simmpi.mpiio import IORequest
from repro.storage.lustre import StripingLayout

__all__ = ["UniviStorDriver"]


@dataclass
class _OpenFile:
    """Driver-private per-open state (ROMIO's ADIO_File equivalent)."""

    session: FileSession
    ctx: OpenContext
    lock_kind: Optional[str] = None  # "read" | "write" | None
    bytes_written: float = 0.0


class UniviStorDriver(ADIODriver):
    """UniviStor as an MPI-IO ADIO driver."""

    name = "univistor"

    def __init__(self, system: UniviStorServers, telemetry: Telemetry):
        self.system = system
        self.telemetry = telemetry
        self.machine = system.machine
        self.engine = system.engine

    # -- metadata-operation cost (COC, §II-F) -----------------------------------
    def _metadata_op(self, ctx: OpenContext) -> Generator:
        """Open/close file-metadata operation against the owning server.

        Writes create/update the file entry (EOF, log registry) — the
        expensive op; reads only fetch attributes.  With COC the root
        performs it once and broadcasts; without it, every rank sends the
        same request to the same server (file-name hash), which works
        them off one by one — the §II-F scalability problem.
        """
        net = self.machine.network
        writing = ctx.mode in ("w", "rw")
        op_time = (net.spec.file_create_time if writing
                   else net.spec.file_stat_time)
        if self.system.config.collective_open_close:
            # Root asks the owning server, result broadcast to all ranks.
            yield net.rpc(1, serialized=False, op_time=op_time)
            yield ctx.comm.bcast_small()
        else:
            yield net.rpc(ctx.comm.size, serialized=True, op_time=op_time)

    # -- ADIO surface ------------------------------------------------------------
    def open(self, ctx: OpenContext) -> Generator:
        t0 = self.engine.now
        session = self.system.session(ctx.path)
        state = _OpenFile(session=session, ctx=ctx)
        if self.system.config.workflow_enabled:
            # Lock acquire piggybacks on the collective open; only the
            # root touches the state file (one PFS-latency RPC).
            if ctx.mode in ("w", "rw"):
                yield from self.system.workflow.acquire_write(ctx.path)
                state.lock_kind = "write"
            else:
                yield from self.system.workflow.acquire_read(ctx.path)
                state.lock_kind = "read"
            yield self.engine.timeout(self.machine.spec.lustre.latency)
        yield from self._metadata_op(ctx)
        self.telemetry.record(app=ctx.comm.name, op="open", path=ctx.path,
                              t_start=t0, driver=self.name)
        return state

    def write_at_all(self, state: _OpenFile, requests: List[IORequest]
                     ) -> Generator:
        t0 = self.engine.now
        session = state.session
        comm = state.ctx.comm
        system = self.system
        metadata = system.metadata
        machine = self.machine

        # ---- functional placement (per-rank DHP) --------------------------
        # keyed by (node_id, tier) so DRAM and node-local SSD flows hit
        # their own devices.
        local_bytes_by_node: Dict[tuple, float] = {}
        local_ranks_by_node: Dict[tuple, int] = {}
        bb_bytes = 0.0
        bb_ranks = 0
        pfs_bytes = 0.0
        pfs_ranks = 0
        inserts_per_server: Dict[int, int] = {}
        total = 0.0
        # Metadata fast path: accumulate records across the collective op
        # and ship one aggregated, coalesced insert_many at the end (or
        # earlier, at an intra-op overwrite).  The simulated RPC cost is
        # still charged per request: inserts_per_server counts the
        # servers write_target_servers names for each request — exactly
        # the set an insert of that request's records alone touches.
        data_quorum = system.config.data_quorum
        dq_bytes = 0.0
        dq_ranks = 0
        op_version = None
        pending: List[MetadataRecord] = []
        pending_spans: List[tuple] = []
        # Set-at-a-time stamping (docs/MODEL.md §9): the open *stretch*
        # of back-to-back admitted requests — its edges, and under
        # data_quorum the node-local records whose replica maps copy the
        # authority once the stretch is stamped — gets one version-map
        # splice when the next request does not continue it, and before
        # any exit.
        stretch: List[int] = []
        mirrored: List[MetadataRecord] = []
        # One layer-plan lookup per node for the writers this collective
        # creates.
        node_plans: Dict[int, LayerPlan] = {}
        # The bulk build never yields: the cyclic collector stays off
        # across it (docs/MODEL.md §9) and is back before any yield.
        with collector_paused():
            try:
                for req in requests:
                    if req.length == 0:
                        continue
                    # Probe-first admission: acceptance is atomic per
                    # request.  The probe runs before freeing overwritten
                    # chunks or placing bytes, so a refused request is fully
                    # un-applied (the superseded records and the chunks they
                    # point at stay live and readable), while earlier
                    # requests' records ship and stay durable.  Without
                    # quorum the overwrite lookup below would refuse the same
                    # span; probing first is what keeps those earlier records
                    # from being dropped.
                    try:
                        touched = metadata.write_target_servers(
                            session.fid, req.offset, req.length)
                    except (MetadataUnavailableError, QuorumLostError):
                        self._ship_pending(session, pending)
                        raise
                    writer = session.writer_for(comm, req.rank, node_plans)
                    if pending_spans:
                        # pending_spans is kept sorted and its spans are
                        # pairwise disjoint (an overlap ships and resets the
                        # list), so the only candidate overlap is the
                        # rightmost span starting before req's end — an
                        # O(log n) probe instead of a scan.
                        req_end = req.offset + req.length
                        i = bisect_left(pending_spans, (req_end,))
                        if i > 0 and pending_spans[i - 1][1] > req.offset:
                            # An intra-op overwrite: ship what's pending so
                            # the free-overwritten pass (and the DHP
                            # free-chunk accounting behind it) sees the
                            # earlier records of this very op.
                            self._ship_pending(session, pending)
                            pending = []
                            pending_spans = []
                    # Free the log space of the records this write
                    # supersedes (free-chunk stack reuse, §II-B1).
                    for rec in metadata.overwritten(session.fid, req.offset,
                                                    req.length):
                        owner = session.writers.get(rec.proc_id)
                        if owner is not None:
                            layer, addr = owner.vas.resolve(rec.va)
                            owner.log(layer).free_segment(addr, rec.length)
                    segments = writer.write(req.offset, req.length,
                                            req.payload, req.payload_offset)
                    # The node the writer lookup found (the one holding the
                    # rank's node-local logs).
                    node = writer.node
                    rank_local_tiers = set()
                    rank_bb = False
                    rank_pfs = False
                    records = []
                    for seg in segments:
                        records.append(MetadataRecord(
                            session.fid, seg.logical_offset, seg.length,
                            req.rank, seg.va, seg.tier,
                            node.node_id if seg.tier.is_node_local else None))
                        if seg.tier.is_node_local:
                            key = (node.node_id, seg.tier)
                            local_bytes_by_node[key] = (
                                local_bytes_by_node.get(key, 0.0) + seg.length)
                            rank_local_tiers.add(key)
                            session.cached_bytes_written += seg.length
                            session.volatile_bytes_written += seg.length
                        elif seg.tier is StorageTier.SHARED_BB:
                            bb_bytes += seg.length
                            rank_bb = True
                            session.cached_bytes_written += seg.length
                        else:
                            pfs_bytes += seg.length
                            rank_pfs = True
                    # Authority stamping (docs/MODEL.md §12): one write
                    # version per collective op, split at range boundaries so
                    # each span carries the epoch current at write time.
                    # Refused requests never reach here (the probe raised
                    # above), so a rejected overwrite leaves the authority —
                    # like the superseded records — fully intact.
                    if op_version is None:
                        session.write_version += 1
                        op_version = session.write_version
                    if stretch and stretch[-1] != req.offset:
                        self._stamp_stretch(session, stretch, op_version,
                                            mirrored)
                        stretch = []
                        mirrored = []
                    if not stretch:
                        stretch.append(req.offset)
                    stretch.append(req.offset + req.length)
                    if data_quorum >= 2:
                        # Synchronous second copy: mirror this request's
                        # node-local segments into the rank's replica log on
                        # the shared BB *now*, so the ack below can attest
                        # two failure domains.  Spilled BB/PFS segments
                        # already live off-node and need no extra copy.
                        rank_sync = 0.0
                        for rec in records:
                            if not rec.tier.is_node_local:
                                continue
                            replica = system.resilience.replica_file(
                                session, rec.proc_id)
                            replica.write_at(
                                rec.offset, rec.length, req.payload,
                                req.payload_offset + (rec.offset - req.offset))
                            mirrored.append(rec)
                            rank_sync += rec.length
                        if rank_sync > 0:
                            system.resilience.note_synchronous_copy(session,
                                                                    rank_sync)
                            dq_bytes += rank_sync
                            dq_ranks += 1
                    pending.extend(records)
                    insort(pending_spans,
                           (req.offset, req.offset + req.length))
                    for s in touched:
                        inserts_per_server[s] = (
                            inserts_per_server.get(s, 0) + 1)
                    for key in rank_local_tiers:
                        local_ranks_by_node[key] = (
                            local_ranks_by_node.get(key, 0) + 1)
                    bb_ranks += rank_bb
                    pfs_ranks += rank_pfs
                    total += req.length
            finally:
                if stretch:
                    self._stamp_stretch(session, stretch, op_version, mirrored)
            self._ship_pending(session, pending)
        session.bytes_written += total
        state.bytes_written += total

        # ---- timing (one flow group per tier touched) ----------------------
        flows = []
        sched = system.scheduler
        net = machine.network
        # Scheduling efficiency is pooled (mean) across the participating
        # nodes: CFS migrates processes during a long collective, so the
        # whole operation tracks the average placement, not the unluckiest
        # node's initial one.
        if local_bytes_by_node:
            effs = [sched.client_efficiency(machine.nodes[nid], comm.name,
                                            "write")
                    for nid, _tier in local_bytes_by_node]
            pooled_eff = sum(effs) / len(effs)
        for (node_id, tier), nbytes in local_bytes_by_node.items():
            node = machine.nodes[node_id]
            streams = max(1, local_ranks_by_node.get((node_id, tier), 1))
            device = system.tier_device(tier, node)
            if tier is StorageTier.DRAM:
                # The client-side cache-copy path (mmap copy +
                # bookkeeping) limits the node to dram_cache_bandwidth.
                cap = node.spec.dram_cache_bandwidth / streams
            else:
                cap = device.pipe.bandwidth / streams
            flows.append(device.write(nbytes / streams, streams=streams,
                                      per_stream_cap=cap,
                                      efficiency=pooled_eff,
                                      tag=f"uv-write-{tier.value}"))
        if bb_bytes > 0:
            bb = machine.burst_buffer
            assert bb is not None
            streams = max(1, bb_ranks)
            cap = min(bb.client_write_cap(comm.procs_per_node),
                      net.injection_cap(comm.procs_per_node))
            # DHP's file-per-process layout: no shared-file penalty.
            flows.append(bb.write(bb_bytes / streams, streams=streams,
                                  shared_file=False, per_stream_cap=cap,
                                  tag="uv-write-bb"))
        if pfs_bytes > 0:
            lustre = machine.lustre
            streams = max(1, pfs_ranks)
            layout = StripingLayout.round_robin(streams, lustre.spec.osts)
            cap = min(net.injection_cap(comm.procs_per_node),
                      lustre.spec.client_node_bandwidth / comm.procs_per_node)
            flows.append(lustre.write_with_layout(
                pfs_bytes / streams, layout, per_stream_cap=cap,
                efficiency=lustre.spec.fpp_efficiency(streams),
                tag="uv-write-pfs"))
        def quorum_lost(exc: TransientIOError) -> DataQuorumLostError:
            # The synchronous BB mirror failed (past the retry budget
            # when retries are on): the write is NOT durable on
            # data_quorum failure domains, so it is not acknowledged.
            # Like a metadata range loss mid-op, the primary placement
            # has partially applied; the structured error says which
            # quorum was missed.
            system.count("data-quorum-lost")
            first = requests[0] if requests else None
            return DataQuorumLostError(
                f"{state.ctx.path}: write acknowledged on 1 of "
                f"{data_quorum} required failure domains (shared-BB "
                f"mirror failed: {exc})",
                acked=1, needed=data_quorum, fid=session.fid,
                rank=first.rank if first else None,
                offset=first.offset if first else None,
                length=first.length if first else None)

        if dq_bytes > 0:
            # The synchronous quorum copy rides the ack: the collective
            # completes only when the slowest of the primary placement
            # and the BB mirror lands (bounded retry/backoff via
            # timed_io, like every other resilience-path flow).
            bb = machine.burst_buffer
            assert bb is not None
            streams = max(1, dq_ranks)
            cap = min(bb.client_write_cap(comm.procs_per_node),
                      net.injection_cap(comm.procs_per_node))
            try:
                flows.append(system.timed_io(
                    lambda: bb.write(dq_bytes / streams, streams=streams,
                                     shared_file=False, per_stream_cap=cap,
                                     tag="uv-write-quorum"),
                    "data-quorum"))
            except TransientIOError as exc:
                # Retries disabled: the device raised synchronously at
                # submission rather than inside the flow.
                raise quorum_lost(exc) from exc
        if inserts_per_server:
            busiest = max(inserts_per_server.values())
            flows.append(self.engine.timeout(
                net.rpc_cost(busiest, serialized=True)))
        if flows:
            try:
                yield self.engine.all_of(flows)
            except TransientIOError as exc:
                if dq_bytes <= 0:
                    raise
                raise quorum_lost(exc) from exc
        if dq_bytes > 0:
            system.count("data-quorum-ack", dq_ranks)
        self.telemetry.record(app=comm.name, op="write", path=state.ctx.path,
                              t_start=t0, nbytes=total, driver=self.name)

    def _stamp_stretch(self, session: FileSession, edges: List[int],
                       version: int, mirrored: List[MetadataRecord]
                       ) -> None:
        """Stamp a stretch of back-to-back requests (``edges``: its
        start, then each request's end) into the authority with one
        splice, then copy the stamped authority into the replica map of
        each mirrored record (``data_quorum >= 2``).  The spans left are
        those of one stamp and one copy per request: within a stretch
        the requests are disjoint, so each copy reads the same
        authority it would have read right after its own stamp."""
        authority = session.data_versions
        stamp_with_epochs(authority, self.system.metadata, edges[0],
                          edges[-1] - edges[0], version, edges[1:-1])
        for rec in mirrored:
            session.replica_map(rec.proc_id).copy_from(
                authority, rec.offset, rec.length)

    def _ship_pending(self, session: FileSession,
                      pending: List[MetadataRecord]) -> None:
        """Ship the op's accumulated records: coalesce contiguous
        neighbours, then one :meth:`MetadataService.insert_many` (one
        journal batch per touched range).  A no-op when nothing is
        pending."""
        if not pending:
            return
        records, merges = coalesce_records(pending)
        self.system.metadata.insert_many(records)
        telemetry = self.telemetry
        telemetry.incr("meta-batch")
        if merges:
            telemetry.incr("meta-coalesce", merges)

    def read_at_all(self, state: _OpenFile, requests: List[IORequest]
                    ) -> Generator:
        t0 = self.engine.now
        comm = state.ctx.comm
        if not state.session.writers:
            # Nothing cached in this job: the file (if it exists at all)
            # is a previous job's flushed copy on the PFS — node-local and
            # BB contents are job-scoped (§I), Lustre persists.
            results = yield from self._read_from_pfs(state, requests, t0)
            return results
        results, breakdown = yield from self.system.read_service.read_collective(
            state.session, comm, requests, comm.name)
        cached_bytes = breakdown.total_bytes - breakdown.pfs_bytes
        if cached_bytes > 0:
            # Feed the placement advisor: this stream earns its cache slot.
            self.system.advisor.note_cache_read(state.ctx.path, cached_bytes)
        self.telemetry.record(app=comm.name, op="read", path=state.ctx.path,
                              t_start=t0, nbytes=breakdown.total_bytes,
                              driver=self.name)
        return results

    def _read_from_pfs(self, state: _OpenFile, requests: List[IORequest],
                       t0: float) -> Generator:
        """Serve a read entirely from the persistent PFS copy."""
        ctx = state.ctx
        machine = self.machine
        pfs_file = machine.pfs_files.open(ctx.path)  # FileNotFoundError ok
        results = {}
        total = 0.0
        readers = 0
        for req in requests:
            results[req.rank] = pfs_file.read_at(req.offset, req.length)
            if req.length > 0:
                total += req.length
                readers += 1
        if readers:
            net = machine.network
            lustre = machine.lustre
            cap = min(net.injection_cap(ctx.comm.procs_per_node),
                      lustre.spec.client_node_bandwidth
                      / ctx.comm.procs_per_node)
            yield lustre.read_shared_file(total / readers, readers=readers,
                                          per_stream_cap=cap,
                                          tag=f"uv-read-pfs:{ctx.path}")
        self.telemetry.record(app=ctx.comm.name, op="read", path=ctx.path,
                              t_start=t0, nbytes=total,
                              driver=self.name)
        return results

    def close(self, state: _OpenFile) -> Generator:
        t0 = self.engine.now
        ctx = state.ctx
        yield from self._metadata_op(ctx)
        wrote = ctx.mode in ("w", "rw") and state.session.bytes_written > 0
        if wrote and self.system.config.flush_enabled:
            # Asynchronous server-side flush: close returns immediately,
            # the servers move data to the PFS in the background (§II-A).
            self.system.flush_service.start_flush(
                state.session, telemetry=self.telemetry, app=ctx.comm.name)
        if wrote and self.system.config.resilience_enabled:
            # Replicate volatile segments to the shared tier (§V work).
            self.system.resilience.start_replication(state.session)
        if wrote:
            self.system.advisor.note_write_close(ctx.path,
                                                 state.bytes_written)
        if state.lock_kind == "write":
            self.system.workflow.release_write(ctx.path)
            yield self.engine.timeout(self.machine.spec.lustre.latency)
        elif state.lock_kind == "read":
            self.system.workflow.release_read(ctx.path)
            yield self.engine.timeout(self.machine.spec.lustre.latency)
        self.telemetry.record(app=ctx.comm.name, op="close", path=ctx.path,
                              t_start=t0, driver=self.name)

    def sync(self, state: _OpenFile) -> Generator:
        yield from self.system.flush_service.wait(state.session)
        if self.system.config.resilience_enabled:
            yield from self.system.resilience.wait(state.session)
        if self.system.scrub is not None:
            yield from self.system.scrub.wait()
