"""Crash recovery and integrity scrubbing (self-healing extension).

Two services close the loop that :mod:`repro.core.health` opens:

:class:`RecoveryService`
    Fires on a **dead** declaration.  A dead server's metadata offset
    ranges are taken over by surviving servers — the replica assignment is
    rewritten and the missing copies rebuilt by replaying the per-range
    write-ahead journal (:meth:`MetadataService.recover_server`) — so
    lookups route to the new owner instead of paying a failover per read
    forever.  A dead node additionally triggers re-replication of every
    session still holding unreplicated volatile data, plus a scrub pass.

:class:`ScrubService`
    Background integrity pass: checksum-verifies cached log chunks and
    replica files against the recorded content provenance, repairs rot
    from the surviving clean copy (replica -> log, log -> replica, flushed
    PFS copy as the last source), and re-replicates sessions whose
    volatile data lost its replica.  Data that fails verification with no
    clean copy anywhere is reported (``scrub-lost``) — the next read
    raises :class:`~repro.core.errors.DataLossError` rather than
    returning wrong bytes.

Both services are engine-clock aware but deliberately cheap on the timed
side: detection latency is modelled by the health monitor's timers, the
journal replay and scrub scans by throughput-derived timeouts.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from repro.core.errors import DataLossError
from repro.core.metadata import MetadataRecord
from repro.sim.engine import Event
from repro.units import GiB

__all__ = ["RecoveryService", "ScrubService"]

#: Nominal serialized size of one journaled metadata record (replay cost).
_JOURNAL_RECORD_BYTES = 64.0
#: Nominal scrub scan throughput per pass (checksum-verify is sequential
#: streaming I/O; one server's worth so passes stay background-cheap).
_SCRUB_BANDWIDTH = 4.0 * GiB
#: Records streamed between replay-cursor persists: the granularity at
#: which a crash of the *new* owner mid-takeover can resume instead of
#: replaying the whole journal from scratch.
_REPLAY_CHUNK = 32


class RecoveryService:
    """Turns dead declarations into takeover and re-replication actions."""

    def __init__(self, system) -> None:
        # ``system`` is a UniviStorServers (typed loosely: import cycle).
        self.system = system
        self.engine = system.engine
        #: ``(range_index, new_primary)`` takeovers performed, for tests.
        self.takeovers: List[Tuple[int, int]] = []
        #: Persisted replay cursor: range -> journal records the timed
        #: replay has already streamed.  Survives a crash of the new
        #: owner mid-takeover, so the next takeover of the same range
        #: resumes from the cursor instead of streaming from scratch.
        self.replay_cursor: Dict[int, int] = {}
        system.health.on_server_dead.append(self.handle_server_dead)
        system.health.on_node_dead.append(self.handle_node_dead)
        system.health.on_server_fenced.append(self.handle_server_fenced)

    # -- server death: metadata range takeover ----------------------------
    def handle_server_dead(self, server_id: int) -> None:
        self._takeover(server_id)

    def handle_server_fenced(self, server_id: int) -> None:
        """A partitioned server's lease expired: it is alive but no
        longer an owner.  Takeover proceeds exactly as for a death —
        :meth:`MetadataService.recover_server` fences the live ex-member
        out of every range it loses."""
        self.system.telemetry_hook("lease-expired", f"server:{server_id}",
                                   0.0)
        self._takeover(server_id)

    def _takeover(self, server_id: int) -> None:
        metadata = self.system.metadata
        actions = metadata.recover_server(server_id)
        if not actions:
            return
        jobs: List[Tuple[int, int, int]] = []
        for range_index, new_primary in actions:
            total = len(metadata.journal_records(range_index))
            done = min(self.replay_cursor.get(range_index, 0), total)
            self.takeovers.append((range_index, new_primary))
            self.system.telemetry_hook(
                "recovery-takeover",
                f"range:{range_index}->server:{new_primary}", 0.0)
            if done > 0:
                self.system.telemetry_hook(
                    "recovery-replay-resume",
                    f"range:{range_index}@{done}/{total}", 0.0)
            if total > done:
                jobs.append((range_index, new_primary, total))
            else:
                self.replay_cursor.pop(range_index, None)
        if jobs:
            self.engine.process(self._replay_cost(server_id, jobs),
                                name=f"journal-replay:server{server_id}")
        if self.system.config.data_quorum >= 2:
            # Epoch-aware data fencing (docs/MODEL.md §12): the fenced
            # server's takeover bumped the affected ranges' epochs, so
            # data copies stamped under the old epoch are suspect.
            # Stale-mark them and rebuild from the surviving primaries —
            # re-replication plus a scrub pass that refreshes every
            # version-lagging replica span with current stamps.
            self.system.mark_data_suspect(ri for ri, _p in actions)
            if self.system.config.resilience_enabled:
                self.system.rereplicate_pending()
            self.system.scrub.start_scrub()

    def _replay_cost(self, server_id: int,
                     jobs: List[Tuple[int, int, int]]) -> Generator:
        """Timed journal replay: the new owners stream the lost server's
        journal segments off shared storage and re-insert the records.

        Streamed in :data:`_REPLAY_CHUNK`-record chunks with the cursor
        persisted after each one; if the new primary itself dies (or is
        partitioned away) mid-replay the job aborts at the cursor and
        the *next* takeover of the range resumes there.
        """
        t_start = self.engine.now
        metadata = self.system.metadata
        streamed = 0.0
        for range_index, new_primary, total in jobs:
            done = min(self.replay_cursor.get(range_index, 0), total)
            aborted = False
            while done < total:
                if (new_primary in metadata.failed_servers
                        or new_primary in metadata.unreachable_servers):
                    self.replay_cursor[range_index] = done
                    self.system.telemetry_hook(
                        "recovery-replay-aborted",
                        f"range:{range_index}@{done}/{total}", 0.0)
                    aborted = True
                    break
                chunk = min(_REPLAY_CHUNK, total - done)
                nbytes = chunk * _JOURNAL_RECORD_BYTES
                yield self.engine.timeout(nbytes / _SCRUB_BANDWIDTH
                                          + chunk * 1e-6)
                done += chunk
                self.replay_cursor[range_index] = done
                streamed += nbytes
            if not aborted:
                self.replay_cursor.pop(range_index, None)
        self.system.telemetry_hook("recovery-replay",
                                   f"server:{server_id}", streamed,
                                   t_start=t_start)

    # -- node death: close the replication window -------------------------
    def handle_node_dead(self, node_id: int) -> None:
        system = self.system
        if system.config.resilience_enabled:
            system.rereplicate_pending()
        system.scrub.start_scrub()


class ScrubService:
    """Background checksum verification and repair over cached data."""

    def __init__(self, system) -> None:
        self.system = system
        self.engine = system.engine
        self._event: Optional[Event] = None
        self._periodic: Optional[Event] = None
        #: Session-granular resume cursor for rate-limited passes: the
        #: next session path a budgeted pass should start from (None =
        #: start of the namespace, i.e. the sweep is complete).
        self._cursor_path: Optional[str] = None
        #: Pass statistics (cumulative, for tests/reporting).
        self.verified_bytes = 0.0
        self.repaired_bytes = 0.0
        self.lost_bytes = 0.0
        #: Ticks skipped because foreground I/O was in flight.
        self.deferred = 0

    # -- public API --------------------------------------------------------
    def start_scrub(self) -> Event:
        """Kick off (or join) a scrub pass; returns its completion event."""
        outstanding = self._event
        if outstanding is not None and not outstanding.triggered:
            return outstanding
        proc = self.engine.process(self._scrub_pass(), name="scrub")
        self._event = proc
        return proc

    def start_periodic(self) -> Optional[Event]:
        """Proactive scrubbing: repeat rate-limited passes every
        ``scrub_interval`` seconds until a full sweep comes back clean.

        Ticks that land while foreground I/O (flush or replication) is
        in flight are deferred to the next tick (``scrub-deferred``
        counter) — scrubbing is a background citizen.  Each pass scans
        at most ``scrub_rate_limit`` bytes (0 = unlimited) and resumes
        from the session cursor where the previous tick stopped.
        Terminates — the engine drains to quiescence — once a complete
        sweep repairs nothing.
        """
        if self.system.config.scrub_interval <= 0:
            return None
        outstanding = self._periodic
        if outstanding is not None and not outstanding.triggered:
            return outstanding
        proc = self.engine.process(self._periodic_loop(),
                                   name="scrub-periodic")
        self._periodic = proc
        return proc

    def wait(self) -> Generator:
        if self._event is not None and not self._event.processed:
            yield self._event

    # -- the periodic loop -------------------------------------------------
    def _foreground_busy(self) -> bool:
        system = self.system
        for session in system._sessions.values():
            ev = session.flush_event
            if ev is not None and not ev.triggered:
                return True
        return any(not ev.triggered
                   for ev in system.resilience._events.values())

    def _periodic_loop(self) -> Generator:
        config = self.system.config
        sweep_repaired = 0.0
        while True:
            yield self.engine.timeout(config.scrub_interval)
            if self._foreground_busy():
                self.deferred += 1
                self.system.count("scrub-deferred")
                continue
            repaired = yield from self._scrub_pass(
                budget=config.scrub_rate_limit)
            sweep_repaired += repaired
            if self._cursor_path is None:
                # Sweep complete: quiesce on a clean one, else go again.
                if sweep_repaired == 0:
                    return
                sweep_repaired = 0.0

    # -- the pass ----------------------------------------------------------
    def _scrub_pass(self, budget: float = 0.0) -> Generator:
        t_start = self.engine.now
        system = self.system
        scanned = repaired = lost = 0.0
        paths = sorted(system._sessions)
        start = 0
        if budget > 0 and self._cursor_path is not None:
            for i, path in enumerate(paths):
                if path >= self._cursor_path:
                    start = i
                    break
        next_cursor = None
        for path in paths[start:]:
            if budget > 0 and scanned >= budget:
                next_cursor = path
                break
            session = system._sessions[path]
            s, r, l = self._scrub_session(session)
            scanned += s
            repaired += r
            lost += l
            if (system.config.resilience_enabled
                    and system.resilience.pending_bytes(session) > 0):
                # Volatile data with no (or a dead) replica: restore the
                # redundancy the durability story depends on.
                system.telemetry_hook("scrub-rereplicate", session.path,
                                      system.resilience.pending_bytes(
                                          session))
                system.resilience.start_replication(session)
        if budget > 0:
            self._cursor_path = next_cursor
        self.verified_bytes += scanned
        self.repaired_bytes += repaired
        self.lost_bytes += lost
        if scanned > 0:
            yield self.engine.timeout(scanned / _SCRUB_BANDWIDTH)
        system.telemetry_hook("scrub", "all", scanned, t_start=t_start)
        return repaired

    def _scrub_session(self, session) -> Tuple[float, float, float]:
        """Verify one session's logs and replicas; returns
        ``(scanned, repaired, lost)`` byte counts."""
        system = self.system
        scanned = repaired = lost = 0.0
        records = system.metadata.records_of(session.fid)
        for record in records:
            if (record.tier.is_node_local
                    and record.node_id in system.failed_nodes):
                continue  # log died with the node; the replica serves
            writer = session.writers.get(record.proc_id)
            if writer is None:
                continue
            layer, addr = writer.vas.resolve(record.va)
            sim_file = writer.log(layer).sim_file
            scanned += record.length
            for c_off, c_len in sim_file.corrupt_ranges(int(addr),
                                                        int(record.length)):
                lo = record.offset + (c_off - int(addr))
                sub = record.slice(lo, lo + c_len)
                try:
                    clean = system.read_service.resolve_degraded(session,
                                                                 sub)
                except DataLossError:
                    lost += c_len
                    system.telemetry_hook(
                        "scrub-lost", f"{session.path}:[{lo},+{c_len})",
                        float(c_len))
                    continue
                for ext in clean:
                    phys = int(addr) + (ext.offset - record.offset)
                    sim_file.write_at(int(phys), ext.length, ext.payload,
                                      ext.payload_offset)
                repaired += c_len
                system.telemetry_hook(
                    "scrub-repair", f"{session.path}:[{lo},+{c_len})",
                    float(c_len))
        if system.config.resilience_enabled:
            s, r, l = self._scrub_replicas(session)
            scanned += s
            repaired += r
            lost += l
        if system.config.data_quorum >= 2:
            refreshed = self._refresh_stale_replicas(session)
            scanned += refreshed
            repaired += refreshed
        return scanned, repaired, lost

    def _scrub_replicas(self, session) -> Tuple[float, float, float]:
        """Verify replica logs against the primary copies."""
        system = self.system
        scanned = repaired = lost = 0.0
        replicas = system.resilience._replicas.get(session.path, {})
        for rank in sorted(replicas):
            replica = replicas[rank]
            scanned += replica.size
            for off, ln in replica.corrupt_ranges(0, replica.size):
                try:
                    records, _servers = system.metadata.lookup(
                        session.fid, off, ln)
                except DataLossError:
                    lost += ln
                    system.telemetry_hook(
                        "scrub-lost",
                        f"{session.path}:replica{rank}:[{off},+{ln})",
                        float(ln))
                    continue
                healed = 0.0
                healed_records = []
                for record in records:
                    if record.proc_id != rank:
                        continue
                    try:
                        clean = self._primary_extents(session, record)
                    except DataLossError:
                        continue
                    for ext in clean:
                        replica.write_at(ext.offset, ext.length,
                                         ext.payload, ext.payload_offset)
                        healed += ext.length
                    healed_records.append(record)
                if healed > 0:
                    repaired += healed
                    system.telemetry_hook(
                        "scrub-repair",
                        f"{session.path}:replica{rank}:[{off},+{ln})",
                        float(healed))
                    # The healed spans now reflect the authority; stamp
                    # them so version-ordered reads accept the repair.
                    for record in healed_records:
                        session.replica_map(rank).copy_from(
                            session.data_versions, record.offset,
                            record.length)
                if healed < ln:
                    lost += ln - healed
                    system.telemetry_hook(
                        "scrub-lost",
                        f"{session.path}:replica{rank}:[{off},+{ln})",
                        float(ln - healed))
        return scanned, repaired, lost

    def _refresh_stale_replicas(self, session) -> float:
        """Epoch-aware rebuild (``data_quorum >= 2``, docs/MODEL.md §12):
        re-copy every replica span whose version map lags the authority
        — fenced/taken-over copies, or replicas that missed an overwrite
        — from a live current source, re-stamping with current
        version/epoch.  Spans with no current source anywhere stay
        stale: the read ladder keeps refusing them (an honest
        :class:`DataLossError`), never serves them."""
        system = self.system
        refreshed = 0.0
        for record in system.metadata.records_of(session.fid):
            if not record.tier.is_node_local:
                continue
            vmap = session.replica_versions.get(record.proc_id)
            if vmap is not None and not vmap.stale_spans(
                    session.data_versions, record.offset, record.length):
                continue
            if vmap is None and not session.data_versions.spans(
                    record.offset, record.length):
                continue
            try:
                clean = system.read_service.resolve(session, record)
            except (DataLossError, KeyError):
                continue
            replica = system.resilience.replica_file(session,
                                                     record.proc_id)
            for ext in clean:
                replica.write_at(ext.offset, ext.length, ext.payload,
                                 ext.payload_offset)
            session.replica_map(record.proc_id).copy_from(
                session.data_versions, record.offset, record.length)
            refreshed += record.length
        session.suspect_ranges.clear()
        if refreshed > 0:
            system.count("data-scrub-refresh", refreshed)
            system.telemetry_hook("data-rebuild", session.path, refreshed)
        return refreshed

    def _primary_extents(self, session, record: MetadataRecord):
        """Clean logical extents straight from the writer's log (replica
        repair source); :class:`DataLossError` when the log itself is
        dead or rotten with no third copy."""
        return self.system.read_service.resolve(session, record)
