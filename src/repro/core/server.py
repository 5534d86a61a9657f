"""The UniviStor server program (§II-A).

UniviStor servers run as a separate parallel program on every compute node
of the job (``servers_per_node`` each, default 2 to exploit both NUMA
sockets, §III-A).  They collectively provide:

* the **data caching service** — per-(file, rank) DHP logs on the
  configured tiers (:class:`FileSession`),
* the **distributed metadata service** (:class:`repro.core.metadata`),
* the **server-side flush service** (:mod:`repro.core.flush`),
* **connection management** — clients attach in ``MPI_Init`` and detach in
  ``MPI_Finalize``,
* the **workflow lock service** (§II-E) and the **interference-aware
  scheduler** (§II-C).
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.cluster.node import ComputeNode
from repro.cluster.topology import Machine
from repro.core.config import StorageTier, UniviStorConfig
from repro.core.dhp import DHPWriter, LayerPlan, PendingLog
from repro.core.metadata import MetadataService
from repro.core.scheduler import SchedulerService
from repro.core.va import VirtualAddressSpace
from repro.core.versioning import VersionMap
from repro.core.workflow import WorkflowManager
from repro.sim.engine import Engine, Event
from repro.simmpi.comm import Communicator
from repro.storage.device import StorageDevice
from repro.storage.posix import FileStore

__all__ = ["FileSession", "UniviStorServers"]

SERVER_PROGRAM = "univistor-server"


class FileSession:
    """Server-side state for one logical shared file."""

    def __init__(self, system: "UniviStorServers", fid: int, path: str):
        self.system = system
        self.fid = fid
        self.path = path
        #: The communicator that produced the data (set at first write
        #: open); readers from other applications resolve ProcIDs against
        #: this communicator's placement — the Fig. 1 data-sharing path.
        self.writer_comm: Optional[Communicator] = None
        self.writers: Dict[int, DHPWriter] = {}
        #: Layer plans shared by this file's writers, keyed by
        #: (node id or None, tiers, c/p capacities) — see
        #: :meth:`UniviStorServers._plan_for`.
        self.plans: Dict[tuple, LayerPlan] = {}
        #: Live bytes per tier over every rank's logs, kept current by
        #: the logs themselves; a tier enters when the first layer plan
        #: naming it is made.
        self.tier_bytes_live: Dict[StorageTier, float] = {}
        self.bytes_written = 0.0
        #: Cumulative bytes written into *cache* tiers (monotonic — an
        #: overwrite counts again, so a later flush knows there is fresh
        #: data to push even though live bytes did not grow).
        self.cached_bytes_written = 0.0
        #: Same, restricted to volatile (node-local) tiers, for the
        #: resilience replication pass.
        self.volatile_bytes_written = 0.0
        #: Completion event of the most recent server-side flush.
        self.flush_event: Optional[Event] = None
        self.flushed_bytes = 0.0
        #: Data-plane version ordering (docs/MODEL.md §12).  The
        #: *authority* map records, per byte, the newest write version
        #: (a per-session counter bumped once per collective write op)
        #: plus the metadata range epoch current at write time.  Each
        #: data *copy* — the per-rank resilience replica log and the
        #: flushed PFS file — carries its own map stamped from the
        #: authority at copy time; the degraded read chain refuses any
        #: copy whose map lags the authority over the requested span.
        self.write_version = 0
        self.data_versions = VersionMap()
        self.replica_versions: Dict[int, VersionMap] = {}
        self.pfs_versions = VersionMap()
        #: Metadata ranges whose owner was fenced/taken over while
        #: ``data_quorum >= 2`` — scrub refreshes their data copies from
        #: the surviving primaries (epoch-aware re-replication).
        self.suspect_ranges: set = set()

    def replica_map(self, rank: int) -> VersionMap:
        """The version map of ``rank``'s replica log (lazily created)."""
        vmap = self.replica_versions.get(rank)
        if vmap is None:
            vmap = self.replica_versions[rank] = VersionMap()
        return vmap

    # -- DHP plumbing ----------------------------------------------------
    def writer_for(self, comm: Communicator, rank: int,
                   node_plans: Optional[Dict[int, LayerPlan]] = None
                   ) -> DHPWriter:
        """Get (lazily creating) the DHP writer of ``rank``.

        ``node_plans`` is one collective's ``{node id: LayerPlan}``
        memo: a new writer takes its node's plan from it, so the plan is
        looked up once per node per collective (see
        :meth:`UniviStorServers._make_writer`)."""
        if self.writer_comm is None:
            self.writer_comm = comm
        writer = self.writers.get(rank)
        if writer is None:
            writer = self.system._make_writer(self, comm, rank, node_plans)
            self.writers[rank] = writer
        return writer

    def cached_bytes_per_tier(self) -> Dict[StorageTier, float]:
        """Live bytes per tier across all ranks' layers (a layer with no
        log yet holds 0), tiers in the order the layer plans first name
        them."""
        return dict(self.tier_bytes_live)

    def node_of_proc(self, proc_id: int) -> ComputeNode:
        if self.writer_comm is None:
            raise RuntimeError(f"{self.path}: no writer has opened this file")
        return self.writer_comm.node_of_rank(proc_id)


class UniviStorServers:
    """The deployed server program plus its collective services."""

    def __init__(self, machine: Machine, config: UniviStorConfig):
        self.machine = machine
        self.engine: Engine = machine.engine
        self.config = config
        self.program = SERVER_PROGRAM
        for tier in config.cache_tiers:
            self._check_tier_available(tier)
        machine.register_program(self.program,
                                 len(machine.nodes) * config.servers_per_node,
                                 kind="server",
                                 procs_per_node=config.servers_per_node)
        self.total_servers = len(machine.nodes) * config.servers_per_node
        # Replica stride of servers_per_node puts each metadata copy on a
        # different node than its primary, so one node crash never wipes
        # a range's whole replica set.
        self.metadata = MetadataService(
            self.total_servers, config.metadata_range_size,
            replication=config.metadata_replication,
            replica_stride=(config.servers_per_node
                            if self.total_servers > config.servers_per_node
                            else 1),
            checkpoint_threshold=config.journal_checkpoint,
            quorum=config.meta_quorum,
            location_cache=config.location_cache)
        self.metadata.on_failover = self._note_metadata_failover
        self.metadata.on_checkpoint = self._note_journal_checkpoint
        self.metadata.on_read_repair = self._note_read_repair
        self.metadata.on_fence_reject = self._note_fence_reject
        self.scheduler = SchedulerService(machine, config, self.program)
        self.workflow = WorkflowManager(self.engine)
        self._sessions: Dict[str, FileSession] = {}
        self._fids: Dict[str, int] = {}
        self.connected_clients: Dict[str, int] = {}
        #: Per-client-program shared-BB byte budgets (workload engine
        #: reservations); consulted by the c/p rule when
        #: ``config.bb_quota_enforced``.
        self.bb_quota: Dict[str, float] = {}
        #: Nodes whose local storage has been lost (resilience testing).
        self.failed_nodes: set = set()
        #: Server processes that have crashed (fault injection).
        self.failed_servers: set = set()
        #: Server processes that are alive but cut off by a network
        #: partition (fault injection; healable).
        self.partitioned_servers: set = set()
        #: Telemetry sink, attached by the Simulation facade.
        self.telemetry = None
        # Collective services (imported here to avoid module cycles).
        from repro.core.advisor import PlacementAdvisor
        from repro.core.flush import FlushService
        from repro.core.health import HealthMonitor
        from repro.core.read_service import ReadService
        from repro.core.recovery import RecoveryService, ScrubService
        from repro.core.resilience import ResilienceService
        self.read_service = ReadService(self)
        self.flush_service = FlushService(self)
        self.resilience = ResilienceService(self)
        self.advisor = PlacementAdvisor()
        # Self-healing services: the detection -> takeover -> scrub
        # pipeline, all present or all None (``config.self_healing``).
        # Construction order matters: the recovery service registers its
        # callbacks on the health monitor.
        self.health = self.scrub = self.recovery = None
        if config.self_healing:
            self.health = HealthMonitor(self)
            self.scrub = ScrubService(self)
            self.recovery = RecoveryService(self)
        # Adaptive hotspot mitigation (docs/MODEL.md §11): heat-driven
        # online range split/merge, read-hot re-replication, and an
        # elastic metadata server pool.
        from repro.core.hotspot import HotspotManager
        self.hotspot = (HotspotManager(self) if config.hotspot_enabled
                        else None)
        if config.resilience_enabled:
            self._check_tier_available(StorageTier.SHARED_BB)
        if config.data_quorum >= 2:
            # The synchronous second copy lands on the shared BB — the
            # quorum is meaningless without a second failure domain.
            self._check_tier_available(StorageTier.SHARED_BB)

    def telemetry_hook(self, op: str, path: str, nbytes: float,
                       t_start: Optional[float] = None) -> None:
        """Record a server-side operation if a telemetry sink is attached."""
        if self.telemetry is not None:
            self.telemetry.record(app="univistor-server", op=op, path=path,
                                  t_start=self.engine.now if t_start is None
                                  else t_start,
                                  nbytes=nbytes, driver="univistor")

    def _note_metadata_failover(self, range_index: int, server: int) -> None:
        self.telemetry_hook("metadata-failover",
                            f"range:{range_index}->server:{server}", 0.0)

    def _note_journal_checkpoint(self, range_index: int,
                                 truncated: int) -> None:
        self.count("journal-checkpoint")
        self.count("journal-truncated-entries", truncated)

    def _note_read_repair(self, range_index: int, server: int) -> None:
        self.count("meta-read-repair")

    def _note_fence_reject(self, range_index: int, server: int) -> None:
        self.count("fence-reject")

    def count(self, name: str, value: float = 1.0) -> None:
        """Bump a telemetry counter if a sink is attached (fast-path
        observability; deliberately not an :class:`OpRecord`)."""
        if self.telemetry is not None:
            self.telemetry.incr(name, value)

    @property
    def alive_servers(self) -> int:
        """Server processes still running (flush/replication fan-out);
        drained (retired) pool servers no longer serve."""
        return max(1, self.total_servers - len(self.failed_servers)
                   - len(self.metadata._retired))

    # -- elastic metadata pool (docs/MODEL.md §11) -------------------------
    def grow_pool(self) -> int:
        """Add a metadata server to the pool at runtime; returns its id.

        The newcomer serves the metadata plane only (existing data-plane
        logs stay where they are): existing range assignments are pinned
        before the modulus changes, so nothing silently re-routes.
        """
        new_id = self.metadata.add_server()
        self.total_servers += 1
        self.count("pool-grow")
        self.telemetry_hook("pool-grow", f"server:{new_id}", 0.0)
        return new_id

    def shrink_pool(self, server_id: int) -> Optional[int]:
        """Drain and retire a pool server; returns the pieces migrated
        off it, or None when it cannot leave cleanly — crashed,
        partitioned, suspect under the failure detector, or a migration
        the quorum refused.  An unclean server must not leave: its
        copies cannot be verified current while its liveness is in doubt.
        """
        if (server_id in self.failed_servers
                or server_id in self.partitioned_servers):
            return None
        if self.health is not None and not self.health.is_clean(server_id):
            return None
        from repro.core.errors import QuorumLostError
        try:
            moved = self.metadata.remove_server(server_id)
        except QuorumLostError:
            return None
        self.count("pool-shrink")
        self.telemetry_hook("pool-shrink", f"server:{server_id}", 0.0)
        return moved

    def fail_node(self, node_id: int) -> None:
        """Lose a compute node's local storage: its cached data is gone.

        Reads of segments that lived there either fall back to replicas
        (``resilience_enabled``) or raise
        :class:`~repro.core.resilience.DataLossError`.  The node's server
        processes keep running — use :meth:`crash_node` for a full crash.
        """
        if not 0 <= node_id < len(self.machine.nodes):
            raise ValueError(f"no node {node_id}")
        if node_id in self.failed_nodes:
            return
        self.failed_nodes.add(node_id)
        self.telemetry_hook("fault-node-storage-lost", f"node:{node_id}",
                            0.0)

    def crash_server(self, server_id: int) -> None:
        """Kill one server process: its metadata partition is lost.

        With ``metadata_replication >= 2`` the surviving replicas keep
        every range readable (client-side failover); otherwise lookups on
        its ranges raise
        :class:`~repro.core.metadata.MetadataUnavailableError`.
        """
        if not 0 <= server_id < self.total_servers:
            raise ValueError(f"no server {server_id}")
        if server_id in self.failed_servers:
            return
        self.failed_servers.add(server_id)
        self.metadata.fail_server(server_id)
        self.telemetry_hook("fault-server-crash", f"server:{server_id}", 0.0)
        # The partition loss above is instantaneous (the data really is
        # gone); *reacting* to it is not: the takeover fires once the
        # failure detector declares the server dead.
        if self.health is not None:
            self.health.note_server_crash(server_id)

    def crash_node(self, node_id: int) -> None:
        """Full node crash: local data, plus every server process it ran.

        Metadata ranges fail over to replicas on surviving nodes.  With
        resilience enabled every session holding unreplicated volatile
        data gets a re-replication pass so the remaining copies stop
        being unique: immediately, or — with self-healing — once the
        failure detector declares the node dead (plus a scrub pass).
        """
        if not 0 <= node_id < len(self.machine.nodes):
            raise ValueError(f"no node {node_id}")
        already_down = node_id in self.failed_nodes
        self.fail_node(node_id)
        for server_id in range(node_id * self.config.servers_per_node,
                               (node_id + 1) * self.config.servers_per_node):
            self.crash_server(server_id)
        if already_down:
            return
        self.telemetry_hook("fault-node-crash", f"node:{node_id}", 0.0)
        if self.health is not None:
            self.health.note_node_crash(node_id)
        elif self.config.resilience_enabled:
            self.rereplicate_pending()

    def partition_servers(self, servers, mode: str = "sym") -> None:
        """Cut the network links to a group of server processes.

        ``sym`` (symmetric cut): client requests *and* heartbeats are
        lost — the failure detector holds the group in suspect and the
        lease clock starts ticking toward fencing.  ``oneway``: clients
        cannot reach the group but its heartbeats still arrive, so it is
        never suspected or fenced; ranges whose current copies all live
        inside it are simply unavailable until the heal.  Crashed
        servers are not re-animated by joining a partition group.
        """
        if mode not in ("sym", "oneway"):
            raise ValueError(f"unknown partition mode {mode!r}")
        group = sorted(set(servers))
        for server_id in group:
            if not 0 <= server_id < self.total_servers:
                raise ValueError(f"no server {server_id}")
        newly = [s for s in group if s not in self.partitioned_servers
                 and s not in self.failed_servers]
        if not newly:
            return
        for server_id in newly:
            self.partitioned_servers.add(server_id)
            self.metadata.set_unreachable(server_id)
        self.telemetry_hook(
            "fault-partition",
            f"servers:{'+'.join(map(str, newly))}:{mode}", 0.0)
        if mode == "sym" and self.health is not None:
            for server_id in newly:
                self.health.note_server_partition(server_id)

    def heal_partition(self, servers=None) -> None:
        """Restore connectivity to a partitioned group (default: every
        partitioned server).  Healing restores *reachability* only — a
        fenced ex-owner's ranges stay fenced in the metadata service
        until read-repair or a takeover rebuilds them."""
        group = (sorted(self.partitioned_servers) if servers is None
                 else sorted(set(servers)))
        healed = [s for s in group if s in self.partitioned_servers]
        if not healed:
            return
        for server_id in healed:
            self.partitioned_servers.discard(server_id)
            self.metadata.set_reachable(server_id)
            if self.health is not None:
                self.health.note_server_heal(server_id)
        self.telemetry_hook(
            "partition-heal", f"servers:{'+'.join(map(str, healed))}", 0.0)

    def rereplicate_pending(self) -> None:
        """Re-replicate every session still holding unreplicated volatile
        data, so the surviving copies stop being unique (crash-triggered
        or scheduled by the recovery service)."""
        for session in self._sessions.values():
            if self.resilience.pending_bytes(session) > 0:
                self.telemetry_hook("re-replicate", session.path,
                                    self.resilience.pending_bytes(
                                        session))
                self.resilience.start_replication(session)

    def mark_data_suspect(self, range_indices) -> None:
        """Stale-mark data copies after a fence/takeover (docs/MODEL.md
        §12): every session notes the affected metadata ranges so the
        next scrub pass refreshes their replica copies from the
        surviving primaries with current version/epoch stamps.  The
        per-read version check is the serve gate in the meantime — a
        marked-but-current copy may serve, a stale one never does."""
        marked = 0
        for session in self._sessions.values():
            before = len(session.suspect_ranges)
            session.suspect_ranges.update(range_indices)
            marked += len(session.suspect_ranges) - before
        if marked:
            self.count("data-stale-mark", marked)

    # -- fault-tolerant I/O ------------------------------------------------
    def timed_io(self, make_event, label: str) -> Event:
        """Wrap a timed storage operation in the configured retry policy.

        With retries disabled (the default) this is exactly
        ``make_event()`` — zero overhead on the paper's configurations.
        Otherwise the operation runs as a small engine process that
        re-attempts transient failures with exponential backoff; every
        retry is surfaced through the telemetry hook.
        """
        config = self.config
        if config.io_retry_limit <= 0:
            return make_event()
        from repro.core.retry import retrying

        def note_retry(attempt, delay, error):
            self.telemetry_hook(
                "io-retry", f"{label}:attempt{attempt}:{type(error).__name__}",
                0.0)

        return self.engine.process(
            retrying(self.engine, make_event, limit=config.io_retry_limit,
                     backoff_base=config.io_backoff_base,
                     on_retry=note_retry),
            name=f"retry:{label}")

    # -- tier plumbing -----------------------------------------------------
    def _check_tier_available(self, tier: StorageTier) -> None:
        if tier is StorageTier.SHARED_BB and self.machine.burst_buffer is None:
            raise ValueError("configuration uses the shared burst buffer "
                             "but the machine has none")
        if (tier is StorageTier.LOCAL_SSD
                and self.machine.nodes[0].local_ssd is None):
            raise ValueError("configuration uses node-local SSDs but the "
                             "machine has none")

    def tier_device(self, tier: StorageTier,
                    node: Optional[ComputeNode]) -> StorageDevice:
        if tier is StorageTier.DRAM:
            assert node is not None
            return node.dram
        if tier is StorageTier.LOCAL_SSD:
            assert node is not None and node.local_ssd is not None
            return node.local_ssd
        if tier is StorageTier.SHARED_BB:
            assert self.machine.burst_buffer is not None
            return self.machine.burst_buffer.device
        return self.machine.lustre.device

    def tier_store(self, tier: StorageTier,
                   node: Optional[ComputeNode]) -> FileStore:
        if tier.is_node_local:
            assert node is not None
            return node.files
        if tier is StorageTier.SHARED_BB:
            return self.machine.bb_files
        return self.machine.pfs_files

    # -- connection management (§II-A) ---------------------------------------
    def connect(self, comm: Communicator) -> Event:
        """Client attach, piggybacked on MPI_Init: one RPC per rank to its
        co-located server (parallel, so one round trip)."""
        self.connected_clients[comm.name] = comm.size
        return self.machine.network.rpc(1, serialized=False)

    def disconnect(self, comm: Communicator) -> Event:
        self.connected_clients.pop(comm.name, None)
        return self.machine.network.rpc(1, serialized=False)

    # -- sessions ------------------------------------------------------------
    def fid_of(self, path: str) -> int:
        fid = self._fids.get(path)
        if fid is None:
            fid = self.engine.next_id()
            self._fids[path] = fid
        return fid

    def session(self, path: str, create: bool = True) -> FileSession:
        sess = self._sessions.get(path)
        if sess is None:
            if not create:
                raise FileNotFoundError(path)
            sess = FileSession(self, self.fid_of(path), path)
            self._sessions[path] = sess
            self.metadata.create_file(sess.fid)
        return sess

    def has_session(self, path: str) -> bool:
        return path in self._sessions

    # -- burst-buffer quotas (multi-job arbitration) --------------------------
    def set_bb_quota(self, program: str, nbytes: Optional[float]) -> None:
        """Grant (``None``: revoke) a shared-BB byte budget for one client
        program.  Takes effect for logs built after the call — the
        workload engine sets the quota at admission, before the job's
        first write, so every log the job builds sees it."""
        if nbytes is None:
            self.bb_quota.pop(program, None)
            return
        if nbytes <= 0:
            raise ValueError("quota must be positive (or None to revoke)")
        self.bb_quota[program] = float(nbytes)

    # -- log construction (the c/p rule of §II-B1) -----------------------------
    def _log_capacity(self, tier: StorageTier, node: ComputeNode,
                      comm: Communicator) -> float:
        """``c/p``: available capacity over the processes sharing it.

        The shared-BB numerator shrinks to the program's reservation when
        the workload engine granted one (``bb_quota``).
        """
        if tier.is_node_local:
            device = self.tier_device(tier, node)
            p = max(1, comm.procs_on_node(node.node_id))
            cap = device.capacity / p
        else:
            device = self.tier_device(tier, None)
            total = device.capacity
            if tier is StorageTier.SHARED_BB and \
                    self.config.bb_quota_enforced:
                quota = self.bb_quota.get(comm.name)
                if quota is not None:
                    total = min(total, quota)
            cap = total / max(1, comm.size)
        # A log smaller than one chunk is useless; round up.
        return max(cap, self.config.chunk_size)

    def _make_writer(self, session: FileSession, comm: Communicator,
                     rank: int,
                     node_plans: Optional[Dict[int, LayerPlan]] = None
                     ) -> DHPWriter:
        """A writer for ``rank`` on the session's shared layer plan for
        the rank's tiers and c/p capacities.

        With ``node_plans`` (one collective's memo) the plan is looked up
        once per node: everything the lookup reads — advice, ``bb_quota``,
        device capacity and the communicator's placement — is fixed
        while a collective's synchronous request loop runs."""
        node = comm.node_of_rank(rank)
        if node_plans is None:
            plan = self._plan_for(session, comm, node)
        else:
            plan = node_plans.get(node.node_id)
            if plan is None:
                plan = node_plans[node.node_id] = self._plan_for(
                    session, comm, node)
        return DHPWriter(rank, plan.vas, plan.logs, node, checked=True)

    def _plan_for(self, session: FileSession, comm: Communicator,
                  node: ComputeNode) -> LayerPlan:
        """The session's layer plan for ``node``'s tiers and c/p
        capacities.  A new quota or advice changes the key, so no rank
        ever gets a stale plan."""
        cache_tiers = self.config.cache_tiers
        if self.config.adaptive_placement:
            cache_tiers = self.advisor.advise_tiers(session.path,
                                                    cache_tiers)
        tiers = (*cache_tiers, StorageTier.PFS)
        capacities = (*(self._log_capacity(tier, node, comm)
                        for tier in cache_tiers), math.inf)
        # Node-local layers pin the plan to the node's stores and
        # devices; shared-only plans serve every node.
        local = any(tier.is_node_local for tier in cache_tiers)
        key = (node.node_id if local else None, tiers, capacities)
        plan = session.plans.get(key)
        if plan is None:
            plan = session.plans[key] = self._layer_plan(
                session, node, tiers, capacities)
        return plan

    def _layer_plan(self, session: FileSession, node: ComputeNode,
                    tiers, capacities) -> LayerPlan:
        logs = []
        totals = session.tier_bytes_live
        for tier, capacity in zip(tiers, capacities):
            totals.setdefault(tier, 0.0)
            tier_node = node if tier.is_node_local else None
            device = (None if tier is StorageTier.PFS
                      else self.tier_device(tier, tier_node))
            logs.append(PendingLog.make(
                tier, capacity, self.config.chunk_size,
                self.tier_store(tier, tier_node), device,
                f"/univistor/{session.fid}/{{rank}}/{tier.value}.log",
                totals))
        return LayerPlan.make(VirtualAddressSpace(tiers, capacities), logs)

    # -- teardown ------------------------------------------------------------
    def delete_file(self, path: str) -> None:
        """Drop a file: free every log chunk and all metadata."""
        sess = self._sessions.pop(path, None)
        if sess is None:
            return
        self.metadata.delete_file(sess.fid)
        for rank, writer in sess.writers.items():
            for log in writer.created_logs:
                if log.device is not None and log.allocated_chunks:
                    log.device.free(log.allocated_chunks * log.chunk_size)
                log.sim_file.store.unlink(log.sim_file.path)
