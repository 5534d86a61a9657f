"""UniviStor configuration: feature flags and tier selection."""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields, replace
from typing import Tuple

from repro.units import MiB

__all__ = ["StorageTier", "UniviStorConfig"]


class StorageTier(enum.Enum):
    """The storage layers of Fig. 1, fastest first."""

    DRAM = "dram"
    LOCAL_SSD = "local_ssd"
    SHARED_BB = "shared_bb"
    PFS = "pfs"

    # Members are singletons and compare by identity, so identity hashing
    # is consistent with equality; ``Enum.__hash__`` re-hashes the member
    # name in Python on every tier-keyed dict or set operation.
    __hash__ = object.__hash__

    # ``is_node_local`` is consulted per metadata record on the read hot
    # path; a plain member attribute (filled in below) beats recomputing
    # tuple membership on every access.
    @property
    def is_node_local(self) -> bool:
        return self._node_local

    @property
    def is_shared(self) -> bool:
        return not self._node_local


for _tier in StorageTier:
    _tier._node_local = _tier in (StorageTier.DRAM, StorageTier.LOCAL_SSD)
del _tier


@dataclass(frozen=True, kw_only=True)
class UniviStorConfig:
    """Everything a UniviStor deployment can toggle.

    The four optimisation flags map 1:1 onto the paper's evaluation
    variants: ``interference_aware`` (IA), ``collective_open_close`` (COC),
    ``adaptive_striping`` (ADPT) and ``location_aware_reads``;
    ``workflow_enabled`` is the ``ENABLE_WORKFLOW`` environment variable of
    §II-E, and ``cache_tiers`` selects the UniviStor/DRAM vs UniviStor/BB
    vs UniviStor/(DRAM+BB) configurations of §III.

    All fields are **keyword-only**: flag sets read unambiguously at call
    sites and new fields can be inserted in section order without
    breaking positional callers.
    """

    #: Caching tiers in spill order (fastest first).  The PFS is always the
    #: final destination and is not listed here.
    cache_tiers: Tuple[StorageTier, ...] = (StorageTier.DRAM,
                                            StorageTier.SHARED_BB)
    servers_per_node: int = 2  # the evaluation places 2 per node (§III-A)
    interference_aware: bool = True
    collective_open_close: bool = True
    adaptive_striping: bool = True
    location_aware_reads: bool = True
    workflow_enabled: bool = False
    #: Flush cached data to the PFS at close time (§II-A; applications
    #: without persistence needs may disable it).
    flush_enabled: bool = True
    #: Log chunk size (§II-B1's "set of data chunks").
    chunk_size: float = 8 * MiB
    #: Metadata range width for the distributed KV partitioning (§II-B3).
    metadata_range_size: float = 64 * MiB
    #: Honour per-program shared-BB reservations
    #: (:meth:`UniviStorServers.set_bb_quota`): the workload engine's
    #: storage scheduler grants each job a byte budget and the c/p rule
    #: divides the grant, not the whole device.  Off, grants are recorded
    #: but ignored — the ablation that isolates admission-timing effects
    #: from capacity effects.
    bb_quota_enforced: bool = True
    #: §V future work — replicate volatile (node-local) cached data to the
    #: shared burst buffer asynchronously at close, so a node failure
    #: before the flush completes loses nothing.
    resilience_enabled: bool = False
    #: Copies of each metadata offset-range, on distinct servers (a stride
    #: of ``servers_per_node`` keeps replicas off the primary's node).
    #: 1 = the paper's unreplicated KV: a server crash loses its ranges.
    metadata_replication: int = 1
    #: Data-plane write durability (docs/MODEL.md §12): a write is
    #: acknowledged only after ``data_quorum`` copies of each segment are
    #: durable on distinct failure domains.  1 (the default) keeps the
    #: legacy async-at-close replication path bit-identical; 2 adds a
    #: synchronous copy of every node-local segment to the shared burst
    #: buffer at write time (bounded retry/backoff via the ``io_*``
    #: knobs; exhaustion raises a structured
    #: :class:`~repro.core.errors.DataQuorumLostError`).  Segments the
    #: DHP already placed on the shared BB/PFS tiers live off-node and
    #: satisfy the quorum as-is.  Requires ``resilience_enabled``.
    data_quorum: int = 1
    #: Majority-quorum metadata (CAP-complete failure model): writes need
    #: acks from a majority of a range's replica set (reachable, alive and
    #: current), reads refuse to serve from a lagging or fenced copy, and
    #: a missed quorum raises a structured
    #: :class:`~repro.core.errors.QuorumLostError` instead of applying a
    #: write the minority side could later contradict.  Off (the default)
    #: keeps the any-replica-alive semantics of PR 1.
    meta_quorum: bool = False
    #: Lease duration for range ownership, in seconds.  Owners renew their
    #: lease via heartbeat; a partitioned ex-owner's lease expires
    #: ``lease_ttl`` after its last beat, after which the survivor side
    #: may safely take its ranges over (the expired lease *fences* the
    #: ex-owner: stale-epoch reads and writes are rejected, so a healed
    #: partition cannot resurrect stale data).
    lease_ttl: float = 0.3
    #: Bounded retry for tier I/O on the flush/read/replication paths:
    #: how many re-attempts a transient failure gets (0 = fail fast).
    io_retry_limit: int = 0
    #: First backoff delay in seconds; doubles per attempt.
    io_backoff_base: float = 0.05
    #: §V future work — adapt each new file's caching tiers to observed
    #: usage patterns (write-once files skip the scarce DRAM tier).
    adaptive_placement: bool = False
    #: Self-healing pipeline (docs/MODEL.md §8), one switch for all
    #: three stages.  *Detection*: server processes gossip heartbeats
    #: every ``heartbeat_interval`` seconds; a target that misses
    #: ``suspect_heartbeats`` consecutive beats is marked suspect, one
    #: that misses ``dead_heartbeats`` is declared dead.  *Takeover*: a
    #: dead server's offset ranges are reassigned to survivors and
    #: rebuilt by replaying the write-ahead journal, so lookups route to
    #: the new owner instead of failing over per read forever.
    #: *Scrubbing*: background passes checksum-verify cached log chunks
    #: and replica files, repair rot from the surviving clean copy, and
    #: re-replicate volatile segments that lost their replica.  Off (the
    #: default) keeps the PR 1 behaviour: replication and client-side
    #: failover only, and exhausted flush/replication retries raise.
    self_healing: bool = False
    heartbeat_interval: float = 0.05
    suspect_heartbeats: int = 2
    dead_heartbeats: int = 4
    #: Proactive scrub cadence in seconds: with a positive interval,
    #: :meth:`ScrubService.start_periodic` repeats passes every
    #: ``scrub_interval`` until a full sweep comes back clean.  Ticks that
    #: land while foreground I/O (flush/replication) is in flight are
    #: deferred to the next tick (telemetry counter ``scrub-deferred``).
    #: 0 keeps scrubbing purely event-driven (crash/explicit only).
    scrub_interval: float = 0.0
    #: Per-pass byte budget for periodic scrubbing (0 = unlimited): a
    #: pass stops verifying once it has scanned this much and resumes
    #: from its session cursor on the next tick, bounding the background
    #: bandwidth one tick may consume.
    scrub_rate_limit: float = 0.0
    #: The metadata service's per-file (fid, offset-range) -> (ProcID,
    #: VA) mirror: lookups on tracked files skip the store search.
    #: Timing-neutral (the same metadata RPCs are charged); dropped on
    #: delete, flush and every layout change (docs/MODEL.md §9).
    location_cache: bool = True
    #: Journal checkpointing: fold a metadata range's write-ahead journal
    #: into a compacted checkpoint once it reaches this many entries and
    #: every replica is alive to acknowledge, truncating the journal so
    #: takeover replay cost stops growing with session lifetime.
    #: 0 disables truncation (the journal grows unboundedly).
    journal_checkpoint: int = 0
    #: Adaptive hotspot mitigation (docs/MODEL.md §11): a background
    #: manager rolls per-range metadata activity into online range
    #: splits/merges, read-hot re-replication, and elastic pool
    #: grow/shrink.  Off (the default) keeps the static round-robin
    #: assignment bit-identical.
    hotspot_enabled: bool = False
    #: Per-interval operation count above which a range is hot: a
    #: write-hot range splits, a read-hot one re-replicates.
    range_split_threshold: int = 32
    #: Per-interval operation count below which a *split* range is cold;
    #: two consecutive cold intervals merge it back (and idle grown
    #: servers retire).  Must stay below the split threshold.
    range_merge_threshold: int = 4
    #: Seconds between hotspot-manager decision ticks.
    hotspot_interval: float = 0.05
    #: Ceiling on the elastic metadata pool (0 = never grow): the manager
    #: adds servers only while a hot range has exhausted the pool's
    #: fan-out and the pool is below this size.
    pool_max_servers: int = 0

    @staticmethod
    def hardened(**kw) -> "UniviStorConfig":
        """Every self-healing mechanism on: the configuration the chaos
        campaign drives (detection + takeover + scrubbing + replication
        + bounded retry)."""
        kw.setdefault("resilience_enabled", True)
        kw.setdefault("metadata_replication", 2)
        kw.setdefault("io_retry_limit", 6)
        kw.setdefault("io_backoff_base", 0.02)
        kw.setdefault("self_healing", True)
        kw.setdefault("meta_quorum", True)
        return UniviStorConfig(**kw)

    def __post_init__(self):
        if self.servers_per_node < 1:
            raise ValueError("servers_per_node must be >= 1")
        if self.chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if self.metadata_range_size <= 0:
            raise ValueError("metadata_range_size must be positive")
        if not float(self.metadata_range_size).is_integer():
            raise ValueError("metadata_range_size must be a whole number "
                             f"of bytes, got {self.metadata_range_size}")
        if self.metadata_replication < 1:
            raise ValueError("metadata_replication must be >= 1")
        if self.data_quorum not in (1, 2):
            raise ValueError("data_quorum must be 1 or 2 (the model has "
                             "node-local + shared failure domains)")
        if self.data_quorum >= 2 and not self.resilience_enabled:
            raise ValueError("data_quorum >= 2 requires resilience_enabled "
                             "(the synchronous copy lands in the "
                             "resilience replica log)")
        if self.io_retry_limit < 0:
            raise ValueError("io_retry_limit must be >= 0")
        if self.io_backoff_base <= 0:
            raise ValueError("io_backoff_base must be positive")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.suspect_heartbeats < 1:
            raise ValueError("suspect_heartbeats must be >= 1")
        if self.dead_heartbeats < self.suspect_heartbeats:
            raise ValueError("dead_heartbeats must be >= suspect_heartbeats")
        if self.journal_checkpoint < 0:
            raise ValueError("journal_checkpoint must be >= 0")
        if self.range_split_threshold < 1:
            raise ValueError("range_split_threshold must be >= 1")
        if self.range_merge_threshold < 0:
            raise ValueError("range_merge_threshold must be >= 0")
        if self.range_merge_threshold >= self.range_split_threshold:
            raise ValueError("range_merge_threshold must be below "
                             "range_split_threshold")
        if self.hotspot_interval <= 0:
            raise ValueError("hotspot_interval must be positive")
        if self.pool_max_servers < 0:
            raise ValueError("pool_max_servers must be >= 0")
        if self.lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        if self.scrub_interval < 0:
            raise ValueError("scrub_interval must be >= 0")
        if self.scrub_rate_limit < 0:
            raise ValueError("scrub_rate_limit must be >= 0")
        if StorageTier.PFS in self.cache_tiers:
            raise ValueError("PFS is the implicit destination tier; "
                             "do not list it in cache_tiers")
        if len(set(self.cache_tiers)) != len(self.cache_tiers):
            raise ValueError("duplicate cache tiers")

    # -- canned configurations (the paper's variants) ----------------------
    @staticmethod
    def dram_only(**kw) -> "UniviStorConfig":
        """UniviStor/DRAM of §III: cache in distributed DRAM only."""
        return UniviStorConfig(cache_tiers=(StorageTier.DRAM,), **kw)

    @staticmethod
    def bb_only(**kw) -> "UniviStorConfig":
        """UniviStor/BB of §III: cache in the shared burst buffer only."""
        return UniviStorConfig(cache_tiers=(StorageTier.SHARED_BB,), **kw)

    @staticmethod
    def dram_bb(**kw) -> "UniviStorConfig":
        """UniviStor/(DRAM+BB): the full hierarchy of Figs. 8/10."""
        return UniviStorConfig(cache_tiers=(StorageTier.DRAM,
                                            StorageTier.SHARED_BB), **kw)

    @staticmethod
    def pfs_only(**kw) -> "UniviStorConfig":
        """UniviStor/(Disk): no caching tier, write through to the PFS."""
        return UniviStorConfig(cache_tiers=(), **kw)

    @staticmethod
    def full_hierarchy(**kw) -> "UniviStorConfig":
        """All four layers of Fig. 1: DRAM -> node-local SSD -> shared BB
        (-> PFS).  Needs a machine with node-local SSDs, e.g.
        :meth:`MachineSpec.summit_like`."""
        return UniviStorConfig(cache_tiers=(StorageTier.DRAM,
                                            StorageTier.LOCAL_SSD,
                                            StorageTier.SHARED_BB), **kw)

    def without(self, *flags: str) -> "UniviStorConfig":
        """Disable optimisation flags by name (for ablation variants):
        any ``bool`` field."""
        # Annotations are strings here (``from __future__ import
        # annotations``).
        valid = {f.name for f in fields(self) if f.type == "bool"}
        changes = {}
        for flag in flags:
            if flag not in valid:
                raise ValueError(f"unknown flag {flag!r}; valid: {sorted(valid)}")
            changes[flag] = False
        return replace(self, **changes)
