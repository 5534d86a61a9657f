"""Per-layer metrics derived from one traced run.

``X.self_s`` is host time inside layer X's wrapped calls minus the time in
wrapped calls nested inside them (see :mod:`spans`).  ``engine.self_s`` is
the residual of the run loops, so it includes the workloads' own generator
code; ``unattributed.self_s`` is measured-region time outside every
wrapped call.  ``*_sim_s`` figures are simulated seconds, the rest host.
"""

from __future__ import annotations

import math
from statistics import median
from typing import TYPE_CHECKING, Dict, List, Tuple

if TYPE_CHECKING:
    from spans import Tracer
    from workloads import Outcome

__all__ = ["LAYER_UNITS", "layer_metrics", "tail"]

GiB = float(2 ** 30)
MiB = float(2 ** 20)

#: Every per-layer metric and its unit, in reporting order.
LAYER_UNITS: Dict[str, str] = {
    "engine.events": "count",
    "engine.self_s": "s",
    "engine.events_per_s": "1/s",
    "resources.transfers": "count",
    "resources.recomputes": "count",
    "resources.self_s": "s",
    "simmpi.comm_build_s": "s",
    "simmpi.opens": "count",
    "server.writers": "count",
    "server.writer_for_self_s": "s",
    "dhp.logfiles": "count",
    "dhp.writes": "count",
    "dhp.segments_per_write": "ratio",
    "dhp.self_s": "s",
    "va.resolves": "count",
    "va.self_s": "s",
    "dhp.dram_gib": "GiB",
    "dhp.shared_bb_gib": "GiB",
    "metadata.inserts": "count",
    "metadata.records_in": "count",
    "metadata.records_stored": "count",
    "metadata.coalesce_ratio": "ratio",
    "metadata.insert_self_s": "s",
    "metadata.lookups": "count",
    "metadata.lookup_self_s": "s",
    "metadata.route_calls": "count",
    "metadata.route_self_s": "s",
    "location_cache.hit_ratio": "ratio",
    "location_cache.self_s": "s",
    "versioning.stamps": "count",
    "versioning.self_s": "s",
    "client.writes": "count",
    "client.write_self_s": "s",
    "client.reads": "count",
    "client.read_self_s": "s",
    "client.write_ms_p50": "ms",
    "client.write_ms_tail": "ms",
    "client.write_tail_pct": "%",
    "client.write_samples": "count",
    "client.read_ms_p50": "ms",
    "client.read_ms_tail": "ms",
    "client.read_tail_pct": "%",
    "client.read_samples": "count",
    "client.sim_write_s": "sim_s",
    "client.sim_read_s": "sim_s",
    "read_service.self_s": "s",
    "read_service.resolves": "count",
    "read_service.degraded": "count",
    "read_service.stale_rejects": "count",
    "read_service.local_gib": "GiB",
    "read_service.remote_gib": "GiB",
    "read_service.bb_gib": "GiB",
    "read_service.pfs_gib": "GiB",
    "flush.starts": "count",
    "flush.self_s": "s",
    "flush.wait_sim_s": "sim_s",
    "resilience.replications": "count",
    "resilience.replica_reads": "count",
    "resilience.quorum_acks": "count",
    "resilience.self_s": "s",
    "recovery.takeovers": "count",
    "recovery.self_s": "s",
    "scrub.passes": "count",
    "scrub.self_s": "s",
    "hotspot.splits": "count",
    "hotspot.merges": "count",
    "hotspot.pool_grows": "count",
    "hotspot.self_s": "s",
    "workflow.lock_wait_sim_s": "sim_s",
    "datamodel.materialize_calls": "count",
    "datamodel.materialize_mib": "MiB",
    "datamodel.extent_ops": "count",
    "datamodel.self_s": "s",
    "unattributed.self_s": "s",
    "trace.spans": "count",
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead": "ratio",
}

#: Metrics the parent fills in from the untraced runs it pairs with the
#: traced ones (everything else comes from :func:`layer_metrics`).
PAIRED = ("engine.events_per_s", "trace.run_s", "trace.untraced_run_s",
          "trace.overhead")


def tail(samples: List[float]) -> Tuple[float, float, float]:
    """``(p50, tail, tail_pct)`` of ``samples``: the tail is the highest
    whole percentile (50..99) with at least ten samples beyond it; with
    fewer than twenty samples no such percentile exists and the tail is
    reported as the p50 with ``tail_pct`` 50."""
    if not samples:
        return 0.0, 0.0, 0.0
    ordered = sorted(samples)
    n = len(ordered)
    pct = 50
    for p in range(99, 50, -1):
        if n - math.ceil(n * p / 100) >= 10:
            pct = p
            break

    def at(p: int) -> float:
        return ordered[min(n - 1, math.ceil(n * p / 100) - 1)]

    return median(ordered), at(pct), float(pct)


def layer_metrics(tracer: Tracer, outcome: Outcome) -> Dict[str, float]:
    """Every :data:`LAYER_UNITS` metric except :data:`PAIRED`."""
    t = tracer
    count = t.count
    values = t.values
    counters = outcome.counters
    self_of = t.self_time.get
    dhp_writes = count("dhp.write")
    records_in = values["metadata.records_in"]
    hits = counters.get("cache-hit", 0.0)
    misses = counters.get("cache-miss", 0.0)
    write_p50, write_tail, write_pct = tail(t.samples["client.write_at_all"])
    read_p50, read_tail, read_pct = tail(t.samples["client.read_at_all"])
    out = {
        "engine.events": count("engine.timeout", "engine.event",
                               "engine.process", "engine.all_of",
                               "engine.any_of", "engine.call_later"),
        "engine.self_s": t.layer_self("engine"),
        "resources.transfers": count("resources.transfer"),
        "resources.recomputes": count("resources.recompute"),
        "resources.self_s": t.layer_self("resources"),
        "simmpi.comm_build_s": t.busy.get("simmpi.Communicator", 0.0),
        "simmpi.opens": count("simmpi.open"),
        "server.writers": count("server.DHPWriter"),
        "server.writer_for_self_s": self_of("server.writer_for", 0.0),
        "dhp.logfiles": count("dhp.LogFile"),
        "dhp.writes": dhp_writes,
        "dhp.segments_per_write": (values["dhp.segments"] / dhp_writes
                                   if dhp_writes else 0.0),
        "dhp.self_s": t.layer_self("dhp"),
        "va.resolves": count("va.resolve"),
        "va.self_s": t.layer_self("va"),
        "dhp.dram_gib": outcome.tier_bytes.get("dram", 0.0) / GiB,
        "dhp.shared_bb_gib": outcome.tier_bytes.get("shared_bb", 0.0) / GiB,
        "metadata.inserts": count("metadata.insert_many"),
        "metadata.records_in": records_in,
        "metadata.records_stored": outcome.records_stored,
        "metadata.coalesce_ratio": (
            (records_in + counters.get("meta-coalesce", 0.0)) / records_in
            if records_in else 0.0),
        "metadata.insert_self_s": self_of("metadata.insert_many", 0.0),
        "metadata.lookups": count("metadata.lookup"),
        "metadata.lookup_self_s": self_of("metadata.lookup", 0.0),
        "metadata.route_calls": count("metadata.write_target_servers",
                                      "metadata.read_servers_for"),
        "metadata.route_self_s": (
            self_of("metadata.write_target_servers", 0.0)
            + self_of("metadata.read_servers_for", 0.0)),
        "location_cache.hit_ratio": (hits / (hits + misses)
                                     if hits + misses else 0.0),
        "location_cache.self_s": t.layer_self("location_cache"),
        "versioning.stamps": count("versioning.stamp"),
        "versioning.self_s": t.layer_self("versioning"),
        "client.writes": count("client.write_at_all"),
        "client.write_self_s": self_of("client.write_at_all", 0.0),
        "client.reads": count("client.read_at_all"),
        "client.read_self_s": self_of("client.read_at_all", 0.0),
        "client.write_ms_p50": write_p50 * 1e3,
        "client.write_ms_tail": write_tail * 1e3,
        "client.write_tail_pct": write_pct,
        "client.write_samples": len(t.samples["client.write_at_all"]),
        "client.read_ms_p50": read_p50 * 1e3,
        "client.read_ms_tail": read_tail * 1e3,
        "client.read_tail_pct": read_pct,
        "client.read_samples": len(t.samples["client.read_at_all"]),
        "client.sim_write_s": t.sim_time.get("client.write_at_all", 0.0),
        "client.sim_read_s": t.sim_time.get("client.read_at_all", 0.0),
        "read_service.self_s": t.layer_self("read_service"),
        "read_service.resolves": count("read_service.resolve"),
        "read_service.degraded": count("read_service.resolve_degraded"),
        "read_service.stale_rejects": counters.get("data-stale-reject", 0.0),
        "read_service.local_gib": values["read_service.local_bytes"] / GiB,
        "read_service.remote_gib": values["read_service.remote_bytes"] / GiB,
        "read_service.bb_gib": values["read_service.bb_bytes"] / GiB,
        "read_service.pfs_gib": values["read_service.pfs_bytes"] / GiB,
        "flush.starts": count("flush.start"),
        "flush.self_s": t.layer_self("flush"),
        "flush.wait_sim_s": t.sim_time.get("flush.wait", 0.0),
        "resilience.replications": count("resilience.start_replication"),
        "resilience.replica_reads": count("resilience.resolve_replica"),
        "resilience.quorum_acks": counters.get("data-quorum-ack", 0.0),
        "resilience.self_s": t.layer_self("resilience"),
        "recovery.takeovers": count("recovery.handle_server_dead",
                                    "recovery.handle_node_dead"),
        "recovery.self_s": t.layer_self("recovery"),
        "scrub.passes": count("scrub.start"),
        "scrub.self_s": t.layer_self("scrub"),
        "hotspot.splits": count("hotspot.split_range"),
        "hotspot.merges": count("hotspot.merge_range"),
        "hotspot.pool_grows": count("hotspot.add_server"),
        "hotspot.self_s": t.layer_self("hotspot"),
        "workflow.lock_wait_sim_s": (
            t.sim_time.get("workflow.acquire_write", 0.0)
            + t.sim_time.get("workflow.acquire_read", 0.0)),
        "datamodel.materialize_calls": count("datamodel.materialize"),
        "datamodel.materialize_mib": (
            values["datamodel.materialize_bytes"] / MiB),
        "datamodel.extent_ops": count("datamodel.extent_write",
                                      "datamodel.extent_read"),
        "datamodel.self_s": t.layer_self("datamodel"),
        "unattributed.self_s": self_of("bench.run", 0.0),
        "trace.spans": len(t.spans),
    }
    return {name: float(value) for name, value in out.items()}
