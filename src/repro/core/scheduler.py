"""Interference-aware resource scheduling service (§II-C).

Thin orchestration over :mod:`repro.cluster.cpu`: selects the placement
policy from the configuration, answers per-node efficiency queries for the
data path, and drives the Fig. 4d flush migration (park borrowed client
processes back on client cores while servers flush, restore afterwards).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.cluster.cpu import PlacementPolicy, cpu_availability
from repro.cluster.node import ComputeNode
from repro.cluster.topology import Machine
from repro.core.config import UniviStorConfig

__all__ = ["SchedulerService"]

#: How bandwidth-bound each operation kind is (exponent fed to the
#: placement-efficiency model).  Writes into mmap'd DRAM logs are pure
#: memory bandwidth; reads also wait on metadata/network so scheduling
#: hurts them less (the paper's IA read gains are smaller than write
#: gains: 1.25x vs 1.9x average).
_SENSITIVITY = {
    "write": 1.0,
    "read": 0.45,
}


class SchedulerService:
    """Policy selection + efficiency queries + flush migration."""

    def __init__(self, machine: Machine, config: UniviStorConfig,
                 server_program: str):
        self.machine = machine
        self.config = config
        self.server_program = server_program
        self.policy = (PlacementPolicy.INTERFERENCE_AWARE
                       if config.interference_aware
                       else PlacementPolicy.CFS)
        self._flush_depth = 0
        self._cache: Dict[Tuple, float] = {}

    # -- data-path efficiency ------------------------------------------------
    def _node_key(self, node: ComputeNode) -> Tuple:
        """What ``node``'s factors depend on.  Under IA that is the node's
        class — its programs and the flush state (every node of a machine
        shares one ``NodeSpec``) — so identical nodes share one placement.
        Under CFS it is the node itself: its placement draws from the
        node's own RNG stream, redrawn at every tenancy change (multi-job
        runs register and unregister programs mid-simulation)."""
        if self.policy is PlacementPolicy.INTERFERENCE_AWARE:
            return (node.tenancy, node.flush_active)
        return (node.node_id, node.tenancy_epoch, node.flush_active)

    def client_efficiency(self, node: ComputeNode, program: str,
                          op: str) -> float:
        """Throughput factor for ``program``'s collective ``op`` on ``node``.

        UniviStor servers are blocked while clients move data into the
        shared-memory logs, so they count as idle co-runners.
        """
        key = ("client", program, op, self._node_key(node))
        cached = self._cache.get(key)
        if cached is None:
            cached = self._cache[key] = node.efficiency(
                program, self.policy, sensitivity=_SENSITIVITY[op],
                idle_programs=frozenset({self.server_program}))
        return cached

    def flush_efficiency(self, node: ComputeNode) -> float:
        """CPU-availability factor for this node's flushing servers."""
        key = ("flush", self._node_key(node))
        cached = self._cache.get(key)
        if cached is None:
            cached = self._cache[key] = cpu_availability(
                node.placement(self.policy), self.server_program,
                self.machine.spec.scheduling)
        return cached

    def mean_flush_efficiency(self) -> float:
        """Machine-wide mean server flush factor (flush flows are pooled)."""
        nodes = [n for n in self.machine.nodes
                 if n.procs_of(self.server_program) > 0]
        if not nodes:
            return 1.0
        return sum(self.flush_efficiency(n) for n in nodes) / len(nodes)

    # -- flush migration (Fig. 4d) -------------------------------------------
    def begin_flush(self) -> None:
        """Mark servers busy; under IA this migrates borrowed clients off
        the server cores.  Reference-counted: concurrent flushes nest."""
        self._flush_depth += 1
        if self._flush_depth == 1 and self.config.interference_aware:
            self.machine.set_flush_active(True)
            self._cache.clear()

    def end_flush(self) -> None:
        if self._flush_depth <= 0:
            raise RuntimeError("end_flush without begin_flush")
        self._flush_depth -= 1
        if self._flush_depth == 0 and self.config.interference_aware:
            self.machine.set_flush_active(False)
            self._cache.clear()

    @property
    def flush_active(self) -> bool:
        return self._flush_depth > 0
