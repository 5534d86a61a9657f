"""Compute-node model: local devices + the processes placed on the node."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cluster.cpu import (
    CorePlacement,
    PlacementPolicy,
    ProgramOnNode,
    placement_efficiency,
)
from repro.cluster.spec import MachineSpec, NodeSpec
from repro.sim.engine import Engine
from repro.sim.rng import StreamRNG
from repro.storage.device import StorageDevice
from repro.storage.posix import FileStore

__all__ = ["ComputeNode"]


class ComputeNode:
    """One compute node: DRAM cache device, optional local SSD, CPU state.

    The node tracks which program slices run on it
    (:meth:`register_program`) so the placement model can reproduce
    Fig. 4's scenarios, and owns the *node-local* storage devices that
    UniviStor's DHP uses as its fastest layers.
    """

    def __init__(self, engine: Engine, node_id: int, machine_spec: MachineSpec,
                 rng: StreamRNG):
        self.engine = engine
        self.node_id = node_id
        self.machine_spec = machine_spec
        self.spec: NodeSpec = machine_spec.node
        self.rng = rng
        # The device pipe carries the *raw* (copy-engine) DRAM bandwidth;
        # the much lower client cache-path rate (dram_cache_bandwidth) is
        # imposed per flow by the UniviStor client/read service via
        # per-stream caps, so server flush reads of large log regions are
        # not throttled to the client-copy rate.
        self.dram = StorageDevice(
            engine, f"node{node_id}.dram",
            capacity=self.spec.dram_cache_capacity,
            bandwidth=self.spec.dram_bandwidth * 0.5,
            latency=self.spec.dram_latency,
            read_factor=self.spec.dram_read_factor, duplex=True)
        self.local_ssd: Optional[StorageDevice] = None
        if self.spec.local_ssd_capacity is not None:
            self.local_ssd = StorageDevice(
                engine, f"node{node_id}.ssd",
                capacity=self.spec.local_ssd_capacity,
                bandwidth=self.spec.local_ssd_bandwidth,
                latency=self.spec.local_ssd_latency)
        #: Files living in this node's memory/SSD (UniviStor logs).
        self.files = FileStore(name=f"node{node_id}")
        self._programs: Dict[str, ProgramOnNode] = {}
        self._placement_cache: Dict[Tuple, CorePlacement] = {}
        #: ``(name, nprocs, kind)`` of every co-resident program, in
        #: registration order (the order placement fills cores in).
        self.tenancy: Tuple[Tuple[str, int, str], ...] = ()
        #: Bumped on every register/unregister; an O(1) stand-in for the
        #: co-resident program set in downstream cache keys (multi-job
        #: runs change tenancy mid-simulation).
        self.tenancy_epoch = 0
        #: True while a server-side flush is running on this node (drives
        #: the Fig. 4d migration in the interference-aware policy).
        self.flush_active = False

    # -- program registry -----------------------------------------------
    def register_program(self, name: str, nprocs: int,
                         kind: str = "client") -> None:
        """Declare that ``nprocs`` processes of ``name`` run on this node."""
        if nprocs <= 0:
            return
        self._programs[name] = ProgramOnNode(name, nprocs, kind)
        self._tenancy_changed()

    def unregister_program(self, name: str) -> None:
        self._programs.pop(name, None)
        self._tenancy_changed()

    def _tenancy_changed(self) -> None:
        self.tenancy = tuple((p.name, p.nprocs, p.kind)
                             for p in self._programs.values())
        self._placement_cache.clear()
        self.tenancy_epoch += 1

    def programs(self) -> List[ProgramOnNode]:
        return list(self._programs.values())

    def procs_of(self, name: str) -> int:
        prog = self._programs.get(name)
        return prog.nprocs if prog else 0

    def set_flush_active(self, active: bool) -> None:
        self.flush_active = active

    # -- placement / interference ------------------------------------------
    def placement(self, policy: PlacementPolicy) -> CorePlacement:
        """Current placement of all registered programs under ``policy``."""
        key = (policy, self.flush_active, self.tenancy)
        cached = self._placement_cache.get(key)
        if cached is not None:
            return cached
        programs = self.programs()
        if policy is PlacementPolicy.INTERFERENCE_AWARE:
            placement = CorePlacement.place_interference_aware(
                self.spec, programs, flush_active=self.flush_active)
        else:
            placement = CorePlacement.place_cfs(
                self.spec, programs,
                self.rng.stream(f"cfs.node{self.node_id}"),
                spec=self.machine_spec.scheduling)
        self._placement_cache[key] = placement
        return placement

    def efficiency(self, program: str, policy: PlacementPolicy,
                   sensitivity: float = 1.0,
                   idle_programs: frozenset = frozenset()) -> float:
        """Scheduling-derived throughput factor for ``program`` on this node."""
        return placement_efficiency(
            self.placement(policy), program,
            self.machine_spec.scheduling, sensitivity=sensitivity,
            idle_programs=idle_programs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ComputeNode {self.node_id} programs={list(self._programs)}>"
