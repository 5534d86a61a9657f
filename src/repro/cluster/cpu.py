"""Core placement and the interference model (§II-C, Fig. 4).

Two placement algorithms are implemented:

* :meth:`CorePlacement.place_cfs` — a model of Linux CFS placement as the
  paper describes its failure modes (Fig. 4a): processes land on cores
  without program awareness, so processes stack on shared cores while other
  cores idle, and one program's processes may crowd a single NUMA socket.

* :meth:`CorePlacement.place_interference_aware` — UniviStor's policy
  (Fig. 4b–d): processes of every program are spread evenly across NUMA
  sockets; under oversubscription extra client processes borrow the server
  program's cores while servers are idle (Fig. 4c) and are migrated away
  when a flush makes the servers busy (Fig. 4d).

:func:`placement_efficiency` translates a concrete placement into a
throughput factor for a synchronised, bandwidth-bound collective operation:
the operation completes when its slowest process finishes, so socket
imbalance and per-core stacking both stretch completion time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.spec import NodeSpec, SchedulingSpec

__all__ = [
    "PlacementPolicy",
    "ProgramOnNode",
    "CorePlacement",
    "placement_efficiency",
    "cpu_availability",
]


class PlacementPolicy(enum.Enum):
    """How processes are assigned to cores on a node."""

    CFS = "cfs"
    INTERFERENCE_AWARE = "interference_aware"


@dataclass
class ProgramOnNode:
    """The slice of one parallel program running on one node.

    ``kind`` distinguishes UniviStor ``server`` processes (whose cores may
    be borrowed while idle) from application ``client`` processes.
    """

    name: str
    nprocs: int
    kind: str = "client"  # "client" | "server"

    def __post_init__(self):
        if self.nprocs < 0:
            raise ValueError(f"nprocs must be >= 0, got {self.nprocs}")
        if self.kind not in ("client", "server"):
            raise ValueError(f"unknown program kind {self.kind!r}")


@dataclass
class CorePlacement:
    """An assignment of (program, local process index) pairs to cores.

    ``core_occupants[c]`` lists the processes currently runnable on core
    ``c``.  Cores are numbered socket-major: with ``cores_per_socket = k``,
    core ``c`` belongs to socket ``c // k`` (matching Fig. 4's C1–C3 on one
    socket, C4–C6 on the other).
    """

    node: NodeSpec
    core_occupants: List[List[Tuple[str, int]]] = field(default_factory=list)
    policy: PlacementPolicy = PlacementPolicy.INTERFERENCE_AWARE
    #: Which processes are currently parked on borrowed server cores
    #: (only meaningful for interference-aware oversubscription).
    borrowed: List[Tuple[str, int]] = field(default_factory=list)

    def __post_init__(self):
        if not self.core_occupants:
            self.core_occupants = [[] for _ in range(self.node.cores)]

    # -- queries --------------------------------------------------------
    def socket_of(self, core: int) -> int:
        return core // self.node.cores_per_socket

    def cores_of(self, program: str) -> List[int]:
        return [c for c, occ in enumerate(self.core_occupants)
                if any(p == program for p, _ in occ)]

    def processes_of(self, program: str) -> List[Tuple[int, int]]:
        """Return (core, proc_index) pairs for ``program``."""
        out = []
        for c, occ in enumerate(self.core_occupants):
            for p, idx in occ:
                if p == program:
                    out.append((c, idx))
        return out

    def socket_loads(self, program: str) -> List[int]:
        """Processes of ``program`` per socket."""
        loads = [0] * self.node.numa_sockets
        for c, occ in enumerate(self.core_occupants):
            s = self.socket_of(c)
            loads[s] += sum(1 for p, _ in occ if p == program)
        return loads

    def stacking(self) -> Dict[int, int]:
        """core -> number of runnable processes (only cores with > 1)."""
        return {c: len(occ) for c, occ in enumerate(self.core_occupants)
                if len(occ) > 1}

    def total_processes(self) -> int:
        return sum(len(occ) for occ in self.core_occupants)

    # -- placement algorithms --------------------------------------------
    @classmethod
    def place_cfs(cls, node: NodeSpec, programs: Sequence[ProgramOnNode],
                  rng: np.random.Generator,
                  spec: Optional[SchedulingSpec] = None) -> "CorePlacement":
        """Program-agnostic placement: the Fig. 4a failure modes.

        Each process picks a core at random among the least-loaded cores of
        a randomly biased socket: with probability ``cfs_socket_bias`` a
        process follows its program's previous process onto the same socket
        (CFS wake affinity), otherwise it picks uniformly.  This yields both
        stacking-with-idle-cores and same-socket crowding, the two issues
        the paper calls out, while staying statistically reasonable.
        """
        spec = spec or SchedulingSpec()
        placement = cls(node=node, policy=PlacementPolicy.CFS)
        last_socket: Dict[str, int] = {}
        for prog in programs:
            for idx in range(prog.nprocs):
                if prog.name in last_socket and rng.random() < spec.cfs_socket_bias:
                    socket = last_socket[prog.name]
                else:
                    socket = int(rng.integers(0, node.numa_sockets))
                base = socket * node.cores_per_socket
                # CFS's per-CPU runqueues balance lazily: choose among a
                # random sample of the socket's cores, take the less loaded.
                candidates = rng.integers(0, node.cores_per_socket, size=2)
                loads = [len(placement.core_occupants[base + int(c)])
                         for c in candidates]
                core = base + int(candidates[int(np.argmin(loads))])
                placement.core_occupants[core].append((prog.name, idx))
                last_socket[prog.name] = socket
        return placement

    @classmethod
    def place_interference_aware(
            cls, node: NodeSpec, programs: Sequence[ProgramOnNode],
            flush_active: bool = False) -> "CorePlacement":
        """UniviStor's placement (Fig. 4b–d).

        Every program's processes are spread evenly across NUMA sockets
        (remainders to the less-loaded socket).  If total processes exceed
        cores, extra *client* processes are assigned to the server
        program's cores while the servers are idle (Fig. 4c); when
        ``flush_active`` the borrowed processes are migrated back onto
        client cores instead (Fig. 4d).
        """
        placement = cls(node=node,
                        policy=PlacementPolicy.INTERFERENCE_AWARE)
        sockets = node.numa_sockets
        per_socket_free: List[List[int]] = [
            list(range(s * node.cores_per_socket,
                       (s + 1) * node.cores_per_socket))
            for s in range(sockets)
        ]
        socket_load = [0] * sockets
        overflow: List[Tuple[str, int, str]] = []

        # Pass 1: spread every program across sockets onto free cores.
        for prog in programs:
            base, rem = divmod(prog.nprocs, sockets)
            counts = [base] * sockets
            # Remainder processes go to the less-loaded sockets (§II-C).
            order = sorted(range(sockets), key=lambda s: socket_load[s])
            for i in range(rem):
                counts[order[i]] += 1
            idx = 0
            for s in range(sockets):
                for _ in range(counts[s]):
                    if per_socket_free[s]:
                        core = per_socket_free[s].pop(0)
                        placement.core_occupants[core].append((prog.name, idx))
                        socket_load[s] += 1
                    else:
                        overflow.append((prog.name, idx, prog.kind))
                    idx += 1

        # Pass 2: oversubscription — state-aware borrowing (Fig. 4c/d).
        server_cores = [c for c, occ in enumerate(placement.core_occupants)
                        if any(_kind_of(programs, p) == "server"
                               for p, _ in occ)]
        own_cores: Dict[str, List[int]] = {
            prog.name: placement.cores_of(prog.name) for prog in programs}
        for name, idx, kind in overflow:
            if kind == "client" and server_cores and not flush_active:
                # Borrow an idle server core (Fig. 4c).
                core = min(server_cores,
                           key=lambda c: len(placement.core_occupants[c]))
                placement.borrowed.append((name, idx))
            else:
                # Stack on the program's own least-loaded core (Fig. 4d
                # migration target, or plain fallback).
                candidates = own_cores.get(name) or list(
                    range(node.cores))
                core = min(candidates,
                           key=lambda c: len(placement.core_occupants[c]))
            placement.core_occupants[core].append((name, idx))
        return placement


def _kind_of(programs: Sequence[ProgramOnNode], name: str) -> str:
    for prog in programs:
        if prog.name == name:
            return prog.kind
    return "client"


def placement_efficiency(placement: CorePlacement, program: str,
                         scheduling: SchedulingSpec,
                         sensitivity: float = 1.0,
                         straggler_weight: float = 0.6,
                         idle_programs: frozenset = frozenset()) -> float:
    """Throughput factor in (0, 1] for ``program``'s collective operation.

    The model charges two effects visible in a placement:

    * **NUMA imbalance** — the program's processes on socket ``s`` share
      that socket's slice of memory bandwidth; a crowded socket starves its
      processes and the synchronised collective waits for them.
    * **Core stacking** — a process sharing a core with another *active*
      process runs at ``context_switch_factor`` (times
      ``cross_program_factor`` if the co-runner belongs to a different
      program).  Programs in ``idle_programs`` are blocked (e.g. UniviStor
      servers while clients write into shared-memory logs) and inflict no
      penalty — this is exactly the state-awareness that lets Fig. 4c's
      borrowed cores come for free.

    ``sensitivity`` in [0, 1] says how bandwidth-bound the operation is
    (1.0 for cache writes, lower for reads that also wait on the network);
    ``straggler_weight`` blends worst-process and mean-process rates, since
    CFS migrates processes over time and softens pure stragglers.
    """
    if not 0.0 <= sensitivity <= 1.0:
        raise ValueError(f"sensitivity must be in [0, 1], got {sensitivity}")
    node = placement.node
    procs = placement.processes_of(program)
    if not procs:
        return 1.0
    p = len(procs)

    def active(name: str) -> bool:
        return name == program or name not in idle_programs

    # Active processes of any program per socket compete for that socket's
    # memory channels; the target program's processes per socket define its
    # own share.
    active_socket_loads = [0] * node.numa_sockets
    for c, occ in enumerate(placement.core_occupants):
        s = placement.socket_of(c)
        active_socket_loads[s] += sum(1 for name, _ in occ if active(name))

    # Per-process achievable rate relative to the balanced ideal (which
    # would be node_bw / p for every process).
    ideal_rate = 1.0 / p  # in units of node bandwidth
    rates = []
    for core, _idx in procs:
        socket = placement.socket_of(core)
        n_on_socket = max(1, active_socket_loads[socket])
        mem_rate = (1.0 / node.numa_sockets) / n_on_socket
        occupants = placement.core_occupants[core]
        active_corunners = [name for name, _ in occupants
                            if active(name)]
        cpu = 1.0
        if len(active_corunners) > 1:
            cpu = scheduling.context_switch_factor ** (len(active_corunners) - 1)
            if any(other != program for other in active_corunners):
                cpu *= scheduling.cross_program_factor
        rates.append(min(mem_rate, ideal_rate * node.numa_sockets) * cpu)

    rates_arr = np.asarray(rates)
    blended = (straggler_weight * rates_arr.min()
               + (1.0 - straggler_weight) * rates_arr.mean())
    eff = min(1.0, blended / ideal_rate)
    if placement.policy is PlacementPolicy.INTERFERENCE_AWARE:
        eff = min(eff, 1.0) * scheduling.ia_overhead_factor
    # Interpolate toward 1.0 for operations that are not purely
    # bandwidth-bound.
    eff = eff ** sensitivity if sensitivity > 0 else 1.0
    return float(max(1e-3, min(1.0, eff)))


def cpu_availability(placement: CorePlacement, program: str,
                     scheduling: SchedulingSpec,
                     idle_programs: frozenset = frozenset(),
                     straggler_weight: float = 0.6,
                     sensitivity: float = 0.35) -> float:
    """CPU-time factor in (0, 1] for ``program``'s processes.

    Used for operations whose bottleneck is *not* node memory bandwidth —
    most importantly the server-side flush (§II-C's Fig. 4d scenario): a
    flushing server stacked with active client processes loses CPU time to
    time-sharing; a server with a dedicated core does not.  ``sensitivity``
    captures how much lost CPU translates into lost flush goodput (a
    network-bound flush tolerates some CPU loss).
    """
    procs = placement.processes_of(program)
    if not procs:
        return 1.0

    def active(name: str) -> bool:
        return name == program or name not in idle_programs

    shares = []
    for core, _idx in procs:
        occupants = [name for name, _ in placement.core_occupants[core]
                     if active(name)]
        share = 1.0 / max(1, len(occupants))
        if len(occupants) > 1:
            share *= scheduling.context_switch_factor
            if any(other != program for other in occupants):
                share *= scheduling.cross_program_factor
        shares.append(share)
    arr = np.asarray(shares)
    blended = straggler_weight * arr.min() + (1 - straggler_weight) * arr.mean()
    if placement.policy is PlacementPolicy.INTERFERENCE_AWARE:
        blended *= scheduling.ia_overhead_factor
    eff = blended ** sensitivity if sensitivity > 0 else 1.0
    return float(max(1e-3, min(1.0, eff)))
