"""Shared plumbing for the figure runners.

System labels follow the paper's legends:

* ``UniviStor/DRAM`` — cache tier = distributed DRAM only,
* ``UniviStor/BB`` — cache tier = shared burst buffer only,
* ``UniviStor/(DRAM+BB)`` — the full hierarchy,
* ``UniviStor/(Disk)`` — no cache tier (write-through to the PFS),
* ``DE`` — Data Elevator,
* ``Lustre`` — plain Lustre.

All experiments use the evaluation's deployment: 32 client processes per
node, 2 UniviStor (and Data Elevator) servers per node (§III-A).
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

from repro.cluster.spec import MachineSpec
from repro.core.config import UniviStorConfig
from repro.simulation import Simulation

__all__ = [
    "PAPER_SWEEP", "SMALL_SWEEP", "sweep", "PROCS_PER_NODE",
    "UNIVISTOR_LABELS", "build_simulation", "univistor_config_for",
]

#: The evaluation sweep: 64 to 8192 processes with 2x increments.
PAPER_SWEEP = [64, 128, 256, 512, 1024, 2048, 4096, 8192]
#: A quicker sweep for CI-ish runs (4x increments, same endpoints shape).
SMALL_SWEEP = [64, 256, 1024]
PROCS_PER_NODE = 32

UNIVISTOR_LABELS = {
    "UniviStor/DRAM": UniviStorConfig.dram_only,
    "UniviStor/BB": UniviStorConfig.bb_only,
    "UniviStor/(DRAM+BB)": UniviStorConfig.dram_bb,
    "UniviStor/(Disk)": UniviStorConfig.pfs_only,
}


def sweep() -> list:
    """The process-count sweep, honouring ``REPRO_SWEEP``.

    ``REPRO_SWEEP=paper`` runs the full 64..8192 sweep; ``small`` (the
    default) the 3-point one; a comma-separated list gives full control.
    """
    value = os.environ.get("REPRO_SWEEP", "small")
    if value == "paper":
        return list(PAPER_SWEEP)
    if value == "small":
        return list(SMALL_SWEEP)
    return [int(x) for x in value.split(",")]


def univistor_config_for(label: str, **overrides) -> UniviStorConfig:
    try:
        factory = UNIVISTOR_LABELS[label]
    except KeyError:
        raise ValueError(f"unknown UniviStor label {label!r}; one of "
                         f"{sorted(UNIVISTOR_LABELS)}") from None
    return factory(**overrides)


def build_simulation(procs: int, system: str,
                     config: Optional[UniviStorConfig] = None,
                     spec: Optional[MachineSpec] = None
                     ) -> Tuple[Simulation, str]:
    """A ready-to-run simulation for one (scale, system) cell.

    Returns ``(sim, fstype)`` where ``fstype`` is the ADIO driver name the
    workload should open files with.
    """
    if procs % PROCS_PER_NODE != 0:
        raise ValueError(f"procs ({procs}) must be a multiple of "
                         f"{PROCS_PER_NODE} (the per-node client count)")
    nodes = procs // PROCS_PER_NODE
    sim = Simulation(spec or MachineSpec.cori_haswell(nodes=nodes))
    if system.startswith("UniviStor"):
        sim.install_univistor(config or univistor_config_for(system))
        return sim, "univistor"
    if system == "DE":
        sim.install_data_elevator()
        return sim, "data_elevator"
    if system == "Lustre":
        sim.install_lustre()
        return sim, "lustre"
    raise ValueError(f"unknown system {system!r}")


def io_rate(sim: Simulation, app: str, ops=("open", "write", "close"),
            data_ops=("write",)) -> float:
    """The paper's I/O rate: bytes moved over open+op+close time."""
    tel = sim.telemetry
    total_time = sum(tel.total_time(app=app, op=op) for op in ops)
    total_bytes = sum(tel.total_bytes(app=app, op=op) for op in data_ops)
    if total_time <= 0:
        return 0.0
    return total_bytes / total_time
