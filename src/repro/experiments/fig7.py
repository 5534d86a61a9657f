"""Fig. 7 — total I/O time of 5-time-step VPIC-IO on a single layer.

VPIC-IO writes 256 MiB per process per step with a 60 s compute phase
between checkpoints; UniviStor and Data Elevator cache the checkpoints
(DRAM or BB) and flush asynchronously during compute, so the measured I/O
time is the per-step write time plus the *exposed* flush of the last step
("+Flush" in the paper's stacked bars).  Lustre writes synchronously.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.report import Table
from repro.experiments.registry import register_experiment
from repro.experiments.common import build_simulation, sweep
from repro.workloads.vpic import VpicIO

__all__ = ["run_fig7", "FIG7_SYSTEMS"]

FIG7_SYSTEMS = ["UniviStor/DRAM", "UniviStor/BB", "DE", "Lustre"]


def run_fig7(procs_list: Optional[List[int]] = None, steps: int = 5,
             compute_seconds: float = 60.0,
             particles_per_proc: Optional[int] = None) -> Table:
    """Total I/O time (lower is better).  Paper bands: UniviStor/DRAM is
    1.9-3.1x (avg 2.5x) and UniviStor/BB 1.1-1.6x (avg 1.3x) faster than
    Data Elevator."""
    table = Table(title=f"Fig. 7 — total I/O time, {steps}-step VPIC-IO",
                  xlabel="processes", ylabel="I/O time (s)")
    kwargs = {}
    if particles_per_proc is not None:
        kwargs["particles_per_proc"] = particles_per_proc
    for procs in procs_list or sweep():
        for system in FIG7_SYSTEMS:
            sim, fstype = build_simulation(procs, system)
            comm = sim.comm("vpic", size=procs)
            vpic = VpicIO(sim, comm, fstype, steps=steps,
                          compute_seconds=compute_seconds, **kwargs)

            def app():
                yield from vpic.run(sync_last=True)

            sim.run_to_completion(app(), name=f"fig7-{system}")
            table.add(procs, system, vpic.measured_io_time())
            if system != "Lustre":
                # The exposed flush tail — the paper's "+Flush" segment.
                table.add(procs, f"{system} Flush",
                          sim.telemetry.total_time(app="vpic",
                                                   op="flush-wait"))
    return table


register_experiment("fig7", run_fig7)
