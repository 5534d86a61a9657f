"""Fig. 8 — 10-time-step VPIC-IO across multiple storage layers.

Ten steps (2.5 GiB per process) exceed the per-node DRAM cache, so
UniviStor/(DRAM+BB+Disk) spills roughly half of the data to the shared
burst buffer (§III-C) — the experiment that shows DHP actually exploiting
the *hierarchy* rather than a single tier.  Compared against caching
everything on the BB and writing straight to disk.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.report import Table
from repro.core.config import UniviStorConfig
from repro.experiments.registry import register_experiment
from repro.experiments.common import build_simulation, sweep
from repro.workloads.vpic import VpicIO

__all__ = ["run_fig8", "FIG8_VARIANTS"]

FIG8_VARIANTS = [
    ("UniviStor/(DRAM+BB+Disk)", UniviStorConfig.dram_bb),
    ("UniviStor/(BB+Disk)", UniviStorConfig.bb_only),
    ("UniviStor/(Disk)", UniviStorConfig.pfs_only),
]


def run_fig8(procs_list: Optional[List[int]] = None, steps: int = 10,
             compute_seconds: float = 60.0,
             particles_per_proc: Optional[int] = None) -> Table:
    """Total I/O time (lower is better).  Paper bands: DRAM+BB+Disk is
    1.2-1.6x (avg 1.4x) faster than BB+Disk and 1.4-2x (avg 1.7x) faster
    than Disk."""
    table = Table(title=f"Fig. 8 — total I/O time, {steps}-step VPIC-IO "
                        "across storage layers",
                  xlabel="processes", ylabel="I/O time (s)")
    kwargs = {}
    if particles_per_proc is not None:
        kwargs["particles_per_proc"] = particles_per_proc
    for procs in procs_list or sweep():
        for label, factory in FIG8_VARIANTS:
            sim, fstype = build_simulation(procs, "UniviStor/DRAM",
                                           config=factory())
            comm = sim.comm("vpic", size=procs)
            vpic = VpicIO(sim, comm, fstype, steps=steps,
                          compute_seconds=compute_seconds, **kwargs)

            def app():
                yield from vpic.run(sync_last=True)

            sim.run_to_completion(app(), name=f"fig8-{label}")
            table.add(procs, label, vpic.measured_io_time())
    return table


register_experiment("fig8", run_fig8)
