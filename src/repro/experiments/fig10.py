"""Fig. 10 — the 10-step workflow across storage layers.

Ten VPIC steps no longer fit in DRAM, so UniviStor/(DRAM+BB) spreads the
data over the distributed DRAM layer *and* the burst buffer while BD-CATS
consumes it — the unified-view payoff.  Compared against placing all data
on the BB or on Lustre, all in overlap mode.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.report import Table
from repro.core.config import UniviStorConfig
from repro.experiments.registry import register_experiment
from repro.experiments.common import sweep
from repro.experiments.fig9 import run_workflow

__all__ = ["run_fig10", "FIG10_VARIANTS"]

FIG10_VARIANTS = [
    ("UniviStor/(DRAM+BB)", lambda **kw: UniviStorConfig.dram_bb(**kw)),
    ("UniviStor/(BB)", lambda **kw: UniviStorConfig.bb_only(**kw)),
    ("UniviStor/(Disk)", lambda **kw: UniviStorConfig.pfs_only(**kw)),
]


def run_fig10(procs_list: Optional[List[int]] = None, steps: int = 10,
              particles_per_proc: Optional[int] = None,
              verify: bool = False) -> Table:
    """Elapsed workflow time (lower is better).  Paper bands: DRAM+BB is
    1.5-2x (avg 1.8x) faster than BB-only and 4-4.8x (avg 4.3x) faster
    than Lustre-only placement."""
    table = Table(title=f"Fig. 10 — elapsed time, {steps}-step workflow "
                        "across storage layers",
                  xlabel="processes", ylabel="elapsed time (s)")
    for procs in procs_list or sweep():
        for label, factory in FIG10_VARIANTS:
            config = factory(workflow_enabled=True)
            elapsed = run_workflow(procs, "UniviStor/DRAM", True, steps,
                                   config=config,
                                   particles_per_proc=particles_per_proc,
                                   verify=verify)
            table.add(procs, label, elapsed)
    return table


register_experiment("fig10", run_fig10)
