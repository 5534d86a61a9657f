"""Fig. 9 — the 5-step VPIC-IO + BD-CATS-IO workflow.

Producer and consumer each get half the processes (§III-D).  Two UniviStor
modes: **Overlap** (both applications run concurrently, coordinated by the
workflow manager's state-file locks — BD-CATS's open blocks until VPIC's
close releases the write lock on each step file) and **Nonoverlap**
(BD-CATS starts only after VPIC finishes everything).  Data Elevator and
Lustre only support the nonoverlap sequence.  The metric is elapsed time
from VPIC's start to BD-CATS's end.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.report import Table
from repro.core.config import UniviStorConfig
from repro.experiments.registry import register_experiment
from repro.experiments.common import build_simulation, sweep
from repro.workloads.bdcats import BdCatsIO
from repro.workloads.vpic import VpicIO

__all__ = ["run_fig9", "FIG9_SERIES", "run_workflow"]

FIG9_SERIES = [
    "UniviStor/DRAM Overlap",
    "UniviStor/BB Overlap",
    "UniviStor/DRAM Nonoverlap",
    "UniviStor/BB Nonoverlap",
    "DE",
    "Lustre",
]


def run_workflow(procs: int, system: str, overlap: bool, steps: int,
                 config: Optional[UniviStorConfig] = None,
                 compute_seconds: float = 0.0,
                 particles_per_proc: Optional[int] = None,
                 verify: bool = False) -> float:
    """One workflow cell; returns the elapsed time.

    ``procs`` is the total process count: VPIC and BD-CATS get half each
    (§III-D).
    """
    if config is None and system.startswith("UniviStor"):
        base = {"UniviStor/DRAM": UniviStorConfig.dram_only,
                "UniviStor/BB": UniviStorConfig.bb_only,
                "UniviStor/(DRAM+BB)": UniviStorConfig.dram_bb}[system]
        config = base(workflow_enabled=overlap)
    sim, fstype = build_simulation(procs, system, config=config)
    half = procs // 2
    writer_comm = sim.comm("vpic", size=half, procs_per_node=16)
    reader_comm = sim.comm("bdcats", size=half, procs_per_node=16)
    kwargs = {}
    if particles_per_proc is not None:
        kwargs["particles_per_proc"] = particles_per_proc
    vpic = VpicIO(sim, writer_comm, fstype, steps=steps,
                  compute_seconds=compute_seconds, **kwargs)
    bdcats = BdCatsIO(sim, reader_comm, vpic, fstype)

    start = sim.now
    if overlap:
        writer = sim.spawn(vpic.run(sync_last=False), name="vpic")
        reader = sim.spawn(bdcats.run(verify_sample=verify), name="bdcats")
        sim.run()
        assert writer.ok and reader.ok
    else:
        def sequence():
            yield from vpic.run(sync_last=False)
            yield from bdcats.run(verify_sample=verify)

        sim.run_to_completion(sequence(), name="workflow")
    return sim.now - start


def run_fig9(procs_list: Optional[List[int]] = None, steps: int = 5,
             particles_per_proc: Optional[int] = None,
             verify: bool = False) -> Table:
    """Elapsed workflow time (lower is better).  Paper bands: Overlap
    beats Nonoverlap by 1.2-1.7x (DRAM) / 1.5-2x (BB); UniviStor
    Nonoverlap beats DE by 3.5-17x (DRAM) / 1.3-7.2x (BB)."""
    table = Table(title=f"Fig. 9 — elapsed time, {steps}-step "
                        "VPIC-IO + BD-CATS-IO workflow",
                  xlabel="processes", ylabel="elapsed time (s)")
    cells = [
        ("UniviStor/DRAM Overlap", "UniviStor/DRAM", True),
        ("UniviStor/BB Overlap", "UniviStor/BB", True),
        ("UniviStor/DRAM Nonoverlap", "UniviStor/DRAM", False),
        ("UniviStor/BB Nonoverlap", "UniviStor/BB", False),
        ("DE", "DE", False),
        ("Lustre", "Lustre", False),
    ]
    for procs in procs_list or sweep():
        for label, system, overlap in cells:
            elapsed = run_workflow(procs, system, overlap, steps,
                                   particles_per_proc=particles_per_proc,
                                   verify=verify)
            table.add(procs, label, elapsed)
    return table


register_experiment("fig9", run_fig9)
