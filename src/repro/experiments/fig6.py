"""Fig. 6 — UniviStor vs Data Elevator vs Lustre (micro-benchmarks).

(a) write rate, (b) read rate, (c) flush rate; 256 MiB per process,
64-8192 processes.  All UniviStor optimisations enabled.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.report import Table
from repro.experiments.registry import register_experiment
from repro.experiments.common import build_simulation, io_rate, sweep
from repro.units import MiB
from repro.workloads.iobench import MicroBench

__all__ = ["run_fig6a", "run_fig6b", "run_fig6c",
           "FIG6AB_SYSTEMS", "FIG6C_SYSTEMS"]

FIG6AB_SYSTEMS = ["UniviStor/DRAM", "UniviStor/BB", "DE", "Lustre"]
#: Lustre has no caching layer, hence no flush series in Fig. 6c.
FIG6C_SYSTEMS = ["UniviStor/DRAM", "UniviStor/BB", "DE"]


def _run(op: str, systems: List[str], title: str,
         procs_list: Optional[List[int]], bytes_per_proc: float,
         verify: bool = False) -> Table:
    table = Table(title=title, xlabel="processes", ylabel="I/O rate (B/s)")
    for procs in procs_list or sweep():
        for system in systems:
            sim, fstype = build_simulation(procs, system)
            comm = sim.comm("iobench", size=procs)
            bench = MicroBench(sim, comm, "/pfs/micro.h5", fstype,
                               bytes_per_proc=bytes_per_proc)

            def app():
                if op == "flush":
                    yield from bench.write_phase(sync=True)
                    return
                yield from bench.write_phase()
                if op == "read":
                    sim.telemetry.clear()
                    yield from bench.read_phase(verify=verify)

            sim.run_to_completion(app(), name=f"fig6-{system}")
            if op == "flush":
                table.add(procs, system, sim.telemetry.io_rate(op="flush"))
            else:
                ops = ("open", op, "close")
                table.add(procs, system,
                          io_rate(sim, "iobench", ops=ops, data_ops=(op,)))
    return table


def run_fig6a(procs_list: Optional[List[int]] = None,
              bytes_per_proc: float = 256 * MiB) -> Table:
    """Write (paper: UV/DRAM 3.7-5.6x DE and up to 46x Lustre; UV/BB
    1.2-1.7x DE and up to 12x Lustre)."""
    return _run("write", FIG6AB_SYSTEMS,
                "Fig. 6a — micro-benchmark write, UniviStor vs DE vs Lustre",
                procs_list, bytes_per_proc)


def run_fig6b(procs_list: Optional[List[int]] = None,
              bytes_per_proc: float = 256 * MiB,
              verify: bool = False) -> Table:
    """Read (paper: UV/DRAM 2.7-4.5x DE, <=16.8x Lustre; UV/BB 1.15-1.6x
    DE, <=5.4x Lustre)."""
    return _run("read", FIG6AB_SYSTEMS,
                "Fig. 6b — micro-benchmark read, UniviStor vs DE vs Lustre",
                procs_list, bytes_per_proc, verify=verify)


def run_fig6c(procs_list: Optional[List[int]] = None,
              bytes_per_proc: float = 256 * MiB) -> Table:
    """Flush to Lustre (paper: UV/DRAM 1.8-2.5x DE, UV/BB 1.6-2.5x DE)."""
    return _run("flush", FIG6C_SYSTEMS,
                "Fig. 6c — flush rate to Lustre, UniviStor vs DE",
                procs_list, bytes_per_proc)


register_experiment("fig6a", run_fig6a)
register_experiment("fig6b", run_fig6b)
register_experiment("fig6c", run_fig6c)
