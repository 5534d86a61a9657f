"""Fig. 5 — micro-benchmark ablations of UniviStor's optimisations.

(a) write and (b) read 256 MiB/process against UniviStor's distributed
DRAM with Interference-Aware scheduling (IA) and Collective Open/Close
(COC) toggled; (c) flush the cached data to Lustre with IA and ADaPTive
striping (ADPT) toggled.  Y axes are I/O rate (log scale in the paper).
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.report import Table
from repro.core.config import UniviStorConfig
from repro.experiments.registry import register_experiment
from repro.experiments.common import build_simulation, io_rate, sweep
from repro.units import MiB
from repro.workloads.iobench import MicroBench

__all__ = ["run_fig5a", "run_fig5b", "run_fig5c",
           "FIG5AB_VARIANTS", "FIG5C_VARIANTS"]

#: (series label, flags to disable) — Fig. 5a/5b legend.
FIG5AB_VARIANTS = [
    ("IA+COC", ()),
    ("No-IA", ("interference_aware",)),
    ("No-COC", ("collective_open_close",)),
]

#: Fig. 5c legend ("Disabled" = both off, the paper's 1.9-2.7x baseline).
FIG5C_VARIANTS = [
    ("IA+ADPT", ()),
    ("No-IA", ("interference_aware",)),
    ("No-ADPT", ("adaptive_striping",)),
    ("Disabled", ("interference_aware", "adaptive_striping")),
]


def _variant_config(disabled, flush: bool) -> UniviStorConfig:
    config = UniviStorConfig.dram_only()
    flags = list(disabled)
    if not flush:
        flags.append("flush_enabled")
    return config.without(*flags) if flags else config


def _run_write_read(op: str, procs_list: Optional[List[int]],
                    bytes_per_proc: float, verify: bool) -> Table:
    table = Table(
        title=f"Fig. 5{'a' if op == 'write' else 'b'} — micro-benchmark "
              f"{op} to distributed DRAM (IA / COC ablation)",
        xlabel="processes", ylabel="I/O rate (B/s)")
    for procs in procs_list or sweep():
        for label, disabled in FIG5AB_VARIANTS:
            sim, fstype = build_simulation(
                procs, "UniviStor/DRAM",
                config=_variant_config(disabled, flush=False))
            comm = sim.comm("iobench", size=procs)
            bench = MicroBench(sim, comm, "/pfs/micro.h5", fstype,
                               bytes_per_proc=bytes_per_proc)

            def app():
                yield from bench.write_phase()
                if op == "read":
                    sim.telemetry.clear()  # rate covers the read phase only
                    yield from bench.read_phase(verify=verify)

            sim.run_to_completion(app(), name=f"fig5-{label}")
            ops = ("open", op, "close")
            table.add(procs, label,
                      io_rate(sim, "iobench", ops=ops, data_ops=(op,)))
    return table


def run_fig5a(procs_list: Optional[List[int]] = None,
              bytes_per_proc: float = 256 * MiB, verify: bool = False
              ) -> Table:
    """Write rate with IA/COC ablation (paper: IA+COC is 1.45-2.5x the
    No-IA variant and 1.1-3.5x the No-COC variant)."""
    return _run_write_read("write", procs_list, bytes_per_proc, verify)


def run_fig5b(procs_list: Optional[List[int]] = None,
              bytes_per_proc: float = 256 * MiB, verify: bool = False
              ) -> Table:
    """Read rate with IA/COC ablation (paper: 1.13-1.5x / 1.15-1.8x)."""
    return _run_write_read("read", procs_list, bytes_per_proc, verify)


def run_fig5c(procs_list: Optional[List[int]] = None,
              bytes_per_proc: float = 256 * MiB) -> Table:
    """Flush rate DRAM -> Lustre with IA/ADPT ablation (paper: enabling
    both improves 1.9-2.7x, 2.3x on average)."""
    table = Table(title="Fig. 5c — server-side flush DRAM->Lustre "
                        "(IA / ADPT ablation)",
                  xlabel="processes", ylabel="flush I/O rate (B/s)")
    for procs in procs_list or sweep():
        for label, disabled in FIG5C_VARIANTS:
            sim, fstype = build_simulation(
                procs, "UniviStor/DRAM",
                config=_variant_config(disabled, flush=True))
            comm = sim.comm("iobench", size=procs)
            bench = MicroBench(sim, comm, "/pfs/micro.h5", fstype,
                               bytes_per_proc=bytes_per_proc)

            def app():
                yield from bench.write_phase(sync=True)

            sim.run_to_completion(app(), name=f"fig5c-{label}")
            table.add(procs, label, sim.telemetry.io_rate(op="flush"))
    return table


register_experiment("fig5a", run_fig5a)
register_experiment("fig5b", run_fig5b)
register_experiment("fig5c", run_fig5c)
