"""Command-line interface.

Subcommands::

    repro machine   [--preset cori|summit] [--nodes N]
    repro micro     --procs N --system SYSTEM [--mb-per-proc M] [--read]
    repro vpic      --procs N --system SYSTEM [--steps S] [--compute SEC]
    repro workflow  --procs N --system SYSTEM [--steps S] [--overlap]
    repro chaos     [--seeds N] [--first-seed S]
                    [--mix storm|partition|hotspot|storm2]
                    [--data-quorum N]
                    [--baseline] [--jobs N] [--verbose] [--lease-ttl T]
                    [--heartbeat-interval T] [--suspect-heartbeats K]
                    [--dead-heartbeats K]
    repro figures   [--sweep paper|small|...] [--out DIR] [--only fig6a,..]
    repro bench     [run_bench.py args] [--profile BENCH]
    repro workload  generate --out TRACE [--jobs N] [--mix MIX] [--seed S]
    repro workload  run [--trace TRACE] [--strategy NAME] [spec knobs]
    repro workload  compare-strategies [--trace TRACE] [--strategies A,B]
                    [--repeats N] [spec knobs]

``repro`` is installed as a console script; ``python -m repro.cli`` works
too.  SYSTEM is one of the paper's legend labels: ``UniviStor/DRAM``,
``UniviStor/BB``, ``UniviStor/(DRAM+BB)``, ``UniviStor/(Disk)``, ``DE``,
``Lustre``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.timeline import build_timeline
from repro.analysis.utilisation import machine_utilisation
from repro.cluster.spec import MachineSpec
from repro.experiments.common import (
    PROCS_PER_NODE,
    build_simulation,
    io_rate,
)
from repro.sim.faults import FaultSpec
from repro.units import MiB, fmt_bytes, fmt_rate, fmt_time
from repro.workloads import MicroBench, VpicIO

__all__ = ["main"]

SYSTEMS = ["UniviStor/DRAM", "UniviStor/BB", "UniviStor/(DRAM+BB)",
           "UniviStor/(Disk)", "DE", "Lustre"]


def _spec(preset: str, nodes: int) -> MachineSpec:
    if preset == "cori":
        return MachineSpec.cori_haswell(nodes=nodes)
    if preset == "summit":
        return MachineSpec.summit_like(nodes=nodes)
    raise SystemExit(f"unknown preset {preset!r}")


def cmd_machine(args) -> int:
    spec = _spec(args.preset, args.nodes)
    node = spec.node
    print(f"machine preset: {args.preset} ({spec.nodes} nodes)")
    print(f"  node: {node.cores} cores / {node.numa_sockets} NUMA sockets, "
          f"{fmt_bytes(node.dram_capacity)} DRAM "
          f"({fmt_bytes(node.dram_cache_capacity)} UniviStor cache at "
          f"{fmt_rate(node.dram_cache_bandwidth)})")
    if node.local_ssd_capacity:
        print(f"  node-local SSD: {fmt_bytes(node.local_ssd_capacity)} at "
              f"{fmt_rate(node.local_ssd_bandwidth)}")
    bb = spec.burst_buffer
    if bb is not None:
        print(f"  shared burst buffer: {bb.nodes} appliance nodes, "
              f"{fmt_rate(bb.aggregate_bandwidth)} aggregate, "
              f"{fmt_bytes(bb.capacity)}")
    lustre = spec.lustre
    print(f"  lustre: {lustre.osts} OSTs x "
          f"{fmt_rate(lustre.ost_bandwidth)} = "
          f"{fmt_rate(lustre.aggregate_bandwidth)} aggregate")
    print(f"  network: {fmt_rate(spec.network.injection_bandwidth)} "
          f"injection/node")
    print(f"  capacity for clients: {spec.nodes * node.cores} cores -> "
          f"{spec.nodes * PROCS_PER_NODE} ranks at 32/node")
    return 0


def _install_faults(sim, args) -> None:
    """Arm the --fault-spec campaign (UniviStor systems only)."""
    if not getattr(args, "fault_spec", None):
        return
    if sim.univistor is None:
        raise SystemExit(
            "--fault-spec needs a UniviStor system (faults target its "
            "crash/degrade hooks)")
    injector = sim.install_faults(FaultSpec.parse(args.fault_spec),
                                  seed=args.fault_seed)
    print(f"fault timeline ({len(injector.timeline)} events, "
          f"seed {args.fault_seed}):")
    for fault in injector.timeline:
        print(f"  t={fault.at:g}s {fault.describe()}")


def _print_fault_report(sim) -> None:
    if sim.fault_injector is None:
        return
    ops = ("fault-node-crash", "fault-server-crash", "fault-node-storage-lost",
           "fault-device-degrade", "fault-device-fail", "fault-write-errors",
           "fault-net-degrade", "fault-net-delay", "fault-data-corrupt",
           "fault-restore", "metadata-failover", "re-replicate", "io-retry",
           "replicate-lost", "replicate-failed", "flush-lost", "flush-failed",
           "health-suspect", "health-dead", "recovery-takeover",
           "recovery-replay", "read-corrupt", "scrub", "scrub-repair",
           "scrub-lost", "scrub-rereplicate",
           "fault-partition", "partition-heal", "health-fenced",
           "health-recovered", "lease-expired", "recovery-replay-resume",
           "recovery-replay-aborted", "pfs-namespace-fallback")
    rows = [r for r in sim.telemetry.records if r.op in ops]
    print(f"\nfault/recovery telemetry ({len(rows)} events):")
    for r in rows:
        print(f"  t={r.t_end:8.3f}s {r.op:<24s} {r.path}")


def cmd_micro(args) -> int:
    sim, fstype = build_simulation(args.procs, args.system)
    _install_faults(sim, args)
    comm = sim.comm("iobench", size=args.procs)
    bench = MicroBench(sim, comm, "/pfs/micro.h5", fstype,
                       bytes_per_proc=args.mb_per_proc * MiB)

    def app():
        yield from bench.write_phase(sync=args.sync)
        if args.read:
            yield from bench.read_phase(verify=True)

    sim.run_to_completion(app(), name="micro")
    w = io_rate(sim, "iobench", ops=("open", "write", "close"),
                data_ops=("write",))
    print(f"{args.system}: {args.procs} procs x "
          f"{args.mb_per_proc} MiB")
    print(f"  write: {fmt_rate(w)}")
    if args.read:
        r = io_rate(sim, "iobench", ops=("open", "read", "close"),
                    data_ops=("read",))
        print(f"  read:  {fmt_rate(r)}  (verified)")
    flush_rate = sim.telemetry.io_rate(op="flush")
    if flush_rate:
        print(f"  flush: {fmt_rate(flush_rate)}")
    print(f"  simulated time: {fmt_time(sim.now)}")
    if args.utilisation:
        print("\nutilisation:")
        print(machine_utilisation(sim.machine).to_markdown(top=8))
    _print_fault_report(sim)
    return 0


def cmd_vpic(args) -> int:
    sim, fstype = build_simulation(args.procs, args.system)
    _install_faults(sim, args)
    comm = sim.comm("vpic", size=args.procs)
    vpic = VpicIO(sim, comm, fstype, steps=args.steps,
                  compute_seconds=args.compute)
    sim.run_to_completion(vpic.run(sync_last=True), name="vpic")
    print(f"{args.system}: {args.steps}-step VPIC-IO at {args.procs} procs")
    print(f"  measured I/O time: {fmt_time(vpic.measured_io_time())}")
    print(f"  exposed last flush: "
          f"{fmt_time(sim.telemetry.total_time(op='flush-wait'))}")
    print(f"  total elapsed (incl. compute): {fmt_time(sim.now)}")
    if args.timeline:
        print("\ntimeline:")
        print(build_timeline(sim.telemetry,
                             ops=["write", "flush", "flush-wait"]).render())
    _print_fault_report(sim)
    return 0


def cmd_workflow(args) -> int:
    from repro.experiments.fig9 import run_workflow
    elapsed = run_workflow(args.procs, args.system, args.overlap,
                           args.steps, verify=True)
    mode = "overlap" if args.overlap else "nonoverlap"
    print(f"{args.system} {mode}: {args.steps}-step VPIC + BD-CATS at "
          f"{args.procs} procs -> elapsed {fmt_time(elapsed)} (verified)")
    return 0


def cmd_chaos(args) -> int:
    from repro.chaos import MIXES, _config, run_campaign
    if args.mix not in MIXES:
        print(f"error: unknown chaos mix {args.mix!r}; available mixes: "
              f"{', '.join(MIXES)}")
        return 2
    hardened = not args.baseline
    mode = "hardened" if hardened else "baseline"
    # Detector/lease tuning: lower heartbeat intervals and thresholds
    # shrink detection latency but raise the false-positive risk under
    # transient cuts (a partitioned-but-alive server gets fenced sooner).
    overrides = {key: value for key, value in (
        ("heartbeat_interval", args.heartbeat_interval),
        ("suspect_heartbeats", args.suspect_heartbeats),
        ("dead_heartbeats", args.dead_heartbeats),
        ("lease_ttl", args.lease_ttl),
        ("range_split_threshold", args.split_threshold),
        ("range_merge_threshold", args.merge_threshold),
        ("hotspot_interval", args.hotspot_interval),
        ("pool_max_servers", args.pool_max),
        ("data_quorum", args.data_quorum)) if value is not None}
    config = None
    if overrides:
        import dataclasses
        config = dataclasses.replace(_config(hardened, args.mix), **overrides)
    campaign = run_campaign(args.seeds, hardened=hardened,
                            first_seed=args.first_seed, jobs=args.jobs,
                            mix=args.mix, config=config)
    lost = campaign.reads_total - campaign.reads_ok
    print(f"chaos campaign: {args.seeds} seeds "
          f"[{args.first_seed}, {args.first_seed + args.seeds}), "
          f"{mode} configuration, {args.mix} mix")
    print(f"  reads: {campaign.reads_ok}/{campaign.reads_total} correct "
          f"({campaign.success_rate:.2%}), {lost} structured losses")
    if args.mix in ("partition", "hotspot", "storm2"):
        total_writes = campaign.writes_ok + campaign.writes_lost
        print(f"  mid-storm overwrites: {campaign.writes_ok}/"
              f"{total_writes} committed on a majority, "
              f"{campaign.writes_lost} rejected whole (quorum lost)")
    print(f"  invariant violations: {len(campaign.violations)}")
    if args.summary_json:
        import json
        with open(args.summary_json, "w") as fh:
            json.dump(campaign.summary(), fh, indent=2)
        print(f"  summary written to {args.summary_json}")
    for violation in campaign.violations:
        print(f"    VIOLATION {violation}")
    if args.verbose:
        for run in campaign.runs:
            status = "ok" if run.ok else "VIOLATED"
            print(f"  seed {run.seed:4d}: {run.reads_ok}/{run.reads_total} "
                  f"reads, {len(run.faults)} faults, {status}  "
                  f"digest {run.digest[:12]}")
    if not campaign.ok:
        print("FAIL: durability invariant violated (silent corruption or "
              "unhandled exception)")
        return 1
    print("OK: every read returned correct bytes or a structured "
          "DataLossError")
    return 0


def cmd_figures(args) -> int:
    from repro.experiments.runall import main as runall_main
    forwarded: List[str] = []
    if args.sweep:
        forwarded += ["--sweep", args.sweep]
    if args.out:
        forwarded += ["--out", args.out]
    if args.only:
        forwarded += ["--only", args.only]
    return runall_main(forwarded)


def _workload_spec(args):
    """Map the ``repro workload`` flags onto a :class:`WorkloadSpec`."""
    from repro.workloads.engine import WorkloadSpec
    return WorkloadSpec(
        machine=args.machine, nodes=args.nodes,
        procs_per_node=args.procs_per_node, system=args.system,
        strategy=args.strategy, bb_pools=args.bb_pools,
        bb_fraction=args.bb_fraction, max_concurrent=args.max_concurrent,
        jobs=args.jobs, mix=args.mix, arrival_rate=args.arrival_rate,
        mean_mb_per_rank=args.mean_mb, max_ranks=args.max_ranks,
        compute_seconds=args.compute, seed=args.seed,
        fault_spec=getattr(args, "fault_spec", None),
        fault_seed=getattr(args, "fault_seed", 0),
        verify_reads=args.verify)


def _workload_trace(args, spec):
    from repro.workloads.jobs import JobTrace
    if args.trace:
        return JobTrace.load(args.trace)
    return spec.generate()


def cmd_workload_generate(args) -> int:
    spec = _workload_spec(args)
    trace = spec.generate()
    trace.save(args.out)
    total = sum(j.write_bytes for j in trace.jobs)
    print(f"wrote {args.out}: {len(trace)} jobs, mix={trace.mix}, "
          f"seed={trace.seed}, {fmt_bytes(total)} written in total")
    return 0


def cmd_workload_run(args) -> int:
    from repro.workloads.engine import run_trace
    spec = _workload_spec(args)
    result = run_trace(_workload_trace(args, spec), spec=spec)
    print(f"{args.strategy}: {len(result.jobs)} jobs, "
          f"makespan {fmt_time(result.makespan)}")
    for key, value in sorted(result.summary().items()):
        print(f"  {key:>16s}: {value:.4g}")
    print(f"  digest {result.digest}")
    return 0


def cmd_workload_compare(args) -> int:
    from repro.analysis.report import fmt_markdown_table
    from repro.analysis.workload import strategy_table
    from repro.workloads.engine import DEFAULT_STRATEGIES, compare_strategies
    spec = _workload_spec(args)
    strategies = (tuple(s for s in args.strategies.split(",") if s)
                  if args.strategies else DEFAULT_STRATEGIES)
    results = compare_strategies(_workload_trace(args, spec), spec=spec,
                                 strategies=strategies, repeats=args.repeats)
    any_result = next(iter(results.values()))
    print(f"{len(any_result.jobs)}-job {any_result.mix} trace, "
          f"{len(results)} strategies x {args.repeats} repeats "
          f"(digests bit-identical across repeats)")
    print(fmt_markdown_table(strategy_table(results), "{:.4g}"))
    for name in sorted(results):
        print(f"  {name:<20s} digest {results[name].digest}")
    return 0


def _add_workload_args(p: argparse.ArgumentParser) -> None:
    """Spec knobs shared by every ``repro workload`` action."""
    g = p.add_argument_group("machine / system")
    g.add_argument("--machine", default="small",
                   choices=["small", "cori", "summit"])
    g.add_argument("--nodes", type=int, default=4)
    g.add_argument("--procs-per-node", type=int, default=4)
    g.add_argument("--system", default="UniviStor/BB",
                   choices=[s for s in SYSTEMS if s not in ("DE", "Lustre")])
    g = p.add_argument_group("storage scheduling")
    g.add_argument("--strategy", default="round_robin",
                   help="storage scheduler name (see "
                        "repro.workloads.available_strategies)")
    g.add_argument("--bb-pools", type=int, default=4)
    g.add_argument("--bb-fraction", type=float, default=0.10,
                   help="fraction of BB capacity the scheduler may reserve")
    g.add_argument("--max-concurrent", type=int, default=0,
                   help="cap on concurrently running jobs (0 = unlimited)")
    g = p.add_argument_group("trace")
    g.add_argument("--trace", default=None, metavar="PATH",
                   help="replay this JSON/CSV trace instead of generating")
    g.add_argument("--jobs", type=int, default=50)
    g.add_argument("--mix", default="cloud",
                   choices=["write_heavy", "read_heavy", "producer_consumer",
                            "cloud"])
    g.add_argument("--arrival-rate", type=float, default=16.0,
                   help="mean job arrivals per second")
    g.add_argument("--mean-mb", type=float, default=16.0,
                   help="mean MiB written per rank")
    g.add_argument("--max-ranks", type=int, default=0,
                   help="widest job (0 = nodes * procs-per-node)")
    g.add_argument("--compute", type=float, default=0.2,
                   help="mean compute seconds between I/O phases")
    g.add_argument("--seed", type=int, default=0)
    p.add_argument("--verify", action="store_true",
                   help="verify read-back payloads byte-for-byte")
    _add_fault_args(p)


def _add_fault_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--fault-spec", default=None, metavar="SPEC",
        help="inject faults, e.g. 'node-crash@120:node=0;"
             "device-degrade@60:tier=pfs,factor=0.25,duration=300' or "
             "'random:node_crash_rate=0.001,horizon=600'")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed for probabilistic fault timelines")


def cmd_bench(bench_args: List[str]) -> int:
    """Forward to ``benchmarks/run_bench.py`` (the perf-trajectory
    harness), so ``repro bench --quick`` / ``repro bench --profile
    test_event_loop_throughput`` work from the CLI.  Source-checkout
    only: the benchmarks directory rides next to ``src/``, not inside
    the installed package."""
    import importlib.util
    import os
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    path = os.path.join(root, "benchmarks", "run_bench.py")
    if not os.path.exists(path):
        print("error: benchmarks/run_bench.py not found (repro bench "
              "needs a source checkout)", file=sys.stderr)
        return 2
    spec = importlib.util.spec_from_file_location("_repro_run_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main(bench_args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="UniviStor reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("machine", help="describe a machine preset")
    p.add_argument("--preset", default="cori", choices=["cori", "summit"])
    p.add_argument("--nodes", type=int, default=8)
    p.set_defaults(fn=cmd_machine)

    p = sub.add_parser("micro", help="run the §III-B micro-benchmark")
    p.add_argument("--procs", type=int, default=64)
    p.add_argument("--system", default="UniviStor/DRAM", choices=SYSTEMS)
    p.add_argument("--mb-per-proc", type=float, default=256.0)
    p.add_argument("--read", action="store_true")
    p.add_argument("--sync", action="store_true",
                   help="wait for the flush and report its rate")
    p.add_argument("--utilisation", action="store_true")
    _add_fault_args(p)
    p.set_defaults(fn=cmd_micro)

    p = sub.add_parser("vpic", help="run the VPIC-IO kernel (§III-C)")
    p.add_argument("--procs", type=int, default=64)
    p.add_argument("--system", default="UniviStor/DRAM", choices=SYSTEMS)
    p.add_argument("--steps", type=int, default=5)
    p.add_argument("--compute", type=float, default=60.0)
    p.add_argument("--timeline", action="store_true",
                   help="render an ASCII Gantt of writes vs flushes")
    _add_fault_args(p)
    p.set_defaults(fn=cmd_vpic)

    p = sub.add_parser("workflow",
                       help="run the VPIC + BD-CATS workflow (§III-D)")
    p.add_argument("--procs", type=int, default=64)
    p.add_argument("--system", default="UniviStor/DRAM",
                   choices=[s for s in SYSTEMS if s != "UniviStor/(Disk)"]
                   + ["UniviStor/(Disk)"])
    p.add_argument("--steps", type=int, default=5)
    p.add_argument("--overlap", action="store_true")
    p.set_defaults(fn=cmd_workflow)

    p = sub.add_parser("chaos",
                       help="run the seeded chaos campaign (durability "
                            "invariant check)")
    p.add_argument("--seeds", type=int, default=20,
                   help="number of consecutive seeds to run")
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--baseline", action="store_true",
                   help="turn the self_healing switch off (no "
                        "detection, takeover or scrubbing: the PR 1 "
                        "replication-only story) for comparison")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="fan seeds out over N worker processes "
                        "(per-seed digests stay bit-identical to the "
                        "serial run)")
    p.add_argument("--mix", default="storm",
                   help="fault mix, validated against the registered "
                        "mix names: crash/outage/corruption storm, "
                        "network partitions with a mid-cut overwrite "
                        "phase (quorum + fencing probes), skewed "
                        "hot-range overwrite waves under the adaptive "
                        "split/merge mitigation, or the storm2 "
                        "double-crash data-quorum gate")
    p.add_argument("--data-quorum", type=int, default=None, metavar="N",
                   help="override data_quorum (1 = legacy async "
                        "replication at close; 2 = writes ack only "
                        "after a synchronous shared-BB copy)")
    p.add_argument("--summary-json", default=None, metavar="PATH",
                   help="write the campaign summary (per-seed failure "
                        "causes, crash-window widths, digests) as JSON")
    p.add_argument("--split-threshold", type=int, default=None,
                   metavar="OPS",
                   help="override range_split_threshold (ops per "
                        "interval before a hot range splits)")
    p.add_argument("--merge-threshold", type=int, default=None,
                   metavar="OPS",
                   help="override range_merge_threshold (ops per "
                        "interval below which a split range re-merges)")
    p.add_argument("--hotspot-interval", type=float, default=None,
                   metavar="SEC",
                   help="override the mitigation manager's tick period")
    p.add_argument("--pool-max", type=int, default=None, metavar="N",
                   help="override pool_max_servers (elastic metadata "
                        "pool ceiling; 0 disables growth)")
    p.add_argument("--heartbeat-interval", type=float, default=None,
                   metavar="SEC",
                   help="override the detector's heartbeat period "
                        "(smaller = faster detection, more "
                        "false-positive fencing under transient cuts)")
    p.add_argument("--suspect-heartbeats", type=int, default=None,
                   metavar="K",
                   help="missed beats before a target is suspected")
    p.add_argument("--dead-heartbeats", type=int, default=None,
                   metavar="K",
                   help="missed beats before a target is declared dead")
    p.add_argument("--lease-ttl", type=float, default=None, metavar="SEC",
                   help="override the ownership lease TTL (partitioned "
                        "ex-owners are fenced once it expires)")
    p.add_argument("--verbose", action="store_true",
                   help="per-seed read counts and digests")
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser("bench",
                       help="record the perf trajectory "
                            "(benchmarks/run_bench.py; --profile BENCH "
                            "writes results/profile_<BENCH>.txt)")
    p.add_argument("bench_args", nargs=argparse.REMAINDER,
                   help="arguments forwarded to run_bench.py")

    p = sub.add_parser("figures",
                       help="regenerate the paper's figures (runall)")
    p.add_argument("--sweep", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--only", default=None)
    p.set_defaults(fn=cmd_figures)

    p = sub.add_parser("workload",
                       help="multi-job traces and storage-scheduler "
                            "comparison")
    wsub = p.add_subparsers(dest="workload_command", required=True)

    w = wsub.add_parser("generate", help="generate a job trace file")
    w.add_argument("--out", required=True, metavar="PATH",
                   help="output path (.csv writes CSV, anything else JSON)")
    _add_workload_args(w)
    w.set_defaults(fn=cmd_workload_generate)

    w = wsub.add_parser("run", help="replay a trace under one strategy")
    _add_workload_args(w)
    w.set_defaults(fn=cmd_workload_run)

    w = wsub.add_parser("compare-strategies",
                        help="replay one trace under several strategies")
    w.add_argument("--strategies", default=None, metavar="A,B,..",
                   help="comma list (default: all built-ins)")
    w.add_argument("--repeats", type=int, default=2,
                   help="reruns per strategy; digests must match")
    _add_workload_args(w)
    w.set_defaults(fn=cmd_workload_compare)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "bench":
        # Forwarded verbatim: run_bench.py owns the flag set, so the
        # dispatcher must not try to parse (or grow stale copies of)
        # its options.
        return cmd_bench(argv[1:])
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
