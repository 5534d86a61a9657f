"""One iteration of one workload, in a fresh process.

    python3 perfbench/iteration.py --workload NAME --seed N --trace 0|1 \
        [--clock host|reference] [--spans PATH]

``setup_s`` runs from before the package is imported to the end of the
workload's set-up, so it covers import and build.  With ``--clock host``
(the default) ``setup_s`` and the segments are plain host seconds and
nothing else runs in the process; with ``--clock reference`` they are
read on the reference clock of :class:`calibrate.SpeedProbe`, which
probes the host's speed from a ``SIGALRM`` handler.  ``host_setup_s`` and
``host_run_s`` are always host seconds (the latter from the end of the
set-up to the end of the run, probes included).  ``peak_rss_mib`` is
this process's peak resident set.
With ``--trace 1`` the layer wrappers are installed before the set-up and
the per-layer metrics are added; ``--spans`` writes the recorded spans.
With ``--import-only`` the script imports the workloads and exits (this
compiles and caches the sources before anything is timed).
The last line of standard output is one JSON object.
"""

import argparse
import json
import os
import resource
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_repro() -> None:
    """Import the package from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    import repro

    where = os.path.dirname(os.path.abspath(repro.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        raise SystemExit(f"repro imported from {where}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--clock", choices=("host", "reference"),
                        default="host")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args(argv)

    probe = None
    clock = perf_counter
    if args.clock == "reference" and not args.import_only:
        from calibrate import SpeedProbe

        probe = SpeedProbe().start()
        clock = probe.now
    host_start = perf_counter()
    start = clock()
    _import_repro()
    import workloads
    from workloads import WORKLOADS

    workloads.clock = clock

    if args.import_only:
        import calibrate  # noqa: F401
        import ledger  # noqa: F401
        import spans  # noqa: F401
        return 0
    build = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer().install()
        with tracer.region("bench.setup"):
            run = build(args.seed)
    else:
        run = build(args.seed)
    setup_s = clock() - start
    host_setup_s = perf_counter() - host_start
    if tracer is not None:
        with tracer.region("bench.run"):
            outcome = run(tracer.paused)
        tracer.uninstall()
    else:
        outcome = run()
    host_run_s = perf_counter() - host_start - host_setup_s
    if probe is not None:
        probe.stop()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": setup_s,
        "run_s": outcome.run_s,
        "host_setup_s": host_setup_s,
        "host_run_s": host_run_s,
        "segments": outcome.segments,
        "peak_rss_mib": peak_rss_mib,
        "digest": outcome.digest,
        "sim": outcome.sim_metrics(),
        "reads_attempted": outcome.reads_attempted,
        "reads_ok": outcome.reads_ok,
        "writes_attempted": outcome.writes_attempted,
        "writes_ok": outcome.writes_ok,
        "failed": outcome.failed,
        "violations": outcome.violations,
        "probes": probe.samples if probe is not None else [],
    }
    if tracer is not None:
        from ledger import layer_metrics

        record["layers"] = layer_metrics(tracer, outcome)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
