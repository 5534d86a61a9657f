#!/usr/bin/env python
"""Record the simulator's performance trajectory.

Runs the simulator self-benchmarks (``benchmarks/test_simulator_throughput.py``
— host wall-clock cost of the reproduction itself, *not* simulated I/O rates)
under ``pytest-benchmark`` and appends one run entry to ``BENCH_simulator.json``
at the repo root.  Every PR that touches a hot path runs this; the accumulated
entries are the evidence that the ROADMAP's "as fast as the hardware allows"
line actually moves.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py [--quick] [--label TEXT]
        [--output PATH] [--dry-run]

``--quick`` runs the two trajectory-gating benches only (the event-kernel
throughput and the 1024-proc full-stack micro) — what CI runs.  The default
runs every bench in the suite except the 8192-proc one (opt in with
``--full``).

Output schema (``BENCH_simulator.json``)::

    {"schema": 1,
     "runs": [{"label": ..., "timestamp": ..., "git_sha": ...,
               "host": {"python": ..., "platform": ..., "cpus": ...},
               "benchmarks": {"<bench name>": {"min": s, "mean": s,
                                               "stddev": s, "rounds": n}}},
              ...]}

Entries are append-only; the newest entry is compared against the previous
one on stdout so a regression is visible in the CI log without downloading
the artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from datetime import datetime, timezone

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_FILE = os.path.join(REPO_ROOT, "benchmarks",
                          "test_simulator_throughput.py")
DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_simulator.json")

#: The benches whose trajectory gates hot-path PRs: the two original
#: trajectory points (ISSUE 2), the metadata fast-path pair (ISSUE 5),
#: the multi-job admission path (ISSUE 7, non-gating) and the hot-range
#: mitigation payoff (ISSUE 8; asserts the >= 2x simulated speedup).
QUICK_BENCHES = [
    "test_event_loop_throughput",
    "test_micro_1024_procs_wall_time",
    "test_metadata_insert_throughput",
    "test_cached_read_latency",
    "test_multi_job_throughput",
    "test_hot_range_throughput",
    "test_write_quorum_overhead",
]

#: Excluded from the default run: the paper's largest scale is minutes of
#: wall time and adds nothing the 1024-proc point doesn't show.
FULL_ONLY_BENCHES = ["test_micro_8192_procs_wall_time"]


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def host_info() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
    }


def run_pytest_benchmark(selection: str, json_path: str) -> int:
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    cmd = [
        sys.executable, "-m", "pytest", BENCH_FILE, "-q",
        "--benchmark-json", json_path,
        "--benchmark-warmup", "off",
    ]
    if selection:
        cmd += ["-k", selection]
    print("$", " ".join(cmd), flush=True)
    return subprocess.run(cmd, cwd=REPO_ROOT, env=env).returncode


def collect(json_path: str) -> dict:
    with open(json_path) as fh:
        raw = json.load(fh)
    benches = {}
    for bench in raw.get("benchmarks", []):
        stats = bench["stats"]
        benches[bench["name"]] = {
            "min": stats["min"],
            "mean": stats["mean"],
            "stddev": stats["stddev"],
            "rounds": stats["rounds"],
        }
    return benches


def load_trajectory(path: str) -> dict:
    if os.path.exists(path):
        with open(path) as fh:
            data = json.load(fh)
        if data.get("schema") != 1:
            raise SystemExit(f"{path}: unknown schema {data.get('schema')!r}")
        return data
    return {"schema": 1, "runs": []}


def compare(prev: dict, curr: dict) -> list:
    """Print current-vs-previous per-bench speedups (min wall time),
    flagging >10 % regressions; returns the flagged bench names.

    Non-gating: the return value feeds the CI log line, not the exit
    code (bench hosts are noisy; a human reads the table)."""
    regressions = []
    print(f"\n{'benchmark':44s} {'prev min':>10s} {'curr min':>10s} "
          f"{'speedup':>8s}")
    for name, stats in sorted(curr.items()):
        before = prev.get(name)
        if before and stats["min"] > 0:
            ratio = before["min"] / stats["min"]
            flag = ""
            if ratio < 0.9:
                flag = "  !! >10% regression"
                regressions.append(name)
            print(f"{name:44s} {before['min']:10.4f} {stats['min']:10.4f} "
                  f"{ratio:7.2f}x{flag}")
        else:
            print(f"{name:44s} {'-':>10s} {stats['min']:10.4f} {'-':>8s}")
    if regressions:
        print(f"\n{len(regressions)} bench(es) regressed >10% vs the "
              f"previous run (non-gating)")
    return regressions


def profile_bench(bench: str) -> int:
    """Run one bench selection under cProfile.

    Writes ``results/profile_<bench>.txt`` (top 30 by cumulative time)
    so a kernel PR can show exactly where the wall time went.  Runs
    pytest in-process — cProfile cannot see across a subprocess."""
    import cProfile
    import io
    import pstats

    import pytest

    src = os.path.join(REPO_ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    profiler = cProfile.Profile()
    profiler.enable()
    # --benchmark-disable: the fixture calls the function exactly once
    # (no calibration loop), which is both what a profile should show
    # and the only mode that nests cleanly inside an active profiler.
    rc = pytest.main([BENCH_FILE, "-q", "-k", bench,
                      "--benchmark-disable",
                      "-p", "no:cacheprovider"])
    profiler.disable()
    out_dir = os.path.join(REPO_ROOT, "results")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, f"profile_{bench}.txt")
    buf = io.StringIO()
    pstats.Stats(profiler, stream=buf).sort_stats(
        "cumulative").print_stats(30)
    with open(out_path, "w") as fh:
        fh.write(buf.getvalue())
    print(f"profile written to {out_path}")
    return int(rc)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="run only the trajectory-gating benches "
                             "(kernel + 1024-proc micro); what CI runs")
    parser.add_argument("--full", action="store_true",
                        help="include the 8192-proc micro (slow)")
    parser.add_argument("--label", default="",
                        help="free-form tag stored with the run entry")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="trajectory file (default: BENCH_simulator.json)")
    parser.add_argument("--dry-run", action="store_true",
                        help="run and compare but do not write the file")
    parser.add_argument("--profile", default=None, metavar="BENCH",
                        help="run BENCH (a pytest -k selection) under "
                             "cProfile and write "
                             "results/profile_<BENCH>.txt (top 30 "
                             "cumulative); skips the trajectory")
    parser.add_argument("--github-warnings", action="store_true",
                        help="emit a ::warning:: annotation per bench "
                             "that regressed >10%% vs the previous "
                             "trajectory entry (non-gating; for CI)")
    args = parser.parse_args(argv)

    if args.profile:
        return profile_bench(args.profile)

    if args.quick:
        selection = " or ".join(QUICK_BENCHES)
    elif args.full:
        selection = ""
    else:
        selection = " and ".join(f"not {b}" for b in FULL_ONLY_BENCHES)

    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        json_path = tmp.name
    try:
        rc = run_pytest_benchmark(selection, json_path)
        if rc != 0:
            print(f"benchmark suite failed (exit {rc})", file=sys.stderr)
            return rc
        benches = collect(json_path)
    finally:
        os.unlink(json_path)
    if not benches:
        print("no benchmarks matched the selection", file=sys.stderr)
        return 2

    trajectory = load_trajectory(args.output)
    entry = {
        "label": args.label,
        "timestamp": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "git_sha": git_sha(),
        "host": host_info(),
        "benchmarks": benches,
    }
    if trajectory["runs"]:
        regressions = compare(trajectory["runs"][-1]["benchmarks"], benches)
    else:
        regressions = compare({}, benches)
    if args.github_warnings:
        for name in regressions:
            print(f"::warning title=bench regression::{name} regressed "
                  f">10% vs the previous BENCH_simulator.json entry "
                  f"(non-gating; shared runners are noisy)")
    if args.dry_run:
        print("\n--dry-run: trajectory not updated")
        return 0
    trajectory["runs"].append(entry)
    with open(args.output, "w") as fh:
        json.dump(trajectory, fh, indent=2)
        fh.write("\n")
    print(f"\nappended run #{len(trajectory['runs'])} to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
