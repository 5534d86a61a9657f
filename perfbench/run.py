"""The UniviStor whole-stack benchmark: one command, three workloads.

    python3 perfbench/run.py --workload rank_burst|vpic_workflow|fault_mix \
        --seed N --seconds S --trace 0|1

Runs iterations of the workload for ``--seconds``, each in a fresh process
started one after another (``iteration.py``).  With ``--trace 0`` each
iteration times itself on the reference clock (``calibrate.py``: host
seconds scaled by a speed probe run every 50 ms), and the last line of
standard output carries the end-to-end metrics, ``setup_s``, ``run_s``
and ``peak_rss_mib`` each as the median over the iterations.  With
``--trace 1`` untraced and traced iterations alternate, both timed in
plain host seconds with no probe, and it carries the per-layer metrics,
the traced ``run_s`` over the untraced one as ``trace.overhead`` (each
taken by :func:`fastest_run_s`); the traced iterations must reproduce the
untraced telemetry digest.

Every iteration must pass its correctness checks and produce the same
digest and simulated metrics; otherwise the result says
``"correct": false`` and the command exits with code 1.  Without the
repository's ``src/repro`` next to this directory it exits with code 2
before running anything.  The line before the result is a JSON record of
the run (seed, git commit, host, per-iteration figures), also written to
``perfbench/out/``, where the traced run leaves its spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional

from ledger import LAYER_UNITS, PAIRED

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("rank_burst", "vpic_workflow", "fault_mix")

#: End-to-end metrics and units.  ``sim_s`` marks simulated seconds.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mib": "MiB",
    "sim_write_gibps": "GiB/s",
    "sim_read_gibps": "GiB/s",
    "sim_makespan_s": "sim_s",
    "read_ok_ratio": "ratio",
    "write_ok_ratio": "ratio",
}
#: Fewest iterations (untraced) or untraced/traced pairs (traced) per run.
MIN_ITERATIONS = 3
MIN_PAIRS = 2
#: The workloads take the seed modulo this, which keeps every payload
#: pattern seed they derive from it within 64 bits.
SEED_RANGE = 2 ** 20
#: Wall-clock limit of one iteration, in seconds.
ITERATION_TIMEOUT = 150


class IterationError(RuntimeError):
    """An iteration process failed without producing a result."""


def iterate(workload: str, seed: int, trace: int, clock: str = "host",
            spans: Optional[str] = None,
            import_only: bool = False) -> Optional[dict]:
    """Run ``iteration.py`` once and return its JSON record."""
    cmd = [sys.executable, os.path.join(HERE, "iteration.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--clock", clock]
    if spans:
        cmd += ["--spans", spans]
    if import_only:
        cmd.append("--import-only")
    # A fixed hash seed keeps set/dict iteration order, and with it host
    # timing, the same in every iteration process.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=ITERATION_TIMEOUT)
    if proc.returncode != 0:
        raise IterationError(f"{' '.join(cmd[1:])} exited with "
                             f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    if import_only:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` (no git process)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_info() -> dict:
    return {"python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "machine": platform.machine()}


def check(records: List[dict]) -> List[str]:
    """Problems that make the run incorrect."""
    problems = []
    for rec in records:
        problems.extend(f"iteration (trace {rec['trace']}): {v}"
                        for v in rec["violations"])
    digests = {rec["digest"] for rec in records}
    if len(digests) != 1:
        problems.append(f"iterations disagree on the telemetry digest: "
                        f"{sorted(digests)}")
    sims = {json.dumps(rec["sim"], sort_keys=True) for rec in records}
    if len(sims) != 1:
        problems.append(f"iterations disagree on simulated metrics: "
                        f"{sorted(sims)}")
    segments = {len(rec["segments"]) for rec in records}
    if len(segments) != 1:
        problems.append(f"iterations disagree on the number of timed "
                        f"segments: {sorted(segments)}")
    return problems


def fastest_run_s(records: List[dict]) -> float:
    """The measured calls' undisturbed host time, for iterations timed in
    plain host seconds: the sum, over the
    segments every iteration splits its measured calls into, of each
    segment's fastest time.  The host's speed flips between a fast and a
    slow state many times a second, and interference only ever adds
    time, so a short segment's fastest time is its own cost; summing
    them is steadier than taking the fastest whole iteration."""
    return sum(min(times) for times in zip(*(r["segments"]
                                            for r in records)))


def end_to_end(records: List[dict]) -> Dict[str, float]:
    reads = sum(r["reads_attempted"] for r in records)
    writes = sum(r["writes_attempted"] for r in records)
    return {
        "setup_s": median(r["setup_s"] for r in records),
        "run_s": median(r["run_s"] for r in records),
        "peak_rss_mib": median(r["peak_rss_mib"] for r in records),
        **records[0]["sim"],
        "read_ok_ratio": sum(r["reads_ok"] for r in records) / reads,
        "write_ok_ratio": sum(r["writes_ok"] for r in records) / writes,
    }


def per_layer(untraced: List[dict], traced: List[dict]) -> Dict[str, float]:
    values = {name: median(r["layers"][name] for r in traced)
              for name in LAYER_UNITS if name not in PAIRED}
    base_run_s = fastest_run_s(untraced)
    values["trace.run_s"] = fastest_run_s(traced)
    values["trace.untraced_run_s"] = base_run_s
    values["trace.overhead"] = values["trace.run_s"] / base_run_s
    values["engine.events_per_s"] = values["engine.events"] / base_run_s
    return {name: values[name] for name in LAYER_UNITS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="UniviStor whole-stack benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: {ROOT}/src/repro not found; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2

    seed = args.seed % SEED_RANGE
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = os.path.join(OUT, f"spans-{tag}.jsonl")
    untraced: List[dict] = []
    traced: List[dict] = []
    try:
        iterate(args.workload, seed, 0, import_only=True)
        deadline = perf_counter() + args.seconds
        # Past the minimum, start another iteration (or pair) only if one
        # as long as the last still ends before the deadline.
        least = MIN_PAIRS if args.trace else MIN_ITERATIONS
        clock = "host" if args.trace else "reference"
        last = 0.0
        while len(untraced) < least or perf_counter() + last <= deadline:
            started = perf_counter()
            untraced.append(iterate(args.workload, seed, 0, clock))
            if args.trace:
                traced.append(iterate(args.workload, seed, 1,
                                      spans=spans_path))
            last = perf_counter() - started
    except (IterationError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    records = untraced + traced
    problems = check(records)
    if args.trace:
        units = LAYER_UNITS
        values = per_layer(untraced, traced)
    else:
        units = END_TO_END
        values = end_to_end(records)
    run_record = {
        "workload": args.workload,
        "seed": args.seed,
        "workload_seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "host": host_info(),
        "digest": records[0]["digest"],
        "problems": problems,
        "operations": {k: sum(r[k] for r in records)
                       for k in ("reads_attempted", "reads_ok",
                                 "writes_attempted", "writes_ok", "failed")},
        "iterations": [{**{k: r[k] for k in ("trace", "setup_s", "run_s",
                                             "host_setup_s", "host_run_s",
                                             "peak_rss_mib", "digest")},
                        "probes": len(r["probes"]),
                        "probe_median_s": (median(r["probes"])
                                           if r["probes"] else None)}
                       for r in records],
        "spans": os.path.relpath(spans_path, ROOT) if args.trace else None,
        "metrics": values,
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(run_record, fh, indent=1)
    print(json.dumps({k: v for k, v in run_record.items()
                      if k != "metrics"}))
    result = {
        "correct": not problems,
        "attempted": sum(r["reads_attempted"] + r["writes_attempted"]
                         for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
