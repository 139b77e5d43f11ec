#!/usr/bin/env python3
"""The schurrec benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload fuzz_p2 --seed 0 --seconds 36 --trace 0

Run from the root of a source checkout (the engine is imported from src/,
nothing is installed).  Each run is a closed loop, one client, one job at a
time, in fresh single processes with numpy's thread pools pinned to 1:

- several set-up probes, each a fresh interpreter that imports the engine,
  loads the workload's inputs and exits; setup_s is their median;
- with --trace 0, one process that repeats the job list while another pass
  still fits in --seconds (at least one pass); wall_s is the median pass
  time, and job_p50_s/job_p90_s are nearest-rank percentiles over the jobs
  of each job's median time across passes;
- with --trace 1, one process that runs each job untraced and then traced,
  and reports the per-layer metrics (see layers.py).

Every output is checked against closed-form mathematics (oracles.py); reports
must hash the same across repeats, and traced and untraced.  The line before
last is a JSON record with sample counts, undecided reasons, input
fingerprints and the environment; the last line is the result:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s", "job_p90_s": "s",
                    "decided_frac": "frac", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], deadline: float) -> tuple[float, dict]:
    """(seconds from spawn to READY, final JSON line) of one workload process."""
    cmd = [sys.executable, str(BENCH / "child.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    expired = threading.Event()

    def expire():
        expired.set()
        proc.kill()

    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), expire)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest, _ = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if expired.is_set():
        raise BenchError(f"workload process ran past the deadline: {' '.join(args)}")
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"workload process failed (exit {proc.returncode}): {' '.join(args)}")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(child: dict) -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {"git_commit": git_commit(), "nproc": len(os.sched_getaffinity(0)),
            "python": child["python"], "numpy": child["numpy"],
            "threads": {var: child_env()[var] for var in THREAD_VARS},
            "src_lines": src_lines}


def undecided(jobs: list[dict]) -> list[dict]:
    return [{"job": j["name"], **j["reason"]} for j in jobs if j["verdict"] == "undecided"]


def failures(passes: list[dict]) -> list[dict]:
    return [{"pass": k, "job": j["name"], **(j["reason"] or {})}
            for k, p in enumerate(passes) for j in p["jobs"] if j["verdict"] == "failed"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "schurrec" / "__init__.py").is_file():
        print(f"error: no engine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    input_dir = ROOT / ".bench_runs" / "inputs" / f"{args.workload}-{args.seed}"
    inputs.write_inputs(workloads.INPUT_ALGEBRAS[args.workload], args.seed, input_dir)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--inputs", str(input_dir)]
    try:
        probes = [run_child(common + ["--mode", "setup"], deadline)
                  for _ in range(SETUP_PROBES)]
        if args.trace:
            spans = ROOT / ".bench_runs" / f"spans-{args.workload}.bin"
            main_setup, child = run_child(common + ["--mode", "trace", "--spans", str(spans)],
                                          deadline)
        else:
            main_setup, child = run_child(
                common + ["--mode", "run", "--seconds", str(args.seconds)], deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = child["passes"]
    jobs = passes[0]["jobs"]
    setup_samples = [s for s, _ in probes] + [main_setup]
    fingerprints = {json.dumps(c["fingerprint"], sort_keys=True) for _, c in probes}
    fingerprints.add(json.dumps(child["fingerprint"], sort_keys=True))
    failed = failures(passes)
    attempted = sum(len(p["jobs"]) for p in passes)
    problems = []
    if failed:
        problems.append(f"{len(failed)} failed jobs")
    if not child["repeat_matches"]:
        problems.append("report digests differ between repeats"
                        + (" (traced vs untraced)" if args.trace else ""))
    if len(fingerprints) != 1:
        problems.append("inputs differ between set-up processes")
    if child.get("stale_references"):
        problems.append(f"tracer left unwrapped bindings: {child['stale_references']}")

    n_jobs = len(jobs)
    decided = sum(1 for j in jobs if j["verdict"] == "decided")
    measured = passes[:1] if args.trace else passes
    # each job's median over passes, so one slow pass does not move a percentile
    job_s = [statistics.median(times) for times in
             zip(*([j["seconds"] for j in p["jobs"]] for p in measured))]
    end_to_end = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(p["wall_s"] for p in measured),
        "job_p50_s": nearest_rank(job_s, 0.5),
        "job_p90_s": nearest_rank(job_s, 0.9),
        "decided_frac": decided / n_jobs,
        "peak_rss_mb": child["peak_rss_mb"],
    }
    samples = {"setup_s": len(setup_samples), "wall_s": len(measured),
               "job_p50_s": n_jobs, "job_p90_s": n_jobs, "decided_frac": n_jobs,
               "peak_rss_mb": 1}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "jobs_per_pass": n_jobs,
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k], "samples": samples[k]}
                       for k, v in end_to_end.items()},
        "failed_frac": {"value": len(failed) / attempted, "unit": "frac", "base": attempted},
        "decided": {"decided": decided, "base": n_jobs, "undecided": undecided(jobs)},
        "failures": failed, "problems": problems,
        "report_digests": [p["digest"] for p in passes],
        "inputs": child["fingerprint"],
        "environment": environment(child),
    }
    if args.trace:
        record["binding_violations"] = child["binding_violations"]
        for line in child["binding_violations"]:
            print(f"warning: tracer binding: {line}", file=sys.stderr)
        metrics = child["per_layer"]
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}
    for line in problems:
        print(f"error: {line}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
