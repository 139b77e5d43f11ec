"""One workload process: set up, run passes over the job list, report JSON.

Modes:
  setup  import the engine and load the inputs, then exit (a set-up probe);
  run    untraced passes over the job list until --seconds would be exceeded;
  trace  every job once untraced and once traced; reports the per-layer
         metrics.

The line READY goes to stdout as soon as the first job could start; the
parent times set-up from process start to that line.  The last stdout line
is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads


def timed_call(job: workloads.Job, tracer=None) -> tuple:
    """(job, (exit code or None, report text or traceback), seconds)."""
    t0 = time.perf_counter()
    if tracer is not None:
        nid = tracer.name_id(f"job:{job.name}")
        idx = tracer.enter(nid)
    try:
        result = job.call()
    except Exception:  # an engine bug: the job fails, the pass goes on
        result = (None, traceback.format_exc(limit=-3))
    finally:
        if tracer is not None:
            tracer.exit(idx, nid)
    return job, result, time.perf_counter() - t0


def judged(results: list, wall: float) -> dict:
    """Oracle verdicts and digests of one pass; kept out of the timed region."""
    jobs = []
    for job, (code, text), seconds in results:
        if code is None:
            outcome = workloads.fail(text, "exception")
        else:
            try:
                outcome = job.judge(code, text)
            except Exception as exc:  # malformed report
                outcome = workloads.fail(text, f"unreadable report: {type(exc).__name__}: {exc}")
        jobs.append({"name": job.name, "seconds": seconds, "verdict": outcome.verdict,
                     "reason": outcome.reason, "sha256": workloads.sha256(outcome.text)})
    digest = workloads.sha256("\n".join(j["sha256"] for j in jobs))
    return {"wall_s": wall, "jobs": jobs, "digest": digest}


def run_pass(wl: workloads.Workload) -> dict:
    start = time.perf_counter()
    results = [timed_call(job) for job in wl.jobs]
    return judged(results, time.perf_counter() - start)


def run_traced(wl: workloads.Workload, args) -> dict:
    """Each job untraced, then traced, back to back, so host drift cancels
    out of the overhead; set-up is traced once for its input-loading spans."""
    import layers
    from tracer import Tracer

    tracer = Tracer()
    stale = layers.install(tracer)
    workloads.setup(args.workload, args.seed, args.inputs)
    tracer.uninstall()
    plain, traced = [], []
    for job in wl.jobs:
        plain.append(timed_call(job))
        layers.install(tracer)
        traced.append(timed_call(job, tracer))
        tracer.uninstall()
    plain_pass = judged(plain, sum(r[2] for r in plain))
    traced_pass = judged(traced, sum(r[2] for r in traced))
    values = layers.metrics(tracer, {j["name"]: j["seconds"] for j in plain_pass["jobs"]},
                            traced_pass["wall_s"] - plain_pass["wall_s"])
    if args.spans:
        tracer.dump(args.spans)
    return {"stale_references": stale, "passes": [plain_pass, traced_pass],
            "repeat_matches": plain_pass["digest"] == traced_pass["digest"],
            "per_layer": values,
            "binding_violations": layers.binding_violations(args.workload, values)}


def rerun_cheapest(wl: workloads.Workload, first: dict) -> bool:
    """With a single pass, repeat its fastest job and compare report digests."""
    k = min(range(len(wl.jobs)), key=lambda i: first["jobs"][i]["seconds"])
    code, text = wl.jobs[k].call()
    return workloads.sha256(wl.jobs[k].judge(code, text).text) == first["jobs"][k]["sha256"]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spans", type=Path, help="trace mode: write the spans here")
    args = ap.parse_args()

    wl = workloads.setup(args.workload, args.seed, args.inputs)
    print("READY", flush=True)
    import numpy

    out: dict = {"fingerprint": wl.fingerprint, "numpy": numpy.__version__,
                 "python": sys.version.split()[0]}
    if args.mode == "run":
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(run_pass(wl))
            if time.perf_counter() - start + passes[-1]["wall_s"] > args.seconds:
                break
        out["passes"] = passes
        out["repeat_matches"] = (len({p["digest"] for p in passes}) == 1
                                 and (len(passes) > 1 or rerun_cheapest(wl, passes[0])))
    elif args.mode == "trace":
        out.update(run_traced(wl, args))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
