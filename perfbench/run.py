"""Benchmark of the wellpose library: three seeded job-stream workloads.

    python3 perfbench/run.py --workload renorm --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py            # every workload with the defaults

Run from the repository root.  Each workload runs in its own process,
started with one thread (WELLPOSE_THREADS and the OpenMP, OpenBLAS, MKL
and numexpr variables set before Python starts) and importing wellpose
from ./src.  A closed loop with one caller runs the job stream; every
job's output is checked against perfbench/reference/<workload>.json.

With --trace 0 the last line of output is a JSON object with the
end-to-end metrics; set-up time is the median over SETUP_SAMPLES fresh
processes of the time from process start to the first job being ready.
Every time is given in seconds at the reference machine speed of
perfbench/calibrate.py: the worker times a fixed kernel, built from the
workload's kind of work, around the jobs and after set-up and scales by
it, so that the drift of a shared machine over minutes and hours does not
read as a change of the code.  The run record keeps the unscaled values
under "wall".
With --trace 1 it carries the per-layer metrics of perfbench/spans.py
instead.  Lines before it give a readable summary, including fail_ratio,
and a run record (threads, versions, nproc, seed, commit, job-list
digest); perfbench/out/ keeps every job's record and the trace spans.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("renorm", "sublevel", "family")
THREAD_VARS = ("WELLPOSE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 3
# a run that is not done by then is killed and fails: the timed phase,
# as long again for a machine that slowed down, and the set-up processes
DEADLINE_MARGIN_S = 60.0
# The tail percentile is fixed per workload, so that a faster commit that
# completes more jobs is compared at the same percentile.  Each leaves
# about ten jobs or more beyond it at the default run length on the seed
# commit (renorm 32-48 jobs, sublevel 54-72, family ~1500) and falls inside a
# group of equally costly jobs rather than at its edge, where it would
# jump between groups; for family that is p95, not the highest possible.
# On renorm that group is the two-witness jobs, the same as the median's.
TAIL_PERCENTILE = {"renorm": 65, "sublevel": 85, "family": 95}
END_TO_END = (
    ("jobs_per_s", "jobs/s", "higher"),
    ("job_p50_s", "s", "lower"),
    ("job_tail_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a failed job)."""


def _env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(workload: str, seed: int, seconds: float, trace: int, setup_only: bool,
          deadline: float):
    """Run one worker; returns (seconds from spawn to READY, its JSON line)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise HarnessError(f"{workload} worker failed (exit code {code})")
    lines = rest.strip().splitlines()
    if not lines:
        raise HarnessError(f"{workload} worker printed no result")
    return ready_s, json.loads(lines[-1])


def percentile(values, q: int) -> float:
    """q-th percentile with linear interpolation between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_MARGIN_S + 2.0 * seconds
    setup, setup_wall = [], []
    samples = 1 if trace else SETUP_SAMPLES
    for i in range(samples):  # set-up only, then the timed run
        ready_s, res = spawn(workload, seed, seconds, trace, i < samples - 1, deadline)
        setup_wall.append(ready_s)
        setup.append(ready_s * res["setup_scale"])

    records = res.pop("records")
    plain = [r for r in records if not r["traced"]]
    times = [r["ref_s"] for r in plain]
    failed = [r for r in records if r["error"] is not None]
    q = TAIL_PERCENTILE[workload]
    tail = percentile(times, q)
    rounds = defaultdict(lambda: [0.0, 0.0])  # round -> [ref seconds, wall seconds]
    for r in plain:
        rounds[r["round"]][0] += r["ref_s"]
        rounds[r["round"]][1] += r["seconds"]
    per_round = len(plain) / len(rounds)
    wall = {"jobs_per_s": per_round / statistics.median(w for _, w in rounds.values()),
            "job_p50_s": statistics.median(r["seconds"] for r in plain),
            "setup_s": statistics.median(setup_wall)}
    record = dict(res, nproc=len(os.sched_getaffinity(0)), commit=_git_commit(),
                  jobs=len(records), failed=len(failed),
                  fail_ratio=len(failed) / len(records),
                  tail_percentile=q, jobs_beyond_tail=sum(t > tail for t in times),
                  setup_samples=setup, wall=wall)
    if trace:
        metrics = record.pop("per_layer")
    else:
        # throughput from the median round: a stall moves one round, not the result
        values = {"jobs_per_s": per_round / statistics.median(r for r, _ in rounds.values()),
                  "job_p50_s": statistics.median(times), "job_tail_s": tail,
                  "setup_s": statistics.median(setup), "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in END_TO_END}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"run-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({"record": record, "metrics": metrics, "records": records}, indent=1))
    for r in failed[:5]:
        print(f"FAILED {workload} job {r['key']}: {r['error']}", file=sys.stderr)
    return {"record": record, "metrics": metrics}


def summary(workload: str, outcome: dict) -> str:
    rec, m = outcome["record"], outcome["metrics"]
    if "jobs_per_s" not in m:
        return (f"{workload}: {rec['jobs']} jobs, half of them traced, trace.overhead_ratio "
                f"{m['trace.overhead_ratio']['value']:.3f} ratio, linequotient share of "
                f"baire_renorm time {rec['linequotient_share']:.3f}")
    parts = [f"{k} {v['value']:.4g} {v['unit']}" for k, v in m.items()]
    parts.append(f"fail_ratio {rec['fail_ratio']:.4g} failed/attempted "
                 f"({rec['failed']}/{rec['jobs']})")
    return (f"{workload}: " + " | ".join(parts)
            + f"  [tail p{rec['tail_percentile']}, {rec['jobs_beyond_tail']} jobs beyond]")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, help="default: all, one after another")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in [ROOT / "src" / "wellpose" / "__init__.py"]
               + [HERE / "reference" / f"{w}.json" for w in WORKLOADS] if not p.is_file()]
    if missing:
        print(f"error: run from a wellpose checkout; missing {missing[0]}", file=sys.stderr)
        return 2
    for workload in [args.workload] if args.workload else WORKLOADS:
        try:
            outcome = run_workload(workload, args.seed, args.seconds, args.trace)
        except HarnessError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        rec = outcome["record"]
        print(summary(workload, outcome))
        print("run-record " + json.dumps(rec))
        print(json.dumps({"correct": rec["failed"] == 0, "attempted": rec["jobs"],
                          "failed": rec["failed"], "metrics": outcome["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
