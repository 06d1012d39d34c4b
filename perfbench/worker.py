"""One workload process: build the inputs, run whole rounds, check outputs.

Started by run.py with the thread variables already set.  Prints
``READY`` once every input is built (run.py times set-up up to that
line).  It then times the calibration kernel, whose speed scales the
set-up time; with ``--setup-only`` it prints just that scale, otherwise
it runs the job stream and prints one JSON line with the job records.
The closed loop has one caller: each job starts when the previous one
has returned and been checked.

The timed phase runs the whole number of rounds whose predicted length is
nearest to ``--seconds``, so every run covers the same mix of strata;
renorm's rounds take 13-18 s, and stopping before a round that would
end late would often leave a single one.
Between jobs, at most every ``CAL_EVERY_S``, the worker times the
workload's calibration kernel of calibrate.py; each job's time is also given scaled
to the reference machine speed (``ref_s``), using the median of the
kernel times around the job, so that the machine's drift over minutes and
hours cancels out.
With ``--trace 1`` every round runs twice, first untraced and then with
the tracer installed (the tracer also covers set-up); the ratio of the
two halves' throughput is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import workloads
from calibrate import Kernel
from run import THREAD_VARS
from spans import PER_LAYER, Tracer

HERE = Path(__file__).resolve().parent
REL_TOL = 1e-6  # derived floats; discrete fields must match exactly
CAL_EVERY_S = 0.5  # least time between two calibrations
CAL_SETUP = 5  # kernel runs right after set-up, to scale the set-up time


def plain(obj):
    """JSON-ready copy: numpy scalars to Python, tuples to lists."""
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _close(a, b) -> bool:
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if a is None or b is None:
        return a is b
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + 1e-12


def mismatch(outputs: dict, ref: dict | None) -> str | None:
    """None when outputs agree with the reference, else what differs."""
    if ref is None:
        return "no reference output for this job"
    out = plain(outputs)
    for key, want in ref["exact"].items():
        if out["exact"].get(key) != want:
            return f"{key}: {out['exact'].get(key)!r} != reference {want!r}"
    for key, want in ref["approx"].items():
        if not _close(out["approx"].get(key), want):
            return f"{key}: {out['approx'].get(key)!r} not within {REL_TOL} of {want!r}"
    return None


def load_reference(workload: str) -> dict:
    return json.loads((HERE / "reference" / f"{workload}.json").read_text())


def run_rounds(workload, inputs, jobs, reference, seconds, kernel, tracer=None,
               rounds=None):
    """Run whole rounds and return one record per job.

    Stops after `rounds` rounds when given, otherwise once the next round
    is predicted to end more than half a round past `seconds`.  With a tracer each round runs
    untraced and then traced; records say which.
    """
    per_round = len(jobs) // workloads.ROUNDS
    run, outputs = workloads.RUN[workload], workloads.OUTPUTS[workload]
    records, cal = [], [kernel()]
    last_cal = start = time.perf_counter()
    done = 0
    while True:
        r = done % workloads.ROUNDS
        for traced in (False, True) if tracer is not None else (False,):
            with tracer if traced else contextlib.nullcontext():
                for job in jobs[r * per_round:(r + 1) * per_round]:
                    if traced:
                        tracer.job = len(records)
                    t0 = time.perf_counter()
                    try:
                        result = run(inputs, job)
                    except Exception:  # a raising job is a failed job, not a crash
                        t1 = time.perf_counter()
                        error = traceback.format_exc(limit=3)
                    else:
                        t1 = time.perf_counter()
                        error = mismatch(outputs(result), reference.get(job["key"]))
                    records.append({"key": job["key"], "size": job["size"], "round": done,
                                    "traced": traced, "seconds": t1 - t0,
                                    "cal": len(cal) - 1, "error": error})
                    if time.perf_counter() - last_cal >= CAL_EVERY_S:
                        cal.append(kernel())
                        last_cal = time.perf_counter()
                if traced:
                    tracer.job = -1
        done += 1
        if rounds is not None:
            if done >= rounds:
                break
        elif (time.perf_counter() - start) * (done + 0.5) / done > seconds:
            break
    cal.append(kernel())
    for rec in records:
        i = rec.pop("cal")  # the calibration before the job; i + 1 is the one after
        rec["ref_s"] = (rec["seconds"] * kernel.reference_s
                        / statistics.median(cal[max(i - 2, 0):i + 4]))
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    jobs = workloads.job_list(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    with tracer or contextlib.nullcontext():
        inputs = workloads.setup(args.workload, jobs)
    print("READY", flush=True)
    kernel = Kernel(args.workload)
    setup_scale = kernel.reference_s / kernel.median(CAL_SETUP)
    if args.setup_only:
        print(json.dumps({"setup_scale": setup_scale}), flush=True)
        return 0

    reference = load_reference(args.workload)
    result = {
        "workload": args.workload, "seed": args.seed,
        "digest": workloads.job_digest(jobs),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "setup_scale": setup_scale,
    }
    records = run_rounds(args.workload, inputs, jobs, reference, args.seconds, kernel,
                         tracer=tracer)
    if tracer is not None:
        values = tracer.metrics()
        plain_s, traced_s = (sum(r["ref_s"] for r in records if r["traced"] is t)
                             for t in (False, True))
        values["trace.overhead_ratio"] = plain_s / traced_s
        result["per_layer"] = {name: {"value": values.get(name, 0), "unit": unit}
                               for name, unit, _ in PER_LAYER}
        result["linequotient_share"] = tracer.share_under("seminorms.linequotient",
                                                          "steckin.baire_renorm")
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        np.savez_compressed(out / f"spans-{args.workload}-seed{args.seed}.npz",
                            names=np.array(tracer.names), **tracer.span_arrays())
    result.update(records=records,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
