"""Per-stratum job times from the records the benchmark leaves behind.

    python3 perfbench/baseline.py

Reads every perfbench/out/run-<workload>-seed<n>-trace0.json and prints a
markdown table: per stratum (a job key without its variant) the median
job time at the reference machine speed (see calibrate.py) and as
measured, the range of the former and the number of jobs.  When traced runs left
spans behind, it adds the modulus alone per space size.  BASELINE.md was
made from its output.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

OUT = Path(__file__).resolve().parent / "out"


def stratum(key: str) -> str:
    parts = key.split("/")
    if parts[0] == "vime999":
        return "vime999 selection-gap demo"
    if parts[0] == "vime" or parts[0].startswith("random"):
        extra = "" if parts[2] == "None" else f" + {parts[2]}"
        return f"{parts[0].rstrip('0123456789')} certify+replay{extra}"
    return "/".join(parts[:-1])  # renorm and sublevel keys end in the variant


def main() -> int:
    times = defaultdict(list)
    runs = sorted(OUT.glob("run-*-trace0.json"))
    for path in runs:
        workload = path.name.split("-")[1]
        for rec in json.loads(path.read_text())["records"]:
            times[(workload, stratum(rec["key"]))].append((rec["ref_s"], rec["seconds"]))
    if not runs:
        print("no run records in perfbench/out; run perfbench/run.py first", file=sys.stderr)
        return 1
    print(f"{len(runs)} untraced runs\n")
    print("| workload | stratum | jobs | median ref s | min ref s | max ref s | median wall s |")
    print("| --- | --- | ---: | ---: | ---: | ---: | ---: |")
    for (workload, name), pairs in sorted(times.items()):
        ts = [r for r, _ in pairs]
        print(f"| {workload} | {name} | {len(ts)} | {statistics.median(ts):.4f} "
              f"| {min(ts):.4f} | {max(ts):.4f} "
              f"| {statistics.median(w for _, w in pairs):.4f} |")

    modulus = defaultdict(list)
    for path in sorted(OUT.glob("spans-sublevel-*.npz")):
        s = np.load(path)
        ids = np.flatnonzero(s["names"] == "objectives.wellposedness_modulus")
        rec = json.loads((OUT / path.name.replace("spans-", "run-").replace(
            ".npz", "-trace1.json")).read_text())["records"]
        mask = np.isin(s["name"], ids)
        for job, start, end in zip(s["job"][mask], s["start"][mask], s["end"][mask]):
            modulus[stratum(rec[job]["key"])].append(end - start)
    if modulus:
        print("\n| modulus alone (traced, wall) | calls | median s |")
        print("| --- | ---: | ---: |")
        for name, ts in sorted(modulus.items()):
            print(f"| {name} | {len(ts)} | {statistics.median(ts):.4f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
