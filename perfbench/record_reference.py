"""Record the outputs of every job a seed can pick as the reference.

    python3 perfbench/record_reference.py [workload ...]

Run from the repository root on the commit whose outputs are the
reference; it rewrites perfbench/reference/<workload>.json.  Runs then
check each job against the entry for its key.
"""

import json
import os
import sys

from run import HERE, ROOT, THREAD_VARS

os.environ.update({v: "1" for v in THREAD_VARS})  # before numpy is imported
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from worker import plain  # noqa: E402


def record(workload: str) -> dict:
    jobs = list({j["key"]: j for c in workloads.strata(workload) for j in c}.values())
    inputs = workloads.setup(workload, jobs)
    run, outputs = workloads.RUN[workload], workloads.OUTPUTS[workload]
    return {j["key"]: plain(outputs(run(inputs, j))) for j in jobs}


def main() -> int:
    for workload in sys.argv[1:] or workloads.WORKLOADS:
        ref = record(workload)
        path = HERE / "reference" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(ref)} reference outputs to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
