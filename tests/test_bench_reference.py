"""Every job the benchmark can pick must reproduce its recorded output
(``perfbench/reference/<workload>.json``, checked by ``worker.mismatch``),
so a change of a library result fails here, not in a benchmark run."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
import worker  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_reference_key_matches(workload):
    reference = worker.load_reference(workload)
    jobs = list({j["key"]: j for c in workloads.strata(workload) for j in c}.values())
    assert {j["key"] for j in jobs} == set(reference)
    inputs = workloads.setup(workload, jobs)
    run, outputs = workloads.RUN[workload], workloads.OUTPUTS[workload]
    wrong = {}
    for job in jobs:
        why = worker.mismatch(outputs(run(inputs, job)), reference[job["key"]])
        if why is not None:
            wrong[job["key"]] = why
    assert not wrong, f"{len(wrong)} of {len(jobs)} jobs differ: {wrong}"
