"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests
"""

import json
import subprocess
import sys

import pytest

import run
import spans
import workloads
import worker
from wellpose import parametric, perturbation, seminorms, spaces

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_list_is_fixed_by_the_seed(workload):
    a = workloads.job_list(workload, 7)
    assert workloads.job_digest(a) == workloads.job_digest(workloads.job_list(workload, 7))
    assert workloads.job_digest(a) != workloads.job_digest(workloads.job_list(workload, 8))
    # every round keeps the same strata, only the picked instance varies
    per_round = len(workloads.strata(workload))
    assert len(a) == per_round * workloads.ROUNDS
    firsts = [j["key"] for j in a[::per_round]]
    assert len(set(firsts)) > 1


def test_self_time_subtracts_child_spans(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(spans.time, "perf_counter", lambda: now[0])

    class Toy:
        def inner(self):
            now[0] += 2.0

        def outer(self):
            now[0] += 1.0
            self.inner()
            self.inner()
            now[0] += 3.0

    orig = Toy.__dict__["outer"]
    tracer = spans.Tracer({"toy.outer": (Toy, "outer", None),
                           "toy.inner": (Toy, "inner", None)})
    with tracer:
        tracer.job = 0
        Toy().outer()
    m = tracer.metrics()
    assert (m["toy.outer.calls"], m["toy.inner.calls"]) == (1, 2)
    assert m["toy.outer.self_s"] == 4.0
    assert m["toy.inner.self_s"] == 4.0
    assert Toy.__dict__["outer"] is orig


def test_untraced_run_installs_no_wrapper(monkeypatch):
    originals = (seminorms.LineQuotient.eval_many, spaces.diam)
    seen = []
    run_family = workloads.RUN["family"]

    def probe(inputs, job):
        seen.append((seminorms.LineQuotient.eval_many, spaces.diam, parametric.diam,
                     perturbation.diam))
        return run_family(inputs, job)

    monkeypatch.setitem(workloads.RUN, "family", probe)
    jobs = workloads.job_list("family", 0)
    inputs = workloads.setup("family", jobs)
    class FixedKernel:
        reference_s = 0.02

        def __call__(self):
            return 0.02

    records = worker.run_rounds("family", inputs, jobs, worker.load_reference("family"), None,
                                FixedKernel(), rounds=1)
    assert {r["round"] for r in records} == {0} and not any(r["traced"] for r in records)
    assert all(r["error"] is None and r["ref_s"] == pytest.approx(r["seconds"])
               for r in records)
    assert seen and all(s == originals + (spaces.diam, spaces.diam) for s in seen)
    with spans.Tracer():
        assert seminorms.LineQuotient.eval_many is not originals[0]
        assert parametric.diam is perturbation.diam is spaces.diam is not originals[1]
    assert (seminorms.LineQuotient.eval_many, spaces.diam) == originals
    assert parametric.diam is perturbation.diam is originals[1]


def _last_json(trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "family", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_printed_metrics_match_benchmark_json():
    assert run.WORKLOADS == workloads.WORKLOADS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == \
        list(spans.PER_LAYER)
    for trace, spec in ((0, BENCHMARK["end_to_end"]), (1, BENCHMARK["per_layer"])):
        result = _last_json(trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in spec}
    # the traced family run sees its own layers and never a seminorm
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(m[f"seminorms.{k}.calls"] == 0 for k in spans.SEMINORM_KINDS)
    assert m["parametric.certify_uniform_epi.calls"] > 0
    assert m["parametric.certify_uniform_epi.neighbours"] > 0
    assert m["objectives.regularize.cells"] > 0
