"""The three job-stream workloads: input pools, seeded job lists, jobs.

Every workload is a fixed round of strata (one job per stratum and round).
A stratum fixes the input size; its inputs come from a pool of
``VARIANTS`` instances built from fixed per-variant seeds, so every job's
output can be checked against the reference recorded for its key.  The
run seed picks one variant per slot, which gives each seed its own job
list while every round keeps the same size profile.  The fixed profile is
what keeps run-to-run spreads small: only the instance content varies.

Jobs call the library through module attributes (``steckin.baire_renorm``
and so on), never through names bound at import, so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from wellpose import objectives, parametric, perturbation, spaces, steckin
from wellpose import instances

VARIANTS = 8
ROUNDS = 200  # the job list is cycled if a run ever gets through it


def _rng(*key) -> np.random.Generator:
    """Generator seeded by a tuple of strings and non-negative ints."""
    return np.random.default_rng([k if isinstance(k, int) else _str_seed(k) for k in key])


def _str_seed(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "little")


# ----------------------------------------------------------------------
# renorm: steckin.baire_renorm with eps_total 0.3, n_target 5

RENORM_EPS_TOTAL = 0.3
RENORM_N_TARGET = 5
# (base, witnesses).  linf is the sup-norm segment instance (2001 samples,
# mesh 1e-3, 16,384 sphere points); its 1/3/6/10-witness jobs rebuild the
# ROADMAP baseline rows, and 10 witnesses run the budget out.  The size
# mix puts the median and the tail percentile inside the two-witness
# group, not at a gap between groups, where they would jump.
RENORM_STRATA = (
    ("linf", 1), ("euclidean", 1), ("l1", 1), ("linf", 2), ("euclidean", 2), ("l1", 2),
    ("linf", 3), ("linf", 1), ("euclidean", 1), ("l1", 1), ("linf", 2), ("euclidean", 2),
    ("l1", 2), ("euclidean", 3), ("linf", 6), ("linf", 10),
)
# 10-witness variants that stop after 8 completed steps on the seed
# commit; the others take 9, and a mix would make the round's cost
# depend on the seed
RENORM_VARIANTS = {("linf", 10): (2, 3, 4, 6, 7)}
_POLYTOPE = [[-1.0, -0.5], [1.0, -0.6], [0.8, 0.7], [-0.6, 0.9]]


def _renorm_settings() -> dict:
    seg = instances.segment_instance(n_samples=2001, mesh=1e-3)
    euc = instances.steckin_instance_from_json(
        {"kind": "segment", "a": [-1.0, 0.0], "b": [1.0, 0.0], "base": "euclidean",
         "n_samples": 2001, "mesh": 1e-3})
    l1 = instances.steckin_instance_from_json(
        {"kind": "polytope", "vertices": _POLYTOPE, "base": "l1", "n_samples": 2048,
         "mesh": 1e-3})
    return {"linf": seg, "euclidean": euc, "l1": l1}


def _witnesses(base: str, count: int, variant: int) -> tuple:
    rng = _rng("renorm", base, count, variant)
    if base == "l1":
        ang = rng.uniform(0.0, 2.0 * np.pi, size=count)
        rad = rng.uniform(1.6, 3.0, size=count)
        pts = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    else:
        pts = np.column_stack([rng.uniform(-2.0, 2.0, size=count),
                               rng.choice([-1.0, 1.0], size=count)
                               * rng.uniform(0.5, 3.0, size=count)])
    return tuple(tuple(float(v) for v in p) for p in pts)


def _renorm_run(inputs, job):
    inst = inputs["settings"][job["base"]]
    return steckin.baire_renorm(inst.nu0, inst.body, inputs["witnesses"][job["key"]],
                                RENORM_EPS_TOTAL, RENORM_N_TARGET, inst.setting)


def _renorm_outputs(rep) -> dict:
    steps = rep.ledger.steps
    return {
        "exact": {"success": rep.success, "reason": rep.reason,
                  "statuses": [s.status for s in steps], "steps": len(steps)},
        "approx": {"spent": rep.ledger.spent,
                   "rho_total": None if rep.rho_total is None else rep.rho_total.value,
                   "a_final": None if rep.a_final is None else rep.a_final.value,
                   "moved": [s.moved for s in steps]},
    }


# ----------------------------------------------------------------------
# sublevel: modulus over 99 eps values, mn_membership, buc_density_step

# 0.005 .. 0.495: vime sublevel sets never reach the flat middle third
SUBLEVEL_EPS_GRID = tuple(k / 200.0 for k in range(1, 100))
# space name -> (constructor spec, density-step eps, mn target n)
SUBLEVEL_SPACES = {
    "grid2000": (("grid", 2000), 0.2, 10),
    "grid4000": (("grid", 4000), 0.2, 10),
    "grid5000": (("grid", 5000), 0.2, 10),   # above EAGER_MATRIX_LIMIT: lazy rows
    "cloud3000": (("cloud", 3000), 1.0, 1),  # 2-D linf cloud on [-5, 5]^2
}
# vime members have sublevel sets covering much of the domain; random
# objectives keep them small.  The two cheapest strata come twice, so
# that the median job falls in the middle of grid2000/vime, whose variants
# all cost the same, and not at its border with grid4000/random, whose
# variants differ by up to 20%.
SUBLEVEL_STRATA = (
    ("grid2000", "vime"), ("grid2000", "random"), ("grid4000", "vime"),
    ("grid4000", "random"), ("grid5000", "vime"), ("grid5000", "random"),
    ("cloud3000", "random"), ("grid2000", "random"), ("cloud3000", "random"),
)


def _sublevel_space(name: str) -> spaces.FiniteMetricSpace:
    (kind, n), _, _ = SUBLEVEL_SPACES[name]
    if kind == "grid":
        return spaces.FiniteMetricSpace.grid1d(0.0, 1.0, n - 1)
    pts = _rng("sublevel-space", name).uniform(-5.0, 5.0, size=(n, 2))
    return spaces.FiniteMetricSpace.pointcloud(pts, metric="linf")


def _vime_values(n: int, p: float) -> np.ndarray:
    """Row p of vime_family(n - 1, .) on an n-point unit grid."""
    steps = n - 1
    xs = np.arange(n, dtype=np.float64) / steps
    i3 = 3 * np.arange(n)
    vals = np.zeros(n)
    left = i3 < steps
    right = i3 > 2 * steps
    vals[left] = (1.0 - p) * (3.0 * xs[left] - 1.0)
    vals[right] = p * (2.0 - 3.0 * xs[right])
    return vals


def _sublevel_inputs(space, space_name: str, kind: str, variant: int):
    rng = _rng("sublevel", space_name, kind, variant)
    if kind == "vime":
        # the sets run down one ramp and, for the larger eps, take in the
        # other end too: up to a third of the domain.  Odd variants are the
        # mirror image (p -> 1 - p), so every variant costs about the same.
        p = 0.33 + 0.001 * (variant // 2)
        f = objectives.ObjectiveFunction(space, _vime_values(space.n, 1.0 - p if variant % 2 else p))
    else:
        f = instances.random_objective(rng, space, inf_prob=0.0)
    g = instances.random_perturbation(rng, space, 0.05)
    return f, g


def _sublevel_run(inputs, job):
    f, g = inputs["objectives"][job["key"]]
    _, eps, n_target = SUBLEVEL_SPACES[job["space"]]
    curve = objectives.wellposedness_modulus(f, SUBLEVEL_EPS_GRID)
    member = perturbation.mn_membership(f, g, n_target)
    step = perturbation.buc_density_step(f, g, eps)
    return curve, member, step


def _sublevel_outputs(out) -> dict:
    curve, (member, t), step = out
    return {
        "exact": {"diam_values": list(curve.diam_values), "mn_member": member,
                  "mn_t": t, "center": step.center, "achieved_diam": step.achieved_diam},
        "approx": {"distance_moved": step.distance_moved},
    }


# ----------------------------------------------------------------------
# family: certify_uniform_epi + recheck_certificate, plus extras

FAMILY_EPS = 0.3
FAMILY_RANDOM = 6  # random_lipschitz_family pool size
FAMILY_QUANTILES = 64  # parameters picked from a random family, evenly spaced
DEMO_EPS = (0.1, 0.2, 0.3, 0.4, 0.49)
# (family kind, extra call)
FAMILY_STRATA = (
    ("vime", None), ("random", None), ("vime", None), ("random", None),
    ("vime", "usc"), ("random", "5r"), ("vime", None), ("random", None),
    ("vime999", "demo"),
)


def _random_family(index: int):
    """100-200 parameters on 30-300 points, capped so eps/L spans two spacings."""
    attempt = 0
    while True:
        seed = [_str_seed("family"), index, attempt]
        fam = instances.random_lipschitz_family(np.random.default_rng(seed),
                                                max_params=200, max_points=300)
        steps = fam.params.space.n - 1
        if steps >= 100 and fam.domain.n >= 30:
            return instances.random_lipschitz_family(
                np.random.default_rng(seed), max_params=200, max_points=300,
                lipschitz_cap=FAMILY_EPS * steps / 2.0)
        attempt += 1


def _family_param(fam, job) -> int:
    if job["family"] == "vime":
        return job["p"]
    return job["p"] * (fam.params.space.n - 1) // (FAMILY_QUANTILES - 1)


def _family_run(inputs, job):
    fam = inputs["families"][job["family"]]
    if job["extra"] == "demo":
        return {"demo": parametric.no_continuous_selection_demo(fam, job["eps"])}
    p = _family_param(fam, job)
    grid = parametric.default_delta_grid(fam, FAMILY_EPS)
    rep = parametric.certify_uniform_epi(fam, p, FAMILY_EPS, grid)
    out = {"cert": rep, "replay": parametric.recheck_certificate(fam, rep.cond2)}
    if job["extra"] == "usc":
        out["usc"] = parametric.argmin_usc(fam, p, FAMILY_EPS, grid)
    elif job["extra"] == "5r":
        base = spaces.diam(objectives.argmin_set(fam.objective(p), FAMILY_EPS))
        out["5r"] = parametric.check_5r_lemma(fam, p, FAMILY_EPS, 1.5 * base + 0.05, grid)
    return out


def _family_outputs(out) -> dict:
    exact = {}
    if "demo" in out:
        d = out["demo"]
        exact.update(left_ok=d.left_ok, right_ok=d.right_ok, gap_ok=d.gap_ok,
                     bad_p=list(d.bad_p))
    if "cert" in out:
        c = out["cert"]
        exact.update(cond1_delta=c.cond1_delta, cond2_delta=c.cond2.delta,
                     delta=c.delta, replay=out["replay"])
    if "usc" in out:
        exact.update(usc_delta=out["usc"].delta, usc_x=out["usc"].x_p)
    if "5r" in out:
        exact.update(five_r_delta=out["5r"].delta)
    return {"exact": exact, "approx": {}}


# ----------------------------------------------------------------------
# job lists and set-up


def _family_candidates(kind: str, extra) -> list[dict]:
    if kind == "vime999":
        return [{"key": f"vime999/demo/eps{eps}", "family": "vime999", "p": 0,
                 "extra": "demo", "eps": eps, "size": 1000} for eps in DEMO_EPS]
    if kind == "vime":
        return [{"key": f"vime/p{p}/{extra}", "family": "vime", "p": p, "extra": extra,
                 "size": 300} for p in range(300)]
    # size (the parameter count) is known once set-up has built the family
    return [{"key": f"random{i}/q{q}/{extra}", "family": f"random{i}", "p": q,
             "extra": extra, "size": None}
            for i in range(FAMILY_RANDOM) for q in range(FAMILY_QUANTILES)]


def strata(workload: str) -> list[list[dict]]:
    """Per stratum, every job the run seed can pick for it."""
    if workload == "renorm":
        return [[{"key": f"{base}/w{count}/v{v}", "base": base, "witnesses": count,
                  "variant": v, "size": count}
                 for v in RENORM_VARIANTS.get((base, count), range(VARIANTS))]
                for base, count in RENORM_STRATA]
    if workload == "sublevel":
        return [[{"key": f"{space}/{kind}/v{v}", "space": space, "kind": kind, "variant": v,
                  "size": SUBLEVEL_SPACES[space][0][1]} for v in range(VARIANTS)]
                for space, kind in SUBLEVEL_STRATA]
    if workload == "family":
        return [_family_candidates(kind, extra) for kind, extra in FAMILY_STRATA]
    raise ValueError(f"unknown workload {workload!r}")


def job_list(workload: str, seed: int) -> list[dict]:
    """Seeded job list: ROUNDS rounds, one job per stratum and round."""
    rng = np.random.default_rng(seed)
    choices = strata(workload)
    return [dict(c[int(rng.integers(len(c)))]) for _ in range(ROUNDS) for c in choices]


def job_digest(jobs: list[dict]) -> str:
    return hashlib.sha256(json.dumps([j["key"] for j in jobs]).encode()).hexdigest()


def setup(workload: str, jobs: list[dict]) -> dict:
    """Build every input the jobs need (and fill in family sizes)."""
    if workload == "renorm":
        return {"settings": _renorm_settings(),
                "witnesses": {j["key"]: _witnesses(j["base"], j["witnesses"], j["variant"])
                              for j in jobs}}
    if workload == "sublevel":
        built = {name: _sublevel_space(name) for name in SUBLEVEL_SPACES}
        made = {}
        for j in jobs:
            if j["key"] not in made:
                made[j["key"]] = _sublevel_inputs(built[j["space"]], j["space"], j["kind"],
                                                  j["variant"])
        return {"objectives": made}
    fams = {"vime": parametric.vime_family(299, 299),
            "vime999": parametric.vime_family(999, 999)}
    fams.update({f"random{i}": _random_family(i) for i in range(FAMILY_RANDOM)})
    for j in jobs:
        if j["size"] is None:
            j["size"] = fams[j["family"]].params.space.n
    return {"families": fams}


RUN = {"renorm": _renorm_run, "sublevel": _sublevel_run, "family": _family_run}
OUTPUTS = {"renorm": _renorm_outputs, "sublevel": _sublevel_outputs,
           "family": _family_outputs}
WORKLOADS = tuple(RUN)
