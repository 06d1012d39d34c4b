"""Self-contained invariant battery, runnable from the CLI.

Every check re-derives its expectation from scratch so a regression in
any module flips a named line rather than silently skewing results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CheckResult", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def run_all(seed: int = 0, inject_fault: bool = False) -> list[CheckResult]:
    from . import instances, objectives, parametric, perturbation, seminorms, spaces, steckin

    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []

    ok = True
    for _ in range(10):
        sp = instances.random_space(rng, max_n=40)
        ok = ok and sp.validate(rng=rng)
    results.append(_check("space_triangle", ok, "10 random spaces validated"))

    sp = instances.random_space(rng, max_n=60)
    f = instances.random_objective(rng, sp)
    grids = sorted(rng.uniform(0.01, 2.0, size=5))
    nested = all(
        objectives.argmin_set(f, a).issubset(objectives.argmin_set(f, b))
        for a, b in zip(grids, grids[1:])
    )
    results.append(_check("argmin_nested", nested, "sublevel sets grow with eps"))

    ok = True
    for _ in range(50):
        sp = instances.random_space(rng, max_n=50)
        f = instances.random_objective(rng, sp, inf_prob=0.1)
        eps = float(rng.uniform(0.05, 1.0))
        g = instances.random_perturbation(rng, sp, eps / 3.0)
        rep = objectives.check_cont_eps_lemma(f, g, eps)
        ok = ok and rep.holds
    results.append(_check("cont_eps", ok, "50 random small-perturbation containments"))

    fam = parametric.vime_family(99, 99)
    demo = parametric.no_continuous_selection_demo(fam, 0.3)
    results.append(_check("vime_selection_gap", demo.ok,
                          "near-minimizers avoid the middle third"))

    sp = instances.random_space(rng, max_n=40)
    f = instances.random_objective(rng, sp, inf_prob=0.0)
    r1 = objectives.regularize(f, 0.3)
    r2 = objectives.regularize(f, 0.7)
    ok = bool(np.all(r1.values <= f.values) and np.all(r2.values <= r1.values))
    results.append(_check("regularize_monotone", ok,
                          "ball infimum decreases in the radius"))

    ok = True
    for _ in range(20):
        sp = instances.random_space(rng, max_n=40)
        dia = sp.diameter()
        if dia <= 0.0:
            continue
        f = instances.random_objective(rng, sp, inf_prob=0.0)
        g = instances.random_perturbation(rng, sp, 1.0)
        eps = float(rng.uniform(0.05, 0.999)) * dia
        step = perturbation.buc_density_step(f, g, eps)
        # diam can sit an ulp above eps: matrix entries round true distances up
        ok = ok and step.achieved_diam <= eps * (1.0 + 1e-12) and step.distance_moved == eps
    results.append(_check("density_step", ok, "20 localization steps"))

    sp = spaces.FiniteMetricSpace.grid1d(0.0, 1.0, 100)
    f = objectives.ObjectiveFunction(sp, 8.0 * sp.row(40))
    g = perturbation.PerturbationFunction(sp, np.zeros(sp.n))
    member, t = perturbation.mn_membership(f, g, 5)
    results.append(_check("mn_membership", member and t is not None,
                          f"strong minimum joins level n=5 at t={t}"))

    ok = True
    for _ in range(10):
        sp = instances.random_space(rng, max_n=40)
        anchor = int(rng.integers(0, sp.n))
        f = objectives.ObjectiveFunction(sp, 8.0 * sp.row(anchor))
        eps = float(rng.uniform(0.1, 1.0))
        g = instances.random_perturbation(rng, sp, eps / 2.0)
        radius = perturbation.openness_radius(f, g, eps, 1.0)
        for _ in range(10):
            g2 = g + instances.random_perturbation(rng, sp, radius)
            rep = perturbation.check_openness_contract(f, g, g2, eps, 1.0)
            ok = ok and (not rep.applicable or rep.holds)
    results.append(_check("openness", ok, "10x10 stability trials"))

    ok = True
    for _ in range(10):
        dim = int(rng.integers(1, 4))
        nu = instances.random_polyhedral_seminorm(rng, dim)
        pts = rng.normal(0.0, 2.0, size=(64, dim))
        lam = rng.normal(0.0, 2.0, size=64)
        scale_gap = np.abs(nu.eval_many(lam[:, None] * pts)
                           - np.abs(lam) * nu.eval_many(pts))
        tri_gap = (nu.eval_many(pts + pts[::-1])
                   - nu.eval_many(pts) - nu.eval_many(pts[::-1]))
        tol = 1e-11 * np.maximum(1.0, nu.magnitude_many(pts) * np.maximum(1.0, np.abs(lam)))
        ok = ok and bool(np.all(scale_gap <= tol) and np.all(tri_gap <= tol))
    results.append(_check("seminorm_axioms", ok, "homogeneity and subadditivity"))

    e2 = seminorms.euclidean_norm(2)
    lq = seminorms.LineQuotient(e2, [1.0, 0.0])
    v1 = lq([3.0, 4.0])
    m2 = seminorms.linf_norm(2)
    v2 = seminorms.LineQuotient(m2, [1.0, 0.0])([0.0, 2.0])
    v3 = seminorms.LineQuotient(e2, [2.0, 0.0])([5.0, 0.0])
    ok = abs(v1 - 4.0) <= 1e-10 and abs(v2 - 2.0) <= 1e-10 and v3 <= 1e-10
    results.append(_check("line_quotient_values", ok,
                          f"distance-to-line values {v1:.6f}, {v2:.6f}, {v3:.2e}"))

    base = seminorms.linf_norm(2)
    setting = steckin.make_setting(2, base, 1e-3)
    l1 = seminorms.l1_norm(2)
    k = steckin.k_nu(l1, setting)
    a = steckin.a_nu(l1, setting)
    r = steckin.rho(l1, base, setting)
    ok = (abs(k.value - 2.0) <= 1e-2 and abs(a.value - 1.0) <= 1e-2
          and a.equivalent and abs(r.value - 1.0) <= 1e-2)
    results.append(_check("sphere_estimates", ok,
                          f"k={k.value:.4f} a={a.value:.4f} rho={r.value:.4f}"))

    inst = instances.segment_instance(n_samples=201, mesh=5e-3)
    proj = steckin.metric_projection(inst.nu0, inst.body, inst.p, (0.05, 0.1), inst.setting)
    ok = abs(proj.dist - 2.0) <= 1e-12 and abs(proj.curve.diam_values[-1] - 2.0) <= 1e-12
    results.append(_check("projection_degenerate", ok,
                          "whole segment minimizes the sup-norm distance"))

    wp = steckin.wellpose_point(inst.nu0, inst.body, inst.p, 0.2, inst.setting)
    ok = wp.ok and wp.status == "perturbed" and wp.moved <= 0.2 * (1.0 + 1e-9)
    results.append(_check("wellpose_point", ok,
                          f"status={wp.status} delta={wp.delta} moved={wp.moved:.6f}"))

    rep = steckin.baire_renorm(inst.nu0, inst.body, inst.witness_points,
                               eps_total=0.3, n_target=5, setting=inst.setting)
    ok = rep.success and all(pp["diam"] < 1.0 / 5.0 for pp in rep.per_point)
    results.append(_check("baire_renorm", ok,
                          f"spent={rep.ledger.spent:.4f} steps={len(rep.ledger.steps)}"))

    expr = instances.random_polyhedral_seminorm(rng, 2)
    back = seminorms.seminorm_from_json(seminorms.seminorm_to_json(expr))
    probe = rng.normal(0.0, 1.0, size=(32, 2))
    ok = bool(np.array_equal(expr.eval_many(probe), back.eval_many(probe)))
    results.append(_check("seminorm_roundtrip", ok,
                          "JSON descriptor reproduces evaluations exactly"))

    if inject_fault:
        first = results[0]
        results[0] = CheckResult(name=first.name, passed=not first.passed,
                                 detail="injected fault for pipeline testing")
    return results
