import itertools

import numpy as np
import pytest

from wellpose.errors import PreconditionError
from wellpose.instances import (
    acceptance_witness_points,
    necessity_witness_points,
    random_norm,
    segment_instance,
    steckin_instance_from_json,
)
from wellpose.seminorms import (
    AbsLinear,
    Euclidean,
    LineQuotient,
    MaxOf,
    Scale,
    SumOf,
    euclidean_norm,
    l1_norm,
    linf_norm,
    seminorm_from_json,
    seminorm_to_json,
)
from wellpose.spaces import prefix_diameters
from wellpose.steckin import (
    ConvexBody,
    _running_diameters,
    a_nu,
    baire_renorm,
    c_of_p,
    k_nu,
    make_setting,
    metric_projection,
    n0_open_check,
    polytope_body,
    rho,
    segment_body,
    set_diameter,
    stech_perturb_seminorm,
    validate_sample,
    wellpose_point,
)


class TestMakeSetting:
    def test_dim1_sphere_is_exact(self):
        s = make_setting(1, l1_norm(1), mesh=0.1)
        assert s.mesh == 0.0
        assert sorted(float(v) for v in s.sphere[:, 0]) == [-1.0, 1.0]

    def test_dim2_respects_requested_mesh(self):
        s = make_setting(2, linf_norm(2), mesh=1e-2)
        assert 0.0 < s.mesh <= 1e-2
        # every sample sits on the unit sphere of the base norm
        assert np.allclose(s.base.eval_many(s.sphere), 1.0, rtol=0, atol=1e-12)

    def test_dim3_coarse(self):
        s = make_setting(3, euclidean_norm(3), mesh=0.5)
        assert 0.0 < s.mesh <= 0.5
        assert np.allclose(np.linalg.norm(s.sphere, axis=1), 1.0, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_setting(4, euclidean_norm(4), mesh=0.5)
        with pytest.raises(ValueError):
            make_setting(2, linf_norm(2), mesh=0.0)
        with pytest.raises(ValueError):
            make_setting(2, linf_norm(3), mesh=0.1)
        degenerate = AbsLinear([1.0, 0.0])  # vanishes on (0, 1)
        with pytest.raises(ValueError):
            make_setting(2, degenerate, mesh=0.1)


class TestSphereEstimates:
    def _setting(self, mesh=1e-2):
        return make_setting(2, linf_norm(2), mesh=mesh)

    def test_l1_over_linf_frozen_values(self):
        s = self._setting()
        nu = l1_norm(2)
        k = k_nu(nu, s)
        a = a_nu(nu, s)
        # on the sup-norm sphere, |x|+|y| ranges over [1, 2]
        assert abs(k.value - 2.0) <= 2e-2
        assert k.value <= 2.0  # sample sup never exceeds the true sup
        assert abs(a.value - 1.0) <= 2e-2
        assert a.value >= 1.0  # sample inf never undershoots the true inf
        assert a.equivalent

    def test_degenerate_seminorm_is_not_equivalent(self):
        s = self._setting()
        nu = AbsLinear([1.0, 0.0])
        a = a_nu(nu, s)
        assert a.value <= s.mesh  # vanishes near (0, 1) on the sphere
        assert not a.equivalent

    def test_rho_frozen_values(self):
        s = self._setting()
        r = rho(l1_norm(2), linf_norm(2), s)
        # sup over the sphere of (|x|+|y|) - max(|x|,|y|) = min(|x|,|y|) is 1
        assert abs(r.value - 1.0) <= 2e-2
        r2 = rho(SumOf((linf_norm(2), Scale(0.25, linf_norm(2)))), linf_norm(2), s)
        assert abs(r2.value - 0.25) <= 1e-12

    def test_error_bounds_scale_with_mesh(self):
        coarse = make_setting(2, linf_norm(2), mesh=0.1)
        fine = make_setting(2, linf_norm(2), mesh=1e-3)
        nu = l1_norm(2)
        assert k_nu(nu, fine).error_bound < k_nu(nu, coarse).error_bound
        assert a_nu(nu, fine).error_bound < a_nu(nu, coarse).error_bound

    def test_dimension_mismatch(self):
        s = self._setting()
        with pytest.raises(ValueError):
            k_nu(l1_norm(3), s)
        with pytest.raises(ValueError):
            rho(l1_norm(3), linf_norm(2), s)


class TestN0Open:
    def test_identity_pair_holds(self):
        s = make_setting(2, linf_norm(2), mesh=1e-2)
        rep = n0_open_check(l1_norm(2), l1_norm(2), s)
        assert rep.holds
        assert rep.rho.value == 0.0

    def test_random_nearby_pairs_hold(self, rng):
        s = make_setting(2, linf_norm(2), mesh=1e-2)
        for _ in range(15):
            nu = random_norm(rng, 2)
            bump = Scale(float(rng.uniform(0.0, 0.2)), random_norm(rng, 2))
            rep = n0_open_check(nu, SumOf((nu, bump)), s)
            assert rep.holds


class TestConvexBody:
    def test_validation(self):
        with pytest.raises(ValueError):
            ConvexBody(vertices=np.zeros((0, 2)), sample=np.zeros((1, 2)), mesh=0.1)
        with pytest.raises(ValueError):
            ConvexBody(vertices=np.zeros((1, 2)), sample=np.zeros((1, 3)), mesh=0.1)
        with pytest.raises(ValueError):
            ConvexBody(vertices=np.array([[np.inf, 0.0]]),
                       sample=np.zeros((1, 2)), mesh=0.1)

    def test_segment_membership(self):
        body = segment_body([-1.0, 0.0], [1.0, 0.0], n_samples=11)
        assert body.contains([0.0, 0.0])
        assert body.contains([1.0, 0.0])
        assert body.contains([-1.0, 0.0])
        assert not body.contains([0.0, 2.0])
        assert not body.contains([1.5, 0.0])

    def test_polytope_membership_and_sample(self, rng):
        verts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        body = polytope_body(verts, n_samples=256, seed=3)
        assert body.contains([0.5, 0.5])
        assert not body.contains([1.5, 1.5])
        assert validate_sample(body, limit=32)
        assert body.sample.shape[0] == 256
        assert body.mesh > 0.0

    def test_segment_sample_is_uniform(self):
        body = segment_body([0.0, 0.0], [1.0, 0.0], n_samples=5)
        assert np.allclose(body.sample[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])
        assert body.mesh == 0.25

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            segment_body([0.0, 0.0], [1.0], n_samples=5)
        with pytest.raises(ValueError):
            segment_body([0.0], [1.0], n_samples=1)
        with pytest.raises(ValueError):
            polytope_body(np.zeros((0, 2)))
        with pytest.raises(ValueError, match="non-empty"):
            polytope_body(np.zeros((2, 0)))  # vertices without coordinates


def _lp_contains(verts, p) -> bool:
    """The oracle: a feasible convex combination of the vertices, by LP."""
    from scipy.optimize import linprog

    k = verts.shape[0]
    res = linprog(np.zeros(k), A_eq=np.vstack([verts.T, np.ones((1, k))]),
                  b_eq=np.append(p, 1.0), bounds=[(0.0, None)] * k, method="highs",
                  options={"primal_feasibility_tolerance": 1e-9})
    return res.status == 0


def _simplex_gap(verts, p) -> float:
    """Least distance from p to the hull of any <= d vertices.

    Every boundary point of the hull lies in such a simplex, so this is a
    lower bound on p's distance to the boundary (and the distance to the
    hull when p is outside), found without the facet table.
    """
    k, d = verts.shape
    best = np.inf
    for size in range(1, min(k, d) + 1):
        for subset in itertools.combinations(range(k), size):
            v = verts[list(subset)]
            span = (v[1:] - v[0]).T
            if np.linalg.matrix_rank(span) < size - 1:
                continue
            w = np.linalg.lstsq(span, p - v[0], rcond=None)[0]
            if size > 1 and min(w.min(), 1.0 - w.sum()) < 0.0:
                continue  # nearest point of the affine hull is off the simplex
            best = min(best, float(np.linalg.norm(p - v[0] - span @ w)))
    return best


_HULL_CASES = {
    "segment": [[-1.0, 0.5], [2.0, -1.0]],
    "quadrilateral": [[-1.0, -0.5], [1.0, -0.6], [0.8, 0.7], [-0.6, 0.9]],
    "collinear": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
    "vertex": [[0.3, -0.2]],
    "tetrahedron": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.2, 0.3, 1.0]],
    "planar_polygon_3d": [[0.0, 0.0, 1.0], [1.0, 0.0, 2.0], [1.0, 1.0, 3.0], [0.0, 1.0, 2.0],
                          [0.5, -0.5, 1.0]],
}


@pytest.mark.parametrize("name", list(_HULL_CASES))
def test_contains_matches_the_lp(name, rng):
    verts = np.array(_HULL_CASES[name])
    body = (segment_body(verts[0], verts[1], n_samples=33) if name == "segment"
            else polytope_body(verts, n_samples=64, seed=1))
    k, d = verts.shape
    on_body = [*verts, *body.sample[::4]]
    on_body += [(verts[i] + verts[j]) / 2 for i, j in itertools.combinations(range(k), 2)]
    # random points in the affine hull and in the surrounding box
    lo, hi = verts.min(axis=0) - 1.0, verts.max(axis=0) + 1.0
    probes = [verts[0] + rng.uniform(-1.0, 2.0, size=k) @ (verts - verts[0])
              for _ in range(80)]
    probes += list(rng.uniform(lo, hi, size=(80, d)))
    probes = [x for x in probes if _simplex_gap(verts, x) > 1e-7]
    for x in on_body:
        assert body.contains(x) and _lp_contains(verts, x)
    verdicts = [body.contains(x) for x in probes]
    assert verdicts == [_lp_contains(verts, x) for x in probes]
    assert len(probes) >= 60 and not all(verdicts)
    if name in ("quadrilateral", "tetrahedron"):
        # a flat body has no interior: its members are all within the band
        assert any(verdicts)


def test_contains_rejects_non_finite_points():
    body = segment_body([0.0, 0.0], [1.0, 0.0], n_samples=5)
    for bad in ([np.nan, 0.0], [0.5, np.inf]):
        with pytest.raises(ValueError, match="finite"):
            body.contains(bad)


def test_non_finite_points_are_rejected_before_any_step():
    inst = segment_instance(n_samples=101, mesh=1e-2)
    with pytest.raises(ValueError, match="witness points must be finite"):
        baire_renorm(inst.nu0, inst.body, [(0.0, 2.0), (np.nan, 2.0)], 0.3, 5, inst.setting)
    with pytest.raises(ValueError, match="finite"):
        wellpose_point(inst.nu0, inst.body, [np.inf, 2.0], 0.1, inst.setting)


class TestSetDiameter:
    @pytest.mark.parametrize("nu", [
        MaxOf((AbsLinear([1.0, 0.0]), AbsLinear([0.0, 1.0]), Scale(0.5, AbsLinear([1.0, 1.0])))),
        SumOf((l1_norm(2), Scale(0.5, MaxOf((AbsLinear([1.0, 1.0]), AbsLinear([0.3, -1.0])))))),
    ], ids=["max", "sum"])
    def test_fast_path_matches_bruteforce(self, nu, rng):
        pts = rng.normal(size=(150, 2)) * 3
        fast = set_diameter(pts, nu)
        brute = max(
            float(nu.eval_many((pts[i] - pts[j])[None, :])[0])
            for i in range(len(pts)) for j in range(len(pts))
        )
        assert fast == pytest.approx(brute, rel=1e-15)

    def test_fallback_path_matches_bruteforce(self, rng):
        pts = rng.normal(size=(80, 2))
        nu = euclidean_norm(2)
        slow = set_diameter(pts, nu)
        brute = max(
            float(np.linalg.norm(pts[i] - pts[j]))
            for i in range(len(pts)) for j in range(len(pts))
        )
        assert slow == pytest.approx(brute, rel=1e-15)

    def test_degenerate_inputs(self):
        nu = linf_norm(2)
        assert set_diameter(np.zeros((1, 2)), nu) == 0.0
        with pytest.raises(ValueError):
            set_diameter(np.zeros((0, 2)), nu)
        with pytest.raises(ValueError):
            set_diameter(np.zeros((3, 5)), nu)


def _awkward_rows(rng, d):
    """Rows with zeros, ties, subnormal and large coordinates; the large
    ones enter last, so the early running diameters see the small ones."""
    tiny = np.finfo(np.float64).tiny
    X = rng.normal(size=(40, d))
    X[0] = 0.0
    X[1] = X[2] = X[3]
    X[4] = 0.0
    X[4, 0] = 5e-324
    X[5] = tiny * rng.uniform(-1.0, 1.0, size=d)
    X[6] = 1e-160 * rng.normal(size=d)
    X[7] = (-1.0) ** np.arange(d)
    X[8] = -X[7]
    X[-4:] = 1e150 * rng.normal(size=(4, d))
    X[-1] = X[-2]
    return X


@pytest.mark.parametrize("d", range(1, 8))
class TestEuclideanKernel:
    """A euclidean value is the distance kernel's column loop, bit for bit
    numpy's norm (and the difference-array block it replaced) for d <= 7."""

    def test_eval_many_is_the_numpy_norm(self, d, rng):
        X = _awkward_rows(rng, d)
        assert np.array_equal(Euclidean(d).eval_many(X), np.linalg.norm(X, axis=1))

    def test_running_diameters_match_the_difference_block(self, d, rng):
        X = _awkward_rows(rng, d)
        for pts in [X] + [X[rng.permutation(len(X))] for _ in range(3)]:
            def block(i, j):
                diffs = pts[i][:, None, :] - pts[j][None, :, :]
                return np.linalg.norm(diffs.reshape(-1, d), axis=1).reshape(len(i), len(j))

            expected = prefix_diameters(block, np.arange(len(pts)))
            assert np.array_equal(_running_diameters(pts, Euclidean(d)), expected)


class TestMetricProjection:
    def test_degenerate_projection_in_sup_norm(self, segment_inst):
        inst = segment_inst
        rep = metric_projection(inst.nu0, inst.body, inst.p, (0.01, 0.1), inst.setting)
        # every segment point is sup-norm distance 2 from the apex
        assert rep.dist == 2.0
        assert len(rep.argmin_indices) == inst.body.sample.shape[0]
        assert rep.curve.diam_values[-1] == 2.0

    def test_euclidean_projection_is_unique(self, segment_inst):
        inst = segment_inst
        rep = metric_projection(euclidean_norm(2), inst.body, inst.p,
                                (1e-9,), inst.setting)
        assert rep.argmin_indices == (1000,)  # the midpoint under the apex
        assert rep.dist == 2.0

    def test_c_of_p(self, segment_inst):
        inst = segment_inst
        assert c_of_p(inst.body, inst.p, inst.setting) == 2.0

    def test_validation(self, segment_inst):
        inst = segment_inst
        with pytest.raises(ValueError):
            metric_projection(inst.nu0, inst.body, [0.0, 0.0, 0.0], (0.1,), inst.setting)
        with pytest.raises(ValueError):
            metric_projection(inst.nu0, inst.body, inst.p, (0.0,), inst.setting)


class TestStechPerturb:
    def test_added_terms_cost_at_most_eps(self, segment_inst):
        inst = segment_inst
        nu2 = stech_perturb_seminorm(inst.nu0, [1.0, 2.0], 0.2, inst.setting)
        r = rho(nu2, inst.nu0, inst.setting)
        assert r.value <= 0.2 * (1.0 + 1e-12)

    def test_eps_validation(self, segment_inst):
        with pytest.raises(ValueError):
            stech_perturb_seminorm(segment_inst.nu0, [1.0, 0.0], 0.0, segment_inst.setting)


class TestWellposePoint:
    def test_interior_point_uses_the_base_term(self, segment_inst):
        inst = segment_inst
        rep = wellpose_point(inst.nu0, inst.body, [0.0, 0.0], 0.2, inst.setting)
        assert rep.ok and rep.status == "interior"
        assert rep.x_star is None
        assert rep.dist == 0.0

    def test_apex_needs_the_quotient_construction(self, segment_inst):
        inst = segment_inst
        rep = wellpose_point(inst.nu0, inst.body, inst.p, 0.2, inst.setting)
        assert rep.ok and rep.status == "perturbed"
        assert rep.x_star == (1.0, 2.0)
        assert rep.achieved_diam < 0.2
        assert rep.moved <= 0.2 * (1.0 + 1e-9)
        assert rep.delta == 0.0125
        assert len(rep.added_exprs) == 2

    def test_moved_is_the_sphere_max_of_the_added_terms(self, segment_inst):
        inst = segment_inst
        for p in ([0.0, 0.0], inst.p):
            rep = wellpose_point(inst.nu0, inst.body, p, 0.2, inst.setting)
            terms = rep.added_exprs
            assert rep.moved == float(SumOf(terms).eval_many(inst.setting.sphere).max())
            # the whole-tree difference agrees up to cancellation error
            whole = rho(rep.nu_prime, inst.nu0, inst.setting).value
            assert abs(rep.moved - whole) <= 1e-12
        assert rep.moved == 0.2  # sup of 0.1 base + 0.1 q is attained where q = base

    def test_curve_is_monotone_and_replayable(self, segment_inst):
        inst = segment_inst
        rep = wellpose_point(inst.nu0, inst.body, inst.p, 0.2, inst.setting)
        diams = rep.curve.diam_values
        assert all(a <= b for a, b in zip(diams, diams[1:]))
        values = rep.nu_prime.eval_many(np.asarray(inst.p)[None, :] - inst.body.sample)
        dist = float(values.min())
        members = inst.body.sample[values <= dist + rep.delta]
        assert set_diameter(members, inst.setting.base) == rep.achieved_diam

    def test_only_the_winning_strategy_builds_a_quotient(self, segment_inst, monkeypatch):
        import wellpose.steckin as steckin_mod

        built = []

        class Counting(LineQuotient):
            def __init__(self, *args, **kwargs):
                built.append(args[1])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(steckin_mod, "LineQuotient", Counting)
        inst = segment_inst
        rep = wellpose_point(inst.nu0, inst.body, inst.p, 0.2, inst.setting)
        # the segment has a second distinct minimizer, so "perturbed_alt"
        # exists, but "perturbed" wins and its quotient is the only one built
        assert rep.status == "perturbed"
        assert len(built) == 1 and tuple(built[0]) == rep.x_star
        built.clear()
        rep = wellpose_point(inst.nu0, inst.body, inst.p, 0.2, inst.setting,
                             delta_grid=(1000.0,))
        assert rep.status == "fallback" and len(built) == 2

    def test_fallback_when_the_single_radius_is_hopeless(self, segment_inst):
        inst = segment_inst
        rep = wellpose_point(inst.nu0, inst.body, inst.p, 0.2, inst.setting,
                             delta_grid=(1000.0,))
        assert not rep.ok and rep.status == "fallback"
        assert rep.delta is None and rep.achieved_diam is None

    def test_validation(self, segment_inst):
        inst = segment_inst
        with pytest.raises(ValueError):
            wellpose_point(inst.nu0, inst.body, inst.p, 0.0, inst.setting)
        with pytest.raises(ValueError):
            wellpose_point(inst.nu0, inst.body, inst.p, 0.2, inst.setting,
                           delta_grid=(0.0,))
        with pytest.raises(ValueError):
            wellpose_point(inst.nu0, inst.body, [1.0], 0.2, inst.setting)


class TestBaireRenorm:
    def test_budget_precondition(self, coarse_inst):
        inst = coarse_inst
        with pytest.raises(PreconditionError):
            baire_renorm(inst.nu0, inst.body, inst.witness_points,
                         eps_total=1.5, n_target=5, setting=inst.setting)

    def test_success_and_ledger_invariants(self, coarse_inst):
        inst = coarse_inst
        rep = baire_renorm(inst.nu0, inst.body, inst.witness_points,
                           eps_total=0.3, n_target=5, setting=inst.setting)
        assert rep.success and rep.reason is None
        ledger = rep.ledger
        assert ledger.eps_total == 0.3
        assert ledger.spent == pytest.approx(sum(s.eps_step for s in ledger.steps))
        assert ledger.spent <= 0.3

        # each step spends half the tightest allowance current at its turn
        protect = []
        remaining = 0.3
        for s in ledger.steps:
            allowance = min([remaining, 1.0 / 5] + protect)
            assert s.eps_step == pytest.approx(0.5 * allowance)
            protect = [t - s.eps_step for t in protect]
            protect.append(s.radius)
            remaining -= s.eps_step
            assert s.radius == pytest.approx(s.delta / (3.0 * s.c_p))
            assert s.achieved_diam < s.eps_step
        # all protections stayed positive, so every claim survived
        assert all(t > 0.0 for t in protect)

    def test_per_point_replay_meets_the_target(self, coarse_inst):
        inst = coarse_inst
        rep = baire_renorm(inst.nu0, inst.body, inst.witness_points,
                           eps_total=0.3, n_target=5, setting=inst.setting)
        assert len(rep.per_point) == len(inst.witness_points)
        for entry in rep.per_point:
            assert entry["diam"] < entry["eps_step"]
            assert entry["eps_step"] <= 0.5 * (1.0 / 5)
            assert entry["diam"] < 1.0 / 5

    def test_budget_and_equivalence_certificates(self, coarse_inst):
        inst = coarse_inst
        rep = baire_renorm(inst.nu0, inst.body, inst.witness_points,
                           eps_total=0.3, n_target=5, setting=inst.setting)
        assert rep.rho_total.value <= 0.3 * (1.0 + 1e-12)
        assert rep.a_final.equivalent
        # the final seminorm is nu0 plus exactly the ledgered terms
        rebuilt = SumOf((inst.nu0,) + tuple(
            e for s in rep.ledger.steps for e in s.added_exprs))
        pts = inst.setting.sphere[::50]
        assert np.array_equal(rebuilt.eval_many(pts), rep.nu_final.eval_many(pts))

    def test_budget_exhaustion_with_many_witnesses(self, coarse_inst):
        inst = coarse_inst
        many = tuple((0.1 * k, 2.0) for k in range(-6, 7))  # 13 witnesses
        rep = baire_renorm(inst.nu0, inst.body, many, eps_total=0.3,
                           n_target=5, setting=inst.setting)
        assert not rep.success
        assert rep.reason == "budget_exhausted"
        assert 0 < len(rep.ledger.steps) < len(many)
        assert rep.per_point == ()

    def test_necessity_of_the_quotient_terms(self):
        # two far witnesses whose quotient directions are horizontal: each
        # keeps the other's objective flat, so dropping the first step's
        # terms from the final seminorm breaks the first claim
        inst = segment_instance(n_samples=201, mesh=5e-3)
        witnesses = necessity_witness_points()
        rep = baire_renorm(inst.nu0, inst.body, witnesses, eps_total=0.3,
                           n_target=5, setting=inst.setting)
        assert rep.success
        step0 = rep.ledger.steps[0]
        stripped = SumOf((inst.nu0,) + tuple(
            e for s in rep.ledger.steps[1:] for e in s.added_exprs))
        p0 = np.asarray(witnesses[0], dtype=np.float64)
        tol = step0.delta / 3.0

        def claim_diam(nu):
            values = nu.eval_many(p0[None, :] - inst.body.sample)
            members = inst.body.sample[values <= float(values.min()) + tol]
            return set_diameter(members, inst.setting.base)

        assert claim_diam(rep.nu_final) < step0.eps_step
        assert claim_diam(stripped) >= step0.eps_step

    def test_input_validation(self, coarse_inst):
        inst = coarse_inst
        with pytest.raises(ValueError):
            baire_renorm(inst.nu0, inst.body, (), eps_total=0.3,
                         n_target=5, setting=inst.setting)
        with pytest.raises(ValueError):
            baire_renorm(inst.nu0, inst.body, inst.witness_points,
                         eps_total=0.0, n_target=5, setting=inst.setting)
        with pytest.raises(ValueError):
            baire_renorm(inst.nu0, inst.body, inst.witness_points,
                         eps_total=0.3, n_target=0, setting=inst.setting)

    @pytest.mark.parametrize("desc", [
        {"kind": "segment", "a": [-1.0, 0.0], "b": [1.0, 0.0], "base": "linf",
         "witness_points": [[0.0, 2.0], [0.5, 2.0], [-0.5, 2.0]]},
        {"kind": "polytope", "vertices": [[-1.0, -0.5], [1.0, -0.6], [0.8, 0.7], [-0.6, 0.9]],
         "base": "l1", "witness_points": [[0.0, 2.0], [2.2, 0.4], [0.1, 0.1], [-1.5, -1.8]]},
        {"kind": "segment", "a": [-1.0, 0.0], "b": [1.0, 0.0], "base": "euclidean",
         "witness_points": [[0.0, 2.0], [1.5, -1.0], [0.25, 0.0], [-0.5, 0.8]]},
    ], ids=["linf", "l1", "euclidean"])
    def test_final_seminorm_matches_its_unshared_rebuild(self, desc):
        """nu_final holds its base 2s + 1 times; a JSON round trip shares
        nothing, so the per-call memo never hits there."""
        inst = steckin_instance_from_json(dict(desc, n_samples=401, mesh=5e-3))
        rep = baire_renorm(inst.nu0, inst.body, inst.witness_points,
                           eps_total=0.3, n_target=5, setting=inst.setting)
        assert len(rep.ledger.steps) >= 2
        rebuilt = seminorm_from_json(seminorm_to_json(rep.nu_final))
        for pts in (inst.setting.sphere, inst.body.sample, inst.body.sample - inst.p):
            assert np.array_equal(rep.nu_final.eval_many(pts), rebuilt.eval_many(pts))


class TestInstanceHelpers:
    def test_acceptance_witnesses_sit_above_the_segment(self):
        for w in acceptance_witness_points():
            assert w[1] == 2.0 and abs(w[0]) <= 0.5

    def test_segment_instance_shape(self, segment_inst):
        inst = segment_inst
        assert inst.setting.dim == 2
        assert inst.body.vertices.shape == (2, 2)
        assert tuple(inst.p) == (0.0, 2.0)
        assert inst.setting.mesh <= 1e-3
