import functools
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wellpose.errors import PreconditionError
from wellpose.instances import (
    acceptance_witness_points,
    necessity_witness_points,
    random_norm,
    random_polyhedral_seminorm,
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
from wellpose import seminorms
from wellpose.errors import ReplayError
from wellpose import spaces
from wellpose.spaces import _euclidean_prefix, _pairwise, prefix_diameters
from wellpose.steckin import (
    ConvexBody,
    NormedSetting,
    _add_terms,
    _columns,
    _nearest_two,
    _quotient_terms,
    _step_grid,
    _sublevel_curve,
    _sweep,
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
    wellpose_point,
)


def _whole_sweep(pts, nu):
    """Running nu-diameter of the rows of pts in their order: one sweep
    over pts built afresh."""
    return _sweep(pts, nu)(np.arange(len(pts)))


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
        assert all(body.contains(x) for x in body.sample[::8])  # its samples lie in its hull
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

    @pytest.mark.parametrize("verts", [[[0.0, 0.0], [np.inf, 0.0], [0.0, 1.0]],
                                       [[0.0, np.nan], [1.0, 0.0], [0.0, 1.0]]])
    def test_polytope_vertices_must_be_finite(self, verts):
        with pytest.raises(ValueError, match="body data must be finite"):
            polytope_body(verts, n_samples=16)

    def test_an_overflowing_polytope_is_rejected_before_its_mesh(self):
        # the squared 1e200 width overflows
        with pytest.raises(ValueError, match="the vertex spread is too wide"):
            polytope_body([[0.0, 0.0], [1e200, 0.0], [0.0, 1.0]], n_samples=16)

    def test_a_hull_qhull_cannot_build_is_a_value_error(self):
        # finite but so thin that qhull finds the initial simplex flat
        body = polytope_body([[0.0, 0.0], [1e150, 0.0], [0.0, 1.0]], n_samples=16)
        with pytest.raises(ValueError, match="qhull cannot hull the vertices"):
            body.contains([0.0, 0.5])


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



def test_a_witness_at_distance_0_from_the_body_is_rejected():
    # a point body has c_p = 0 at its own point, so no protection radius
    inst = steckin_instance_from_json({"kind": "segment", "a": [0.5, 0.5], "b": [0.5, 0.5],
                                       "p": [0.5, 0.5], "n_samples": 11, "mesh": 0.05})
    with pytest.raises(ValueError, match=r"witness point \[0.5, 0.5\] is at distance 0"):
        baire_renorm(inst.nu0, inst.body, inst.witness_points, 0.3, 5, inst.setting)


@pytest.mark.parametrize("field", [{"n_samples": 2.5}, {"seed": 0.5}, {"n_samples": float("nan")},
                                   {"n_samples": float("inf")}])
def test_fractional_counts_are_rejected(field):
    desc = {"kind": "polytope", "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            "witness_points": [[2.0, 2.0]], "mesh": 0.05}
    with pytest.raises(ValueError, match=f"{next(iter(field))} must be an integer"):
        steckin_instance_from_json(dict(desc, **field))
    # an integral float is still a count
    whole = steckin_instance_from_json(dict(desc, n_samples=40.0, seed=3.0))
    assert np.array_equal(whole.body.sample,
                          steckin_instance_from_json(dict(desc, n_samples=40, seed=3)).body.sample)


@pytest.mark.parametrize("kind, field", [("polytope", "n_samples"), ("polytope", "seed"),
                                         ("segment", "n_samples")])
def test_negative_counts_are_rejected(kind, field):
    # a polytope would sample max(-5 - 3, 0) extra points: its vertices alone
    desc = {"kind": "polytope", "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]}
    if kind == "segment":
        desc = {"kind": "segment", "a": [0.0, 0.0], "b": [1.0, 0.0]}
    with pytest.raises(ValueError, match=f"{field} must be nonnegative, got -5"):
        steckin_instance_from_json(dict(desc, witness_points=[[2.0, 2.0]], mesh=0.05, **{field: -5}))


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
            assert np.array_equal(_whole_sweep(pts, Euclidean(d)), expected)

    @pytest.mark.parametrize("cells", [1, 64, 1 << 15])
    def test_squared_sweep_equals_the_block_path(self, d, cells, rng, monkeypatch):
        """Running maxima of squared distances, rooted at the end, are the
        block path over _pairwise distance blocks bit for bit, with and
        without a stop, for chunks of one row, a few rows and many."""
        monkeypatch.setattr(spaces, "_CHUNK_CELLS", cells)
        X = _awkward_rows(rng, d)
        for pts in [X, X[:1], X[:2], X[rng.permutation(len(X))], rng.normal(size=(300, d))]:
            def block(i, j):
                return _pairwise(pts[i][:, None], pts[j][None], "euclidean")

            full = prefix_diameters(block, np.arange(len(pts)))
            assert _bits(_euclidean_prefix(pts)) == _bits(full)
            for stop in (0.0, float(full[0]), float(np.median(full)), float(full[-1]), np.inf):
                expected = prefix_diameters(block, np.arange(len(pts)), stop)
                assert _bits(_euclidean_prefix(pts, stop)) == _bits(expected)


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

    @pytest.mark.parametrize("grid", [(np.nan,), (np.nan, 0.1), (0.1, np.nan)])
    def test_a_nan_tolerance_is_rejected_by_every_caller(self, grid, coarse_inst):
        inst = coarse_inst
        calls = (
            lambda: metric_projection(inst.nu0, inst.body, inst.p, grid, inst.setting),
            lambda: wellpose_point(inst.nu0, inst.body, inst.p, 0.2, inst.setting,
                                   delta_grid=grid),
            lambda: baire_renorm(inst.nu0, inst.body, (inst.p,), 0.3, 5, inst.setting,
                                 delta_grid=grid),
        )
        for call in calls:
            with pytest.raises(ValueError, match="delta grid must be positive"):
                call()


class TestStechPerturb:
    def test_added_terms_cost_at_most_eps(self, segment_inst):
        # the seminorm every renorming step builds: (eps/2) base and
        # (eps/2) line quotient, each dominated by (eps/2) base
        inst = segment_inst
        nu2 = SumOf((inst.nu0,) + _quotient_terms(inst.setting, np.array([1.0, 2.0]), 0.2))
        r = rho(nu2, inst.nu0, inst.setting)
        assert r.value <= 0.2 * (1.0 + 1e-12)


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
        # a one-coordinate witness would broadcast against the sample
        with pytest.raises(ValueError, match="dimension mismatch"):
            baire_renorm(inst.nu0, inst.body, ((0.0, 2.0), (1.0,)), eps_total=0.3,
                         n_target=5, setting=inst.setting)

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


def _plain_sweep(sample, base):
    """Running base diameters of sample[order], the rows gathered and
    projected afresh on every sweep."""
    return lambda order: _whole_sweep(sample[order], base)


def _reference_renorm(nu0, body, witness_points, eps_total, n_target, setting,
                      delta_grid=None, tried=None):
    """baire_renorm as a loop that re-evaluates the whole growing tree:
    twice per step on p - sample, the added terms on the sphere through
    k_nu, base through c_of_p, the final tree once per witness, and
    rho / a_nu on the sphere.  The strategy pick is a stable argsort.
    Every quotient direction tried is appended to ``tried``."""
    tried = [] if tried is None else tried
    points = [np.asarray(p, dtype=np.float64) for p in witness_points]
    a0 = a_nu(nu0, setting)
    assert eps_total < a0.value - a0.error_bound
    nu, remaining, protect, steps, spent = nu0, eps_total, [], [], 0.0
    base = setting.base

    def result(success, reason, per_point=(), rho_total=None, a_final=None):
        return dict(success=success, reason=reason, nu_final=nu, steps=steps, spent=spent,
                    per_point=per_point, rho_total=rho_total, a_final=a_final)

    for i, p in enumerate(points):
        eps_i = 0.5 * min([remaining, 1.0 / n_target] + protect)
        if not (eps_i > eps_total * 2.0**-40):
            return result(False, "budget_exhausted")
        grid = tuple(sorted({float(d) for d in (
            delta_grid if delta_grid is not None else [eps_i / 2.0**k for k in range(33)])}))
        offsets = p[None, :] - body.sample
        if body.contains(p):
            strategies = [("interior", None)]
        else:
            order = np.argsort(nu.eval_many(offsets), kind="stable")
            strategies = [("perturbed", p - body.sample[order[0]])]
            for k in order[1:]:
                if not np.array_equal(body.sample[k], body.sample[order[0]]):
                    strategies.append(("perturbed_alt", p - body.sample[k]))
                    break
            strategies.append(("fallback", None))
        for status, x in strategies:
            if x is None:
                terms = (Scale(eps_i, base),)
            else:
                tried.append(tuple(x))
                terms = (Scale(eps_i / 2.0, base), Scale(eps_i / 2.0, LineQuotient(base, x)))
            values = SumOf((nu,) + terms).eval_many(offsets)
            curve = _sublevel_curve(values, _plain_sweep(body.sample, base), grid)
            delta, dm = max(((t, d) for t, d in zip(grid, curve.diam_values) if d < eps_i),
                            default=(None, None))
            if delta is not None:
                break
        if delta is None:
            return result(False, "step_failed")
        cp = c_of_p(body, p, setting)
        protect = [t - eps_i for t in protect] + [delta / (3.0 * cp)]
        steps.append(dict(
            index=i, point=tuple(float(v) for v in p), eps_step=eps_i, status=status,
            delta=delta, achieved_diam=dm, c_p=cp, radius=delta / (3.0 * cp),
            moved=k_nu(SumOf(terms), setting).value,
            x_star=None if x is None else tuple(float(v) for v in x), added_exprs=terms))
        nu = SumOf((nu,) + terms)
        remaining -= eps_i
        spent += eps_i
    per_point = []
    for step, p in zip(steps, points):
        tol = step["delta"] / 3.0
        grid = tuple(sorted({tol, 2.0 * tol, 3.0 * tol}))
        curve = _sublevel_curve(nu.eval_many(p[None, :] - body.sample),
                                _plain_sweep(body.sample, base), grid)
        per_point.append({"index": step["index"], "point": step["point"], "delta_over_3": tol,
                          "diam": curve.diam_values[0], "eps_step": step["eps_step"],
                          "bound": 1.0 / n_target, "curve": curve})
    return result(True, None, tuple(per_point), rho(nu, nu0, setting), a_nu(nu, setting))


def _as_plain(value):
    """Seminorm trees as their JSON, curves as their two tuples."""
    if isinstance(value, seminorms.SeminormExpr):
        return seminorms.seminorm_to_json(value)
    if hasattr(value, "diam_values"):
        return (value.eps_grid, value.diam_values)
    if isinstance(value, (tuple, list)):
        return [_as_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _as_plain(v) for k, v in value.items()}
    return value


def _assert_same_bits(a, b):
    """Equal structure, and every float equal bit for bit (float.hex)."""
    def hexed(v):
        if isinstance(v, float):
            return v.hex()
        if isinstance(v, list):
            return [hexed(x) for x in v]
        if isinstance(v, dict):
            return {k: hexed(x) for k, x in v.items()}
        return v
    assert hexed(_as_plain(a)) == hexed(_as_plain(b))


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _renorm_cases():
    """(name, nu0, body, witnesses, setting, delta_grid): linf, l1,
    euclidean and random_norm bases; interior, step_failed and
    budget_exhausted runs among them."""
    rng = np.random.default_rng(14)
    seg = segment_instance(n_samples=201, mesh=5e-3)
    poly = steckin_instance_from_json(
        {"kind": "polytope", "vertices": [[-1.0, -0.5], [1.0, -0.6], [0.8, 0.7], [-0.6, 0.9]],
         "base": "l1", "n_samples": 301, "mesh": 5e-3})
    euc = steckin_instance_from_json(
        {"kind": "segment", "a": [-1.0, 0.0], "b": [1.0, 0.0], "base": "euclidean",
         "n_samples": 201, "mesh": 5e-3})
    cases = [
        ("linf", seg.nu0, seg.body, acceptance_witness_points() + ((0.2, 0.0),), seg.setting,
         None),
        ("linf-failed", seg.nu0, seg.body, ((0.0, 2.0), (0.5, 1.0)), seg.setting, (1000.0,)),
        ("linf-exhausted", seg.nu0, seg.body, tuple((0.1 * k, 2.0) for k in range(-6, 7)),
         seg.setting, None),
        ("l1", poly.nu0, poly.body, ((0.0, 2.0), (2.2, 0.4), (0.1, 0.1), (-1.5, -1.8)),
         poly.setting, None),
        ("euclidean", euc.nu0, euc.body, ((0.0, 2.0), (1.5, -1.0), (0.25, 0.0), (-0.5, 0.8)),
         euc.setting, None),
    ]
    for k in range(4):
        base = random_norm(rng, 2)
        setting = make_setting(2, base, 1e-2)
        nu0 = base if k % 2 else SumOf((base, Scale(0.5, random_norm(rng, 2))))
        witnesses = tuple(tuple(rng.uniform(-3.0, 3.0, size=2)) for _ in range(3 + k))
        body = poly.body if k < 2 else seg.body
        cases.append((f"random{k}", nu0, body, witnesses, setting, None))
    return cases


class TestCarriedValues:
    """baire_renorm carries nu's values instead of re-evaluating the tree;
    the tree-re-evaluating loop above is its oracle."""

    @pytest.mark.parametrize("case", _renorm_cases(), ids=lambda c: c[0])
    def test_equals_the_tree_re_evaluating_loop(self, case, monkeypatch):
        import wellpose.steckin as steckin_mod

        _, nu0, body, witnesses, setting, grid = case
        built, tried = [], []

        class Recording(LineQuotient):
            def __init__(self, base, direction):
                built.append(tuple(direction))
                super().__init__(base, direction)

        monkeypatch.setattr(steckin_mod, "LineQuotient", Recording)
        rep = baire_renorm(nu0, body, witnesses, 0.3, 5, setting, delta_grid=grid)
        ref = _reference_renorm(nu0, body, witnesses, 0.3, 5, setting, delta_grid=grid,
                                tried=tried)
        # the same quotient directions, failed strategies included
        _assert_same_bits(built, tried)
        got = dict(success=rep.success, reason=rep.reason, nu_final=rep.nu_final,
                   steps=[{f: getattr(s, f) for f in ref["steps"][0]} for s in rep.ledger.steps]
                   if ref["steps"] else [], spent=rep.ledger.spent, per_point=rep.per_point,
                   rho_total=rep.rho_total, a_final=rep.a_final)
        assert len(rep.ledger.steps) == len(ref["steps"])
        _assert_same_bits(got, ref)

    @pytest.mark.parametrize("case", [c for c in _renorm_cases() if "-" not in c[0]],
                             ids=lambda c: c[0])
    def test_carried_arrays_equal_the_final_tree(self, case, monkeypatch):
        """The arrays the final replay and a_final read are nu_final's
        eval_many on each witness's offsets and on the sphere, bit for
        bit: no rounding of the carried sums is hidden by a curve."""
        import wellpose.steckin as steckin_mod

        _, nu0, body, witnesses, setting, grid = case
        seen = {"curve": [], "inf": []}
        for name, key in (("_sublevel_curve", "curve"), ("_inf_estimate", "inf")):
            def record(values, *args, _real=getattr(steckin_mod, name), _key=key):
                seen[_key].append(values)
                return _real(values, *args)
            monkeypatch.setattr(steckin_mod, name, record)
        rep = baire_renorm(nu0, body, witnesses, 0.3, 5, setting, delta_grid=grid)
        assert rep.success
        replayed = seen["curve"][-len(witnesses):]
        for w, values in zip(witnesses, replayed):
            offsets = np.asarray(w, dtype=np.float64) - body.sample
            assert _bits(values) == _bits(rep.nu_final.eval_many(offsets))
        assert _bits(seen["inf"][-1]) == _bits(rep.nu_final.eval_many(setting.sphere))

    def test_the_cases_reach_every_outcome(self):
        outcomes = set()
        for _, nu0, body, witnesses, setting, grid in _renorm_cases():
            rep = baire_renorm(nu0, body, witnesses, 0.3, 5, setting, delta_grid=grid)
            outcomes.add(rep.reason)
            outcomes.update(s.status for s in rep.ledger.steps)
        assert outcomes >= {None, "step_failed", "budget_exhausted", "interior", "perturbed"}

    @pytest.mark.parametrize("count", [2, 4, 8])
    def test_base_is_computed_once_per_point_set(self, count, monkeypatch):
        """Every leaf of the linf base computes at most once on the sphere,
        when the setting is built, and once on each witness's offsets,
        however many steps follow.  A second run on the same setting
        computes nothing on the sphere, and base's rows are flattened
        once across both runs."""
        computed, flattened = [], []
        raw = AbsLinear.eval_many
        raw_flatten = seminorms._flatten

        def spy(self, X):
            computed.append((self, X))
            return raw(self, X)

        def flatten_spy(expr):
            flattened.append(expr)
            return raw_flatten(expr)

        monkeypatch.setattr(AbsLinear, "eval_many", spy)
        monkeypatch.setattr(seminorms, "_flatten", flatten_spy)
        inst = segment_instance(n_samples=201, mesh=5e-3)
        witnesses = tuple((0.3 * k - 1.0, 2.0 + 0.1 * k) for k in range(count))
        rep = baire_renorm(inst.nu0, inst.body, witnesses, 0.3, 5, inst.setting)
        assert len(rep.ledger.steps) >= 2
        point_sets = [inst.setting.sphere] + [np.asarray(w) - inst.body.sample for w in witnesses]

        def leaves_on(pts):
            return [leaf for leaf, X in computed if X.shape == pts.shape and np.array_equal(X, pts)]

        for pts in point_sets:
            on_pts = leaves_on(pts)
            assert len(on_pts) == len(set(map(id, on_pts))) == 2  # each leaf once
        computed.clear()
        again = baire_renorm(inst.nu0, inst.body, witnesses, 0.3, 5, inst.setting)
        _assert_same_bits([vars(s) for s in again.ledger.steps],
                          [vars(s) for s in rep.ledger.steps])
        assert leaves_on(inst.setting.sphere) == []
        for pts in point_sets[1:]:
            on_pts = leaves_on(pts)
            assert len(on_pts) == len(set(map(id, on_pts))) == 2
        assert flattened.count(inst.setting.base) == 1

    @pytest.mark.parametrize("dim", [2, 3])
    def test_step_terms_from_base_values(self, dim, rng):
        """The added terms, computed from base's values on the points'
        columns, give the sum node's eval_many bit for bit: c base, c
        quotient of base; the terms' own largest sum is moved."""
        for base in (linf_norm(dim), l1_norm(dim), euclidean_norm(dim)):
            setting = make_setting(dim, base, 0.5)
            pts = rng.normal(size=(50, dim)) * 2
            base_vals = base.eval_many(pts)
            carried = rng.uniform(0.0, 3.0, size=50)
            for x in (rng.normal(size=dim), np.eye(dim)[0]):
                for terms in (_quotient_terms(setting, x, 0.1), (Scale(0.1, base),)):
                    got, moved = _add_terms(carried, terms, _columns(pts), base_vals, moved=True)
                    each = [term.eval_many(pts) for term in terms]
                    assert _bits(got) == _bits(seminorms._fold(np.add, [carried, *each]))
                    assert moved == float(seminorms._fold(np.add, each).max())

    def test_argmin_pick_equals_the_stable_sort_pick(self, rng):
        """Repeated sample rows and tied values: the first two distinct
        points of a stable argsort."""
        for _ in range(200):
            rows = rng.integers(0, 4, size=(int(rng.integers(1, 12)), 2)).astype(float)
            vals = rng.integers(0, 3, size=rows.shape[0]).astype(float)
            order = np.argsort(vals, kind="stable")
            alt = next((int(k) for k in order[1:]
                        if not np.array_equal(rows[k], rows[order[0]])), None)
            body = ConvexBody(vertices=rows, sample=rows, mesh=0.0)
            assert _nearest_two(vals, body) == (int(order[0]), alt)


def _mask_pick(vals, sample):
    """Reference pick: the lowest-index minimum among the samples that
    differ from the first minimizer in some coordinate."""
    first = int(np.argmin(vals))
    differ = np.flatnonzero(np.any(sample != sample[first], axis=1))
    return first, (int(differ[np.argmin(vals[differ])]) if differ.size else None)


class TestNearestTwo:
    @staticmethod
    def _samples(rng):
        yield np.array([[0.5, -1.0]])  # one point
        yield np.array([[0.0, 1.0], [-0.0, 1.0], [2.0, 3.0]])  # -0.0 == 0.0 repeats
        for m in (2, 3, 7, 40):
            yield rng.normal(size=(m, 2))  # no repeats
            yield rng.integers(0, 3, size=(m, 2)).astype(float)  # repeats
            yield rng.normal(size=(m, 3))
        yield np.repeat([[1.0, 2.0]], 5, axis=0)  # one point, five times

    def test_repeat_flag(self, rng):
        for sample in self._samples(rng):
            body = ConvexBody(vertices=sample, sample=sample, mesh=0.0)
            assert body._repeats == (len(set(map(tuple, sample.tolist()))) < len(sample))

    def test_pick_equals_the_coordinate_mask(self, rng):
        """Tied values, all-equal values and values in every order, on
        samples with and without repeated points."""
        for sample in self._samples(rng):
            body = ConvexBody(vertices=sample, sample=sample, mesh=0.0)
            m = len(sample)
            cases = [np.zeros(m), np.full(m, 3.5), rng.normal(size=m),
                     rng.integers(0, 3, size=m).astype(float), np.arange(m, 0, -1.0)]
            for vals in cases:
                assert _nearest_two(vals, body) == _mask_pick(vals, sample)


_KERNEL_BASES = {"linf": linf_norm, "l1": l1_norm, "euclidean": euclidean_norm}


@functools.lru_cache(maxsize=None)
def _kernel_setting(dim, name):
    return make_setting(dim, _KERNEL_BASES[name](dim), 0.5)


@st.composite
def _kernel_cases(draw):
    """(terms, points, base values, carried values) of one step: a 2-D or
    3-D quotient along a direction that may lie near an axis and be huge
    or tiny, or the plain base term."""
    dim = draw(st.sampled_from((2, 2, 2, 3)))
    setting = _kernel_setting(dim, draw(st.sampled_from(sorted(_KERNEL_BASES))))
    eps = draw(st.floats(1e-9, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    direction = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
    axis = draw(st.integers(0, dim - 1))
    off_axis = draw(st.sampled_from((None, 0.0, 1e-17, 1e-9)))
    if off_axis is not None:
        direction = np.where(np.arange(dim) == axis, direction, off_axis * direction)
    # down to subnormal: a quotient searches along its direction scaled to
    # unit size, so its bracket 2 base(x) / base(direction) stays finite
    direction *= 10.0 ** draw(st.integers(-100, 100))
    n = 12 if dim == 3 else 40
    pts = rng.normal(size=(n, dim)) * 10.0 ** draw(st.integers(-60, 60))
    pts[0] = 0.0
    pts[1], pts[2] = direction, -3.0 * direction  # the quotient is 0 there
    if draw(st.booleans()):
        terms = (Scale(eps, setting.base),)
    else:
        try:
            terms = _quotient_terms(setting, direction, eps)
        except ValueError:  # base is 0 on the direction, or only by rounding above it
            assume(False)
    carried = draw(st.sampled_from((0.0, 1.0, 1e30))) * rng.uniform(0.0, 3.0, size=n)
    return terms, pts, setting.base.eval_many(pts), carried


class TestTermKernel:
    @settings(max_examples=300, deadline=None)
    @given(_kernel_cases())
    def test_kernel_equals_the_sum_node(self, case):
        """carried + the terms, on the points' columns, is the sum node's
        fold over each term's eval_many bit for bit, moved is the largest
        value of the terms' own sum, and carried is left as it was."""
        terms, pts, base_vals, carried = case
        kept = carried.copy()
        got, moved = _add_terms(carried, terms, _columns(pts), base_vals, moved=True)
        each = [t.eval_many(pts) for t in terms]
        assert _bits(got) == _bits(seminorms._fold(np.add, [carried, *each]))
        assert float(moved).hex() == float(seminorms._fold(np.add, each).max()).hex()
        assert _add_terms(carried, terms, _columns(pts), base_vals)[1] is None
        assert _bits(carried) == _bits(kept)
        if len(terms) == 2 and pts.shape[1] == 2:
            # reference: the quotient's closed form computed on the rows
            lq = terms[1].child
            flat = lq._kappa * np.abs(pts[:, 0] * lq._perp[0] + pts[:, 1] * lq._perp[1])
            assert _bits(each[1]) == _bits(terms[1].factor * np.minimum(flat, base_vals))


class TestKeptValues:
    """What a renorming step reads from its fixed base is computed once
    and kept read-only; each kept value equals a fresh computation."""

    @staticmethod
    def _settings():
        rng = np.random.default_rng(23)
        yield make_setting(1, l1_norm(1), 0.1)
        for base in (linf_norm(2), l1_norm(2), euclidean_norm(2), random_norm(rng, 2)):
            yield make_setting(2, base, 2e-2)
        for base in (linf_norm(3), euclidean_norm(3)):
            yield make_setting(3, base, 0.5)

    def test_sphere_values_equal_a_fresh_evaluation(self):
        for setting in self._settings():
            assert _bits(setting.base_sphere) == _bits(setting.base.eval_many(setting.sphere))
            assert _bits(setting.sphere_columns) == _bits(setting.sphere.T.copy())
            assert setting.sphere_columns.flags.c_contiguous
            for kept in (setting.sphere, setting.sphere_columns, setting.base_sphere):
                with pytest.raises(ValueError, match="read-only"):
                    kept[0] = 0.0

    def test_the_setting_owns_its_sphere(self):
        base = linf_norm(2)
        angles = np.linspace(0.0, 2.0 * np.pi, 50, endpoint=False)
        points = np.column_stack([np.cos(angles), np.sin(angles)])
        points /= base.eval_many(points)[:, None]
        setting = NormedSetting(dim=2, base=base, sphere=points, mesh=0.2)
        sphere, values = setting.sphere.copy(), setting.base_sphere.copy()
        points *= 3.0
        assert _bits(setting.sphere) == _bits(sphere)
        assert _bits(setting.base_sphere) == _bits(values)
        assert not np.shares_memory(setting.sphere, points)

    @staticmethod
    def _bodies():
        rng = np.random.default_rng(5)
        yield segment_body([-1.0, 0.0], [1.0, 0.5], n_samples=41)
        yield polytope_body([[-1.0, -0.5], [1.0, -0.6], [0.8, 0.7], [-0.6, 0.9]],
                            n_samples=60, seed=2)
        yield polytope_body(rng.normal(size=(6, 3)), n_samples=50, seed=3)
        # tied rows and dyadic coordinates: equal projections and diameters
        tied = rng.integers(-4, 5, size=(40, 2)) / 4.0
        yield ConvexBody(vertices=tied, sample=np.vstack([tied, tied[::3]]), mesh=0.25)

    def test_projection_sweep_equals_the_gathered_sample(self):
        rng = np.random.default_rng(7)
        for body in self._bodies():
            d = body.dim
            bases = [linf_norm(d), l1_norm(d), euclidean_norm(d),
                     MaxOf((l1_norm(d), Scale(0.75, linf_norm(d))))]
            bases += [random_polyhedral_seminorm(rng, d) for _ in range(3)]
            m = body.sample.shape[0]
            for base in bases:
                sweep = _sweep(body.sample, base)
                for length in range(1, m + 1):
                    order = rng.permutation(m)[:length]
                    expected = _whole_sweep(body.sample[order], base)
                    assert _bits(sweep(order)) == _bits(expected)
                # a sweep that stops at a bound keeps a prefix of the full one
                order = rng.permutation(m)
                full = _whole_sweep(body.sample[order], base)
                stop = float(np.median(full))
                short = sweep(order, stop)
                assert _bits(short) == _bits(full[:short.size]) and short[-1] >= stop

    def test_default_step_grid_equals_the_sorted_halvings(self):
        tiny = np.finfo(float).tiny
        cases = [0.3, 0.05, 1.0, 0.3 * 2.0**-40, 2.0**-990, 2.0**-989, 2.0**-991,
                 tiny, 5e-324, 1e-310, 1e-314, 1e308, np.finfo(float).max, np.inf]
        rng = np.random.default_rng(11)
        cases += list(10.0 ** rng.uniform(-320, 308, size=200))
        for eps in cases:
            halvings = {float(eps / 2.0**k) for k in range(33)}
            if min(halvings) == 0.0:  # eps / 2^32 underflows: no grid
                with pytest.raises(ValueError, match="positive"):
                    _step_grid(None, eps)
                continue
            got = _step_grid(None, eps)
            assert all(type(t) is float for t in got)
            assert [t.hex() for t in got] == [t.hex() for t in sorted(halvings)]


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
