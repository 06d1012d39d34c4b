import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wellpose.errors import PreconditionError
from wellpose.objectives import argmin_set, regularize
from wellpose.parametric import (
    ParameterGrid,
    ParametricFamily,
    _check_grid,
    _largest_delta,
    _neighbour_rows,
    analytic_epi_delta,
    argmin_usc,
    certify_uniform_epi,
    check_5r_lemma,
    check_cond1,
    check_cond2,
    check_sum_epi,
    default_delta_grid,
    family_from_json,
    no_continuous_selection_demo,
    recheck_certificate,
    value_function,
    vime_family,
)
from wellpose.perturbation import PerturbationFamily
from wellpose.spaces import FiniteMetricSpace


def _family(param_pts, domain_n, rows, lipschitz=None):
    pspace = FiniteMetricSpace.pointcloud(np.asarray(param_pts, float)[:, None], metric="l1")
    domain = FiniteMetricSpace.grid1d(0.0, 1.0, domain_n - 1)
    values = np.asarray(rows, float)
    return ParametricFamily(ParameterGrid(pspace), domain, values, lipschitz_in_p=lipschitz)


class TestFamilyConstruction:
    def test_one_objective_per_parameter(self):
        pspace = FiniteMetricSpace.grid1d(0.0, 1.0, 2)
        domain = FiniteMetricSpace.grid1d(0.0, 1.0, 1)
        values = np.zeros((1, 2))
        with pytest.raises(ValueError):
            ParametricFamily(ParameterGrid(pspace), domain, values)

    def test_objective_returns_the_slice(self):
        fam = _family([0.0, 1.0], 3, [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
        assert np.array_equal(fam.objective(1).values, [3.0, 4.0, 5.0])
        assert fam.objective(1).space is fam.domain

    def test_add_perturbation_space_mismatch_raises(self):
        fam = vime_family(9, 9)
        other_params = FiniteMetricSpace.grid1d(0.0, 1.0, 9)
        g = PerturbationFamily(params=other_params, domain=fam.domain, values=np.zeros((10, 10)))
        with pytest.raises(ValueError):
            fam.add_perturbation(g)

    def test_add_perturbation_sums_pointwise(self):
        fam = vime_family(9, 9)
        g = PerturbationFamily(params=fam.params.space, domain=fam.domain,
                               values=np.full((10, 10), 0.5))
        summed = fam.add_perturbation(g)
        assert np.array_equal(summed.objective(3).values, fam.objective(3).values + 0.5)


class TestVimeFamily:
    def test_table_matches_piecewise_recomputation(self):
        k = 999
        fam = vime_family(k, k)
        xs = np.arange(k + 1) / k
        ps = np.arange(k + 1) / k
        i3 = 3 * np.arange(k + 1)
        left = i3 < k
        right = i3 > 2 * k
        for pi in (0, 1, 250, 499, 500, 998, 999):
            p = ps[pi]
            expected = np.zeros(k + 1)
            expected[left] = (1.0 - p) * (3.0 * xs[left] - 1.0)
            expected[right] = p * (2.0 - 3.0 * xs[right])
            assert np.array_equal(fam.objective(pi).values, expected)

    def test_value_function_is_negative_max(self):
        fam = vime_family(999, 999)
        V = value_function(fam)
        ps = np.arange(1000) / 999
        assert np.array_equal(V, -np.maximum(1.0 - ps, ps))

    def test_declared_parameter_slope_and_meta(self):
        fam = vime_family(99, 99)
        assert fam.lipschitz_in_p == 1.0
        assert fam.meta["kind"] == "vime"
        # empirical slope check between extreme parameters
        gap = np.max(np.abs(fam.objective(0).values - fam.objective(99).values))
        assert gap <= 1.0 * fam.params.space.dist(0, 99) + 1e-15

    def test_rejects_tiny_step_counts(self):
        with pytest.raises(ValueError):
            vime_family(2, 9)
        with pytest.raises(ValueError):
            vime_family(9, 2)


class TestEpiConditions:
    def _crafted(self, middle_row):
        # parameters at 0, 0.5, 2.0; the middle one breaks the condition,
        # so a working delta has to stay under 0.5
        return _family([0.0, 0.5, 2.0], 2, [[0.0, 5.0], middle_row, [0.0, 5.0]])

    def test_cond1_excludes_the_bad_neighbor(self):
        fam = self._crafted([9.0, 9.0])
        grid = (1.0, 0.6, 0.4, 0.1)
        cert = check_cond1(fam, p=0, x=0, eps=0.5, delta_grid=grid)
        assert cert.ok and not cert.vacuous
        assert cert.delta == 0.4
        assert 1 not in cert.witnesses
        assert cert.witnesses[0] == 0

    def test_cond1_fails_when_no_grid_radius_works(self):
        fam = self._crafted([9.0, 9.0])
        cert = check_cond1(fam, p=0, x=0, eps=0.5, delta_grid=(1.0, 0.6))
        assert not cert.ok and cert.delta is None

    def test_cond1_vacuous_at_infinite_anchor(self):
        fam = _family([0.0, 1.0], 2, [[np.inf, 0.0], [1.0, 0.0]])
        cert = check_cond1(fam, p=0, x=0, eps=0.1, delta_grid=(0.5, 0.1))
        assert cert.vacuous and cert.ok and cert.delta == 0.5

    def test_cond2_excludes_the_bad_neighbor(self):
        fam = self._crafted([-9.0, -9.0])
        grid = (1.0, 0.6, 0.4, 0.1)
        cert = check_cond2(fam, p=0, eps=0.5, delta_grid=grid)
        assert cert.ok and cert.delta == 0.4

    def test_cond2_records_the_violation_when_nothing_works(self):
        fam = self._crafted([-9.0, -9.0])
        cert = check_cond2(fam, p=0, eps=0.5, delta_grid=(1.0,))
        assert not cert.ok and cert.delta is None
        q, x = cert.violation
        assert q == 1
        floor = regularize(fam.objective(0), 0.5).values - 0.5
        assert fam.objective(q).values[x] < floor[x]

    def test_certificate_replay(self):
        fam = vime_family(99, 99)
        grid = default_delta_grid(fam, 0.3)
        c1 = check_cond1(fam, p=0, x=0, eps=0.3, delta_grid=grid)
        c2 = check_cond2(fam, p=0, eps=0.3, delta_grid=grid)
        assert recheck_certificate(fam, c1) is True
        assert recheck_certificate(fam, c2) is True
        bad = check_cond2(self._crafted([-9.0, -9.0]), p=0, eps=0.5, delta_grid=(1.0,))
        with pytest.raises(ValueError):
            recheck_certificate(self._crafted([-9.0, -9.0]), bad)

    def test_uniform_report_delta_is_the_min_of_both(self):
        fam = vime_family(99, 99)
        grid = default_delta_grid(fam, 0.3)
        rep = certify_uniform_epi(fam, p=0, eps=0.3, delta_grid=grid)
        assert rep.ok
        assert rep.delta == min(rep.cond1_delta, rep.cond2.delta)

    def test_uniform_cond1_matches_regularized_inequality(self):
        fam = vime_family(99, 99)
        eps = 0.3
        grid = default_delta_grid(fam, eps)
        rep = certify_uniform_epi(fam, p=0, eps=eps, delta_grid=grid)
        f_p = fam.objective(0).values
        prow = fam.params.space.row(0)
        for q in np.flatnonzero(prow <= rep.cond1_delta):
            reg = regularize(fam.objective(int(q)), eps).values
            assert np.all(reg <= f_p + eps)


class TestParameterIndex:
    @pytest.mark.parametrize("p", [-1, 10])
    def test_every_check_rejects_an_index_outside_the_parameters(self, p):
        fam = vime_family(9, 9)
        g = PerturbationFamily(fam.params.space, fam.domain, np.zeros((10, 10)))
        grid = default_delta_grid(fam, 0.3)
        checks = [
            lambda: check_cond1(fam, p, 0, 0.3, grid),
            lambda: check_cond2(fam, p, 0.3, grid),
            lambda: certify_uniform_epi(fam, p, 0.3, grid),
            lambda: check_5r_lemma(fam, p, 0.3, 1.0, grid),
            lambda: argmin_usc(fam, p, 0.3, grid),
            lambda: check_sum_epi(fam, g, p, 0.3, grid),
        ]
        for check in checks:
            with pytest.raises(ValueError, match="parameter index"):
                check()

    @pytest.mark.parametrize("grid", [(np.nan,), (0.5, np.nan), (np.nan, 0.5)])
    def test_a_nan_radius_is_rejected(self, grid):
        # with no neighbour inside a NaN radius, the search would certify it
        fam = vime_family(9, 9)
        with pytest.raises(ValueError, match="delta grid"):
            check_cond2(fam, 0, 0.3, grid)

    @pytest.mark.parametrize("grid", [(np.inf,), (np.inf, 0.5), (np.inf, np.inf), (0.5, -np.inf)])
    def test_an_infinite_radius_is_rejected(self, grid):
        # no neighbour lies beyond an infinite radius, so the search would
        # fail everywhere and name p itself as the violation
        fam = vime_family(9, 9)
        for check in (check_cond2, certify_uniform_epi):
            with pytest.raises(ValueError, match="delta grid must be finite"):
                check(fam, 0, 10.0, grid)

    @pytest.mark.parametrize("x", [-1, 10])
    def test_cond1_rejects_an_anchor_outside_the_domain(self, x):
        fam = vime_family(9, 9)
        with pytest.raises(ValueError, match="anchor index"):
            check_cond1(fam, 0, x, 0.3, default_delta_grid(fam, 0.3))


def _radius_loop(grid, dist, good):
    """The largest-radius search written out: the first grid radius whose
    closed ball holds no bad neighbour."""
    for j, radius in enumerate(grid):
        verdicts = good[:, j] if good.ndim == 2 else good
        if all(ok or d > radius for ok, d in zip(verdicts.tolist(), dist.tolist())):
            return j
    return None


@pytest.mark.parametrize("dist, good, expected", [
    ([], [], 0),  # no neighbour: the largest radius works
    ([0.0, 1.0], [True, True], 0),
    ([0.0, 1.0], [False, True], None),
    ([0.0, 0.5], [True, False], 2),  # a neighbour at exactly 0.5 is inside B_0.5
    ([0.0, 0.5], [[True] * 3, [False, True, False]], 1),
    ([0.5, 1.0], [[False, True, True], [True] * 3], 1),
    ([0.0, 0.25], [[False] * 3, [True] * 3], None),
])
def test_largest_delta_cases(dist, good, expected):
    grid = (1.0, 0.5, 0.25)
    assert _largest_delta(grid, np.array(dist, dtype=float), np.array(good, dtype=bool)) == expected


@settings(max_examples=300)
@given(
    k=st.integers(0, 6),
    ticks=st.sets(st.integers(1, 16), min_size=1, max_size=5),
    per_radius=st.booleans(),
    fill=st.sampled_from(["mixed", "all good", "all bad"]),
    data=st.data(),
)
def test_largest_delta_against_a_radius_loop(k, ticks, per_radius, fill, data):
    # radii and distances are both eighths, so distances often equal a radius
    grid = tuple(sorted((t / 8.0 for t in ticks), reverse=True))
    dist = np.array(data.draw(st.lists(st.integers(0, 16), min_size=k, max_size=k))) / 8.0
    size = k * len(grid) if per_radius else k
    cells = st.booleans() if fill == "mixed" else st.just(fill == "all good")
    good = np.array(data.draw(st.lists(cells, min_size=size, max_size=size)), dtype=bool)
    good = good.reshape((k, len(grid)) if per_radius else (k,))
    assert _largest_delta(grid, dist, good) == _radius_loop(grid, dist, good)


def _numpy_check_grid(delta_grid):
    """The grid check written on numpy arrays: the oracle."""
    grid = tuple(float(d) for d in delta_grid)
    if not grid:
        raise ValueError("delta grid must be non-empty")
    arr = np.asarray(grid)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"delta grid must be finite, got {list(grid)}")
    if not np.all(arr > 0.0) or np.any(np.diff(arr) >= 0.0):
        raise ValueError("delta grid must be positive and strictly decreasing")
    return grid


def _outcome(check, grid):
    try:
        return check(grid)
    except ValueError as err:
        return str(err)


_radii = st.one_of(
    st.floats(),
    st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0, 1.0, 0.5, 5e-324, 1e-310,
                     2.2e-308, 1.7e308, -1.7e308]),
)


@given(st.lists(_radii, max_size=17), st.sampled_from(("as drawn", "descending", "tie", "ascending run")),
       st.data())
def test_check_grid_against_the_numpy_check(radii, shape, data):
    if shape != "as drawn" and not any(np.isnan(radii)):
        radii = sorted(radii, reverse=True)
        if radii and shape == "tie":
            k = data.draw(st.integers(0, len(radii) - 1))
            radii.insert(k, radii[k])
        elif radii and shape == "ascending run":
            lo = data.draw(st.integers(0, len(radii) - 1))
            hi = data.draw(st.integers(lo, len(radii)))
            radii[lo:hi] = radii[lo:hi][::-1]
    assert _outcome(_check_grid, radii) == _outcome(_numpy_check_grid, radii)


class TestAnalyticDelta:
    def test_values(self):
        assert analytic_epi_delta(vime_family(9, 9), 0.5) == 0.5
        rows = [[0.0, 1.0], [0.0, 1.0]]
        assert analytic_epi_delta(_family([0.0, 1.0], 2, rows, lipschitz=4.0), 0.5) == 0.125
        assert analytic_epi_delta(_family([0.0, 1.0], 2, rows, lipschitz=0.0), 0.5) == np.inf
        assert analytic_epi_delta(_family([0.0, 1.0], 2, rows), 0.5) is None

    def test_analytic_radius_certifies_on_vime(self):
        # slope 1 in the parameter: delta = eps must pass both conditions
        fam = vime_family(99, 99)
        eps = 0.3
        delta = analytic_epi_delta(fam, eps)
        rep = certify_uniform_epi(fam, p=0, eps=eps, delta_grid=(delta,))
        assert rep.ok and rep.delta == delta


class TestDefaultDeltaGrid:
    def test_grid_is_halving_and_capped_by_parameter_spacing(self):
        fam = vime_family(9, 9)
        grid = default_delta_grid(fam, 0.8)
        assert grid[0] == 0.8
        assert all(a > b for a, b in zip(grid, grid[1:]))
        spacing = 1.0 / 9.0
        assert all(g >= spacing for g in grid)

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            default_delta_grid(vime_family(9, 9), 0.0)

    def test_rejects_bad_grids(self):
        fam = vime_family(9, 9)
        with pytest.raises(ValueError):
            check_cond1(fam, p=0, x=0, eps=0.1, delta_grid=(0.1, 0.2))
        with pytest.raises(ValueError):
            check_cond1(fam, p=0, x=0, eps=0.1, delta_grid=(0.0,))
        with pytest.raises(ValueError):
            check_cond1(fam, p=0, x=0, eps=0.1, delta_grid=())


class TestFiveR:
    def test_precondition_raise(self):
        # flat objective: the sublevel set is everything, never inside r
        fam = _family([0.0, 1.0], 11, [np.zeros(11), np.zeros(11)])
        with pytest.raises(PreconditionError):
            check_5r_lemma(fam, p=0, eps=0.1, r=0.2, delta_grid=(0.5, 0.1))

    @pytest.mark.parametrize("r", [0.0, -0.2, float("nan")])
    def test_a_radius_that_is_not_positive_raises(self, r):
        with pytest.raises(ValueError, match="r must be positive"):
            check_5r_lemma(vime_family(9, 9), p=0, eps=0.1, r=r, delta_grid=(0.1, 0.05))

    def test_bound_holds_on_vime(self):
        fam = vime_family(99, 99)
        rep = check_5r_lemma(fam, p=0, eps=0.1, r=0.2, delta_grid=(0.1, 0.05))
        assert rep.ok
        assert all(d < 5 * 0.2 for d in rep.q_diams.values())
        assert 0 in rep.q_diams


class TestArgminUsc:
    def test_unique_minimum_passes(self):
        fam = vime_family(99, 99)
        rep = argmin_usc(fam, p=0, eps=0.1, delta_grid=(0.1, 0.05, 0.01))
        assert rep.ok and rep.x_p == 0

    def test_tied_minimum_raises(self):
        fam = _family([0.0, 1.0], 3, [[0.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        with pytest.raises(PreconditionError):
            argmin_usc(fam, p=0, eps=0.5, delta_grid=(0.5,))


class TestSelectionGap:
    def test_gap_demonstrated_across_eps_range(self):
        fam = vime_family(999, 999)
        for eps in (0.1, 0.3, 0.49):
            rep = no_continuous_selection_demo(fam, eps)
            assert rep.ok and rep.left_ok and rep.right_ok and rep.gap_ok
            assert rep.bad_p == ()
            assert rep.gap_interval == (1.0 / 3.0, 2.0 / 3.0)

    def test_block_containment_matches_integer_masks(self):
        k = 99
        fam = vime_family(k, k)
        i3 = 3 * np.arange(k + 1)
        left_block = set(np.flatnonzero(i3 <= k).tolist())
        right_block = set(np.flatnonzero(i3 >= 2 * k).tolist())
        assert set(argmin_set(fam.objective(0), 0.3)) <= left_block
        assert set(argmin_set(fam.objective(k), 0.3)) <= right_block

    def test_domain_errors(self):
        fam = vime_family(99, 99)
        for eps in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(ValueError):
                no_continuous_selection_demo(fam, eps)
        plain = ParametricFamily(fam.params, fam.domain, fam.values)
        with pytest.raises(ValueError):
            no_continuous_selection_demo(plain, 0.3)

    @pytest.mark.parametrize("meta", [
        {"kind": "vime"},  # no x_steps
        {"kind": "vime", "x_steps": 98},  # fewer steps than the domain
        {"kind": "vime", "x_steps": 100},  # more steps than the domain
    ])
    def test_meta_must_match_the_domain(self, meta):
        fam = vime_family(99, 99)
        wrong = ParametricFamily(fam.params, fam.domain, fam.values, meta=meta)
        with pytest.raises(ValueError, match="x_steps"):
            no_continuous_selection_demo(wrong, 0.3)


class TestSumEpi:
    def test_certified_sum(self):
        fam = vime_family(99, 99)
        g = PerturbationFamily(params=fam.params.space, domain=fam.domain,
                               values=np.full((100, 100), 0.01))
        grid = default_delta_grid(fam, 0.3)
        rep = check_sum_epi(fam, g, p=0, eps=0.3, delta_grid=grid)
        assert rep.ok and rep.gcont_delta is not None
        assert rep.epi.ok

    def test_rough_perturbation_fails_the_continuity_precheck(self):
        fam = vime_family(99, 99)
        flat = np.zeros((1, 100))
        spike = np.full((99, 100), 5.0)
        g = PerturbationFamily(params=fam.params.space, domain=fam.domain,
                               values=np.vstack([flat, spike]))
        rep = check_sum_epi(fam, g, p=0, eps=0.3, delta_grid=(0.3, 0.15))
        assert not rep.ok
        assert rep.gcont_delta is None
        assert rep.epi is None

    @pytest.mark.parametrize("rough", [True, False], ids=["rough", "zero"])
    def test_a_perturbation_on_other_spaces_raises_before_the_precheck(self, rough):
        """The spaces are checked first, so the outcome of the precheck
        (a rough g fails it, a zero g passes) cannot decide whether a
        mismatch raises."""
        fam = vime_family(9, 9)
        values = np.vstack([np.zeros((1, 10)), np.full((9, 10), 5.0 if rough else 0.0)])
        other_params = PerturbationFamily(FiniteMetricSpace.grid1d(0.0, 1.0, 9), fam.domain,
                                          values)
        other_domain = PerturbationFamily(fam.params.space, FiniteMetricSpace.grid1d(0.0, 1.0, 9),
                                          values)
        with pytest.raises(ValueError, match="different parameter space"):
            check_sum_epi(fam, other_params, p=0, eps=0.3, delta_grid=(0.3, 0.15))
        with pytest.raises(ValueError, match="different domain"):
            check_sum_epi(fam, other_domain, p=0, eps=0.3, delta_grid=(0.3, 0.15))


class TestFamilyFromJson:
    def test_vime_kind(self):
        fam = family_from_json({"kind": "vime", "params": {"x_steps": 9, "p_steps": 9}})
        assert fam.meta["kind"] == "vime"
        assert len(fam.values) == 10 and fam.domain.n == 10

    def test_table_kind(self):
        desc = {
            "kind": "table",
            "params": {
                "domain": {"kind": "grid1d", "params": {"steps": 2}},
                "param_space": {"kind": "grid1d", "params": {"steps": 1}},
                "values": [[0.0, 1.0, 2.0], [2.0, 1.0, 0.0]],
            },
        }
        fam = family_from_json(desc)
        assert fam.objective(1).values[0] == 2.0

    def test_table_kind_shape_error(self):
        desc = {
            "kind": "table",
            "params": {
                "domain": {"kind": "grid1d", "params": {"steps": 2}},
                "param_space": {"kind": "grid1d", "params": {"steps": 1}},
                "values": [[0.0, 1.0], [2.0, 1.0]],
            },
        }
        with pytest.raises(ValueError):
            family_from_json(desc)

    def test_lipschitz_expr_kind(self):
        desc = {
            "kind": "lipschitz_expr",
            "params": {
                "domain": {"kind": "grid1d", "params": {"steps": 9}},
                "param_space": {"kind": "grid1d", "params": {"steps": 4}},
                "base": [0.0] * 10,
                "bump": [1.0] * 10,
                "coef": [0.0, 0.5, 1.0, 1.5, 2.0],
            },
        }
        fam = family_from_json(desc)
        # coefficient slope 2 per unit parameter, bump height 1
        assert fam.lipschitz_in_p == pytest.approx(2.0)
        assert np.allclose(fam.objective(2).values, 1.0)

    @pytest.mark.parametrize("field, size", [("base", 9), ("bump", 11), ("coef", 4)])
    def test_lipschitz_expr_shape_mismatch(self, field, size):
        params = {
            "domain": {"kind": "grid1d", "params": {"steps": 9}},
            "param_space": {"kind": "grid1d", "params": {"steps": 4}},
            "base": [0.0] * 10,
            "bump": [1.0] * 10,
            "coef": [0.0, 0.5, 1.0, 1.5, 2.0],
        }
        params[field] = [0.0] * size
        with pytest.raises(ValueError, match="base/bump/coef shapes must match the spaces"):
            family_from_json({"kind": "lipschitz_expr", "params": params})

    @pytest.mark.parametrize("field", ["x_steps", "p_steps"])
    def test_vime_counts_are_whole_and_nonnegative(self, field):
        # int() would truncate 9.7 steps to 9
        for bad, message in ((9.7, "must be an integer, got 9.7"),
                             (-5, "must be nonnegative, got -5")):
            with pytest.raises(ValueError, match=f"{field} {message}"):
                family_from_json({"kind": "vime", "params": {"x_steps": 9, "p_steps": 9, field: bad}})
        fam = family_from_json({"kind": "vime", "params": {"x_steps": 9.0, "p_steps": 9}})
        assert fam.domain.n == fam.params.space.n == 10

    def test_lipschitz_expr_declared_constant_wins(self):
        desc = {
            "kind": "lipschitz_expr",
            "params": {
                "domain": {"kind": "grid1d", "params": {"steps": 3}},
                "param_space": {"kind": "grid1d", "params": {"steps": 3}},
                "base": [0.0] * 4,
                "bump": [1.0] * 4,
                "coef": [0.0, 1.0, 2.0, 3.0],
                "lipschitz": 7.5,
            },
        }
        assert family_from_json(desc).lipschitz_in_p == 7.5

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            family_from_json({"kind": "mystery"})
        with pytest.raises(ValueError):
            family_from_json("not a dict")


def _param_space(kind: str, n: int, order) -> FiniteMetricSpace:
    """A sorted 1-D grid, the same points shuffled into a 1-D cloud, or a
    2-D grid of about n points."""
    if kind == "sorted grid":
        return FiniteMetricSpace.grid1d(0.0, 1.0, n - 1)
    if kind == "shuffled cloud":
        return FiniteMetricSpace.pointcloud((np.asarray(order, float) / (n - 1))[:, None],
                                            metric="linf")
    side = max(1, int(np.sqrt(n)) - 1)
    return FiniteMetricSpace.grid2d((0.0, 1.0, side), (0.0, 1.0, side), metric="euclidean")


def _outcome_of(search):
    """A search's report as plain fields, or the error it raised."""
    try:
        report = search()
    except (PreconditionError, ValueError) as err:
        return type(err).__name__, str(err)
    if isinstance(report, bool):
        return report
    plain = dict(vars(report))
    if "cond2" in plain:
        plain["cond2"] = vars(plain["cond2"])
    return plain


class TestNeighbourRows:
    """The searches read their neighbours' rows as a view when the
    neighbours form one run of indices (always, on a sorted 1-D grid);
    a test-local gathering copy is the oracle."""

    @settings(max_examples=40)
    @given(kind=st.sampled_from(["sorted grid", "shuffled cloud", "2-D grid"]),
           n=st.integers(2, 16), data=st.data())
    def test_searches_equal_the_gathering_copy(self, kind, n, data):
        import wellpose.parametric as parametric_mod

        pspace = _param_space(kind, n, data.draw(st.permutations(range(n))))
        domain = FiniteMetricSpace.grid1d(0.0, 1.0, data.draw(st.integers(1, 9)))
        cells = st.one_of(st.integers(0, 8).map(lambda k: k / 4.0), st.just(np.inf))
        rows = [data.draw(st.lists(cells, min_size=domain.n, max_size=domain.n))
                for _ in range(pspace.n)]
        for row in rows:
            row[data.draw(st.integers(0, domain.n - 1))] = data.draw(st.integers(0, 4)) / 4.0
        fam = ParametricFamily(ParameterGrid(pspace), domain, np.array(rows))
        eps = data.draw(st.sampled_from([0.25, 0.5, 1.0]))
        grid = default_delta_grid(fam, eps)
        p = data.draw(st.integers(0, pspace.n - 1))
        x = data.draw(st.integers(0, domain.n - 1))

        qs = np.flatnonzero(pspace.row(p) <= grid[0])
        got = _neighbour_rows(fam.values, qs)
        is_run = bool(np.array_equal(qs, np.arange(qs[0], qs[0] + qs.size)))
        assert np.array_equal(got, fam.values[qs])
        assert np.shares_memory(got, fam.values) == is_run
        if kind == "sorted grid":
            assert is_run

        def searches():
            cert1 = check_cond1(fam, p, x, eps, grid)
            cert2 = check_cond2(fam, p, eps, grid)
            return [
                lambda: certify_uniform_epi(fam, p, eps, grid),
                lambda: cert1,
                lambda: cert2,
                *(lambda c=c: recheck_certificate(fam, c) for c in (cert1, cert2) if c.ok),
                lambda: check_5r_lemma(fam, p, eps, 1.0, grid),
                lambda: argmin_usc(fam, p, eps, grid),
            ]

        viewed = [_outcome_of(search) for search in searches()]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(parametric_mod, "_neighbour_rows", lambda table, qs: table[qs])
            gathered = [_outcome_of(search) for search in searches()]
        assert viewed == gathered
