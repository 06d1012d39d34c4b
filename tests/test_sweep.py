"""Brute-force oracles for the nested-sublevel sweep.

Every curve the sweep produces is checked against per-threshold
enumeration: the set is rebuilt at each threshold and its diameter taken
over all pairs, the way the per-threshold loops it replaced did.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wellpose.errors import PreconditionError
from wellpose.instances import random_lipschitz_family, segment_body
from wellpose.objectives import ObjectiveFunction, argmin_set, wellposedness_modulus
from wellpose.parametric import (
    ParameterGrid,
    ParametricFamily,
    argmin_usc,
    check_5r_lemma,
    default_delta_grid,
    vime_family,
)
from wellpose.perturbation import PerturbationFunction, mn_membership
from wellpose.seminorms import AbsLinear, MaxOf, Scale, euclidean_norm, linf_norm
from wellpose.spaces import (
    FiniteMetricSpace,
    PointSubset,
    ball,
    diam,
    prefix_diameters,
    set_distance,
    sublevel_diameters,
)
from wellpose.steckin import make_setting, metric_projection, polytope_body, set_diameter


def _pair_max(space: FiniteMetricSpace, members) -> float:
    """Diameter over every ordered pair, from full distance rows."""
    idx = np.asarray(sorted(members), dtype=np.int64)
    return float(space.block(idx)[:, idx].max())


def _space_curve(space, values, grid):
    return sublevel_diameters(values, grid, space.prefix_diameters)


def _tied_values(rng, n, inf_share=0.1):
    # quarter steps make many exact ties and thresholds that land on them
    vals = rng.integers(0, 40, size=n) / 4.0
    vals[rng.uniform(size=n) < inf_share] = np.inf
    vals[rng.integers(n)] = 0.0
    return vals


def _tied_coords(rng, n, d):
    # quarter steps make many exact coordinate ties
    return rng.integers(-20, 20, size=(n, d)) / 4.0


def _spaces(rng):
    pts = rng.uniform(-5.0, 5.0, size=(60, 2))
    matrix = FiniteMetricSpace.pointcloud(pts, metric="l1").block(np.arange(60))
    return {
        "eager_grid": FiniteMetricSpace.grid1d(0.0, 1.0, 80),
        "eager_cloud": FiniteMetricSpace.pointcloud(pts, metric="euclidean"),
        "lazy_cloud": FiniteMetricSpace.pointcloud(rng.uniform(0.0, 1.0, size=(4200, 2)),
                                                   metric="linf"),
        "matrix": FiniteMetricSpace.from_matrix(matrix),
        "linf_line": FiniteMetricSpace.pointcloud(_tied_coords(rng, 70, 1), metric="linf"),
        "linf_cloud3": FiniteMetricSpace.pointcloud(_tied_coords(rng, 70, 3), metric="linf"),
        "l1_line": FiniteMetricSpace.pointcloud(rng.normal(size=(70, 1)), metric="l1"),
    }


# spaces whose running diameter is a running coordinate range
SPREAD_KINDS = ["eager_grid", "lazy_cloud", "linf_line", "linf_cloud3", "l1_line"]


class TestSublevelDiameters:
    @pytest.mark.parametrize("kind", ["eager_grid", "eager_cloud", "lazy_cloud", "matrix",
                                      "linf_line", "linf_cloud3", "l1_line"])
    def test_matches_per_threshold_enumeration(self, kind, rng):
        space = _spaces(rng)[kind]
        f = ObjectiveFunction(space, _tied_values(rng, space.n))
        # lazy sets stay small enough to enumerate with full distance rows
        grid = (0.0, 0.25, 0.3, 0.5) if kind == "lazy_cloud" else (0.0, 0.25, 0.3, 1.0, 2.5, 10.0)
        curve = _space_curve(space, f.values, grid)
        for t, d in zip(grid, curve):
            omega = argmin_set(f, t)
            assert d == diam(omega)
            assert d == _pair_max(space, omega.members)

    def test_grid_order_is_free_and_ties_enter_together(self):
        space = FiniteMetricSpace.grid1d(0.0, 1.0, 4)
        values = np.array([1.0, 0.0, 1.0, np.inf, 0.5])
        curve = _space_curve(space, values, (1.0, 0.0, 0.5, 0.75))
        # t = 1 takes in both tied points at value 1; +inf never enters
        assert curve.tolist() == [1.0, 0.0, 0.75, 0.75]

    def test_cut_uses_the_argmin_set_float_sum(self):
        # 0.1 + 0.2 rounds up to 0.30000000000000004: the value 0.3 and the
        # rounded sum are inside, the next float above the sum is not
        space = FiniteMetricSpace.grid1d(0.0, 1.0, 3)
        edge = 0.1 + 0.2
        f = ObjectiveFunction(space, np.array([0.1, 0.3, np.nextafter(edge, 1.0), edge]))
        curve = _space_curve(space, f.values, (0.2,))
        assert argmin_set(f, 0.2).members == {0, 1, 3}
        assert curve[0] == diam(argmin_set(f, 0.2)) == 1.0
        f2 = ObjectiveFunction(space, np.array([0.1, 0.3, edge, np.nextafter(edge, 1.0)]))
        assert _space_curve(space, f2.values, (0.2,))[0] == space.dist(0, 2)

    def test_negative_or_nan_threshold_raises(self):
        space = FiniteMetricSpace.grid1d(0.0, 1.0, 4)
        for bad in ((-0.1,), (np.nan,)):
            with pytest.raises(ValueError):
                _space_curve(space, np.zeros(5), bad)

    def test_modulus_keeps_its_validation(self):
        f = ObjectiveFunction(FiniteMetricSpace.grid1d(0.0, 1.0, 4), np.zeros(5))
        for bad in ((), (0.0, 0.1), (0.2, 0.1), (-0.1, 0.1)):
            with pytest.raises(ValueError):
                wellposedness_modulus(f, bad)


@given(
    values=st.lists(st.one_of(st.integers(0, 12).map(lambda k: k / 4.0), st.just(np.inf)),
                    min_size=1, max_size=30),
    grid=st.lists(st.integers(0, 16).map(lambda k: k / 8.0), min_size=1, max_size=6),
    seed=st.integers(0, 2**16),
    metric=st.sampled_from([("l1", 2), ("linf", 2), ("linf", 1), ("l1", 1)]),
)
def test_sublevel_sweep_against_enumeration(values, grid, seed, metric):
    values = np.asarray(values)
    if not np.any(np.isfinite(values)):
        values[0] = 1.0
    pts = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(values.size, metric[1]))
    space = FiniteMetricSpace.pointcloud(pts, metric=metric[0])
    f = ObjectiveFunction(space, values)
    for t, d in zip(grid, _space_curve(space, values, grid)):
        assert d == _pair_max(space, argmin_set(f, t).members)


class TestPrefixDiameters:
    def test_running_diameter_against_every_prefix(self, rng):
        space = FiniteMetricSpace.pointcloud(rng.normal(size=(300, 3)), metric="euclidean")
        order = rng.permutation(space.n)[:200]
        running = prefix_diameters(space.block, order)
        expected = [_pair_max(space, order[:j + 1]) for j in range(order.size)]
        assert running.tolist() == expected

    def test_chunks_cover_a_long_order(self, monkeypatch, rng):
        # a tiny chunk budget forces one row per chunk
        import wellpose.spaces as spaces_mod

        space = FiniteMetricSpace.pointcloud(rng.normal(size=(50, 2)), metric="linf")
        order = rng.permutation(space.n)
        whole = prefix_diameters(space.block, order)
        monkeypatch.setattr(spaces_mod, "_CHUNK_CELLS", 1)
        assert prefix_diameters(space.block, order).tolist() == whole.tolist()

    def test_set_distance_against_enumeration(self, rng):
        space = FiniteMetricSpace.pointcloud(rng.normal(size=(90, 2)), metric="l1")
        a = PointSubset.of(space, range(0, 90, 3))
        b = PointSubset.of(space, range(1, 90, 2))
        brute = min(space.dist(i, j) for i in a for j in b)
        assert set_distance(a, b) == brute


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@pytest.fixture
def block_calls(monkeypatch):
    """Count every FiniteMetricSpace.block call while the test runs."""
    calls = []
    real = FiniteMetricSpace.block

    def counting(space, idx, cols=None):
        calls.append(len(idx))
        return real(space, idx, cols)

    monkeypatch.setattr(FiniteMetricSpace, "block", counting)
    return calls


class TestSpreadPath:
    """linf and 1-D l1 spaces take the running coordinate range; every
    result must equal the block path and the all-pairs maximum bit for bit."""

    @pytest.mark.parametrize("kind", SPREAD_KINDS)
    def test_running_diameter_equals_block_path(self, kind, rng):
        space = _spaces(rng)[kind]
        order = rng.permutation(space.n)[:120]
        spread = space.prefix_diameters(order)
        assert _bits(spread) == _bits(prefix_diameters(space.block, order))
        assert spread.tolist() == [_pair_max(space, order[:j + 1]) for j in range(order.size)]

    @pytest.mark.parametrize("kind", SPREAD_KINDS)
    def test_diam_of_subsets_and_the_whole_space(self, kind, rng):
        space = _spaces(rng)[kind]
        for size in (1, 2, 7, 60):
            idx = rng.choice(space.n, size=size, replace=False)
            d = diam(PointSubset.of(space, idx))
            assert _bits(d) == _bits(prefix_diameters(space.block, np.sort(idx))[-1])
            assert d == _pair_max(space, idx)
        if space.n <= 200:
            whole = _pair_max(space, range(space.n))
        else:
            # on a large cloud the extreme points decide: pairs among them
            c = space._coords
            whole = _pair_max(space, set(c.argmin(axis=0)) | set(c.argmax(axis=0)))
        assert _bits(space.diameter()) == _bits(whole)

    def test_tied_and_infinite_values_in_modulus_and_membership(self, rng):
        space = _spaces(rng)["linf_cloud3"]
        f = ObjectiveFunction(space, _tied_values(rng, space.n, inf_share=0.3))
        g = PerturbationFunction(space, np.zeros(space.n))
        grid = (0.25, 0.5, 1.0, 2.5, 10.0)
        curve = wellposedness_modulus(f, grid)
        for t, d in zip(grid, curve.diam_values):
            assert d == _pair_max(space, argmin_set(f, t).members)
        finite = int(np.count_nonzero(np.isfinite(f.values)))
        assert len(argmin_set(f, 10.0)) == finite < space.n  # +inf never enters
        hit, t = mn_membership(f, g, 1, grid)
        first = next((t for t, d in zip(grid, curve.diam_values) if d < 1.0), None)
        assert (hit, t) == (first is not None, first)

    def test_block_is_never_called_on_spread_spaces(self, rng, block_calls):
        for kind in SPREAD_KINDS:
            space = _spaces(rng)[kind]
            f = ObjectiveFunction(space, _tied_values(rng, space.n))
            g = PerturbationFunction(space, np.zeros(space.n))
            block_calls.clear()  # building a matrix space above reads blocks
            space.diameter()
            diam(PointSubset.of(space, range(0, space.n, 2)))
            wellposedness_modulus(f, (0.25, 1.0))
            mn_membership(f, g, 3)
            assert block_calls == [], kind
        fam = vime_family(59, 59)
        grid = default_delta_grid(fam, 0.05, octaves=4)
        block_calls.clear()
        assert check_5r_lemma(fam, 10, 0.05, 0.2, grid).ok
        assert block_calls == []

    @pytest.mark.parametrize("d", [1, 2])
    def test_euclidean_spaces_keep_the_block_path(self, d, rng, block_calls):
        space = FiniteMetricSpace.pointcloud(rng.normal(size=(40, d)), metric="euclidean")
        for run in (space.diameter, lambda: diam(PointSubset.of(space, range(9)))):
            block_calls.clear()
            run()
            assert block_calls

    def test_one_dimensional_euclidean_with_subnormal_gaps(self):
        # sqrt(x * x) underflows to 0 for a subnormal x: the Euclidean
        # distance is not |x| there, so the coordinate range would be wrong
        space = FiniteMetricSpace.pointcloud([[0.0], [5e-324], [1e-320]], metric="euclidean")
        assert space.diameter() == _pair_max(space, range(3)) == 0.0
        assert space.prefix_diameters(np.arange(3)).tolist() == [0.0, 0.0, 0.0]
        assert prefix_diameters(space._coords)[-1] == 1e-320
        # the same points under l1 on a line are the spread path's domain
        line = FiniteMetricSpace.pointcloud([[0.0], [5e-324], [1e-320]], metric="l1")
        assert line.diameter() == _pair_max(line, range(3)) == 1e-320

    def test_diameter_of_a_million_point_grid_stays_small(self):
        space = FiniteMetricSpace.grid1d(0.0, 1.0, 999_999)
        tracemalloc.start()
        try:
            dia = space.diameter()
            used = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one float64 array over the points would be 8 MB
        assert dia == 1.0 and used < 1 << 20


class TestProjectionCurves:
    @staticmethod
    def _brute(points, nu) -> float:
        diffs = (points[:, None, :] - points[None, :, :]).reshape(-1, points.shape[1])
        return float(nu.eval_many(diffs).max())

    @pytest.mark.parametrize("base_name", ["linf", "euclidean", "skew"])
    def test_curve_against_per_threshold_enumeration(self, base_name, rng):
        base = {
            "linf": linf_norm(2),
            "euclidean": euclidean_norm(2),
            # max of linear rows that are not coordinate axes
            "skew": MaxOf((AbsLinear([1.0, 0.0]), AbsLinear([0.0, 1.0]),
                           Scale(0.75, AbsLinear([1.0, 1.0])))),
        }[base_name]
        setting = make_setting(2, base, 5e-3)
        body = polytope_body([[-1.0, -0.5], [1.0, -0.6], [0.8, 0.7], [-0.6, 0.9]],
                             n_samples=300, seed=3)
        nu = MaxOf((AbsLinear([1.0, 0.2]), AbsLinear([-0.3, 1.0])))
        p = np.array([2.0, 1.5])
        grid = (1e-3, 0.01, 0.05, 0.2, 0.6)
        rep = metric_projection(nu, body, p, grid, setting)
        values = nu.eval_many(p[None, :] - body.sample)
        for t, d in zip(grid, rep.curve.diam_values):
            members = body.sample[values <= values.min() + t]
            assert d == set_diameter(members, base)
            if base_name == "skew":
                assert d == pytest.approx(self._brute(members, base), rel=1e-14)
            else:
                assert d == self._brute(members, base)

    def test_set_diameter_on_a_segment(self):
        body = segment_body([-1.0, 0.0], [1.0, 0.0], n_samples=101)
        for base in (linf_norm(2), euclidean_norm(2)):
            assert set_diameter(body.sample, base) == 2.0
            assert set_diameter(body.sample[:1], base) == 0.0


# ----------------------------------------------------------------------
# argmin_usc and check_5r_lemma against the per-threshold loops they replaced


def _loop_usc(fam, p, eps, grid):
    exact = argmin_set(fam.objective(p), 0.0)
    x_p = int(next(iter(exact)))
    target = ball(fam.domain, x_p, eps)
    prow = fam.params.space.row(p)
    for delta in grid:
        qs = np.flatnonzero(prow <= delta)
        if all(argmin_set(fam.objective(int(q)), delta).issubset(target) for q in qs):
            return x_p, delta
    return x_p, None


def _loop_5r(fam, p, r, grid):
    prow = fam.params.space.row(p)
    for delta in grid:
        q_diams = {}
        for q in np.flatnonzero(prow <= delta):
            omega = argmin_set(fam.objective(int(q)), delta)
            q_diams[int(q)] = _pair_max(fam.domain, omega.members)
            if not q_diams[int(q)] < 5.0 * r:
                break
        else:
            return delta, q_diams
    return None, {}


def _families():
    yield vime_family(59, 59)
    for seed in range(4):
        yield random_lipschitz_family(np.random.default_rng(seed), max_params=30, max_points=40)


class TestParametricSweeps:
    def test_argmin_usc_matches_the_loop(self):
        checked = 0
        for fam in _families():
            for eps in (0.05, 0.3, 1.0):
                grid = default_delta_grid(fam, eps)
                for p in range(0, fam.params.space.n, 3):
                    try:
                        rep = argmin_usc(fam, p, eps, grid)
                    except PreconditionError:
                        continue
                    assert (rep.x_p, rep.delta) == _loop_usc(fam, p, eps, grid)
                    checked += 1
        assert checked > 50

    def test_argmin_usc_value_exactly_at_the_cut_is_inside(self):
        # x = 1 lies outside B_0.3(0) with f_0(1) = min f_0 + 0.5 exactly, so
        # argmin_set(f_0, 0.5) leaves the ball and only delta = 0.25 works
        pspace = FiniteMetricSpace.pointcloud([[0.0], [1.0]], metric="l1")
        domain = FiniteMetricSpace.grid1d(0.0, 1.0, 4)
        rows = ([0.0, 1.0, 1.0, 1.0, 0.5], [1.0, 0.0, 1.0, 1.0, 1.0])
        fam = ParametricFamily(ParameterGrid(pspace), domain, np.array(rows))
        rep = argmin_usc(fam, 0, 0.3, (0.5, 0.25))
        assert (rep.x_p, rep.delta) == _loop_usc(fam, 0, 0.3, (0.5, 0.25)) == (0, 0.25)

    def test_check_5r_lemma_matches_the_loop(self):
        outcomes = set()
        for fam in _families():
            for eps in (0.05, 0.3):
                grid = default_delta_grid(fam, eps, octaves=6)
                for p in range(0, fam.params.space.n, 4):
                    base = _pair_max(fam.domain, argmin_set(fam.objective(p), eps).members)
                    for r in (1.01 * base + 1e-3, 1.5 * base + 0.05):
                        rep = check_5r_lemma(fam, p, eps, r, grid)
                        delta, q_diams = _loop_5r(fam, p, r, grid)
                        assert rep.delta == delta
                        assert rep.q_diams == q_diams
                        assert list(rep.q_diams) == list(q_diams)
                        outcomes.add(rep.delta == grid[0])
        # both the first grid radius and a smaller one get exercised
        assert outcomes == {True, False}


# ----------------------------------------------------------------------
# memory on a large lazily computed space


def test_lazy_space_memory_stays_bounded():
    n = 20_000
    space = FiniteMetricSpace.grid1d(0.0, 1.0, n - 1)
    assert space._matrix is None
    limit = n * n * 8 / 10  # a tenth of one n x n float64 block: 320 MB
    f = ObjectiveFunction(space, np.abs(np.arange(n) - 6000) / n)
    grid = tuple(k / 200.0 for k in range(1, 100))
    a = PointSubset.of(space, range(n // 2))
    b = PointSubset.of(space, range(n // 2, n))

    def peak(fn):
        tracemalloc.start()
        try:
            out = fn()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    dia, used = peak(space.diameter)
    assert dia == 1.0 and used < limit
    curve, used = peak(lambda: wellposedness_modulus(f, grid))
    assert used < limit
    # on a line the diameter is the distance between the extreme members
    for t, d in zip(curve.eps_grid, curve.diam_values):
        inside = np.flatnonzero(f.values <= t)
        assert d == space.dist(inside[0], inside[-1])
    gap, used = peak(lambda: set_distance(a, b))
    assert gap == space.dist(n // 2 - 1, n // 2) and used < limit
