import functools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wellpose import spaces as spaces_mod
from wellpose.objectives import ObjectiveFunction, argmin_set
from wellpose.steckin import polytope_body
from wellpose.spaces import (
    FiniteMetricSpace,
    _pairwise,
    _ranges,
    PointSubset,
    ball,
    diam,
    space_from_json,
)


class TestConstruction:
    def test_grid1d_coords_are_exact_fractions(self):
        sp = FiniteMetricSpace.grid1d(0.0, 1.0, 10)
        expected = np.arange(11) / 10
        assert np.array_equal(sp.row(0), expected)
        assert sp.dist(0, 10) == 1.0
        assert np.array_equal(sp._coords[:, 0], expected)

    def test_grid2d_is_x_major(self):
        sp = FiniteMetricSpace.grid2d((0.0, 1.0, 2), (0.0, 1.0, 1), metric="linf")
        # x-major: index 0 -> (0,0), 1 -> (0,1), 2 -> (0.5,0)
        assert sp.dist(0, 1) == 1.0
        assert sp.dist(0, 2) == 0.5

    def test_matrix_must_be_square_symmetric_zero_diagonal(self):
        with pytest.raises(ValueError):
            FiniteMetricSpace.from_matrix(np.array([[0.0, 1.0]]))
        with pytest.raises(ValueError):
            FiniteMetricSpace.from_matrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ValueError):
            FiniteMetricSpace.from_matrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            FiniteMetricSpace.from_matrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_matrix_rows_are_read_only(self):
        sp = FiniteMetricSpace.from_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            sp.row(0)[0] = 5.0


def _reference_block(a, b, metric):
    """All-pairs distances with the coordinate axis reduced by numpy."""
    diff = a[:, None, :] - b[None, :, :]
    if metric == "euclidean":
        return np.sqrt((diff * diff).sum(axis=2))
    if metric == "l1":
        return np.abs(diff).sum(axis=2)
    return np.abs(diff).max(axis=2)


class TestCoordinateDistances:
    @pytest.mark.parametrize("n", [300, 5000])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("metric", ["euclidean", "l1", "linf"])
    def test_every_access_equals_the_pairwise_block(self, metric, d, n, rng):
        coords = rng.normal(size=(n, d)) * 10
        sp = FiniteMetricSpace(coords=coords, metric=metric)
        assert sp._matrix is None
        # the full block at n = 300, three rows of it at n = 5000
        idx = np.arange(n) if n <= 300 else np.array([0, 7, n - 1])
        cols = np.arange(0, n, 7)
        want = _pairwise(coords[idx][:, None], coords[None], metric)
        assert np.array_equal(want, _reference_block(coords[idx], coords, metric))
        assert np.array_equal(sp.block(idx), want)
        assert np.array_equal(sp.block(idx, cols), want[:, cols])
        for r in range(0, idx.size, max(1, idx.size // 5)):
            assert np.array_equal(sp.row(idx[r]), want[r])
            for j in (0, 7, n - 1):
                assert sp.dist(idx[r], j) == want[r, j]

    @pytest.mark.parametrize("d", range(1, 10))
    @pytest.mark.parametrize("metric", ["euclidean", "l1", "linf"])
    def test_the_column_loop_equals_the_axis_reduction(self, metric, d, rng):
        a = rng.normal(size=(60, d)) * 10
        b = rng.normal(size=(50, d)) * 10
        b[:5] = a[:5]  # zero distances
        got = _pairwise(a[:, None], b[None], metric)
        want = _reference_block(a, b, metric)
        if d <= 7 or metric == "linf":
            assert np.array_equal(got, want)
        else:
            # two summation orders of d nonnegative terms, each within
            # (d - 1) / 2 ulps of the exact sum
            assert np.all(np.abs(got - want) <= d * np.finfo(np.float64).eps * want)

    @pytest.mark.parametrize("metric", ["euclidean", "l1", "linf"])
    def test_a_line_measures_the_gap_under_every_metric(self, metric):
        x = np.array([0.0, 5e-324, 1e-320, -2.5, 3.0, 1e200, -1e200, 7e-310])
        sp = FiniteMetricSpace.pointcloud(x[:, None], metric=metric)
        want = np.abs(x[:, None] - x[None])
        assert np.array_equal(sp.block(np.arange(x.size)), want)
        assert sp.dist(0, 1) == 5e-324 and sp.dist(0, 5) == 1e200
        assert FiniteMetricSpace.pointcloud([[0.0], [1e200]], metric=metric).dist(0, 1) == 1e200

    @pytest.mark.parametrize("points, metric", [
        ([[0.0, 0.0], [1e200, 0.0]], "euclidean"),  # 1e400 squared
        ([[-1e308], [1e308]], "linf"),  # the gap itself overflows
        ([[-1e308], [1e308]], "euclidean"),
        ([[1e308, 1e308], [0.0, 0.0]], "l1"),  # the sum overflows
    ])
    def test_an_overflowing_spread_is_rejected(self, points, metric):
        with pytest.raises(ValueError, match="overflow"):
            FiniteMetricSpace.pointcloud(points, metric=metric)
        with pytest.raises(ValueError, match="overflow"):
            space_from_json({"kind": "pointcloud", "metric": metric, "params": {"points": points}})

    @pytest.mark.parametrize("metric", ["euclidean", "l1", "linf"])
    def test_points_without_coordinates_are_rejected(self, metric):
        # the column loop has no column to start from
        with pytest.raises(ValueError, match="non-empty"):
            FiniteMetricSpace.pointcloud(np.zeros((3, 0)), metric=metric)

    def test_the_span_bound_is_conservative_off_linf(self):
        # every pairwise Euclidean distance of this diamond is finite (the
        # largest squared sum is s^2 = 1.69e308), but the span vector
        # (s, s) squares to 3.38e308, so the space is rejected
        s = 1.3e154
        pts = s * np.array([[0.0, 0.5], [1.0, 0.5], [0.5, 0.0], [0.5, 1.0]])
        assert np.all(np.isfinite(_reference_block(pts, pts, "euclidean")))
        with pytest.raises(ValueError, match="may overflow"):
            FiniteMetricSpace.pointcloud(pts, metric="euclidean")
        assert FiniteMetricSpace.pointcloud(pts, metric="linf").diameter() == s

    @pytest.mark.parametrize("metric", ["euclidean", "l1"])
    def test_both_span_checks_refuse_from_the_overflow_threshold_on(self, metric):
        # a right triangle with legs r: the spread (r, r) whose squares (or
        # entries) are summed; the threshold is found on the checks' former
        # formulas, a polytope's max - min per column and a space's ranges
        def old_verdict(verts):
            hi, lo = verts.max(axis=0), verts.min(axis=0)
            with np.errstate(over="ignore"):
                terms = (hi - lo) ** 2 if metric == "euclidean" else hi - lo
                return bool(np.isfinite(terms[0] + terms[1]))

        def triangle(r):
            return np.array([[0.0, 0.0], [r, 0.0], [0.0, r]])

        top = np.finfo(float).max
        r = np.sqrt(top / 2.0) if metric == "euclidean" else top / 2.0
        while old_verdict(triangle(r)):
            r = np.nextafter(r, np.inf)
        while not old_verdict(triangle(r)):
            r = np.nextafter(r, 0.0)
        wide = np.nextafter(r, np.inf)
        assert FiniteMetricSpace.pointcloud(triangle(r), metric=metric).n == 3
        with pytest.raises(ValueError, match="^coordinate distances may overflow: the point "
                                             "spread is too wide$"):
            FiniteMetricSpace.pointcloud(triangle(wide), metric=metric)
        if metric == "euclidean":
            assert polytope_body(triangle(r), n_samples=8).sample.shape == (8, 2)
            with pytest.raises(ValueError, match="^polytope vertex distances overflow: the vertex "
                                                 "spread is too wide$"):
                polytope_body(triangle(wide), n_samples=8)

    def test_the_widest_finite_spread_is_kept(self):
        sp = FiniteMetricSpace.pointcloud([[0.0, 0.0], [1e154, 0.0]], metric="euclidean")
        assert sp.dist(0, 1) == 1e154
        sp = FiniteMetricSpace.pointcloud([[-8e307], [8e307]], metric="linf")
        assert sp.diameter() == sp.dist(0, 1) == 1.6e308

    def test_grid1d_build_holds_no_matrix(self):
        n = 4000
        tracemalloc.start()
        try:
            sp = FiniteMetricSpace.grid1d(steps=n - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sp._matrix is None
        assert sp.n == n and sp.dist(0, n - 1) == 1.0
        assert peak < 1_000_000  # one n x n float64 matrix is 128 MB

    def test_exactly_one_of_a_matrix_or_coordinates(self):
        coords = np.array([[0.0], [1.0], [3.0]])
        m = np.array([[0.0, 2.0, 5.0], [2.0, 0.0, 4.0], [5.0, 4.0, 0.0]])
        for both_or_neither in ({"matrix": m, "coords": coords}, {}):
            with pytest.raises(ValueError, match="exactly one"):
                FiniteMetricSpace(**both_or_neither, metric="l1")


class _NoDraws:
    """A random generator stand-in that fails the test when drawn from."""

    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} was used")


class TestValidate:
    def test_pointcloud_metrics_validate(self, rng):
        pts = rng.uniform(-5, 5, size=(40, 3))
        for metric in ("euclidean", "linf", "l1"):
            assert FiniteMetricSpace.pointcloud(pts, metric=metric).validate(rng=rng)

    def test_triangle_violation_is_reported(self):
        m = np.array([
            [0.0, 1.0, 5.0],
            [1.0, 0.0, 1.0],
            [5.0, 1.0, 0.0],
        ])
        sp = FiniteMetricSpace.from_matrix(m)
        with pytest.raises(ValueError, match="triangle"):
            sp.validate()

    def test_exhaustive_check_finds_a_violation_in_the_last_row_chunk(self):
        # a line of 200 points whose last gap is stretched from 1 to 5:
        # (198, 199) and (199, 198) are the only violated pairs
        x = np.arange(200.0)
        m = np.abs(x[:, None] - x[None])
        assert FiniteMetricSpace.from_matrix(m).validate(rng=_NoDraws())
        m = m.copy()
        m[198, 199] = m[199, 198] = 5.0
        sp = FiniteMetricSpace.from_matrix(m)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="triangle"):
                sp.validate(rng=_NoDraws())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20  # the whole min-plus temporary is 64 MB

    @pytest.mark.parametrize("metric", ["euclidean", "linf", "l1"])
    def test_small_spaces_are_checked_exhaustively(self, metric, rng):
        pts = rng.uniform(-5, 5, size=(150, 2))
        sp = FiniteMetricSpace.pointcloud(pts, metric=metric)
        assert sp.validate(rng=_NoDraws())
        assert FiniteMetricSpace.from_matrix(sp.block(np.arange(sp.n))).validate(rng=_NoDraws())

    def test_sampled_path_for_larger_matrix_spaces(self, rng):
        pts = rng.uniform(0, 1, size=(250, 2))
        sp = FiniteMetricSpace.pointcloud(pts, metric="l1")
        assert sp.validate(rng=rng)
        m = sp.block(np.arange(sp.n))
        assert FiniteMetricSpace.from_matrix(m).validate(rng=rng)
        # stretch the distances within each half by 10: d(i, k) > d(i, j) + d(j, k)
        # for a quarter of all triples (i, k in one half, j in the other)
        half = np.arange(250) < 125
        near = (half[:, None] == half[None, :]) & ~np.eye(250, dtype=bool)
        with pytest.raises(ValueError, match=r"triangle inequality fails \(sampled\)"):
            FiniteMetricSpace.from_matrix(m + 10.0 * near).validate(rng=rng)

    def test_lazy_coordinate_space_beyond_matrix_limit(self, rng):
        pts = rng.uniform(0, 1, size=(5000, 2))
        sp = FiniteMetricSpace.pointcloud(pts, metric="linf")
        assert sp.validate(rng=rng)
        v = np.abs(pts[7] - pts[11]).max()
        assert sp.dist(7, 11) == v
        assert sp.row(7)[11] == v


class TestSubsetsAndBalls:
    def test_ball_is_closed(self):
        sp = FiniteMetricSpace.grid1d(0.0, 1.0, 10)
        b = ball(sp, 0, sp.dist(0, 2))
        assert 2 in b and 3 not in b

    def test_ball_center_always_included(self):
        sp = FiniteMetricSpace.grid1d(0.0, 1.0, 5)
        assert 3 in ball(sp, 3, 0.0)

    def test_diam_of_empty_set_raises(self):
        sp = FiniteMetricSpace.grid1d(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            diam(PointSubset.of(sp, ()))

    def test_diam_singleton_and_pair(self):
        sp = FiniteMetricSpace.grid1d(0.0, 1.0, 10)
        assert diam(PointSubset.of(sp, (4,))) == 0.0
        assert diam(PointSubset.of(sp, (0, 10))) == 1.0

    def test_subset_operations(self):
        sp = FiniteMetricSpace.grid1d(0.0, 1.0, 5)
        a = PointSubset.of(sp, (0, 1, 2))
        b = PointSubset.of(sp, (1, 2, 3))
        assert not a.issubset(b)
        assert PointSubset.of(sp, (1, 2)).issubset(a)
        assert list(a) == [0, 1, 2]

    def test_subsets_of_different_spaces_do_not_mix(self):
        s1 = FiniteMetricSpace.grid1d(0.0, 1.0, 5)
        s2 = FiniteMetricSpace.grid1d(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            PointSubset.of(s1, (0,)).issubset(PointSubset.of(s2, (0,)))

    def test_out_of_range_member_raises(self):
        sp = FiniteMetricSpace.grid1d(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            PointSubset.of(sp, (9,))

    def test_out_of_range_member_is_named(self):
        sp = FiniteMetricSpace.grid1d(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="-1 out of range"):
            PointSubset.of(sp, (3, -1, 2, 9))
        with pytest.raises(ValueError, match="6 out of range"):
            PointSubset.of(sp, (0, 6, 5))
        assert len(PointSubset.of(sp, range(6))) == 6

    @pytest.mark.parametrize("center, eps, message", [
        (-1, 0.5, "center index -1 out of range"),
        (5, 0.5, "center index 5 out of range"),
        (2, -0.25, "ball radius must be nonnegative"),
        (2, float("nan"), "ball radius must be nonnegative"),
    ])
    def test_ball_rejects_a_bad_center_or_radius(self, center, eps, message):
        sp = FiniteMetricSpace.grid1d(0.0, 1.0, 4)
        with pytest.raises(ValueError, match=message):
            ball(sp, center, eps)

    def test_indices_are_one_read_only_sorted_array(self):
        sp = FiniteMetricSpace.grid1d(0.0, 1.0, 9)
        sub = PointSubset.of(sp, (7, 2, 2, 5))
        assert sub.indices.dtype == np.intp and sub.indices.tolist() == [2, 5, 7]
        with pytest.raises(ValueError, match="read-only"):
            sub.indices[0] = 3
        for bad in ([2, 2], [5, 2], [[1, 2]]):
            with pytest.raises(ValueError, match="strictly increasing"):
                PointSubset(sp, np.array(bad))
        # no "members": a set comparison of two arrays would compare elementwise
        assert not hasattr(sub, "members")

    def test_the_callers_array_stays_writable(self):
        sp = FiniteMetricSpace.grid1d(0.0, 1.0, 9)
        a = np.array([1, 3], dtype=np.intp)
        sub = PointSubset(sp, a)
        assert a.flags.writeable
        a[0] = 7  # the caller may go on using its array
        assert sub.indices.tolist() == [1, 3] and not sub.indices.flags.writeable

    def test_a_writable_base_cannot_change_the_subset(self):
        sp = FiniteMetricSpace.grid1d(0.0, 1.0, 9)
        base = np.array([1, 3, 4], dtype=np.intp)
        sub = PointSubset(sp, base[:2])
        base[0] = 4  # would leave an unsorted [4, 3] in a shared array
        assert sub.indices.tolist() == [1, 3]
        assert not np.shares_memory(sub.indices, base)

    def test_fractional_indices_raise(self):
        sp = FiniteMetricSpace.grid1d(0.0, 1.0, 9)
        with pytest.raises(ValueError, match="must be integers"):
            PointSubset(sp, np.array([0.5, 1.7]))

    def test_of_rejects_values_that_are_not_whole_numbers(self):
        sp = FiniteMetricSpace.grid1d(0.0, 1.0, 9)
        with pytest.raises(ValueError, match="must be integers"):
            PointSubset.of(sp, [0.5, 2.9])

    def test_a_bool_mask_is_not_read_as_indices(self):
        sp = FiniteMetricSpace.grid1d(0.0, 1.0, 1)
        with pytest.raises(ValueError, match="must be integers"):
            PointSubset(sp, np.array([False, True]))

    def test_large_lazy_subsets_stay_small(self):
        # 400,001 members of a 1,000,001-point grid: two index arrays and
        # one distance row, not a boxed Python int per member
        tracemalloc.start()
        try:
            space = FiniteMetricSpace.grid1d(0.0, 1.0, 1_000_000)
            f = ObjectiveFunction(space, np.abs(np.arange(space.n) - 500_000.0))
            omega = argmin_set(f, 200_000.0)
            width = diam(omega)
            inside = omega.issubset(ball(space, 500_000, 0.25))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(omega) == 400_001 and omega.indices[0] == 300_000
        assert width == space.dist(300_000, 700_000) and inside
        assert peak < 40_000_000


_SUBSET_SPACE = FiniteMetricSpace.grid1d(0.0, 1.0, 23)
_members = st.lists(st.integers(0, _SUBSET_SPACE.n - 1), max_size=30)


@given(_members, _members, st.integers(-3, _SUBSET_SPACE.n + 3))
def test_subset_operations_match_python_sets(a, b, probe):
    sa, sb = PointSubset.of(_SUBSET_SPACE, a), PointSubset.of(_SUBSET_SPACE, b)
    assert len(sa) == len(set(a)) and list(sa) == sorted(set(a))
    assert all(type(i) is int for i in sa)
    assert sa.issubset(sb) == (set(a) <= set(b))
    assert sb.issubset(sa) == (set(b) <= set(a))
    assert (probe in sa) == (probe in set(a))


def _ref_space_to_json(space: FiniteMetricSpace) -> dict:
    """An explicit-matrix descriptor of a space: exact, so a round trip
    through space_from_json must give back every distance bit for bit."""
    m = space._matrix if space._matrix is not None else space.block(np.arange(space.n))
    return {
        "kind": "pointcloud",
        "metric": "matrix",
        "params": {"matrix": [[float(v) for v in row] for row in m.tolist()]},
    }


class TestSerialization:
    def test_grid_kinds_round_trip(self):
        for desc in (
            {"kind": "grid1d", "params": {"steps": 7}},
            {"kind": "grid2d", "params": {"x": [0, 1, 3], "y": [0, 2, 2]}, "metric": "l1"},
            {"kind": "pointcloud", "params": {"points": [[0], [1], [3]]}, "metric": "linf"},
        ):
            sp = space_from_json(desc)
            back = space_from_json(_ref_space_to_json(sp))
            assert back.n == sp.n
            idx = np.arange(sp.n)
            assert np.allclose(back.block(idx), sp.block(idx), rtol=0, atol=0)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            space_from_json({"kind": "mystery"})

    @pytest.mark.parametrize("kind, params, name", [
        ("grid1d", lambda k: {"steps": k}, "steps"),
        ("grid2d", lambda k: {"x": [0, 1, k], "y": [0, 1, 2]}, "x steps"),
        ("grid2d", lambda k: {"x": [0, 1, 2], "y": [0, 1, k]}, "y steps"),
    ])
    def test_grid_counts_are_whole_and_nonnegative(self, kind, params, name):
        # int() would truncate 2.5 steps to 2
        for bad, message in ((2.5, "must be an integer, got 2.5"), (-5, "must be nonnegative, got -5")):
            with pytest.raises(ValueError, match=f"{name} {message}"):
                space_from_json({"kind": kind, "params": params(bad)})
        assert space_from_json({"kind": kind, "params": params(2.0)}).n == (3 if kind == "grid1d" else 9)

    @pytest.mark.parametrize("build", [
        lambda: FiniteMetricSpace.grid1d(0.0, 1.0, 0),
        lambda: FiniteMetricSpace.grid2d((0.0, 1.0, 0), (0.0, 1.0, 2)),
        lambda: FiniteMetricSpace.grid2d((0.0, 1.0, 2), (0.0, 1.0, -1)),
    ])
    def test_grids_need_a_step(self, build):
        with pytest.raises(ValueError, match="steps must be >= 1"):
            build()

    @pytest.mark.parametrize("metric", ["linf", "l1", "euclidean"])
    def test_non_finite_coordinates_are_rejected(self, metric):
        # linf and 1-D l1 take the spread path, the others the block path
        for points in ([[np.inf, 0.0], [0.0, 0.0], [np.nan, 1.0]], [[0.0], [-np.inf]],
                       [[0.0], [np.nan]]):
            with pytest.raises(ValueError, match="finite"):
                space_from_json({"kind": "pointcloud", "metric": metric,
                                 "params": {"points": points}})


    @pytest.mark.parametrize("params", [
        {"stop": np.inf, "steps": 3},
        {"start": -np.inf, "steps": 3},
        {"start": np.nan, "stop": 1.0, "steps": 3},
        {"start": -1e308, "stop": 1e308, "steps": 3},  # finite ends, infinite span
    ])
    def test_non_finite_grid1d_bounds_are_rejected_before_any_arithmetic(self, params):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="grid bounds must be finite"):
                space_from_json({"kind": "grid1d", "params": params})

    @pytest.mark.parametrize("x, y", [
        ([0, np.inf, 3], [0, 1, 2]),
        ([0, 1, 3], [np.nan, 1, 2]),
        ([0, 1, 3], [-1.5e308, 1.5e308, 2]),
    ])
    def test_non_finite_grid2d_bounds_are_rejected_before_any_arithmetic(self, x, y):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="grid bounds must be finite"):
                space_from_json({"kind": "grid2d", "params": {"x": x, "y": y}})


@given(
    vals=st.lists(st.floats(0.1, 50.0), min_size=2, max_size=25),
    eps=st.floats(0.0, 10.0),
)
def test_ball_membership_matches_bruteforce(vals, eps):
    sp = FiniteMetricSpace.pointcloud(np.array(vals)[:, None], metric="l1")
    b = ball(sp, 0, eps)
    for j in range(sp.n):
        assert (j in b) == (sp.dist(0, j) <= eps)


def _scale_case(name: str):
    """(space, its all-pairs distances) for one kind of space; the
    distances are computed here, with numpy's axis reduction."""
    rng = np.random.default_rng(20261020)
    kind, _, rest = name.partition(":")
    if kind == "grid1d":
        start, stop, steps = {"unit": (0.0, 1.0, 10), "wide": (-2.5, 7.0, 33), "two": (0.0, 1.0, 1)}[rest]
        space = FiniteMetricSpace.grid1d(start, stop, steps)
        return space, _reference_block(space._coords, space._coords, "linf")
    if kind == "matrix":
        pts = rng.normal(size=(25, 2))
        m = {"l1": _reference_block(pts, pts, "l1"), "point": np.zeros((1, 1)),
             "twins": np.zeros((3, 3))}[rest]
        return FiniteMetricSpace.from_matrix(m), m
    metric, d = rest.split("/")
    if d == "subnormal":
        coords = np.array([0.0, 5e-324, 1e-320, -2.5, 3.0, 7e-310, 5e-324])[:, None]
    else:
        coords = np.round(rng.normal(size=(50, int(d))) * 4) / 4  # ties in every column
        coords[7] = coords[3]  # and a repeated point
    # on a line every metric is |x - y|
    ref = _reference_block(coords, coords, metric if coords.shape[1] > 1 else "linf")
    return FiniteMetricSpace.pointcloud(coords, metric=metric), ref


_SCALE_CASES = (
    ["grid1d:unit", "grid1d:wide", "grid1d:two", "matrix:l1", "matrix:point", "matrix:twins"]
    + [f"cloud:{m}/{d}" for m in ("linf", "l1", "euclidean") for d in ("1", "subnormal", "2", "3")]
)


class TestKeptScale:
    """diameter() and min_positive_distance() are computed once per space,
    and the space owns the array they are computed from."""

    @pytest.mark.parametrize("name", _SCALE_CASES)
    def test_kept_values_equal_a_fresh_computation(self, name, block_calls, monkeypatch):
        reductions = []
        real = spaces_mod._ranges
        monkeypatch.setattr(spaces_mod, "_ranges", lambda c: reductions.append(c.shape) or real(c))
        space, ref = _scale_case(name)
        want = (float(ref.max()), float(np.min(ref, where=ref > 0.0, initial=np.inf)))
        reductions.clear()
        assert (space.diameter().hex(), space.min_positive_distance().hex()) == tuple(w.hex() for w in want)
        seen = (len(block_calls), len(reductions))
        for _ in range(2):
            assert (space.diameter().hex(), space.min_positive_distance().hex()) == tuple(w.hex() for w in want)
        assert (len(block_calls), len(reductions)) == seen  # nothing is recomputed
        if space._spread:
            assert reductions == [space._coords.shape]  # the one first diameter()

    @given(st.data())
    def test_column_ranges_equal_the_axis_formula(self, data):
        coord = st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.2e-308, 1e-310,
                             1.7e308, -1.7e308, 8e307, -8e307]),
        )
        d = data.draw(st.integers(1, 4))
        rows = data.draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=12))
        repeats = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=4))
        coords = np.array(rows + [rows[i] for i in repeats])  # tied points
        with np.errstate(over="ignore"):
            want = (coords.max(axis=0) - coords.min(axis=0)).max()
            got = _ranges(coords).max()
        assert float(got).hex() == float(want).hex()
        if np.isfinite(want):
            space = FiniteMetricSpace.pointcloud(coords, metric="linf")
            assert space.diameter().hex() == float(want).hex()

    @pytest.mark.parametrize("kind", ["cloud", "line", "matrix"])
    def test_a_write_through_the_callers_array_changes_nothing(self, kind, rng):
        pts = rng.normal(size=(40, 2))
        if kind == "matrix":
            base = _reference_block(pts, pts, "linf")
            build = FiniteMetricSpace.from_matrix
        else:
            base = pts if kind == "cloud" else np.ascontiguousarray(pts[:, :1])
            build = functools.partial(FiniteMetricSpace.pointcloud, metric="l1")
        space, ref = build(base[:]), build(base.copy())
        eps = 0.5
        kept = list(space._ball_table(eps))  # kept on the space: small enough
        base *= 3.0  # a matrix stays symmetric and a valid metric
        assert base.flags.writeable
        idx = np.arange(space.n)
        assert np.array_equal(space.block(idx), ref.block(idx))
        assert space.dist(0, 1) == ref.dist(0, 1)
        assert space.diameter() == ref.diameter()
        assert space.min_positive_distance() == ref.min_positive_distance()
        for got, want, before in zip(space._ball_table(eps), ref._ball_table(eps), kept):
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[0], before[0])
            assert all(np.array_equal(a, b) for a, b in zip(got[1], want[1]))
