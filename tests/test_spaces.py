import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wellpose.spaces import (
    FiniteMetricSpace,
    _pairwise,
    PointSubset,
    ball,
    diam,
    set_distance,
    space_from_json,
    space_to_json,
)


class TestConstruction:
    def test_grid1d_coords_are_exact_fractions(self):
        sp = FiniteMetricSpace.grid1d(0.0, 1.0, 10)
        expected = np.arange(11) / 10
        assert np.array_equal(sp.row(0), expected)
        assert sp.dist(0, 10) == 1.0
        assert sp.labels[3] == expected[3]

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

    def test_given_a_matrix_and_coordinates_the_matrix_is_stored(self):
        coords = np.array([[0.0], [1.0], [3.0]])
        m = np.array([[0.0, 2.0, 5.0], [2.0, 0.0, 4.0], [5.0, 4.0, 0.0]])
        sp = FiniteMetricSpace(matrix=m, coords=coords, metric="l1")
        assert np.array_equal(sp._matrix, m)
        assert sp.dist(0, 2) == 5.0 and np.array_equal(sp.row(1), m[1])


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
        assert tuple(a.intersection(b).sorted_indices()) == (1, 2)
        assert not a.isdisjoint(b)
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

    def test_set_distance(self):
        sp = FiniteMetricSpace.grid1d(0.0, 1.0, 10)
        a = PointSubset.of(sp, (0, 1))
        b = PointSubset.of(sp, (5, 10))
        assert set_distance(a, b) == sp.dist(1, 5)


class TestSerialization:
    def test_grid_kinds_round_trip(self):
        for desc in (
            {"kind": "grid1d", "params": {"steps": 7}},
            {"kind": "grid2d", "params": {"x": [0, 1, 3], "y": [0, 2, 2]}, "metric": "l1"},
            {"kind": "pointcloud", "params": {"points": [[0], [1], [3]]}, "metric": "linf"},
        ):
            sp = space_from_json(desc)
            back = space_from_json(space_to_json(sp))
            assert back.n == sp.n
            idx = np.arange(sp.n)
            assert np.allclose(back.block(idx), sp.block(idx), rtol=0, atol=0)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            space_from_json({"kind": "mystery"})

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
