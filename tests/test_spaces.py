import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wellpose.spaces import (
    _CHUNK_CELLS,
    EAGER_MATRIX_LIMIT,
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


class TestEagerMatrixBuild:
    @pytest.mark.parametrize("metric", ["euclidean", "l1", "linf"])
    def test_chunked_matrix_equals_the_full_block(self, metric, rng):
        n = 300
        assert n % (_CHUNK_CELLS // n) != 0  # a short last chunk
        coords = rng.normal(size=(n, 3)) * 10
        sp = FiniteMetricSpace(coords=coords, metric=metric)
        assert np.array_equal(sp.block(np.arange(n)), _pairwise(coords, coords, metric))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_linf_running_max_equals_the_axis_reduction(self, d, rng):
        def reduction(a, b):
            return np.abs(a[:, None, :] - b[None, :, :]).max(axis=2)

        coords = rng.normal(size=(300, d)) * 10
        eager = FiniteMetricSpace(coords=coords, metric="linf")
        assert np.array_equal(eager.block(np.arange(300)), reduction(coords, coords))
        if d == 1:
            lazy = FiniteMetricSpace.grid1d(0.0, 1.0, EAGER_MATRIX_LIMIT + 3)
            coords = lazy._coords
        else:
            coords = rng.normal(size=(EAGER_MATRIX_LIMIT + 4, d)) * 10
            lazy = FiniteMetricSpace(coords=coords, metric="linf")
        assert lazy._matrix is None
        idx, cols = np.array([0, 7, lazy.n - 1]), np.arange(0, lazy.n, 5)
        assert np.array_equal(lazy.row(3), reduction(coords[[3]], coords)[0])
        assert np.array_equal(lazy.block(idx), reduction(coords[idx], coords))
        assert np.array_equal(lazy.block(idx, cols), reduction(coords[idx], coords[cols]))

    def test_build_peak_stays_near_the_matrix(self):
        n = 4000
        matrix_bytes = n * n * 8
        tracemalloc.start()
        try:
            sp = FiniteMetricSpace.grid1d(steps=n - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sp.n == n and sp.dist(0, n - 1) == 1.0
        assert peak < 1.25 * matrix_bytes


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

    def test_sampled_path_for_larger_matrix_spaces(self, rng):
        pts = rng.uniform(0, 1, size=(250, 2))
        sp = FiniteMetricSpace.pointcloud(pts, metric="l1")
        assert sp.validate(rng=rng)

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


@given(
    vals=st.lists(st.floats(0.1, 50.0), min_size=2, max_size=25),
    eps=st.floats(0.0, 10.0),
)
def test_ball_membership_matches_bruteforce(vals, eps):
    sp = FiniteMetricSpace.pointcloud(np.array(vals)[:, None], metric="l1")
    b = ball(sp, 0, eps)
    for j in range(sp.n):
        assert (j in b) == (sp.dist(0, j) <= eps)
