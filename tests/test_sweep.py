"""Brute-force oracles for the nested-sublevel sweep.

Every curve the sweep produces is checked against per-threshold
enumeration: the set is rebuilt at each threshold and its diameter taken
over all pairs, the way the per-threshold loops it replaced did.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
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
from wellpose.seminorms import AbsLinear, MaxOf, Scale, SumOf, euclidean_norm, l1_norm, linf_norm
from wellpose.spaces import (
    FiniteMetricSpace,
    PointSubset,
    _euclidean_prefix,
    _pairwise,
    ball,
    diam,
    prefix_diameters,
    sublevel_diameters,
)
from wellpose.steckin import (
    _largest_tolerance,
    _sublevel_curve,
    _sweep,
    make_setting,
    metric_projection,
    polytope_body,
    set_diameter,
    wellpose_point,
)

from support import _bits, _plain_sweep, _whole_sweep


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
            assert d == _pair_max(space, omega.indices)

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
        assert set(argmin_set(f, 0.2)) == {0, 1, 3}
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
        assert d == _pair_max(space, argmin_set(f, t).indices)


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

    @pytest.mark.parametrize("metric", ["euclidean", "l1", "linf"])
    @pytest.mark.parametrize("cells", [1, 100, 185, 333])
    def test_chunk_boundaries_mid_order(self, metric, cells, monkeypatch, rng):
        """A chunk of cells // 37 rows meets every column before it unmasked
        and only its own square through the triangle mask.  These budgets
        give chunks of 1, 2, 5 and 9 rows, so the boundaries fall mid-order
        and the last chunk is short."""
        import wellpose.spaces as spaces_mod

        space = FiniteMetricSpace.pointcloud(rng.normal(size=(60, 2)), metric=metric)
        order = rng.permutation(space.n)[:37]
        D = space.block(order, order)
        expected = [D[:j + 1, :j + 1].max() for j in range(order.size)]
        monkeypatch.setattr(spaces_mod, "_CHUNK_CELLS", cells)
        assert prefix_diameters(space.block, order).tolist() == expected
        block = prefix_diameters(space.block, np.stack([order, order[::-1]]))
        assert block[0].tolist() == expected
        assert block[1, -1] == expected[-1]


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
            assert d == _pair_max(space, argmin_set(f, t).indices)
        finite = int(np.count_nonzero(np.isfinite(f.values)))
        assert len(argmin_set(f, 10.0)) == finite < space.n  # +inf never enters
        t = space.diameter() / 2.0**16
        hit = _pair_max(space, argmin_set(f, t).indices) < 1.0
        assert mn_membership(f, g, 1) == (hit, t if hit else None)

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
        grid = default_delta_grid(fam, 0.05)[:5]
        block_calls.clear()
        assert check_5r_lemma(fam, 10, 0.05, 0.2, grid).ok
        assert block_calls == []

    @pytest.mark.parametrize("d", [1, 2])
    def test_euclidean_spaces_keep_the_block_path(self, d, rng, block_calls):
        # in d >= 2 only: on a line the Euclidean distance is |x - y|, a
        # spread distance
        space = FiniteMetricSpace.pointcloud(rng.normal(size=(40, d)), metric="euclidean")
        for run in (space.diameter, lambda: diam(PointSubset.of(space, range(9)))):
            block_calls.clear()
            run()
            assert bool(block_calls) == (d >= 2)

    def test_one_dimensional_euclidean_with_subnormal_gaps(self):
        # sqrt(x * x) would underflow to 0 for a subnormal x; a line
        # measures |x - y| under every metric name, exactly
        for metric in ("euclidean", "l1", "linf"):
            space = FiniteMetricSpace.pointcloud([[0.0], [5e-324], [1e-320]], metric=metric)
            assert space.diameter() == _pair_max(space, range(3)) == 1e-320
            assert space.prefix_diameters(np.arange(3)).tolist() == [0.0, 5e-324, 1e-320]
            assert space.dist(0, 1) == 5e-324

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
        setting = make_setting(base, 5e-3)
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
# the rows-batched sweep: a (k, n) block of value rows, one curve per row


def _batch_spaces(rng):
    pts = rng.uniform(-5.0, 5.0, size=(60, 2))
    return {
        "linf_d1": FiniteMetricSpace.pointcloud(_tied_coords(rng, 70, 1), metric="linf"),
        "linf_d2": FiniteMetricSpace.pointcloud(_tied_coords(rng, 70, 2), metric="linf"),
        "linf_d3": FiniteMetricSpace.pointcloud(_tied_coords(rng, 70, 3), metric="linf"),
        "l1_d2": FiniteMetricSpace.pointcloud(pts, metric="l1"),
        "euclidean_d2": FiniteMetricSpace.pointcloud(pts, metric="euclidean"),
        "matrix": FiniteMetricSpace.from_matrix(
            FiniteMetricSpace.pointcloud(pts, metric="l1").block(np.arange(60))),
    }


BATCH_KINDS = ["linf_d1", "linf_d2", "linf_d3", "l1_d2", "euclidean_d2", "matrix"]
BATCH_GRID = (0.0, 0.25, 0.3, 1.0, 2.5, 10.0)


def _value_rows(rng, k, n):
    return np.array([_tied_values(rng, n) for _ in range(k)]).reshape(k, n)


def _stable_sweep(prefix, values, grid):
    """The one-row sweep on a stable sort of the whole row: tied values
    enter in index order, and values above every cut are sorted too."""
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    cuts = np.searchsorted(ranked, ranked[0] + np.asarray(grid), side="right")
    return prefix(order[:cuts.max()])[cuts - 1]


class TestBatchedSweep:
    @pytest.mark.parametrize("k", [0, 1, 5])
    @pytest.mark.parametrize("kind", BATCH_KINDS)
    def test_rows_equal_the_one_row_sweep_and_enumeration(self, kind, k, rng):
        space = _batch_spaces(rng)[kind]
        rows = _value_rows(rng, k, space.n)
        curves = _space_curve(space, rows, BATCH_GRID)
        assert curves.shape == (k, len(BATCH_GRID))
        for values, curve in zip(rows, curves):
            assert _bits(curve) == _bits(_space_curve(space, values, BATCH_GRID))
            f = ObjectiveFunction(space, values)
            assert curve.tolist() == [_pair_max(space, argmin_set(f, t).indices) for t in BATCH_GRID]

    @pytest.mark.parametrize("kind", BATCH_KINDS)
    def test_a_block_of_orders_equals_one_order_at_a_time(self, kind, rng):
        space = _batch_spaces(rng)[kind]
        orders = np.array([rng.permutation(space.n)[:40] for _ in range(6)])
        running = space.prefix_diameters(orders)
        assert running.shape == orders.shape
        for order, row in zip(orders, running):
            assert _bits(row) == _bits(space.prefix_diameters(order))
            assert row.tolist() == [_pair_max(space, order[:j + 1]) for j in range(order.size)]
        assert space.prefix_diameters(orders[:0]).shape == (0, 40)

    @pytest.mark.parametrize("kind", ["linf_d1", "linf_d3"])
    def test_row_chunks_do_not_change_a_bit(self, kind, monkeypatch, rng):
        import wellpose.spaces as spaces_mod

        space = _batch_spaces(rng)[kind]
        rows = _value_rows(rng, 7, space.n)
        whole = _space_curve(space, rows, BATCH_GRID)
        # one row per chunk, then chunks of at least three rows with a short last one
        for budget in (1, 3 * space.n):
            monkeypatch.setattr(spaces_mod, "_GATHER_CELLS", budget)
            assert _bits(_space_curve(space, rows, BATCH_GRID)) == _bits(whole)

    def test_values_of_another_rank_raise(self):
        space = FiniteMetricSpace.grid1d(0.0, 1.0, 4)
        for bad in (np.float64(0.5), np.zeros((2, 3, 5))):
            with pytest.raises(ValueError, match=r"values must be one \(n,\) row or a \(k, n\) block"):
                _space_curve(space, bad, (0.1,))


QUARTER_OR_INF = st.one_of(st.integers(0, 12).map(lambda k: k / 4.0), st.just(np.inf))


@given(
    data=st.data(),
    n=st.integers(1, 24),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    metric=st.sampled_from([("linf", 1), ("linf", 2), ("linf", 3), ("l1", 2), ("euclidean", 2)]),
)
def test_tie_order_is_never_read(data, n, k, seed, metric):
    rows = np.array(data.draw(st.lists(st.lists(QUARTER_OR_INF, min_size=n, max_size=n),
                                       min_size=k, max_size=k)))
    rows[np.arange(k), 0] = 1.0  # every row proper
    rng = np.random.default_rng(seed)
    coords = _tied_coords(rng, n, metric[1])
    space = FiniteMetricSpace.pointcloud(coords, metric=metric[0])
    # quarter values and quarter thresholds: every min v + t is exact, and
    # every cut falls on a group of tied values when the row has one
    grid = tuple(j / 4.0 for j in range(13))
    curves = _space_curve(space, rows, grid)
    perm = rng.permutation(n)
    shuffled = FiniteMetricSpace.pointcloud(coords[perm], metric=metric[0])
    assert _bits(_space_curve(shuffled, rows[:, perm], grid)) == _bits(curves)
    for values, curve in zip(rows, curves):
        assert _bits(curve) == _bits(_stable_sweep(space.prefix_diameters, values, grid))


def _ref_block_sweep(values, grid, prefix):
    """The block sweep on a sort of every whole row, one count per cut."""
    grid = np.asarray(grid, dtype=np.float64)
    order = np.argsort(values, axis=1)
    low = values.min(axis=1)
    cuts = np.empty((len(values), grid.size), dtype=np.intp)
    for j, t in enumerate(grid):
        cuts[:, j] = np.count_nonzero(values <= (low + t)[:, None], axis=1)
    running = prefix(order[:, :cuts.max(initial=1)])
    return np.take_along_axis(running, cuts - 1, axis=1)


def _shaped_row(kind, row, top, rng):
    """row reshaped so that it has one candidate below min v + top, every
    value a candidate, +inf everywhere, a -inf minimum, or as drawn."""
    n = row.size
    if kind == "one":
        row = np.full(n, top + 1.0)
        row[rng.integers(n)] = 0.0
    elif kind == "all":
        row = np.minimum(row, top)
        row[rng.integers(n)] = 0.0
    elif kind == "inf":
        row = np.full(n, np.inf)
    elif kind == "neginf":
        row[rng.integers(n)] = -np.inf
    return row


@given(
    data=st.data(),
    n=st.integers(1, 30),
    k=st.integers(1, 6),
    seed=st.integers(0, 2**16),
    metric=st.sampled_from([("linf", 1), ("linf", 2), ("linf", 3), ("l1", 2), ("euclidean", 2)]),
    budget=st.sampled_from([1, 40, 1 << 20]),
)
def test_the_candidate_sweep_equals_the_whole_row_sort(data, n, k, seed, metric, budget):
    from unittest import mock

    import wellpose.spaces as spaces_mod

    rows = np.array(data.draw(st.lists(st.lists(QUARTER_OR_INF, min_size=n, max_size=n),
                                       min_size=k, max_size=k)))
    rows[np.arange(k), 0] = 1.0
    grid = data.draw(st.lists(st.integers(0, 12).map(lambda j: j / 4.0), min_size=1, max_size=6))
    if data.draw(st.booleans()):
        grid.append(0.0)
    rng = np.random.default_rng(seed)
    kinds = data.draw(st.lists(st.sampled_from(["drawn", "one", "all", "inf", "neginf"]),
                               min_size=k, max_size=k))
    rows = np.array([_shaped_row(kind, row, max(grid), rng) for kind, row in zip(kinds, rows)])
    space = FiniteMetricSpace.pointcloud(_tied_coords(rng, n, metric[1]), metric=metric[0])
    with mock.patch.object(spaces_mod, "_GATHER_CELLS", budget):  # one row, a few, all
        curves = _space_curve(space, rows, grid)
    assert _bits(curves) == _bits(_ref_block_sweep(rows, grid, space.prefix_diameters))
    for values, curve in zip(rows, curves):
        assert _bits(curve) == _bits(_space_curve(space, values, grid))


class TestNoSublevelSets:
    """A row holding NaN, or -inf under an infinite threshold, has no
    sublevel sets; -inf under finite thresholds is an ordinary minimum."""

    SPACE = FiniteMetricSpace.grid1d(0.0, 1.0, 4)
    GRID = (0.25, 0.5)
    NO_SETS = r"min v \+ max\(grid\) is NaN"

    @pytest.mark.parametrize("bad", [[np.nan, 1.0, 2.0, 3.0, 4.0], [np.nan] * 5])
    def test_a_block_names_the_row(self, bad):
        rows = np.array([[0.0, 1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0, 0.0], bad])
        with pytest.raises(ValueError, match="values row 2: " + self.NO_SETS):
            _space_curve(self.SPACE, rows, self.GRID)
        with pytest.raises(ValueError, match="values row 0: " + self.NO_SETS):
            _space_curve(self.SPACE, rows[::-1], self.GRID)

    def test_one_row(self):
        with pytest.raises(ValueError, match="values: " + self.NO_SETS):
            _space_curve(self.SPACE, np.array([0.0, np.nan, 1.0, 2.0, 3.0]), self.GRID)

    def test_minus_inf_reads_zero(self):
        row = np.array([-np.inf, 1.0, 2.0, 3.0, 4.0])
        assert _space_curve(self.SPACE, row, self.GRID).tolist() == [0.0, 0.0]
        assert _space_curve(self.SPACE, np.array([row, row[::-1]]), self.GRID).tolist() == \
            [[0.0, 0.0], [0.0, 0.0]]

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_minus_inf_under_an_infinite_threshold_raises(self):
        row = np.array([1.0, -np.inf, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError, match="values: " + self.NO_SETS):
            _space_curve(self.SPACE, row, (0.5, np.inf))
        with pytest.raises(ValueError, match="values row 1: " + self.NO_SETS):
            _space_curve(self.SPACE, np.array([np.arange(5.0), row]), (np.inf,))


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
            q_diams[int(q)] = _pair_max(fam.domain, omega.indices)
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
                grid = default_delta_grid(fam, eps)[:7]
                for p in range(0, fam.params.space.n, 4):
                    base = _pair_max(fam.domain, argmin_set(fam.objective(p), eps).indices)
                    for r in (1.01 * base + 1e-3, 1.5 * base + 0.05):
                        rep = check_5r_lemma(fam, p, eps, r, grid)
                        delta, q_diams = _loop_5r(fam, p, r, grid)
                        assert rep.delta == delta
                        assert rep.q_diams == q_diams
                        assert list(rep.q_diams) == list(q_diams)
                        outcomes.add(rep.delta == grid[0])
        # both the first grid radius and a smaller one get exercised
        assert outcomes == {True, False}


    def test_check_5r_lemma_sweeps_once(self, monkeypatch):
        import wellpose.parametric as parametric_mod

        calls = []
        real = parametric_mod.sublevel_diameters

        def counting(values, grid, prefix):
            calls.append(np.shape(values))
            return real(values, grid, prefix)

        monkeypatch.setattr(parametric_mod, "sublevel_diameters", counting)
        for fam in _families():
            grid = default_delta_grid(fam, 0.3)[:7]
            for p in range(0, fam.params.space.n, 5):
                base = diam(argmin_set(fam.objective(p), 0.3))
                calls.clear()
                check_5r_lemma(fam, p, 0.3, 1.5 * base + 0.05, grid)
                neighbours = np.count_nonzero(fam.params.space.row(p) <= grid[0])
                assert calls == [(neighbours, fam.domain.n)]


# ----------------------------------------------------------------------
# memory on a large lazily computed space


def test_lazy_space_memory_stays_bounded():
    n = 20_000
    space = FiniteMetricSpace.grid1d(0.0, 1.0, n - 1)
    assert space._matrix is None
    limit = n * n * 8 / 10  # a tenth of one n x n float64 block: 320 MB
    f = ObjectiveFunction(space, np.abs(np.arange(n) - 6000) / n)
    grid = tuple(k / 200.0 for k in range(1, 100))

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


def test_batched_sweep_memory_stays_bounded():
    n, k = 20_000, 200
    rng = np.random.default_rng(5)
    space = FiniteMetricSpace.pointcloud(rng.uniform(-1.0, 1.0, size=(n, 2)), metric="linf")
    assert space._matrix is None
    rows = rng.uniform(0.0, 1.0, size=(k, n))
    grid = tuple(j / 100.0 for j in range(1, 101))  # the last cut takes in every point
    tracemalloc.start()
    try:
        curves = sublevel_diameters(rows, grid, space.prefix_diameters)
        used = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (k, n) sort order and running diameters, plus a few temporaries
    # of one chunk of rows, whose gathered column holds at most 2^20 cells
    limit = 2 * k * n * 8 + 6 * 8 * (1 << 20)
    assert used < limit
    for i in (0, k - 1):
        assert _bits(curves[i]) == _bits(sublevel_diameters(rows[i], grid, space.prefix_diameters))


def test_a_block_sorts_only_its_candidates():
    n, k = 20_000, 200
    rng = np.random.default_rng(6)
    space = FiniteMetricSpace.pointcloud(rng.uniform(-1.0, 1.0, size=(n, 2)), metric="linf")
    rows = rng.uniform(1.0, 2.0, size=(k, n))
    rows[np.arange(k), rng.integers(n, size=k)] = 0.0  # one candidate per row
    tracemalloc.start()
    try:
        curves = sublevel_diameters(rows, (0.0, 0.25, 0.5), space.prefix_diameters)
        used = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not curves.any()
    # a sort of the whole block would hold a (k, n) order array, 32 MB
    assert used < k * n * 8 / 16


# ----------------------------------------------------------------------
# sweeps that stop once their answer is known: the stop bound of the
# block path, the renorming step's pick and the candidate sort


def _first_at_least(running, stop) -> int | None:
    hits = np.flatnonzero(running >= stop)
    return int(hits[0]) if hits.size else None


def _stops(rng, running):
    """Bounds on every entry, between entries, below and above them all."""
    on = rng.choice(running, size=min(running.size, 6), replace=False)
    return [0.0, *on, *(np.nextafter(on, np.inf)), running[-1] * 2.0 + 1.0, np.inf]


class TestStopBound:
    @pytest.mark.parametrize("metric", ["euclidean", "l1", "linf"])
    @pytest.mark.parametrize("cells", [1, 100, 333, 1 << 15])
    def test_a_prefix_that_holds_the_first_entry_at_stop(self, metric, cells, monkeypatch, rng):
        import wellpose.spaces as spaces_mod

        space = FiniteMetricSpace.pointcloud(_tied_coords(rng, 60, 2), metric=metric)
        order = rng.permutation(space.n)[:37]
        full = prefix_diameters(space.block, order)
        monkeypatch.setattr(spaces_mod, "_CHUNK_CELLS", cells)
        step = max(1, cells // order.size)
        for stop in _stops(rng, full):
            short = prefix_diameters(space.block, order, stop)
            assert _bits(short) == _bits(full[:short.size])
            first = _first_at_least(full, stop)
            if first is None:
                assert short.size == full.size
            else:
                # it ends with the row chunk that holds the first entry >= stop
                assert short.size == min(full.size, (first // step + 1) * step)

    @pytest.mark.parametrize("cells", [1, 7 * 40, 1 << 15])
    def test_no_cell_is_computed_past_the_chunk_that_reaches_stop(self, cells, monkeypatch, rng):
        import wellpose.spaces as spaces_mod

        space = FiniteMetricSpace.pointcloud(rng.normal(size=(50, 2)), metric="euclidean")
        order = rng.permutation(space.n)[:40]
        full = prefix_diameters(space.block, order)
        monkeypatch.setattr(spaces_mod, "_CHUNK_CELLS", cells)
        step = max(1, cells // order.size)
        computed = []

        def counting(rows, cols):
            computed.append(len(rows) * len(cols))
            return space.block(rows, cols)

        for stop in _stops(rng, full):
            computed.clear()
            prefix_diameters(counting, order, stop)
            first = _first_at_least(full, stop)
            rows = order.size if first is None else min(order.size, (first // step + 1) * step)
            # chunk lo meets every point entered up to its last row
            expected = sum(min(step, rows - lo) * min(lo + step, rows)
                           for lo in range(0, rows, step))
            assert sum(computed) == expected

    def test_a_cut_past_a_shortened_prefix_reads_inf(self, monkeypatch, rng):
        import wellpose.spaces as spaces_mod

        monkeypatch.setattr(spaces_mod, "_CHUNK_CELLS", 1)  # stop at the very entry
        space = FiniteMetricSpace.pointcloud(rng.normal(size=(40, 2)), metric="euclidean")
        grid = tuple(j / 4.0 for j in range(12))
        values = _tied_values(rng, 40, inf_share=0.0)
        full = _space_curve(space, values, grid)
        stop = np.unique(full)[1]  # some larger diameter lies past it
        short = sublevel_diameters(values, grid,
                                   lambda order: prefix_diameters(space.block, order, stop))
        below = full < stop
        assert _bits(short[below]) == _bits(full[below])
        assert np.all((short[~below] == full[~below]) | (short[~below] == np.inf))
        assert short[-1] == np.inf

    def test_the_spread_path_returns_every_entry(self, rng):
        coords = _tied_coords(rng, 30, 2)
        order = np.arange(len(coords))
        full = prefix_diameters(coords, order)
        assert _bits(prefix_diameters(coords, order, 0.0)) == _bits(full)


@settings(max_examples=40)
@given(m=st.sampled_from([1, 63, 64, 65, 200]), d=st.integers(1, 3),
       metric=st.sampled_from(["euclidean", "l1", "linf"]), data=st.data())
def test_a_stopped_block_sweep_stops_within_64_rows(m, d, metric, data):
    """Both block sweeps, prefix_diameters over a distance block and the
    squared euclidean sweep, return a bit-for-bit prefix of the unstopped
    sweep that holds its first entry >= stop, and stop at the end of the
    64-row chunk that holds that entry."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pts = _tied_coords(rng, m, d)
    order = np.arange(m)

    def block(i, j):
        return _pairwise(pts[i][:, None], pts[j][None], metric)

    sweeps = [lambda stop: prefix_diameters(block, order, stop)]
    if metric == "euclidean":
        sweeps.append(lambda stop: _euclidean_prefix(pts, stop))
    full = prefix_diameters(block, order)
    interior = full[data.draw(st.integers(0, m - 1))]
    for stop in (0.0, interior, np.nextafter(interior, np.inf), np.inf):
        first = _first_at_least(full, stop)
        for sweep in sweeps:
            short = sweep(stop)
            assert _bits(short) == _bits(full[:short.size])
            assert short.size == (m if first is None else min(m, (first // 64 + 1) * 64))


STEP_BASES = {
    "linf": linf_norm(2),
    "l1": l1_norm(2),
    "euclidean": euclidean_norm(2),
    # neither polyhedral nor euclidean: the block path over eval_many
    "mixed": SumOf((euclidean_norm(2), linf_norm(2))),
}


def _full_pick(values, sample, grid, base, eps):
    curve = _sublevel_curve(values, _plain_sweep(sample, base), grid)
    return max(((t, d) for t, d in zip(grid, curve.diam_values) if d < eps), default=(None, None))


class TestStepPick:
    @pytest.mark.parametrize("cells", [1, 64, 1 << 15])
    @pytest.mark.parametrize("base_name", sorted(STEP_BASES))
    def test_pick_equals_the_full_curve(self, base_name, cells, monkeypatch, rng):
        import wellpose.spaces as spaces_mod

        monkeypatch.setattr(spaces_mod, "_CHUNK_CELLS", cells)
        base = STEP_BASES[base_name]
        grid = tuple(j / 8.0 for j in range(1, 33))
        for _ in range(12):
            # dyadic coordinates and values: ties, exact cuts and diameters
            # that land on eps
            sample = _tied_coords(rng, 50, 2)
            values = _tied_values(rng, 50)
            curve = _sublevel_curve(values, _plain_sweep(sample, base), grid).diam_values
            for eps in {*rng.choice(curve, size=4), 0.25, 2.0, curve[0], curve[-1]}:
                assert _largest_tolerance(values, _sweep(sample, base), grid, eps) == \
                    _full_pick(values, sample, grid, base, eps)

    @pytest.mark.parametrize("base_name", sorted(STEP_BASES))
    def test_candidate_sort_equals_the_full_sort(self, base_name, rng):
        base = STEP_BASES[base_name]
        sample = _tied_coords(rng, 80, 2)

        def prefix(order):
            return _whole_sweep(sample[order], base)

        for grid in ((0.0,), (0.25, 0.5), (1.0, 0.0, 3.0), (20.0,)):
            values = _tied_values(rng, 80, inf_share=0.3)
            swept = sublevel_diameters(values, grid, prefix)
            assert _bits(swept) == _bits(_stable_sweep(prefix, values, grid))

    def test_pick_equals_the_generator(self, rng):
        """The last cut below eps equals the largest (t, d) pair below eps
        that a generator over the grid picks, on running diameters with
        ties, NaN and a sweep that stops early (its later cuts read inf)."""
        for _ in range(300):
            n = int(rng.integers(1, 30))
            values = _tied_values(rng, n)
            running = np.maximum.accumulate(rng.integers(0, 6, size=n) / 2.0)
            if rng.uniform() < 0.2:
                running[rng.integers(n):] = np.nan
            stopped = int(rng.integers(1, n + 1))
            grid = tuple(np.unique(rng.integers(0, 40, size=int(rng.integers(1, 9))) / 4.0))

            def sweep(order, stop=np.inf):
                return running[:min(len(order), stopped)]

            diams = sublevel_diameters(values, grid, lambda order: sweep(order))
            for eps in {0.0, 0.5, 1.0, 2.5, 3.0, np.inf, *diams.tolist()}:
                want = max(((t, d) for t, d in zip(grid, diams.tolist()) if d < eps),
                           default=(None, None))
                got = _largest_tolerance(values, sweep, grid, eps)
                assert [type(v) for v in got] == [type(v) for v in want] and got == want

    def test_wellpose_point_keeps_its_whole_curve(self, segment_inst):
        inst = segment_inst
        for eps in (0.2, 0.05):
            rep = wellpose_point(inst.nu0, inst.body, inst.p, eps, inst.setting)
            assert len(rep.curve.diam_values) == 33
            picked = max(((t, d) for t, d in zip(rep.curve.eps_grid, rep.curve.diam_values)
                          if d < eps), default=(None, None))
            assert (rep.delta, rep.achieved_diam) == picked
            assert rep.curve.diam_values[-1] >= eps  # the curve runs past the pick


@given(values=st.lists(QUARTER_OR_INF, min_size=1, max_size=40),
       grid=st.lists(st.integers(0, 16).map(lambda k: k / 8.0), min_size=1, max_size=6),
       seed=st.integers(0, 2**16),
       metric=st.sampled_from([("linf", 1), ("linf", 2), ("l1", 2), ("euclidean", 2)]))
def test_candidate_sort_equals_the_full_sort_on_spaces(values, grid, seed, metric):
    values = np.asarray(values)
    values[0] = 1.0  # proper
    coords = _tied_coords(np.random.default_rng(seed), values.size, metric[1])
    space = FiniteMetricSpace.pointcloud(coords, metric=metric[0])
    assert _bits(_space_curve(space, values, grid)) == \
        _bits(_stable_sweep(space.prefix_diameters, values, grid))


@pytest.mark.parametrize("kind", ["eager_grid", "eager_cloud", "matrix", "linf_line", "l1_line"])
def test_mn_membership_equals_the_full_curve_answer(kind, rng):
    space = _spaces(rng)[kind]
    for _ in range(10):
        f = ObjectiveFunction(space, _tied_values(rng, space.n, inf_share=0.3))
        g = PerturbationFunction(space, rng.integers(0, 4, size=space.n) / 8.0)
        t = (space.diameter() or 1.0) / 2.0**16
        (d,) = _space_curve(space, (f + g).values, (t,))
        for n in (1, 2, 5, 50):
            assert mn_membership(f, g, n) == ((True, t) if d < 1.0 / n else (False, None))
