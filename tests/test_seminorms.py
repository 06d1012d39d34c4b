import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from wellpose import seminorms
from wellpose.instances import random_polyhedral_seminorm
from wellpose.seminorms import (
    AbsLinear,
    Euclidean,
    LineQuotient,
    MaxOf,
    Scale,
    SeminormExpr,
    SumOf,
    _golden_quotient,
    _perp_quotient,
    euclidean_norm,
    l1_norm,
    linf_norm,
    seminorm_from_json,
    seminorm_to_json,
)

finite_coords = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


class TestNodeValidation:
    def test_abslinear_coef(self):
        with pytest.raises(ValueError):
            AbsLinear([])
        with pytest.raises(ValueError):
            AbsLinear([1.0, np.inf])
        with pytest.raises(ValueError):
            AbsLinear([[1.0, 2.0]])

    def test_euclidean_dim(self):
        with pytest.raises(ValueError):
            Euclidean(0)

    def test_combiners_need_matching_children(self):
        with pytest.raises(ValueError):
            MaxOf(())
        with pytest.raises(ValueError):
            SumOf((AbsLinear([1.0]), AbsLinear([1.0, 0.0])))
        with pytest.raises(ValueError):
            MaxOf((AbsLinear([1.0]), "not a node"))

    def test_scale_factor(self):
        child = AbsLinear([1.0])
        with pytest.raises(ValueError):
            Scale(-0.5, child)
        with pytest.raises(ValueError):
            Scale(np.inf, child)
        assert Scale(0.0, child)([3.0]) == 0.0

    def test_line_quotient_needs_positive_direction_value(self):
        base = linf_norm(2)
        with pytest.raises(ValueError):
            LineQuotient(base, [0.0, 0.0])
        degenerate = AbsLinear([1.0, 0.0])
        with pytest.raises(ValueError):
            LineQuotient(degenerate, [0.0, 1.0])  # base vanishes on the direction
        with pytest.raises(ValueError):
            LineQuotient(base, [1.0])  # wrong length

    def test_line_quotient_rejects_a_direction_positive_only_by_rounding(self):
        # the row is perpendicular to the direction, so base(d) = 2.2e-17 is
        # rounding of an exact 0; accepted, it gave kappa = 1 and a quotient
        # of 1.745 at the row itself, where the true value is 0
        with pytest.raises(ValueError, match="beyond rounding"):
            LineQuotient(AbsLinear([-0.314, 1.283]), [1.283, 0.314])
        # a tiny direction is positive beyond rounding, relative to its size
        q = LineQuotient(linf_norm(2), [1e-100, 0.0])
        assert q([5.0, 2.0]) == 2.0 and q([1e-100, 0.0]) == 0.0

    def test_eval_shape_check(self):
        with pytest.raises(ValueError):
            linf_norm(2).eval_many(np.zeros((3, 5)))


class TestFrozenValues:
    def test_quotient_of_euclidean_is_distance_to_the_line(self):
        # distance from (3,4) to span{(1,0)} is |4|
        q = LineQuotient(euclidean_norm(2), [1.0, 0.0])
        assert q([3.0, 4.0]) == 4.0

    def test_quotient_of_linf_collapses_the_first_coordinate(self):
        q = LineQuotient(linf_norm(2), [1.0, 0.0])
        assert q([0.0, 2.0]) == 2.0
        assert q([17.0, 2.0]) == 2.0

    def test_quotient_along_a_parallel_vector_vanishes(self):
        q = LineQuotient(linf_norm(2), [1.0, 1.0])
        assert q([2.0, 2.0]) <= 1e-10

    def test_standard_norm_helpers(self, rng):
        pts = rng.normal(size=(50, 3))
        assert np.allclose(linf_norm(3).eval_many(pts),
                           np.max(np.abs(pts), axis=1), rtol=0, atol=0)
        assert np.allclose(l1_norm(3).eval_many(pts),
                           np.sum(np.abs(pts), axis=1), rtol=1e-15)
        assert np.allclose(euclidean_norm(3).eval_many(pts),
                           np.linalg.norm(pts, axis=1), rtol=0, atol=0)


class TestLineQuotientAccuracy:
    def test_never_exceeds_base_pointwise(self, rng):
        base = SumOf((linf_norm(2), Scale(0.5, euclidean_norm(2))))
        q = LineQuotient(base, [1.0, 2.0])
        pts = rng.normal(size=(200, 2)) * 5
        assert np.all(q.eval_many(pts) <= base.eval_many(pts))

    def test_matches_a_dense_grid_scan(self, rng):
        base = MaxOf((AbsLinear([1.0, 0.3]), AbsLinear([-0.2, 1.0]),
                      Scale(0.7, euclidean_norm(2))))
        direction = np.array([0.8, -0.6])
        q = LineQuotient(base, direction)
        pts = rng.normal(size=(20, 2)) * 3
        got = q.eval_many(pts)
        bd = float(base.eval_many(direction[None, :])[0])
        for x, val in zip(pts, got):
            bx = float(base.eval_many(x[None, :])[0])
            T = 2.0 * bx / bd
            ts = np.linspace(-T, T, 4001)
            scan = base.eval_many(x[None, :] - ts[:, None] * direction[None, :]).min()
            step = 2 * T / 4000
            # grid scan can miss the true minimum by at most slope * step
            assert val <= scan + 1e-12 * max(1.0, bx)
            assert scan <= val + step * bd + 1e-12 * max(1.0, bx)


def _bases_2d():
    e1 = AbsLinear([1.0, -2.0])
    e2 = AbsLinear([0.5, 0.5])
    return {
        "abslinear": e1,
        "max": linf_norm(2),
        "sum": l1_norm(2),
        "scale": Scale(1.7, MaxOf((e1, e2))),
        "euclidean": Euclidean(2),
        "mixed_max": MaxOf((e1, e2, Scale(0.3, Euclidean(2)))),
        "mixed_sum": SumOf((linf_norm(2), Scale(0.5, Euclidean(2)), e1)),
    }


_DIRECTIONS_2D = {
    "random": [0.8137, -1.4402],
    "axis_x": [1.0, 0.0],
    "axis_y": [0.0, -3.0],
    "near_x": [1.0, 1e-9],
    "near_y": [-1e-12, 2.0],
}


def _search(base, direction, X):
    """Brute-force reference: golden section at every point."""
    d = np.asarray(direction, dtype=np.float64)
    bd = float(base.eval_many(d[None, :])[0])
    pts = np.asarray(X, dtype=np.float64)
    return _golden_quotient(base, pts, d, bd, base.eval_many(pts))


@pytest.mark.parametrize("dname", list(_DIRECTIONS_2D))
@pytest.mark.parametrize("bname", list(_bases_2d()))
class TestClosedForm2D:
    """The R^2 closed form kappa |perp . x| against the per-point search."""

    @pytest.fixture
    def case(self, bname, dname, rng):
        base = _bases_2d()[bname]
        direction = np.array(_DIRECTIONS_2D[dname])
        pts = np.vstack([rng.normal(size=(300, 2)) * 5, np.eye(2), -np.eye(2)])
        return base, direction, LineQuotient(base, direction), pts

    def test_matches_the_search_at_every_point(self, case):
        base, direction, q, pts = case
        tol = 1e-13 * np.maximum(1.0, base.magnitude_many(pts))
        assert np.all(np.abs(q.eval_many(pts) - _search(base, direction, pts)) <= tol)

    def test_matches_a_dense_t_scan(self, case):
        base, direction, q, pts = case
        bd = q.dir_value
        for x, val in zip(pts[:12], q.eval_many(pts[:12])):
            bx = float(base.eval_many(x[None, :])[0])
            ts = np.linspace(-2.0 * bx / bd, 2.0 * bx / bd, 4001)
            scan = base.eval_many(x[None, :] - ts[:, None] * direction[None, :]).min()
            step = 4.0 * bx / bd / 4000
            assert val <= scan + 1e-12 * max(1.0, bx)
            assert scan <= val + step * bd + 1e-12 * max(1.0, bx)

    def test_never_exceeds_base(self, case):
        base, _, q, pts = case
        assert np.all(q.eval_many(pts) <= base.eval_many(pts))

    def test_exactly_zero_on_the_direction(self, case):
        _, direction, q, _ = case
        line = np.array([1.0, -1.0, 2.0, 0.5, -1024.0])[:, None] * direction[None, :]
        assert np.all(q.eval_many(line) == 0.0)

    def test_json_round_trip_evaluates_identically(self, case):
        _, _, q, pts = case
        rebuilt = seminorm_from_json(seminorm_to_json(q))
        assert np.array_equal(q.eval_many(pts), rebuilt.eval_many(pts))

    def test_magnitude_bounds_the_dot_product(self, case):
        # criterion 06 scales its rounding tolerance by magnitude_many; the
        # closed form rounds in proportion to kappa (|x| . |perp|)
        base, direction, q, pts = case
        perp = np.array([-direction[1], direction[0]])
        kappa = _search(base, direction, perp[None, :])[0] / (perp @ perp)
        assert np.all(kappa * (np.abs(pts) @ np.abs(perp))
                      <= q.magnitude_many(pts) * (1.0 + 1e-12))


class _CountingBase(SeminormExpr):
    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self.rows = []

    def eval_many(self, X):
        self.rows.append(len(X))
        return self.inner.eval_many(X)

    def magnitude_many(self, X):
        return self.inner.magnitude_many(X)


def test_planar_quotient_evaluates_base_once_per_call(rng):
    base = _CountingBase(MaxOf((AbsLinear([1.0, 0.3]), Scale(0.7, euclidean_norm(2)))))
    q = LineQuotient(base, [0.8, -0.6])
    base.rows.clear()
    q.eval_many(rng.normal(size=(500, 2)))
    assert base.rows == [500]


def test_quotient_in_three_dimensions_still_searches(rng):
    base = _CountingBase(SumOf((linf_norm(3), Scale(0.5, euclidean_norm(3)))))
    direction = np.array([1.0, -2.0, 0.5])
    q = LineQuotient(base, direction)
    pts = rng.normal(size=(200, 3)) * 4
    base.rows.clear()
    got = q.eval_many(pts)
    assert len(base.rows) > 70  # one evaluation per golden-section step
    assert np.array_equal(got, _search(base.inner, direction, pts))
    assert LineQuotient(euclidean_norm(3), [0.0, 0.0, 2.0])([3.0, 4.0, 7.0]) == 5.0
    assert LineQuotient(linf_norm(3), [1.0, 0.0, 0.0])([17.0, 2.0, -1.0]) == 2.0


def _kappa_bases(rng):
    e1 = AbsLinear([1.0, -2.0])
    e2 = AbsLinear([0.5, 0.5])
    bases = [linf_norm(2), l1_norm(2), Scale(1.7, MaxOf((e1, e2))), Euclidean(2),
             MaxOf((SumOf((e1, e2)), SumOf((linf_norm(2), Scale(0.3, l1_norm(2))))))]
    return bases + [random_polyhedral_seminorm(rng, 2) for _ in range(40)]


def _kappa_directions(base, rng):
    """Random directions, the axes, the diagonals, and for every row L of a
    polyhedral base both L itself (a facet normal: L . perp = 0) and L's
    perpendicular (L . direction = 0): the zero-denominator cases."""
    dirs = [rng.normal(size=2) for _ in range(4)]
    dirs += [np.array(v, dtype=np.float64) for v in ([1, 0], [0, -2], [1, 1], [1, -1])]
    rows = base._rows
    if rows is not None:
        dirs += [r for r in rows] + [np.array([-r[1], r[0]]) for r in rows]
    # a base that (nearly) vanishes on the direction leaves the quotient
    # ill-conditioned for both methods
    return [d for d in dirs if base(d) > 1e-6 * np.linalg.norm(d)]


def test_closed_form_kappa_matches_the_search(rng):
    """The one-shot kink evaluation against golden section, the oracle."""
    ulp = np.finfo(np.float64).eps
    checked = 0
    for base in _kappa_bases(rng):
        for d in _kappa_directions(base, rng):
            perp = np.array([-d[1], d[0]])
            bd = base(d)
            exact = _perp_quotient(base, perp, d, bd)
            at = perp[None, :]
            search = float(_golden_quotient(base, at, d, bd, base.eval_many(at))[0])
            # both round at the size of the base's terms along the bracket
            scale = LineQuotient(base, d).magnitude_many(perp[None, :])[0]
            assert abs(exact - search) <= 8 * ulp * scale
            assert exact <= base(perp)
            checked += 1
    assert checked > 400


def test_closed_form_kappa_beats_every_sampled_t(rng):
    # the minimum of a convex piecewise-linear function: no t does better
    for base in _kappa_bases(rng)[:10]:
        for d in _kappa_directions(base, rng):
            perp = np.array([-d[1], d[0]])
            exact = _perp_quotient(base, perp, d, base(d))
            T = 4.0 * base(perp) / base(d)
            scan = base.eval_many(perp[None, :] - np.linspace(-T, T, 2001)[:, None] * d)
            scale = LineQuotient(base, d).magnitude_many(perp[None, :])[0]
            assert exact <= scan.min() + 8 * np.finfo(np.float64).eps * scale


def test_kappa_search_runs_only_without_a_closed_form(monkeypatch):
    calls = []
    real = seminorms._golden_quotient

    def spy(*args):
        calls.append(args[1].shape)
        return real(*args)

    monkeypatch.setattr(seminorms, "_golden_quotient", spy)
    e1 = AbsLinear([1.0, -2.0])
    e2 = AbsLinear([0.5, 0.5])
    closed = [linf_norm(2), l1_norm(2), Scale(0.4, MaxOf((e1, e2))), Euclidean(2),
              SumOf((MaxOf((e1, e2)), e1))]
    for base in closed:
        LineQuotient(base, [0.8, -0.6]).eval_many(np.eye(2))
    assert calls == []
    LineQuotient(MaxOf((e1, e2, Scale(0.3, Euclidean(2)))), [0.8, -0.6])
    assert calls == [(1, 2)]
    LineQuotient(linf_norm(3), [1.0, 0.5, 0.0]).eval_many(np.eye(3))
    assert len(calls) > 1


@pytest.mark.parametrize("power", [-997, 997])
def test_quotient_of_a_tiny_or_huge_direction(power, rng):
    """perp is scaled to unit size by a power of two, so a direction of
    about 1e-300 or 1e+300 gives the quotient of the unscaled direction,
    bit for bit."""
    X = rng.normal(size=(200, 2)) * 3
    bases = [linf_norm(2), l1_norm(2)] + [random_polyhedral_seminorm(rng, 2) for _ in range(10)]
    checked = 0
    for base in bases:
        for v in (np.array([1.0, 0.0]), np.array([0.6, -0.8]), rng.normal(size=2)):
            if not base(v) > 1e-6 * np.linalg.norm(v):
                continue
            q = LineQuotient(base, np.ldexp(v, power))
            assert np.array_equal(q.eval_many(X), LineQuotient(base, v).eval_many(X))
            checked += 1
    assert checked > 20
    q = LineQuotient(linf_norm(2), [1e-300, 0.0])
    assert q([17.0, 2.0]) == pytest.approx(2.0, rel=1e-15)


def _kappa_on_the_given_direction(base, direction):
    """kappa with the kink search and the golden bracket run along the
    given direction and its base value, unscaled: the oracle for
    directions whose products stay in the normal range."""
    bd = float(base.eval_many(direction[None, :])[0])
    perp = np.array([-direction[1], direction[0]])
    perp = np.ldexp(perp, -np.frexp(np.abs(perp).max())[1])
    on_perp = base.eval_many(perp[None, :])
    at_zero = float(on_perp[0])
    rows = base._rows
    if isinstance(base, Euclidean):
        value = at_zero
    elif rows is None:
        value = float(_golden_quotient(base, perp[None, :], direction, bd, on_perp)[0])
    else:
        a, b = rows @ perp, rows @ direction
        i, j = np.triu_indices(rows.shape[0], 1)
        num = np.concatenate([a, a[i] - a[j], a[i] + a[j]])
        den = np.concatenate([b, b[i] - b[j], b[i] + b[j]])
        keep = (den != 0.0) & (np.abs(num) <= 2.0 * at_zero / bd * np.abs(den))
        t = num[keep] / den[keep]
        value = float(base.eval_many(perp[None, :] - t[:, None] * direction[None, :]).min(initial=at_zero))
    return value / float(perp @ perp)


_NORMAL_BASES = list(_bases_2d().values()) + [
    random_polyhedral_seminorm(np.random.default_rng(k), 2) for k in range(12)]


@given(
    st.sampled_from(range(len(_NORMAL_BASES))),
    st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
    st.sampled_from((None, 0.0, 1e-17, 1e-9)),
    st.integers(0, 1),
    st.integers(-100, 100),
)
def test_scaled_searches_keep_kappa_on_normal_range_directions(k, entries, off_axis, axis, power):
    base = _NORMAL_BASES[k]
    direction = np.array(entries)
    if off_axis is not None:
        direction[1 - axis] *= off_axis
    direction *= 10.0 ** power
    nonzero = np.abs(direction[direction != 0.0])
    assume(nonzero.size and nonzero.min() >= 1e-150 and nonzero.max() <= 1e150)
    try:
        q = LineQuotient(base, direction)
    except ValueError:  # base is 0 on the direction, or only by rounding above it
        assume(False)
    assert q._kappa.hex() == _kappa_on_the_given_direction(base, direction).hex()
    pts = np.array([[1.0, -2.0], [0.3, 7.0], direction])
    bracket = 2.0 * base.eval_many(pts) / q.dir_value
    dir_mag = float(base.magnitude_many(direction[None])[0])
    assert _bits(q.magnitude_many(pts)) == _bits(base.magnitude_many(pts) + bracket * dir_mag)


@pytest.mark.parametrize("dim, directions", [
    (2, [[0.0, 1.15e-309], [5e-324, 0.0], [3e-310, -1e-309], [-2.5e-320, 7e-321],
         [1e150, 1e-200]]),
    (3, [[0.0, 1.15e-309, 0.0], [1e-310, -3e-310, 5e-324], [5e-324, 5e-324, 0.0],
         [1e150, 1e-200, 0.0]]),
])
def test_subnormal_directions_give_finite_values_at_most_base(dim, directions, rng):
    """The searches run along the direction scaled to a largest entry in
    [1/2, 1), so the bracket 2 base(x) / base(direction) stays finite.
    The last direction spans 350 decades: its small entry is flushed to 0
    by the scaling, and the values stay finite and at most base."""
    mixed = SumOf((linf_norm(dim), Scale(0.5, Euclidean(dim)), AbsLinear(np.arange(1.0, dim + 1))))
    bases = [linf_norm(dim), l1_norm(dim), euclidean_norm(dim), mixed]
    bases += [random_polyhedral_seminorm(rng, dim) for _ in range(4)]
    pts = np.vstack([rng.normal(size=(20, dim)) * 10.0 ** rng.integers(-5, 6, size=(20, 1)),
                     np.zeros((1, dim)), np.array(directions)])
    built = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for base in bases:
            for d in directions:
                try:
                    q = LineQuotient(base, d)
                except ValueError:  # base is 0 on the direction
                    continue
                vals = q.eval_many(pts)
                assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)
                assert np.all(vals <= base.eval_many(pts))
                assert np.all(np.isfinite(q.magnitude_many(pts)))
                assert np.array_equal(q.direction, d)  # stored as given
                built += 1
    assert built >= 2 * len(directions) * 3


def _euclidean_quotient_by_three_evaluations(direction):
    """(dir_value, kappa) of a euclidean line quotient in R^2, built by
    evaluating the base three times: on the direction, for its magnitude,
    and on perp.  None where that build refuses the direction."""
    base = euclidean_norm(2)
    row = direction[None]
    bd = float(base.eval_many(row)[0])
    if not (bd > seminorms._BEYOND_ROUNDING * float(base.magnitude_many(row)[0])):
        return None
    unit = np.ldexp(direction, -np.frexp(np.abs(direction).max())[1])
    perp = np.array([-unit[1], unit[0]])
    return bd, float(base.eval_many(perp[None])[0]) / float(perp @ perp)


class _CountingEuclidean(Euclidean):
    def __init__(self, dim):
        super().__init__(dim)
        self.calls = 0

    def eval_many(self, X):
        self.calls += 1
        return super().eval_many(X)


_DIRECTION_ENTRIES = st.one_of(
    st.just(0.0),
    st.floats(-1e300, 1e300),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-1.0, 1.0), st.integers(-323, 300)),
)


@given(st.tuples(_DIRECTION_ENTRIES, _DIRECTION_ENTRIES))
def test_a_euclidean_quotient_evaluates_its_base_once(entries):
    direction = np.array(entries)
    base = _CountingEuclidean(2)
    expected = _euclidean_quotient_by_three_evaluations(direction)
    try:
        q = LineQuotient(base, direction)
    except ValueError:
        assert expected is None
        return
    assert base.calls == 1
    bd, kappa = expected
    assert q.dir_value == bd and q._kappa.hex() == kappa.hex()


def _shared_tree(rng, dim):
    """Random combinations that reuse earlier nodes: polyhedral and
    euclidean leaves, sums, maxima, scales and quotients of leaves."""
    leaves = [random_polyhedral_seminorm(rng, dim) for _ in range(3)]
    leaves += [Euclidean(dim), MaxOf((Euclidean(dim), random_polyhedral_seminorm(rng, dim)))]
    nodes = list(leaves)
    for _ in range(8):
        a, b = (nodes[i] for i in rng.integers(len(nodes), size=2))
        kind = int(rng.integers(4))
        if kind == 0:
            nodes.append(SumOf((a, b, a)))
        elif kind == 1:
            nodes.append(MaxOf((a, b)))
        elif kind == 2:
            nodes.append(Scale(float(rng.uniform(0.1, 2.0)), a))
        else:
            leaf = leaves[int(rng.integers(len(leaves)))]
            try:
                nodes.append(LineQuotient(leaf, rng.normal(size=dim)))
            except ValueError:  # a leaf that vanishes on the direction
                pass
    return SumOf(tuple(nodes[-4:]) + (nodes[-1], leaves[0]))


class TestSharedNodes:
    """A shared node is evaluated wherever it appears.  A JSON round trip
    rebuilds a tree with no shared node: the same values bit for bit."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_shared_trees_match_their_unshared_rebuild(self, dim, rng):
        for _ in range(12):
            tree = _shared_tree(rng, dim)
            rebuilt = seminorm_from_json(seminorm_to_json(tree))
            X = rng.normal(size=(60, dim)) * 3
            assert np.array_equal(tree.eval_many(X), rebuilt.eval_many(X))


class TestQuotientFromBase:
    """from_columns takes base's values from the caller: eval_many bit for bit."""

    def test_planar_quotients(self, rng):
        X = rng.normal(size=(300, 2)) * 3
        bases = [linf_norm(2), l1_norm(2), Euclidean(2)]
        bases += [random_polyhedral_seminorm(rng, 2) for _ in range(10)]
        checked = 0
        for base in bases:
            for d in ([1.0, 0.0], [0.6, -0.8], rng.normal(size=2)):
                try:
                    q = LineQuotient(base, d)
                except ValueError:  # a base that vanishes on the direction
                    continue
                got = q.from_columns(X.T, base.eval_many(X))
                assert _bits(got) == _bits(q.eval_many(X))
                rebuilt = seminorm_from_json(seminorm_to_json(q))
                assert _bits(got) == _bits(rebuilt.eval_many(X))
                checked += 1
        assert checked >= 30

    def test_the_golden_path(self, rng):
        base = SumOf((linf_norm(3), Scale(0.5, euclidean_norm(3))))
        q = LineQuotient(base, [1.0, -2.0, 0.5])
        X = rng.normal(size=(40, 3)) * 3
        got = q.from_columns(X.T, base.eval_many(X))
        assert _bits(got) == _bits(q.eval_many(X))
        assert _bits(got) == _bits(_search(base, q.direction, X))


class TestFolds:
    """MaxOf and SumOf fold their children into one running array."""

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 1000])
    def test_folds_equal_the_stacked_reductions(self, n, rng):
        for k in range(1, 21):
            if n == 1 and k >= 8:
                continue  # numpy sums one point's column pairwise from eight terms on
            kids = tuple(Scale(float(10.0 ** rng.integers(-6, 7)), AbsLinear(rng.normal(size=2)))
                         for _ in range(k))
            X = rng.normal(size=(n, 2))
            stack = np.stack([c.eval_many(X) for c in kids])
            assert _bits(SumOf(kids).eval_many(X)) == _bits(np.sum(stack, axis=0))
            assert _bits(MaxOf(kids).eval_many(X)) == _bits(np.max(stack, axis=0))

    @pytest.mark.parametrize("combine", [MaxOf, SumOf])
    def test_a_fold_never_returns_a_child_array(self, combine, rng):
        X = rng.normal(size=(20, 2))
        leaf = AbsLinear([1.0, -2.0])
        kept = _Kept(leaf.eval_many(X))
        for kids in ((kept,), (kept, kept), (Scale(0.0, leaf), kept, kept)):
            expected = (np.max if combine is MaxOf else np.sum)(
                np.stack([k.eval_many(X) for k in kids]), axis=0)
            got = combine(kids).eval_many(X)
            assert not np.shares_memory(got, kept.values)
            assert np.array_equal(got, expected)
            assert np.array_equal(kept.values, leaf.eval_many(X))  # not written


class _Kept(SeminormExpr):
    """Returns the one array it holds, as a caller's carried values are
    folded and then read again."""

    def __init__(self, values):
        self.values, self.dim = values, 2

    def eval_many(self, X):
        return self.values


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


class TestLinearRows:
    def test_rows_reproduce_the_tree(self, rng):
        trees = [linf_norm(3), l1_norm(3), Scale(2.5, l1_norm(2)),
                 SumOf((linf_norm(2), Scale(0.3, l1_norm(2)), AbsLinear([1.0, -1.0])))]
        trees += [random_polyhedral_seminorm(rng, 2) for _ in range(20)]
        for tree in trees:
            rows = tree._rows
            pts = rng.normal(size=(100, tree.dim)) * 3
            flat = np.abs(pts @ rows.T).max(axis=1)
            tol = 1e-13 * np.maximum(1.0, tree.magnitude_many(pts))
            assert np.all(np.abs(flat - tree.eval_many(pts)) <= tol)

    def test_other_leaves_and_large_expansions_give_none(self):
        assert Euclidean(2)._rows is None
        assert MaxOf((AbsLinear([1.0, 0.0]), Scale(0.3, Euclidean(2))))._rows is None
        assert LineQuotient(linf_norm(2), [1.0, 1.0])._rows is None
        cap = seminorms._MAX_LINEAR_ROWS
        atoms = [AbsLinear([1.0, float(k)]) for k in range(8)]
        # a sum of k leaves expands to 2^(k-1) rows
        assert SumOf(atoms[:7])._rows.shape[0] == 64 <= cap
        assert SumOf(atoms)._rows is None
        assert MaxOf(tuple(AbsLinear([1.0, float(k)]) for k in range(cap + 1)))._rows is None


class TestKeptRows:
    """A tree's rows and their index pairs are flattened once and kept on
    it, read-only; the kept arrays equal a fresh flattening."""

    @staticmethod
    def _trees(rng):
        trees = [linf_norm(2), linf_norm(3), l1_norm(2), l1_norm(3), Scale(2.5, l1_norm(2)),
                 MaxOf((SumOf((AbsLinear([1.0, 2.0]), AbsLinear([0.5, -1.0]))),
                        Scale(0.3, l1_norm(2))))]
        return trees + [random_polyhedral_seminorm(rng, int(rng.integers(2, 4)))
                        for _ in range(40)]

    def test_kept_rows_equal_a_fresh_flattening(self, rng):
        trees = self._trees(rng)
        for tree in trees:
            rows = tree._rows
            assert rows is tree._rows
            assert _bits(rows) == _bits(seminorms._flatten(tree))
            assert rows.shape[1] == tree.dim
            with pytest.raises(ValueError, match="read-only"):
                rows[0, 0] = 1.0
        # read again after every other tree was flattened: each keeps its own
        for tree in trees:
            assert _bits(tree._rows) == _bits(seminorms._flatten(tree))

    def test_kept_row_pairs_equal_the_upper_triangle(self, rng):
        for tree in self._trees(rng):
            i, j = tree._row_pairs
            ref_i, ref_j = np.triu_indices(tree._rows.shape[0], 1)
            assert np.array_equal(i, ref_i) and np.array_equal(j, ref_j)
            assert tree._row_pairs[0] is i
            for kept in (i, j):
                if kept.size:
                    with pytest.raises(ValueError, match="read-only"):
                        kept[0] = 0

    def test_none_is_kept_for_trees_that_do_not_flatten(self):
        atoms = [AbsLinear([1.0, float(k)]) for k in range(8)]
        for tree in (Euclidean(2), MaxOf((AbsLinear([1.0, 0.0]), Scale(0.3, Euclidean(2)))),
                     LineQuotient(linf_norm(2), [1.0, 1.0]), SumOf(atoms)):
            assert tree._rows is None
            assert tree._rows is None

    def test_a_quotient_reads_the_kept_pairs(self, monkeypatch):
        base = linf_norm(2)
        LineQuotient(base, [1.0, 0.5])
        monkeypatch.setattr(np, "triu_indices", None)  # any fresh pair list now fails
        monkeypatch.setattr(seminorms, "_flatten", None)
        q = LineQuotient(base, [0.3, -1.0])
        assert q(np.array([1.0, 1.0])) <= base(np.array([1.0, 1.0]))


def _tree_cases():
    e1 = AbsLinear([1.0, -2.0])
    e2 = AbsLinear([0.5, 0.5])
    return [
        e1,
        Euclidean(2),
        MaxOf((e1, e2)),
        SumOf((e1, e2, Euclidean(2))),
        Scale(1.7, MaxOf((e1, Euclidean(2)))),
        LineQuotient(MaxOf((e1, e2, Scale(0.3, Euclidean(2)))), [1.0, 1.0]),
        LineQuotient(euclidean_norm(2), [0.0, 3.0]),
    ]


@pytest.mark.parametrize("expr", _tree_cases(), ids=lambda e: type(e).__name__)
class TestSeminormAxioms:
    def test_absolute_homogeneity(self, expr, rng):
        pts = rng.normal(size=(100, 2)) * 4
        for lam in (-3.0, -1.0, 0.0, 0.5, 2.0):
            lhs = expr.eval_many(lam * pts)
            rhs = abs(lam) * expr.eval_many(pts)
            tol = 1e-12 * np.maximum(1.0, expr.magnitude_many(lam * pts))
            assert np.all(np.abs(lhs - rhs) <= tol)

    def test_triangle_inequality(self, expr, rng):
        X = rng.normal(size=(100, 2)) * 4
        Y = rng.normal(size=(100, 2)) * 4
        lhs = expr.eval_many(X + Y)
        rhs = expr.eval_many(X) + expr.eval_many(Y)
        tol = 1e-12 * np.maximum(1.0, expr.magnitude_many(X + Y)
                                 + expr.magnitude_many(X) + expr.magnitude_many(Y))
        assert np.all(lhs <= rhs + tol)

    def test_nonnegative_and_zero_at_origin(self, expr):
        assert expr([0.0, 0.0]) <= 1e-15
        assert np.all(expr.eval_many(np.eye(2)) >= 0.0)


@given(x=st.tuples(finite_coords, finite_coords),
       y=st.tuples(finite_coords, finite_coords),
       lam=st.floats(-10, 10, allow_nan=False))
def test_quotient_axioms_hypothesis(x, y, lam):
    q = LineQuotient(l1_norm(2), [2.0, 1.0])
    X = np.array([x, y])
    vx, vy = q.eval_many(X)
    vsum = q(np.add(x, y))
    mag = float(np.sum(np.abs(X))) + abs(lam) * float(np.sum(np.abs(x))) + 1.0
    assert vsum <= vx + vy + 1e-11 * max(1.0, mag)
    assert abs(q(np.multiply(lam, x)) - abs(lam) * vx) <= 1e-11 * max(1.0, mag)


class TestSerialization:
    @pytest.mark.parametrize("expr", _tree_cases(), ids=lambda e: type(e).__name__)
    def test_round_trip_evaluates_identically(self, expr, rng):
        rebuilt = seminorm_from_json(seminorm_to_json(expr))
        pts = rng.normal(size=(50, 2)) * 3
        assert np.array_equal(expr.eval_many(pts), rebuilt.eval_many(pts))

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            seminorm_from_json({"kind": "mystery"})

    def test_euclidean_dim_is_a_count(self):
        for bad, message in ((2.5, "dim must be an integer, got 2.5"), (-1, "dim must be nonnegative")):
            with pytest.raises(ValueError, match=message):
                seminorm_from_json({"kind": "euclidean", "dim": bad})
        assert seminorm_from_json({"kind": "euclidean", "dim": 3.0}).dim == 3
        with pytest.raises(ValueError):
            seminorm_from_json([1, 2, 3])

    def test_unserializable_node_raises(self):
        class Weird(AbsLinear):
            pass

        # subclass still serializes as abslinear; a non-node payload fails
        with pytest.raises(ValueError):
            seminorm_to_json("not an expression")
