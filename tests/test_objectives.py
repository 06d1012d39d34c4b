import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wellpose.errors import PreconditionError
from wellpose.objectives import (
    ModulusCurve,
    ObjectiveFunction,
    argmin_set,
    check_cont_eps_lemma,
    proper_table,
    regularize,
    sup_norm,
    wellposedness_modulus,
)
from wellpose.parametric import vime_family
from wellpose.spaces import FiniteMetricSpace, diam


def _two_point_space():
    return FiniteMetricSpace.pointcloud(np.array([[0.0], [1.0]]), metric="l1")


class TestObjectiveFunction:
    def test_rejects_nan_and_minus_inf_and_improper(self):
        sp = _two_point_space()
        with pytest.raises(ValueError):
            ObjectiveFunction(sp, np.array([0.0, np.nan]))
        with pytest.raises(ValueError):
            ObjectiveFunction(sp, np.array([0.0, -np.inf]))
        with pytest.raises(ValueError):
            ObjectiveFunction(sp, np.array([np.inf, np.inf]))
        with pytest.raises(ValueError):
            ObjectiveFunction(sp, np.array([0.0, 1.0, 2.0]))

    def test_plus_inf_is_allowed_and_propagates_through_sums(self):
        sp = _two_point_space()
        f = ObjectiveFunction(sp, np.array([1.0, np.inf]))
        g = ObjectiveFunction(sp, np.array([2.0, 3.0]))
        assert (f + g).values[1] == np.inf
        assert (f + g).values[0] == 3.0

    def test_values_are_read_only_copies(self):
        sp = _two_point_space()
        raw = np.array([1.0, 2.0])
        f = ObjectiveFunction(sp, raw)
        raw[0] = 99.0
        assert f.values[0] == 1.0
        with pytest.raises(ValueError):
            f.values[0] = 5.0


def _ref_proper_table(values, shape):
    """The four-pass check: copy, then NaN, -inf, and a finite value in every row."""
    values = np.array(values, dtype=np.float64)
    if values.shape != shape:
        raise ValueError("value table does not match the space")
    if np.any(np.isnan(values)) or np.any(values == -np.inf):
        raise ValueError("values must avoid NaN and -inf")
    if not np.all(np.any(np.isfinite(values), axis=-1)):
        raise ValueError("objective must be proper (some finite value)")
    values.setflags(write=False)
    return values


def _outcome(check, table, shape, **kw):
    try:
        return check(table, shape, **kw)
    except ValueError as exc:
        return str(exc)


_CELLS = st.one_of(st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0]),
                   st.floats(-1e300, 1e300))


@st.composite
def _tables(draw):
    """1-D and 2-D tables, empty ones included, some with an all-+inf row."""
    shape = draw(st.one_of(st.tuples(st.integers(0, 6)),
                           st.tuples(st.integers(0, 4), st.integers(0, 5))))
    size = int(np.prod(shape))
    table = np.array(draw(st.lists(_CELLS, min_size=size, max_size=size)),
                     dtype=np.float64).reshape(shape)
    if table.size and draw(st.booleans()):
        rows = table.reshape(-1, table.shape[-1])  # a view: a 1-D table is one row
        rows[draw(st.integers(0, len(rows) - 1))] = np.inf
    return table


class TestProperTable:
    @pytest.mark.parametrize("owned", [False, True])
    @given(table=_tables())
    @example(table=np.zeros(0)).via("an empty row")
    @example(table=np.zeros((3, 0))).via("(P, 0)")
    @example(table=np.zeros((0, 0))).via("no row at all")
    @example(table=np.zeros((0, 4))).via("(0, n)")
    def test_one_pass_agrees_with_the_four_pass_check(self, table, owned):
        want = _outcome(_ref_proper_table, table, table.shape)
        if isinstance(want, str):
            assert _outcome(proper_table, table, table.shape, owned=owned) == want
            return
        expected = (table.min(axis=-1) if table.shape[-1]
                    else np.empty(table.shape[:-1]))  # (0, 0): no row to reduce
        values, low = proper_table(table, table.shape, owned=owned)
        assert values.shape == want.shape and values.tobytes() == want.tobytes()
        assert not values.flags.writeable
        assert (values is table) == owned and (owned or not np.shares_memory(values, table))
        assert np.asarray(low).tobytes() == np.asarray(expected).tobytes()

    def test_a_wrong_shape_is_named(self):
        assert _outcome(proper_table, np.zeros(3), (4,)) == _outcome(_ref_proper_table,
                                                                      np.zeros(3), (4,))


class TestArgminSet:
    def test_matches_bruteforce_definition(self, rng):
        sp = FiniteMetricSpace.grid1d(0.0, 1.0, 30)
        f = ObjectiveFunction(sp, rng.normal(size=31))
        for eps in (0.0, 0.1, 0.7):
            expected = {i for i, v in enumerate(f.values) if v <= f.low + eps}
            assert set(argmin_set(f, eps)) == expected

    def test_negative_eps_raises(self):
        sp = _two_point_space()
        f = ObjectiveFunction(sp, np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            argmin_set(f, -0.1)

    def test_vime_frozen_values(self):
        # left ramp 3x - 1 bottoms at -1; the 0.3-sublevel set is [0, 0.1]
        fam = vime_family(999, 999)
        f0 = fam.objective(0)
        assert f0.low == -1.0
        omega = argmin_set(f0, 0.3)
        xs = np.arange(1000) / 999
        inside = set(np.flatnonzero(3.0 * xs - 1.0 <= -0.7).tolist())
        assert set(omega) == inside
        assert max(xs[i] for i in omega.indices) <= 0.1 + 1e-12

    @given(
        vals=st.lists(st.floats(-50, 50), min_size=1, max_size=30),
        e1=st.floats(0, 5),
        e2=st.floats(0, 5),
    )
    def test_monotone_in_eps(self, vals, e1, e2):
        sp = FiniteMetricSpace.pointcloud(np.arange(len(vals), dtype=float)[:, None])
        f = ObjectiveFunction(sp, np.array(vals))
        lo, hi = sorted((e1, e2))
        assert argmin_set(f, lo).issubset(argmin_set(f, hi))


class TestModulusCurve:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModulusCurve((), ())
        with pytest.raises(ValueError):
            ModulusCurve((0.2, 0.1), (0.0, 0.0))
        with pytest.raises(ValueError):
            ModulusCurve((0.1, 0.2), (1.0, 0.5))
        with pytest.raises(ValueError):
            ModulusCurve((-0.1, 0.2), (0.0, 0.0))

    # few distinct values, so that ties, equal neighbours and NaN or inf
    # steps are common
    _edge_floats = st.sampled_from([0.0, -0.0, 0.1, 0.2, 1.0, -1.0, 5e-324, 1e308,
                                    np.inf, -np.inf, np.nan]) | st.floats()

    @staticmethod
    def _numpy_verdict(eps_grid, diam_values):
        """The curve's checks as numpy array comparisons: the message of
        the first failing check, or None if the curve is accepted.  A
        value passes only a comparison that holds, so a NaN anywhere, or a
        repeated +inf grid value, is refused."""
        if len(eps_grid) != len(diam_values) or not eps_grid:
            return "grid and values must align and be non-empty"
        eps, d = np.asarray(eps_grid), np.asarray(diam_values)
        if not (np.all(eps > 0.0) and np.all(eps[1:] > eps[:-1])):
            return "eps grid must be positive and strictly increasing"
        if not np.all(d[1:] >= d[:-1]):
            return "modulus must be non-decreasing in eps"
        return None

    @given(st.lists(_edge_floats, max_size=6), st.lists(_edge_floats, max_size=6),
           st.booleans())
    @example([0.1, float("nan")], [0.0, 0.0], True)  # a NaN grid value is refused
    @example([0.1, float("inf"), float("inf")], [0.0, 1.0, 2.0], True)
    @example([0.1, 0.2], [0.0, float("nan")], True)
    @example([0.1, 0.2], [float("inf"), float("inf")], True)
    @example([], [], True)
    @example([0.1], [0.0, 0.0], True)
    @example([-0.0, 0.1], [0.0, 0.0], True)
    def test_checks_equal_the_numpy_checks(self, eps, diam, align):
        if align:
            n = min(len(eps), len(diam))
            eps, diam = eps[:n], diam[:n]
        eps, diam = tuple(eps), tuple(diam)
        expected = self._numpy_verdict(eps, diam)
        if expected is None:
            curve = ModulusCurve(eps, diam)
            assert curve.eps_grid is eps and curve.diam_values is diam
        else:
            with pytest.raises(ValueError) as err:
                ModulusCurve(eps, diam)
            assert str(err.value) == expected

    def test_csv_round_trips_floats_exactly(self):
        curve = ModulusCurve((0.1, 0.2, 1.0 / 3.0), (0.0, 1e-17, 2.0 / 7.0))
        text = curve.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "eps,diam"
        for line, e, d in zip(lines[1:], curve.eps_grid, curve.diam_values):
            se, sd = line.split(",")
            assert float(se) == e and float(sd) == d

    def test_wellposedness_modulus_against_enumeration(self, rng):
        sp = FiniteMetricSpace.grid1d(0.0, 1.0, 100)
        # |i - 50| / 100 so that values and the eps grid share one rounding
        # and the window edges are exact ties
        f = ObjectiveFunction(sp, np.abs(np.arange(101) - 50) / 100.0)
        grid = (0.01, 0.05, 0.2)
        curve = wellposedness_modulus(f, grid)
        for e, d in zip(curve.eps_grid, curve.diam_values):
            assert d == diam(argmin_set(f, e))
        for e, d in zip(curve.eps_grid, curve.diam_values):
            assert d == pytest.approx(2 * e, rel=1e-12)


class TestRegularize:
    def test_zero_radius_returns_same_object(self):
        sp = _two_point_space()
        f = ObjectiveFunction(sp, np.array([0.0, 1.0]))
        assert regularize(f, 0.0) is f

    def test_matches_bruteforce_ball_infimum(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 40))
            sp = FiniteMetricSpace.pointcloud(rng.uniform(-2, 2, size=(n, 2)), metric="linf")
            vals = rng.normal(size=n)
            vals[rng.integers(0, n)] = np.inf
            if not np.any(np.isfinite(vals)):
                vals[0] = 0.0
            f = ObjectiveFunction(sp, vals)
            eps = float(rng.uniform(0.01, 3.0))
            reg = regularize(f, eps)
            for x in range(n):
                members = [y for y in range(n) if sp.dist(x, y) <= eps]
                assert reg.values[x] == min(f.values[y] for y in members)

    def test_monotone_and_dominated(self, rng):
        sp = FiniteMetricSpace.grid1d(0.0, 1.0, 50)
        f = ObjectiveFunction(sp, rng.normal(size=51))
        r_small = regularize(f, 0.1)
        r_big = regularize(f, 0.4)
        assert np.all(r_small.values <= f.values)
        assert np.all(r_big.values <= r_small.values)

    def test_widening_in_two_stages_never_reaches_further(self, rng):
        # two-hop balls cover at most the single ball of the summed radius
        sp = FiniteMetricSpace.pointcloud(rng.uniform(0, 1, size=(30, 1)), metric="l1")
        f = ObjectiveFunction(sp, rng.normal(size=30))
        a, b = 0.15, 0.25
        two_stage = regularize(regularize(f, a), b)
        one_stage = regularize(f, a + b)
        assert np.all(one_stage.values <= two_stage.values)

    def test_two_stage_gap_is_real_on_a_sparse_grid(self):
        # with points {0, 1} and radii 0.5 + 0.5 the two-stage pass never
        # sees the far point, while the single 1.0-ball does
        sp = FiniteMetricSpace.pointcloud(np.array([[0.0], [1.0]]), metric="l1")
        f = ObjectiveFunction(sp, np.array([5.0, 0.0]))
        two_stage = regularize(regularize(f, 0.5), 0.5)
        one_stage = regularize(f, 1.0)
        assert two_stage.values[0] == 5.0
        assert one_stage.values[0] == 0.0

    def test_vime_frozen_value(self):
        fam = vime_family(1000, 1000)
        f0 = fam.objective(0)
        reg = regularize(f0, 0.2)
        # at x = 0.3 the 0.2-ball reaches down to x = 0.1 where 3x-1 = -0.7
        assert abs(reg.values[300] - (-0.7)) < 1e-12


class TestContEpsLemma:
    def test_two_point_example_holds(self):
        sp = _two_point_space()
        f = ObjectiveFunction(sp, np.array([0.0, 0.0]))
        eps = 0.3
        g = ObjectiveFunction(sp, np.array([eps / 3.0 - 1e-9, 0.0]))
        rep = check_cont_eps_lemma(f, g, eps)
        assert rep.holds
        assert rep.omega_perturbed.issubset(rep.omega_base)

    def test_boundary_magnitude_violates_the_hypothesis(self):
        sp = _two_point_space()
        f = ObjectiveFunction(sp, np.array([0.0, 0.0]))
        eps = 0.3
        g = ObjectiveFunction(sp, np.array([eps / 3.0, 0.0]))
        with pytest.raises(PreconditionError):
            check_cont_eps_lemma(f, g, eps)

    def test_perturbation_must_be_finite(self):
        sp = _two_point_space()
        f = ObjectiveFunction(sp, np.array([0.0, 0.0]))
        g = ObjectiveFunction(sp, np.array([np.inf, 0.0]))
        with pytest.raises(ValueError):
            check_cont_eps_lemma(f, g, 0.3)

    def test_never_fails_when_hypothesis_holds(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 60))
            sp = FiniteMetricSpace.pointcloud(rng.uniform(0, 4, size=(n, 1)), metric="l1")
            vals = rng.normal(size=n) * 3
            f = ObjectiveFunction(sp, vals)
            eps = float(rng.uniform(0.01, 2.0))
            u = rng.uniform(0.05, 0.999)
            g = ObjectiveFunction(sp, rng.uniform(-1, 1, size=n) * (eps / 3.0 * u))
            rep = check_cont_eps_lemma(f, g, eps)
            assert rep.holds


def test_sup_norm():
    assert sup_norm(np.array([-3.0, 2.0])) == 3.0
    assert sup_norm(np.array([0.0])) == 0.0
