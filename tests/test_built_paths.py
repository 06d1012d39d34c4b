"""Library-built values skip the checks their construction proves.

Each private construction path (ModulusCurve._built, PointSubset._where,
and the density step's cone, perturbation._step_cone) is run on drawn
objectives and spaces, and its output is handed to the public validator and
compared, field by field, with the object the public path builds.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wellpose.objectives import ModulusCurve, ObjectiveFunction, argmin_set, wellposedness_modulus
from wellpose.perturbation import PerturbationFunction, _cone_values, cone_perturbation
from wellpose.spaces import FiniteMetricSpace, PointSubset, ball, diam
from wellpose.steckin import _ascending_grid, _sublevel_curve

from support import _bits

INF = float("inf")
# few distinct values, so that ties are common
_values = st.sampled_from([0.0, 0.5, 1.0, 2.0, INF])
_coords = st.sampled_from([-1.0, 0.0, 0.5, 1.0])


@st.composite
def _spaces(draw) -> FiniteMetricSpace:
    """A 1-D grid or a 2-D linf cloud (repeated points allowed, one point
    allowed), with tied distances."""
    if draw(st.booleans()):
        return FiniteMetricSpace.grid1d(0.0, 1.0, draw(st.integers(1, 7)))
    n = draw(st.integers(1, 8))
    pts = draw(st.lists(st.tuples(_coords, _coords), min_size=n, max_size=n))
    return FiniteMetricSpace.pointcloud(np.array(pts), metric="linf")


@st.composite
def _objectives(draw) -> ObjectiveFunction:
    """An objective with tied and +inf values on a drawn space."""
    space = draw(_spaces())
    vals = draw(st.lists(_values, min_size=space.n, max_size=space.n))
    vals[draw(st.integers(0, space.n - 1))] = draw(st.sampled_from([0.0, 1.0]))  # proper
    return ObjectiveFunction(space, np.array(vals))


_grid_floats = st.sampled_from([0.0, -0.0, 5e-324, 0.1, 0.5, 1.0, 2.0, INF, -1.0, float("nan")])


def _grid_verdict(grid) -> str | None:
    """The message wellposedness_modulus gives a grid, in the order the
    parent's sweep and curve checks gave it, or None if it is accepted."""
    if not all(e >= 0.0 for e in grid):
        return "eps must be nonnegative"
    if not grid:
        return "grid and values must align and be non-empty"
    if not (grid[0] > 0.0 and all(b > a for a, b in zip(grid, grid[1:]))):
        return "eps grid must be positive and strictly increasing"
    return None


@given(_objectives(), st.lists(_grid_floats, max_size=5))
@example(ObjectiveFunction(FiniteMetricSpace.grid1d(0.0, 1.0, 2), np.zeros(3)), [1.0, INF, INF])
@example(ObjectiveFunction(FiniteMetricSpace.grid1d(0.0, 1.0, 2), np.zeros(3)), [1.0, INF])
def test_built_curves_pass_the_validator_and_equal_the_public_curve(f, grid):
    expected = _grid_verdict(grid)
    if expected is not None:
        with pytest.raises(ValueError) as err:
            wellposedness_modulus(f, grid)
        assert str(err.value) == expected
    else:
        curve = wellposedness_modulus(f, grid)
        public = ModulusCurve(tuple(grid), tuple(diam(argmin_set(f, e)) for e in grid))
        assert ModulusCurve(curve.eps_grid, curve.diam_values) == curve == public
        assert _bits(curve.eps_grid) == _bits(public.eps_grid)
        assert _bits(curve.diam_values) == _bits(public.diam_values)
    # steckin's curves take grids from _ascending_grid (or _step_grid)
    if not grid or not all(e > 0.0 for e in grid):
        return
    asc = _ascending_grid(grid)
    curve = _sublevel_curve(f.values, f.space.prefix_diameters, asc)
    public = ModulusCurve(asc, tuple(diam(argmin_set(f, e)) for e in asc))
    assert ModulusCurve(curve.eps_grid, curve.diam_values) == curve == public
    assert _bits(curve.diam_values) == _bits(public.diam_values)


def _assert_same_subset(built: PointSubset, mask: np.ndarray) -> None:
    checked = PointSubset(built.space, built.indices)  # the public validator
    public = PointSubset(built.space, np.flatnonzero(mask))
    for other in (checked, public):
        assert other.space is built.space
        assert other.indices.dtype == built.indices.dtype == np.intp
        assert other.indices.tolist() == built.indices.tolist()
    assert not built.indices.flags.writeable


_radii = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, INF])


@given(_objectives(), _radii, st.data())
def test_where_subsets_pass_the_validator_and_equal_the_public_subset(f, eps, data):
    # eps = 0 draws argmin sets of one point or of tied minima, eps = inf
    # the whole space (+inf values included); radius 0 draws one-point
    # balls (or repeated points), radius inf the whole space
    _assert_same_subset(argmin_set(f, eps), f.values <= f.low + eps)
    centre = data.draw(st.integers(0, f.space.n - 1))
    radius = data.draw(_radii)
    _assert_same_subset(ball(f.space, centre, radius), f.space.row(centre) <= radius)


@given(_spaces(), st.data(),
       st.sampled_from([1e-323, 1.5e-323, 1e-300, 0.1, 0.5, 0.75, 1.0, 3.0, 1e300,
                        np.finfo(float).max]) | st.floats(1e-323, 1e308))
def test_the_density_steps_cone_passes_the_validator_and_equals_the_public_cone(space, data, eps):
    # every eps that buc_density_step lets in: finite, with eps/2 > 0
    apex = data.draw(st.integers(0, space.n - 1))
    vals, ramp = _cone_values(space, apex, eps, eps / 2.0)
    cone = PerturbationFunction._built(space, vals, 0.0)  # as buc_density_step builds it
    assert type(cone) is PerturbationFunction and not cone.values.flags.writeable
    checked = PerturbationFunction(space, cone.values)  # the public validator
    public = cone_perturbation(space, apex, beta=eps, gamma=eps / 2.0)
    for other in (checked, public):
        assert other.space is cone.space
        assert _bits(other.values) == _bits(cone.values)
        assert float(other.low).hex() == float(cone.low).hex()
    assert ramp.tolist() == (space.row(apex) <= eps / 2.0).tolist()
