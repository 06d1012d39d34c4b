"""Renorming pipeline for metric projection onto convex bodies.

The ambient space is R^d with a reference norm (``base``).  Candidate
seminorms are compared through sphere-sampled estimates:

  k_nu:  sup of nu on the base unit sphere (equivalence from above),
  a_nu:  inf of nu on the base unit sphere (equivalence from below),
  rho:   sup of |nu1 - nu2| over the base unit ball, the divergence the
         whole stability analysis is budgeted in.

Each estimate carries an error bound derived from the recorded sphere
mesh h: a sample sup M bounds the true sup by M / (1 - h), and the
sample inf m overshoots the true inf by at most M h / (1 - h).

:func:`wellpose_point` perturbs a seminorm so the projection problem at
one point becomes well posed, and :func:`baire_renorm` chains such steps
under a total rho budget while protecting every earlier step's claim
through a shrinking-radius ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import PreconditionError, ReplayError
from .objectives import ModulusCurve
from .seminorms import Euclidean, LineQuotient, Scale, SeminormExpr, SumOf
from .spaces import _euclidean_prefix, _pairwise, prefix_diameters, sublevel_diameters

__all__ = [
    "NormedSetting",
    "make_setting",
    "MeshEstimate",
    "ANuEstimate",
    "k_nu",
    "a_nu",
    "rho",
    "N0OpenReport",
    "n0_open_check",
    "ConvexBody",
    "segment_body",
    "polytope_body",
    "set_diameter",
    "ProjectionReport",
    "metric_projection",
    "c_of_p",
    "WellposeReport",
    "wellpose_point",
    "LedgerStep",
    "BudgetLedger",
    "RenormReport",
    "baire_renorm",
]


@dataclass(frozen=True, eq=False)
class NormedSetting:
    """Ambient dimension, reference norm, and its sampled unit sphere.

    mesh is the achieved covering fineness: the largest base-gap between
    adjacent sample points.  All estimate error bounds scale with it.

    sphere is a read-only copy of the given points, sphere_columns its
    coordinate columns as one contiguous (d, N) array, base_sphere
    base's values on it and base_bounds their (min, max), all computed
    once here and read-only: every renorming step and
    :func:`wellpose_point` on the setting reads them instead of
    evaluating base on the sphere again, and adds its terms there column
    by column (see :func:`_add_terms`).
    """

    dim: int
    base: SeminormExpr
    sphere: np.ndarray
    mesh: float
    sphere_columns: np.ndarray = field(init=False, repr=False)
    base_sphere: np.ndarray = field(init=False, repr=False)
    base_bounds: tuple[float, float] = field(init=False, repr=False)

    def __post_init__(self):
        sphere = np.array(self.sphere, dtype=np.float64)
        sphere.flags.writeable = False
        values = self.base.eval_many(sphere)
        values.flags.writeable = False
        object.__setattr__(self, "sphere", sphere)
        object.__setattr__(self, "sphere_columns", _columns(sphere))
        object.__setattr__(self, "base_sphere", values)
        object.__setattr__(self, "base_bounds", _bounds(values))


def _bounds(vals: np.ndarray) -> tuple[float, float]:
    return float(vals.min()), float(vals.max())


def _columns(points: np.ndarray) -> np.ndarray:
    """The coordinate columns of (N, d) points as a contiguous read-only
    (d, N) array: the same numbers, read without a stride."""
    cols = np.ascontiguousarray(points.T)
    cols.flags.writeable = False
    return cols


def _normalize_rows(base: SeminormExpr, u: np.ndarray) -> np.ndarray:
    b = base.eval_many(u)
    if not np.all(b > 0.0):
        raise ValueError("base must be positive away from the origin")
    return u / b[:, None]


def make_setting(dim: int, base: SeminormExpr, mesh: float) -> NormedSetting:
    """Sample the base unit sphere finely enough for the requested mesh."""
    if base.dim != dim:
        raise ValueError("base dimension mismatch")
    if not (mesh > 0.0):
        raise ValueError("mesh must be positive")
    if dim == 1:
        u = np.array([[1.0], [-1.0]])
        sphere = _normalize_rows(base, u)
        achieved = 0.0  # two points cover the two-point sphere exactly
    elif dim == 2:
        m = 64
        while True:
            angles = 2.0 * np.pi * np.arange(m) / m
            u = np.column_stack([np.cos(angles), np.sin(angles)])
            sphere = _normalize_rows(base, u)
            gaps = base.eval_many(sphere - np.roll(sphere, -1, axis=0))
            achieved = float(gaps.max())
            if achieved <= mesh:
                break
            if m >= 2**21:
                raise ValueError("requested mesh is too fine for the circle sampler")
            m *= 2
    elif dim == 3:
        for level in range(8):
            verts, edges = _icosphere(level)
            sphere = _normalize_rows(base, verts)
            gaps = base.eval_many(sphere[edges[:, 0]] - sphere[edges[:, 1]])
            achieved = float(gaps.max())
            if achieved <= mesh:
                break
        else:
            raise ValueError("requested mesh is too fine for the sphere sampler")
    else:
        raise ValueError("only dimensions 1, 2, 3 are supported")
    return NormedSetting(dim=dim, base=base, sphere=sphere, mesh=achieved)


def _icosphere(level: int) -> tuple[np.ndarray, np.ndarray]:
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = [
        (-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0),
        (0, -1, t), (0, 1, t), (0, -1, -t), (0, 1, -t),
        (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1),
    ]
    verts = [np.asarray(v, dtype=np.float64) / np.linalg.norm(v) for v in verts]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    for _ in range(level):
        cache: dict[tuple[int, int], int] = {}

        def midpoint(i: int, j: int) -> int:
            key = (i, j) if i < j else (j, i)
            if key not in cache:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                cache[key] = len(verts) - 1
            return cache[key]

        split = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            split += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
        faces = split
    edges = set()
    for a, b, c in faces:
        edges |= {(min(a, b), max(a, b)), (min(b, c), max(b, c)), (min(a, c), max(a, c))}
    return np.array(verts), np.array(sorted(edges))


# ----------------------------------------------------------------------
# sphere-sampled estimates


@dataclass(frozen=True)
class MeshEstimate:
    """Sample value plus a one-sided bound on what the sample missed."""

    value: float
    error_bound: float


@dataclass(frozen=True)
class ANuEstimate:
    value: float
    error_bound: float
    equivalent: bool


def _sup_factor(setting: NormedSetting) -> float:
    if not (setting.mesh < 1.0):
        raise ValueError("sphere mesh must be < 1 for sup estimates")
    return 1.0 / (1.0 - setting.mesh)


def _sup_estimate(vals: np.ndarray, setting: NormedSetting) -> MeshEstimate:
    M = float(vals.max())
    factor = _sup_factor(setting)
    return MeshEstimate(value=M, error_bound=M * setting.mesh * factor)


def _inf_estimate(vals: np.ndarray, setting: NormedSetting, bounds=None) -> ANuEstimate:
    """bounds, when given, are vals' (min, max), as _bounds computes them."""
    m, M = _bounds(vals) if bounds is None else bounds
    err = M * _sup_factor(setting) * setting.mesh
    return ANuEstimate(value=m, error_bound=err, equivalent=bool(m - err > 0.0))


def _rho_estimate(v1: np.ndarray, v2: np.ndarray, setting: NormedSetting,
                  tops=None) -> MeshEstimate:
    """tops, when given, are (v1.max(), v2.max()) as floats."""
    value = float(np.abs(v1 - v2).max())
    factor = _sup_factor(setting)
    top1, top2 = (float(v1.max()), float(v2.max())) if tops is None else tops
    err = (top1 + top2) * factor * setting.mesh
    return MeshEstimate(value=value, error_bound=err)


def k_nu(nu: SeminormExpr, setting: NormedSetting) -> MeshEstimate:
    """Sample sup of nu on the base sphere; true sup <= value + error."""
    if nu.dim != setting.dim:
        raise ValueError("dimension mismatch")
    return _sup_estimate(nu.eval_many(setting.sphere), setting)


def a_nu(nu: SeminormExpr, setting: NormedSetting) -> ANuEstimate:
    """Sample inf of nu on the base sphere; true inf >= value - error.

    equivalent reports whether the certified lower bound is positive,
    i.e. nu dominates a positive multiple of the base norm.
    """
    if nu.dim != setting.dim:
        raise ValueError("dimension mismatch")
    return _inf_estimate(nu.eval_many(setting.sphere), setting)


def rho(nu1: SeminormExpr, nu2: SeminormExpr, setting: NormedSetting) -> MeshEstimate:
    """Sup of |nu1 - nu2| over the base unit ball.

    The difference is absolutely homogeneous, so the ball sup equals the
    sphere sup and the sample max is a lower estimate.
    """
    if nu1.dim != setting.dim or nu2.dim != setting.dim:
        raise ValueError("dimension mismatch")
    return _rho_estimate(nu1.eval_many(setting.sphere), nu2.eval_many(setting.sphere), setting)


@dataclass(frozen=True, eq=False)
class N0OpenReport:
    """Certified-stability check: nearby seminorms stay equivalent.

    margin is the certified lower bound on the perturbed sphere inf
    implied by the base estimates; holds compares the measured perturbed
    inf against it and must be True whenever the arithmetic is sound.
    """

    a_nu_base: ANuEstimate
    a_nu_prime: ANuEstimate
    rho: MeshEstimate
    margin: float
    holds: bool


def n0_open_check(nu: SeminormExpr, nu_prime: SeminormExpr, setting: NormedSetting) -> N0OpenReport:
    a_base = a_nu(nu, setting)
    a_prime = a_nu(nu_prime, setting)
    r = rho(nu, nu_prime, setting)
    margin = a_base.value - r.value - (a_base.error_bound + r.error_bound)
    holds = bool(a_prime.value >= margin)
    return N0OpenReport(a_nu_base=a_base, a_nu_prime=a_prime, rho=r,
                        margin=margin, holds=holds)


# ----------------------------------------------------------------------
# convex bodies and projection

# how far off its hull (euclidean) a point may lie and still be a member
_CONTAINS_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ConvexBody:
    """Convex hull of vertices, probed through a finite boundary sample.

    mesh records the sample spacing (euclidean); membership queries use
    the exact hull, while projection estimates range over the sample.
    The hull's facet table is built on the first membership query,
    whether the sample repeats a point on the first step that asks, and
    the sample's coordinate columns (:func:`_columns`) on the first
    offsets taken from it (:func:`_offsets`).
    """

    vertices: np.ndarray
    sample: np.ndarray
    mesh: float

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=np.float64)
        samp = np.asarray(self.sample, dtype=np.float64)
        if verts.ndim != 2 or samp.ndim != 2 or verts.shape[1] != samp.shape[1]:
            raise ValueError("vertices and sample must be (k, d) and (m, d)")
        if verts.shape[0] == 0 or samp.shape[0] == 0:
            raise ValueError("body needs at least one vertex and one sample point")
        if not (np.all(np.isfinite(verts)) and np.all(np.isfinite(samp))):
            raise ValueError("body data must be finite")
        verts = verts.copy()
        samp = samp.copy()
        verts.flags.writeable = False
        samp.flags.writeable = False
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "sample", samp)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @cached_property
    def _facets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(centre, basis, equations) of the hull.

        basis (d, r) spans the vertices' affine hull, from an SVD of the
        centred vertices; directions in which no vertex leaves the centre
        by more than _CONTAINS_TOL are dropped.  Each row (n, c) of
        equations is a unit outward normal and offset in hull coordinates
        y, with n . y + c <= 0 on the hull: none for a point, the two ends
        of an interval on a line, the edges of a polygon in closed form
        (:func:`_polygon_edges`) when r = 2, qhull's facets when r = 3.
        A polygon whose width lies within the rounding of its hull
        coordinates is refused (ValueError), as qhull refuses a flat
        simplex.
        """
        # the mean of the offsets from the first vertex stays finite where
        # the vertices' own sum overflows (a body near the edge of the range)
        first = self.vertices[0]
        centre = first + (self.vertices - first).mean(axis=0)
        offsets = self.vertices - centre
        u, s, vt = np.linalg.svd(offsets, full_matrices=False)
        basis = vt[np.abs(u * s).max(axis=0) > _CONTAINS_TOL].T
        coords = offsets @ basis
        if basis.shape[1] == 0:
            equations = np.zeros((0, 1))
        elif basis.shape[1] == 1:
            equations = np.array([[1.0, -coords.max()], [-1.0, coords.min()]])
        elif basis.shape[1] == 2:
            equations = _polygon_edges(coords, _coordinate_rounding(offsets, basis))
        else:
            # imported here, its one use: scipy.spatial takes 0.32 s and
            # 36 MB to import, and only a 3-dimensional hull needs it
            from scipy.spatial import ConvexHull, QhullError

            try:
                equations = ConvexHull(coords).equations
            except QhullError as exc:  # its message runs to a page; keep the first line
                reason = str(exc).partition("\n")[0]
                raise ValueError(f"qhull cannot hull the vertices: {reason}") from None
        return centre, basis, equations

    @cached_property
    def _sample_columns(self) -> np.ndarray:
        return _columns(self.sample)

    @cached_property
    def _repeats(self) -> bool:
        """Whether two sample rows are the same point, equal (==) in every
        coordinate.  Equal rows are equal keys of a lexicographic sort, so
        they end up next to each other."""
        rows = self.sample[np.lexsort(self.sample.T)]
        return bool(np.any(np.all(rows[1:] == rows[:-1], axis=1)))

    def contains(self, p) -> bool:
        p = np.asarray(p, dtype=np.float64).reshape(-1)
        if p.size != self.dim:
            raise ValueError("point has the wrong dimension")
        if not np.all(np.isfinite(p)):
            raise ValueError("point must be finite")
        centre, basis, equations = self._facets
        offset = p - centre
        y = offset @ basis
        if basis.shape[1] < self.dim:
            # only a flat hull has points off its affine hull; for a full one
            # the residual is rounding alone, which grows with the coordinates
            residual = offset - basis @ y
            # the largest entry bounds the norm from below: a point far off
            # the hull is outside before the squares can overflow
            if not (np.abs(residual).max() <= _CONTAINS_TOL
                    and np.sqrt(residual @ residual) <= _CONTAINS_TOL):
                return False
        return bool(np.all(equations[:, :-1] @ y + equations[:, -1] <= _CONTAINS_TOL))


def _coordinate_rounding(offsets: np.ndarray, basis: np.ndarray) -> float:
    """How far (euclidean) a vertex's computed 2-D hull coordinates,
    offsets @ basis, may lie from the exact ones.

    Each offset v - centre carries one rounding, each basis entry one
    (against the exact orthonormal basis it stands for), and the inner
    product of length d rounds within gamma_d (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., section 3.1).  So
    coordinate j lies within gamma_{d+2} (|v - centre| @ |basis|)_j of
    the exact one, and the vertex within the norm of that row.
    """
    d = offsets.shape[1]
    u = np.finfo(np.float64).eps / 2  # the unit roundoff
    gamma = (d + 2) * u / (1.0 - (d + 2) * u)
    row = np.abs(offsets) @ np.abs(basis)
    return gamma * float(np.hypot(row[:, 0], row[:, 1]).max())


def _turn(o: list, a: list, b: list) -> float:
    """Twice the signed area of the triangle o, a, b: positive when o ->
    a -> b turns counter-clockwise."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _monotone_chain(coords: np.ndarray) -> list[int]:
    """Rows of coords (k, 2) that are vertices of their convex hull,
    counter-clockwise from the lexicographically least.

    Andrew's monotone chain (Andrew, "Another efficient algorithm for
    convex hulls in two dimensions", IPL 1979): one lexicographic sort,
    then, for the lower and the upper half of the hull, a stack that
    drops its top while the turn to the next point is not
    counter-clockwise.  A repeated point or a point on an edge makes no
    turn, so it is never a vertex.
    """
    pts = coords.tolist()
    order = np.lexsort((coords[:, 1], coords[:, 0])).tolist()

    def half(indices: list[int]) -> list[int]:
        chain = []
        for i in indices:
            while len(chain) >= 2 and _turn(pts[chain[-2]], pts[chain[-1]], pts[i]) <= 0:
                chain.pop()
            chain.append(i)
        return chain

    lower, upper = half(order), half(order[::-1])
    return lower[:-1] + upper[:-1]


def _least_width(pts: np.ndarray, normals: np.ndarray, offsets: np.ndarray) -> float:
    """Least width of a convex polygon with counter-clockwise vertices pts
    and edges i from pts[i] to pts[i + 1] (unit outward normals and
    offsets): over the edges, the least depth behind the edge's line of
    the vertex farthest from it (rotating calipers: Shamos, 1978).

    The outward normals turn counter-clockwise, so their unwrapped angles
    increase, and the vertex farthest behind edge i is the one whose
    normal cone holds -n_i: the start of the first edge whose angle
    reaches angle_i + pi.  Its two neighbours are read as well, so an
    angle off by a rounding cannot miss it; every depth read is a
    vertex's, so the result never exceeds the exact width by more than
    the rounding of a depth.
    """
    angle = np.unwrap(np.arctan2(normals[:, 1], normals[:, 0]))
    far = np.searchsorted(np.concatenate([angle, angle + 2.0 * np.pi]), angle + np.pi)
    near_far = pts[(far[:, None] + np.arange(-1, 2)) % len(pts)]
    depth = -(np.einsum("ik,ijk->ij", normals, near_far) + offsets[:, None])
    return float(depth.max(axis=1).min())


def _polygon_edges(coords: np.ndarray, rounding: float) -> np.ndarray:
    """Rows (n, c) of the hull edges of 2-D points: n the unit outward
    normal of an edge, c = -n . y at its first vertex y
    (:func:`_monotone_chain`).

    A point may lie up to rounding from its exact place, which moves the
    hull's least width (:func:`_least_width`) by up to twice that.  A
    hull no wider than this could be a segment in exact arithmetic, and
    is refused with a ValueError.
    """
    pts = coords[_monotone_chain(coords)]
    width = 0.0
    if len(pts) >= 3:
        edge = np.roll(pts, -1, axis=0) - pts
        normals = np.column_stack([edge[:, 1], -edge[:, 0]])
        normals /= np.hypot(edge[:, 0], edge[:, 1])[:, None]
        offsets = -(normals * pts).sum(axis=1)
        width = _least_width(pts, normals, offsets)
    if not width > 2.0 * rounding:
        spread = float(np.hypot(coords[:, 0], coords[:, 1]).max())
        raise ValueError(f"the vertices are too thin to hull: their width {width:.3g} lies "
                         f"within the rounding {2.0 * rounding:.3g} of hull coordinates that "
                         f"spread {spread:.3g} from their centre")
    return np.column_stack([normals, offsets])


def segment_body(a, b, n_samples: int = 2001) -> ConvexBody:
    """Line segment from a to b with a uniform sample."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("endpoints must be vectors of equal length")
    if n_samples < 2:
        raise ValueError("need at least two samples")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("body data must be finite")
    with np.errstate(over="ignore"):
        span = b - a
        length = float(np.linalg.norm(span))
    if not np.isfinite(length):
        raise ValueError(f"segment from {a.tolist()} to {b.tolist()} is too long: "
                         "its length overflows")
    ts = np.linspace(0.0, 1.0, n_samples)
    sample = a[None, :] + ts[:, None] * span[None, :]
    return ConvexBody(vertices=np.stack([a, b]), sample=sample, mesh=length / (n_samples - 1))


def polytope_body(vertices, n_samples: int = 2048, seed: int = 0) -> ConvexBody:
    """Convex hull of vertices sampled by seeded barycentric mixing."""
    verts = np.asarray(vertices, dtype=np.float64)
    if verts.ndim != 2 or min(verts.shape) < 1:
        raise ValueError("vertices must be a non-empty (k, d) array")
    if not np.all(np.isfinite(verts)):
        raise ValueError("body data must be finite")
    # every sample lies in the vertices' bounding box, so, as for a
    # FiniteMetricSpace, a finite distance across it keeps the mesh finite
    with np.errstate(over="ignore"):
        span = _pairwise(verts.max(axis=0)[None], verts.min(axis=0)[None], "euclidean")
    if not np.isfinite(span[0]):
        raise ValueError("polytope vertex distances overflow: the vertex spread is too wide")
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(verts.shape[0]), size=max(n_samples - verts.shape[0], 0))
    sample = np.vstack([verts, weights @ verts]) if weights.size else verts.copy()
    # nearest-neighbour spacing as a fineness proxy
    mesh = 0.0
    for lo in range(0, sample.shape[0], 256):
        d = _pairwise(sample[lo:lo + 256, None], sample[None], "euclidean")
        d[np.arange(d.shape[0]), np.arange(lo, lo + d.shape[0])] = np.inf
        mesh = max(mesh, float(d.min(axis=1).max()))
    return ConvexBody(vertices=verts, sample=sample, mesh=mesh)


def _sweep(sample: np.ndarray, base: SeminormExpr):
    """sweep(order, stop=inf): the running base diameter of the (m, d)
    points sample[order] as each one enters, for one (m,) order; the
    block paths may stop once it reaches stop (see prefix_diameters).

    The path is picked once, here.  For a polyhedral base, base(x - y) =
    max_j |L_j.x - L_j.y|, so the sample is projected once, sample @
    rows.T, and every sweep takes the spread of the projected rows
    gathered by order.  A row of the product depends on that row of
    sample alone, so the gathered rows are sample[order] @ rows.T bit for
    bit.  A euclidean base sweeps sample[order] with
    spaces._euclidean_prefix; any other tree evaluates the difference
    rows, a block at a time.
    """
    rows = base._rows
    if rows is not None:
        proj = sample @ rows.T
        return lambda order, stop=np.inf: prefix_diameters(proj, order)
    if isinstance(base, Euclidean):
        return lambda order, stop=np.inf: _euclidean_prefix(sample[order], stop)

    def block(i, j):
        diffs = sample[i][:, None, :] - sample[j][None, :, :]
        return base.eval_many(diffs.reshape(-1, sample.shape[1])).reshape(len(i), len(j))

    return lambda order, stop=np.inf: prefix_diameters(block, order, stop)


def _sublevel_curve(values: np.ndarray, sweep, grid: tuple[float, ...]):
    """Base diameter of {values <= min + t} for each t in grid (sweep from :func:`_sweep`).

    grid comes from :func:`_ascending_grid` or :func:`_step_grid`, positive
    and strictly increasing, so the curve is built unchecked
    (ModulusCurve._built).
    """
    return ModulusCurve._built(grid, sublevel_diameters(values, grid, sweep))


def set_diameter(points: np.ndarray, nu: SeminormExpr) -> float:
    """max over pairs of nu(x - y): the last entry of one sweep
    (:func:`_sweep`) over all the points, in their order.

    For a polyhedral tree (max, sum and scale of absolute linear leaves)
    the sweep takes the spread of the projections pts @ L.T, O(m j);
    every other tree goes pairwise by row chunk.  A euclidean nu fills
    those blocks with the squares of the distance kernel
    :func:`~wellpose.spaces._pairwise` and roots their running maxima at
    the end (spaces._euclidean_prefix), bit for bit its eval_many of the
    differences; any other tree evaluates the difference rows.  The
    spread path rounds each L_j.x once, where eval_many rounds
    L_j.(x - y) (and a sum adds its terms' roundings), so the two can
    differ in the last bits.  A tree that flattens to more rows than
    seminorms._MAX_LINEAR_ROWS takes the block path.  The rows L are
    flattened on the first call for a tree and kept on it (nu._rows), so
    repeated calls only project.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != nu.dim:
        raise ValueError("points must be (m, d) matching the seminorm")
    if pts.shape[0] == 0:
        raise ValueError("diameter of an empty set is undefined")
    return float(_sweep(pts, nu)(np.arange(pts.shape[0]))[-1])


@dataclass(frozen=True, eq=False)
class ProjectionReport:
    """Distance, minimizing sample indices, and the localization curve."""

    dist: float
    argmin_indices: tuple[int, ...]
    curve: ModulusCurve


def _ascending_grid(delta_grid) -> tuple[float, ...]:
    grid = {float(d) for d in delta_grid}
    if not grid or not all(d > 0.0 for d in grid):  # NaN is not > 0
        raise ValueError("delta grid must be positive")
    return tuple(sorted(grid))


def metric_projection(nu: SeminormExpr, body: ConvexBody, p, delta_grid,
                      setting: NormedSetting) -> ProjectionReport:
    """Evaluate nu(p - x) over the body sample; near-minimizer spreads
    are measured in the setting's base norm per grid tolerance."""
    p = np.asarray(p, dtype=np.float64).reshape(-1)
    if p.size != body.dim or nu.dim != body.dim or setting.dim != body.dim:
        raise ValueError("dimension mismatch")
    grid = _ascending_grid(delta_grid)
    values = nu.eval_many(p[None, :] - body.sample)
    dist = float(values.min())
    argmin = tuple(int(i) for i in np.flatnonzero(values == dist))
    curve = _sublevel_curve(values, _sweep(body.sample, setting.base), grid)
    return ProjectionReport(dist=dist, argmin_indices=argmin, curve=curve)


def c_of_p(body: ConvexBody, p, setting: NormedSetting) -> float:
    """Largest base distance from p to the sampled body."""
    p = np.asarray(p, dtype=np.float64).reshape(-1)
    return float(setting.base.eval_many(p[None, :] - body.sample).max())


@dataclass(frozen=True, eq=False)
class WellposeReport:
    """One localization step at a point p outside or inside the body.

    delta is the largest grid tolerance whose near-minimizers have base
    diameter below the step budget (None if every strategy failed);
    added_exprs are the seminorm terms summed onto nu.  curve is the
    winning strategy's whole localization curve; the steps of
    baire_renorm read no curve and leave it None.
    """

    nu_prime: SeminormExpr
    status: str
    delta: float | None
    achieved_diam: float | None
    moved: float
    dist: float
    curve: ModulusCurve | None
    x_star: tuple[float, ...] | None
    added_exprs: tuple[SeminormExpr, ...]

    @property
    def ok(self) -> bool:
        return self.delta is not None


def wellpose_point(nu: SeminormExpr, body: ConvexBody, p, eps: float,
                   setting: NormedSetting, delta_grid=None) -> WellposeReport:
    """Perturb nu so the projection of p onto the body localizes.

    Strategies, in order: a point of the body only needs the base term
    (status "interior"); otherwise the quotient construction along the
    first minimizer ("perturbed"), then along the second distinct
    minimizer ("perturbed_alt"), then the plain base term ("fallback").
    The first strategy whose largest grid tolerance keeps near-minimizer
    base diameter below eps wins.
    """
    p = np.asarray(p, dtype=np.float64).reshape(-1)
    if p.size != body.dim or nu.dim != body.dim or setting.dim != body.dim:
        raise ValueError("dimension mismatch")
    if not np.all(np.isfinite(p)):
        raise ValueError(f"point must be finite, got {p.tolist()}")
    if not (eps > 0.0):
        raise ValueError("eps must be positive")
    grid = _step_grid(delta_grid, eps)
    offsets, off_cols = _offsets(body, p)
    base_off = setting.base.eval_many(offsets)
    vals0 = base_off if nu is setting.base else nu.eval_many(offsets)
    sweep = _sweep(body.sample, setting.base)
    # nu's own values on the sphere are never read: only moved is
    report, values, _ = _localize(nu, vals0, 0.0, base_off, off_cols, body, p, eps,
                                  setting, grid, sweep)
    return replace(report, curve=_sublevel_curve(values, sweep, grid))


# 2^-32, ..., 2^-1, 1: the default step grid's factors, ascending
_HALVINGS = tuple(2.0**-k for k in range(32, -1, -1))
_TINY = np.finfo(np.float64).tiny


def _step_grid(delta_grid, eps: float) -> tuple[float, ...]:
    """The ascending grid, by default the 33 halvings eps / 2^k, k <= 32.

    eps * 2^-k is eps / 2^k bit for bit (both round the same real).
    While eps * 2^-32 is a finite normal float the products are exact,
    so they are distinct and ascending as built.  Otherwise (an infinite
    eps, or halvings that round) they go through _ascending_grid, which
    sorts and drops duplicates.  A positive eps whose eps / 2^32
    underflows to 0 has no default grid, and the error names eps.
    """
    if delta_grid is None:
        eps = float(eps)
        delta_grid = tuple(eps * h for h in _HALVINGS)
        if _TINY <= delta_grid[0] and eps < np.inf:
            return delta_grid
        if delta_grid[0] == 0.0 < eps:
            raise ValueError(f"eps {eps!r} is too small for the default delta grid: "
                             "eps / 2^32 must be positive")
    return _ascending_grid(delta_grid)


def _offsets(body: ConvexBody, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols): p - x for every sample point x, as C-contiguous (N, d)
    rows and as their coordinate columns, one contiguous (d, N) array,
    both read-only.  nu and base are evaluated on the rows, and every step
    reads the columns (:func:`_add_terms`).

    The columns are p[:, None] minus the body's kept sample columns, and
    the rows are written from them one column at a time: the numbers of
    p[None, :] - sample and of its transpose, each subtraction done once
    and no short axis broadcast.
    """
    cols = p[:, None] - body._sample_columns
    rows = np.empty(cols.shape[::-1])
    for k, col in enumerate(cols):
        rows[:, k] = col
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def _nearest_two(vals: np.ndarray, body: ConvexBody) -> tuple[int, int | None]:
    """The first two distinct points of a stable argsort of vals.

    The lowest-index nearest sample, and the lowest-index nearest among
    the samples at another point (None if every sample is the same
    point): the perturbation directions are built from them.  When no
    sample point repeats (body._repeats), every other index is at
    another point, and the second is the lowest-index minimum of vals
    with the first left out.
    """
    first = int(np.argmin(vals))
    if not body._repeats:
        if vals.size == 1:
            return first, None
        alt = int(np.argmin(np.concatenate((vals[:first], vals[first + 1:]))))
        return first, alt + (alt >= first)
    sample = body.sample
    # column by column: numpy reduces a short last axis slowly
    other = sample[:, 0] != sample[first, 0]
    for k in range(1, sample.shape[1]):
        other |= sample[:, k] != sample[first, k]
    differ = np.flatnonzero(other)
    if differ.size == 0:
        return first, None
    return first, int(differ[np.argmin(vals[differ])])


def _add_terms(carried, terms, cols: np.ndarray, base_vals: np.ndarray,
               moved: bool = False) -> tuple[np.ndarray, float | None]:
    """SumOf((nu,) + terms) on the points whose coordinate columns are
    cols, (d, N), from nu's values there (carried, or a scalar) and
    base's (base_vals), and with ``moved`` also the largest value of the
    terms' own sum there (None without).

    terms are (c1 base,) or (c1 base, c2 LineQuotient(base, x)), as
    :func:`_localize` builds them, so T1 = c1 base_vals and T2 = c2 times
    the quotient's from_columns are their eval_many bit for bit, and base
    is not evaluated again.  The sum node adds (carried + T1) + T2; a
    rounded sum does not depend on its operands' order, so T1 += carried
    and T2 += that are the same numbers.  One fresh result and one
    scratch array hold every step, and with ``moved`` a third array holds
    T1 + T2: nothing else of size N is allocated (a 3-D quotient's golden
    search aside), and carried is never written.
    """
    head, *quotient = terms
    if not quotient:
        out = np.multiply(base_vals, head.factor)
        top = float(out.max()) if moved else None
        out += carried
        return out, top
    scratch = np.empty_like(base_vals)
    out = quotient[0].child.from_columns(cols, base_vals, scratch)
    out *= quotient[0].factor
    np.multiply(base_vals, head.factor, out=scratch)  # T1
    top = float(np.add(scratch, out).max()) if moved else None
    scratch += carried
    out += scratch
    return out, top


def _largest_tolerance(values: np.ndarray, sweep, grid,
                       eps: float) -> tuple[float, float] | tuple[None, None]:
    """The largest t in grid whose near-minimizers {values <= min + t}
    have base diameter below eps, with that diameter; (None, None) if none.
    sweep is the sample's, from :func:`_sweep`.

    The sweep stops at eps: the diameters never decrease with t, so the
    tolerances that pass are a prefix of the grid, and every cut past the
    first diameter >= eps reads +inf (see sublevel_diameters), which the
    pick never takes.  The grid ascends, so the pick is the last cut
    below eps.
    """
    diams = sublevel_diameters(values, grid, lambda order: sweep(order, eps))
    passing = np.flatnonzero(diams < eps)
    if passing.size == 0:
        return None, None
    return grid[passing[-1]], float(diams[passing[-1]])


def _localize(nu: SeminormExpr, vals0: np.ndarray, nu_sphere, base_off: np.ndarray,
              off_cols: np.ndarray, body: ConvexBody, p: np.ndarray, eps: float,
              setting: NormedSetting, grid, sweep) -> tuple:
    """The step body of :func:`wellpose_point` and :func:`baire_renorm`.

    off_cols are the coordinate columns (:func:`_offsets`) of the offsets
    p - sample, vals0 and base_off nu's and base's values on them,
    nu_sphere nu's values on the setting's sphere (0.0 when only moved is
    read) and sweep the sample's (:func:`_sweep`); base's values on the
    sphere are the setting's.  Only the added terms are evaluated
    (:func:`_add_terms`).  Returns the report (without its curve) and
    nu_prime's values on the offsets and on the sphere.
    """
    # (status, quotient direction or None for the plain base term)
    if body.contains(p):
        strategies = [("interior", None)]
    else:
        first, alt = _nearest_two(vals0, body)
        # a column's entries copied out: the offset p - x of one sample
        strategies = [("perturbed", off_cols[:, first].copy())]
        if alt is not None:
            strategies.append(("perturbed_alt", off_cols[:, alt].copy()))
        strategies.append(("fallback", None))

    for status, x in strategies:
        # terms are built only when their strategy is tried: a quotient
        # computes its kappa at construction
        if x is None:
            terms, x_star = (Scale(eps, setting.base),), None
        else:
            terms, x_star = _quotient_terms(setting, x, eps), tuple(float(v) for v in x)
        values, _ = _add_terms(vals0, terms, off_cols, base_off)
        delta, dm = _largest_tolerance(values, sweep, grid, eps)
        if delta is not None:
            break
    # nu_prime - nu is exactly the sum of the added terms, a seminorm
    nu_sphere, moved = _add_terms(nu_sphere, terms, setting.sphere_columns, setting.base_sphere,
                                  moved=True)
    report = WellposeReport(nu_prime=SumOf((nu,) + terms), status=status, delta=delta,
                            achieved_diam=dm, moved=moved, dist=float(values.min()),
                            curve=None, x_star=x_star, added_exprs=terms)
    return report, values, nu_sphere


def _quotient_terms(setting: NormedSetting, x_star: np.ndarray, eps: float):
    """(eps/2) base and (eps/2) line quotient of base along x_star: each is
    at most (eps/2) base, so adding both moves a seminorm by at most eps in rho."""
    lq = LineQuotient(setting.base, x_star)
    return (Scale(eps / 2.0, setting.base), Scale(eps / 2.0, lq))


# ----------------------------------------------------------------------
# budgeted iteration


@dataclass(frozen=True, eq=False)
class LedgerStep:
    """Bookkeeping for one renorming step.

    radius is the stability allowance delta/(3 c_p): as long as all
    later moves sum below it, this step's localization claim survives at
    tolerance delta/3.  protect_after records the allowance left for
    later steps once this step's own move is deducted from its elders.
    """

    index: int
    point: tuple[float, ...]
    eps_step: float
    status: str
    delta: float
    achieved_diam: float
    c_p: float
    radius: float
    moved: float
    x_star: tuple[float, ...] | None
    added_exprs: tuple[SeminormExpr, ...]


@dataclass(frozen=True, eq=False)
class BudgetLedger:
    eps_total: float
    spent: float
    steps: tuple[LedgerStep, ...]


@dataclass(frozen=True, eq=False)
class RenormReport:
    """Outcome of the budgeted renorming loop.

    per_point holds the final-seminorm replay at each witness: the claim
    diameter at delta/3 and the localization curve.  rho_total and
    a_final certify the budget and the preserved equivalence.
    """

    success: bool
    reason: str | None
    nu_final: SeminormExpr
    ledger: BudgetLedger
    per_point: tuple[dict, ...]
    rho_total: MeshEstimate | None
    a_final: ANuEstimate | None


def baire_renorm(nu0: SeminormExpr, body: ConvexBody, witness_points, eps_total: float,
                 n_target: int, setting: NormedSetting, delta_grid=None) -> RenormReport:
    """Make the projection well posed at every witness point at once.

    Step i spends eps_i = half of the smallest current allowance (budget
    left, every earlier protection, 1/n_target), so later moves can
    never spend an earlier claim's radius.  The final seminorm is then
    replayed at every witness at tolerance delta_i/3; replay failures
    raise ReplayError because the ledger arithmetic guarantees them.

    Each step only adds terms to the seminorm before it, so the growing
    tree is never evaluated again.  base's values on the sphere are the
    setting's (NormedSetting.base_sphere), and nu0 is evaluated there
    once unless it is base; both are evaluated once on each witness's
    offsets p - sample, whose coordinate columns are also kept, one
    contiguous (d, N) array per witness (:func:`_offsets`; the sphere's
    are the setting's, NormedSetting.sphere_columns).  The loop carries
    nu's values on each of these point sets, and a step computes only
    its own terms, from base's values and the columns of the same
    points, and adds them in the tree's left-to-right order, one fused
    pass per point set (:func:`_add_terms`, which on the sphere also
    gives the step's move).  The sphere's array is brought up to date at
    every step.  A witness's array is brought up to date only when it is
    read: at its own step, and at the final replay.  It then receives
    every ledger step it has not yet received, in ledger order, so it
    equals the current tree's eval_many bit for bit, and the strategy
    pick, moved, c_p, the final replay, rho_total and a_final all read
    such arrays.  A successful run with W witnesses makes W(W - 1) of
    these catch-ups, as many as updating every witness at every step;
    a run that stops early makes only those of the steps it reached.
    Every sweep of the call, the steps' and the final replay's, reads
    one projection of the body's sample (:func:`_sweep`).

    Precondition: eps_total must stay below the certified equivalence
    margin of nu0, or the budget could destroy definiteness.
    """
    if not (eps_total > 0.0):
        raise ValueError("eps_total must be positive")
    if n_target < 1:
        raise ValueError("n_target must be >= 1")
    points = [np.asarray(p, dtype=np.float64).reshape(-1) for p in witness_points]
    if not points:
        raise ValueError("need at least one witness point")
    if not all(np.all(np.isfinite(p)) for p in points):
        raise ValueError("witness points must be finite")
    if nu0.dim != setting.dim:
        raise ValueError("dimension mismatch")
    base = setting.base
    if nu0 is base:
        nu0_sphere, nu0_bounds = setting.base_sphere, setting.base_bounds
    else:
        nu0_sphere = nu0.eval_many(setting.sphere)
        nu0_bounds = _bounds(nu0_sphere)
    a0 = _inf_estimate(nu0_sphere, setting, nu0_bounds)
    if not (eps_total < a0.value - a0.error_bound):
        raise PreconditionError(
            "budget reaches the equivalence margin: "
            f"eps_total={eps_total} vs certified inf {a0.value - a0.error_bound}"
        )
    if setting.dim != body.dim or any(p.size != body.dim for p in points):
        raise ValueError("dimension mismatch")

    offsets = [_offsets(body, p) for p in points]
    with np.errstate(over="ignore"):  # an overflowing distance makes c_p inf, rejected below
        base_off = [base.eval_many(rows) for rows, _ in offsets]
    for p, v in zip(points, base_off):
        # the protection radius delta / (3 c_p) needs 0 < 3 c_p < inf
        cp = float(v.max())
        if not (cp > 0.0):
            raise ValueError(f"witness point {p.tolist()} is at distance 0 from every "
                             "body sample: c_p = 0")
        if not (3.0 * cp < np.inf):
            raise ValueError(f"witness point {p.tolist()} is too far from the body: "
                             f"c_p = {cp}, and 3 c_p overflows")
    nu_off = list(base_off) if nu0 is base else [nu0.eval_many(rows) for rows, _ in offsets]
    off_cols = [cols for _, cols in offsets]
    # nu_off[j] holds the values of nu0 plus the terms of the first
    # applied[j] ledger steps
    applied = [0] * len(points)
    sweep = _sweep(body.sample, base)
    nu = nu0
    nu_sphere = nu0_sphere
    remaining = eps_total
    protect: list[float] = []
    steps: list[LedgerStep] = []
    spent = 0.0
    # halving alone never reaches zero; below this floor a step cannot
    # make progress the budget arithmetic can still resolve
    floor = eps_total * 2.0**-40

    def _fail(reason: str) -> RenormReport:
        ledger = BudgetLedger(eps_total=eps_total, spent=spent, steps=tuple(steps))
        return RenormReport(success=False, reason=reason, nu_final=nu,
                            ledger=ledger, per_point=(), rho_total=None, a_final=None)

    def _catch_up(j: int) -> np.ndarray:
        # witness j receives the ledger steps it has not yet received, in order
        for step in steps[applied[j]:]:
            nu_off[j] = _add_terms(nu_off[j], step.added_exprs, off_cols[j], base_off[j])[0]
        applied[j] = len(steps)
        return nu_off[j]

    for i, p in enumerate(points):
        allowance = min([remaining, 1.0 / n_target] + protect)
        eps_i = 0.5 * allowance
        if not (eps_i > floor):
            return _fail("budget_exhausted")
        wp, values, nu_sphere = _localize(nu, _catch_up(i), nu_sphere, base_off[i], off_cols[i],
                                          body, p, eps_i, setting, _step_grid(delta_grid, eps_i),
                                          sweep)
        if wp.delta is None:
            return _fail("step_failed")
        cp = float(base_off[i].max())
        radius = wp.delta / (3.0 * cp)
        protect = [t - eps_i for t in protect]
        protect.append(radius)
        steps.append(LedgerStep(
            index=i, point=tuple(float(v) for v in p), eps_step=eps_i,
            status=wp.status, delta=wp.delta, achieved_diam=wp.achieved_diam,
            c_p=cp, radius=radius, moved=wp.moved, x_star=wp.x_star,
            added_exprs=wp.added_exprs,
        ))
        nu = wp.nu_prime
        nu_off[i], applied[i] = values, len(steps)
        remaining -= eps_i
        spent += eps_i

    per_point = []
    for step in steps:
        values = _catch_up(step.index)
        tol = step.delta / 3.0
        grid = tuple(sorted({float(d) for d in (tol, 2.0 * tol, 3.0 * tol)}))
        # a delta of one subnormal step makes tol 0, which the curve refuses
        diams = sublevel_diameters(values, grid, sweep)
        curve = ModulusCurve(eps_grid=grid, diam_values=tuple(diams.tolist()))
        dm = curve.diam_values[0]  # the claim: diameter at tolerance delta/3
        if not (dm < step.eps_step):
            raise ReplayError(
                f"final replay broke step {step.index}: diam {dm} at tolerance "
                f"{tol} is not below {step.eps_step}"
            )
        per_point.append({
            "index": step.index,
            "point": step.point,
            "delta_over_3": tol,
            "diam": dm,
            "eps_step": step.eps_step,
            "bound": 1.0 / n_target,
            "curve": curve,
        })

    final_bounds = _bounds(nu_sphere)
    rho_total = _rho_estimate(nu_sphere, nu0_sphere, setting, (final_bounds[1], nu0_bounds[1]))
    if rho_total.value > eps_total * (1.0 + 1e-12) + 1e-15:
        raise ReplayError(
            f"total move {rho_total.value} exceeds the budget {eps_total}"
        )
    a_final = _inf_estimate(nu_sphere, setting, final_bounds)
    if not (a_final.value - a_final.error_bound > 0.0):
        raise ReplayError("final seminorm lost certified equivalence")
    ledger = BudgetLedger(eps_total=eps_total, spent=spent, steps=tuple(steps))
    return RenormReport(success=True, reason=None, nu_final=nu, ledger=ledger,
                        per_point=tuple(per_point), rho_total=rho_total, a_final=a_final)
