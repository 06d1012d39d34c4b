"""Finite metric spaces, balls, diameters, and set distances.

Every downstream object (objectives, parametric families, perturbations)
lives on a :class:`FiniteMetricSpace`: an indexed point set with a
symmetric distance oracle.  A space stores what it was given: a distance
matrix, or point coordinates (grids, point clouds) plus a standard metric,
from which every distance is computed on demand with the same per-cell
arithmetic.  Set operations are exact enumeration on indices; ball
membership and set comparisons use plain float comparisons with zero
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "FiniteMetricSpace",
    "PointSubset",
    "ball",
    "diam",
    "prefix_diameters",
    "set_distance",
    "space_from_json",
    "space_to_json",
    "sublevel_diameters",
]

# cells per row chunk when a distance block is filled piecewise
_CHUNK_CELLS = 1 << 15

_METRICS = ("euclidean", "linf", "l1")


def _pairwise(a: np.ndarray, b: np.ndarray, metric: str) -> np.ndarray:
    """Distances between points a and b, arrays of shape (..., d) that
    broadcast against each other; the all-pairs block of (na, d) and
    (nb, d) arrays is _pairwise(a[:, None], b[None], metric).

    The steps after the subtraction work in place where they can: a
    fresh temporary the size of a large block costs more in page faults
    than its arithmetic.
    """
    if metric == "linf":
        # a running maximum over the coordinate columns: numpy reduces a
        # short last axis slowly, and max is exact in any order
        out = a[..., 0] - b[..., 0]
        np.abs(out, out=out)
        col = None
        for k in range(1, a.shape[-1]):
            col = np.subtract(a[..., k], b[..., k], out=col)
            np.maximum(out, np.abs(col, out=col), out=out)
        return out
    diff = a - b
    if metric == "euclidean":
        out = np.multiply(diff, diff, out=diff).sum(axis=-1)
        return np.sqrt(out, out=out)
    if metric == "l1":
        return np.abs(diff, out=diff).sum(axis=-1)
    raise ValueError(f"unknown metric {metric!r}")


def _check_bounds(start: float, stop: float) -> None:
    # a grid spans start + (i/steps) * (stop - start): an infinite span
    # would turn 0 * inf into NaN before the coordinate check sees it
    if not np.isfinite(float(stop) - float(start)):
        raise ValueError("grid bounds must be finite")


class FiniteMetricSpace:
    """Indexed point set with a symmetric distance oracle.

    Points are addressed by index 0..n-1; ``labels`` carries an opaque
    per-point label (grid coordinates for generated grids).  A matrix
    space keeps its matrix; a coordinate space keeps its coordinates and
    metric only and computes each distance row or block on demand, so it
    never holds an n x n array.  Given both, the matrix is used.
    """

    def __init__(
        self,
        *,
        matrix: np.ndarray | None = None,
        coords: np.ndarray | None = None,
        metric: str = "euclidean",
        labels: tuple | None = None,
    ):
        if matrix is None and coords is None:
            raise ValueError("need a distance matrix or point coordinates")
        self._metric = metric
        self._coords = None
        self._matrix = None
        if coords is not None:
            if metric not in _METRICS:
                raise ValueError(f"unknown metric {metric!r}")
            coords = np.ascontiguousarray(np.asarray(coords, dtype=np.float64))
            if coords.ndim != 2 or coords.shape[0] == 0:
                raise ValueError("coords must be a non-empty (n, d) array")
            if not np.all(np.isfinite(coords)):
                raise ValueError("coordinates must be finite")
            self._coords = coords
            self.n = coords.shape[0]
        if matrix is not None:
            matrix = np.asarray(matrix, dtype=np.float64)
            if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.shape[0] == 0:
                raise ValueError("distance matrix must be square and non-empty")
            if self._coords is None:
                self.n = matrix.shape[0]
            elif matrix.shape[0] != self.n:
                raise ValueError("matrix size does not match coords")
            if np.any(np.diagonal(matrix) != 0.0):
                raise ValueError("nonzero diagonal in distance matrix")
            if np.any(matrix < 0.0) or np.any(~np.isfinite(matrix)):
                raise ValueError("distances must be finite and nonnegative")
            if not np.array_equal(matrix, matrix.T):
                raise ValueError("distance matrix must be exactly symmetric")
            matrix.setflags(write=False)
            self._matrix = matrix
        if self._coords is not None:
            self._coords.setflags(write=False)
        # a linf distance, or an l1 distance on a line, is max_k |c_k(x) -
        # c_k(y)| with the very roundings _pairwise makes, so the
        # coordinates are a spread array for prefix_diameters
        self._spread = self._matrix is None and (
            metric == "linf" or (metric == "l1" and self._coords.shape[1] == 1))
        if labels is None:
            if self._coords is not None:
                labels = tuple(map(tuple, self._coords.tolist()))
            else:
                labels = tuple(range(self.n))
        if len(labels) != self.n:
            raise ValueError("labels length does not match point count")
        self.labels = tuple(labels)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_matrix(cls, matrix, labels: tuple | None = None) -> "FiniteMetricSpace":
        return cls(matrix=matrix, labels=labels)

    @classmethod
    def grid1d(cls, start: float = 0.0, stop: float = 1.0, steps: int = 1) -> "FiniteMetricSpace":
        """Uniform grid with ``steps`` intervals (steps + 1 points).

        For the unit interval the coordinates are the correctly rounded
        rationals i/steps, which keeps interval-membership claims exact.
        """
        if steps < 1:
            raise ValueError("steps must be >= 1")
        _check_bounds(start, stop)
        frac = np.arange(steps + 1, dtype=np.float64) / steps
        if start == 0.0 and stop == 1.0:
            xs = frac
        else:
            xs = start + frac * (stop - start)
        coords = xs[:, None]
        labels = tuple(float(v) for v in xs.tolist())
        return cls(coords=coords, metric="linf", labels=labels)

    @classmethod
    def grid2d(
        cls,
        x: tuple[float, float, int],
        y: tuple[float, float, int],
        metric: str = "euclidean",
    ) -> "FiniteMetricSpace":
        """Cartesian product grid, x-major ordering."""
        x0, x1, nx = x
        y0, y1, ny = y
        if nx < 1 or ny < 1:
            raise ValueError("steps must be >= 1")
        _check_bounds(x0, x1)
        _check_bounds(y0, y1)
        xs = x0 + (np.arange(nx + 1, dtype=np.float64) / nx) * (x1 - x0)
        ys = y0 + (np.arange(ny + 1, dtype=np.float64) / ny) * (y1 - y0)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        coords = np.column_stack([gx.ravel(), gy.ravel()])
        return cls(coords=coords, metric=metric)

    @classmethod
    def pointcloud(cls, points, metric: str = "euclidean") -> "FiniteMetricSpace":
        return cls(coords=np.asarray(points, dtype=np.float64), metric=metric)

    # ------------------------------------------------------------------
    # distance access

    def dist(self, i: int, j: int) -> float:
        return float(self._pairs([i], [j])[0])

    def row(self, i: int) -> np.ndarray:
        """Distances from point i to every point, shape (n,)."""
        if self._matrix is not None:
            return self._matrix[i]
        return _pairwise(self._coords[i], self._coords, self._metric)

    def block(self, idx: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
        """Distance block, shape (len(idx), n), or (len(idx), len(cols))."""
        if self._matrix is not None:
            return self._matrix[idx] if cols is None else self._matrix[np.ix_(idx, cols)]
        other = self._coords if cols is None else self._coords[cols]
        return _pairwise(self._coords[idx][:, None], other[None], self._metric)

    def _pairs(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Distances d(i[t], j[t]) for index arrays of one shape."""
        if self._matrix is not None:
            return self._matrix[i, j]
        return _pairwise(self._coords[i], self._coords[j], self._metric)

    def _ball_intervals(self, eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Every closed eps-ball as a run of the sort order, on a line.

        Returns None for a matrix space or a coordinate space with d >= 2.
        Otherwise returns (order, lo, hi): the stable sort order of the
        coordinate and, for each sorted position i, the first and last
        sorted positions of the ball around point order[i].  Each 1-D
        distance (linf, l1 and Euclidean alike) is a nondecreasing
        function of fl(|c_x - c_y|), and rounded subtraction is monotone,
        so along the sort order d(order[i], .) falls to 0 at i and rises
        after it: the ball is a contiguous run.  A searchsorted guess
        places each end, and every guess that fails an exact check with
        this space's own arithmetic is bisected, so position j lies in
        [lo[i], hi[i]] exactly when block(order[i]) <= eps holds at
        order[j].  eps must be >= 0.
        """
        if self._matrix is not None or self._coords.shape[1] != 1:
            return None
        order = np.argsort(self._coords[:, 0], kind="stable")
        s = self._coords[order, 0]
        pos = np.arange(self.n)

        def inside(i, j):
            return self._pairs(order[i], order[j]) <= eps

        def run_end(guess, stop):
            # the last position from i toward stop (exclusive) inside the ball
            beyond = guess + np.sign(stop)
            ok = inside(pos, guess) & ((beyond == stop) | ~inside(pos, np.clip(beyond, 0, self.n - 1)))
            bad = np.flatnonzero(~ok)
            if bad.size:
                # bisect between a position inside (a) and one outside (b)
                hit = inside(bad, guess[bad])
                a = np.where(hit, guess[bad], bad)
                b = np.where(hit, stop, guess[bad])
                while True:
                    open_ = np.flatnonzero(np.abs(b - a) > 1)
                    if not open_.size:
                        break
                    mid = (a[open_] + b[open_]) // 2
                    hit = inside(bad[open_], mid)
                    a[open_] = np.where(hit, mid, a[open_])
                    b[open_] = np.where(hit, b[open_], mid)
                guess[bad] = a
            return guess

        with np.errstate(over="ignore"):  # an end past the largest float is still a guess
            lo_guess = np.searchsorted(s, s - eps, side="left")
            hi_guess = np.searchsorted(s, s + eps, side="right") - 1
        return order, run_end(lo_guess, -1), run_end(hi_guess, self.n)

    def prefix_diameters(self, order) -> np.ndarray:
        """Running diameter of the points in ``order`` as each one enters.

        linf spaces and 1-D l1 spaces pass their coordinates in entry
        order to :func:`prefix_diameters`'s spread path, O(m d) and exact;
        every other space passes its distance block, O(m^2).
        """
        if self._spread:
            return prefix_diameters(self._coords[order])
        return prefix_diameters(self.block, order)

    def diameter(self) -> float:
        """Max pairwise distance of the whole space (its scale).

        This is the last running diameter over all points.  On the spread
        path that is the largest coordinate range, max_k (max c_k - min
        c_k), which needs no running arrays; it equals the pairwise
        maximum exactly, as :func:`prefix_diameters` explains.
        """
        if self._spread:
            return float((self._coords.max(axis=0) - self._coords.min(axis=0)).max())
        return float(prefix_diameters(self.block, np.arange(self.n))[-1])

    def min_positive_distance(self) -> float:
        """Smallest positive pairwise distance; inf if every distance is 0.

        On a line under linf or l1 the distance is fl(|c_x - c_y|), which
        grows along the sort order away from each point, so the smallest
        positive gap between sorted neighbours is the answer, O(n log n).
        Every other space scans its distance blocks, about 4096 cells at a
        time, O(n^2).
        """
        if self._spread and self._coords.shape[1] == 1:
            gaps = np.diff(np.sort(self._coords[:, 0]))
            return float(np.min(gaps, where=gaps > 0.0, initial=np.inf))
        rows = max(1, 4096 // self.n)
        blocks = (self.block(np.arange(lo, min(lo + rows, self.n))) for lo in range(0, self.n, rows))
        return min(float(np.min(b, where=b > 0.0, initial=np.inf)) for b in blocks)

    # ------------------------------------------------------------------
    # validation

    def validate(self, rng: np.random.Generator | None = None, tol: float | None = None) -> bool:
        """Check metric axioms: zero diagonal, symmetry, triangle inequality.

        Exhaustive for n <= 200, on 200_000 random triples beyond.  The
        triangle check d(i, k) <= d(i, j) + d(j, k) allows float-noise
        slack ``tol``, by default 64 ulps of the largest d(i, j) or d(j, k)
        checked, because a+b may round below an exactly stored a+b
        distance.  Returns True; raises ValueError naming the first
        violated axiom otherwise.
        """
        if self.n <= 200:
            m = self.block(np.arange(self.n))
            if np.any(np.diagonal(m) != 0.0):
                raise ValueError("metric violation: nonzero self-distance")
            if not np.array_equal(m, m.T):
                raise ValueError("metric violation: asymmetric distances")
            largest = m.max()
            lhs, rhs = m, np.min(m[:, :, None] + m[None, :, :], axis=1)
            sampled = ""
        else:
            # a stored matrix had its diagonal and symmetry checked in full
            # at construction; coordinate distances have both exactly
            rng = rng if rng is not None else np.random.default_rng(0)
            i, j, k = rng.integers(0, self.n, size=(3, 200_000))
            d_ij, d_jk = self._pairs(i, j), self._pairs(j, k)
            largest = max(d_ij.max(), d_jk.max())
            lhs, rhs = self._pairs(i, k), d_ij + d_jk
            sampled = " (sampled)"
        if tol is None:
            tol = 64.0 * np.finfo(np.float64).eps * float(largest)
        if np.any(lhs > rhs + tol):
            raise ValueError("metric violation: triangle inequality fails" + sampled)
        return True

    def __repr__(self) -> str:  # pragma: no cover
        kind = "matrix" if self._coords is None else self._metric
        return f"FiniteMetricSpace(n={self.n}, {kind})"


@dataclass(frozen=True, eq=False)
class PointSubset:
    """Subset of a space's points, stored as an index set.

    Set claims (inclusion, disjointness, equality) are exact operations
    on these index sets; no float tolerance is ever involved.
    """

    space: FiniteMetricSpace
    members: frozenset[int]

    def __post_init__(self):
        if self.members:
            low, high = min(self.members), max(self.members)
            if not (0 <= low and high < self.space.n):
                raise ValueError(f"point index {low if low < 0 else high} out of range")

    @classmethod
    def of(cls, space: FiniteMetricSpace, indices: Iterable[int]) -> "PointSubset":
        return cls(space, frozenset(int(i) for i in indices))

    def sorted_indices(self) -> np.ndarray:
        return np.array(sorted(self.members), dtype=np.int64)

    def issubset(self, other: "PointSubset") -> bool:
        self._same_space(other)
        return self.members <= other.members

    def isdisjoint(self, other: "PointSubset") -> bool:
        self._same_space(other)
        return self.members.isdisjoint(other.members)

    def intersection(self, other: "PointSubset") -> "PointSubset":
        self._same_space(other)
        return PointSubset(self.space, self.members & other.members)

    def _same_space(self, other: "PointSubset") -> None:
        if self.space is not other.space:
            raise ValueError("subsets live on different spaces")

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, i: int) -> bool:
        return i in self.members

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.members))


def ball(space: FiniteMetricSpace, center: int, eps: float) -> PointSubset:
    """Closed ball {x : d(x, center) <= eps} as an index subset.

    The boundary is included via plain float <=; eps must be >= 0.
    """
    if not (0 <= center < space.n):
        raise ValueError(f"center index {center} out of range")
    if not (eps >= 0.0):
        raise ValueError("ball radius must be nonnegative")
    row = space.row(center)
    return PointSubset(space, frozenset(np.flatnonzero(row <= eps).tolist()))


def prefix_diameters(dist, order=None) -> np.ndarray:
    """Running diameter of a sequence of points as each one enters.

    Entry j is the max distance among the first j + 1 points.  There are
    two ways in:

    - ``dist`` is a block function and ``order`` the point indices in
      entry order; dist(rows, cols) gives the distances between two index
      arrays.  One row chunk is filled at a time, so memory stays
      O(chunk * len(order)) and the work is O(m^2).
    - ``dist`` is an (m, k) spread array of per-point projections in
      entry order, for a distance d(x, y) = max_k |s_k(x) - s_k(y)|, and
      ``order`` is not given.  The running diameter is then the largest
      running range of a column, max_k (cummax s_k - cummin s_k), in
      O(m k).  For finite projections it equals the pairwise maximum bit
      for bit: rounded subtraction is monotone, so fl(max - min) = max
      over pairs of fl(|s_i - s_j|).
    """
    if not callable(dist):
        spread = np.asarray(dist)
        return (np.maximum.accumulate(spread) - np.minimum.accumulate(spread)).max(axis=1)
    order = np.asarray(order)
    step = max(1, _CHUNK_CELLS // max(order.size, 1))
    row_max = np.zeros(order.size)
    for lo in range(0, order.size, step):
        d = dist(order[lo:lo + step], order[:lo + step])
        # row lo + i meets the points entered up to and including itself
        row_max[lo:lo + step] = np.tril(d, lo).max(axis=1)
    return np.maximum.accumulate(row_max)


def sublevel_diameters(values, grid, prefix) -> np.ndarray:
    """Diameters of {v <= min v + t} for every t in grid, from one sort.

    prefix(order) is the running diameter of the points in order.  Each
    cut uses the float sum and the <= of argmin_set, so each set is
    exactly argmin_set(f, t) and each diameter exactly its diam.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if not np.all(grid >= 0.0):
        raise ValueError("eps must be nonnegative")
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    cuts = np.searchsorted(ranked, ranked[0] + grid, side="right")
    return prefix(order[:cuts.max(initial=1)])[cuts - 1]


def diam(subset: PointSubset) -> float:
    """Max pairwise distance over the subset; 0 for singletons.

    The diameter of the empty set is undefined and raises.
    """
    if len(subset) == 0:
        raise ValueError("diameter of the empty set is undefined")
    return float(subset.space.prefix_diameters(subset.sorted_indices())[-1])


def set_distance(a: PointSubset, b: PointSubset) -> float:
    """Min distance over pairs (one point from each subset)."""
    a._same_space(b)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("set distance needs non-empty subsets")
    ia = a.sorted_indices()
    ib = b.sorted_indices()
    step = max(1, _CHUNK_CELLS // ib.size)
    return float(min(a.space.block(ia[lo:lo + step], ib).min() for lo in range(0, ia.size, step)))


# ----------------------------------------------------------------------
# JSON descriptors
#
# { "kind": "grid1d"|"grid2d"|"pointcloud",
#   "params": {...},
#   "metric": "euclidean"|"linf"|"l1"|"matrix" }
# For metric "matrix", params carries an explicit row-major distance
# matrix under "matrix" (nested lists).


def space_from_json(desc: dict) -> FiniteMetricSpace:
    """Build a space from its JSON descriptor dict."""
    if not isinstance(desc, dict):
        raise ValueError("space descriptor must be an object")
    kind = desc.get("kind")
    params = desc.get("params", {})
    metric = desc.get("metric", "euclidean")
    if metric == "matrix":
        mat = params.get("matrix")
        if mat is None:
            raise ValueError("metric 'matrix' needs params.matrix")
        space = FiniteMetricSpace.from_matrix(np.asarray(mat, dtype=np.float64),
                                              labels=tuple(params["labels"]) if "labels" in params else None)
        space.validate()
        return space
    if kind == "grid1d":
        return FiniteMetricSpace.grid1d(params.get("start", 0.0), params.get("stop", 1.0), int(params["steps"]))
    if kind == "grid2d":
        return FiniteMetricSpace.grid2d(
            (params["x"][0], params["x"][1], int(params["x"][2])),
            (params["y"][0], params["y"][1], int(params["y"][2])),
            metric=metric,
        )
    if kind == "pointcloud":
        return FiniteMetricSpace.pointcloud(params["points"], metric=metric)
    raise ValueError(f"unknown space kind {kind!r}")


def space_to_json(space: FiniteMetricSpace) -> dict:
    """Serialize a space as an explicit-matrix descriptor (always exact)."""
    m = space._matrix if space._matrix is not None else space.block(np.arange(space.n))
    return {
        "kind": "pointcloud",
        "metric": "matrix",
        "params": {"matrix": [[float(v) for v in row] for row in m.tolist()]},
    }
