"""Finite metric spaces, balls, diameters and sublevel sweeps.

Every downstream object (objectives, parametric families, perturbations)
lives on a :class:`FiniteMetricSpace`: an indexed point set with a
symmetric distance oracle.  A space owns what it was given: a copy of a
distance matrix, or of point coordinates (grids, point clouds) plus a
standard metric, from which every distance is computed on demand with the
same per-cell arithmetic.  Nothing can change a space's distances after
construction, so it keeps what it computes about the whole space: its
diameter, its smallest positive distance and its last ball table.  A
subset is a sorted index array with exact subset and membership tests;
ball membership uses plain float comparisons with zero tolerance.
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
    "space_from_json",
    "sublevel_diameters",
]

# cells per row chunk when a distance block is filled piecewise
_CHUNK_CELLS = 1 << 15
# the most rows a block sweep fills before it tests its stop
_SWEEP_ROWS = 64
# cells per chunk of sweep rows when their coordinates are gathered
_GATHER_CELLS = 1 << 20
# cells of the (centres, n) mask of one ball-table chunk, and the most
# members a space keeps a ball table of
_BALL_CELLS = 1 << 20

_METRICS = ("euclidean", "linf", "l1")
# why sublevel_diameters refuses a row
_NO_SETS = "min v + max(grid) is NaN, from a NaN value or from -inf with an infinite threshold"


def _pairwise(a: np.ndarray, b: np.ndarray, metric: str, out: np.ndarray | None = None,
              col: np.ndarray | None = None) -> np.ndarray:
    """Distances between points a and b, arrays of shape (..., d) that
    broadcast against each other; the all-pairs block of (na, d) and
    (nb, d) arrays is _pairwise(a[:, None], b[None], metric).  Metric
    "sqeuclidean" gives the euclidean squares before their root.

    One in-place loop over the coordinate columns for every metric: numpy
    reduces a short last axis slowly, and a block-sized temporary costs
    more in page faults than its arithmetic.  A caller that fills block
    after block may pass the result array ``out`` and the column array
    ``col``, both of the block's shape, to be reused.  For d <= 7 the
    sums equal numpy's axis reduction bit for bit (no CLI or benchmark
    space has d >= 8).
    """
    fold = np.maximum if metric == "linf" else np.add
    term = np.square if metric in ("euclidean", "sqeuclidean") else np.abs
    out = np.subtract(a[..., 0], b[..., 0], out=out)
    term(out, out=out)
    for k in range(1, a.shape[-1]):
        col = np.subtract(a[..., k], b[..., k], out=col)
        fold(out, term(col, out=col), out=out)
    if metric == "euclidean":
        np.sqrt(out, out=out)
    return out


def _ranges(coords: np.ndarray) -> np.ndarray:
    """Each coordinate column's range fl(max c_k - min c_k), shape (d,).

    One column at a time: numpy's axis-0 reduction of an (n, d) array
    steps through its short rows and is about ten times slower.  The
    values are those of coords.max(axis=0) - coords.min(axis=0) bit for
    bit.
    """
    return np.array([c.max() - c.min() for c in coords.T])


def _integer(val, name: str) -> int:
    """A count or an index: a fraction is an error, not truncated."""
    if isinstance(val, float) and not val.is_integer():
        raise ValueError(f"{name} must be an integer, got {val}")
    return int(val)


def _count(val, name: str) -> int:
    """A count field of a descriptor: a fraction or a negative number is
    an error, not truncated or clamped."""
    n = _integer(val, name)
    if n < 0:
        raise ValueError(f"{name} must be nonnegative, got {val}")
    return n


def _span(coords: np.ndarray, metric: str) -> float:
    """The metric's distance across the per-column ranges of coords (n, d),
    inf where it overflows.  Rounding is monotone and a range minus 0 is
    exact, so no distance between points of their bounding box exceeds it;
    it is the diameter for linf, and may exceed it for l1 and euclidean."""
    with np.errstate(over="ignore"):
        ranges = _ranges(coords)
        return float(_pairwise(ranges[None], np.zeros((1, ranges.size)), metric)[0])


def _check_bounds(start: float, stop: float) -> None:
    # a grid spans start + (i/steps) * (stop - start): an infinite span
    # would turn 0 * inf into NaN before the coordinate check sees it
    if not np.isfinite(float(stop) - float(start)):
        raise ValueError("grid bounds must be finite")


class FiniteMetricSpace:
    """Indexed point set with a symmetric distance oracle.

    Points are addressed by index 0..n-1.  The constructor takes exactly
    one of a distance matrix or point coordinates.  A matrix space keeps
    its matrix; a coordinate space keeps its coordinates and metric only
    and computes each distance row or block on demand, so it never holds
    an n x n array.  The kept array is a read-only copy of the caller's,
    so no write through the caller's array or its base can move a
    distance, and the space keeps what it computes from them:
    diameter(), min_positive_distance() and the last ball table are each
    computed once, on the first call that needs them.
    """

    def __init__(
        self,
        *,
        matrix: np.ndarray | None = None,
        coords: np.ndarray | None = None,
        metric: str = "euclidean",
    ):
        if (matrix is None) == (coords is None):
            raise ValueError("need exactly one of a distance matrix or point coordinates")
        self._metric = metric
        self._coords = None
        self._matrix = None
        if coords is not None:
            if metric not in _METRICS:
                raise ValueError(f"unknown metric {metric!r}")
            coords = np.array(coords, dtype=np.float64, order="C")
            if coords.ndim != 2 or coords.size == 0:
                raise ValueError("coords must be a non-empty (n, d) array")
            if not np.all(np.isfinite(coords)):
                raise ValueError("coordinates must be finite")
            if coords.shape[1] == 1:
                # on a line every metric is |x - y|, which linf computes exactly
                self._metric = metric = "linf"
            coords.setflags(write=False)
            self._coords = coords
            self.n = coords.shape[0]
            # where the span is finite, no block can overflow
            if not _span(coords, metric) < np.inf:
                raise ValueError("coordinate distances may overflow: the point spread is too wide")
        else:
            matrix = np.array(matrix, dtype=np.float64)
            if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.shape[0] == 0:
                raise ValueError("distance matrix must be square and non-empty")
            self.n = matrix.shape[0]
            if np.any(np.diagonal(matrix) != 0.0):
                raise ValueError("nonzero diagonal in distance matrix")
            if np.any(matrix < 0.0) or np.any(~np.isfinite(matrix)):
                raise ValueError("distances must be finite and nonnegative")
            if not np.array_equal(matrix, matrix.T):
                raise ValueError("distance matrix must be exactly symmetric")
            matrix.setflags(write=False)
            self._matrix = matrix
        # a linf distance is max_k |c_k(x) - c_k(y)| with _pairwise's own
        # roundings, so the coordinates are a spread array for prefix_diameters
        self._spread = self._matrix is None and metric == "linf"
        # (eps, chunks) of the last ball table small enough to keep
        self._balls = None
        # diameter() and min_positive_distance(), once computed
        self._diameter = None
        self._spacing = None

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_matrix(cls, matrix) -> "FiniteMetricSpace":
        return cls(matrix=matrix)

    @classmethod
    def grid1d(cls, start: float = 0.0, stop: float = 1.0, steps: int = 1) -> "FiniteMetricSpace":
        """Uniform grid with ``steps`` intervals (steps + 1 points).

        For the unit interval the coordinates are the correctly rounded
        rationals i/steps, which keeps interval-membership claims exact.
        """
        if steps < 1:
            raise ValueError("steps must be >= 1")
        steps = _integer(steps, "steps")
        _check_bounds(start, stop)
        frac = np.arange(steps + 1, dtype=np.float64) / steps
        if start == 0.0 and stop == 1.0:
            xs = frac
        else:
            xs = start + frac * (stop - start)
        return cls(coords=xs[:, None], metric="linf")

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
        nx, ny = _integer(nx, "x steps"), _integer(ny, "y steps")
        _check_bounds(x0, x1)
        _check_bounds(y0, y1)
        xs = x0 + (np.arange(nx + 1, dtype=np.float64) / nx) * (x1 - x0)
        ys = y0 + (np.arange(ny + 1, dtype=np.float64) / ny) * (y1 - y0)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        coords = np.column_stack([gx.ravel(), gy.ravel()])
        return cls(coords=coords, metric=metric)

    @classmethod
    def pointcloud(cls, points, metric: str = "euclidean") -> "FiniteMetricSpace":
        return cls(coords=points, metric=metric)

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
        sorted positions of the ball around point order[i].  A 1-D
        distance is fl(|c_x - c_y|), and rounded subtraction is monotone,
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

    def _ball_table(self, eps: float) -> Iterator[tuple[np.ndarray, list[np.ndarray]]]:
        """Every closed eps-ball in jagged-diagonal storage, by chunks of centres.

        Yields (centres, levels) for each chunk of _BALL_CELLS // n points
        (one at least).  centres holds the chunk's points sorted stably by
        descending ball size; levels[b] holds the b-th member, in point
        order, of the balls around centres[:levels[b].size], the centres
        whose ball has more than b members.  A ball's members are the
        points where block(centre) <= eps, as in :func:`ball`; every point
        lies in its own ball (d(x, x) = 0 exactly: the coordinate kernel
        subtracts equal numbers, and a matrix space's diagonal is checked
        to be zero), so levels[0] covers every centre.  eps must be >= 0.

        The space keeps the table of the last radius asked for if it holds
        at most _BALL_CELLS members in all, once the build has been read to
        the end; a larger table is rebuilt, one chunk at a time, on each call.
        """
        kept = self._balls
        if kept is not None and kept[0] == eps:
            yield from kept[1]
            return
        chunks, members = [], 0
        step = max(1, _BALL_CELLS // self.n)
        for lo in range(0, self.n, step):
            mask = self.block(np.arange(lo, min(lo + step, self.n))) <= eps
            size = np.count_nonzero(mask, axis=1)
            rank = np.argsort(-size, kind="stable")
            size = size[rank]
            row, col = np.nonzero(mask[rank])
            # the member at depth b of the ball at rank r goes to level b,
            # position r: the balls deeper than b are the first ranks
            depth = np.arange(col.size) - np.repeat(np.cumsum(size) - size, size)
            width = np.bincount(depth)
            start = np.cumsum(width) - width
            flat = np.empty_like(col)
            flat[start[depth] + row] = col
            chunk = (lo + rank, np.split(flat, start[1:]))
            members += col.size
            if members <= _BALL_CELLS:
                chunks.append(chunk)
            yield chunk
        if members <= _BALL_CELLS:
            self._balls = (eps, chunks)

    def prefix_diameters(self, order) -> np.ndarray:
        """Running diameter of the points in ``order`` as each one enters.

        ``order`` is one (m,) index sequence, giving (m,) diameters, or a
        (k, m) block of them, giving (k, m), one running diameter per row.
        linf spaces, every 1-D space among them, pass their coordinates to
        :func:`prefix_diameters`'s spread path, O(m d) per row and exact;
        every other space passes its distance block, O(m^2) per row.  A
        block goes a chunk of rows at a time, so that each gathered
        (rows, m) coordinate column stays under _GATHER_CELLS cells (one
        row at least).
        """
        order = np.asarray(order)
        dist = self._coords if self._spread else self.block
        if order.ndim == 1:
            return prefix_diameters(dist, order)
        out = np.empty(order.shape)
        step = max(1, _GATHER_CELLS // max(order.shape[1], 1))
        for lo in range(0, len(order), step):
            out[lo:lo + step] = prefix_diameters(dist, order[lo:lo + step])
        return out

    def diameter(self) -> float:
        """Max pairwise distance of the whole space (its scale), computed
        on the first call and kept.

        This is the last running diameter over all points.  On the spread
        path that is the largest coordinate range, max_k (max c_k - min
        c_k) (:func:`_ranges`), which needs no running arrays; it equals
        the pairwise maximum exactly, as :func:`prefix_diameters` explains.
        """
        if self._diameter is None:
            if self._spread:
                self._diameter = float(_ranges(self._coords).max())
            else:
                self._diameter = float(prefix_diameters(self.block, np.arange(self.n))[-1])
        return self._diameter

    def min_positive_distance(self) -> float:
        """Smallest positive pairwise distance; inf if every distance is 0.
        Computed on the first call and kept.

        On a line the distance is fl(|c_x - c_y|), which grows along the
        sort order away from each point, so the smallest positive gap
        between sorted neighbours is the answer, O(n log n).
        Every other space scans its distance blocks, about 4096 cells at a
        time, O(n^2).
        """
        if self._spacing is None:
            if self._spread and self._coords.shape[1] == 1:
                gaps = np.diff(np.sort(self._coords[:, 0]))
                self._spacing = float(np.min(gaps, where=gaps > 0.0, initial=np.inf))
            else:
                rows = max(1, 4096 // self.n)
                blocks = (self.block(np.arange(lo, min(lo + rows, self.n)))
                          for lo in range(0, self.n, rows))
                self._spacing = min(float(np.min(b, where=b > 0.0, initial=np.inf)) for b in blocks)
        return self._spacing

    # ------------------------------------------------------------------
    # validation

    def validate(self, rng: np.random.Generator | None = None) -> bool:
        """Check metric axioms: zero diagonal, symmetry, triangle inequality.

        Exhaustive for n <= 200, on 200_000 random triples beyond.  The
        triangle check d(i, k) <= d(i, j) + d(j, k) allows float-noise
        slack of 64 ulps of the largest d(i, j) or d(j, k) checked,
        because a+b may round below an exactly stored a+b distance.
        Returns True; raises ValueError naming the first violated axiom
        otherwise.
        """
        if self.n <= 200:
            m = self.block(np.arange(self.n))
            if np.any(np.diagonal(m) != 0.0):
                raise ValueError("metric violation: nonzero self-distance")
            if not np.array_equal(m, m.T):
                raise ValueError("metric violation: asymmetric distances")
            largest = m.max()
            # min_j d(i, j) + d(j, k) a row chunk at a time, not as one n^3 temporary
            step = max(1, _CHUNK_CELLS // (self.n * self.n))
            lhs, rhs = m, np.concatenate([np.min(m[lo:lo + step, :, None] + m[None], axis=1)
                                          for lo in range(0, self.n, step)])
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
        tol = 64.0 * np.finfo(np.float64).eps * float(largest)
        if np.any(lhs > rhs + tol):
            raise ValueError("metric violation: triangle inequality fails" + sampled)
        return True

    def __repr__(self) -> str:  # pragma: no cover
        kind = "matrix" if self._coords is None else self._metric
        return f"FiniteMetricSpace(n={self.n}, {kind})"


@dataclass(frozen=True, eq=False)
class PointSubset:
    """Subset of a space's points, stored as a sorted index array.

    indices is read-only and strictly increasing, and the subset owns it:
    the constructor copies what it is given, so neither the caller's array
    nor any array it shares memory with can change the subset later.  Set
    claims look one such array up in the other: exact integer comparisons,
    no float tolerance.

    The constructor (and PointSubset.of) checks a caller's indices:
    integer dtype, one strictly increasing array, inside the space.  The
    library's own masks (argmin_set, ball) go through PointSubset._where,
    whose np.flatnonzero proves all three, and skip the checks.
    """

    space: FiniteMetricSpace
    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices)
        # a cast would truncate fractions and read a bool mask as indices 0 and 1
        if idx.size and idx.dtype.kind not in "iu":
            raise ValueError(f"subset indices must be integers, got dtype {idx.dtype}")
        idx = idx.astype(np.intp)  # a copy, checked below and never shared
        if idx.ndim != 1 or np.any(idx[1:] <= idx[:-1]):
            raise ValueError("subset indices must be one strictly increasing array")
        if idx.size and not (0 <= idx[0] and idx[-1] < self.space.n):
            raise ValueError(f"point index {idx[0] if idx[0] < 0 else idx[-1]} out of range")
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    @classmethod
    def _where(cls, space: FiniteMetricSpace, mask: np.ndarray) -> "PointSubset":
        """The points where an (n,) bool mask over the space holds.  Its
        np.flatnonzero is a fresh intp array, strictly increasing and inside
        [0, n), so the subset adopts it unchecked and uncopied."""
        idx = np.flatnonzero(mask)
        idx.setflags(write=False)
        subset = object.__new__(cls)
        object.__setattr__(subset, "space", space)
        object.__setattr__(subset, "indices", idx)
        return subset

    @classmethod
    def of(cls, space: FiniteMetricSpace, indices: Iterable[int]) -> "PointSubset":
        """Subset of integer indices in any order, repeats allowed."""
        return cls(space, np.unique(np.array(list(indices))))

    def _found_in(self, other: "PointSubset") -> np.ndarray:
        """Mask over indices: which of them other holds (two insertion points)."""
        self._same_space(other)
        lo, hi = (np.searchsorted(other.indices, self.indices, side) for side in ("left", "right"))
        return hi > lo

    def issubset(self, other: "PointSubset") -> bool:
        return bool(self._found_in(other).all())

    def _same_space(self, other: "PointSubset") -> None:
        if self.space is not other.space:
            raise ValueError("subsets live on different spaces")

    def __len__(self) -> int:
        return self.indices.size

    def __contains__(self, i: int) -> bool:
        return bool(np.searchsorted(self.indices, i, "right") > np.searchsorted(self.indices, i))

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices.tolist())


def ball(space: FiniteMetricSpace, center: int, eps: float) -> PointSubset:
    """Closed ball {x : d(x, center) <= eps} as an index subset.

    The boundary is included via plain float <=; eps must be >= 0.
    Only center and eps are checked; PointSubset._where wraps the mask.
    """
    if not (0 <= center < space.n):
        raise ValueError(f"center index {center} out of range")
    center = _integer(center, "center index")
    if not (eps >= 0.0):
        raise ValueError("ball radius must be nonnegative")
    return PointSubset._where(space, space.row(center) <= eps)


def prefix_diameters(dist, order, stop: float = np.inf) -> np.ndarray:
    """Running diameter of a sequence of points as each one enters.

    Entry j is the max distance among the first j + 1 points.  ``order``
    holds the point indices in entry order: one (m,) sequence, giving
    (m,) diameters, or a (k, m) block of sequences, giving (k, m), row i
    the running diameter of order[i].  There are two ways in:

    - ``dist`` is a block function; dist(rows, cols) gives the distances
      between two index arrays.  Each row of ``order`` is swept on its
      own, one row chunk of the distances at a time, so memory stays
      O(chunk * m) and the work is O(m^2) per row.  A one-row sweep
      returns after the first chunk whose running diameter reaches
      ``stop``: the result is then a prefix of the running diameter that
      holds its first entry >= stop, and no later distance is computed.
      A chunk holds at most 64 rows (:func:`_sweep_rows`), so a stopped
      sweep computes at most 63 rows past the one that reaches ``stop``.
      A caller that reads only whether entries lie below ``stop`` loses
      nothing, since the running diameter never decreases.
    - ``dist`` is an (n, c) spread array of per-point projections, for a
      distance d(x, y) = max_k |s_k(x) - s_k(y)|.  The running diameter
      is then the largest running range of a column, max_k (cummax s_k -
      cummin s_k), in O(m c).  For finite projections it equals the pairwise
      maximum bit for bit: rounded subtraction is monotone, so fl(max -
      min) = max over pairs of fl(|s_i - s_j|).  The columns are gathered
      and folded one at a time: numpy reduces a short last axis slowly.
      This path ignores ``stop`` and returns every entry.

    Entry j depends on the set of the first j + 1 points only, not on
    their order: a max is exact in any order, and the distances computed
    here are symmetric bit for bit (fl(|a - b|) = fl(|b - a|), and a
    stored matrix is checked to be symmetric).
    """
    if not callable(dist):
        out = None
        for col in np.asarray(dist).T:
            col = col[order]
            run = np.maximum.accumulate(col, axis=-1)
            run -= np.minimum.accumulate(col, axis=-1)
            out = run if out is None else np.maximum(out, run, out=out)
        return out
    order = np.asarray(order)
    if order.ndim == 2:
        return np.array([prefix_diameters(dist, row) for row in order]).reshape(order.shape)
    step = _sweep_rows(order.size)
    row_max = np.zeros(order.size)
    for lo in range(0, order.size, step):
        d = dist(order[lo:lo + step], order[:lo + step])
        # row lo + i meets the points entered up to and including itself:
        # every column before the chunk, then its own square's lower
        # triangle (a masked zero never wins: the diagonal is 0 already)
        own = np.tril(d[:, lo:]).max(axis=1)
        row_max[lo:lo + step] = own if lo == 0 else np.maximum(d[:, :lo].max(axis=1), own)
        if row_max[lo:lo + step].max() >= stop:
            return np.maximum.accumulate(row_max[:lo + step])
    return np.maximum.accumulate(row_max)


def _sweep_rows(m: int) -> int:
    """Rows per chunk of a block sweep over m points, the one schedule of
    prefix_diameters's block path and _euclidean_prefix: _SWEEP_ROWS, or
    fewer where _SWEEP_ROWS rows of m cells would pass _CHUNK_CELLS (one
    row at least).  A stopped sweep has computed the whole chunk that
    holds the row reaching its stop, so shorter chunks stop sooner."""
    return max(1, min(_SWEEP_ROWS, _CHUNK_CELLS // max(m, 1)))


def _euclidean_prefix(pts: np.ndarray, stop: float = np.inf) -> np.ndarray:
    """Running euclidean diameter of the rows of pts, with prefix_diameters's
    ``stop``: its block path over _pairwise blocks, on squared distances.

    The chunks of rows are the block path's (:func:`_sweep_rows`, at most
    64 rows), so a stopped sweep returns the same prefix.  Each chunk of
    rows fills one reused block with the kernel's squares
    (metric "sqeuclidean") and keeps running maxima of them.  sqrt is
    monotone and correctly rounded, so the root of a maximum is the
    maximum of the roots: rooted at the end, the result is the block
    path's bit for bit, and each chunk is tested against stop by the root
    of its maximum.  A square fl((a - b)^2) is symmetric bit for bit, so
    row i's maximum over the chunk's own square's lower triangle is entry
    i of the diagonal of that square's running column maximum.
    """
    m = pts.shape[0]
    step = min(m, _sweep_rows(m))
    pts = np.asfortranarray(pts)  # the kernel reads one coordinate column at a time
    buf, col = np.empty(step * m), np.empty(step * m)
    row_max = np.empty(m)
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        shape, cells = (hi - lo, hi), (hi - lo) * hi
        sq = _pairwise(pts[lo:hi, None], pts[None, :hi], "sqeuclidean",
                       buf[:cells].reshape(shape), col[:cells].reshape(shape))
        own = sq[:, lo:]
        np.maximum.accumulate(own, axis=0, out=own)
        row_max[lo:hi] = own.diagonal()
        if lo:
            np.maximum(row_max[lo:hi], sq[:, :lo].max(axis=1), out=row_max[lo:hi])
        if np.sqrt(row_max[lo:hi].max()) >= stop:
            return np.sqrt(np.maximum.accumulate(row_max[:hi]))
    return np.sqrt(np.maximum.accumulate(row_max))


def sublevel_diameters(values, grid, prefix) -> np.ndarray:
    """Diameters of {v <= min v + t} for every t in grid, from one sort.

    ``values`` is one (n,) row, giving (G,) diameters for a grid of G
    thresholds, or a (k, n) block of rows, giving (k, G): row i's curve
    is the one-row sweep of values[i].  prefix(order) is the running
    diameter of the points in order, for one (m,) order or, given a
    block, for a (k, m) block of orders, as
    FiniteMetricSpace.prefix_diameters takes them.  Each cut uses the
    float sum and the <= of argmin_set, so each set is exactly
    argmin_set(f, t) and each diameter exactly its diam.  A row whose
    min v + max(grid) is NaN, from a NaN value or from -inf with an
    infinite threshold, has no sublevel sets and raises ValueError.

    The sort need not be stable.  A diameter is read only at a cut, and
    there the sorted prefix is exactly the set {v <= min v + t}: tied
    values fall on the same side of every cut, and the running diameter
    at a cut depends on that set only (see prefix_diameters), so the
    order among tied values is never read.

    Every row sorts only its candidates, the values <= min v + max(grid):
    rounded addition is monotone, so every other value lies above every
    cut, and each cut counts the same members as in a sort of the whole
    row.  One row's prefix may return a shortened running diameter (one
    that stopped at a bound, as prefix_diameters does with ``stop``); a
    cut past its end reads +inf.  A block lists its candidates with one
    mask and one flat np.nonzero, lays them out as a (k, m) block for m
    the largest count of a row, sorts that block row by row, and counts
    each cut on it; a row's spare slots repeat its last candidate, which
    never moves a running diameter.  It goes a chunk of at most
    _GATHER_CELLS // (n G) rows at a time, for n points and G thresholds,
    so that no temporary outgrows its chunk, however many values are
    candidates.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if not np.all(grid >= 0.0):
        raise ValueError("eps must be nonnegative")
    values = np.asarray(values)
    if values.ndim == 1:
        low = values.min()
        top = low + grid.max(initial=0.0)
        if np.isnan(top):
            raise ValueError(f"values: {_NO_SETS}")
        cand = np.flatnonzero(values <= top)
        order = cand[np.argsort(values[cand])]
        cuts = np.searchsorted(values[order], low + grid, side="right")
        running = prefix(order)
        return np.where(cuts <= running.size, running[np.minimum(cuts, running.size) - 1], np.inf)
    if values.ndim != 2:
        raise ValueError(f"values must be one (n,) row or a (k, n) block, got shape {values.shape}")
    low = values.min(axis=1)
    top = low + grid.max(initial=0.0)
    nan = np.isnan(top)
    if nan.any():
        raise ValueError(f"values row {int(np.argmax(nan))}: {_NO_SETS}")
    out = np.empty((len(values), grid.size))
    step = max(1, _GATHER_CELLS // max(values.shape[1] * grid.size, 1))
    for lo in range(0, len(values), step):
        chunk = slice(lo, lo + step)
        out[chunk] = _block_sweep(values[chunk], low[chunk], top[chunk], grid, prefix)
    return out


def _block_sweep(values, low, top, grid, prefix) -> np.ndarray:
    """sublevel_diameters on a (k, n) block with row minima low and
    largest thresholds top = low + max(grid)."""
    # a 2-D np.nonzero costs several times a flat one
    flat = np.flatnonzero(values <= top[:, None])
    rows, cols = np.divmod(flat, values.shape[1])
    count = np.bincount(rows, minlength=len(values))  # every row holds its minimum
    start = np.cumsum(count) - count
    slots = np.arange(count.max())
    # row i's candidates fill slots 0..count_i - 1 and +inf the rest.  A
    # row with fewer candidates than another has none at +inf (its
    # threshold min v + max(grid) is below +inf, or every value would
    # be one), so its pads sort last and lie above every cut
    ranked = np.full((len(values), slots.size), np.inf)
    ranked[rows, np.arange(flat.size) - start[rows]] = values.take(flat)
    cuts = (ranked[:, None, :] <= (low[:, None] + grid)[:, :, None]).sum(axis=2)
    by = np.argsort(ranked, axis=1)
    # a pad repeats its row's last candidate: a repeated point never
    # moves a running diameter, and no cut reaches a pad
    each = np.arange(len(values))[:, None]
    by = by[each, np.minimum(slots, count[:, None] - 1)]
    return prefix(cols[by + start[:, None]])[each, cuts - 1]


def diam(subset: PointSubset) -> float:
    """Max pairwise distance over the subset; 0 for singletons.

    The diameter of the empty set is undefined and raises.
    """
    if len(subset) == 0:
        raise ValueError("diameter of the empty set is undefined")
    return float(subset.space.prefix_diameters(subset.indices)[-1])


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
        space = FiniteMetricSpace.from_matrix(mat)
        space.validate()
        return space
    if kind == "grid1d":
        return FiniteMetricSpace.grid1d(params.get("start", 0.0), params.get("stop", 1.0),
                                        _count(params["steps"], "steps"))
    if kind == "grid2d":
        return FiniteMetricSpace.grid2d(
            (params["x"][0], params["x"][1], _count(params["x"][2], "x steps")),
            (params["y"][0], params["y"][1], _count(params["y"][2], "y steps")),
            metric=metric,
        )
    if kind == "pointcloud":
        return FiniteMetricSpace.pointcloud(params["points"], metric=metric)
    raise ValueError(f"unknown space kind {kind!r}")
