"""Seminorm expression trees on R^d with vectorized evaluation.

Nodes: absolute linear functionals, max/sum combinations, non-negative
scaling, the euclidean norm, and the line quotient

    q(x) = min_t base(x - t * direction),

the seminorm that flattens base along one direction.  In R^2 it has the
closed form kappa |perp . x|, perp orthogonal to the direction, with
kappa computed once per quotient: exactly for a euclidean or polyhedral
(max/sum/scale of absolute linear) base, by golden section for any other
tree.  Elsewhere the minimum, convex in t, is bracketed analytically and
resolved by golden section at every point.  Either way reported values
never exceed base(x).  A quotient also evaluates from base's values on
the same points, given their coordinate columns
(LineQuotient.from_columns), so a caller that keeps them does not pay
for base again.

Maxima and sums fold their children one at a time, left to right, into
one running array (np.maximum and + in place), never a (k, N) stack.
For two or more points that is the order of numpy's axis-0 reduction,
so values are those of np.max / np.sum over the stacked children bit
for bit (a single point is reduced pairwise by numpy once a node has
eight or more children, and may differ from the fold in the last bit).
A fold never returns a child's own array: a caller may fold values it
keeps and reads again (a renorming step's carried arrays).

A tree never changes once built, so what depends on the tree alone is
computed on first use and kept on the node, read-only: its flattened
linear rows (``expr._rows``) and their index pairs (``expr._row_pairs``),
which a line quotient's kink search reads (:func:`_perp_quotient`).

Every node also carries a magnitude majorant (an upper bound on the
absolute values flowing through its evaluation) used to scale rounding
tolerances in exactness tests.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .spaces import _count, _pairwise

__all__ = [
    "SeminormExpr",
    "AbsLinear",
    "MaxOf",
    "SumOf",
    "Scale",
    "Euclidean",
    "LineQuotient",
    "linf_norm",
    "l1_norm",
    "euclidean_norm",
    "seminorm_to_json",
    "seminorm_from_json",
]

# sign expansion multiplies row counts: a tree with more rows than this
# is left to its own evaluation
_MAX_LINEAR_ROWS = 64
_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - np.sqrt(5.0)) / 2.0
_GOLDEN_ITERS = 72  # bracket width shrinks below 1e-15 of its start
# a line quotient's base must exceed this multiple of its magnitude on the
# direction: 8 ulps of the rounding scale
_BEYOND_ROUNDING = 8.0 * np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny


def _as_points(X, dim: int) -> np.ndarray:
    pts = np.asarray(X, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ValueError(f"expected points of shape (m, {dim}), got {pts.shape}")
    return pts


def _fold(ufunc, values):
    """ufunc applied left to right over an iterable of arrays, in place
    on a running result that is never one of the inputs."""
    values = iter(values)
    acc = next(values)
    owned = False
    for v in values:
        acc = ufunc(acc, v, out=acc if owned else None)
        owned = True
    return acc if owned else acc.copy()


class SeminormExpr:
    """Base class; subclasses implement eval_many and magnitude_many."""

    dim: int

    def eval_many(self, X) -> np.ndarray:
        raise NotImplementedError

    def magnitude_many(self, X) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x) -> float:
        pts = np.asarray(x, dtype=np.float64).reshape(1, -1)
        return float(self.eval_many(pts)[0])

    @cached_property
    def _rows(self) -> np.ndarray | None:
        """Rows L with self(z) = max_j |L_j . z|, when the tree permits
        (see :func:`_flatten`), else None.  Flattened on first use and
        kept on the node, read-only; the index pairs i < j of the r rows,
        np.triu_indices(r, 1), are kept beside them (_row_pairs)."""
        rows = _flatten(self)
        if rows is not None:
            rows.flags.writeable = False
        return rows

    @cached_property
    def _row_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        pairs = np.triu_indices(self._rows.shape[0], 1)
        for index in pairs:
            index.flags.writeable = False
        return pairs


class AbsLinear(SeminormExpr):
    """x -> |a . x|"""

    def __init__(self, coef):
        coef = np.asarray(coef, dtype=np.float64)
        if coef.ndim != 1 or coef.size == 0 or not np.all(np.isfinite(coef)):
            raise ValueError("coef must be a non-empty finite vector")
        coef = coef.copy()
        coef.flags.writeable = False
        self.coef = coef
        self.dim = coef.size

    def eval_many(self, X):
        return np.abs(_as_points(X, self.dim) @ self.coef)

    def magnitude_many(self, X):
        return np.abs(_as_points(X, self.dim)) @ np.abs(self.coef)


class Euclidean(SeminormExpr):
    """x -> ||x||_2"""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = int(dim)

    def eval_many(self, X):
        """The root of each row's sum of squares: the distance kernel
        (_pairwise) against the origin, where x - 0 is x exactly, bit for
        bit numpy's norm for d <= 7.

        A row whose sum of squares overflows or falls below the normal
        range (an entry above about 1e154, or a nonzero row whose entries
        all lie below about 1e-154) is summed again, scaled by the power of
        two that puts its largest entry in [1/2, 1), and its root scaled
        back (:func:`_rescaled_norms`).  Every other row keeps its bits;
        the check costs one pass of min and max over the sums.
        """
        pts = _as_points(X, self.dim)
        with np.errstate(over="ignore"):
            sq = _pairwise(pts, np.zeros(self.dim), "sqeuclidean")
        if not (sq.min(initial=np.inf) >= _TINY and sq.max(initial=0.0) < np.inf):
            return _rescaled_norms(pts, sq)
        return np.sqrt(sq, out=sq)

    def magnitude_many(self, X):
        return self.eval_many(X)


def _rescaled_norms(pts: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of pts, given their sums of squares sq.

    A row whose sum is not a normal float (an overflow to inf, or a
    subnormal or zero sum) is summed again at 2^-e times itself, e the
    np.frexp exponent of its largest |entry|: the scaled entries are at
    most 1 and the largest at least 1/2, so the sum lies in [1/4, d).  The
    scalings by powers of two are exact (an entry more than 2^1022 below
    the row's largest may round, far below the sum's last bit), so the
    root 2^e sqrt(sum) is off only by the roundings of the squares, the
    sum and the root, and by one more where the result is subnormal.
    """
    redo = np.flatnonzero(~(sq >= _TINY) | (sq == np.inf))
    rows = pts[redo]
    exponent = np.frexp(np.abs(rows).max(axis=1))[1]
    scaled = np.ldexp(rows, -exponent[:, None])
    scaled = np.sqrt(_pairwise(scaled, np.zeros(scaled.shape[1]), "sqeuclidean"))
    out = np.sqrt(sq, out=sq)
    with np.errstate(over="ignore"):  # a norm above the largest float is inf
        out[redo] = np.ldexp(scaled, exponent)
    return out


def _combine(children) -> tuple[tuple, int]:
    kids = tuple(children)
    if not kids:
        raise ValueError("need at least one child")
    dim = kids[0].dim
    for k in kids:
        if not isinstance(k, SeminormExpr):
            raise ValueError("children must be seminorm expressions")
        if k.dim != dim:
            raise ValueError("children must share a dimension")
    return kids, dim


class MaxOf(SeminormExpr):
    """Pointwise maximum of children."""

    def __init__(self, children):
        self.children, self.dim = _combine(children)

    def eval_many(self, X):
        return _fold(np.maximum, (c.eval_many(X) for c in self.children))

    def magnitude_many(self, X):
        return _fold(np.maximum, (c.magnitude_many(X) for c in self.children))


class SumOf(SeminormExpr):
    """Pointwise sum of children."""

    def __init__(self, children):
        self.children, self.dim = _combine(children)

    def eval_many(self, X):
        return _fold(np.add, (c.eval_many(X) for c in self.children))

    def magnitude_many(self, X):
        return np.sum([c.magnitude_many(X) for c in self.children], axis=0)


class Scale(SeminormExpr):
    """Non-negative multiple of a child."""

    def __init__(self, factor: float, child: SeminormExpr):
        factor = float(factor)
        if not (factor >= 0.0 and np.isfinite(factor)):
            raise ValueError("factor must be finite and >= 0")
        self.factor = factor
        self.child = child
        self.dim = child.dim

    def eval_many(self, X):
        return self.factor * self.child.eval_many(X)

    def magnitude_many(self, X):
        return self.factor * self.child.magnitude_many(X)


def _flatten(expr: SeminormExpr) -> np.ndarray | None:
    """Rows L with expr(z) = max_j |L_j . z|, computed afresh.

    Absolute linear leaves, scales and maxima flatten directly.  A sum of
    such maxima is the maximum of |(L_i +- L_j +- ...) . z| over one row
    per child and every sign pattern.  Any other leaf, or more than
    _MAX_LINEAR_ROWS rows, gives None.
    """
    if isinstance(expr, AbsLinear):
        return expr.coef[None, :]
    if isinstance(expr, Scale):
        rows = _flatten(expr.child)
        return None if rows is None else expr.factor * rows
    if not isinstance(expr, (MaxOf, SumOf)):
        return None
    parts = [_flatten(c) for c in expr.children]
    if any(p is None for p in parts):
        return None
    if isinstance(expr, MaxOf):
        rows = np.vstack(parts)
    else:
        rows = parts[0]
        for part in parts[1:]:
            if 2 * rows.shape[0] * part.shape[0] > _MAX_LINEAR_ROWS:
                return None
            # |u| + |v| = max(|u + v|, |u - v|)
            pairs = [rows[:, None, :] + part[None, :, :], rows[:, None, :] - part[None, :, :]]
            rows = np.concatenate(pairs).reshape(-1, expr.dim)
    return rows if rows.shape[0] <= _MAX_LINEAR_ROWS else None


def _golden_quotient(base: SeminormExpr, pts: np.ndarray, direction: np.ndarray,
                     dir_value: float, at_zero: np.ndarray) -> np.ndarray:
    """min_t base(x - t * direction) for each row x of pts, by golden section.

    at_zero holds base's values on pts and dir_value base's value on
    direction.  Values are minima over sampled t, so they never undershoot
    the true quotient and never exceed base(x).  LineQuotient passes its
    direction scaled to a largest entry in [1/2, 1), so the bracket stays
    finite for a subnormal direction.
    """
    # base(x - t dir) >= |t| bd - base(x), so |t*| <= 2 base(x) / bd
    T = 2.0 * at_zero / dir_value
    a = -T
    b = T.copy()

    def phi(t):
        return base.eval_many(pts - t[:, None] * direction[None, :])

    best = at_zero.copy()
    c = a + _INV_PHI2 * (b - a)
    d = a + _INV_PHI * (b - a)
    yc = phi(c)
    yd = phi(d)
    for _ in range(_GOLDEN_ITERS):
        np.minimum(best, yc, out=best)
        np.minimum(best, yd, out=best)
        left = yc < yd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        h = b - a
        c = a + _INV_PHI2 * h
        d = a + _INV_PHI * h
        yc = phi(c)
        yd = phi(d)
    np.minimum(best, yc, out=best)
    np.minimum(best, yd, out=best)
    np.minimum(best, phi(0.5 * (a + b)), out=best)
    return best


def _perp_quotient(base: SeminormExpr, perp: np.ndarray, direction: np.ndarray,
                   dir_value: float) -> float:
    """min_t base(perp - t * direction) for perp orthogonal to direction in R^2.

    A euclidean base is smallest at t = 0.  For a polyhedral base, t ->
    max_j |a_j - t b_j| with a = L.perp, b = L.direction is convex and
    piecewise linear, so its minimum sits at a kink: a zero a_j / b_j of
    one row or a crossing (a_i -+ a_j) / (b_i -+ b_j) of two.  base is
    evaluated once at every kink inside the bracket |t| <= 2 base(perp) /
    base(direction) that holds the minimum; the rows and their pairs are
    kept on base.  Any other tree is searched.  dir_value is base's value
    on direction, which LineQuotient passes scaled as it scales perp.
    """
    if isinstance(base, Euclidean):
        # |perp| from the squares, sum and root that eval_many forms; the
        # largest entry of LineQuotient's perp lies in [1/2, 1), so the sum
        # is normal and needs no rescaling
        return math.sqrt(perp[0] * perp[0] + perp[1] * perp[1])
    on_perp = base.eval_many(perp[None, :])
    at_zero = float(on_perp[0])
    rows = base._rows
    if rows is None:
        return float(_golden_quotient(base, perp[None, :], direction, dir_value, on_perp)[0])
    a = rows @ perp
    b = rows @ direction
    i, j = base._row_pairs
    num = np.concatenate([a, a[i] - a[j], a[i] + a[j]])
    den = np.concatenate([b, b[i] - b[j], b[i] + b[j]])
    # a zero denominator is a pair of parallel pieces, which has no kink
    keep = (den != 0.0) & (np.abs(num) <= 2.0 * at_zero / dir_value * np.abs(den))
    t = num[keep] / den[keep]
    kinks = base.eval_many(perp[None, :] - t[:, None] * direction[None, :])
    return float(kinks.min(initial=at_zero))


class LineQuotient(SeminormExpr):
    """x -> min_t base(x - t * direction).

    base(direction) must exceed 8 ulps of base.magnitude_many(direction),
    the rounding scale of a base value: a base that is positive on the
    direction only by rounding (a true 0) is rejected, since kappa would
    then be noise.  The direction is copied once and kept read-only; its
    scale is taken on Python floats (math.frexp, math.ldexp).

    In R^2 the quotient vanishes on span(direction), so it equals
    kappa |perp . x| with perp = 2^-e (-d2, d1) and kappa = q(perp) /
    |perp|^2.  The power of two, e from math.frexp of the largest |d_k|,
    puts perp's largest entry in [1/2, 1), so |perp|^2 cannot underflow
    or overflow.  It scales kappa by exactly 2^e and perp . x by exactly
    2^-e, so every value is the unscaled one bit for bit while no
    product leaves the normal range.  q(perp) is a base value at one t,
    found at construction: in closed form for a euclidean or polyhedral
    base (:func:`_perp_quotient`), by golden section otherwise.  Each
    evaluation is then one dot product per point, clamped to base(x) so
    rounding in kappa never lifts a value above base.  Other dimensions
    run the search at every point, starting from base(x).

    Every search for the minimum over t runs along the direction scaled
    by the same 2^-e, with its base value scaled to match: each t comes
    out scaled by 2^e.  When every nonzero entry of the direction stays
    normal after the scaling, t * direction keeps its bits wherever it
    stays in the normal range; an entry more than about 2^1022 below the
    largest is rounded or flushed to 0 by the scaling, and the searches
    run along that rounded direction.  The bracket 2 base(x) /
    base(direction) stays finite for a subnormal direction.  The stored
    direction and dir_value are the unscaled ones.  from_columns takes
    base's values on the points from the caller, with the points'
    coordinate columns; eval_many is from_columns applied to the points'
    transpose and base.eval_many of the same points.
    """

    def __init__(self, base: SeminormExpr, direction):
        direction = np.array(direction, dtype=np.float64)  # a copy, kept read-only
        if direction.shape != (base.dim,) or not np.all(np.isfinite(direction)):
            raise ValueError(f"direction must be a finite vector of length {base.dim}")
        row = direction[None]
        bd = float(base.eval_many(row)[0])
        # a euclidean base is its own magnitude
        magnitude = bd if isinstance(base, Euclidean) else float(base.magnitude_many(row)[0])
        if not (bd > _BEYOND_ROUNDING * magnitude):
            raise ValueError("base must be positive on the direction, beyond rounding")
        direction.flags.writeable = False
        self.base = base
        self.direction = direction
        self.dir_value = bd
        self.dim = base.dim
        shift = -math.frexp(float(np.abs(direction).max()))[1]
        self._unit = np.ldexp(direction, shift)
        self._unit_value = math.ldexp(bd, shift)
        if self.dim == 2:
            perp = np.array([-self._unit[1], self._unit[0]])
            self._perp = perp
            self._kappa = _perp_quotient(base, perp, self._unit, self._unit_value) / float(perp @ perp)

    def eval_many(self, X):
        pts = _as_points(X, self.dim)
        return self.from_columns(pts.T, self.base.eval_many(pts))

    def from_columns(self, cols: np.ndarray, base_vals: np.ndarray,
                     scratch: np.ndarray | None = None) -> np.ndarray:
        """Values on the points whose coordinate columns are the rows of
        cols, (d, N), given base's values there (float64, (N,)), in a
        fresh array.  In R^2 a given scratch array of shape (N,) holds
        the second product; contiguous columns are read fastest.
        """
        if self.dim != 2:
            return _golden_quotient(self.base, cols.T, self._unit, self._unit_value, base_vals)
        # two products and a sum, never a fused multiply-add, so the dot
        # product is exactly 0 at x = direction
        perp = self._perp
        out = np.multiply(cols[0], perp[0])
        out += np.multiply(cols[1], perp[1], out=scratch)
        np.abs(out, out=out)
        out *= self._kappa
        return np.minimum(out, base_vals, out=out)

    def magnitude_many(self, X):
        # the bracket times the direction's magnitude, both on the scaled
        # direction: the product is the same, and finite for a subnormal one
        pts = _as_points(X, self.dim)
        T = 2.0 * self.base.eval_many(pts) / self._unit_value
        dir_mag = float(self.base.magnitude_many(self._unit[None])[0])
        return self.base.magnitude_many(pts) + T * dir_mag


def linf_norm(dim: int) -> SeminormExpr:
    eye = np.eye(dim)
    return MaxOf(tuple(AbsLinear(eye[i]) for i in range(dim)))


def l1_norm(dim: int) -> SeminormExpr:
    eye = np.eye(dim)
    return SumOf(tuple(AbsLinear(eye[i]) for i in range(dim)))


def euclidean_norm(dim: int) -> SeminormExpr:
    return Euclidean(dim)


def seminorm_to_json(expr: SeminormExpr) -> dict:
    if isinstance(expr, AbsLinear):
        return {"kind": "abslinear", "coef": [float(c) for c in expr.coef]}
    if isinstance(expr, Euclidean):
        return {"kind": "euclidean", "dim": expr.dim}
    if isinstance(expr, MaxOf):
        return {"kind": "max", "children": [seminorm_to_json(c) for c in expr.children]}
    if isinstance(expr, SumOf):
        return {"kind": "sum", "children": [seminorm_to_json(c) for c in expr.children]}
    if isinstance(expr, Scale):
        return {"kind": "scale", "factor": float(expr.factor),
                "child": seminorm_to_json(expr.child)}
    if isinstance(expr, LineQuotient):
        return {"kind": "linequotient", "base": seminorm_to_json(expr.base),
                "direction": [float(c) for c in expr.direction]}
    raise ValueError(f"cannot serialize {type(expr).__name__}")


def seminorm_from_json(desc: dict) -> SeminormExpr:
    if not isinstance(desc, dict):
        raise ValueError("seminorm descriptor must be an object")
    kind = desc.get("kind")
    if kind == "abslinear":
        return AbsLinear(desc["coef"])
    if kind == "euclidean":
        return Euclidean(_count(desc["dim"], "dim"))
    if kind == "max":
        return MaxOf(tuple(seminorm_from_json(c) for c in desc["children"]))
    if kind == "sum":
        return SumOf(tuple(seminorm_from_json(c) for c in desc["children"]))
    if kind == "scale":
        return Scale(float(desc["factor"]), seminorm_from_json(desc["child"]))
    if kind == "linequotient":
        return LineQuotient(seminorm_from_json(desc["base"]), desc["direction"])
    raise ValueError(f"unknown seminorm kind {kind!r}")
