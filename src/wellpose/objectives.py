"""Objectives on finite metric spaces and their eps-argmin geometry.

An :class:`ObjectiveFunction` is a proper extended-real function given by
a value table; +inf marks points outside the effective domain (the float
``inf`` is the explicit marker; large sentinel values are never used).
The central objects are the sublevel sets

    argmin_set(f, eps) = { x : f(x) <= inf f + eps }

whose diameters as a function of eps form the well-posedness modulus:
the minimum is strong exactly when that modulus tends to 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import PreconditionError
from .spaces import FiniteMetricSpace, PointSubset, sublevel_diameters

__all__ = [
    "ObjectiveFunction",
    "ModulusCurve",
    "StrongMinCertificate",
    "ContEpsReport",
    "inf_value",
    "argmin_set",
    "wellposedness_modulus",
    "regularize",
    "ball_min",
    "proper_table",
    "check_cont_eps_lemma",
    "sup_norm",
]


def _as_values(obj, space: FiniteMetricSpace) -> np.ndarray:
    """Accept an ObjectiveFunction-like (has .values/.space) or an array."""
    values = getattr(obj, "values", None)
    if values is not None:
        other_space = getattr(obj, "space", None)
        if other_space is not None and other_space is not space:
            raise ValueError("operands live on different spaces")
        return values
    values = np.asarray(obj, dtype=np.float64)
    if values.shape != (space.n,):
        raise ValueError("value table does not match the space")
    return values


def proper_table(values, shape: tuple[int, ...]) -> np.ndarray:
    """Read-only float64 copy of a value table whose last-axis rows are
    proper: no NaN, no -inf, and at least one finite value per row."""
    values = np.array(values, dtype=np.float64)
    if values.shape != shape:
        raise ValueError("value table does not match the space")
    if np.any(np.isnan(values)) or np.any(values == -np.inf):
        raise ValueError("values must avoid NaN and -inf")
    if not np.all(np.any(np.isfinite(values), axis=-1)):
        raise ValueError("objective must be proper (some finite value)")
    values.setflags(write=False)
    return values


@dataclass(frozen=True, eq=False)
class ObjectiveFunction:
    """Proper extended-real function on a finite metric space.

    Values may be +inf (effective-domain marker) but never -inf or NaN,
    and at least one value is finite.
    """

    space: FiniteMetricSpace
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", proper_table(self.values, (self.space.n,)))

    def __add__(self, other) -> "ObjectiveFunction":
        # +inf + finite = +inf, so perturbing never leaves the domain
        return type(self)(self.space, self.values + _as_values(other, self.space))

    def __sub__(self, other) -> "ObjectiveFunction":
        return type(self)(self.space, self.values - _as_values(other, self.space))


def sup_norm(values: np.ndarray) -> float:
    return float(np.max(np.abs(values)))


def inf_value(f: ObjectiveFunction) -> float:
    """Exact minimum of the value table (finite by properness)."""
    return float(np.min(f.values))


def argmin_set(f: ObjectiveFunction, eps: float) -> PointSubset:
    """Sublevel set {x : f(x) <= inf f + eps}, exact index subset.

    eps = 0 gives the exact argmin set; negative eps is a domain error.
    """
    if not (eps >= 0.0):
        raise ValueError("eps must be nonnegative")
    bound = inf_value(f) + eps
    return PointSubset(f.space, frozenset(np.flatnonzero(f.values <= bound).tolist()))


@dataclass(frozen=True)
class ModulusCurve:
    """diam(argmin_set(f, eps)) sampled over an increasing eps grid."""

    eps_grid: tuple[float, ...]
    diam_values: tuple[float, ...]

    def __post_init__(self):
        if len(self.eps_grid) != len(self.diam_values) or not self.eps_grid:
            raise ValueError("grid and values must align and be non-empty")
        eps = np.asarray(self.eps_grid)
        if np.any(eps <= 0.0) or np.any(np.diff(eps) <= 0.0):
            raise ValueError("eps grid must be positive and strictly increasing")
        if np.any(np.diff(self.diam_values) < 0.0):
            raise ValueError("modulus must be non-decreasing in eps")

    def to_csv(self, header: str = "eps,diam") -> str:
        """CSV text with shortest round-trip float formatting."""
        lines = [header]
        for e, d in zip(self.eps_grid, self.diam_values):
            lines.append(f"{float(e)!r},{float(d)!r}")
        return "\n".join(lines) + "\n"


def wellposedness_modulus(f: ObjectiveFunction, eps_grid) -> ModulusCurve:
    """Modulus curve eps -> diam(argmin_set(f, eps)) over a grid."""
    eps_grid = tuple(float(e) for e in eps_grid)
    diams = sublevel_diameters(f.values, eps_grid, f.space.prefix_diameters)
    return ModulusCurve(eps_grid, tuple(diams.tolist()))


@dataclass(frozen=True)
class StrongMinCertificate:
    """Exact minimizer together with its decay-of-diameter evidence."""

    minimizer: int
    modulus: ModulusCurve
    thresholds: Mapping[float, float]

    @classmethod
    def build(cls, f: ObjectiveFunction, delta_grid) -> "StrongMinCertificate":
        minimizer = int(np.argmin(f.values))
        curve = wellposedness_modulus(f, sorted(float(d) for d in delta_grid))
        thresholds = dict(zip(curve.eps_grid, curve.diam_values))
        if f.values[minimizer] != inf_value(f):  # pragma: no cover - by construction
            raise ValueError("minimizer must attain the exact minimum")
        return cls(minimizer, curve, thresholds)


def regularize(f: ObjectiveFunction, eps: float) -> ObjectiveFunction:
    """Ball infimum (f)_eps(x) = inf { f(y) : d(y, x) <= eps }.

    eps = 0 returns f unchanged; the result never exceeds f pointwise.
    """
    if not (eps >= 0.0):
        raise ValueError("eps must be nonnegative")
    if eps == 0.0:
        return f
    return ObjectiveFunction(f.space, ball_min(f.space, f.values[None, :], eps)[0])


def ball_min(space: FiniteMetricSpace, rows: np.ndarray, eps: float) -> np.ndarray:
    """Row-wise ball infimum of a (k, n) block: out[i, x] = min { rows[i, y] : d(y, x) <= eps }.

    On a 1-D coordinate space every ball is a contiguous run [lo, hi] of
    the points' sort order (see FiniteMetricSpace._ball_intervals), so
    each x is a range minimum over the sorted columns.  A doubling table
    answers it: level j holds the minima of the runs of length 2^j, and
    x with 2^j <= hi - lo + 1 < 2^(j+1) reads the two level-j runs that
    start at lo and end at hi.  Only the current level is kept, so memory
    stays O(k n), and the work is O(k n log n).

    Every other space takes the masked path: the distance mask is built
    512 points at a time, and the reduction reads the rows through a
    broadcast view, so temporaries stay at O(k n) cells and no (k, chunk,
    n) block is built.  Min is exact in any order, so both paths equal
    the one-row enumeration bit for bit.
    """
    if not (eps >= 0.0):
        raise ValueError("eps must be nonnegative")
    k, n = rows.shape
    runs = space._ball_intervals(eps)
    if runs is not None:
        return _run_min(rows, *runs)
    out = np.empty((k, n))
    for lo in range(0, n, 512):
        idx = np.arange(lo, min(lo + 512, n))
        view = np.broadcast_to(rows[:, None, :], (k, idx.size, n))
        out[:, idx] = np.min(view, axis=2, where=space.block(idx) <= eps, initial=np.inf)
    return out


def _run_min(rows: np.ndarray, order: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """out[:, order[i]] = rows[:, order[lo[i]:hi[i] + 1]].min(axis=1), by doubling."""
    level = np.frexp(hi - lo + 1)[1] - 1  # floor(log2(run length))
    table = rows[:, order]  # level 0: the runs of length 1
    out = np.empty(table.shape)
    for j in range(int(level.max()) + 1):
        if j:
            half = 1 << (j - 1)
            table = np.minimum(table[:, :-half], table[:, half:])
        at = np.flatnonzero(level == j)
        out[:, order[at]] = np.minimum(table[:, lo[at]], table[:, hi[at] - (1 << j) + 1])
    return out


@dataclass(frozen=True, eq=False)
class ContEpsReport:
    """Replayable record of one sup-norm stability check.

    holds asserts argmin_set(f + g, eps/3) ⊆ argmin_set(f, eps); under the
    precondition sup|g| < eps/3 this is a theorem, so holds=False flags an
    implementation bug, not a mathematical counterexample.
    """

    eps: float
    holds: bool
    omega_perturbed: PointSubset
    omega_base: PointSubset


def check_cont_eps_lemma(f: ObjectiveFunction, g, eps: float) -> ContEpsReport:
    """Check the eps/3 sublevel-set stability statement for f under g.

    Precondition (strict): sup|g| < eps/3.  A violated precondition
    raises PreconditionError, since outside it the inclusion may genuinely
    fail and must not be reported as a refutation.  The strictness
    margin should dominate float rounding (generators keep it large).
    """
    if not (eps > 0.0):
        raise ValueError("eps must be positive")
    gvals = _as_values(g, f.space)
    if not np.all(np.isfinite(gvals)):
        raise ValueError("perturbation must be bounded (finite values)")
    third = eps / 3.0
    if not (sup_norm(gvals) < third):
        raise PreconditionError("need sup|g| < eps/3 strictly")
    omega_pert = argmin_set(f + gvals, third)
    omega_base = argmin_set(f, eps)
    return ContEpsReport(
        eps=eps,
        holds=omega_pert.members <= omega_base.members,
        omega_perturbed=omega_pert,
        omega_base=omega_base,
    )
