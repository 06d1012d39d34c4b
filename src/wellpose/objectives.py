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

from dataclasses import KW_ONLY, InitVar, dataclass, field

import numpy as np

from .errors import PreconditionError
from .spaces import FiniteMetricSpace, PointSubset, sublevel_diameters

__all__ = [
    "ObjectiveFunction",
    "ModulusCurve",
    "ContEpsReport",
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


def proper_table(values, shape: tuple[int, ...], *, owned: bool = False):
    """Read-only float64 table and its row minima, once every last-axis
    row is checked proper: no NaN, no -inf, and at least one finite value.

    min propagates NaN, so a row is proper exactly when its minimum is
    finite; the one reduction is the whole check, and its result is
    returned as ``low`` (a float64 scalar for a 1-D table).  Only a
    failing table is looked at again, to say what is wrong with it.  The
    table is copied unless ``owned`` says the caller hands over an array
    that nothing else holds.
    """
    values = (np.asarray if owned else np.array)(values, dtype=np.float64)
    if values.shape != shape:
        raise ValueError("value table does not match the space")
    try:
        low = values.min(axis=-1)
    except ValueError:  # empty rows: min has no identity, and no row is proper
        low = np.full(values.shape[:-1], np.inf)
    if not np.isfinite(low).all():
        if np.any(np.isnan(values)) or np.any(values == -np.inf):
            raise ValueError("values must avoid NaN and -inf")
        raise ValueError("objective must be proper (some finite value)")
    values.setflags(write=False)
    return values, low


@dataclass(frozen=True, eq=False)
class ObjectiveFunction:
    """Proper extended-real function on a finite metric space.

    Values may be +inf (effective-domain marker) but never -inf or NaN,
    and at least one value is finite.  values is a read-only copy of the
    given table (``owned=True`` adopts an array that nothing else holds or
    writes, such as a row of a family's read-only table), and low is
    inf f, kept from the one pass that checks the table.
    """

    space: FiniteMetricSpace
    values: np.ndarray
    low: float = field(init=False, repr=False)
    _: KW_ONLY
    owned: InitVar[bool] = False

    def __post_init__(self, owned):
        values, low = proper_table(self.values, (self.space.n,), owned=owned)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "low", float(low))

    @classmethod
    def _built(cls, space: FiniteMetricSpace, values: np.ndarray, low: float) -> "ObjectiveFunction":
        """Adopt a fresh (n,) float64 table whose construction proves what
        the constructor would check: its values are proper (finite, for a
        perturbation) and low is their minimum.  The table is made
        read-only; nothing is checked."""
        values.setflags(write=False)
        obj = object.__new__(cls)
        object.__setattr__(obj, "space", space)
        object.__setattr__(obj, "values", values)
        object.__setattr__(obj, "low", low)
        return obj

    def __add__(self, other) -> "ObjectiveFunction":
        # +inf + finite = +inf, so perturbing never leaves the domain; the
        # sum is a fresh array, so the result adopts it
        return type(self)(self.space, self.values + _as_values(other, self.space), owned=True)


def sup_norm(values: np.ndarray) -> float:
    return float(np.max(np.abs(values)))


def argmin_set(f: ObjectiveFunction, eps: float) -> PointSubset:
    """Sublevel set {x : f(x) <= inf f + eps}, exact index subset.

    eps = 0 gives the exact argmin set; negative eps is a domain error.
    Only eps is checked: the mask's indices are sorted, unique and in
    range by construction, so PointSubset._where wraps them unchecked.
    """
    if not (eps >= 0.0):
        raise ValueError("eps must be nonnegative")
    return PointSubset._where(f.space, f.values <= f.low + eps)


@dataclass(frozen=True)
class ModulusCurve:
    """diam(argmin_set(f, eps)) sampled over an increasing eps grid.

    The constructor checks a caller's curve: aligned, non-empty, a
    positive grid with positive steps, and non-decreasing diameters.
    The library's own curves (wellposedness_modulus, the projection and
    step curves of steckin) come from ModulusCurve._built instead: their
    grid was checked where it entered, and their diameters are running
    maxima read at non-decreasing cuts, which cannot decrease.
    """

    eps_grid: tuple[float, ...]
    diam_values: tuple[float, ...]

    def __post_init__(self):
        eps, diam = self.eps_grid, self.diam_values
        if len(eps) != len(diam) or not eps:
            raise ValueError("grid and values must align and be non-empty")
        # negated comparisons: a NaN fails every comparison, so it is
        # refused, and so is a repeated +inf (inf > inf is false)
        if any(not (e > 0.0) for e in eps) or any(not (b > a) for a, b in zip(eps, eps[1:])):
            raise ValueError("eps grid must be positive and strictly increasing")
        if any(not (b >= a) for a, b in zip(diam, diam[1:])):
            raise ValueError("modulus must be non-decreasing in eps")

    @classmethod
    def _built(cls, eps_grid: tuple[float, ...], diams: np.ndarray) -> "ModulusCurve":
        """The curve of sublevel_diameters(values, eps_grid, prefix), for a
        grid already checked positive and strictly increasing; nothing is
        checked again."""
        curve = object.__new__(cls)
        object.__setattr__(curve, "eps_grid", eps_grid)
        object.__setattr__(curve, "diam_values", tuple(diams.tolist()))
        return curve

    def to_csv(self, header: str = "eps,diam") -> str:
        """CSV text with shortest round-trip float formatting."""
        lines = [header]
        for e, d in zip(self.eps_grid, self.diam_values):
            lines.append(f"{float(e)!r},{float(d)!r}")
        return "\n".join(lines) + "\n"


def wellposedness_modulus(f: ObjectiveFunction, eps_grid) -> ModulusCurve:
    """Modulus curve eps -> diam(argmin_set(f, eps)) over a grid.

    The grid is checked once, here, with the curve's messages in its
    order: no NaN or negative value, then non-empty, then positive and
    strictly increasing (each value above the one before, so a repeated
    +inf is refused).  The curve is then built without checks
    (ModulusCurve._built).
    """
    eps_grid = tuple(map(float, eps_grid))
    grid = np.array(eps_grid)
    if not (grid >= 0.0).all():
        raise ValueError("eps must be nonnegative")
    if not eps_grid:
        raise ValueError("grid and values must align and be non-empty")
    if not (grid[0] > 0.0 and (grid[1:] > grid[:-1]).all()):
        raise ValueError("eps grid must be positive and strictly increasing")
    return ModulusCurve._built(eps_grid, sublevel_diameters(f.values, grid, f.space.prefix_diameters))


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

    ``rows`` must be a 2-D array with one column per point of ``space``
    (k = 0 gives an empty (0, n) block); eps must be >= 0.

    On a 1-D coordinate space every ball is a contiguous run [lo, hi] of
    the points' sort order (see FiniteMetricSpace._ball_intervals), so
    each x is a range minimum over the sorted columns.  A doubling table
    answers it: level j holds the minima of the runs of length 2^j, and
    x with 2^j <= hi - lo + 1 < 2^(j+1) reads the two level-j runs that
    start at lo and end at hi.  Only the current level is kept, so memory
    stays O(k n), and the work is O(k n log n).

    Every other space reads its ball table (see
    FiniteMetricSpace._ball_table): for each chunk of centres, sorted by
    descending ball size, level b lists the b-th member of every ball with
    more than b members, and those balls are the first ones.  The minimum
    starts from level 0, each ball's first member, and folds in each
    level's members over the prefix of balls that reach it.  The work is
    O(k m) for m ball members in all, and each temporary holds at most
    k n cells beside the (k, n) result.  The space keeps a small table,
    so a repeated radius skips the O(n^2) distance mask.  Min is exact in
    any order, so both paths equal the one-row enumeration bit for bit.
    """
    if not (eps >= 0.0):
        raise ValueError("eps must be nonnegative")
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != space.n:
        raise ValueError(f"rows must be a (k, {space.n}) array, got shape {rows.shape}")
    k, n = rows.shape
    runs = space._ball_intervals(eps)
    if runs is not None:
        return _run_min(rows, *runs)
    out = np.empty((k, n))
    for centres, levels in space._ball_table(eps):
        acc = rows.take(levels[0], axis=1)
        for level in levels[1:]:
            head = acc[:, :level.size]
            np.minimum(head, rows.take(level, axis=1), out=head)
        out[:, centres] = acc
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
        holds=omega_pert.issubset(omega_base),
        omega_perturbed=omega_pert,
        omega_base=omega_base,
    )
