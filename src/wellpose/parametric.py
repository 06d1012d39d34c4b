"""Parameter-indexed objective families and epi-continuity certificates.

A :class:`ParametricFamily` assigns one objective f_p to every point p of
a finite parameter space.  The checks in this module search a decreasing
delta grid for the largest closed parameter ball on which a uniform
epi-continuity condition holds:

  condition 1 (at an anchor x):  every q near p admits x_q in B_eps(x)
      with f_q(x_q) <= f_p(x) + eps;
  condition 2: every q near p satisfies f_q >= (f_p)_eps - eps pointwise.

Certificates carry replayable witnesses.  Every "largest delta" search
but check_sum_epi's is one _largest_delta call over the neighbours within
the largest grid radius, whose rows it reads through _neighbour_rows: in
place, as a view of the family's table, when the neighbours form one run
of indices (always, on a sorted 1-D parameter grid), a gathered copy
otherwise.  The searches rely on the checks being downward closed in
delta: shrinking delta only shrinks both the parameter ball and the
sublevel sets.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, InitVar, dataclass, field

import numpy as np

from .errors import PreconditionError
from .objectives import ObjectiveFunction, argmin_set, ball_min, proper_table
from .spaces import FiniteMetricSpace, _count, diam, sublevel_diameters

__all__ = [
    "ParameterGrid",
    "ParametricFamily",
    "EpiCertificate",
    "UniformEpiReport",
    "FiveRReport",
    "UscReport",
    "SelectionGapReport",
    "SumEpiReport",
    "default_delta_grid",
    "value_function",
    "check_cond1",
    "check_cond2",
    "certify_uniform_epi",
    "recheck_certificate",
    "check_5r_lemma",
    "argmin_usc",
    "vime_family",
    "no_continuous_selection_demo",
    "check_sum_epi",
    "analytic_epi_delta",
    "family_from_json",
]


@dataclass(frozen=True, eq=False)
class ParameterGrid:
    """The finite parameter space of a family.

    It holds nothing but the space; the wrapper stays because families
    and their callers reach the parameter space as ``fam.params.space``.
    """

    space: FiniteMetricSpace


@dataclass(frozen=True, eq=False)
class ParametricFamily:
    """One proper objective per parameter, all on a shared domain.

    values is the read-only (n_params, n_points) table, row p holding f_p;
    every row is proper (no NaN or -inf, some finite value).  row_min is
    the read-only (n_params,) array of row minima inf f_p, from the same
    pass that checks the table.  The table is copied unless ``owned`` says
    that nothing else holds it (the library's own builders).
    ``lipschitz_in_p`` (optional) asserts sup_x |f_p(x) - f_q(x)| <= L * mu(p, q)
    and unlocks an analytic delta fast path that searches cross-check.
    """

    params: ParameterGrid
    domain: FiniteMetricSpace
    values: np.ndarray
    lipschitz_in_p: float | None = None
    meta: dict = field(default_factory=dict)
    row_min: np.ndarray = field(init=False, repr=False)
    _: KW_ONLY
    owned: InitVar[bool] = False

    def __post_init__(self, owned):
        shape = (self.params.space.n, self.domain.n)
        values, row_min = proper_table(self.values, shape, owned=owned)
        row_min.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "row_min", row_min)

    def objective(self, p: int) -> ObjectiveFunction:
        """f_p, on row p of the read-only table itself: nothing writes the
        row, so the objective adopts it instead of a copy."""
        return ObjectiveFunction(self.domain, self.values[p], owned=True)

    def _check_perturbation(self, g_fam) -> None:
        if g_fam.params is not self.params.space:
            raise ValueError("perturbation family uses a different parameter space")
        if g_fam.domain is not self.domain:
            raise ValueError("perturbation family uses a different domain")

    def add_perturbation(self, g_fam) -> "ParametricFamily":
        """Pointwise sum family (f_p + g_p); g_fam is a PerturbationFamily
        over the same parameter space (a bare space, not a grid)."""
        self._check_perturbation(g_fam)
        # +inf + finite = +inf, so perturbing never leaves the domain
        return ParametricFamily(self.params, self.domain, self.values + g_fam.values,
                                meta={"kind": "sum"}, owned=True)


def default_delta_grid(fam: ParametricFamily, eps: float) -> tuple[float, ...]:
    """Geometric grid {eps, eps/2, ..., eps/2^16}, decreasing.

    Capped below by the minimal positive pairwise parameter distance:
    radii below it only see the singleton ball.
    """
    if not (eps > 0.0):
        raise ValueError("eps must be positive")
    spacing = fam.params.space.min_positive_distance()
    vals = [eps / (2.0**k) for k in range(17)]
    kept = tuple(v for v in vals if not (v < spacing))
    return kept if kept else (float(spacing) if np.isfinite(spacing) else eps,)


def _check_grid(delta_grid) -> tuple[float, ...]:
    """The grid as a tuple of floats, once it is non-empty, finite, positive
    and strictly decreasing.  The checks run on the Python floats: a grid
    holds a few radii, and an array would cost more than the comparisons.
    """
    grid = tuple(float(d) for d in delta_grid)
    if not grid:
        raise ValueError("delta grid must be non-empty")
    if not all(math.isfinite(d) for d in grid):
        # an infinite radius leaves _largest_delta no bad distance above it
        raise ValueError(f"delta grid must be finite, got {list(grid)}")
    # for finite floats a > b exactly when fl(b - a) < 0 (a difference
    # rounds to 0 only for equal floats), the test np.diff would make
    if not (grid[-1] > 0.0 and all(a > b for a, b in zip(grid, grid[1:]))):
        raise ValueError("delta grid must be positive and strictly decreasing")
    return grid


def _neighbours(fam: ParametricFamily, p: int, eps: float, delta_grid):
    """Checked inputs of a search at p: the grid, qs, the parameters within
    the largest grid radius in ascending order, and their distances mu(p, qs)."""
    grid = _check_grid(delta_grid)
    if not (eps > 0.0):
        raise ValueError("eps must be positive")
    if not (0 <= p < fam.params.space.n):
        raise ValueError(f"parameter index {p} out of range")
    prow = fam.params.space.row(p)
    qs = np.flatnonzero(prow <= grid[0])
    return grid, qs, prow[qs]


def _neighbour_rows(table: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """table[qs] for an ascending index array qs (as _neighbours gives it).

    When qs is one run of consecutive indices, as it always is on a sorted
    1-D parameter grid, this is the view table[qs[0]:qs[-1] + 1] of the
    same rows, read in place; any other qs gathers a copy.  The searches
    only read the rows, and a family's table is read-only.
    """
    if qs.size and qs[-1] - qs[0] == qs.size - 1:
        return table[qs[0]:qs[-1] + 1]
    return table[qs]


def _largest_delta(grid: tuple[float, ...], dist: np.ndarray, good: np.ndarray) -> int | None:
    """Index of the largest grid radius whose closed ball holds no bad
    neighbour, or None.

    dist is the (k,) parameter distance of each neighbour.  good is (k,),
    one verdict per neighbour at every radius, or (k, G), column j the
    verdicts at grid[j].  Radius j works iff all(good | (dist > grid[j])),
    that is iff grid[j] lies below the distance of the nearest bad
    neighbour (of column j).
    """
    bad_dist = np.where(good, np.inf, dist[:, None] if good.ndim == 2 else dist)
    works = np.flatnonzero(np.asarray(grid) < bad_dist.min(axis=0, initial=np.inf))
    return int(works[0]) if works.size else None


def value_function(fam: ParametricFamily) -> np.ndarray:
    """V(p) = inf_x f_p(x) per parameter index (the family's read-only row_min)."""
    return fam.row_min


@dataclass(frozen=True, eq=False)
class EpiCertificate:
    """Outcome of one condition check at parameter p.

    delta is the largest grid radius on which the condition held, or None
    (FAIL).  For condition 1 the witnesses map each q in B_delta(p) to a
    chosen x_q; for condition 2 a violation records the failing (q, x).
    """

    condition: int
    p: int
    eps: float
    delta: float | None
    anchor_x: int | None = None
    witnesses: dict | None = None
    vacuous: bool = False
    violation: tuple | None = None

    @property
    def ok(self) -> bool:
        return self.delta is not None


def check_cond1(fam: ParametricFamily, p: int, x: int, eps: float, delta_grid) -> EpiCertificate:
    """Largest grid delta such that every q in B_delta(p) admits a point
    x_q in B_eps(x) with f_q(x_q) <= f_p(x) + eps.

    A +inf anchor value makes the condition vacuous; this is reported
    (vacuous=True) with the full grid radius.
    """
    grid, qs, dist = _neighbours(fam, p, eps, delta_grid)
    if not (0 <= x < fam.domain.n):
        raise ValueError(f"anchor index {x} out of range")
    fp_x = float(fam.values[p, x])
    if fp_x == np.inf:
        return EpiCertificate(1, p, eps, grid[0], anchor_x=x, witnesses={}, vacuous=True)
    ball_x = np.flatnonzero(fam.domain.row(x) <= eps)
    sub = _neighbour_rows(fam.values, qs)[:, ball_x]
    best = np.argmin(sub, axis=1)  # first minimum = lowest index
    j = _largest_delta(grid, dist, sub[np.arange(qs.size), best] <= fp_x + eps)
    if j is None:
        return EpiCertificate(1, p, eps, None, anchor_x=x, witnesses=None)
    # every q within grid[j] is good, so its best x_q is a witness
    near = dist <= grid[j]
    keep = dict(zip(qs[near].tolist(), ball_x[best[near]].tolist()))
    return EpiCertificate(1, p, eps, grid[j], anchor_x=x, witnesses=keep)


def check_cond2(fam: ParametricFamily, p: int, eps: float, delta_grid) -> EpiCertificate:
    """Largest grid delta such that f_q >= (f_p)_eps - eps holds pointwise
    for every q in B_delta(p).

    This is analytic_epi_delta's centre argument cell by cell: a cell
    with f_q(x) >= f_p(x) - eps satisfies the condition (see
    _cond2_violations), so the ball infimum of f_p is computed only when
    some cell falls below f_p - eps.
    """
    grid, qs, dist = _neighbours(fam, p, eps, delta_grid)
    viol = _cond2_violations(fam, p, eps, _neighbour_rows(fam.values, qs))
    return _cond2(p, eps, grid, qs, dist, viol)


def _cond2_violations(fam, p, eps, vals) -> np.ndarray:
    """The cells of the rows vals with vals < (f_p)_eps - eps.

    Every ball contains its centre (d(x, x) = 0 <= eps) and min is exact,
    so (f_p)_eps <= f_p bit for bit, and rounded subtraction is monotone:
    a cell can violate only where vals < f_p - eps.  Where no cell does,
    these open cells are the (empty) answer and no ball infimum is taken.
    eps = 0 reads (f_p)_0 as f_p itself, as regularize does, so the open
    cells are then the answer too.
    """
    viol = vals < fam.values[p] - eps
    if eps > 0.0 and viol.any():
        viol = vals < ball_min(fam.domain, fam.values[p][None, :], eps)[0] - eps
    return viol


def _cond2(p, eps, grid, qs, dist, viol) -> EpiCertificate:
    """Condition 2 over the neighbours qs of p at distances dist, given
    viol[i, x] = f_qs[i](x) < (f_p)_eps(x) - eps."""
    bad = viol.any(axis=1)
    j = _largest_delta(grid, dist, ~bad)
    if j is not None:
        return EpiCertificate(2, p, eps, grid[j])
    # the nearest bad q, lowest index on ties, at its first violating x
    i = int(np.argmin(np.where(bad, dist, np.inf)))
    return EpiCertificate(2, p, eps, None, violation=(int(qs[i]), int(np.argmax(viol[i]))))


@dataclass(frozen=True, eq=False)
class UniformEpiReport:
    """Conditions 1 (uniform over all anchors) and 2 at one parameter."""

    p: int
    eps: float
    cond1_delta: float | None
    cond2: EpiCertificate

    @property
    def delta(self) -> float | None:
        if self.cond1_delta is None or self.cond2.delta is None:
            return None
        return min(self.cond1_delta, self.cond2.delta)

    @property
    def ok(self) -> bool:
        return self.delta is not None


def certify_uniform_epi(fam: ParametricFamily, p: int, eps: float, delta_grid) -> UniformEpiReport:
    """Certify both conditions at p with one delta uniform over anchors.

    On finite domains the per-anchor condition-1 radii have a positive
    minimum, so the uniform variant is equivalent to quantifying the
    anchor before delta.

    Ball infima are taken only where the plain values leave a condition
    open, the cell-wise form of analytic_epi_delta's centre argument:
    (f)_eps <= f bit for bit, so a cell with f_q(x) <= f_p(x) + eps
    satisfies condition 1 and one with f_q(x) >= f_p(x) - eps condition
    2.  One ball_min call covers the neighbour rows with an open
    condition-1 cell, plus row p if some condition-2 cell is open; with
    no open cell there is no call.
    """
    grid, qs, dist = _neighbours(fam, p, eps, delta_grid)
    vals = _neighbour_rows(fam.values, qs)
    cap = fam.values[p] + eps
    open1 = (vals > cap).any(axis=1)  # the rows with an open condition-1 cell
    viol = vals < fam.values[p] - eps  # the open condition-2 cells
    open2 = bool(viol.any())
    good = ~open1
    rows = np.append(qs[open1], p) if open2 else qs[open1]
    if rows.size:
        reg = ball_min(fam.domain, fam.values[rows], eps)
        # (f_q)_eps <= f_p + eps everywhere == condition 1 at every anchor
        good[open1] = np.all(reg[:np.count_nonzero(open1)] <= cap, axis=1)
        if open2:
            viol = vals < reg[-1] - eps
    j = _largest_delta(grid, dist, good)
    cond2 = _cond2(p, eps, grid, qs, dist, viol)
    return UniformEpiReport(p=p, eps=eps, cond1_delta=None if j is None else grid[j], cond2=cond2)


def recheck_certificate(fam: ParametricFamily, cert: EpiCertificate) -> bool:
    """Replay a successful certificate from its recorded witnesses.

    A condition-2 replay uses analytic_epi_delta's centre argument cell
    by cell (see _cond2_violations): it accepts at once when every
    f_q >= f_p - eps, and takes the ball infimum of f_p otherwise.
    """
    if cert.delta is None:
        raise ValueError("cannot replay a failed certificate")
    prow = fam.params.space.row(cert.p)
    qs = np.flatnonzero(prow <= cert.delta)
    if cert.condition == 1:
        fp_x = float(fam.values[cert.p, cert.anchor_x])
        if cert.vacuous:
            return fp_x == np.inf
        if not all(int(q) in cert.witnesses for q in qs):
            return False
        xq = np.array([cert.witnesses[int(q)] for q in qs], dtype=np.intp)
        return bool(np.all(fam.domain.row(cert.anchor_x)[xq] <= cert.eps)
                    and np.all(fam.values[qs, xq] <= fp_x + cert.eps))
    if not (cert.eps >= 0.0):
        raise ValueError("eps must be nonnegative")
    return not _cond2_violations(fam, cert.p, cert.eps, _neighbour_rows(fam.values, qs)).any()


def analytic_epi_delta(fam: ParametricFamily, eps: float) -> float | None:
    """eps / L for families with a declared sup-norm Lipschitz constant.

    Any delta <= eps/L satisfies both conditions: condition 1 with
    x_q = x, condition 2 through f_q >= f_p - L*delta >= (f_p)_eps - eps.
    """
    if fam.lipschitz_in_p is None:
        return None
    if fam.lipschitz_in_p == 0.0:
        return np.inf
    return eps / fam.lipschitz_in_p


@dataclass(frozen=True, eq=False)
class FiveRReport:
    """Radius propagation: one delta controlling a whole parameter ball."""

    p: int
    eps: float
    r: float
    delta: float | None
    q_diams: dict

    @property
    def ok(self) -> bool:
        return self.delta is not None


def check_5r_lemma(fam: ParametricFamily, p: int, eps: float, r: float, delta_grid) -> FiveRReport:
    """Search for a grid delta with diam(argmin_set(f_q, delta)) < 5r for
    every q in B_delta(p).

    Precondition (checked): diam(argmin_set(f_p, eps)) < r.  On families
    certified epi-continuous the search must succeed; a FAIL is a bug
    indicator, not a counterexample.
    """
    grid, qs, dist = _neighbours(fam, p, eps, delta_grid)
    if not (r > 0.0):
        raise ValueError("r must be positive")
    base_diam = diam(argmin_set(fam.objective(p), eps))
    if not (base_diam < r):
        raise PreconditionError(
            f"hypothesis fails: diam(argmin_set(f_p, eps)) = {base_diam} >= r = {r}"
        )
    # one sweep over the neighbour rows: diams[i, j] = diam(argmin_set(f_qs[i], grid[j]))
    vals = _neighbour_rows(fam.values, qs)
    diams = sublevel_diameters(vals, grid, fam.domain.prefix_diameters)
    j = _largest_delta(grid, dist, diams < 5.0 * r)
    if j is None:
        return FiveRReport(p=p, eps=eps, r=r, delta=None, q_diams={})
    near = dist <= grid[j]
    q_diams = dict(zip(qs[near].tolist(), diams[near, j].tolist()))
    return FiveRReport(p=p, eps=eps, r=r, delta=grid[j], q_diams=q_diams)


@dataclass(frozen=True, eq=False)
class UscReport:
    """Argmin upper semicontinuity evidence around a unique minimizer."""

    p: int
    eps: float
    x_p: int
    delta: float | None

    @property
    def ok(self) -> bool:
        return self.delta is not None


def argmin_usc(fam: ParametricFamily, p: int, eps: float, delta_grid) -> UscReport:
    """Largest grid delta with argmin_set(f_q, delta) ⊆ B_eps(x_p) for all
    q in B_delta(p), where x_p is the unique exact minimizer of f_p.

    A non-unique exact argmin violates the hypothesis and raises.
    """
    grid, qs, dist = _neighbours(fam, p, eps, delta_grid)
    exact = argmin_set(fam.objective(p), 0.0)
    if len(exact) != 1:
        raise PreconditionError("argmin_usc needs a unique exact minimizer")
    x_p = int(exact.indices[0])
    vals = _neighbour_rows(fam.values, qs)
    # argmin_set(f_q, delta) ⊆ B_eps(x_p) iff f_q > inf f_q + delta off the ball
    outside = vals[:, fam.domain.row(x_p) > eps].min(axis=1, initial=np.inf)
    low = _neighbour_rows(fam.row_min, qs)
    j = _largest_delta(grid, dist, outside[:, None] > low[:, None] + np.asarray(grid))
    return UscReport(p=p, eps=eps, x_p=x_p, delta=None if j is None else grid[j])


# ----------------------------------------------------------------------
# the vime family


def vime_family(x_steps: int = 999, p_steps: int = 999) -> ParametricFamily:
    """Two-ramp family on the unit interval with a flat middle third.

    f_p is (1-p)(3x-1) on [0, 1/3], 0 on [1/3, 2/3], p(2-3x) on [2/3, 1];
    P = X = uniform grids with the given number of steps.  Steps that are
    multiples of 3 put the breakpoints exactly on the grid; breakpoints
    carry the exact value 0 shared by both adjacent pieces.  Piece
    membership is decided by integer comparisons (3i vs steps), never by
    float coordinates, so the block structure of sublevel-set claims is
    exact.  The family is 1-Lipschitz in p in sup norm.
    """
    if x_steps < 3 or p_steps < 3:
        raise ValueError("steps must be >= 3")
    X = FiniteMetricSpace.grid1d(0.0, 1.0, x_steps)
    P = FiniteMetricSpace.grid1d(0.0, 1.0, p_steps)
    xs = np.arange(x_steps + 1, dtype=np.float64) / x_steps
    ps = np.arange(p_steps + 1, dtype=np.float64) / p_steps
    # 3i < x_steps on the left run, 3i > 2 x_steps on the right one; each
    # piece is written in place, so the table is the only large array
    left = slice(0, (x_steps + 2) // 3)
    right = slice(2 * x_steps // 3 + 1, None)
    table_vals = np.zeros((p_steps + 1, x_steps + 1), dtype=np.float64)
    np.outer(1.0 - ps, 3.0 * xs[left] - 1.0, out=table_vals[:, left])
    np.outer(ps, 2.0 - 3.0 * xs[right], out=table_vals[:, right])
    meta = {"kind": "vime", "x_steps": x_steps, "p_steps": p_steps}
    return ParametricFamily(ParameterGrid(P), X, table_vals, lipschitz_in_p=1.0, meta=meta,
                            owned=True)


@dataclass(frozen=True, eq=False)
class SelectionGapReport:
    """Evidence that near-minimizers jump across the middle gap."""

    eps: float
    left_ok: bool
    right_ok: bool
    gap_ok: bool
    gap_interval: tuple[float, float]
    bad_p: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.left_ok and self.right_ok and self.gap_ok


def no_continuous_selection_demo(fam: ParametricFamily, eps: float) -> SelectionGapReport:
    """Verify the three block claims for the vime family at one eps.

    Requires eps in (0, 1/2) (a domain error otherwise) and a family
    built by vime_family, whose meta x_steps is the domain's step count.
    Claims: the eps-argmin at p=0 stays in the left third, at p=1 in the
    right third, and for every p it misses the open middle third
    entirely, so any selection of near-minimizers must jump across a gap
    of width 1/3 somewhere.
    """
    if fam.meta.get("kind") != "vime":
        raise ValueError("demo requires a family built by vime_family")
    k = fam.domain.n - 1
    if fam.meta.get("x_steps") != k:
        raise ValueError(f"family meta x_steps {fam.meta.get('x_steps')!r} does not match "
                         f"the domain's {k} steps")
    if not (0.0 < eps < 0.5):
        raise ValueError("eps must lie in (0, 1/2)")
    # the eps-argmin of f_p is {x : f_p(x) <= inf f_p + eps}; it meets a run
    # of points iff the run's minimum is <= inf f_p + eps (a min is exact).
    # Blocks by integer comparison: left 3i <= k, middle k < 3i < 2k (the
    # run lo:hi, empty for k = 3), right 3i >= 2k
    lo, hi = k // 3 + 1, (2 * k + 2) // 3
    vals, cut = fam.values, fam.row_min + eps
    bad_p = np.flatnonzero(vals[:, lo:hi].min(axis=1, initial=np.inf) <= cut)
    return SelectionGapReport(
        eps=eps,
        left_ok=bool(vals[0, lo:].min(initial=np.inf) > cut[0]),
        right_ok=bool(vals[-1, :hi].min(initial=np.inf) > cut[-1]),
        gap_ok=bad_p.size == 0,
        gap_interval=(1.0 / 3.0, 2.0 / 3.0),
        bad_p=tuple(bad_p.tolist()),
    )


# ----------------------------------------------------------------------
# sum preservation


@dataclass(frozen=True, eq=False)
class SumEpiReport:
    """Epi-continuity of f + g after a joint-continuity precheck on g."""

    p: int
    eps: float
    gcont_delta: float | None
    epi: UniformEpiReport | None

    @property
    def ok(self) -> bool:
        return self.gcont_delta is not None and self.epi is not None and self.epi.ok


def check_sum_epi(fam: ParametricFamily, g_fam, p: int, eps: float, delta_grid) -> SumEpiReport:
    """Certify the summed family (f_p + g_p) at p.

    First verifies joint continuity of g at p for this eps: a grid delta
    with |g_q(y) - g_p(x)| < eps whenever mu(q, p) <= delta and
    d(y, x) <= delta.  A failed precheck is reported (gcont_delta=None),
    not raised: it is an outcome of the check, and the summed-family
    certification is then skipped.  A g_fam on other spaces than fam's
    raises ValueError before the precheck, whatever its values.
    """
    grid, qs, dist = _neighbours(fam, p, eps, delta_grid)
    fam._check_perturbation(g_fam)
    gp = g_fam.values[p]
    gcont_delta = None
    for delta in grid:
        gq = g_fam.values[qs[dist <= delta]]
        # max_{y in B_delta(x)} |g_q(y) - g_p(x)| is the larger of
        # (ball max of g_q) - g_p(x) and g_p(x) - (ball min of g_q): rounded
        # subtraction is monotone, so this is exact; one call reduces both,
        # the ball max as minus the ball min of -g_q
        both = ball_min(fam.domain, np.vstack([-gq, gq]), delta)
        hi, lo = -both[:len(gq)], both[len(gq):]
        if np.all(np.maximum(hi - gp, gp - lo) < eps):
            gcont_delta = delta
            break
    if gcont_delta is None:
        return SumEpiReport(p=p, eps=eps, gcont_delta=None, epi=None)
    summed = fam.add_perturbation(g_fam)
    epi = certify_uniform_epi(summed, p, eps, grid)
    return SumEpiReport(p=p, eps=eps, gcont_delta=gcont_delta, epi=epi)


# ----------------------------------------------------------------------
# JSON descriptors
#
# { "kind": "vime"|"table"|"lipschitz_expr", "params": {...} }


def family_from_json(desc: dict) -> ParametricFamily:
    from .spaces import space_from_json

    if not isinstance(desc, dict):
        raise ValueError("family descriptor must be an object")
    kind = desc.get("kind")
    params = desc.get("params", {})
    if kind == "vime":
        return vime_family(_count(params.get("x_steps", 999), "x_steps"),
                           _count(params.get("p_steps", 999), "p_steps"))
    if kind == "table":
        domain = space_from_json(params["domain"])
        pspace = space_from_json(params["param_space"])
        return ParametricFamily(ParameterGrid(pspace), domain, params["values"],
                                meta={"kind": "table"})
    if kind == "lipschitz_expr":
        domain = space_from_json(params["domain"])
        pspace = space_from_json(params["param_space"])
        base = np.asarray(params["base"], dtype=np.float64)
        bump = np.asarray(params["bump"], dtype=np.float64)
        coef = np.asarray(params["coef"], dtype=np.float64)
        if base.shape != (domain.n,) or bump.shape != (domain.n,) or coef.shape != (pspace.n,):
            raise ValueError("base/bump/coef shapes must match the spaces")
        values = base + coef[:, None] * bump
        lip = params.get("lipschitz")
        if lip is None:
            # empirical coefficient slope over parameter pairs
            mu = pspace.block(np.arange(pspace.n))
            gap = np.abs(coef[:, None] - coef[None, :])
            worst = np.max(np.divide(gap, mu, out=np.zeros_like(mu), where=mu > 0.0))
            lip = float(worst) * float(np.max(np.abs(bump)))
        return ParametricFamily(ParameterGrid(pspace), domain, values,
                                lipschitz_in_p=float(lip), meta={"kind": "lipschitz_expr"})
    raise ValueError(f"unknown family kind {kind!r}")
