"""Parameter-indexed objective families and epi-continuity certificates.

A :class:`ParametricFamily` assigns one objective f_p to every point p of
a finite parameter space.  The checks in this module search a decreasing
delta grid for the largest closed parameter ball on which a uniform
epi-continuity condition holds:

  condition 1 (at an anchor x):  every q near p admits x_q in B_eps(x)
      with f_q(x_q) <= f_p(x) + eps;
  condition 2: every q near p satisfies f_q >= (f_p)_eps - eps pointwise.

Certificates carry replayable witnesses.  All "largest delta" searches
rely on the checks being downward closed in delta: shrinking delta only
shrinks both the parameter ball and the sublevel sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .objectives import ObjectiveFunction, argmin_set, ball_min, proper_table, regularize
from .spaces import FiniteMetricSpace, diam, sublevel_diameters

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
    """Finite parameter space plus an optional witness index set."""

    space: FiniteMetricSpace
    witness: tuple[int, ...] = ()

    def __post_init__(self):
        for i in self.witness:
            if not (0 <= i < self.space.n):
                raise ValueError(f"witness index {i} out of range")


@dataclass(frozen=True, eq=False)
class ParametricFamily:
    """One proper objective per parameter, all on a shared domain.

    values is the read-only (n_params, n_points) table, row p holding f_p;
    every row is proper (no NaN or -inf, some finite value).
    ``lipschitz_in_p`` (optional) asserts sup_x |f_p(x) - f_q(x)| <= L * mu(p, q)
    and unlocks an analytic delta fast path that searches cross-check.
    """

    params: ParameterGrid
    domain: FiniteMetricSpace
    values: np.ndarray
    lipschitz_in_p: float | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        shape = (self.params.space.n, self.domain.n)
        object.__setattr__(self, "values", proper_table(self.values, shape))

    def objective(self, p: int) -> ObjectiveFunction:
        return ObjectiveFunction(self.domain, self.values[p])

    def add_perturbation(self, g_fam) -> "ParametricFamily":
        """Pointwise sum family (f_p + g_p); g_fam is a PerturbationFamily
        over the same parameter space (a bare space, not a grid)."""
        if g_fam.params is not self.params.space:
            raise ValueError("perturbation family uses a different parameter space")
        if g_fam.domain is not self.domain:
            raise ValueError("perturbation family uses a different domain")
        # +inf + finite = +inf, so perturbing never leaves the domain
        return ParametricFamily(self.params, self.domain, self.values + g_fam.values,
                                meta={"kind": "sum"})


def default_delta_grid(fam: ParametricFamily, eps: float, octaves: int = 16) -> tuple[float, ...]:
    """Geometric grid {eps, eps/2, ..., eps/2^octaves}, decreasing.

    Capped below by the minimal positive pairwise parameter distance:
    radii below it only see the singleton ball.
    """
    if not (eps > 0.0):
        raise ValueError("eps must be positive")
    spacing = fam.params.space.min_positive_distance()
    vals = [eps / (2.0**k) for k in range(octaves + 1)]
    kept = tuple(v for v in vals if not (v < spacing))
    return kept if kept else (float(spacing) if np.isfinite(spacing) else eps,)


def _check_grid(delta_grid) -> tuple[float, ...]:
    grid = tuple(float(d) for d in delta_grid)
    if not grid:
        raise ValueError("delta grid must be non-empty")
    arr = np.asarray(grid)
    if np.any(arr <= 0.0) or np.any(np.diff(arr) >= 0.0):
        raise ValueError("delta grid must be positive and strictly decreasing")
    return grid


def _largest_delta(delta_grid: tuple[float, ...], min_bad_dist: float) -> float | None:
    # works(delta) iff the closed ball B_delta(p) contains no bad q,
    # i.e. delta < min distance to a bad parameter
    for d in delta_grid:
        if d < min_bad_dist:
            return d
    return None


def value_function(fam: ParametricFamily) -> np.ndarray:
    """V(p) = inf_x f_p(x) per parameter index."""
    return fam.values.min(axis=1)


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
    grid = _check_grid(delta_grid)
    if not (eps > 0.0):
        raise ValueError("eps must be positive")
    fp_x = float(fam.values[p, x])
    if fp_x == np.inf:
        return EpiCertificate(1, p, eps, grid[0], anchor_x=x, witnesses={}, vacuous=True)
    ball_x = np.flatnonzero(fam.domain.row(x) <= eps)
    prow = fam.params.space.row(p)
    qs = np.flatnonzero(prow <= grid[0])
    sub = fam.values[np.ix_(qs, ball_x)]
    best = np.argmin(sub, axis=1)  # first minimum = lowest index
    bad = sub[np.arange(qs.size), best] > fp_x + eps
    delta = _largest_delta(grid, prow[qs[bad]].min(initial=np.inf))
    if delta is None:
        return EpiCertificate(1, p, eps, None, anchor_x=x, witnesses=None)
    # every q within delta is good, since delta is below the nearest bad q
    near = prow[qs] <= delta
    keep = dict(zip(qs[near].tolist(), ball_x[best[near]].tolist()))
    return EpiCertificate(1, p, eps, delta, anchor_x=x, witnesses=keep)


def check_cond2(fam: ParametricFamily, p: int, eps: float, delta_grid) -> EpiCertificate:
    """Largest grid delta such that f_q >= (f_p)_eps - eps holds pointwise
    for every q in B_delta(p)."""
    grid = _check_grid(delta_grid)
    if not (eps > 0.0):
        raise ValueError("eps must be positive")
    prow = fam.params.space.row(p)
    qs = np.flatnonzero(prow <= grid[0])
    return _cond2(fam, p, eps, grid, prow, qs, regularize(fam.objective(p), eps).values)


def _cond2(fam, p, eps, grid, prow, qs, reg_p) -> EpiCertificate:
    """Condition 2 over the neighbours qs of p, given reg_p = (f_p)_eps."""
    viol = fam.values[qs] < reg_p - eps
    bad_dist = np.where(viol.any(axis=1), prow[qs], np.inf)
    delta = _largest_delta(grid, bad_dist.min(initial=np.inf))
    if delta is not None:
        return EpiCertificate(2, p, eps, delta)
    # the nearest bad q, lowest index on ties, at its first violating x
    j = int(np.argmin(bad_dist))
    return EpiCertificate(2, p, eps, None, violation=(int(qs[j]), int(np.argmax(viol[j]))))


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
    """
    grid = _check_grid(delta_grid)
    if not (eps > 0.0):
        raise ValueError("eps must be positive")
    prow = fam.params.space.row(p)
    qs = np.flatnonzero(prow <= grid[0])
    reg = ball_min(fam.domain, fam.values[qs], eps)
    # (f_q)_eps <= f_p + eps everywhere == condition 1 at every anchor
    good = np.all(reg <= fam.values[p] + eps, axis=1)
    cond1_delta = _largest_delta(grid, prow[qs[~good]].min(initial=np.inf))
    # mu(p, p) = 0, so p is among its own neighbours and its row is (f_p)_eps
    cond2 = _cond2(fam, p, eps, grid, prow, qs, reg[np.searchsorted(qs, p)])
    return UniformEpiReport(p=p, eps=eps, cond1_delta=cond1_delta, cond2=cond2)


def recheck_certificate(fam: ParametricFamily, cert: EpiCertificate) -> bool:
    """Replay a successful certificate from its recorded witnesses."""
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
    floor = regularize(fam.objective(cert.p), cert.eps).values - cert.eps
    return bool(np.all(fam.values[qs] >= floor))


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
    grid = _check_grid(delta_grid)
    if not (eps > 0.0 and r > 0.0):
        raise ValueError("eps and r must be positive")
    base_diam = diam(argmin_set(fam.objective(p), eps))
    if not (base_diam < r):
        raise PreconditionError(
            f"hypothesis fails: diam(argmin_set(f_p, eps)) = {base_diam} >= r = {r}"
        )
    prow = fam.params.space.row(p)
    # one curve q -> diam(argmin_set(f_q, delta)) over the whole grid
    curves = {int(q): sublevel_diameters(fam.values[q], grid, fam.domain.prefix_diameters)
              for q in np.flatnonzero(prow <= grid[0])}
    for j, delta in enumerate(grid):
        q_diams = {q: float(c[j]) for q, c in curves.items() if prow[q] <= delta}
        if all(d < 5.0 * r for d in q_diams.values()):
            return FiveRReport(p=p, eps=eps, r=r, delta=delta, q_diams=q_diams)
    return FiveRReport(p=p, eps=eps, r=r, delta=None, q_diams={})


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
    grid = _check_grid(delta_grid)
    if not (eps > 0.0):
        raise ValueError("eps must be positive")
    exact = argmin_set(fam.objective(p), 0.0)
    if len(exact) != 1:
        raise PreconditionError("argmin_usc needs a unique exact minimizer")
    x_p = int(next(iter(exact)))
    prow = fam.params.space.row(p)
    qs = np.flatnonzero(prow <= grid[0])
    vals = fam.values[qs]
    # argmin_set(f_q, delta) ⊆ B_eps(x_p) iff f_q > inf f_q + delta off the ball
    outside = vals[:, fam.domain.row(x_p) > eps].min(axis=1, initial=np.inf)
    for delta in grid:
        near = prow[qs] <= delta
        if np.all(outside[near] > vals[near].min(axis=1) + delta):
            return UscReport(p=p, eps=eps, x_p=x_p, delta=delta)
    return UscReport(p=p, eps=eps, x_p=x_p, delta=None)


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
    i3 = 3 * np.arange(x_steps + 1)
    left = i3 < x_steps
    right = i3 > 2 * x_steps
    table_vals = np.zeros((p_steps + 1, x_steps + 1), dtype=np.float64)
    table_vals[:, left] = np.outer(1.0 - ps, 3.0 * xs[left] - 1.0)
    table_vals[:, right] = np.outer(ps, 2.0 - 3.0 * xs[right])
    meta = {"kind": "vime", "x_steps": x_steps, "p_steps": p_steps}
    return ParametricFamily(ParameterGrid(P), X, table_vals, lipschitz_in_p=1.0, meta=meta)


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
    built by vime_family.  Claims: the eps-argmin at p=0 stays in the
    left third, at p=1 in the right third, and for every p it misses the
    open middle third entirely, so any selection of near-minimizers
    must jump across a gap of width 1/3 somewhere.
    """
    if fam.meta.get("kind") != "vime":
        raise ValueError("demo requires a family built by vime_family")
    if not (0.0 < eps < 0.5):
        raise ValueError("eps must lie in (0, 1/2)")
    # blocks by integer comparison: left i/k <= 1/3, right i/k >= 2/3
    k = fam.meta["x_steps"]
    i3 = 3 * np.arange(k + 1)
    # row p is argmin_set(f_p, eps): f_p(x) <= inf f_p + eps
    near = fam.values <= fam.values.min(axis=1, keepdims=True) + eps
    bad_p = np.flatnonzero(near[:, (i3 > k) & (i3 < 2 * k)].any(axis=1))
    return SelectionGapReport(
        eps=eps,
        left_ok=not near[0, i3 > k].any(),
        right_ok=not near[-1, i3 < 2 * k].any(),
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
    certification is then skipped.
    """
    grid = _check_grid(delta_grid)
    if not (eps > 0.0):
        raise ValueError("eps must be positive")
    gp = g_fam.values[p]
    prow = fam.params.space.row(p)
    gcont_delta = None
    for delta in grid:
        gq = g_fam.values[prow <= delta]
        # max_{y in B_delta(x)} |g_q(y) - g_p(x)| is the larger of
        # (ball max of g_q) - g_p(x) and g_p(x) - (ball min of g_q): rounded
        # subtraction is monotone, so this is exact
        hi = -ball_min(fam.domain, -gq, delta)
        lo = ball_min(fam.domain, gq, delta)
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
        return vime_family(int(params.get("x_steps", 999)), int(params.get("p_steps", 999)))
    if kind == "table":
        domain = space_from_json(params["domain"])
        pspace = space_from_json(params["param_space"])
        witness = tuple(int(i) for i in params.get("witness", ()))
        return ParametricFamily(ParameterGrid(pspace, witness), domain, params["values"],
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
