"""Bounded perturbations of objectives and density/openness checks.

A perturbation is a finite real-valued function on the domain space; a
family holds one per parameter.  The divergence rho between two
perturbations is the sup norm of their difference (only
:func:`check_openness_contract` takes another value, as rho_value).  The
central construction, :func:`buc_density_step`, replaces a given
perturbation g by a nearby g' (at rho-distance exactly eps) whose
perturbed problem localizes its near-minimizers inside a ball of radius
eps/2 around a chosen anchor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .objectives import ObjectiveFunction, argmin_set, proper_table, sup_norm
from .spaces import FiniteMetricSpace, PointSubset, diam, sublevel_diameters

__all__ = [
    "PerturbationFunction",
    "PerturbationFamily",
    "DensityStepResult",
    "OpennessReport",
    "cone_perturbation",
    "buc_density_step",
    "mn_membership",
    "openness_radius",
    "check_openness_contract",
    "check_pert_axioms",
]


def _bounded(values: np.ndarray) -> None:
    # a proper table has no NaN and no -inf, so one max settles finiteness
    if values.max() == np.inf:
        raise ValueError("perturbations must be finite everywhere")


class PerturbationFunction(ObjectiveFunction):
    """Finite bounded function on a finite metric space.

    An objective whose values are all finite, so it adds to any objective
    directly: ``f + g`` is an ObjectiveFunction, ``g + h`` a perturbation.
    The table is checked as an objective's, then bounded by one max.
    """

    def __post_init__(self, owned):
        super().__post_init__(owned)
        _bounded(self.values)

    def sup_norm(self) -> float:
        return sup_norm(self.values)


@dataclass(frozen=True, eq=False)
class PerturbationFamily:
    """One perturbation per parameter: the finite (n_params, n_points)
    table values, row p holding g_p."""

    params: FiniteMetricSpace
    domain: FiniteMetricSpace
    values: np.ndarray

    def __post_init__(self):
        values, _ = proper_table(self.values, (self.params.n, self.domain.n))
        _bounded(values)
        object.__setattr__(self, "values", values)


def cone_perturbation(space: FiniteMetricSpace, a: int, beta: float, gamma: float) -> PerturbationFunction:
    """Truncated cone u with u(a) = 0, linear ramp of slope beta/gamma on
    B_gamma(a), and the ceiling value beta outside.

    a, beta and gamma are the caller's, so the table is checked as every
    perturbation's is (an infinite beta gives a NaN at the apex, and is
    refused there).  buc_density_step builds its cone with
    :func:`_step_cone` and no table check instead.
    """
    if not (0 <= a < space.n):
        raise ValueError(f"cone apex index {a} out of range")
    if not (beta > 0.0 and gamma > 0.0):
        raise ValueError("beta and gamma must be positive")
    row = space.row(a)
    vals = np.where(row <= gamma, (beta / gamma) * row, beta)
    return PerturbationFunction(space, vals, owned=True)


def _step_cone(space: FiniteMetricSpace, a: int, eps: float) -> tuple[PerturbationFunction, np.ndarray]:
    """cone_perturbation(space, a, beta=eps, gamma=eps/2), as buc_density_step
    builds it, and its ramp mask d(a, .) <= eps/2, which is the ball B_{eps/2}(a).

    The caller has checked that eps is finite with eps/2 > 0, so the slope
    is finite, every value is finite and nonnegative, and the apex, at
    distance 0, holds the minimum 0: the table is adopted without its
    checks.
    """
    row = space.row(a)
    ramp = row <= eps / 2.0
    vals = np.where(ramp, (eps / (eps / 2.0)) * row, eps)
    return PerturbationFunction._built(space, vals, 0.0), ramp


@dataclass(frozen=True, eq=False)
class DensityStepResult:
    """One localization step: the replacement perturbation and its claims."""

    g_prime: PerturbationFunction
    delta: float
    achieved_diam: float
    distance_moved: float
    center: int


def buc_density_step(f: ObjectiveFunction, g: PerturbationFunction, eps: float) -> DensityStepResult:
    """Replace g by g' = g + cone so that argmin_set(f + g', eps/2) sits
    inside the closed ball B_{eps/2}(a), where a is the lowest-index
    point of argmin_set(f + g, eps/4).

    Guarantees (replayed by the caller's tests): The cone has height eps
    and ramp radius eps/2, so sup|g' - g| = eps exactly whenever some
    point is eps/2-far from a; requiring eps <= diam(space) is the
    caller's cheapest way to ensure that.  achieved_diam <= eps and the
    reported delta = eps/2 makes (f+g', delta)-near-minimizers stay put.

    eps is checked once, here: positive, finite, and with eps/2 > 0.
    That proves what the cone's table checks would (every cone value is
    finite, and the minimum is 0 at the apex), so the cone is built
    without them (:func:`_step_cone`).  The apex row is read once: its
    mask d(a, .) <= eps/2 is both the cone's ramp and the ball
    B_{eps/2}(a).  The sums f + g, g + cone and f + g' keep their table
    checks (a sum can overflow, and each keeps its minimum), and the
    containment is replayed.
    """
    if g.space is not f.space:
        raise ValueError("perturbation lives on a different space")
    if not (eps / 2.0 > 0.0 and eps < np.inf):  # NaN fails both
        raise ValueError("eps must be positive and finite, with eps/2 > 0")
    fg = f + g
    # the first point of argmin_set(fg, eps/4), read off the kept minimum
    a = int(np.argmax(fg.values <= fg.low + eps / 4.0))
    cone, near = _step_cone(f.space, a, eps)
    g_prime = g + cone
    fg2 = f + g_prime
    omega = argmin_set(fg2, eps / 2.0)
    if not omega.issubset(PointSubset._where(f.space, near)):
        # the cone construction proves this containment; reaching here is a bug
        raise AssertionError("density step localization failed to replay")
    # the move is the cone itself; re-deriving it as (g + cone) - g would
    # pick up one rounding step per entry and can overshoot eps by an ulp
    return DensityStepResult(
        g_prime=g_prime,
        delta=eps / 2.0,
        achieved_diam=diam(omega),
        distance_moved=sup_norm(cone.values),
        center=a,
    )


def mn_membership(f: ObjectiveFunction, g: PerturbationFunction, n: int,
                  t_grid=None) -> tuple[bool, float | None]:
    """Smallest grid t with diam(argmin_set(f + g, t)) < 1/n, if any.

    diam is non-decreasing in t, so if any grid t succeeds the smallest
    one does: the sweep reads the one cut at the smallest t.
    Default grid: geometric from the space diameter (1 if it is 0) down
    16 octaves, whose smallest t is diameter / 2^16 (a division by a
    power of two is monotone); it is computed directly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if g.space is not f.space:
        raise ValueError("perturbation lives on a different space")
    if t_grid is None:
        grid = [(f.space.diameter() or 1.0) / 2.0**16]
    else:
        grid = [float(t) for t in t_grid]
    if not grid or not all(t > 0.0 for t in grid):  # NaN is not > 0
        raise ValueError("t grid must be positive")
    t = min(grid)
    fg = f + g
    d = sublevel_diameters(fg.values, (t,), f.space.prefix_diameters)[0]
    return (True, t) if d < 1.0 / n else (False, None)


def openness_radius(f: ObjectiveFunction, g: PerturbationFunction, eps: float, c_p: float) -> float:
    """Stability radius eps / (3 c_p) for the localization property."""
    if not (eps > 0.0 and c_p > 0.0):
        raise ValueError("eps and c_p must be positive")
    return eps / (3.0 * c_p)


@dataclass(frozen=True, eq=False)
class OpennessReport:
    """Outcome of one openness trial.

    holds is None when the trial is not applicable (the competitor g2
    sits outside the stability radius), True/False otherwise.
    """

    radius: float
    rho: float
    applicable: bool
    holds: bool | None
    diam_before: float
    diam_after: float | None


def check_openness_contract(f: ObjectiveFunction, g: PerturbationFunction,
                            g2: PerturbationFunction, eps: float, c_p: float,
                            rho_value: float | None = None) -> OpennessReport:
    """Check that localization survives a move from g to g2.

    Hypothesis (checked, PreconditionError on failure): argmin_set(f+g, eps)
    has diameter < eps.  If rho(g, g2) < radius = eps/(3 c_p) the report
    asserts diam(argmin_set(f+g2, eps/3)) < eps; rho defaults to the sup
    norm of g - g2, with rho_value overriding for scaled divergences
    (must then dominate the sup norm / c_p).
    """
    if g.space is not f.space or g2.space is not f.space:
        raise ValueError("perturbations live on a different space")
    base = diam(argmin_set(f + g, eps))
    if not (base < eps):
        raise PreconditionError(
            f"hypothesis fails: diam at eps is {base}, not < {eps}"
        )
    radius = openness_radius(f, g, eps, c_p)
    rho = float(rho_value) if rho_value is not None else sup_norm(g.values - g2.values)
    if not (rho < radius):
        return OpennessReport(radius=radius, rho=rho, applicable=False, holds=None,
                              diam_before=base, diam_after=None)
    after = diam(argmin_set(f + g2, eps / 3.0))
    return OpennessReport(radius=radius, rho=rho, applicable=True,
                          holds=bool(after < eps), diam_before=base, diam_after=after)


# ----------------------------------------------------------------------
# axiom battery


def check_pert_axioms(param_space: FiniteMetricSpace, f_fam, sample_p, eps_list) -> dict:
    """Battery of structural checks on a parametric family's perturbations.

    f_fam is a ParametricFamily; sample_p indexes parameters to probe.
    Returns a JSON-ready report with one entry per axiom:

      translation: moving f_p by a constant never changes its eps-argmin;
      bounded:     every probed |f_p| is finite with a recorded bound;
      modulus:     a finite sup-norm Lipschitz constant across sampled
                   parameter pairs (trivially satisfiable on finite
                   grids; the recorded value is the best constant);
      calibration: c = max over probe cones of beta / sup|u|, the cone's
                   height over the move it makes; ok iff c <= 1 + 1e-12,
                   the "moves exactly eps" premise of buc_density_step;
      density:     buc_density_step succeeds at every (p, eps) probe.
    """
    sample_p = [int(p) for p in sample_p]
    for p in sample_p:
        if not (0 <= p < param_space.n):
            raise ValueError(f"parameter index {p} out of range")
    eps_list = [float(e) for e in eps_list]
    if any(e <= 0.0 for e in eps_list):
        raise ValueError("eps probes must be positive")
    dom = f_fam.domain

    objs = {p: f_fam.objective(p) for p in sample_p}  # for argmin_set and the density step
    translation_ok = True
    for p in sample_p:
        f = objs[p]
        shifted = ObjectiveFunction(dom, f.values + 7.25)
        for e in eps_list:
            if not np.array_equal(argmin_set(f, e).indices, argmin_set(shifted, e).indices):
                translation_ok = False

    rows = {p: f_fam.values[p] for p in sample_p}  # validated read-only rows, not copied
    bounds = {p: sup_norm(row[np.isfinite(row)]) for p, row in rows.items()}
    bounded_ok = all(np.isfinite(b) for b in bounds.values())

    lip = 0.0
    pairs = 0
    for i, p in enumerate(sample_p):
        for q in sample_p[i + 1:]:
            mu = param_space.dist(p, q)
            if mu > 0.0:
                gap = sup_norm(rows[p] - rows[q])
                lip = max(lip, gap / mu)
                pairs += 1
    modulus_ok = bool(pairs == 0 or np.isfinite(lip))

    # cone probes, shaped as buc_density_step's: height beta = e over the
    # move sup|u| the cone makes, which is beta exactly when some point is
    # at least gamma = e/2 from the apex; a smaller domain reads c > 1
    c_best = 0.0
    for e in eps_list:
        move = cone_perturbation(dom, 0, beta=e, gamma=e / 2.0).sup_norm()
        c_best = max(c_best, e / move if move > 0.0 else np.inf)
    calibration_ok = c_best <= 1.0 + 1e-12

    density_runs = []
    density_ok = True
    zero = PerturbationFunction(dom, np.zeros(dom.n))
    for p in sample_p:
        for e in eps_list:
            step = buc_density_step(objs[p], zero, e)
            ok = bool(step.achieved_diam <= e)
            density_ok = density_ok and ok
            density_runs.append({"p": p, "eps": e, "center": step.center,
                                 "achieved_diam": float(step.achieved_diam), "ok": ok})

    return {
        "translation": {"ok": translation_ok},
        "bounded": {"ok": bounded_ok,
                    "bounds": {str(p): float(b) for p, b in bounds.items()}},
        "modulus": {"ok": modulus_ok, "lipschitz": float(lip), "pairs": pairs},
        "calibration": {"ok": calibration_ok, "c": float(c_best)},
        "density": {"ok": density_ok, "runs": density_runs},
        "all_ok": bool(translation_ok and bounded_ok and modulus_ok
                       and calibration_ok and density_ok),
    }
