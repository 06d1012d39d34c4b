"""Ready-made problem instances and seeded random generators.

The segment instance is the canonical ill-posed projection: every point
of the segment is nearest to p in the sup norm, so the projection has no
localization at all until the seminorm is perturbed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .objectives import ObjectiveFunction
from .parametric import ParameterGrid, ParametricFamily
from .perturbation import PerturbationFunction
from .seminorms import AbsLinear, MaxOf, Scale, SeminormExpr, SumOf, linf_norm
from .spaces import FiniteMetricSpace, _count
from .steckin import ConvexBody, NormedSetting, make_setting, segment_body

__all__ = [
    "SteckinInstance",
    "segment_instance",
    "acceptance_witness_points",
    "necessity_witness_points",
    "steckin_instance_from_json",
    "random_space",
    "random_objective",
    "random_perturbation",
    "random_lipschitz_family",
    "random_polyhedral_seminorm",
    "random_norm",
]


@dataclass(frozen=True, eq=False)
class SteckinInstance:
    setting: NormedSetting
    body: ConvexBody
    nu0: SeminormExpr
    p: np.ndarray
    witness_points: tuple[tuple[float, ...], ...]


def acceptance_witness_points() -> tuple[tuple[float, float], ...]:
    return ((0.0, 2.0), (0.5, 2.0), (-0.5, 2.0))


def necessity_witness_points() -> tuple[tuple[float, float], ...]:
    """Witnesses whose quotient directions leave each other's claims flat.

    The two side points sit on the segment's own axis, so their quotient
    terms are constant along the segment and protect nothing at the apex
    point; dropping a step visibly breaks exactly that step's claim.
    """
    return ((0.0, 2.0), (5.0, 0.0), (-5.0, 0.0))


def segment_instance(n_samples: int = 2001, mesh: float = 1e-3) -> SteckinInstance:
    """Sup-norm plane, horizontal unit segment, apex point two above."""
    base = linf_norm(2)
    setting = make_setting(2, base, mesh)
    body = segment_body(np.array([-1.0, 0.0]), np.array([1.0, 0.0]), n_samples)
    p = np.array([0.0, 2.0])
    return SteckinInstance(setting=setting, body=body, nu0=base, p=p,
                           witness_points=acceptance_witness_points())


def steckin_instance_from_json(desc: dict) -> SteckinInstance:
    """Instance descriptor: segment or polytope body plus norms and points."""
    from .seminorms import euclidean_norm, l1_norm, seminorm_from_json
    from .steckin import polytope_body

    if not isinstance(desc, dict):
        raise ValueError("instance descriptor must be an object")
    kind = desc.get("kind")
    dim_hint = None
    if kind == "segment":
        a = np.asarray(desc["a"], dtype=np.float64)
        b = np.asarray(desc["b"], dtype=np.float64)
        body = segment_body(a, b, _count(desc.get("n_samples", 2001), "n_samples"))
        dim_hint = a.size
    elif kind == "polytope":
        verts = np.asarray(desc["vertices"], dtype=np.float64)
        body = polytope_body(verts, _count(desc.get("n_samples", 2048), "n_samples"),
                             seed=_count(desc.get("seed", 0), "seed"))
        dim_hint = verts.shape[1]
    else:
        raise ValueError(f"unknown instance kind {kind!r}")

    base_desc = desc.get("base", "linf")
    named = {"linf": linf_norm, "l1": l1_norm, "euclidean": euclidean_norm}
    if isinstance(base_desc, str):
        if base_desc not in named:
            raise ValueError(f"unknown base norm {base_desc!r}")
        base = named[base_desc](dim_hint)
    else:
        base = seminorm_from_json(base_desc)
    setting = make_setting(dim_hint, base, float(desc.get("mesh", 1e-3)))
    nu0 = seminorm_from_json(desc["nu0"]) if "nu0" in desc else base
    witnesses = desc.get("witness_points", [desc.get("p", [0.0] * dim_hint)])
    if not witnesses:
        raise ValueError("witness_points must not be empty")
    witnesses = tuple(tuple(float(v) for v in w) for w in witnesses)
    p = np.asarray(desc.get("p", witnesses[0]), dtype=np.float64)
    if not all(np.all(np.isfinite(w)) for w in witnesses + (p,)):
        raise ValueError("witness points and p must be finite")
    return SteckinInstance(setting=setting, body=body, nu0=nu0, p=p,
                           witness_points=witnesses)


# ----------------------------------------------------------------------
# seeded generators


def random_space(rng: np.random.Generator, max_n: int = 100) -> FiniteMetricSpace:
    kind = int(rng.integers(0, 3))
    if kind == 0:
        steps = int(rng.integers(1, max_n))
        return FiniteMetricSpace.grid1d(0.0, 1.0, steps)
    n = int(rng.integers(2, max_n + 1))
    d = int(rng.integers(1, 4))
    pts = rng.uniform(-5.0, 5.0, size=(n, d))
    metric = ("euclidean", "linf", "l1")[int(rng.integers(0, 3))]
    return FiniteMetricSpace.pointcloud(pts, metric=metric)


def random_objective(rng: np.random.Generator, space: FiniteMetricSpace,
                     inf_prob: float = 0.15) -> ObjectiveFunction:
    vals = rng.normal(0.0, 2.0, size=space.n)
    if space.n > 1 and rng.uniform() < inf_prob:
        k = int(rng.integers(1, space.n))  # keep at least one finite value
        idx = rng.choice(space.n, size=k, replace=False)
        vals[idx] = np.inf
    return ObjectiveFunction(space, vals)


def random_perturbation(rng: np.random.Generator, space: FiniteMetricSpace,
                        bound: float) -> PerturbationFunction:
    """Uniform noise with sup norm strictly below bound (margin <= 0.999)."""
    if not (bound > 0.0):
        raise ValueError("bound must be positive")
    u = rng.uniform(0.05, 0.999)
    vals = rng.uniform(-1.0, 1.0, size=space.n) * (bound * u)
    return PerturbationFunction(space, vals)


def random_lipschitz_family(rng: np.random.Generator, *, max_params: int = 40,
                            max_points: int = 60,
                            lipschitz_cap: float | None = None) -> ParametricFamily:
    """base + coef(p) * bump with an exact sup-norm slope in p.

    With lipschitz_cap = eps * steps / 2 the analytic radius eps / L is
    at least two parameter spacings, so a power-of-two search grid
    capped at the spacing always contains a working radius.
    """
    steps = int(rng.integers(4, max_params + 1))
    pspace = FiniteMetricSpace.grid1d(0.0, 1.0, steps)
    n = int(rng.integers(5, max_points + 1))
    domain = FiniteMetricSpace.pointcloud(rng.uniform(-3.0, 3.0, size=(n, 2)), metric="linf")
    base = rng.normal(0.0, 1.0, size=n)
    bump = rng.uniform(-1.0, 1.0, size=n)
    peak = float(np.max(np.abs(bump)))
    if peak == 0.0:
        bump[0] = 1.0
        peak = 1.0
    cap = lipschitz_cap if lipschitz_cap is not None else 2.0
    c = rng.uniform(0.1, 0.999) * cap / peak
    ps = np.arange(steps + 1, dtype=np.float64) / steps
    values = base + (c * ps)[:, None] * bump
    return ParametricFamily(ParameterGrid(pspace), domain, values,
                            lipschitz_in_p=c * peak, meta={"kind": "lipschitz_expr"}, owned=True)


def random_polyhedral_seminorm(rng: np.random.Generator, dim: int) -> SeminormExpr:
    """Max/sum/scale tree over one to four random absolute linear functionals."""
    t = int(rng.integers(1, 5))
    rows = rng.normal(0.0, 1.0, size=(t, dim))
    atoms = [AbsLinear(r) for r in rows]
    expr: SeminormExpr = MaxOf(tuple(atoms)) if len(atoms) > 1 else atoms[0]
    roll = rng.uniform()
    if roll < 0.3:
        expr = Scale(float(rng.uniform(0.1, 3.0)), expr)
    elif roll < 0.5:
        expr = SumOf((expr, AbsLinear(rng.normal(0.0, 1.0, size=dim))))
    return expr


def random_norm(rng: np.random.Generator, dim: int) -> SeminormExpr:
    """Definite by construction: the sup norm joins one to three random rows."""
    t = int(rng.integers(1, 4))
    rows = rng.normal(0.0, 1.0, size=(t, dim))
    eye = np.eye(dim)
    atoms = [AbsLinear(eye[i]) for i in range(dim)] + [AbsLinear(r) for r in rows]
    return MaxOf(tuple(atoms))
