"""Spans and work counters recorded from outside the wellpose package.

A :class:`Tracer` rebinds the listed library functions and methods to
wrappers while it is installed and puts the originals back afterwards;
nothing is wrapped while no tracer is installed.  A module-level function
is rebound in every loaded ``wellpose.*`` module that holds the same
function object, because modules import each other's functions by name
(``parametric`` and ``perturbation`` both import ``diam``).  Methods are
rebound on their classes, so every nested call (``SumOf`` children, the
line quotient's inner ``base.eval_many``) gets its own span.

A span is (name, start, end, parent span, job id).  Spans stay in memory
until :meth:`Tracer.metrics` aggregates them; a span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

from wellpose import objectives, seminorms, spaces, steckin

_FS = spaces.FiniteMetricSpace


def _rows(prefix):
    def count(c, args, kwargs, out):
        c[prefix + ".rows"] += len(args[1])
    return count


def _block(c, args, kwargs, out):
    space, idx = args[0], args[1]
    cells = len(idx) * space.n
    c["spaces.FiniteMetricSpace.block.cells"] += cells
    if space._matrix is None:
        c["spaces.FiniteMetricSpace.block.lazy_cells"] += cells


def _space_init(c, args, kwargs, out):
    matrix = args[0]._matrix
    if matrix is not None:
        c["spaces.FiniteMetricSpace.init.matrix_mb"] += matrix.nbytes / 1e6


def _regularize(c, args, kwargs, out):
    eps = args[1] if len(args) > 1 else kwargs["eps"]
    if eps != 0.0:
        c["objectives.regularize.cells"] += args[0].space.n ** 2


def _certify(c, args, kwargs, out):
    fam, p, _, grid = args
    c["parametric.certify_uniform_epi.neighbours"] += int(
        np.count_nonzero(fam.params.space.row(p) <= max(grid)))
    c["parametric.certify_uniform_epi.ok"] += out.ok


def _wellpose_point(c, args, kwargs, out):
    # the first strategy tried is "interior" for a point of the body and
    # "perturbed" otherwise
    c["steckin.wellpose_point.first_strategy"] += out.status in ("interior", "perturbed")


def tree_nodes(expr) -> int:
    """Node count of a seminorm expression tree."""
    kids = getattr(expr, "children", ())
    for attr in ("child", "base"):
        if hasattr(expr, attr):
            kids = (getattr(expr, attr),)
    return 1 + sum(tree_nodes(k) for k in kids)


def _renorm(c, args, kwargs, out):
    c["steckin.baire_renorm.witnesses"] += len(args[2])
    c["steckin.baire_renorm.steps_ok"] += len(out.ledger.steps)
    c["seminorms.tree_nodes_total"] += tree_nodes(out.nu_final)


def _add(key, fn):
    def count(c, args, kwargs, out):
        c[key] += fn(args, out)
    return count


# span name -> (owner, attribute, counter).  An owner given as a string is
# a module name; its function is rebound wherever wellpose imported it.
# A counter is called as counter(counts, args, kwargs, result) after the
# call returns, with tracing paused.
TARGETS = {
    "seminorms.abslinear": (seminorms.AbsLinear, "eval_many", _rows("seminorms.abslinear")),
    "seminorms.max": (seminorms.MaxOf, "eval_many", _rows("seminorms.max")),
    "seminorms.sum": (seminorms.SumOf, "eval_many", _rows("seminorms.sum")),
    "seminorms.scale": (seminorms.Scale, "eval_many", _rows("seminorms.scale")),
    "seminorms.euclidean": (seminorms.Euclidean, "eval_many", _rows("seminorms.euclidean")),
    "seminorms.linequotient": (seminorms.LineQuotient, "eval_many",
                               _rows("seminorms.linequotient")),
    "steckin.k_nu": ("wellpose.steckin", "k_nu", None),
    "steckin.a_nu": ("wellpose.steckin", "a_nu", None),
    "steckin.rho": ("wellpose.steckin", "rho", None),
    "steckin.set_diameter": ("wellpose.steckin", "set_diameter",
                             _add("steckin.set_diameter.points", lambda a, o: len(a[0]))),
    "steckin.wellpose_point": ("wellpose.steckin", "wellpose_point", _wellpose_point),
    "steckin.ConvexBody.contains": (steckin.ConvexBody, "contains", None),
    "steckin.c_of_p": ("wellpose.steckin", "c_of_p", None),
    "steckin.baire_renorm": ("wellpose.steckin", "baire_renorm", _renorm),
    "steckin.make_setting": ("wellpose.steckin", "make_setting",
                             _add("steckin.make_setting.sphere_points",
                                  lambda a, o: o.sphere.shape[0])),
    "objectives.argmin_set": ("wellpose.objectives", "argmin_set",
                              _add("objectives.argmin_set.members", lambda a, o: len(o))),
    "objectives.wellposedness_modulus": (
        "wellpose.objectives", "wellposedness_modulus",
        _add("objectives.wellposedness_modulus.thresholds", lambda a, o: len(o.eps_grid))),
    "objectives.regularize": ("wellpose.objectives", "regularize", _regularize),
    "objectives.ObjectiveFunction": (objectives.ObjectiveFunction, "__init__", None),
    "spaces.FiniteMetricSpace.block": (_FS, "block", _block),
    "spaces.FiniteMetricSpace.row": (_FS, "row", None),
    "spaces.FiniteMetricSpace.init": (_FS, "__init__", _space_init),
    "spaces.diam": ("wellpose.spaces", "diam",
                    _add("spaces.diam.members", lambda a, o: len(a[0]))),
    "spaces.ball": ("wellpose.spaces", "ball", None),
    "spaces.PointSubset": (spaces.PointSubset, "__init__", None),
    "parametric.certify_uniform_epi": ("wellpose.parametric", "certify_uniform_epi", _certify),
    "parametric.check_cond2": ("wellpose.parametric", "check_cond2", None),
    "parametric.recheck_certificate": ("wellpose.parametric", "recheck_certificate", None),
    "parametric.argmin_usc": ("wellpose.parametric", "argmin_usc", None),
    "parametric.check_5r_lemma": ("wellpose.parametric", "check_5r_lemma", None),
    "parametric.no_continuous_selection_demo": (
        "wellpose.parametric", "no_continuous_selection_demo", None),
    "parametric.default_delta_grid": ("wellpose.parametric", "default_delta_grid", None),
    "parametric.vime_family": ("wellpose.parametric", "vime_family", None),
    "perturbation.buc_density_step": ("wellpose.perturbation", "buc_density_step", None),
    "perturbation.mn_membership": ("wellpose.perturbation", "mn_membership", None),
}

SEMINORM_KINDS = ("abslinear", "max", "sum", "scale", "euclidean", "linequotient")

# (name, unit, better): the per-layer metrics a traced run prints
PER_LAYER = (
    [(f"seminorms.{k}.{m}", u, "lower") for k in SEMINORM_KINDS
     for m, u in (("calls", "count"), ("self_s", "s"), ("rows", "count"))]
    + [("seminorms.tree_nodes", "count", "lower")]
    + [(f"steckin.{f}.{m}", u, "lower")
       for f in ("k_nu", "a_nu", "rho", "set_diameter", "wellpose_point",
                 "ConvexBody.contains", "c_of_p", "baire_renorm")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("steckin.set_diameter.points", "count", "lower"),
       ("steckin.wellpose_point.first_strategy_ratio", "ratio", "higher"),
       ("steckin.baire_renorm.witnesses", "count", "higher"),
       ("steckin.baire_renorm.steps_ok", "count", "higher"),
       ("steckin.baire_renorm.size_exponent", "log-log", "lower"),
       ("steckin.make_setting.self_s", "s", "lower"),
       ("steckin.make_setting.sphere_points", "count", "lower"),
       ("objectives.argmin_set.calls", "count", "lower"),
       ("objectives.argmin_set.self_s", "s", "lower"),
       ("objectives.argmin_set.members", "count", "lower"),
       ("objectives.wellposedness_modulus.calls", "count", "lower"),
       ("objectives.wellposedness_modulus.self_s", "s", "lower"),
       ("objectives.wellposedness_modulus.thresholds", "count", "lower"),
       ("objectives.wellposedness_modulus.size_exponent", "log-log", "lower"),
       ("objectives.regularize.calls", "count", "lower"),
       ("objectives.regularize.self_s", "s", "lower"),
       ("objectives.regularize.cells", "count", "lower"),
       ("objectives.ObjectiveFunction.calls", "count", "lower"),
       ("objectives.ObjectiveFunction.self_s", "s", "lower"),
       ("spaces.FiniteMetricSpace.block.calls", "count", "lower"),
       ("spaces.FiniteMetricSpace.block.self_s", "s", "lower"),
       ("spaces.FiniteMetricSpace.block.cells", "count", "lower"),
       ("spaces.FiniteMetricSpace.block.lazy_cells", "count", "lower"),
       ("spaces.FiniteMetricSpace.row.calls", "count", "lower"),
       ("spaces.FiniteMetricSpace.row.self_s", "s", "lower"),
       ("spaces.diam.calls", "count", "lower"),
       ("spaces.diam.self_s", "s", "lower"),
       ("spaces.diam.members", "count", "lower"),
       ("spaces.ball.calls", "count", "lower"),
       ("spaces.ball.self_s", "s", "lower"),
       ("spaces.PointSubset.calls", "count", "lower"),
       ("spaces.PointSubset.self_s", "s", "lower"),
       ("spaces.FiniteMetricSpace.init.self_s", "s", "lower"),
       ("spaces.FiniteMetricSpace.init.matrix_mb", "MB", "lower"),
       ("parametric.certify_uniform_epi.calls", "count", "lower"),
       ("parametric.certify_uniform_epi.self_s", "s", "lower"),
       ("parametric.certify_uniform_epi.neighbours", "count", "lower"),
       ("parametric.certify_uniform_epi.ok_ratio", "ratio", "higher")]
    + [(f"parametric.{f}.{m}", u, "lower")
       for f in ("check_cond2", "recheck_certificate", "argmin_usc", "check_5r_lemma",
                 "no_continuous_selection_demo", "default_delta_grid")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("parametric.vime_family.self_s", "s", "lower"),
       ("perturbation.buc_density_step.calls", "count", "lower"),
       ("perturbation.buc_density_step.self_s", "s", "lower"),
       ("perturbation.mn_membership.calls", "count", "lower"),
       ("perturbation.mn_membership.self_s", "s", "lower"),
       ("perturbation.mn_membership.thresholds_scanned", "count", "lower"),
       ("trace.overhead_ratio", "ratio", "higher")]
)

# spans that happen only while inputs are built
SETUP_SPANS = ("steckin.make_setting", "spaces.FiniteMetricSpace.init",
               "parametric.vime_family")

# size exponents: span name -> how to read the job size from the call
_SIZES = {
    "steckin.baire_renorm": lambda args: len(args[2]),
    "objectives.wellposedness_modulus": lambda args: args[0].space.n,
}


def size_exponent(sizes, seconds) -> float:
    """Slope of log(seconds) against log(size); 0 without two distinct sizes."""
    sizes = np.asarray(sizes, dtype=np.float64)
    if np.unique(sizes).size < 2:
        return 0.0
    return float(np.polyfit(np.log(sizes), np.log(seconds), 1)[0])


class Tracer:
    """Records spans and counters while installed (a context manager)."""

    def __init__(self, targets=None):
        self.targets = TARGETS if targets is None else targets
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (name id, start, end, parent, job)
        self.sizes: dict[str, list] = defaultdict(list)  # name -> [(span, size)]
        self.counts: dict[str, float] = defaultdict(float)
        self.job = -1
        self._stack: list[int] = []
        self._paused = False
        self._undo: list[tuple] = []

    def __enter__(self):
        for name, (owner, attr, counter) in self.targets.items():
            self._install(name, owner, attr, counter)
        return self

    def __exit__(self, *exc):
        for holder, attr, orig in reversed(self._undo):
            setattr(holder, attr, orig)
        self._undo.clear()
        return False

    def _install(self, name, owner, attr, counter):
        if isinstance(owner, str):
            orig = getattr(sys.modules[owner], attr)
            holders = [m for key, m in list(sys.modules.items())
                       if key.split(".")[0] == "wellpose" and getattr(m, attr, None) is orig]
        else:
            orig = owner.__dict__[attr]
            holders = [owner]
        wrapper = self._wrap(name, orig, counter)
        for holder in holders:
            self._undo.append((holder, attr, orig))
            setattr(holder, attr, wrapper)

    def _wrap(self, name, fn, counter):
        if name not in self.names:  # a tracer can be installed many times
            self.names.append(name)
        nid = self.names.index(name)
        spans, stack, sizes = self.spans, self._stack, _SIZES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, self.job)
            if counter is not None or sizes is not None:
                self._paused = True
                try:
                    if counter is not None:
                        counter(self.counts, args, kwargs, out)
                    if sizes is not None:
                        self.sizes[name].append((idx, sizes(args)))
                finally:
                    self._paused = False
            return out

        return wrapper

    # ------------------------------------------------------------------

    def span_arrays(self) -> dict:
        arr = np.array(self.spans, dtype=np.float64).reshape(-1, 5)
        return {"name": arr[:, 0].astype(np.int64), "start": arr[:, 1], "end": arr[:, 2],
                "parent": arr[:, 3].astype(np.int64), "job": arr[:, 4].astype(np.int64)}

    def _table(self):
        """Span arrays, each span's duration and each span's name."""
        s = self.span_arrays()
        return s, s["end"] - s["start"], np.array(self.names, dtype=object)[s["name"]]

    def metrics(self) -> dict:
        """Every per-layer value this tracer can give, keyed by metric name.

        Calls and self times count spans inside jobs, except for the
        set-up functions, whose spans all fall before the first job.
        """
        s, dur, names = self._table()
        has_parent = s["parent"] >= 0
        own = dur - np.bincount(s["parent"][has_parent], weights=dur[has_parent],
                                minlength=dur.size)
        keep = (s["job"] >= 0) | np.isin(names, SETUP_SPANS)
        out: dict[str, float] = {}
        for name in self.targets:
            mask = keep & (names == name)
            out[f"{name}.calls"] = int(mask.sum())
            out[f"{name}.self_s"] = float(own[mask].sum())
        out.update(self.counts)
        for ratio, num, den in (
                ("seminorms.tree_nodes", "seminorms.tree_nodes_total",
                 "steckin.baire_renorm.calls"),
                ("steckin.wellpose_point.first_strategy_ratio",
                 "steckin.wellpose_point.first_strategy", "steckin.wellpose_point.calls"),
                ("parametric.certify_uniform_epi.ok_ratio", "parametric.certify_uniform_epi.ok",
                 "parametric.certify_uniform_epi.calls")):
            out[ratio] = self.counts[num] / out[den] if out.get(den) else 0.0
        for name in _SIZES:
            pairs = self.sizes[name]
            out[f"{name}.size_exponent"] = size_exponent(
                [z for _, z in pairs], [dur[i] for i, _ in pairs])
        mn = np.flatnonzero(names == "perturbation.mn_membership")
        out["perturbation.mn_membership.thresholds_scanned"] = int(
            ((names == "objectives.argmin_set") & np.isin(s["parent"], mn)).sum())
        return out

    def share_under(self, inner: str, outer: str) -> float:
        """Time in `inner` spans over time in `outer` spans (inclusive)."""
        _, dur, names = self._table()
        total = dur[names == outer].sum()
        return float(dur[names == inner].sum() / total) if total > 0 else 0.0
