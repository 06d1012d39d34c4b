"""Array-backed family checks against brute-force per-parameter loops.

Each reference below walks the neighbours q one at a time and the domain
one point at a time, the way the checks read in the paper; the library
answers with one array expression over the (P, N) value table.  The
certificates must agree exactly: deltas, witness dicts, violation
tuples and bad parameter lists.
"""

import numpy as np
import pytest

from wellpose.errors import PreconditionError
from wellpose.instances import random_lipschitz_family
from wellpose.objectives import ObjectiveFunction, argmin_set, ball_min, regularize
from wellpose.parametric import (
    EpiCertificate,
    ParameterGrid,
    ParametricFamily,
    argmin_usc,
    certify_uniform_epi,
    check_cond1,
    check_cond2,
    check_sum_epi,
    default_delta_grid,
    family_from_json,
    no_continuous_selection_demo,
    recheck_certificate,
    value_function,
    vime_family,
)
from wellpose.perturbation import PerturbationFamily, PerturbationFunction
from wellpose.spaces import FiniteMetricSpace, ball

# ----------------------------------------------------------------------
# references


def _ref_ball_min(space, vals, eps):
    return np.array([vals[space.row(x) <= eps].min() for x in range(space.n)])


def _first_below(grid, min_bad):
    return next((d for d in grid if d < min_bad), None)


def _ref_cond1(fam, p, x, eps, grid):
    fp_x = float(fam.objective(p).values[x])
    if fp_x == np.inf:
        return (grid[0], {}, True)
    ball_x = ball(fam.domain, x, eps).sorted_indices()
    prow = fam.params.space.row(p)
    witnesses, min_bad = {}, np.inf
    for q in np.flatnonzero(prow <= grid[0]):
        sub = fam.objective(int(q)).values[ball_x]
        k = int(np.argmin(sub))
        if sub[k] <= fp_x + eps:
            witnesses[int(q)] = int(ball_x[k])
        else:
            min_bad = min(min_bad, float(prow[q]))
    delta = _first_below(grid, min_bad)
    if delta is None:
        return (None, None, False)
    return (delta, {q: w for q, w in witnesses.items() if prow[q] <= delta}, False)


def _ref_cond2(fam, p, eps, grid):
    floor = _ref_ball_min(fam.domain, fam.objective(p).values, eps) - eps
    prow = fam.params.space.row(p)
    min_bad, violation = np.inf, None
    for q in np.flatnonzero(prow <= grid[0]):
        viol = fam.objective(int(q)).values < floor
        if np.any(viol) and float(prow[q]) < min_bad:
            min_bad = float(prow[q])
            violation = (int(q), int(np.flatnonzero(viol)[0]))
    delta = _first_below(grid, min_bad)
    return (delta, violation if delta is None else None)


def _ref_cond1_uniform(fam, p, eps, grid):
    fp = fam.objective(p).values
    prow = fam.params.space.row(p)
    min_bad = np.inf
    for q in np.flatnonzero(prow <= grid[0]):
        if not np.all(_ref_ball_min(fam.domain, fam.objective(int(q)).values, eps) <= fp + eps):
            min_bad = min(min_bad, float(prow[q]))
    return _first_below(grid, min_bad)


def _ref_recheck(fam, cert):
    qs = np.flatnonzero(fam.params.space.row(cert.p) <= cert.delta)
    fp_x = float(fam.objective(cert.p).values[cert.anchor_x]) if cert.condition == 1 else None
    if cert.condition == 1:
        if cert.vacuous:
            return fp_x == np.inf
        for q in qs:
            xq = cert.witnesses.get(int(q))
            if xq is None or not (fam.domain.dist(cert.anchor_x, xq) <= cert.eps):
                return False
            if not (fam.objective(int(q)).values[xq] <= fp_x + cert.eps):
                return False
        return True
    floor = _ref_ball_min(fam.domain, fam.objective(cert.p).values, cert.eps) - cert.eps
    return all(bool(np.all(fam.objective(int(q)).values >= floor)) for q in qs)


def _ref_usc(fam, p, eps, grid):
    x_p = int(next(iter(argmin_set(fam.objective(p), 0.0))))
    target = ball(fam.domain, x_p, eps)
    prow = fam.params.space.row(p)
    for delta in grid:
        if all(argmin_set(fam.objective(int(q)), delta).issubset(target)
               for q in np.flatnonzero(prow <= delta)):
            return x_p, delta
    return x_p, None


def _ref_gcont(fam, g_fam, p, eps, grid):
    gp = g_fam.values[p]
    prow = fam.params.space.row(p)
    for delta in grid:
        worst = -np.inf
        for q in np.flatnonzero(prow <= delta):
            for x in range(fam.domain.n):
                near = fam.domain.row(x) <= delta
                worst = max(worst, float(np.abs(g_fam.values[q][near] - gp[x]).max()))
        if worst < eps:
            return delta
    return None


def _ref_demo(fam, eps):
    k = fam.meta["x_steps"]
    xs = range(k + 1)
    left = {i for i in xs if 3 * i <= k}
    interior = {i for i in xs if k < 3 * i < 2 * k}
    right = {i for i in xs if 3 * i >= 2 * k}
    omegas = [argmin_set(fam.objective(p), eps).members for p in range(fam.params.space.n)]
    bad = tuple(p for p, om in enumerate(omegas) if not om.isdisjoint(interior))
    return omegas[0] <= left, omegas[-1] <= right, bad


# ----------------------------------------------------------------------
# families


def _tie_table_family():
    """Two bad parameters (1 and 2) at equal distance 1 from p = 0, +inf entries.

    Against the floor (f_0)_0.3 - 0.3 = -0.3, q = 1 violates at x = 3 and
    q = 2 at x = 1 and x = 4; q = 3 violates too, but from distance 2.
    """
    pspace = FiniteMetricSpace.pointcloud([[0.0], [1.0], [-1.0], [2.0]], metric="l1")
    domain = FiniteMetricSpace.grid1d(0.0, 1.0, 4)
    inf = np.inf
    rows = [[0.0, 0.0, inf, 0.0, 0.0],
            [0.0, inf, 0.0, -1.0, 0.0],
            [inf, -1.0, 0.0, 0.0, -2.0],
            [-5.0, inf, inf, inf, inf]]
    return ParametricFamily(ParameterGrid(pspace), domain, np.array(rows))


def _random_table_family(seed):
    """Small integer values (many ties), +inf entries, equal parameter spacings."""
    rng = np.random.default_rng(seed)
    pspace = FiniteMetricSpace.grid1d(0.0, 1.0, int(rng.integers(3, 9)))
    domain = FiniteMetricSpace.pointcloud(rng.integers(0, 4, size=(int(rng.integers(4, 12)), 2)),
                                          metric=("linf", "l1", "euclidean")[seed % 3])
    values = rng.integers(-2, 3, size=(pspace.n, domain.n)) * 0.25
    values[rng.uniform(size=values.shape) < 0.2] = np.inf
    values[np.arange(pspace.n), rng.integers(0, domain.n, size=pspace.n)] = 0.0
    return ParametricFamily(ParameterGrid(pspace), domain, values)


def _families():
    yield vime_family(99, 99)
    for seed in range(3):
        yield random_lipschitz_family(np.random.default_rng(seed), max_params=25, max_points=30)
    yield _tie_table_family()
    for seed in range(6):
        yield _random_table_family(seed)


def _line_spaces(rng):
    """1-D coordinate spaces for the interval path, by name."""
    ticks = rng.integers(0, 12, size=40) / 4.0  # unsorted, many duplicates
    spaces = {f"{m}_ticks": FiniteMetricSpace.pointcloud(ticks[:, None], metric=m)
              for m in ("linf", "l1", "euclidean")}
    spaces.update({f"{m}_floats": FiniteMetricSpace.pointcloud(rng.normal(size=(50, 1)), metric=m)
                   for m in ("linf", "l1", "euclidean")})
    # sqrt(x * x) underflows to 0 for these gaps, so every ball is the
    # whole line: the searchsorted guesses at c +- eps miss it, the
    # bisection has to find it
    subnormal = [[1e-320], [0.0], [5e-324], [1e-320], [3e-321], [2.5e-322]]
    spaces["euclidean_subnormal"] = FiniteMetricSpace.pointcloud(subnormal, metric="euclidean")
    spaces["grid"] = FiniteMetricSpace.grid1d(0.0, 1.0, 299)
    # c + eps overflows here for the largest radii
    spaces["linf_wide"] = FiniteMetricSpace.pointcloud(rng.normal(size=(20, 1)) * 1e307, metric="linf")
    return spaces


def _line_radii(space, rng):
    """eps = 0, exact pairwise distances, values between them, the diameter and beyond."""
    dists = np.unique(space.block(np.arange(space.n)))
    picked = rng.choice(dists, size=min(8, dists.size), replace=False)
    return sorted({0.0, *picked.tolist(), *(np.nextafter(picked, 0.0)).tolist(),
                   float(dists[-1]), 2.0 * float(dists[-1]) + 1.0,
                   float(np.finfo(np.float64).max), np.inf})


def _line_rows(space, rng):
    rows = rng.integers(-4, 5, size=(5, space.n)) / 2.0  # ties
    rows[rng.uniform(size=rows.shape) < 0.3] = np.inf
    rows[:, rng.integers(space.n)] = 0.0
    return rows


def _params(fam):
    n = fam.params.space.n
    return sorted({0, n // 3, n // 2, n - 1})


# ----------------------------------------------------------------------
# the checks


class TestAgainstTheLoops:
    def test_ball_min_equals_the_per_point_enumeration(self):
        for fam in _families():
            for eps in (0.0, 0.2, 1.0):
                got = ball_min(fam.domain, fam.values, eps)
                want = np.array([_ref_ball_min(fam.domain, row, eps) for row in fam.values])
                assert np.array_equal(got, want)
                if eps > 0.0:  # regularize(f, 0) is f itself, even beside duplicate points
                    assert np.array_equal(regularize(fam.objective(0), eps).values, want[0])

    def test_ball_min_on_a_line_equals_the_enumeration_and_the_masked_path(self):
        rng = np.random.default_rng(7)
        for name, space in _line_spaces(rng).items():
            # a matrix space of the same distances takes the masked path
            masked = FiniteMetricSpace.from_matrix(space.block(np.arange(space.n)))
            rows = _line_rows(space, rng)
            for eps in _line_radii(space, rng):
                got = ball_min(space, rows, eps)
                want = np.array([_ref_ball_min(space, row, eps) for row in rows])
                assert np.array_equal(got, want), (name, eps)
                assert np.array_equal(ball_min(masked, rows, eps), want), (name, eps)

    def test_ball_intervals_are_exactly_the_balls(self):
        rng = np.random.default_rng(8)
        for name, space in _line_spaces(rng).items():
            for eps in _line_radii(space, rng):
                order, lo, hi = space._ball_intervals(eps)
                assert np.array_equal(order, np.argsort(space._coords[:, 0], kind="stable"))
                inside = space.block(order)[:, order] <= eps
                pos = np.arange(space.n)
                runs = (pos[None, :] >= lo[:, None]) & (pos[None, :] <= hi[:, None])
                assert np.array_equal(inside, runs), (name, eps)

    def test_the_interval_path_runs_on_lines_only(self, monkeypatch):
        calls = {"block": 0, "runs": []}
        real_block, real_runs = FiniteMetricSpace.block, FiniteMetricSpace._ball_intervals

        def block(space, idx, cols=None):
            calls["block"] += 1
            return real_block(space, idx, cols)

        def runs(space, eps):
            out = real_runs(space, eps)
            calls["runs"].append(out is not None)
            return out

        monkeypatch.setattr(FiniteMetricSpace, "block", block)
        monkeypatch.setattr(FiniteMetricSpace, "_ball_intervals", runs)
        fam = vime_family(59, 59)
        rng = np.random.default_rng(9)
        for space in _line_spaces(rng).values():
            ball_min(space, _line_rows(space, rng), 0.5)
        certify_uniform_epi(fam, 10, 0.3, default_delta_grid(fam, 0.3))
        assert calls["block"] == 0 and calls["runs"] and all(calls["runs"])
        # a plane, and a matrix space even of a line, keep the masked path
        calls["runs"].clear()
        for space in (FiniteMetricSpace.pointcloud(rng.normal(size=(30, 2)), metric="linf"),
                      FiniteMetricSpace.from_matrix(fam.domain.block(np.arange(fam.domain.n)))):
            calls["block"] = 0
            ball_min(space, np.zeros((2, space.n)), 0.5)
            assert calls["block"] > 0
        assert calls["runs"] == [False, False]

    def test_ball_min_rejects_negative_radii(self):
        fam = vime_family(9, 9)
        for eps in (-0.1, np.nan):
            with pytest.raises(ValueError, match="nonnegative"):
                ball_min(fam.domain, fam.values, eps)

    def test_cond1_at_every_anchor(self):
        for fam in _families():
            for eps in (0.1, 0.3, 1.0):
                grid = default_delta_grid(fam, eps)
                for p in _params(fam):
                    for x in range(0, fam.domain.n, max(1, fam.domain.n // 7)):
                        cert = check_cond1(fam, p, x, eps, grid)
                        assert (cert.delta, cert.witnesses, cert.vacuous) == \
                            _ref_cond1(fam, p, x, eps, grid)

    def test_cond2_and_uniform_certificate(self):
        outcomes = set()
        for fam in _families():
            for eps in (0.1, 0.3, 1.0):
                grid = default_delta_grid(fam, eps)
                for p in _params(fam):
                    rep = certify_uniform_epi(fam, p, eps, grid)
                    cert = check_cond2(fam, p, eps, grid)
                    assert (cert.delta, cert.violation) == _ref_cond2(fam, p, eps, grid)
                    assert (rep.cond2.delta, rep.cond2.violation) == (cert.delta, cert.violation)
                    assert rep.cond1_delta == _ref_cond1_uniform(fam, p, eps, grid)
                    outcomes.add((rep.cond1_delta is None, cert.delta is None))
        assert outcomes == {(False, False), (True, True), (False, True), (True, False)}

    def test_certify_reuses_its_ball_min_block_for_cond2(self, monkeypatch):
        from wellpose import objectives, parametric

        calls = []

        def counting(space, rows, eps):
            calls.append(rows.shape[0])
            return ball_min(space, rows, eps)

        fams = [vime_family(99, 99)] + [
            random_lipschitz_family(np.random.default_rng(seed), max_params=25, max_points=30)
            for seed in range(3)]
        for fam in fams:
            for eps in (0.1, 0.3, 1.0):
                grid = default_delta_grid(fam, eps)
                for p in _params(fam):
                    with monkeypatch.context() as m:
                        m.setattr(parametric, "ball_min", counting)
                        m.setattr(objectives, "ball_min", counting)
                        calls.clear()
                        rep = certify_uniform_epi(fam, p, eps, grid)
                        assert len(calls) == 1
                    assert vars(rep.cond2) == vars(check_cond2(fam, p, eps, grid))

    def test_violation_tie_break_is_lowest_q_then_lowest_x(self):
        fam = _tie_table_family()
        cert = check_cond2(fam, 0, 0.3, (1.5, 1.0))
        assert cert.delta is None and cert.violation == (1, 3)
        assert _ref_cond2(fam, 0, 0.3, (1.5, 1.0)) == (None, (1, 3))
        # below distance 1 only p itself is left, and it never violates
        assert check_cond2(fam, 0, 0.3, (1.5, 0.5)).delta == 0.5

    def test_recheck_matches_on_real_and_tampered_certificates(self):
        verdicts = set()
        for fam in _families():
            grid = default_delta_grid(fam, 0.3)
            for p in _params(fam):
                certs = [check_cond2(fam, p, 0.3, grid)]
                certs += [check_cond1(fam, p, x, 0.3, grid) for x in range(min(fam.domain.n, 6))]
                for cert in [c for c in certs if c.ok]:
                    tampered = [cert, EpiCertificate(cert.condition, p, cert.eps, 2.0,
                                                     anchor_x=cert.anchor_x,
                                                     witnesses=cert.witnesses,
                                                     vacuous=cert.vacuous)]
                    if cert.condition == 1 and cert.witnesses:
                        q0 = min(cert.witnesses)
                        far = int(np.argmax(fam.domain.row(cert.anchor_x)))
                        for w in ({q: v for q, v in cert.witnesses.items() if q != q0},
                                  {**cert.witnesses, q0: far}):
                            tampered.append(EpiCertificate(1, p, cert.eps, cert.delta,
                                                           anchor_x=cert.anchor_x, witnesses=w))
                    for c in tampered:
                        got = recheck_certificate(fam, c)
                        assert got == _ref_recheck(fam, c)
                        verdicts.add(got)
        assert verdicts == {True, False}

    def test_argmin_usc(self):
        checked = 0
        for fam in _families():
            for eps in (0.05, 0.3, 1.0):
                grid = default_delta_grid(fam, eps)
                for p in _params(fam):
                    try:
                        rep = argmin_usc(fam, p, eps, grid)
                    except PreconditionError:
                        continue
                    assert (rep.x_p, rep.delta) == _ref_usc(fam, p, eps, grid)
                    checked += 1
        assert checked > 40

    def test_value_function(self):
        for fam in _families():
            want = [float(np.min(fam.objective(p).values)) for p in range(fam.params.space.n)]
            assert value_function(fam).tolist() == want

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2, 0.3, 0.4, 0.49])
    def test_selection_demo(self, eps):
        for fam in (vime_family(99, 99), vime_family(30, 12)):
            rep = no_continuous_selection_demo(fam, eps)
            assert (rep.left_ok, rep.right_ok, rep.bad_p) == _ref_demo(fam, eps)

    @pytest.mark.parametrize("rows, x, want", [
        ([4, 9], 12, (True, True, (4, 9))),  # interior points join two rows
        ([0], 10, (True, True, ())),  # the left block's closing point 3x = k
        ([0], 11, (False, True, (0,))),  # the first interior point
        ([-1], 20, (True, True, ())),  # the right block's opening point 3x = 2k
        ([-1], 19, (True, False, (12,))),  # the last interior point
    ])
    def test_selection_demo_on_bent_rows(self, rows, x, want):
        # lowering a point to its row's minimum puts it in the eps-argmin
        fam = vime_family(30, 12)
        vals = np.array(fam.values)
        vals[rows, x] = vals[rows].min(axis=1)
        bent = ParametricFamily(fam.params, fam.domain, vals, meta=fam.meta)
        rep = no_continuous_selection_demo(bent, 0.2)
        assert (rep.left_ok, rep.right_ok, rep.bad_p) == want == _ref_demo(bent, 0.2)

    def test_sum_epi_precheck_passes_and_fails_like_the_loop(self):
        fam = vime_family(30, 30)
        grid = default_delta_grid(fam, 0.3)
        ps = np.arange(31) / 30
        xs = np.arange(31) / 30
        smooth = 0.2 * np.outer(ps, xs)
        rough = smooth.copy()
        rough[16, 3] += 0.5  # one spike at p = 16/30
        dip = smooth.copy()
        dip[16, 3] -= 0.5  # seen from p = 15 only through the ball min
        seen = set()
        for table in (smooth, rough, dip):
            g = PerturbationFamily(fam.params.space, fam.domain, table)
            for p in (0, 15, 16, 30):
                rep = check_sum_epi(fam, g, p, 0.3, grid)
                assert rep.gcont_delta == _ref_gcont(fam, g, p, 0.3, grid)
                seen.add(rep.gcont_delta == grid[0])
        assert seen == {True, False}
        # a spike at p itself defeats every radius: the precheck fails
        rep = check_sum_epi(fam, PerturbationFamily(fam.params.space, fam.domain, rough),
                            16, 0.3, grid)
        assert rep.gcont_delta is None and rep.epi is None and not rep.ok

    @pytest.mark.parametrize("pts, eps", [
        (np.r_[np.arange(99.0), 98.5], 1.0),  # the only 0.5 gap is in the last rows
        (np.r_[np.arange(99.0), 98.5], 0.1),  # eps below every spacing
        (np.zeros(1), 0.3),  # a single parameter has no spacing
        (np.linspace(0.0, 1.0, 7), 0.3),
    ])
    def test_default_delta_grid_spacing(self, pts, eps):
        pspace = FiniteMetricSpace.pointcloud(pts[:, None], metric="l1")
        domain = FiniteMetricSpace.grid1d(0.0, 1.0, 2)
        fam = ParametricFamily(ParameterGrid(pspace), domain, np.zeros((pspace.n, 3)))
        dists = [d for i in range(pspace.n) for d in pspace.row(i) if d > 0.0]
        spacing = min(dists, default=np.inf)
        kept = tuple(v for v in (eps / 2.0**k for k in range(17)) if not (v < spacing))
        want = kept if kept else ((spacing,) if np.isfinite(spacing) else (eps,))
        assert default_delta_grid(fam, eps) == want

    @pytest.mark.parametrize("metric", ["linf", "l1"])
    def test_spacing_on_a_line_equals_the_block_path(self, metric):
        rng = np.random.default_rng(11)
        lines = [rng.integers(0, 6, size=30) / 8.0,  # unsorted, duplicates
                 rng.normal(size=40),
                 np.array([2.0, 2.0, 2.0]),  # one distinct point: no spacing
                 np.array([1e-320, 0.0, 5e-324, 1e-320])]
        domain = FiniteMetricSpace.grid1d(0.0, 1.0, 2)
        for pts in lines:
            line = FiniteMetricSpace.pointcloud(pts[:, None], metric=metric)
            # a matrix space of the same distances scans its blocks
            blocks = FiniteMetricSpace.from_matrix(line.block(np.arange(line.n)))
            dists = [d for i in range(line.n) for d in line.row(i) if d > 0.0]
            assert line.min_positive_distance() == blocks.min_positive_distance() == \
                min(dists, default=np.inf)
            for eps in (0.3, 1e-3):
                grids = [default_delta_grid(ParametricFamily(ParameterGrid(sp), domain,
                                                             np.zeros((sp.n, 3))), eps)
                         for sp in (line, blocks)]
                assert grids[0] == grids[1]

    @pytest.mark.parametrize("seed", range(4))
    def test_family_from_json_empirical_slope(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        pts = np.round(rng.uniform(0.0, 3.0, size=(n, 2)), 1)
        coef = rng.normal(size=n)
        bump = rng.uniform(-1.0, 1.0, size=5)
        desc = {"kind": "lipschitz_expr", "params": {
            "domain": {"kind": "grid1d", "params": {"steps": 4}},
            "param_space": {"kind": "pointcloud",
                            "params": {"points": pts.tolist(), "metric": "euclidean"}},
            "base": [0.0] * 5, "bump": bump.tolist(), "coef": coef.tolist()}}
        fam = family_from_json(desc)
        worst = 0.0
        for i in range(n):
            row = fam.params.space.row(i)
            for j in range(i + 1, n):
                if row[j] > 0.0:
                    worst = max(worst, abs(float(coef[i] - coef[j])) / float(row[j]))
        assert fam.lipschitz_in_p == worst * float(np.max(np.abs(bump)))
        assert np.array_equal(fam.values, [bump * c for c in coef])


# ----------------------------------------------------------------------
# validation at construction


class TestValidation:
    def _spaces(self):
        params = ParameterGrid(FiniteMetricSpace.grid1d(0.0, 1.0, 1))
        return params, FiniteMetricSpace.grid1d(0.0, 1.0, 2)

    @pytest.mark.parametrize("bad", [
        [[0.0, np.nan, 1.0], [0.0, 0.0, 0.0]],
        [[0.0, -np.inf, 1.0], [0.0, 0.0, 0.0]],
        [[0.0, 1.0, 2.0], [np.inf, np.inf, np.inf]],
        [[0.0, 1.0], [0.0, 1.0]],
        [[0.0, 1.0, 2.0]],
    ])
    def test_parametric_family_rejects(self, bad):
        params, domain = self._spaces()
        with pytest.raises(ValueError):
            ParametricFamily(params, domain, np.array(bad))

    @pytest.mark.parametrize("bad", [
        [[0.0, np.nan, 1.0], [0.0, 0.0, 0.0]],
        [[0.0, np.inf, 1.0], [0.0, 0.0, 0.0]],
        [[0.0, -np.inf, 1.0], [0.0, 0.0, 0.0]],
        [[0.0, 1.0], [0.0, 1.0]],
    ])
    def test_perturbation_family_rejects(self, bad):
        params, domain = self._spaces()
        with pytest.raises(ValueError):
            PerturbationFamily(params.space, domain, np.array(bad))

    def test_perturbation_function_rejects_non_finite(self):
        _, domain = self._spaces()
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError):
                PerturbationFunction(domain, np.array([0.0, bad, 0.0]))
        f = ObjectiveFunction(domain, np.array([0.0, np.inf, 0.0]))
        g = PerturbationFunction(domain, np.zeros(3))
        with pytest.raises(ValueError):
            g + f  # an unbounded sum is no perturbation

    def test_sum_family_needs_the_same_domain_object(self):
        params, domain = self._spaces()
        fam = ParametricFamily(params, domain, np.zeros((2, 3)))
        clone = FiniteMetricSpace.grid1d(0.0, 1.0, 2)
        with pytest.raises(ValueError):
            fam.add_perturbation(PerturbationFamily(params.space, clone, np.zeros((2, 3))))
        summed = fam.add_perturbation(PerturbationFamily(params.space, domain, np.ones((2, 3))))
        assert np.array_equal(summed.values, np.ones((2, 3)))

    def test_tables_are_read_only_copies(self):
        params, domain = self._spaces()
        raw = np.zeros((2, 3))
        fam = ParametricFamily(params, domain, raw)
        raw[0, 0] = 7.0
        assert fam.values[0, 0] == 0.0 and not fam.values.flags.writeable
        assert type(PerturbationFunction(domain, np.ones(3)) + np.ones(3)) is PerturbationFunction
