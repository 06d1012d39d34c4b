"""Array-backed family checks against brute-force per-parameter loops.

Each reference below walks the neighbours q one at a time and the domain
one point at a time, the way the checks read in the paper; the library
answers with one array expression over the (P, N) value table.  The
certificates must agree exactly: deltas, witness dicts, violation
tuples and bad parameter lists.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    ball_x = ball(fam.domain, x, eps).indices
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
    omegas = [set(argmin_set(fam.objective(p), eps)) for p in range(fam.params.space.n)]
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


def _dyadic_family(seed, kind):
    """Dyadic rows f_q = f_0 + k/4 on a line, so every f_0 +- eps is exact.

    With eps = 1/4 or 1/2 some cells sit exactly on f_q = f_0 +- eps.
    kind names the conditions with open cells at p = 0: "cond1" has
    offsets k >= 0, +inf cells in the f_q and +inf in every row where
    f_0 is +inf; "cond2" has k <= 0 and +inf cells of f_0 over finite
    f_q; "both" has either sign and both kinds of +inf cell.
    """
    rng = np.random.default_rng(100 + seed)
    pspace = FiniteMetricSpace.grid1d(0.0, 2.0, 4)
    domain = FiniteMetricSpace.grid1d(0.0, 1.0, 15)
    lo, hi = {"both": (-3, 3), "cond1": (0, 3), "cond2": (-3, 0)}[kind]
    base = rng.integers(-4, 5, size=domain.n) * 0.25
    values = base + rng.integers(lo, hi + 1, size=(pspace.n, domain.n)) * 0.25
    values[0] = base
    hole = rng.uniform(size=domain.n) < 0.2
    hole[0] = False  # every row keeps a finite value at x = 0
    values[0, hole] = np.inf
    if kind == "cond1":
        values[:, hole] = np.inf
    if kind != "cond2":
        values[1:, 1:][rng.uniform(size=(pspace.n - 1, domain.n - 1)) < 0.1] = np.inf
    return ParametricFamily(ParameterGrid(pspace), domain, values, meta={"kind": f"dyadic_{kind}"})


def _families():
    yield vime_family(99, 99)
    for seed in range(3):
        yield random_lipschitz_family(np.random.default_rng(seed), max_params=25, max_points=30)
    yield _tie_table_family()
    for seed in range(6):
        yield _random_table_family(seed)


# (rows, x, demo answer at eps = 0.2) for vime_family(30, 12) with point x
# of each listed row lowered to that row's minimum, which puts x in the
# row's eps-argmin
_BENT = [
    ([4, 9], 12, (True, True, (4, 9))),  # interior points join two rows
    ([0], 10, (True, True, ())),  # the left block's closing point 3x = k
    ([0], 11, (False, True, (0,))),  # the first interior point
    ([-1], 20, (True, True, ())),  # the right block's opening point 3x = 2k
    ([-1], 19, (True, False, (12,))),  # the last interior point
]


def _bent(rows, x, x_steps=30):
    fam = vime_family(x_steps, 12)
    vals = np.array(fam.values)
    vals[rows, x] = vals[rows].min(axis=1)
    return ParametricFamily(fam.params, fam.domain, vals, meta=fam.meta)


def _line_spaces(rng):
    """1-D coordinate spaces for the interval path, by name."""
    ticks = rng.integers(0, 12, size=40) / 4.0  # unsorted, many duplicates
    spaces = {f"{m}_ticks": FiniteMetricSpace.pointcloud(ticks[:, None], metric=m)
              for m in ("linf", "l1", "euclidean")}
    spaces.update({f"{m}_floats": FiniteMetricSpace.pointcloud(rng.normal(size=(50, 1)), metric=m)
                   for m in ("linf", "l1", "euclidean")})
    # subnormal gaps, which a line measures exactly under every metric
    # name: sqrt(x * x) would underflow to 0 here
    subnormal = [[1e-320], [0.0], [5e-324], [1e-320], [3e-321], [2.5e-322]]
    spaces["euclidean_subnormal"] = FiniteMetricSpace.pointcloud(subnormal, metric="euclidean")
    spaces["grid"] = FiniteMetricSpace.grid1d(0.0, 1.0, 299)
    # c + eps overflows here for the largest radii
    spaces["linf_wide"] = FiniteMetricSpace.pointcloud(rng.normal(size=(20, 1)) * 1e307, metric="linf")
    return spaces


def _cloud_spaces(rng):
    """Spaces for the gather path (d >= 2 or a stored matrix), by name."""
    ticks = rng.integers(0, 6, size=(60, 2)) / 4.0  # many duplicate points
    spaces = {f"{m}_ticks": FiniteMetricSpace.pointcloud(ticks, metric=m)
              for m in ("linf", "l1", "euclidean")}
    spaces["linf_3d"] = FiniteMetricSpace.pointcloud(rng.normal(size=(50, 3)), metric="linf")
    spaces["matrix"] = FiniteMetricSpace.from_matrix(spaces["l1_ticks"].block(np.arange(60)))
    for seed in range(2):
        spaces[f"random_family{seed}"] = random_lipschitz_family(
            np.random.default_rng(seed), max_params=8, max_points=120).domain
    return spaces


def _radii(space, rng):
    """eps = 0, exact pairwise distances and the float just below each, the
    diameter, beyond it, the largest float and inf."""
    dists = np.unique(space.block(np.arange(space.n)))
    picked = rng.choice(dists, size=min(8, dists.size), replace=False)
    return sorted({0.0, *picked.tolist(), *(np.nextafter(picked, 0.0)).tolist(),
                   float(dists[-1]), 2.0 * float(dists[-1]) + 1.0,
                   float(np.finfo(np.float64).max), np.inf})


def _tied_rows(space, rng, k=5):
    rows = rng.integers(-4, 5, size=(k, space.n)) / 2.0  # ties
    rows[rng.uniform(size=rows.shape) < 0.3] = np.inf
    rows[:, rng.integers(space.n)] = 0.0
    return rows


def _enumerated_ball_min(space, rows, eps):
    """One ball at a time, every row at once: rows of any count."""
    out = np.empty(rows.shape)
    for x in range(space.n):
        out[:, x] = rows[:, space.row(x) <= eps].min(axis=1)
    return out


def _count_blocks(monkeypatch):
    """The row count of every FiniteMetricSpace.block call from now on."""
    calls = []
    real_block = FiniteMetricSpace.block

    def block(space, idx, cols=None):
        calls.append(len(idx))
        return real_block(space, idx, cols)

    monkeypatch.setattr(FiniteMetricSpace, "block", block)
    return calls


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
            # a matrix space of the same distances reads a ball table (the
            # test keeps its name from the masked path that the table replaced)
            matrix = FiniteMetricSpace.from_matrix(space.block(np.arange(space.n)))
            rows = _tied_rows(space, rng)
            for eps in _radii(space, rng):
                got = ball_min(space, rows, eps)
                want = np.array([_ref_ball_min(space, row, eps) for row in rows])
                assert np.array_equal(got, want), (name, eps)
                assert np.array_equal(ball_min(matrix, rows, eps), want), (name, eps)

    def test_ball_intervals_are_exactly_the_balls(self):
        rng = np.random.default_rng(8)
        for name, space in _line_spaces(rng).items():
            for eps in _radii(space, rng):
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
            ball_min(space, _tied_rows(space, rng), 0.5)
        certify_uniform_epi(fam, 10, 0.3, default_delta_grid(fam, 0.3))
        assert calls["block"] == 0 and calls["runs"] and all(calls["runs"])
        # a plane, and a matrix space even of a line, read a ball table
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

    @pytest.mark.parametrize("kind", ["line", "plane", "matrix"])
    def test_ball_min_checks_the_block_shape(self, kind):
        line = FiniteMetricSpace.grid1d(0.0, 1.0, 4)
        space = {"line": line,
                 "plane": FiniteMetricSpace.pointcloud(np.random.default_rng(15).normal(size=(5, 2)),
                                                       metric="linf"),
                 "matrix": FiniteMetricSpace.from_matrix(line.block(np.arange(5)))}[kind]
        # too many columns, too few, one row without its axis, a 3-D block
        for bad in (np.zeros((2, 7)), np.zeros((2, 3)), np.zeros(5), np.zeros((1, 2, 5))):
            with pytest.raises(ValueError, match="rows must be a"):
                ball_min(space, bad, 0.3)
        for eps in (0.0, 0.3, np.inf):
            assert ball_min(space, np.zeros((0, 5)), eps).shape == (0, 5)

    def test_the_gather_equals_the_enumeration_on_clouds(self):
        rng = np.random.default_rng(12)
        for name, space in _cloud_spaces(rng).items():
            for k in (0, 1, 5):
                rows = _tied_rows(space, rng, k)
                for eps in _radii(space, rng):
                    want = np.array([_ref_ball_min(space, row, eps) for row in rows])
                    assert np.array_equal(ball_min(space, rows, eps),
                                          want.reshape(k, space.n)), (name, k, eps)

    def test_the_gather_in_several_chunks(self, monkeypatch):
        from wellpose import spaces

        rng = np.random.default_rng(13)
        # chunks of budget // n centres: one centre at 64, several at 1000
        # and 2048, mostly with the last chunk short; fresh spaces for each
        # budget, so that no table kept under another budget skips the
        # chunked build
        short = 0
        for budget in (64, 1000, 2048):
            monkeypatch.setattr(spaces, "_BALL_CELLS", budget)
            for name, space in _cloud_spaces(rng).items():
                step = max(1, budget // space.n)
                assert step < space.n
                short += step > 1 and space.n % step > 0
                assert len(list(space._ball_table(0.0))) == -(-space.n // step)
                rows = _tied_rows(space, rng, 3)
                for eps in _radii(space, rng):
                    assert np.array_equal(ball_min(space, rows, eps),
                                          _enumerated_ball_min(space, rows, eps)), (budget, name, eps)
        assert short >= 10

    def test_a_repeated_radius_reuses_the_ball_table(self, monkeypatch):
        calls = _count_blocks(monkeypatch)
        rng = np.random.default_rng(16)
        space = FiniteMetricSpace.pointcloud(rng.normal(size=(40, 2)), metric="euclidean")
        rows = rng.normal(size=(3, 40))
        first = ball_min(space, rows, 0.5)
        assert calls == [40]
        assert np.array_equal(ball_min(space, rows[1:], 0.5), first[1:]) and calls == [40]
        # the table of another radius takes its place
        ball_min(space, rows, 0.7)
        assert np.array_equal(ball_min(space, rows, 0.5), first) and calls == [40, 40, 40]

    def test_a_table_over_the_budget_is_not_kept(self, monkeypatch):
        from wellpose import spaces

        monkeypatch.setattr(spaces, "_BALL_CELLS", 100)
        calls = _count_blocks(monkeypatch)
        rng = np.random.default_rng(17)
        space = FiniteMetricSpace.pointcloud(rng.normal(size=(30, 2)), metric="l1")
        rows = rng.normal(size=(2, 30))
        want = np.repeat(rows.min(axis=1)[:, None], 30, axis=1)
        # 900 members at eps = inf: ten chunks of three centres on each call
        for _ in range(2):
            assert np.array_equal(ball_min(space, rows, np.inf), want)
        assert calls == [3] * 20 and space._balls is None
        # 30 members at eps = 0 (distinct points): built once, then kept
        for _ in range(2):
            assert np.array_equal(ball_min(space, rows, 0.0), rows)
        assert calls == [3] * 30 and space._balls[0] == 0.0

    def test_the_gather_stays_within_its_cell_budget(self):
        from wellpose import spaces

        rng = np.random.default_rng(14)
        space = FiniteMetricSpace.pointcloud(rng.uniform(-3.0, 3.0, size=(400, 2)), metric="linf")
        rows = rng.normal(size=(64, 400))
        tracemalloc.start()
        try:
            out = ball_min(space, rows, np.inf)  # every ball is the whole space
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(out, np.repeat(rows.min(axis=1)[:, None], 400, axis=1))
        # one gather of every ball at once would hold 64 x 400 x 400 cells, 82 MB
        assert peak < 3 * 8 * spaces._BALL_CELLS

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

    def test_ball_infima_only_for_open_rows(self, monkeypatch):
        from wellpose import parametric

        calls = []

        def counting(space, rows, eps):
            calls.append(np.asarray(rows).tolist())
            return ball_min(space, rows, eps)

        def open_rows(fam, p, eps, radius):
            """Neighbours with a cell f_q > f_p + eps, then p if some f_q < f_p - eps."""
            qs = np.flatnonzero(fam.params.space.row(p) <= radius)
            fp = fam.values[p]
            rows = [int(q) for q in qs if np.any(fam.values[q] > fp + eps)]
            return rows + [p] * bool(np.any(fam.values[qs] < fp - eps))

        def blocks(fam, rows):
            return [fam.values[rows].tolist()] if rows else []

        monkeypatch.setattr(parametric, "ball_min", counting)
        fams = [vime_family(99, 99), *_families(),
                *(_dyadic_family(seed, kind) for seed in range(3) for kind in ("cond1", "cond2"))]
        called = 0
        for fam in fams:
            for eps in (0.1, 0.25, 0.3, 1.0):
                grid = default_delta_grid(fam, eps)
                for p in _params(fam):
                    want = open_rows(fam, p, eps, grid[0])
                    assert not (want and fam.meta.get("kind") == "vime")
                    calls.clear()
                    rep = certify_uniform_epi(fam, p, eps, grid)
                    assert calls == blocks(fam, want)
                    called += bool(want)
                    calls.clear()
                    cert = check_cond2(fam, p, eps, grid)
                    assert calls == blocks(fam, [p] if p in want else [])
                    assert vars(rep.cond2) == vars(cert)
                    if cert.ok:
                        calls.clear()
                        assert recheck_certificate(fam, cert)
                        replayed = open_rows(fam, p, eps, cert.delta)
                        assert calls == blocks(fam, [p] if p in replayed else [])
        assert called > 0

    def test_open_cell_rule_on_dyadic_boundaries(self):
        deltas, replays = set(), set()
        grid = (2.0, 1.0, 0.5, 0.25)
        for seed in range(4):
            for kind in ("both", "cond1", "cond2"):
                fam = _dyadic_family(seed, kind)
                fp, rest = fam.values[0], fam.values[1:]
                for eps in (0.25, 0.5):
                    assert np.any(rest > fp + eps) == (kind != "cond2")
                    assert np.any(rest < fp - eps) == (kind != "cond1")
                    assert np.any(rest == fp + eps) or np.any(rest == fp - eps)
                    for p in range(fam.params.space.n):
                        rep = certify_uniform_epi(fam, p, eps, grid)
                        cert = check_cond2(fam, p, eps, grid)
                        assert rep.cond1_delta == _ref_cond1_uniform(fam, p, eps, grid)
                        assert (cert.delta, cert.violation) == _ref_cond2(fam, p, eps, grid)
                        assert vars(rep.cond2) == vars(cert)
                        deltas.update((rep.cond1_delta, cert.delta))
                        for delta in (cert.delta, 2.0):  # the real one and a stretched one
                            c = EpiCertificate(2, p, eps, delta)
                            replays.add(recheck_certificate(fam, c))
                            assert recheck_certificate(fam, c) == _ref_recheck(fam, c)
        assert {2.0, 0.25} <= deltas and replays == {True, False}

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

    def test_row_min_is_the_row_minimum_bit_for_bit(self):
        rng = np.random.default_rng(23)
        fams = list(_families())
        fams += [fam.add_perturbation(PerturbationFamily(
            fam.params.space, fam.domain, rng.integers(-3, 4, size=fam.values.shape) * 0.125))
            for fam in fams]
        fams += [_bent(rows, x) for rows, x, _ in _BENT]
        for fam in fams:
            assert fam.row_min.tobytes() == fam.values.min(axis=1).tobytes()
            assert not fam.row_min.flags.writeable

    def test_value_function_rejects_a_write(self):
        fam = vime_family(30, 12)
        with pytest.raises(ValueError, match="read-only"):
            value_function(fam)[0] = 1.0
        assert value_function(fam)[0] == -1.0

    def test_objective_adopts_its_row(self):
        """f_p is row p of the family's table itself, read-only, with its
        minimum equal to the kept row minimum."""
        for fam in _families():
            for p in range(fam.params.space.n):
                f = fam.objective(p)
                assert np.shares_memory(f.values, fam.values)
                assert f.values.tobytes() == fam.values[p].tobytes()
                assert f.low == fam.row_min[p]
                with pytest.raises(ValueError, match="read-only"):
                    f.values[0] = 0.0

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2, 0.3, 0.4, 0.49])
    def test_selection_demo(self, eps):
        # k = 3..11 covers each residue of k mod 3 and, at k = 3, an empty middle third
        for fam in (vime_family(99, 99), vime_family(30, 12),
                    *(vime_family(k, 12) for k in range(3, 12))):
            rep = no_continuous_selection_demo(fam, eps)
            assert (rep.left_ok, rep.right_ok, rep.bad_p) == _ref_demo(fam, eps)

    @pytest.mark.parametrize("rows, x, want", _BENT)
    def test_selection_demo_on_bent_rows(self, rows, x, want):
        bent = _bent(rows, x)
        rep = no_continuous_selection_demo(bent, 0.2)
        assert (rep.left_ok, rep.right_ok, rep.bad_p) == want == _ref_demo(bent, 0.2)

    @pytest.mark.parametrize("k", range(3, 12))
    def test_selection_demo_with_any_one_point_bent(self, k):
        # every point of an end row and of a middle row in turn, so each
        # block boundary is crossed at each residue of k mod 3
        seen = set()
        for rows in ([0], [6], [-1]):
            for x in range(k + 1):
                bent = _bent(rows, x, k)
                rep = no_continuous_selection_demo(bent, 0.2)
                got = (rep.left_ok, rep.right_ok, rep.bad_p)
                assert got == _ref_demo(bent, 0.2)
                seen.add(got)
        outside = {(True, True, ()), (False, True, ()), (True, False, ())}
        inside = {(True, True, (6,)), (False, True, (0,)), (True, False, (12,))}
        assert seen == (outside if k == 3 else outside | inside)  # k = 3: no middle point

    def test_the_selection_demo_reads_no_full_table(self):
        fam = vime_family(999, 999)
        tracemalloc.start()
        try:
            rep = no_continuous_selection_demo(fam, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.ok
        # a (1000, 1000) boolean near-minimizer table alone is 1 MB
        assert peak < 64 * 1024

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

    def test_sum_epi_on_planes_like_the_loop(self, monkeypatch):
        # the precheck's ball max is a negated ball min on the ball-table
        # path, taken in the same ball_min call as the ball min
        from wellpose import parametric

        calls = []
        monkeypatch.setattr(parametric, "ball_min",
                            lambda space, rows, eps: calls.append(eps) or ball_min(space, rows, eps))
        monkeypatch.setattr(parametric, "certify_uniform_epi",
                            lambda *args: calls.append("certify") or certify_uniform_epi(*args))
        rng = np.random.default_rng(16)
        pspace = FiniteMetricSpace.grid1d(0.0, 1.0, 6)
        grid = (0.3, 0.2, 0.125, 0.05)
        seen = set()
        for metric in ("linf", "l1", "euclidean"):
            domain = FiniteMetricSpace.pointcloud(rng.integers(0, 5, size=(25, 2)) / 8.0,
                                                  metric=metric)
            fam = ParametricFamily(ParameterGrid(pspace), domain, rng.normal(size=(7, 25)))
            g = PerturbationFamily(pspace, domain, rng.integers(-3, 4, size=(7, 25)) * 0.05)
            for p in range(7):
                calls.clear()
                rep = check_sum_epi(fam, g, p, 0.3, grid)
                assert rep.gcont_delta == _ref_gcont(fam, g, p, 0.3, grid), (metric, p)
                seen.add(rep.gcont_delta)
                # one call per radius tried, then the summed family's certificate
                if rep.gcont_delta is None:
                    assert tuple(calls) == grid, (metric, p)
                else:
                    tried = grid[:grid.index(rep.gcont_delta) + 1]
                    assert tuple(calls[:calls.index("certify")]) == tried, (metric, p)
        assert None in seen and len(seen) > 2

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

    @pytest.mark.parametrize("metric", ["linf", "l1", "euclidean"])
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


# 0, the smallest subnormal (only duplicates share a ball), a distance of
# the quarter-spaced points (a boundary under linf and l1), and inf
_TABLE_RADII = (0.0, 5e-324, 0.5, np.inf)


@given(metric=st.sampled_from(["linf", "l1", "euclidean", "matrix"]),
       points=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 1)),
                       min_size=1, max_size=40),
       dim=st.sampled_from([2, 3]),
       calls=st.lists(st.tuples(st.sampled_from(_TABLE_RADII), st.sampled_from([0, 1, 5])),
                      min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1))
def test_the_ball_table_equals_the_enumeration_call_after_call(metric, points, dim, calls, seed):
    # quarter-spaced points, duplicates likely; the matrix space stores the l1 distances
    coords = np.array(points, dtype=np.float64)[:, :dim] / 4.0
    if metric == "matrix":
        plane = FiniteMetricSpace.pointcloud(coords, metric="l1")
        space = FiniteMetricSpace.from_matrix(plane.block(np.arange(plane.n)))
    else:
        space = FiniteMetricSpace.pointcloud(coords, metric=metric)
    rng = np.random.default_rng(seed)
    # repeated and interleaved radii on one space: kept tables, replaced tables
    for eps, k in calls:
        rows = _tied_rows(space, rng, k)
        want = _enumerated_ball_min(space, rows, eps)
        for _ in range(2):
            assert np.array_equal(ball_min(space, rows, eps), want), (eps, k)


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

    def test_a_callers_array_is_copied_and_a_sum_is_fresh(self):
        params, domain = self._spaces()
        row, table = np.array([2.0, 0.5, 1.0]), np.array([[2.0, 0.5, 1.0], [0.0, 3.0, -1.0]])
        built = [ObjectiveFunction(domain, row), PerturbationFunction(domain, row),
                 PerturbationFamily(params.space, domain, table),
                 ParametricFamily(params, domain, table)]
        kept = [obj.values.copy() for obj in built]
        for obj in built:
            assert not np.shares_memory(obj.values, row) and not np.shares_memory(obj.values, table)
        row[:] = np.nan
        table[:] = np.nan
        assert row.flags.writeable and table.flags.writeable
        for obj, want in zip(built, kept):
            assert obj.values.tobytes() == want.tobytes()
        f, g = built[:2]
        assert (f.low, g.low) == (0.5, 0.5)
        assert built[3].row_min.tolist() == [0.5, -1.0]
        for a, b in ((f, g), (g, g), (g, f)):
            total = a + b
            assert not np.shares_memory(total.values, a.values)
            assert not np.shares_memory(total.values, b.values)

    def test_an_owned_array_is_adopted(self):
        _, domain = self._spaces()
        row = np.array([2.0, 0.5, 1.0])
        f = ObjectiveFunction(domain, row, owned=True)
        assert f.values is row and not row.flags.writeable and f.low == 0.5

    def test_the_vime_table_is_the_only_large_array_built(self):
        vime_family(9, 9)  # imports and caches outside the traced call
        tracemalloc.start()
        try:
            fam = vime_family(999, 999)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * fam.values.nbytes
