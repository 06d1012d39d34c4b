import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wellpose.errors import PreconditionError
from wellpose.objectives import ObjectiveFunction, argmin_set
from wellpose.parametric import ParameterGrid, ParametricFamily, vime_family
from wellpose.perturbation import (
    PerturbationFamily,
    PerturbationFunction,
    buc_density_step,
    check_openness_contract,
    check_pert_axioms,
    cone_perturbation,
    mn_membership,
    openness_radius,
)
from wellpose.spaces import FiniteMetricSpace, ball, diam


def _line(n):
    return FiniteMetricSpace.grid1d(0.0, 1.0, n - 1)


class TestPerturbationFunction:
    def test_must_be_finite(self):
        sp = _line(3)
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError):
                PerturbationFunction(sp, np.array([0.0, bad, 0.0]))

    def test_shape_must_match(self):
        with pytest.raises(ValueError):
            PerturbationFunction(_line(3), np.zeros(4))

    def test_arithmetic(self):
        sp = _line(2)
        a = PerturbationFunction(sp, np.array([1.0, 2.0]))
        b = PerturbationFunction(sp, np.array([0.5, -1.0]))
        assert type(a + b) is PerturbationFunction
        assert np.array_equal((a + b).values, [1.5, 1.0])
        assert a.sup_norm() == 2.0

    def test_space_mismatch_raises(self):
        a = PerturbationFunction(_line(2), np.zeros(2))
        b = PerturbationFunction(_line(2), np.zeros(2))
        with pytest.raises(ValueError):
            a + b

    def test_sum_with_objective_adds_values(self):
        sp = _line(3)
        f = ObjectiveFunction(sp, np.array([0.5, np.inf, 3.0]))
        g = PerturbationFunction(sp, np.array([1.0, -2.0, 0.0]))
        assert type(f + g) is ObjectiveFunction
        assert np.array_equal((f + g).values, f.values + g.values)


class TestPerturbationFamily:
    def _fam(self, rows, params=None):
        dom = _line(len(rows[0]))
        params = params if params is not None else _line(len(rows))
        return PerturbationFamily(params=params, domain=dom, values=np.asarray(rows, float))

    def test_family_shape_errors(self):
        dom = _line(2)
        with pytest.raises(ValueError):
            PerturbationFamily(params=_line(2), domain=dom, values=np.zeros((1, 2)))
        with pytest.raises(ValueError):
            PerturbationFamily(params=_line(2), domain=dom, values=np.zeros((2, 3)))


class TestConePerturbation:
    def test_exact_values_on_a_grid(self):
        sp = _line(11)  # spacing 0.1
        u = cone_perturbation(sp, a=0, beta=0.4, gamma=0.2)
        # slope beta/gamma = 2 exactly; at distance 0.1 the ramp gives 0.2
        assert u.values[0] == 0.0
        assert u.values[1] == 0.2
        assert u.values[2] == 0.4
        assert np.all(u.values[3:] == 0.4)

    def test_parameter_validation(self):
        sp = _line(3)
        with pytest.raises(ValueError):
            cone_perturbation(sp, 0, beta=0.0, gamma=0.1)
        with pytest.raises(ValueError):
            cone_perturbation(sp, 0, beta=0.1, gamma=0.0)

    def test_apex_must_be_a_point_of_the_space(self):
        sp = _line(4)
        for a in (-1, 4):
            with pytest.raises(ValueError, match="out of range"):
                cone_perturbation(sp, a, beta=1.0, gamma=0.5)
        assert cone_perturbation(sp, 3, beta=1.0, gamma=0.5).values[3] == 0.0


class TestDensityStep:
    def test_two_point_frozen_oracle(self):
        sp = FiniteMetricSpace.pointcloud(np.array([[0.0], [1.0]]), metric="l1")
        f = ObjectiveFunction(sp, np.zeros(2))
        g = PerturbationFunction(sp, np.zeros(2))
        step = buc_density_step(f, g, eps=0.6)
        assert step.center == 0  # lowest index wins the tie
        assert np.array_equal(step.g_prime.values, [0.0, 0.6])
        assert step.delta == 0.3
        assert step.achieved_diam == 0.0
        assert step.distance_moved == 0.6

    def test_claims_hold_on_random_instances(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 80))
            sp = FiniteMetricSpace.pointcloud(rng.uniform(0, 3, size=(n, 2)), metric="linf")
            f = ObjectiveFunction(sp, rng.normal(size=n))
            g = PerturbationFunction(sp, rng.normal(size=n) * 0.3)
            top = diam(ball(sp, 0, np.inf))
            eps = float(rng.uniform(0.05, 0.999) * max(top, 0.1))
            step = buc_density_step(f, g, eps)
            assert step.delta == eps / 2.0
            assert step.achieved_diam <= eps * (1.0 + 1e-12)
            if eps <= top:
                assert step.distance_moved == eps
            omega = argmin_set(f + step.g_prime, eps / 2.0)
            assert omega.issubset(ball(sp, step.center, eps / 2.0))

    def test_validation(self):
        sp = _line(2)
        f = ObjectiveFunction(sp, np.zeros(2))
        g = PerturbationFunction(_line(2), np.zeros(2))
        with pytest.raises(ValueError):
            buc_density_step(f, g, 0.1)
        g2 = PerturbationFunction(sp, np.zeros(2))
        with pytest.raises(ValueError):
            buc_density_step(f, g2, 0.0)

    # inf used to reach the cone's table ("values must avoid NaN and -inf"),
    # and 5e-324 its gamma = eps/2 = 0 ("beta and gamma must be positive")
    @pytest.mark.parametrize("eps", [np.inf, 5e-324, np.nan, -1.0, 0.0])
    def test_a_bad_eps_is_named(self, eps):
        sp = _line(2)
        f = ObjectiveFunction(sp, np.zeros(2))
        g = PerturbationFunction(sp, np.zeros(2))
        with pytest.raises(ValueError) as err:
            buc_density_step(f, g, eps)
        assert str(err.value) == "eps must be positive and finite, with eps/2 > 0"


class TestMnMembership:
    def test_strong_minimum_gives_smallest_grid_witness(self):
        sp = _line(101)
        vals = 8.0 * np.abs(np.arange(101) / 100 - 0.37)
        f = ObjectiveFunction(sp, vals)
        g = PerturbationFunction(sp, np.zeros(101))
        ok, t = mn_membership(f, g, n=5, t_grid=(0.8, 0.4, 0.2, 0.1))
        assert ok and t == 0.1
        # t = 3 keeps the whole space (diam 1 >= 1/5), so the scan fails
        ok2, t2 = mn_membership(f, g, n=5, t_grid=(3.0,))
        assert not ok2 and t2 is None

    def test_flat_objective_never_localizes(self):
        sp = _line(11)
        f = ObjectiveFunction(sp, np.zeros(11))
        g = PerturbationFunction(sp, np.zeros(11))
        ok, t = mn_membership(f, g, n=2)  # diam 1 >= 1/2 at every t
        assert not ok and t is None

    def test_default_grid_and_validation(self):
        sp = _line(11)
        f = ObjectiveFunction(sp, np.abs(np.arange(11) / 10 - 0.5))
        g = PerturbationFunction(sp, np.zeros(11))
        ok, t = mn_membership(f, g, n=3)
        assert ok and t > 0.0
        with pytest.raises(ValueError):
            mn_membership(f, g, n=0)
        with pytest.raises(ValueError):
            mn_membership(f, g, n=2, t_grid=(0.0, 0.1))

    @given(st.one_of(st.floats(5e-324, 1e308), st.sampled_from(
        [0.0, 5e-324, 1e-320, 3.2e-319, 6.5e-319, 2.2250738585072014e-308, 1e-300, 1.0, 1e308])))
    def test_default_t_is_the_smallest_value_of_the_old_grid(self, top):
        space = FiniteMetricSpace.pointcloud([[0.0], [top]], metric="linf")
        f = ObjectiveFunction(space, np.array([0.0, np.inf]))  # {0} at every t
        g = PerturbationFunction(space, np.zeros(2))
        old = min(tuple((space.diameter() or 1.0) / (2.0**k) for k in range(17)))
        if old > 0.0:
            hit, t = mn_membership(f, g, 1)
            assert hit and t.hex() == old.hex()
        else:  # the diameter / 2^16 underflows
            with pytest.raises(ValueError, match="t grid must be positive"):
                mn_membership(f, g, 1)


class TestOpenness:
    def _localized(self):
        sp = _line(101)
        f = ObjectiveFunction(sp, 8.0 * np.abs(np.arange(101) / 100 - 0.5))
        g = PerturbationFunction(sp, np.zeros(101))
        return sp, f, g

    def test_radius_formula(self):
        sp, f, g = self._localized()
        assert openness_radius(f, g, eps=0.3, c_p=2.0) == 0.3 / 6.0
        with pytest.raises(ValueError):
            openness_radius(f, g, eps=0.0, c_p=1.0)

    def test_precondition_raise(self):
        sp = _line(11)
        f = ObjectiveFunction(sp, np.zeros(11))
        g = PerturbationFunction(sp, np.zeros(11))
        g2 = PerturbationFunction(sp, np.zeros(11))
        with pytest.raises(PreconditionError):
            check_openness_contract(f, g, g2, eps=0.3, c_p=1.0)

    def test_not_applicable_when_competitor_is_far(self):
        sp, f, g = self._localized()
        g2 = PerturbationFunction(sp, np.full(101, 10.0))
        rep = check_openness_contract(f, g, g2, eps=0.3, c_p=1.0)
        assert not rep.applicable and rep.holds is None and rep.diam_after is None
        assert rep.rho == 10.0

    def test_holds_inside_the_radius(self, rng):
        sp, f, g = self._localized()
        radius = openness_radius(f, g, eps=0.3, c_p=1.0)
        for _ in range(20):
            bump = rng.uniform(-1, 1, size=101) * radius * 0.99
            g2 = PerturbationFunction(sp, bump)
            rep = check_openness_contract(f, g, g2, eps=0.3, c_p=1.0)
            assert rep.applicable and rep.holds

    def test_rho_value_override(self):
        sp, f, g = self._localized()
        g2 = PerturbationFunction(sp, np.full(101, 0.04))
        rep = check_openness_contract(f, g, g2, eps=0.3, c_p=1.0, rho_value=0.5)
        assert not rep.applicable  # the override said "far away"
        rep2 = check_openness_contract(f, g, g2, eps=0.3, c_p=1.0)
        assert rep2.applicable and rep2.holds


class TestAxiomBattery:
    def test_vime_probe_passes_and_serializes(self):
        fam = vime_family(99, 99)
        report = check_pert_axioms(fam.params.space, fam, sample_p=(0, 50, 99),
                                   eps_list=(0.1, 0.3))
        assert report["all_ok"]
        assert report["calibration"] == {"ok": True, "c": 1.0}
        assert report["modulus"]["lipschitz"] <= 1.0 + 1e-12
        assert len(report["density"]["runs"]) == 6
        json.dumps(report)  # must be JSON-ready as promised

    def test_calibration_fails_on_a_domain_narrower_than_the_cone(self):
        # diam 0.1 < gamma = eps/2 = 0.15: the cone of height 0.3 stops at
        # (0.3 / 0.15) * 0.1 = 0.2, so it moves less than its height
        dom = FiniteMetricSpace.grid1d(0.0, 0.1, 10)
        fam = ParametricFamily(ParameterGrid(_line(3)), dom, np.zeros((3, dom.n)))
        report = check_pert_axioms(fam.params.space, fam, sample_p=(0, 2), eps_list=(0.1, 0.3))
        assert report["calibration"] == {"ok": False, "c": 0.3 / 0.2}
        assert not report["all_ok"]
        assert report["density"]["ok"]  # the step itself still localizes

    def test_probe_validation(self):
        fam = vime_family(9, 9)
        with pytest.raises(ValueError):
            check_pert_axioms(fam.params.space, fam, sample_p=(50,), eps_list=(0.1,))
        with pytest.raises(ValueError):
            check_pert_axioms(fam.params.space, fam, sample_p=(0,), eps_list=(0.0,))
