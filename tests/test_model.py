import numpy as np
import pytest

from polydiv.errors import DomainError, InvalidParameterError
from polydiv.model import (
    JumpSpec,
    ModelParams,
    PointMass,
    State,
    TwoPoint,
    dividend_rate,
    dividend_yield,
    in_state_space,
    jump_moment,
    validate_admissibility,
)

from conftest import random_admissible_params


def single(b=0.0103, beta=-0.3439, a=0.2, r=0.01, sigma=0.2813, nu=0.0194):
    return ModelParams.single_factor(r=r, a=a, sigma=sigma, b=b, beta=beta, nu=nu)


class TestAdmissibility:
    def test_reference_single_factor_is_admissible(self):
        # a*(r - a - beta) = 0.2 * 0.1539 = 0.030780 >= b = 0.0103 >= 0
        rep = validate_admissibility(single())
        assert rep.admissible
        assert rep.factor_slack[0] == pytest.approx(0.0103)
        assert rep.cap_slack == pytest.approx(0.01 - 0.2 - (-0.3439) - 0.0103 / 0.2)
        assert 0.2 * (0.01 - 0.2 + 0.3439) == pytest.approx(0.030780)

    def test_boundary_nonattainment_flags(self):
        # nu^2/2 = 1.8818e-4 < b and b < a(r-a-beta) - nu^2/2
        rep = validate_admissibility(single())
        assert 0.5 * 0.0194 ** 2 == pytest.approx(1.8818e-4)
        assert rep.factor_interior[0]
        assert rep.cap_interior

    def test_equality_boundary_admissible_but_not_interior(self):
        # b = 0 and r - beta = a exactly: admissible, factor boundary attainable
        p = single(b=0.0, beta=0.01 - 0.2, a=0.2, nu=0.0)
        rep = validate_admissibility(p)
        assert rep.admissible
        assert rep.cap_slack == pytest.approx(0.0, abs=1e-15)
        assert not rep.factor_interior[0]

    def test_negative_b_is_inadmissible(self):
        assert not validate_admissibility(single(b=-0.01)).admissible

    def test_structural_violations_raise(self):
        with pytest.raises(InvalidParameterError):
            ModelParams.single_factor(r=0.01, a=-0.1, sigma=0.3, b=0.01, beta=-0.3, nu=0.02)
        with pytest.raises(InvalidParameterError):
            ModelParams.single_factor(r=0.01, a=0.2, sigma=0.3, b=0.01, beta=-0.3, nu=-0.02)
        with pytest.raises(InvalidParameterError):
            ModelParams(r=0.01, a=0.2, sigma=0.3, d=2, b=[0.01], beta=[[-0.3]], nu=[0.02])

    @pytest.mark.parametrize("field,value,message", [
        ("beta", [[-0.3, 0.0]], r"beta must have shape \(1, 1\), got \(1, 2\)"),
        ("nu", [0.02, 0.01], r"nu must have shape \(1,\), got \(2,\)"),
    ])
    def test_wrong_shape_rejected(self, field, value, message):
        kw = dict(r=0.01, a=0.2, sigma=0.3, d=1, b=[0.01], beta=[[-0.3]], nu=[0.02])
        with pytest.raises(InvalidParameterError, match=message):
            ModelParams(**{**kw, field: value})

    def test_single_factor_matches_scalar_inequality(self):
        # the d=1 slacks reduce to 0 <= b <= a(r - a - beta)
        rng = np.random.default_rng(7)
        for _ in range(200):
            b = rng.uniform(-0.02, 0.06)
            beta = rng.uniform(-0.6, 0.1)
            a = rng.uniform(0.05, 0.4)
            r = rng.uniform(0.0, 0.05)
            rep = validate_admissibility(single(b=b, beta=beta, a=a, r=r))
            assert rep.admissible == (0.0 <= b <= a * (r - a - beta))

    def test_monotone_in_b_toward_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = random_admissible_params(rng, 1)
            assert validate_admissibility(p).admissible
            for frac in (0.5, 0.1, 0.0):
                shrunk = ModelParams(r=p.r, a=p.a, sigma=p.sigma, d=1,
                                     b=p.b * frac, beta=p.beta, nu=p.nu)
                assert validate_admissibility(shrunk).admissible

    def test_multifactor_offdiagonal_minimum(self):
        # negative off-diagonal couplings must be compensated by b
        beta = np.array([[-0.6, -0.1], [0.0, -0.6]])
        p = ModelParams(r=0.01, a=0.2, sigma=0.3, d=2,
                        b=[0.021, 0.0], beta=beta, nu=[0.0, 0.0])
        rep = validate_admissibility(p)
        assert rep.factor_slack[0] == pytest.approx(0.021 + 0.2 * (-0.1))
        assert rep.factor_slack[1] == pytest.approx(0.0)


class TestStateSpace:
    def test_reference_state_inside(self):
        p = single()
        rep = in_state_space(p, State(0.0, 1.0, [0.0371]))
        assert rep.inside
        assert rep.x == pytest.approx(1.0)
        assert rep.min_y == pytest.approx(0.0371)
        assert rep.cap_slack == pytest.approx(0.1629)

    def test_cap_violation_outside(self):
        p = single()
        assert not in_state_space(p, State(0.0, 1.0, [0.25])).inside

    def test_zero_factor_boundary_belongs(self):
        p = single()
        assert in_state_space(p, State(0.0, 1.0, [0.0])).inside

    def test_yield_bounds_for_members(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = random_admissible_params(rng, int(rng.integers(1, 4)))
            x = 0.2 + 2 * rng.random()
            g = rng.random(p.d) + 1e-6
            y = p.a * x * rng.random() * g / g.sum()
            st = State(0.0, x, y)
            assert in_state_space(p, st).inside
            assert 0.0 <= dividend_yield(st) <= p.a + 1e-15


class TestDividendOps:
    def test_dividend_rate(self):
        assert dividend_rate(State(0, 1, [0.0371])) == pytest.approx(0.0371)
        assert dividend_rate(State(0, 1, [0.0, 0.0])) == 0.0
        assert dividend_rate(State(0, 1, [0.01, 0.02])) == pytest.approx(0.03)

    def test_dividend_yield(self):
        assert dividend_yield(State(0, 1.0, [0.0371])) == pytest.approx(0.0371)
        assert dividend_yield(State(0, 1.0, [0.0])) == 0.0
        assert dividend_yield(State(0, 2.0, [0.0371])) == pytest.approx(0.01855)

    def test_dividend_yield_domain_error(self):
        with pytest.raises(DomainError):
            dividend_yield(State(0, 0.0, [0.01]))


class TestJumps:
    def test_point_mass_moments(self):
        j = JumpSpec(lam=1.0, dist=PointMass(-0.1))
        assert jump_moment(j, 2) == pytest.approx(0.01)
        assert jump_moment(JumpSpec(1.0, PointMass(0.3)), 0) == 1.0

    def test_two_point_symmetry(self):
        j = JumpSpec(lam=1.0, dist=TwoPoint(z1=-0.2, p=0.5, z2=0.2))
        assert jump_moment(j, 1) == pytest.approx(0.0)

    def test_no_distribution_errors(self):
        with pytest.raises(InvalidParameterError):
            jump_moment(JumpSpec(lam=0.0, dist=None), 1)

    def test_support_validation(self):
        with pytest.raises(InvalidParameterError):
            PointMass(-1.0)
        with pytest.raises(InvalidParameterError):
            TwoPoint(z1=-1.5, p=0.5, z2=0.2)
        with pytest.raises(InvalidParameterError):
            JumpSpec(lam=-1.0)

    @pytest.mark.parametrize("p", [-0.1, 1.1, np.nan])
    def test_probability_outside_the_unit_interval_rejected(self, p):
        with pytest.raises(InvalidParameterError, match=r"probability p must be in \[0, 1\]"):
            TwoPoint(z1=-0.2, p=p, z2=0.2)

    @pytest.mark.parametrize("m", [-1, 1.5, np.nan, np.inf])
    def test_bad_moment_order_rejected(self, m):
        j = JumpSpec(lam=1.0, dist=PointMass(-0.1))
        with pytest.raises(InvalidParameterError, match="moment order must be"):
            jump_moment(j, m)

    def test_jensen_consistency(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            z1, z2 = rng.uniform(-0.9, 1.5, size=2)
            p = rng.random()
            j = JumpSpec(lam=1.0, dist=TwoPoint(z1=z1, p=p, z2=z2))
            assert jump_moment(j, 2) >= jump_moment(j, 1) ** 2 - 1e-12
