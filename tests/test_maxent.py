import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from polydiv.errors import InfeasibleMomentsError, InvalidParameterError
from polydiv.maxent import (
    OptionSpec,
    fit_maxent,
    integrate_payoff,
    price_dividend_option,
    price_stock_option,
)
from polydiv.model import JumpSpec, ModelParams, State, TwoPoint
from polydiv.moments import dividend_futures, stock_futures
from polydiv.black import implied_vol

from conftest import (
    random_admissible_params,
    random_state_in_E,
    reference_params,
    reference_state,
)

TWO_POINT_JUMP = JumpSpec(lam=0.2, dist=TwoPoint(z1=-0.4, p=0.35, z2=0.5))


class TestFit:
    def test_exponential_mean_two(self):
        d = fit_maxent([1.0, 2.0])
        assert d.lambdas[0] == pytest.approx(math.log(2), abs=1e-3)
        assert d.lambdas[1] == pytest.approx(0.5, abs=1e-3)

    def test_factorial_moments_recover_unit_exponential(self):
        d = fit_maxent([math.factorial(k) for k in range(7)])
        assert d.lambdas[1] == pytest.approx(1.0, abs=1e-6)
        for k in (0, 2, 3, 4, 5, 6):
            assert abs(d.lambdas[k]) <= 1e-6

    def test_residuals_below_contract(self):
        d = fit_maxent([math.factorial(k) for k in range(7)])
        assert d.residual < 1e-10

    def test_infeasible_variance(self):
        with pytest.raises(InfeasibleMomentsError):
            fit_maxent([1.0, 1.0, 0.9])

    def test_infeasible_mean(self):
        with pytest.raises(InfeasibleMomentsError):
            fit_maxent([1.0, -0.5, 1.0])

    def test_m0_must_be_one(self):
        with pytest.raises(InvalidParameterError):
            fit_maxent([2.0, 1.0, 1.5])

    def test_moment_reproduction_through_quadrature(self):
        # lognormal moments, mean 0.04, 5% coefficient of variation
        sig2 = math.log(1.0 + 0.05 ** 2)
        m = [0.04 ** k * math.exp(0.5 * k * (k - 1) * sig2) for k in range(7)]
        d = fit_maxent(m)
        for k in range(1, 7):
            got = integrate_payoff(d, lambda x, k=k: x ** k)
            assert got == pytest.approx(m[k], rel=1e-8)

    def test_entropy_decreases_with_more_constraints(self):
        # entropy of the fit with N+1 constraints never exceeds the N-fit
        moments = [math.factorial(k) for k in range(7)]
        entropies = [fit_maxent(moments[: n + 1]).entropy() for n in range(1, 7)]
        for lo, hi in zip(entropies[1:], entropies[:-1]):
            assert lo <= hi + 1e-9

    def test_determinism(self):
        sig2 = math.log(1.0 + 0.12 ** 2)
        m = [math.exp(0.5 * k * (k - 1) * sig2) for k in range(7)]
        d1 = fit_maxent(m)
        d2 = fit_maxent(m)
        np.testing.assert_array_equal(d1.lambdas, d2.lambdas)


class TestIntegratePayoff:
    def test_normalization(self):
        d = fit_maxent([1.0, 2.0])
        assert integrate_payoff(d, lambda x: np.ones_like(x)) == pytest.approx(1.0, abs=1e-10)

    def test_matched_mean(self):
        d = fit_maxent([1.0, 2.0])
        assert integrate_payoff(d, lambda x: x) == pytest.approx(2.0, rel=1e-10)

    def test_call_under_unit_exponential(self):
        d = fit_maxent([math.factorial(k) for k in range(7)])
        call = integrate_payoff(d, lambda x: np.maximum(x - 1.0, 0.0), points=(1.0,))
        assert call == pytest.approx(math.exp(-1.0), rel=1e-9)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(mean=strategies.floats(0.01, 10.0), cv=strategies.floats(0.02, 0.5),
           n=strategies.integers(2, 6),
           kinks=strategies.lists(strategies.floats(-4.0, 4.0), max_size=3))
    def test_matched_moments_survive_split_panels(self, mean, cv, n, kinks):
        # lognormal moments; kinks at mean * exp(z * sigma) split the panels they fall in
        sig2 = math.log1p(cv ** 2)
        m = [mean ** k * math.exp(0.5 * k * (k - 1) * sig2) for k in range(n + 1)]
        d = fit_maxent(m)
        points = [mean * math.exp(z * math.sqrt(sig2)) for z in kinks]
        for k in range(n + 1):
            got = integrate_payoff(d, lambda x, k=k: x ** k, points=points)
            assert got == pytest.approx(m[k], rel=1e-10)


class TestOptionSpec:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            OptionSpec("call", "stock", strike=-1.0, expiry=1.0, rate=0.0)
        with pytest.raises(InvalidParameterError):
            OptionSpec("call", "dividend", strike=1.0, expiry=1.0, rate=0.0)
        with pytest.raises(InvalidParameterError):
            OptionSpec("swap", "stock", strike=1.0, expiry=1.0, rate=0.0)


class TestStockOption:
    def test_deterministic_underlying(self):
        p = ModelParams.single_factor(r=0.02, a=0.1, sigma=0.0, b=0.0, beta=-0.2, nu=0.0)
        st = State(0.0, 1.0, [0.0])
        spec = OptionSpec("call", "stock", strike=0.9, expiry=1.0, rate=0.02)
        price = price_stock_option(p, None, st, spec, 6)
        expect = math.exp(-0.02) * (math.exp(0.02) - 0.9)
        assert price == pytest.approx(expect, rel=1e-10)

    def test_reference_implied_vol(self):
        # quoted ATM three-month stock vol 0.2295; leading-order level
        # sigma * (1 - delta0/a) = 0.2291
        p = reference_params(0.2)
        st = reference_state()
        spec = OptionSpec("call", "stock", strike=1.0, expiry=0.25, rate=p.r)
        price = price_stock_option(p, None, st, spec, 6)
        fwd = stock_futures(p, None, st, 0.0, 0.25)
        carry = p.r - math.log(fwd) / 0.25
        iv = implied_vol(price, 1.0, 1.0, 0.25, p.r, dividend_yield=carry)
        assert iv == pytest.approx(0.2295, abs=0.005)
        assert iv == pytest.approx(0.2813 * (1 - 0.0371 / 0.2), abs=0.005)

    def test_put_call_parity(self):
        p = reference_params(0.2)
        st = reference_state()
        call = price_stock_option(p, None, st, OptionSpec("call", "stock", 1.0, 0.25, p.r), 6)
        put = price_stock_option(p, None, st, OptionSpec("put", "stock", 1.0, 0.25, p.r), 6)
        fwd = stock_futures(p, None, st, 0.0, 0.25)
        assert call - put == pytest.approx(math.exp(-p.r * 0.25) * (fwd - 1.0), abs=1e-8)

    def test_put_call_parity_on_a_wide_fit(self):
        # three-factor jump model whose N = 6 fit at T = 3 needs 1,600 nodes;
        # a 400-node rule on each side of the strike leaves a 5.6e-7 F gap here
        rng = np.random.default_rng([7, 0])
        p = random_admissible_params(rng, 3)
        st = random_state_in_E(rng, p)
        fwd = stock_futures(p, TWO_POINT_JUMP, st, 0.0, 3.0)
        call, put = (price_stock_option(p, TWO_POINT_JUMP, st,
                                        OptionSpec(kind, "stock", fwd, 3.0, p.r), 6)
                     for kind in ("call", "put"))
        # ATM: call - put = discount * (F - K) = 0
        assert abs(call - put) <= 1e-10 * fwd

    def test_strike_monotone_and_convex(self):
        p = reference_params(0.2)
        st = reference_state()
        strikes = np.linspace(0.8, 1.2, 9)
        prices = [price_stock_option(p, None, st, OptionSpec("call", "stock", k, 0.25, p.r), 6)
                  for k in strikes]
        diffs = np.diff(prices)
        assert np.all(diffs < 0)
        assert np.all(np.diff(diffs) > -1e-10)

    def test_moment_count_validation(self):
        p = reference_params(0.2)
        with pytest.raises(InvalidParameterError):
            price_stock_option(p, None, reference_state(),
                               OptionSpec("call", "stock", 1.0, 0.25, p.r), 1)


class TestDividendOption:
    def test_zero_length_window(self):
        p = reference_params(0.2)
        spec = OptionSpec("call", "dividend", strike=0.03, expiry=1.0, rate=p.r,
                          window=(1.0, 1.0))
        assert price_dividend_option(p, None, reference_state(), spec, 6) == 0.0

    def test_reference_implied_vol(self):
        # quoted Black vol 0.0491 for the ATM option on the first contract
        p = reference_params(0.2)
        st = reference_state()
        t1 = 361.0 / 365.0
        fwd = dividend_futures(p, None, st, 0.0, 0.0, t1)
        spec = OptionSpec("call", "dividend", strike=fwd, expiry=t1, rate=p.r,
                          window=(0.0, t1))
        price = price_dividend_option(p, None, st, spec, 6)
        iv = implied_vol(price, fwd, fwd, t1, p.r, "black76")
        assert iv == pytest.approx(0.0491, abs=0.005)

    def test_started_window_parity_includes_accrual(self):
        # the payoff is on the accrued c0 plus the dividends still to come
        p = reference_params(0.2)
        st = State(c=0.01, x=1.0, y=[0.0371])
        fwd = dividend_futures(p, None, st, 0.0, -0.5, 1.0)
        prices = {kind: price_dividend_option(
            p, None, st, OptionSpec(kind, "dividend", strike=fwd, expiry=1.0, rate=p.r,
                                    window=(-0.5, 1.0)), 6) for kind in ("call", "put")}
        assert prices["call"] > 1e-4
        # ATM: call - put = discount * (F - K) = 0
        assert abs(prices["call"] - prices["put"]) <= 1e-9 * fwd

    def test_few_moments_already_close(self):
        # two moments give a price within a fraction of a vega of six
        p = reference_params(0.2)
        st = reference_state()
        fwd = dividend_futures(p, None, st, 0.0, 0.0, 1.0)
        spec = OptionSpec("call", "dividend", strike=fwd, expiry=1.0, rate=p.r,
                          window=(0.0, 1.0))
        p2 = price_dividend_option(p, None, st, spec, 2)
        p6 = price_dividend_option(p, None, st, spec, 6)
        assert p2 == pytest.approx(p6, rel=5e-3)
