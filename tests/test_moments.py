import math

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

import polydiv.moments as moments
from polydiv.errors import (DomainError, InadmissibleParamsError, InvalidParameterError,
                            NumericError)
from polydiv.generator import build_basis, build_generator, eval_basis
from polydiv.model import JumpSpec, ModelParams, State, TwoPoint
from polydiv.moments import (
    conditional_moments,
    cumulative_dividend_moments,
    dividend_futures,
    expm_apply,
    futures_strip,
    pv_dividends,
    pv_dividends_limit,
    stock_futures,
    stock_price_moments,
)

from conftest import random_admissible_params, random_state_in_E, reference_params


def b0_params(a=0.1, beta=-0.3, sigma=0.25, nu=0.01):
    return ModelParams.single_factor(r=0.01, a=a, sigma=sigma, b=0.0, beta=beta, nu=nu)


class TestExpmApply:
    def test_zero_matrix(self):
        v = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(expm_apply(np.zeros((3, 3)), 1.7, v), v)

    def test_diagonal(self):
        g = np.diag([0.5, -1.0])
        out = expm_apply(g, 2.0, np.array([1.0, 1.0]))
        np.testing.assert_allclose(out, [math.e, math.exp(-2.0)], rtol=1e-13)

    def test_nilpotent(self):
        g = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(expm_apply(g, 1.0, np.array([0.0, 1.0])), [1.0, 1.0])

    def test_zero_dt_exact(self):
        v = np.array([0.1, 0.2])
        out = expm_apply(np.array([[1.0, 2.0], [3.0, 4.0]]), 0.0, v)
        np.testing.assert_array_equal(out, v)

    def test_errors(self):
        with pytest.raises(InvalidParameterError):
            expm_apply(np.zeros((2, 2)), -1.0, np.zeros(2))
        with pytest.raises(NumericError):
            expm_apply(np.array([[np.nan, 0], [0, 0]]), 1.0, np.zeros(2))

    @pytest.mark.parametrize("dt", [0.0, 1.0])
    def test_non_finite_vector_rejected(self, dt):
        with pytest.raises(NumericError, match="non-finite entries in matrix-exponential input"):
            expm_apply(np.zeros((2, 2)), dt, np.array([np.nan, 0.0]))


class TestConditionalMoments:
    def test_zero_horizon_returns_state_monomials(self, params_a02, state0):
        ms = conditional_moments(params_a02, None, state0, 0.5, 0.5, 3)
        np.testing.assert_allclose(ms.values, eval_basis(ms.basis, state0))

    def test_b0_dividend_mean_reversion(self, state0):
        p = b0_params()
        for horizon in (0.5, 2.0, 7.0):
            ms = conditional_moments(p, None, state0, 0.0, horizon, 1)
            assert ms.value(alpha=(1,)) == pytest.approx(
                math.exp(-0.3 * horizon) * 0.0371, rel=1e-12)

    def test_constant_entry_is_one(self, params_a02, state0):
        ms = conditional_moments(params_a02, None, state0, 0.0, 3.0, 4)
        assert ms.value() == pytest.approx(1.0, rel=1e-12)

    def test_semigroup_property(self, params_a02, state0):
        basis = build_basis(1, 4)
        g = build_generator(params_a02, None, basis)
        h = eval_basis(basis, state0)
        one_hop = expm_apply(g, 3.0, h)
        two_hop = expm_apply(g, 2.0, expm_apply(g, 1.0, h))
        np.testing.assert_allclose(two_hop, one_hop, rtol=1e-9)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_moments_raise(self, state0):
        # with b = 0 the stock's second moment grows like e^{(2r + sigma^2) T}
        with pytest.raises(NumericError, match="matrix exponential produced non-finite values"):
            conditional_moments(b0_params(), None, state0, 0.0, 1e5, 2)

    def test_reject_reversed_horizon(self, params_a02, state0):
        with pytest.raises(InvalidParameterError):
            conditional_moments(params_a02, None, state0, 1.0, 0.5, 2)


class TestFutures:
    def test_stock_futures_at_expiry(self, params_a02, state0):
        assert stock_futures(params_a02, None, state0, 0.5, 0.5) == pytest.approx(1.0)

    def test_stock_futures_deterministic_growth(self):
        p = ModelParams.single_factor(r=0.02, a=0.1, sigma=0.0, b=0.0, beta=-0.2, nu=0.0)
        st = State(0.0, 1.5, [0.0])
        assert stock_futures(p, None, st, 0.0, 2.0) == pytest.approx(
            1.5 * math.exp(0.04), rel=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_futures_raise(self, state0):
        # with b = 0 the stock futures grow like e^{rT}: 1e6 years overflow
        with pytest.raises(NumericError, match="matrix exponential produced non-finite values"):
            stock_futures(b0_params(), None, state0, 0.0, 1e6)

    def test_dividend_futures_b0_closed_form(self, state0):
        p = b0_params()
        t0, t1, beta = 1.0, 2.0, -0.3
        val = dividend_futures(p, None, state0, 0.0, t0, t1)
        closed = 0.0371 * (math.exp(beta * t1) - math.exp(beta * t0)) / beta
        assert val == pytest.approx(closed, rel=1e-12)

    def test_zero_length_window(self, params_a02, state0):
        assert dividend_futures(params_a02, None, state0, 0.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_started_window_branch_continuity(self, params_a02, state0):
        # at T0 = t both branches must agree (accrued c = 0)
        fresh = dividend_futures(params_a02, None, state0, 0.0, 0.0, 1.0)
        started = dividend_futures(params_a02, None, state0, 0.0, -1e-9, 1.0)
        assert fresh == pytest.approx(started, rel=1e-6)

    def test_started_window_includes_accrued(self, params_a02):
        st = State(c=2.5, x=1.0, y=[0.0371])
        val = dividend_futures(params_a02, None, st, 0.0, -0.5, 1.0)
        base = dividend_futures(params_a02, None, State(0.0, 1.0, [0.0371]), 0.0, 0.0, 1.0)
        assert val == pytest.approx(base + 2.5, rel=1e-12)

    def test_volatility_independence(self, state0):
        base = reference_params(0.2)
        bumped = ModelParams.single_factor(r=0.01, a=0.2, sigma=0.9, b=0.0103,
                                           beta=-0.3439, nu=0.09)
        for t0, t1 in [(0.0, 1.0), (3.0, 4.0), (0.5, 9.5)]:
            assert dividend_futures(base, None, state0, 0.0, t0, t1) == pytest.approx(
                dividend_futures(bumped, None, state0, 0.0, t0, t1), rel=1e-14)

    def test_monotone_in_window_end(self, params_a02, state0):
        vals = [dividend_futures(params_a02, None, state0, 0.0, 1.0, t1)
                for t1 in (1.0, 1.5, 2.0, 4.0, 8.0)]
        assert all(v >= 0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_window_order_errors(self, params_a02, state0):
        with pytest.raises(InvalidParameterError):
            dividend_futures(params_a02, None, state0, 0.0, 2.0, 1.0)

    @pytest.mark.parametrize("jump", [None, JumpSpec(lam=1.3, dist=TwoPoint(-0.5, 0.4, 0.6))],
                             ids=["diffusion", "two_point_jump"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_agrees_with_generator_path(self, d, jump):
        # the degree-one drift system against the generator's degree-one
        # block, and the PV against the discount-tilted matrix written out
        rng = np.random.default_rng(10 + d)
        params = random_admissible_params(rng, d)
        state = random_state_in_E(rng, params)
        ms = conditional_moments(params, jump, state, 0.2, 1.9, 1)
        assert stock_futures(params, jump, state, 0.2, 1.9) == pytest.approx(
            ms.value(j=1), rel=1e-12)
        for t0, t1 in [(0.2, 1.2), (1.5, 3.0)]:
            m1 = cumulative_dividend_moments(params, jump, state, 0.2, t0, t1, 1)[0]
            assert dividend_futures(params, jump, state, 0.2, t0, t1) == pytest.approx(
                m1, rel=1e-12)
        to_come = cumulative_dividend_moments(params, jump, state, 0.2, 0.2, 1.4, 1)[0]
        assert dividend_futures(params, jump, state, 0.2, -0.3, 1.4) == pytest.approx(
            state.c + to_come, rel=1e-12)

        r, horizon = params.r, 4.5
        tilted = np.zeros((2 + d, 2 + d))
        tilted[0, 2:] = 1.0
        tilted[1, 2:] = -1.0
        tilted[2:, 1] = params.b
        tilted[2:, 2:] = params.beta - r * np.eye(d)
        ref = expm(tilted * horizon) @ np.concatenate(([0.0, state.x], state.y))
        pv = pv_dividends(params, state, horizon)
        np.testing.assert_allclose([pv.pv_dividends, pv.discounted_terminal], ref[:2], rtol=1e-12)

    def test_inadmissible_rejected(self, state0):
        # beta = 0.5 breaks the yield-cap inequality r - a - beta - b/a >= 0
        p = ModelParams.single_factor(r=0.01, a=0.2, sigma=0.3, b=0.0103, beta=0.5, nu=0.02)
        with pytest.raises(InadmissibleParamsError):
            stock_futures(p, None, state0, 0.0, 1.0)
        with pytest.raises(InadmissibleParamsError):
            dividend_futures(p, None, state0, 0.0, 0.0, 1.0)
        with pytest.raises(InadmissibleParamsError):
            pv_dividends(p, state0, 1.0)


def generator_path_futures(params, jump, state, t, windows, expiries):
    """Degree-one moments from the generator, one window or expiry at a time."""
    div = [cumulative_dividend_moments(params, jump, state, t, max(T0, t), T1, 1)[0]
           + (state.c if T0 < t else 0.0) for T0, T1 in windows]
    stock = [conditional_moments(params, jump, state, t, T, 1).value(j=1) for T in expiries]
    return div, stock


class TestFuturesStrip:
    # unsorted, overlapping, started, zero-length, ending at t, and one
    # spanning the whole strip; expiries unsorted, one at t
    WINDOWS = [(1.5, 3.0), (0.2, 1.2), (-0.3, 1.4), (0.7, 0.7), (-0.1, 0.2), (0.2, 0.2),
               (1.0, 2.5), (0.2, 3.0)]
    EXPIRIES = [1.9, 0.2, 3.0, 0.45]

    @pytest.mark.parametrize("jump", [None, JumpSpec(lam=1.3, dist=TwoPoint(-0.5, 0.4, 0.6))],
                             ids=["diffusion", "two_point_jump"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_agrees_with_generator_path(self, d, jump):
        rng = np.random.default_rng(20 + d)
        params = random_admissible_params(rng, d)
        state = random_state_in_E(rng, params)
        div, stock = futures_strip(params, state, 0.2, self.WINDOWS, self.EXPIRIES)
        ref_div, ref_stock = generator_path_futures(params, jump, state, 0.2,
                                                    self.WINDOWS, self.EXPIRIES)
        np.testing.assert_allclose(div, ref_div, rtol=1e-12)
        np.testing.assert_allclose(stock, ref_stock, rtol=1e-12)

    def test_edge_windows_are_exact(self, params_a02):
        state = State(c=0.4, x=1.3, y=[0.05])
        div, stock = futures_strip(params_a02, state, 0.2, self.WINDOWS, self.EXPIRIES)
        # zero-length: nothing accrues; ending at t: only what already accrued
        assert (div[3], div[5], div[4]) == (0.0, 0.0, state.c)
        assert stock[1] == state.x

    def test_one_check_and_one_exponential(self, params_a02, state0, monkeypatch):
        calls = []
        monkeypatch.setattr(moments, "require_admissible", lambda p: calls.append("check"))
        monkeypatch.setattr(moments, "expm", lambda a: calls.append(a.shape) or expm(a))
        futures_strip(params_a02, state0, 0.0, [(k - 1.0, float(k)) for k in range(1, 11)],
                      [0.25, 10.0])
        # steps of 0.25, 0.75 and nine of 1 year: three exponentials in one call
        assert calls == ["check", (3, 3, 3)]

    @pytest.mark.parametrize("windows,expiries,match", [
        ([(0.0, 1.0), (2.0, 1.5)], [1.0], r"window \(2.0, 1.5\) ends before it starts"),
        ([(0.0, 1.0), (-0.5, 0.1)], [1.0], "date 0.1 lies before t=0.2"),
        ([(0.0, 1.0)], [1.0, 0.1], "date 0.1 lies before t=0.2"),
        ([(0.0, float("nan"))], [], "finite"),
        ([(0.0, 1.0)], [float("inf")], "finite"),
    ], ids=["reversed_window", "window_ends_before_t", "expiry_before_t", "nan", "inf"])
    def test_malformed_request_rejected_before_any_work(self, params_a02, state0, monkeypatch,
                                                        windows, expiries, match):
        calls = []
        monkeypatch.setattr(moments, "require_admissible", lambda p: calls.append("check"))
        monkeypatch.setattr(moments, "expm", lambda a: calls.append("expm") or expm(a))
        with pytest.raises(InvalidParameterError, match=match):
            futures_strip(params_a02, state0, 0.2, windows, expiries)
        assert calls == []


class TestCumulativeDividendMoments:
    def test_first_moment_matches_futures(self, params_a02, state0):
        for t0, t1 in [(0.0, 1.0), (2.0, 3.0), (1.0, 6.0)]:
            m = cumulative_dividend_moments(params_a02, None, state0, 0.0, t0, t1, 1)
            assert m[0] == pytest.approx(
                dividend_futures(params_a02, None, state0, 0.0, t0, t1), rel=1e-11)

    def test_immediate_window_agrees_with_recursion(self, params_a02, state0):
        # the moments are continuous as the window start T0 approaches t
        direct = cumulative_dividend_moments(params_a02, None, state0, 0.0, 0.0, 2.0, 6)
        eps = 1e-9
        recursed = cumulative_dividend_moments(params_a02, None, state0, 0.0, eps, 2.0, 6)
        np.testing.assert_allclose(recursed, direct, rtol=1e-5)

    def test_independent_of_accrual(self, params_a02):
        # window moments restart the accrual at T0, so state.c cannot enter
        zero = cumulative_dividend_moments(params_a02, None, State(0.0, 1.0, [0.0371]),
                                           0.0, 1.0, 2.0, 6)
        ten = cumulative_dividend_moments(params_a02, None, State(10.0, 1.0, [0.0371]),
                                          0.0, 1.0, 2.0, 6)
        np.testing.assert_allclose(ten, zero, rtol=1e-12)

    def test_nonoverlapping_consistency(self, params_a02, state0):
        # moments are plausible: positive, increasing order magnitudes consistent
        m = cumulative_dividend_moments(params_a02, None, state0, 0.0, 1.0, 2.0, 4)
        assert m[0] > 0
        assert m[1] > m[0] ** 2  # strictly positive variance
        # moment ratios should be close to the near-deterministic scale
        assert m[1] == pytest.approx(m[0] ** 2, rel=0.05)

    @pytest.mark.parametrize("jump", [None, JumpSpec(lam=1.3, dist=TwoPoint(-0.5, 0.4, 0.6))],
                             ids=["diffusion", "two_point_jump"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_agrees_with_whole_matrix_exponential(self, d, jump):
        # Reference: the whole generator's exponential, no blocks and no
        # c-free sub-block.  M_k = e_{c^k}' expm(G (T1 - T0)) P expm(G (T0 - t)) h,
        # with P keeping the c-free monomials, evaluated from the left as
        # coefficient vectors (exponentials of G').  Propagating h forward
        # instead gives M_5, M_6 relative errors up to 1e-5 here.  Against
        # 34-digit exponentials of the same blocks, this function is off by
        # at most 2.3e-12 on these cases (M_5, d = 1, no jump), the
        # reference by 3.6e-13, hence rtol 1e-11.
        rng = np.random.default_rng(d)
        params = random_admissible_params(rng, d)
        state = random_state_in_E(rng, params)
        basis = build_basis(d, 6)
        g = build_generator(params, jump, basis)
        c_free = np.array([m.i == 0 for m in basis.members])
        h = eval_basis(basis, state)
        for t, t0, t1 in [(0.5, 0.5, 1.5), (0.5, 1.2, 2.2), (0.0, 3.0, 4.0)]:
            coeffs = expm(g.T * (t1 - t0)) * c_free[:, None]
            coeffs = expm(g.T * (t0 - t)) @ coeffs
            ref = np.array([coeffs[:, basis.position(k, 0, (0,) * d)] @ h for k in range(1, 7)])
            got = cumulative_dividend_moments(params, jump, state, t, t0, t1, 6)
            np.testing.assert_allclose(got, ref, rtol=1e-11, atol=0)
        # the stock moments, E_t[X_T^k] = e_{x^k}' expm(G (T - t)) h, the same way
        for t, T in [(0.5, 1.5), (0.0, 3.0), (0.0, 0.25)]:
            coeffs = expm(g.T * (T - t))
            ref = np.array([coeffs[:, basis.position(0, k, (0,) * d)] @ h for k in range(1, 7)])
            got = stock_price_moments(params, jump, state, t, T, 6)
            np.testing.assert_allclose(got, ref, rtol=1e-11, atol=0)

    def test_ordering_violations(self, params_a02, state0):
        with pytest.raises(InvalidParameterError):
            cumulative_dividend_moments(params_a02, None, state0, 1.0, 0.5, 2.0, 2)
        with pytest.raises(InvalidParameterError):
            cumulative_dividend_moments(params_a02, None, state0, 0.0, 2.0, 1.0, 2)
        with pytest.raises(InvalidParameterError):
            cumulative_dividend_moments(params_a02, None, state0, 0.0, 0.5, 2.0, 0)


class TestStockPriceMoments:
    def test_first_moment_is_futures(self, params_a02, state0):
        m = stock_price_moments(params_a02, None, state0, 0.0, 0.7, 1)
        assert m[0] == pytest.approx(stock_futures(params_a02, None, state0, 0.0, 0.7), rel=1e-13)

    def test_deterministic_powers(self):
        p = ModelParams.single_factor(r=0.02, a=0.1, sigma=0.0, b=0.0, beta=-0.2, nu=0.0)
        st = State(0.0, 1.2, [0.0])
        m = stock_price_moments(p, None, st, 0.0, 1.5, 4)
        f = 1.2 * math.exp(0.03)
        np.testing.assert_allclose(m, [f, f**2, f**3, f**4], rtol=1e-12)

    def test_positive_variance(self, params_a02, state0):
        m = stock_price_moments(params_a02, None, state0, 0.0, 0.25, 6)
        assert m[1] - m[0] ** 2 > 0


TWO_POINT_JUMP = JumpSpec(lam=1.3, dist=TwoPoint(-0.5, 0.4, 0.6))


def _mp_expm_apply(block, dt, v):
    """``expm(block * dt) @ v`` in 34-digit arithmetic, rounded to floats."""
    with mpmath.workdps(34):
        out = mpmath.expm(mpmath.matrix(block.tolist()) * mpmath.mpf(dt)) * mpmath.matrix(v.tolist())
        return np.array([float(e) for e in out])


class TestAgainstMpmath:
    """Every moment against 34-digit exponentials of the same generator
    blocks, relative per entry.  Pushing the state monomials forward was off
    by 1.5e-3 on E_t[Y^6] at T = 3 here; carried back as coefficient rows,
    the moments are off by at most 1.2e-14 on these cases."""

    @pytest.mark.parametrize("T", [1.0, 3.0])
    def test_conditional_moments(self, params_a02, state0, T):
        basis = build_basis(1, 6)
        g = build_generator(params_a02, TWO_POINT_JUMP, basis)
        h = eval_basis(basis, state0)
        ref = np.concatenate([_mp_expm_apply(g[s, s], T, h[s]) for s in basis.blocks])
        got = conditional_moments(params_a02, TWO_POINT_JUMP, state0, 0.0, T, 6).values
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("d", [1, 2])
    def test_stock_price_moments(self, params_a02, state0, d):
        # d = 1: the a = 0.2 reference set; d = 2: the random model of the
        # whole-matrix test.  The x^k row leads the c-free sub-block of
        # degree k, so E_t[X_T^k] is the first entry of that sub-block's
        # exponential applied to the c-free monomials.
        if d == 1:
            params, state = params_a02, state0
        else:
            rng = np.random.default_rng(d)
            params = random_admissible_params(rng, d)
            state = random_state_in_E(rng, params)
        basis = build_basis(d, 6)
        g = build_generator(params, TWO_POINT_JUMP, basis)
        h = eval_basis(basis, state)
        for T in (1.0, 3.0):
            ref = [_mp_expm_apply(g[f, f], T, h[f])[0] for f in basis.c_free[1:]]
            got = stock_price_moments(params, TWO_POINT_JUMP, state, 0.0, T, 6)
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("call,name", [
    (lambda p, s: stock_price_moments(p, None, s, 0.0, 1.0, 2.5), "n_moments"),
    (lambda p, s: stock_price_moments(p, None, s, 0.0, 1.0, 0), "n_moments"),
    (lambda p, s: stock_price_moments(p, None, s, 1.0, 0.5, 2), "T"),
    (lambda p, s: conditional_moments(p, None, s, 0.0, 1.0, 2.5), "n"),
    (lambda p, s: conditional_moments(p, None, s, 0.0, 1.0, 0), "n"),
    (lambda p, s: conditional_moments(p, None, s, 1.0, 0.5, 2), "T"),
    (lambda p, s: cumulative_dividend_moments(p, None, s, 0.0, 1.0, 2.0, 2.5), "n"),
    (lambda p, s: cumulative_dividend_moments(p, None, s, 0.0, 1.0, 2.0, 0), "n"),
    (lambda p, s: cumulative_dividend_moments(p, None, s, 1.0, 0.5, 2.0, 2), "T0"),
], ids=[f"{fn}-{bad}" for fn in ("stock", "conditional", "dividend")
        for bad in ("fractional_count", "zero_count", "reversed_horizon")])
def test_moment_arguments_rejected(params_a02, state0, call, name):
    with pytest.raises(InvalidParameterError, match=rf"\b{name}\b"):
        call(params_a02, state0)



NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("call,name", [
    (lambda p, s: stock_price_moments(p, None, s, 0.0, NAN, 2), "T"),
    (lambda p, s: stock_price_moments(p, None, s, 0.0, INF, 2), "T"),
    (lambda p, s: stock_price_moments(p, None, s, -INF, 1.0, 2), "t"),
    (lambda p, s: conditional_moments(p, None, s, 0.0, INF, 2), "T"),
    (lambda p, s: conditional_moments(p, None, s, NAN, 1.0, 2), "t"),
    (lambda p, s: cumulative_dividend_moments(p, None, s, 0.0, NAN, 2.0, 2), "T0"),
    (lambda p, s: cumulative_dividend_moments(p, None, s, 0.0, 1.0, INF, 2), "T1"),
    (lambda p, s: cumulative_dividend_moments(p, None, s, 0.0, 1.0, NAN, 2), "T1"),
    (lambda p, s: pv_dividends(p, s, NAN), "horizon"),
    (lambda p, s: pv_dividends(p, s, INF), "horizon"),
], ids=["stock-nan_T", "stock-inf_T", "stock-inf_t", "conditional-inf_T", "conditional-nan_t",
        "dividend-nan_T0", "dividend-inf_T1", "dividend-nan_T1", "pv-nan_horizon",
        "pv-inf_horizon"])
def test_non_finite_times_rejected_before_any_build(params_a02, state0, monkeypatch, call, name):
    builds = []
    monkeypatch.setattr(moments, "build_generator", lambda *a: builds.append(a))
    with pytest.raises(InvalidParameterError, match=rf"finite {name}\b"):
        call(params_a02, state0)
    assert builds == []

class TestPresentValue:
    def test_zero_horizon(self, params_a02, state0):
        pv = pv_dividends(params_a02, state0, 0.0)
        assert pv.pv_dividends == 0.0
        assert pv.discounted_terminal == pytest.approx(1.0)

    @pytest.mark.parametrize("a", [0.1, 0.2, 0.3])
    @pytest.mark.parametrize("horizon", [1.0, 5.0, 30.0, 200.0])
    def test_martingale_identity(self, a, horizon, state0):
        p = reference_params(a)
        pv = pv_dividends(p, state0, horizon)
        total = pv.pv_dividends + pv.discounted_terminal
        assert total == pytest.approx(state0.x, rel=1e-10)

    def test_b0_infinite_horizon_closed_form(self, state0):
        # with b = 0 the dividend PV is D0 / (r - beta) and the discounted
        # terminal stock value does not vanish (a genuine price bubble)
        p = b0_params(beta=-0.3439)
        pv = pv_dividends(p, state0, 200.0)
        closed = 0.0371 / (0.01 + 0.3439)
        assert pv.pv_dividends == pytest.approx(closed, rel=1e-10)
        assert pv.discounted_terminal == pytest.approx(1.0 - closed, rel=1e-9)
        assert pv.discounted_terminal > 0.5

    def test_terminal_value_decays_with_positive_b(self, state0):
        p = reference_params(0.2)
        terminals = [pv_dividends(p, state0, h).discounted_terminal
                     for h in (25.0, 50.0, 100.0, 200.0)]
        assert all(b < a for a, b in zip(terminals, terminals[1:]))
        # slowest decay mode has rate 0.0320/year; at 200y about 1.63e-3 remains
        assert terminals[-1] == pytest.approx(1.6332e-3, rel=1e-3)

    def test_limit_helper_converges(self, state0):
        # the closed-form limit is the stock price itself, on the reference
        # sets and on random admissible ones
        cases = [(reference_params(a), state0) for a in (0.1, 0.2, 0.3)]
        for seed in range(40):
            rng = np.random.default_rng(seed)
            for d in (1, 2, 3):
                p = random_admissible_params(rng, d)
                cases.append((p, random_state_in_E(rng, p)))
        for p, state in cases:
            pv = pv_dividends_limit(p, state)
            assert abs(pv.pv_dividends - state.x) <= 1e-12 * state.x
            assert pv.discounted_terminal == 0.0

    def test_limit_helper_reports_bubble(self, state0):
        # b = 0 leaves the tilted drift an eigenvalue 0: the discounted stock
        # keeps 1 - D0 / (r - beta) of its value forever
        with pytest.raises(DomainError, match="spectral abscissa 0 >= 0"):
            pv_dividends_limit(b0_params(beta=-0.3439), state0)
