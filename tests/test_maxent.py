import math
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies

import polydiv.moments
from polydiv import maxent
from polydiv.errors import ConvergenceError, InfeasibleMomentsError, InvalidParameterError
from polydiv.maxent import (
    OptionSpec,
    fit_maxent,
    integrate_payoff,
    option_payoff,
    price_dividend_option,
    price_option,
    price_stock_option,
)
from polydiv.model import JumpSpec, ModelParams, State, TwoPoint
from polydiv.moments import (
    cumulative_dividend_moments,
    dividend_futures,
    stock_futures,
    stock_price_moments,
)
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

    @pytest.mark.parametrize("moments,error,message", [
        ([1.0], InvalidParameterError, r"need at least \(M_0, M_1\)"),
        ([[1.0, 2.0]], InvalidParameterError, r"need at least \(M_0, M_1\)"),
        ([1.0, math.nan, 2.0], InvalidParameterError, "non-finite moment input"),
        ([1.0, 1.0, math.inf], InvalidParameterError, "non-finite moment input"),
        ([1.0, 1.0, 2.0, 1.5], InfeasibleMomentsError, r"M_1\*M_3 - M_2\^2 <= 0"),
    ], ids=["one_moment", "two_dimensional", "nan_moment", "inf_moment", "hankel_three"])
    def test_malformed_moments_rejected(self, moments, error, message):
        with pytest.raises(error, match=message):
            fit_maxent(moments)

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

    def test_a_rejected_refined_rule_check_is_named(self):
        # no-jump reference model, stock at T = 1, seven moments: Newton meets
        # its target at 800, 1600 and 3200 nodes, the refined rule rejects each
        m = stock_price_moments(reference_params(0.2), None, reference_state(), 0.0, 1.0, 7)
        with pytest.raises(ConvergenceError) as info:
            fit_maxent(np.concatenate(([1.0], m)))
        message = str(info.value)
        assert message.startswith("maxent fit failed the refined-rule check at every node count")
        error, nodes = re.search(r"moment error (\S+) \(target 1e-10\) on (\d+) nodes",
                                 message).groups()
        assert float(error) > maxent._VERIFY_TOL and int(nodes) >= 8 * maxent._FIT_NODES
        assert "did not converge" not in message


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

    def test_unknown_underlying_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown underlying 'bond'"):
            OptionSpec("call", "bond", strike=1.0, expiry=1.0, rate=0.0)

    def test_pricer_of_the_other_underlying_rejected(self):
        p, st = reference_params(0.2), reference_state()
        stock = OptionSpec("call", "stock", 1.0, 1.0, p.r)
        dividend = OptionSpec("call", "dividend", 0.03, 1.0, p.r, (0.0, 1.0))
        with pytest.raises(InvalidParameterError, match="spec.underlying must be 'stock'"):
            price_stock_option(p, None, st, dividend, 2)
        with pytest.raises(InvalidParameterError, match="spec.underlying must be 'dividend'"):
            price_dividend_option(p, None, st, stock, 2)

    @pytest.mark.parametrize("field,kwargs", [
        ("strike", dict(strike=math.inf)),
        ("strike", dict(strike=math.nan)),
        ("expiry", dict(expiry=math.inf)),
        ("expiry", dict(expiry=math.nan)),
        ("rate", dict(rate=math.nan)),
        ("rate", dict(rate=-math.inf)),
        ("window", dict(underlying="dividend", window=(0.0, math.inf))),
        ("window", dict(underlying="dividend", window=(math.nan, 1.0))),
    ], ids=["inf_strike", "nan_strike", "inf_expiry", "nan_expiry", "nan_rate", "inf_rate",
            "inf_window_end", "nan_window_start"])
    def test_non_finite_field_rejected(self, field, kwargs):
        spec = dict(kind="call", underlying="stock", strike=1.0, expiry=1.0, rate=0.0)
        with pytest.raises(InvalidParameterError, match=rf"^{field}\b"):
            OptionSpec(**{**spec, **kwargs})

    @pytest.mark.parametrize("window,expiry,message", [
        ((0.0, 1.0), 0.25, "expiry 0.25 is before the window end 1.0"),
        ((0.5, 2.0), 1.0, "expiry 1.0 is before the window end 2.0"),
        ((1.0, 0.5), 1.0, "window must be ordered"),
    ], ids=["expiry_inside_window", "expiry_before_window_end", "unordered_window"])
    def test_dividend_window_must_be_ordered_and_end_by_expiry(self, window, expiry, message):
        with pytest.raises(InvalidParameterError, match=message):
            OptionSpec("call", "dividend", strike=0.03, expiry=expiry, rate=0.0, window=window)

    @pytest.mark.parametrize("window,expiry", [((0.0, 1.0), 1.0), ((0.0, 1.0), 1.5),
                                               ((-0.5, 0.5), 0.5), ((1.0, 1.0), 1.0)])
    def test_dividend_window_ending_by_expiry_accepted(self, window, expiry):
        assert OptionSpec("call", "dividend", 0.03, expiry, 0.0, window).window == window


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


def _clear_memo():
    maxent._record = maxent._Record(None)
    maxent._cold_fit.cache_clear()


def _strike_grid(p, jump, st, underlying, T):
    """Five strikes around the forward of one underlying, one coefficient of variation apart."""
    window = (T - 1.0, T) if underlying == "dividend" else None
    spec = OptionSpec("call", underlying, 1.0, T, p.r, window)
    m1, m2 = maxent._option_inputs(p, jump, st, spec, 2)[0]
    cv = math.sqrt(m2 - m1 * m1) / m1
    return [OptionSpec("call", underlying, m1 * math.exp(k * cv), T, p.r, window)
            for k in (-1.0, -0.5, 0.0, 0.5, 1.0)]


def _price(p, jump, st, spec, n):
    price = price_stock_option if spec.underlying == "stock" else price_dividend_option
    return price(p, jump, st, spec, n)


class TestRepeatedPrices:
    """Prices on one underlying reuse its moments and fits, by value."""

    @pytest.fixture(autouse=True)
    def cold_memo(self):
        # entries made under a patched fit must not reach other tests
        _clear_memo()
        yield
        _clear_memo()

    @pytest.mark.parametrize("underlying", ["stock", "dividend"])
    def test_strike_grid_bit_identical_warm_and_cold(self, underlying):
        p, st = reference_params(0.2), reference_state()
        specs = _strike_grid(p, TWO_POINT_JUMP, st, underlying, 1.0)
        _clear_memo()
        warm = [_price(p, TWO_POINT_JUMP, st, spec, n) for spec in specs for n in range(2, 7)]
        cold = []
        for spec in specs:
            for n in range(2, 7):
                _clear_memo()
                cold.append(_price(p, TWO_POINT_JUMP, st, spec, n))
        assert warm == cold

    @pytest.mark.parametrize("underlying", ["stock", "dividend"])
    def test_prices_do_not_depend_on_the_order_of_counts(self, underlying):
        # a price read from a prefix of a longer moment vector, or from one
        # extended by degree, is the cold price bit for bit
        p, st = reference_params(0.2), reference_state()
        specs = _strike_grid(p, TWO_POINT_JUMP, st, underlying, 2.0)
        counts = range(2, 7)
        orders = {"ascending": counts, "descending": counts[::-1]}
        prices = {}
        for name, order in orders.items():
            _clear_memo()
            prices[name] = {(k, n): _price(p, TWO_POINT_JUMP, st, spec, n)
                            for k, spec in enumerate(specs) for n in order}
        prices["cold"] = {}
        for k, spec in enumerate(specs):
            for n in counts:
                _clear_memo()
                prices["cold"][k, n] = _price(p, TWO_POINT_JUMP, st, spec, n)
        assert prices["ascending"] == prices["descending"] == prices["cold"]

    def test_one_exponential_per_degree_block_and_step_on_a_surface(self, monkeypatch):
        # stock at T = 1, 2, 3 and windows (T - 1, T): c-free blocks over 1, 2
        # and 3 y and full blocks over the 1 y window, at each degree 1..6
        rng = np.random.default_rng([1, 1])
        p = random_admissible_params(rng, 3)
        st = random_state_in_E(rng, p)
        lines = [OptionSpec("call", underlying, 1.0, T, p.r, window)
                 for T in (1.0, 2.0, 3.0)
                 for underlying, window in (("stock", None), ("dividend", (T - 1.0, T)))]
        exponentials = []
        expm = polydiv.moments.expm
        monkeypatch.setattr(polydiv.moments, "expm",
                            lambda a: exponentials.append(a.shape) or expm(a))
        for spec in lines:
            for n in range(2, 7):
                maxent._option_inputs(p, TWO_POINT_JUMP, st, spec, n)
        assert len(exponentials) == 4 * 6
        record = maxent._record
        held = sum(v.nbytes for v in record.held.values() if v is not None)
        assert held < 0.5e6
        monkeypatch.setattr(polydiv.moments, "expm", expm)
        for spec in lines:
            raw = maxent._option_inputs(p, TWO_POINT_JUMP, st, spec, 6)[0]
            if spec.underlying == "stock":
                cold = stock_price_moments(p, TWO_POINT_JUMP, st, 0.0, spec.expiry, 6)
            else:
                cold = cumulative_dividend_moments(p, TWO_POINT_JUMP, st, 0.0, *spec.window, 6)
            np.testing.assert_array_equal(raw, cold)

    def test_threads_sharing_the_record_read_the_cold_moments(self):
        # four threads walk one model's lines and counts in different orders
        p, st = reference_params(0.2), reference_state()
        specs = [OptionSpec("call", "stock", 1.0, T, p.r) for T in (1.0, 2.0)]
        specs += [OptionSpec("call", "dividend", 0.03, T, p.r, (T - 1.0, T)) for T in (1.0, 2.0)]
        cold = {}
        for k, spec in enumerate(specs):
            for n in range(2, 7):
                _clear_memo()
                cold[k, n] = maxent._option_inputs(p, TWO_POINT_JUMP, st, spec, n)[0]
        _clear_memo()
        jobs = [(k, n) for k in range(len(specs)) for n in range(2, 7)]
        seen, errors = [], []

        def walk(order):
            try:
                for k, n in order:
                    raw = maxent._option_inputs(p, TWO_POINT_JUMP, st, specs[k], n)[0]
                    seen.append((k, n, raw))
            except Exception as exc:  # reported below, from the test's own thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=walk, args=(order,))
                       for order in (jobs, jobs[::-1], jobs[1::2] + jobs[::2],
                                     sorted(jobs, key=lambda job: job[::-1]))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and not errors
        assert len(seen) == 4 * len(jobs)
        for k, n, raw in seen:
            np.testing.assert_array_equal(raw, cold[k, n])

    def test_in_place_parameter_change_is_not_stale(self):
        p, st = reference_params(0.2), reference_state()
        spec = OptionSpec("call", "stock", 1.0, 1.0, p.r)
        before = maxent._option_inputs(p, TWO_POINT_JUMP, st, spec, 6)[0]
        p.beta[0, 0] -= 0.05
        after = maxent._option_inputs(p, TWO_POINT_JUMP, st, spec, 6)[0]
        assert not np.array_equal(after, before)
        np.testing.assert_array_equal(
            after, stock_price_moments(p, TWO_POINT_JUMP, st, 0.0, 1.0, 6))

    @pytest.mark.parametrize("underlying", ["stock", "dividend"])
    def test_new_state_is_not_stale(self, underlying):
        p, st = reference_params(0.2), reference_state()
        spec = OptionSpec("call", underlying, 1.0, 2.0, p.r, (1.0, 2.0))
        before = maxent._option_inputs(p, None, st, spec, 6)[0]
        moved = State(c=st.c, x=st.x, y=st.y * 1.5)
        after = maxent._option_inputs(p, None, moved, spec, 6)[0]
        if underlying == "stock":
            cold = stock_price_moments(p, None, moved, 0.0, 2.0, 6)
        else:
            cold = cumulative_dividend_moments(p, None, moved, 0.0, 1.0, 2.0, 6)
        assert not np.array_equal(after, before)
        np.testing.assert_array_equal(after, cold)

    def test_memo_stays_within_its_bound(self):
        p = reference_params(0.2)
        spec = OptionSpec("call", "stock", 1.0, 0.5, p.r)
        for k in range(3 * maxent._MEMO_SIZE):
            st = State(c=0.0, x=1.0 + 0.01 * k, y=[0.0371])
            price_stock_option(p, None, st, spec, 3)
            assert list(maxent._record.moments) == [(0.5, None)]
            assert maxent._cold_fit.cache_info().currsize <= maxent._MEMO_SIZE

    def test_cached_moments_are_read_only(self):
        p, st = reference_params(0.2), reference_state()
        spec = OptionSpec("call", "stock", 1.0, 0.5, p.r)
        raw = maxent._option_inputs(p, None, st, spec, 4)[0]
        with pytest.raises(ValueError):
            raw[0] = 0.0
        with pytest.raises(ValueError):
            raw[:2][1] = 0.0
        np.testing.assert_array_equal(raw, stock_price_moments(p, None, st, 0.0, 0.5, 4))

    @pytest.mark.parametrize("underlying", ["dividend", "stock"])
    def test_one_build_per_count_and_one_fit_per_moment_vector(self, underlying, monkeypatch):
        # three-factor jump model of random_admissible_params seed (1, 1): at
        # T = 3 the N = 5 and N = 6 stock fits raise ConvergenceError
        rng = np.random.default_rng([1, 1])
        p = random_admissible_params(rng, 3)
        st = random_state_in_E(rng, p)
        specs = _strike_grid(p, TWO_POINT_JUMP, st, underlying, 3.0)
        builds, fits, failed = [], [], []
        build, fit = polydiv.moments.build_generator, maxent.fit_maxent

        def counted_build(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        def counted_fit(m, **kwargs):
            fits.append(np.asarray(m).tobytes())
            try:
                return fit(m, **kwargs)
            except ConvergenceError:
                failed.append(fits[-1])
                raise

        _clear_memo()
        monkeypatch.setattr(polydiv.moments, "build_generator", counted_build)
        monkeypatch.setattr(maxent, "fit_maxent", counted_fit)
        for spec in specs:
            for n in range(2, 7):
                _price(p, TWO_POINT_JUMP, st, spec, n)
        assert len(builds) == 5
        assert len(fits) == len(set(fits)) == 5
        assert len(failed) == (2 if underlying == "stock" else 0)

    @pytest.mark.parametrize("underlying", ["stock", "dividend"])
    def test_a_count_fits_the_same_alone_and_in_a_sweep(self, underlying):
        # the N fit starts from the cold fit of its N - 1 prefix, which is the
        # same density whether the memo holds it or makes it now
        p, st = reference_params(0.2), reference_state()
        spec = _strike_grid(p, TWO_POINT_JUMP, st, underlying, 2.0)[1]
        _clear_memo()
        alone = price_option(p, TWO_POINT_JUMP, st, spec, 6)
        orders = {}
        for name, counts in (("ascending", range(2, 7)), ("descending", range(6, 1, -1))):
            _clear_memo()
            orders[name] = {n: price_option(p, TWO_POINT_JUMP, st, spec, n) for n in counts}
        for sweep in orders.values():
            price, density = sweep[6]
            assert price == alone[0]
            np.testing.assert_array_equal(density.lambdas, alone[1].lambdas)
            assert [sweep[n][1].newton_start for n in range(3, 7)] == ["prefix"] * 4
        for n in range(2, 7):
            (up, up_fit), (down, down_fit) = orders["ascending"][n], orders["descending"][n]
            assert up == down
            np.testing.assert_array_equal(up_fit.lambdas, down_fit.lambdas)

    def test_a_failed_prefix_leaves_the_cold_starts(self, monkeypatch):
        p, st = reference_params(0.2), reference_state()
        spec = OptionSpec("call", "stock", 1.0, 1.0, p.r)
        raw = maxent._option_inputs(p, None, st, spec, 3)[0]
        fit, prefixes = maxent.fit_maxent, []

        def two_moments_fail(m, **kwargs):
            prefixes.append(kwargs.get("start"))
            if len(m) == 3:
                raise ConvergenceError("no fit")
            return fit(m, **kwargs)

        monkeypatch.setattr(maxent, "fit_maxent", two_moments_fail)
        density = price_option(p, None, st, spec, 3)[1]
        assert prefixes == [None, None]
        cold = fit(np.concatenate(([1.0], raw)))
        np.testing.assert_array_equal(density.lambdas, cold.lambdas)
        assert density.newton_start == cold.newton_start == "gaussian"

    def test_a_repeated_surface_makes_the_same_calls(self, monkeypatch):
        # a benchmark that runs one surface several times requires identical
        # build, exponential and fit counts on every run of it; a memo that
        # held a whole surface would serve the second run from the first
        p = reference_params(0.2)

        def surface(st):
            for T in (1.0, 2.0, 3.0):
                for underlying, window, forward in (("stock", None, st.x),
                                                    ("dividend", (T - 1.0, T), st.y[0])):
                    for k in (0.9, 0.95, 1.0, 1.05, 1.1):
                        spec = OptionSpec("call", underlying, k * forward, T, p.r, window)
                        for n in range(2, 7):
                            _price(p, None, st, spec, n)

        counts = dict.fromkeys(("builds", "exponentials", "fits"), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        st, moved = reference_state(), State(c=0.0, x=1.1, y=[0.04])
        surface(st)
        monkeypatch.setattr(polydiv.moments, "build_generator",
                            counted("builds", polydiv.moments.build_generator))
        monkeypatch.setattr(polydiv.moments, "expm", counted("exponentials", polydiv.moments.expm))
        monkeypatch.setattr(maxent, "fit_maxent", counted("fits", maxent.fit_maxent))
        runs = []
        for state in (st, moved, st):
            counts.update(dict.fromkeys(counts, 0))
            surface(state)
            runs.append(dict(counts))
        assert runs[0] == runs[2]
        assert min(runs[0].values()) > 0

    def test_non_convergence_is_remembered_and_raised_again(self, monkeypatch):
        calls = []

        def never_converges(m, **kwargs):
            calls.append(np.asarray(m).tobytes())
            raise ConvergenceError("no fit")

        p, st = reference_params(0.2), reference_state()
        spec = OptionSpec("call", "stock", 1.0, 0.5, p.r)
        monkeypatch.setattr(maxent, "fit_maxent", never_converges)
        for _ in range(3):
            with pytest.raises(ConvergenceError):
                price_stock_option(p, None, st, spec, 3)
        assert len(calls) == len(set(calls)) == 2


def _lognormal_moments(cv, n=6):
    sig2 = math.log1p(cv ** 2)
    return [math.exp(0.5 * k * (k - 1) * sig2) for k in range(n + 1)]


def _atm_call(density):
    fwd = density.moments[1]
    return integrate_payoff(density, lambda x: np.maximum(x - fwd, 0.0), points=(fwd,))


class TestStartedFit:
    """A fit may start from an earlier density with at most as many moments."""

    @pytest.fixture(autouse=True)
    def cold_memo(self):
        _clear_memo()
        yield
        _clear_memo()

    @pytest.mark.parametrize("bump", [1e-5, -1e-5])
    @pytest.mark.parametrize("underlying", ["stock", "dividend"])
    def test_nearby_start_matches_the_cold_fit(self, underlying, bump):
        # a small step in (sigma, nu1), as between calibration trial points
        kw = dict(r=0.01, a=0.2, sigma=0.2813, b=0.0103, beta=-0.3439, nu=0.0194)
        st = reference_state()
        spec = OptionSpec("call", underlying, 1.0, 1.0, 0.01,
                          (0.0, 1.0) if underlying == "dividend" else None)

        def moments(scale):
            p = ModelParams.single_factor(**{**kw, "sigma": kw["sigma"] * scale,
                                             "nu": kw["nu"] * scale})
            raw = maxent._option_inputs(p, None, st, spec, 6)[0]
            return np.concatenate(([1.0], raw))

        start = fit_maxent(moments(1.0))
        m = moments(1.0 + bump)
        assert np.max(np.abs(m[1:] / start.moments[1:] - 1.0)) < 1e-4
        started, cold = fit_maxent(m, start=start), fit_maxent(m)
        assert started.iterations <= 10 < cold.iterations
        assert (started.newton_start, cold.newton_start) == ("given", "gaussian")
        assert started.residual <= maxent._VERIFY_TOL
        for k in range(7):
            got = integrate_payoff(started, lambda x, k=k: x ** k, points=(m[1],))
            assert got == pytest.approx(m[k], rel=1e-10)
        assert abs(_atm_call(started) - _atm_call(cold)) <= 1e-9 * m[1]

    def test_far_start_still_converges(self):
        # lognormal moments with ten times the variance
        m = _lognormal_moments(0.1)
        far = fit_maxent(_lognormal_moments(math.sqrt(10.0) * 0.1))
        started, cold = fit_maxent(m, start=far), fit_maxent(m)
        assert started.residual <= maxent._VERIFY_TOL
        assert abs(_atm_call(started) - _atm_call(cold)) <= 1e-9

    def test_failed_start_falls_back_to_the_cold_starts(self):
        # Newton from the unit exponential's coefficients stalls far from
        # these moments; the cold starts then give the cold fit exactly
        m = _lognormal_moments(0.1)
        started = fit_maxent(m, start=fit_maxent([math.factorial(k) for k in range(7)]))
        cold = fit_maxent(m)
        np.testing.assert_array_equal(started.lambdas, cold.lambdas)
        assert started.iterations == cold.iterations
        assert started.newton_start == cold.newton_start == "gaussian"

    @pytest.mark.parametrize("start", ["gamma", "count"])
    def test_malformed_start_rejected(self, start):
        # a start may have fewer moments than the fit, never more
        m = _lognormal_moments(0.1)
        fit = fit_maxent(m)
        bad = fit.gamma if start == "gamma" else fit
        with pytest.raises(InvalidParameterError, match="start must be"):
            fit_maxent(m if start == "gamma" else m[:6], start=bad)

    def test_cold_fit_is_unchanged(self):
        # recorded with power tables made by repeated multiplication (numpy
        # 2.4, this rule and tolerance; float ** tables gave multipliers within
        # 1.3e-11 relative of these, in as many iterations): lognormal moments
        # with sigma^2 = 0.04
        d = fit_maxent([math.exp(0.02 * k * (k - 1)) for k in range(7)])
        assert [v.hex() for v in d.lambdas] == [
            "0x1.85d158aa38e3ap+5", "-0x1.6df4eef7337b3p+7", "0x1.16fd62e82a913p+8",
            "-0x1.cdc29383d62a0p+7", "0x1.bcf77dd3be807p+6", "-0x1.ce74963070090p+4",
            "0x1.8f54e216dd81ap+1"]
        assert d.iterations == 79
        assert d.residual.hex() == "0x1.6e391247b7f15p-47"

    def test_price_passes_a_start_of_at_most_its_count(self, monkeypatch):
        p, st = reference_params(0.2), reference_state()
        spec = OptionSpec("call", "stock", 1.0, 0.25, p.r)
        raw = maxent._option_inputs(p, None, st, spec, 6)[0]
        near = fit_maxent(np.concatenate(([1.0], raw * (1.0 + 1e-7) ** np.arange(1, 7))))
        calls = []
        fit = maxent.fit_maxent

        def recorded(m, start=None):
            calls.append(start)
            return fit(m, start=start)

        monkeypatch.setattr(maxent, "fit_maxent", recorded)
        # a cold N = 6 fit starts from the cold fits of N = 2..5, each made once
        cold_price, cold = price_option(p, None, st, spec, 6)
        assert [None if s is None else s.moments.size for s in calls] == [None, 3, 4, 5, 6]
        # a started fit neither reads nor fills the memo
        price, density = price_option(p, None, st, spec, 6, start=near)
        assert calls[5:] == [near] and density is not cold
        assert density.newton_start == "given"
        assert maxent._cold_fit.cache_info().currsize == 5
        assert maxent._cold_fit(cold.moments.tobytes()) is cold
        assert abs(price - cold_price) <= 1e-9
        # a start with fewer moments seeds the N = 6 fit too, outside the memo
        fewer = fit_maxent(np.concatenate(([1.0], raw[:5])))
        price, density = price_option(p, None, st, spec, 6, start=fewer)
        assert calls[6:] == [fewer] and density is not cold
        assert density.newton_start == "prefix"
        assert maxent._cold_fit.cache_info().currsize == 5
        assert maxent._cold_fit(cold.moments.tobytes()) is cold
        assert abs(price - cold_price) <= 1e-9


class TestPriceOption:
    """One routine prices every maxent option: moments, fit, payoff integral."""

    @pytest.fixture(autouse=True)
    def cold_memo(self):
        _clear_memo()
        yield
        _clear_memo()

    @pytest.mark.parametrize("kind", ["call", "put"])
    @pytest.mark.parametrize("window", [None, (-0.5, 1.0), (0.5, 1.0)],
                             ids=["stock", "started_window", "window"])
    def test_is_the_composition_of_its_steps(self, kind, window):
        p, st = reference_params(0.2), State(c=0.01, x=1.0, y=[0.0371])
        spec = OptionSpec(kind, "stock" if window is None else "dividend",
                          1.0 if window is None else 0.03, 1.0, p.r, window)
        price, density = price_option(p, None, st, spec, 6)
        raw, strike, discount = maxent._option_inputs(p, None, st, spec, 6)
        assert strike == spec.strike - (st.c if window == (-0.5, 1.0) else 0.0)
        # the cold fit of N moments starts from the cold fit of its N - 1 prefix
        cold = None
        for n in range(2, 7):
            cold = fit_maxent(np.concatenate(([1.0], raw[:n])), start=cold)
        np.testing.assert_array_equal(density.lambdas, cold.lambdas)
        assert price == discount * integrate_payoff(cold, option_payoff(kind, strike),
                                                    points=(strike,))

    def test_ended_window_is_rejected(self):
        p, st = reference_params(0.2), reference_state()
        spec = OptionSpec("call", "dividend", 0.03, 1.0, p.r, (-1.0, -0.5))
        with pytest.raises(InvalidParameterError, match="has ended"):
            price_option(p, None, st, spec, 6)

    @pytest.mark.parametrize("kind,payoff", [("call", 0.0), ("put", 0.03)])
    def test_zero_length_window_prices_the_point_mass(self, kind, payoff):
        p, st = reference_params(0.2), reference_state()
        spec = OptionSpec(kind, "dividend", 0.03, 1.0, p.r, (1.0, 1.0))
        assert price_option(p, None, st, spec, 6) == (math.exp(-p.r) * payoff, None)


class TestPriceTangents:
    """Derivatives of a maxent price from the dual of its fit, without a refit."""

    @pytest.fixture(autouse=True)
    def cold_memo(self):
        _clear_memo()
        yield
        _clear_memo()

    @staticmethod
    def atm_spec(p, st, underlying, kind="call"):
        # the three-month stock call and the first-window dividend call, ATM
        if underlying == "stock":
            return OptionSpec(kind, "stock", 1.0, 0.25, p.r)
        return OptionSpec(kind, "dividend", dividend_futures(p, None, st, 0.0, 0.0, 1.0), 1.0,
                          p.r, (0.0, 1.0))

    @pytest.mark.parametrize("underlying,tol", [("stock", 1e-6), ("dividend", 1e-5)])
    def test_sigma_derivative_matches_refits(self, underlying, tol):
        # dC/dsigma = (dC/dM)(dM/dsigma) from the N = 6 fit, against central
        # differences of cold N = 6 fits at sigma -+ 1e-3, which agree with it
        # to 2.7e-8 (stock) and 9.5e-7 (dividend)
        p, st = reference_params(0.2), reference_state()
        spec = self.atm_spec(p, st, underlying)
        value, density = price_option(p, None, st, spec, 6)
        d_value, _ = maxent.price_tangents(p, None, st, spec, density)
        h = 1e-3
        up, down = (price_option(ModelParams.single_factor(
            r=p.r, a=p.a, sigma=p.sigma + s * h, b=p.b[0], beta=p.beta[0, 0], nu=p.nu[0]),
            None, st, spec, 6)[0] for s in (1, -1))
        assert d_value[2] == pytest.approx((up - down) / (2 * h), rel=tol)

    @pytest.mark.parametrize("kind", ["call", "put"])
    @pytest.mark.parametrize("underlying", ["stock", "dividend"])
    def test_strike_derivative_is_the_discounted_probability(self, underlying, kind):
        # the fit does not depend on the strike: central differences in K of its integral
        p, st = reference_params(0.2), reference_state()
        spec = self.atm_spec(p, st, underlying, kind)
        _, density = price_option(p, None, st, spec, 6)
        _, d_strike = maxent.price_tangents(p, None, st, spec, density)
        h = 1e-6 * spec.strike
        up, down = (math.exp(-spec.rate * spec.expiry) * integrate_payoff(
            density, option_payoff(kind, strike), points=(strike,))
            for strike in (spec.strike + h, spec.strike - h))
        assert d_strike == pytest.approx((up - down) / (2 * h), rel=1e-8)
        assert (d_strike < 0) == (kind == "call")
