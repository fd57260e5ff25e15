import math
import os
import subprocess
import sys

import numpy as np
import pytest

import polydiv
from polydiv.black import (VOL_CAP, black76_derivatives, black76_price, black_scholes_price,
                           implied_vol)
from polydiv.errors import DomainError, InvalidParameterError


def lognormal_quadrature_call(spot, strike, expiry, vol, rate, q=0.0, n=40000):
    """Independent oracle: integrate the call payoff against the lognormal
    density of the terminal price by plain quadrature in log space."""
    mean = math.log(spot) + (rate - q - 0.5 * vol * vol) * expiry
    sd = vol * math.sqrt(expiry)
    z = np.linspace(-10, 10, n)
    x = np.exp(mean + sd * z)
    pdf = np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
    payoff = np.maximum(x - strike, 0.0)
    return math.exp(-rate * expiry) * np.trapezoid(payoff * pdf, z)


class TestPrices:
    def test_atm_one_year(self):
        price = black_scholes_price(100, 100, 1.0, 0.2, 0.0)
        oracle = lognormal_quadrature_call(100, 100, 1.0, 0.2, 0.0)
        assert price == pytest.approx(oracle, rel=1e-7)
        assert price == pytest.approx(7.965567455405804, rel=1e-12)

    def test_random_points_against_quadrature(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = rng.uniform(50, 150)
            k = rng.uniform(50, 150)
            t = rng.uniform(0.1, 3.0)
            v = rng.uniform(0.05, 0.6)
            r = rng.uniform(-0.01, 0.05)
            assert black_scholes_price(s, k, t, v, r) == pytest.approx(
                lognormal_quadrature_call(s, k, t, v, r), rel=1e-6, abs=1e-9)

    def test_zero_vol_is_discounted_intrinsic(self):
        assert black_scholes_price(100, 90, 1.0, 0.0, 0.05) == pytest.approx(
            math.exp(-0.05) * (100 * math.exp(0.05) - 90))
        assert black76_price(80, 100, 1.0, 0.0, 0.05) == 0.0

    def test_atm_forward_call_put_parity(self):
        c = black76_price(50, 50, 1.0, 0.3, 0.02, "call")
        p = black76_price(50, 50, 1.0, 0.3, 0.02, "put")
        assert c == pytest.approx(p, rel=1e-14)

    def test_put_call_parity_bs(self):
        c = black_scholes_price(100, 110, 0.5, 0.25, 0.03, 0.01, "call")
        p = black_scholes_price(100, 110, 0.5, 0.25, 0.03, 0.01, "put")
        forward = 100 * math.exp((0.03 - 0.01) * 0.5)
        assert c - p == pytest.approx(math.exp(-0.03 * 0.5) * (forward - 110), rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidParameterError):
            black_scholes_price(-1, 100, 1, 0.2, 0.0)
        with pytest.raises(InvalidParameterError):
            black76_price(100, 100, 1, 0.2, 0.0, kind="straddle")


class TestImpliedVol:
    def test_round_trip(self):
        price = black_scholes_price(100, 105, 0.7, 0.2, 0.02)
        assert implied_vol(price, 100, 105, 0.7, 0.02) == pytest.approx(0.2, abs=1e-10)

    def test_round_trip_black76(self):
        price = black76_price(0.036, 0.036, 1.0, 0.0491, 0.01)
        iv = implied_vol(price, 0.036, 0.036, 1.0, 0.01, "black76")
        assert iv == pytest.approx(0.0491, abs=1e-10)

    def test_intrinsic_price_gives_zero_vol(self):
        intrinsic = math.exp(-0.02) * (100 * math.exp(0.02) - 80)
        assert implied_vol(intrinsic, 100, 80, 1.0, 0.02) == 0.0

    def test_out_of_bounds_rejected(self):
        with pytest.raises(DomainError):
            implied_vol(-0.5, 100, 100, 1.0, 0.0)
        with pytest.raises(DomainError):
            implied_vol(101.0, 100, 100, 1.0, 0.0)

    @pytest.mark.parametrize("vol", [0.2, 0.8, 3.0])
    def test_put_round_trip(self, vol):
        # above 0.5 the bracket is doubled until it holds the root
        price = black_scholes_price(100, 95, 0.5, vol, 0.02, kind="put")
        iv = implied_vol(price, 100, 95, 0.5, 0.02, kind="put")
        assert iv == pytest.approx(vol, rel=1e-10)

    def test_vol_above_cap_rejected(self):
        # short expiry keeps the price at 1.25 * VOL_CAP inside the no-arbitrage band
        price = black76_price(1.0, 1.0, 0.01, 1.25 * VOL_CAP, 0.0)
        assert price < 1.0
        with pytest.raises(DomainError, match="exceeds cap"):
            implied_vol(price, 1.0, 1.0, 0.01, 0.0, "black76")

    def test_market_quote_round_trip(self):
        # the December-2015 stock quote: IV 0.2295 at three months ATM
        premium = black_scholes_price(1.0, 1.0, 0.25, 0.2295, 0.01, 0.0369)
        iv = implied_vol(premium, 1.0, 1.0, 0.25, 0.01, dividend_yield=0.0369)
        assert iv == pytest.approx(0.2295, abs=1e-10)

    def test_dividend_yield_consistency_with_black76(self):
        # BS with carry-matched forward equals Black-76 on that forward
        fwd = 0.9933
        q = 0.01 - math.log(fwd) / 0.25
        p1 = black_scholes_price(1.0, 1.0, 0.25, 0.23, 0.01, q)
        p2 = black76_price(fwd, 1.0, 0.25, 0.23, 0.01)
        assert p1 == pytest.approx(p2, rel=1e-12)
        # exactly Black-76 on the forward the yield implies
        for kind in ("call", "put"):
            assert black_scholes_price(1.0, 1.0, 0.25, 0.23, 0.01, q, kind) == \
                black76_price(1.0 * math.exp((0.01 - q) * 0.25), 1.0, 0.25, 0.23, 0.01, kind)


class TestDerivatives:
    @pytest.mark.parametrize("kind", ["call", "put"])
    def test_against_central_differences(self, kind):
        rng = np.random.default_rng(4)
        for _ in range(20):
            args = dict(forward=rng.uniform(0.02, 2.0), expiry=rng.uniform(0.1, 3.0),
                        vol=rng.uniform(0.03, 0.6), rate=rng.uniform(-0.01, 0.05))
            args["strike"] = args["forward"] * math.exp(rng.uniform(-0.5, 0.5))
            got = black76_derivatives(kind=kind, **args)

            def central(name):
                h = 1e-5 * args[name]
                up, down = ({**args, name: args[name] + s * h} for s in (1, -1))
                return (black76_price(kind=kind, **up) - black76_price(kind=kind, **down)) / (2 * h)

            scale = args["forward"]       # every derivative is at most of this size
            assert got.forward == pytest.approx(central("forward"), abs=1e-8)
            assert got.strike == pytest.approx(central("strike"), abs=1e-8)
            assert got.vega == pytest.approx(central("vol"), abs=1e-8 * scale)

    def test_atm_forward_is_the_put_call_parity_split(self):
        # B_F(call) - B_F(put) = B_K(put) - B_K(call) = the discount
        call, put = (black76_derivatives(1.3, 1.3, 0.8, 0.25, 0.02, kind) for kind in
                     ("call", "put"))
        assert call.forward - put.forward == pytest.approx(math.exp(-0.016), rel=1e-14)
        assert put.strike - call.strike == pytest.approx(math.exp(-0.016), rel=1e-14)
        assert call.vega == put.vega

    def test_needs_a_positive_vol(self):
        with pytest.raises(InvalidParameterError):
            black76_derivatives(1.0, 1.0, 1.0, 0.0, 0.01)


_BLACK_ARGS = dict(forward=1.0, strike=1.0, expiry=1.0, vol=0.2, rate=0.01)
_IV_ARGS = dict(price=0.08, level=1.0, strike=1.0, expiry=1.0, rate=0.01)


class TestRejectedInputs:
    """Malformed input raises InvalidParameterError instead of a NaN, an
    infinity or a solver's own error."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", sorted(_BLACK_ARGS))
    @pytest.mark.parametrize("fn", [black76_price, black76_derivatives],
                             ids=["price", "derivatives"])
    def test_non_finite_black76_input(self, fn, name, value):
        with pytest.raises(InvalidParameterError, match="need finite inputs"):
            fn(**{**_BLACK_ARGS, name: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", sorted(_IV_ARGS) + ["dividend_yield"])
    def test_non_finite_implied_vol_input(self, name, value):
        assert implied_vol(**_IV_ARGS) > 0
        with pytest.raises(InvalidParameterError, match="need finite inputs"):
            implied_vol(**{**_IV_ARGS, name: value})

    @pytest.mark.parametrize("name", ["forward", "strike"])
    @pytest.mark.parametrize("fn", [black76_price, black76_derivatives],
                             ids=["price", "derivatives"])
    def test_non_positive_forward_or_strike(self, fn, name):
        with pytest.raises(InvalidParameterError, match="positive"):
            fn(**{**_BLACK_ARGS, name: 0.0})

    def test_non_positive_spot_strike(self):
        with pytest.raises(InvalidParameterError, match="spot and strike must be positive"):
            black_scholes_price(100, 0.0, 1, 0.2, 0.0)

    def test_unknown_kind(self):
        with pytest.raises(InvalidParameterError, match="unknown option kind 'straddle'"):
            black76_derivatives(**_BLACK_ARGS, kind="straddle")
        with pytest.raises(InvalidParameterError, match="unknown option kind 'straddle'"):
            implied_vol(**_IV_ARGS, kind="straddle")

    def test_unknown_convention(self):
        with pytest.raises(InvalidParameterError, match="unknown convention 'bachelier'"):
            implied_vol(**_IV_ARGS, convention="bachelier")


def _loaded_by_cli_import(*modules):
    """The given modules that a fresh ``import polydiv.cli`` puts in sys.modules."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(polydiv.__file__)))
    code = f"import sys, polydiv.cli; print([m for m in {modules!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    return out.stdout.strip()


def test_cli_import_leaves_out_scipy_stats():
    # the normal CDF comes from scipy.special; scipy.stats costs about 0.4 s
    # of every command-line start
    assert _loaded_by_cli_import("scipy.stats") == "[]"


def test_cli_import_leaves_out_the_lazy_imports():
    # calibration imports scipy.optimize, and the simulator multiprocessing,
    # only when they run: commands that do not need them start faster
    assert _loaded_by_cli_import("scipy.optimize", "multiprocessing") == "[]"
