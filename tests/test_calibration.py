import math
import os
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize

import polydiv.calibration as calibration
from polydiv import generator, maxent, moments
from polydiv.calibration import (
    CalibConfig,
    DividendIvQuote,
    FuturesQuote,
    MarketData,
    StockIvQuote,
    FREE_NAMES,
    calibrate,
    objective,
    pricing_errors,
)
from polydiv.cli import parse_market_csv
from polydiv.errors import (CalibrationError, DomainError, InadmissibleParamsError,
                            InvalidParameterError, MarketDataError, NumericError)
from polydiv.model import ModelParams, State
from polydiv.moments import dividend_futures

from conftest import REFERENCE_D0, REFERENCE_PARAMS, reference_params, reference_state

SPOT = 3216.17
SNAPSHOT_CSV = os.path.join(os.path.dirname(__file__), "..", "src", "polydiv", "data",
                            "sx5e_20151221.csv")


def synthetic_market(include_ivs=True, n_futures=10):
    """Quotes generated by the reference a=0.2 model itself."""
    p = reference_params(0.2)
    st = reference_state()
    futures = [
        FuturesQuote(id=f"DF{k}", t0=k - 1.0, t1=float(k),
                     quote=SPOT * dividend_futures(p, None, st, 0.0, k - 1.0, float(k)))
        for k in range(1, n_futures + 1)
    ]
    stock_iv = dividend_iv = None
    if include_ivs:
        probe = MarketData("2015-12-21", SPOT, futures,
                           StockIvQuote(0.2, 0.25), DividendIvQuote(0.05, "DF1"))
        rows = {r.kind: r.model for r in pricing_errors(p, REFERENCE_D0, probe, 6)}
        stock_iv = StockIvQuote(rows["stock_iv"], 0.25)
        dividend_iv = DividendIvQuote(rows["dividend_iv"], "DF1")
    return MarketData("2015-12-21", SPOT, futures, stock_iv, dividend_iv)


class TestMarketData:
    def test_duplicate_ids_rejected(self):
        q = FuturesQuote("DF1", 0.0, 1.0, 100.0)
        with pytest.raises(MarketDataError):
            MarketData("d", SPOT, [q, q])

    def test_empty_rejected(self):
        with pytest.raises(MarketDataError):
            MarketData("d", SPOT, [])

    def test_window_order_enforced(self):
        with pytest.raises(MarketDataError):
            FuturesQuote("DF1", 1.0, 0.5, 100.0)

    def test_iv_bounds(self):
        with pytest.raises(MarketDataError):
            StockIvQuote(iv=2.5, expiry=0.25)

    @pytest.mark.parametrize("expiry", [0.0, -0.25, math.nan])
    def test_stock_iv_expiry_must_be_positive(self, expiry):
        with pytest.raises(MarketDataError, match="expiry must be positive"):
            StockIvQuote(iv=0.2, expiry=expiry)

    @pytest.mark.parametrize("iv", [0.0, 2.0, math.nan])
    def test_dividend_iv_bounds(self, iv):
        with pytest.raises(MarketDataError, match=r"implied vol must be in \(0, 2\)"):
            DividendIvQuote(iv=iv, futures_id="DF1")

    def test_futures_by_an_unknown_id(self):
        market = MarketData("d", SPOT, [FuturesQuote("DF1", 0.0, 1.0, 100.0)])
        assert market.futures_by_id("DF1") is market.futures[0]
        with pytest.raises(MarketDataError, match="unknown futures id 'DF9'"):
            market.futures_by_id("DF9")

    def test_unknown_dividend_underlying(self):
        q = FuturesQuote("DF1", 0.0, 1.0, 100.0)
        with pytest.raises(MarketDataError):
            MarketData("d", SPOT, [q], dividend_iv=DividendIvQuote(0.05, "DF9"))


class TestPricingErrors:
    def test_self_consistency(self):
        market = synthetic_market()
        rows = pricing_errors(reference_params(0.2), REFERENCE_D0, market, 6)
        assert len(rows) == 12
        assert max(r.abs_error for r in rows) < 1e-8
        # option legs say how many moments their fit used; futures need none
        assert [(r.kind, r.moments_used) for r in rows if r.kind != "futures"] == \
            [("stock_iv", 6), ("dividend_iv", 6)]
        # and how the fit went; futures carry none of it
        for r in rows:
            fit = (r.moments_used, r.newton_iterations, r.newton_start, r.residual, r.nodes)
            if r.kind == "futures":
                assert fit == (None, None, None, None, None)
            else:
                assert 0 < r.newton_iterations <= 200
                assert r.newton_start == "prefix"
                assert 0.0 <= r.residual <= 1e-10
                assert r.nodes >= 800

    def test_b0_closed_form_market(self):
        p = ModelParams.single_factor(r=0.01, a=0.1, sigma=0.25, b=0.0, beta=-0.3, nu=0.01)
        st = State(0.0, 1.0, [0.04])
        futures = []
        for k in range(1, 6):
            t0, t1 = k - 1.0, float(k)
            closed = 0.04 * (math.exp(-0.3 * t1) - math.exp(-0.3 * t0)) / (-0.3)
            futures.append(FuturesQuote(f"DF{k}", t0, t1, SPOT * closed))
        market = MarketData("d", SPOT, futures)
        rows = pricing_errors(p, 0.04, market, 6)
        assert max(r.abs_error for r in rows) < 1e-9

    def test_futures_errors_invariant_to_volatility(self):
        market = synthetic_market(include_ivs=False)
        rows_a = pricing_errors(reference_params(0.2), REFERENCE_D0, market, 6)
        bumped = ModelParams.single_factor(r=0.01, a=0.2, sigma=0.9, b=0.0103,
                                           beta=-0.3439, nu=0.08)
        rows_b = pricing_errors(bumped, REFERENCE_D0, market, 6)
        for ra, rb in zip(rows_a, rows_b):
            assert ra.model == rb.model

    def test_december_snapshot_error_profile(self):
        # real quotes against the reference parameters: all errors within
        # 2.5 index points, both vols within 5e-3
        from conftest import MARKET_QUOTES, MARKET_IV_STOCK, MARKET_IV_DIVIDEND
        import datetime as dt
        val = dt.date(2015, 12, 21)
        expiries = [dt.date(2015, 12, 18), dt.date(2016, 12, 16), dt.date(2017, 12, 15),
                    dt.date(2018, 12, 21), dt.date(2019, 12, 20), dt.date(2020, 12, 18),
                    dt.date(2021, 12, 17), dt.date(2022, 12, 16), dt.date(2023, 12, 15),
                    dt.date(2024, 12, 20), dt.date(2025, 12, 19)]
        yf = [(e - val).days / 365.0 for e in expiries]
        futures = [FuturesQuote(f"DF{k}", yf[k - 1], yf[k], MARKET_QUOTES[f"DF{k}"])
                   for k in range(1, 11)]
        market = MarketData("2015-12-21", SPOT, futures,
                            StockIvQuote(MARKET_IV_STOCK, 0.25),
                            DividendIvQuote(MARKET_IV_DIVIDEND, "DF1"))
        rows = pricing_errors(reference_params(0.2), REFERENCE_D0, market, 6)
        fut_errors = [r.abs_error for r in rows if r.kind == "futures"]
        assert max(fut_errors) <= 2.5
        iv_errors = {r.kind: r.abs_error for r in rows if r.kind != "futures"}
        assert iv_errors["stock_iv"] <= 0.005
        assert iv_errors["dividend_iv"] <= 0.005

    def test_no_dividend_corner_has_finite_rows(self):
        # b = D0 = 0 is a corner of the admissible box: dividends are zero
        # almost surely, so the ATM dividend call, struck at a forward of 0,
        # is worth its intrinsic 0 and has vol 0 with a flat tangent row
        market = parse_market_csv(SNAPSHOT_CSV)
        params, d0 = calibration.params_from_vector([0.0, -0.3, 0.3, 0.02, 0.0], CalibConfig())
        densities = {}
        rows = pricing_errors(params, d0, market, 6, densities)
        assert all(math.isfinite(r.model) and math.isfinite(r.abs_error) for r in rows)
        div = rows[-1]
        assert (div.kind, div.model, div.abs_error) == ("dividend_iv", 0.0, div.market)
        assert (div.moments_used, div.newton_iterations, div.nodes) == (6, None, None)
        tangents = calibration._pricing_tangents(params, d0, market, rows, densities)
        assert tangents.shape == (12, 5) and np.all(np.isfinite(tangents))
        assert np.all(tangents[-1] == 0.0)

    def test_deterministic_model_prices_the_point_mass(self):
        # sigma = nu1 = 0: stock and dividends are deterministic, but their
        # variances come out of the moment algebra as rounding, about 1e-16
        market = parse_market_csv(SNAPSHOT_CSV)
        p = ModelParams.single_factor(**{**REFERENCE_PARAMS[0.2], "sigma": 0.0, "nu": 0.0})
        rows = pricing_errors(p, REFERENCE_D0, market, 6)
        assert len(rows) == 12
        assert all(math.isfinite(r.model) and math.isfinite(r.abs_error) for r in rows)
        assert [r.moments_used for r in rows if r.kind != "futures"] == [6, 6]
        assert all((r.newton_iterations, r.newton_start, r.residual, r.nodes, r.top_coefficient,
                    r.cut_log_pdf_ratio) == (None,) * 6 for r in rows)


@pytest.fixture(scope="module")
def snapshot_fit():
    """The default two-stage fit of the shipped snapshot, and its market."""
    market = parse_market_csv(SNAPSHOT_CSV)
    return market, calibrate(market, CalibConfig(two_stage=True))


class TestSnapshotFitPricing:
    @pytest.mark.parametrize("futures_only,checks,exponentials", [(False, 3, 13), (True, 1, 1)],
                             ids=["full_market", "futures_only"])
    def test_work_per_pricing(self, snapshot_fit, monkeypatch, futures_only, checks,
                              exponentials):
        # one admissibility check and one stacked exponential for the strip
        # and both forwards; each option adds a generator build (one check)
        # and six moment exponentials, on fresh memos
        market, res = snapshot_fit
        if futures_only:
            market = replace(market, stock_iv=None, dividend_iv=None)
        counts = {"checks": 0, "exponentials": 0}
        check, exponential = moments.require_admissible, moments.expm

        def counted_check(params):
            counts["checks"] += 1
            return check(params)

        def counted_expm(a):
            counts["exponentials"] += 1
            return exponential(a)

        for module in (moments, generator):
            monkeypatch.setattr(module, "require_admissible", counted_check)
        monkeypatch.setattr(moments, "expm", counted_expm)
        monkeypatch.setattr(moments, "_record", moments._Record(None))
        maxent._cold_fit.cache_clear()
        rows = pricing_errors(res.params, res.d0, market, 6)
        assert len(rows) == market.n_instruments
        assert counts == {"checks": checks, "exponentials": exponentials}

    def test_fit_fields_say_whether_the_stock_density_needs_the_cut(self, snapshot_fit):
        market, res = snapshot_fit
        spec = maxent.OptionSpec(kind="call", underlying="stock", strike=1.0,
                                 expiry=market.stock_iv.expiry, rate=res.params.r)
        state = State(0.0, 1.0, [res.d0])
        raw = maxent._option_inputs(res.params, None, state, spec, 6)[0]
        fits = {n: maxent.price_option(res.params, None, state, spec, n)[1] for n in (5, 6)}
        fields = {n: maxent.fit_fields(fits[n], n) for n in fits}
        # N = 6 decays past the cut; N = 5 rises toward it and exists only
        # because of it, with the pdf at the cut e^-13.8 of the pdf at M_1
        assert fields[6]["top_coefficient"] == pytest.approx(7.9e-5, rel=0.01)
        assert fields[5]["top_coefficient"] == pytest.approx(-1.5e-4, rel=0.01)
        assert fields[6]["cut_log_pdf_ratio"] < -1e5
        five = fits[5]
        assert fields[5]["cut_log_pdf_ratio"] == pytest.approx(
            math.log(five.pdf(five.scale) / five.pdf(raw[0])), rel=1e-9)
        row = next(r for r in res.instruments if r.kind == "stock_iv")
        assert (row.top_coefficient, row.cut_log_pdf_ratio) == (
            fields[6]["top_coefficient"], fields[6]["cut_log_pdf_ratio"])


class TestObjective:
    def test_zero_at_truth(self):
        market = synthetic_market()
        cfg = CalibConfig()
        val = objective([0.0103, -0.3439, 0.2813, 0.0194, REFERENCE_D0], market, cfg)
        assert val < 1e-10

    @pytest.mark.parametrize("coordinate,value,error", [
        (0, -0.02, InadmissibleParamsError),    # b < 0: the factor drift inequality
        (1, -0.2, InadmissibleParamsError),     # q < 0: the yield-cap drift inequality
        (2, -0.01, InvalidParameterError),      # sigma < 0
        (3, -0.01, InvalidParameterError),      # nu1 < 0
        (4, -0.01, DomainError),                # D0 < 0
        (4, 0.25, DomainError),                 # D0 > a
    ], ids=["b", "q", "sigma", "nu1", "d0_below", "d0_above"])
    def test_outside_the_box_raises_the_named_error(self, coordinate, value, error):
        vec = [0.011, -0.36, 0.27, 0.021, 0.038]
        vec[coordinate] = value
        with pytest.raises(error):
            objective(vec, synthetic_market(), CalibConfig())

    def test_sum_of_squares_of_the_fit_residuals(self, monkeypatch):
        # at random interior points, objective() is the sum of squares of the
        # residual vector the joint fit sees, and the reported objective
        market, cfg = synthetic_market(), CalibConfig()
        points = np.random.default_rng(5).uniform(
            [0.0, 1e-3, 0.15, 0.005, 0.02], [0.03, 0.1, 0.45, 0.04, 0.06], size=(5, 5))
        for z in points:
            seen = []

            def one_evaluation(fun, x0, **kwargs):
                seen.append(fun(z))
                return SimpleNamespace(x=z, nfev=1, njev=0, status=1, message="one call")

            monkeypatch.setattr(scipy.optimize, "least_squares", one_evaluation)
            res = calibrate(market, cfg)
            p = res.params
            value = objective([p.b[0], p.beta[0, 0], p.sigma, p.nu[0], res.d0], market, cfg)
            assert value == sum(r * r for r in seen[0]) == res.objective

    def test_instrument_order_invariance(self):
        market = synthetic_market()
        cfg = CalibConfig()
        shuffled = MarketData(market.valuation_date, market.spot,
                              tuple(reversed(market.futures)),
                              market.stock_iv, market.dividend_iv)
        x = [0.011, -0.35, 0.29, 0.02, 0.037]
        assert objective(x, market, cfg) == pytest.approx(objective(x, shuffled, cfg), rel=1e-14)

    def test_consistent_with_per_instrument_errors(self):
        # at an admissible point the objective is exactly the weighted sum of
        # squared instrument errors (zero penalty)
        market = synthetic_market()
        cfg = CalibConfig()
        vec = [0.011, -0.36, 0.27, 0.021, 0.038]
        p = ModelParams.single_factor(r=cfg.r, a=cfg.a, sigma=vec[2],
                                      b=vec[0], beta=vec[1], nu=vec[3])
        rows = pricing_errors(p, vec[4], market, cfg.n_moments)
        expect = sum(
            (1.0 if r.kind == "futures" else cfg.weight_iv) * r.abs_error ** 2
            for r in rows
        )
        assert objective(vec, market, cfg) == pytest.approx(expect, rel=1e-12)


class TestExactJacobian:
    """The Jacobian each stage hands ``least_squares`` against central
    differences of the cold residual (no started fits), at the snapshot fit
    and at random interior points of the box."""

    STAGES = {5: FREE_NAMES, 3: ("b", "q", "d0"), 2: ("sigma", "nu1")}
    KINDS = {5: ("futures", "stock_iv", "dividend_iv"), 3: ("futures",),
             2: ("stock_iv", "dividend_iv")}

    @staticmethod
    def exact(monkeypatch, market, config, point):
        """(coordinates, rows' kinds, Jacobian) of each stage at `point`, each
        from that stage's first, cold, residual call."""
        seen = []

        def at_point(fun, x0, jac, **kwargs):
            idx = [FREE_NAMES.index(n) for n in TestExactJacobian.STAGES[len(x0)]]
            v = point[idx].copy()
            fun(v)
            seen.append((idx, TestExactJacobian.KINDS[len(x0)], jac(v)))
            return SimpleNamespace(x=v, nfev=1, njev=1, status=1, message="one call")

        monkeypatch.setattr(scipy.optimize, "least_squares", at_point)
        calibrate(market, config)
        return seen

    @staticmethod
    def central(market, config, point, idx, kinds, rel=1e-3):
        def cold(z):
            params, d0 = calibration._params_from_free(z, config)
            rows = pricing_errors(params, d0, market, config.n_moments)
            return calibration._residuals([r for r in rows if r.kind in kinds], config)

        columns = []
        for i in idx:
            step = np.zeros(5)
            step[i] = rel * abs(point[i])
            columns.append((cold(point + step) - cold(point - step)) / (2 * step[i]))
        return np.array(columns).T

    def check(self, monkeypatch, market, config, points, shapes):
        for point in points:
            stages = self.exact(monkeypatch, market, config, point)
            assert [jac.shape for _, _, jac in stages] == shapes
            for idx, kinds, jac in stages:
                fd = self.central(market, config, point, idx, kinds)
                # every entry within 1e-3 of its row's largest derivative: the
                # differences scatter by up to 1.6e-4 of it, while a dropped
                # strike or factor-level term, or dbeta/db = 0, moves an entry
                # by 0.03 to 20 times it
                assert np.all(np.abs(jac - fd) <= 1e-3 * np.abs(fd).max(axis=1, keepdims=True))

    @pytest.mark.parametrize("two_stage", [False, True], ids=["joint", "two_stage"])
    def test_matches_central_differences(self, snapshot_fit, monkeypatch, two_stage):
        market, res = snapshot_fit
        config = CalibConfig(two_stage=two_stage)
        p = res.params
        fit = [p.b[0], p.r - p.a - p.b[0] / p.a - p.beta[0, 0], p.sigma, p.nu[0], res.d0]
        points = np.vstack((fit, np.random.default_rng(5).uniform(
            [0.002, 1e-3, 0.15, 0.005, 0.02], [0.03, 0.1, 0.45, 0.04, 0.06], size=(3, 5))))
        shapes = [(10, 3), (2, 2)] if two_stage else [(12, 5)]
        self.check(monkeypatch, market, config, points, shapes)

    @pytest.mark.parametrize("two_stage", [False, True], ids=["joint", "two_stage"])
    @pytest.mark.parametrize("variant", ["no_stock_iv", "no_dividend_iv", "dividend_iv_on_df3"])
    def test_one_vol_and_moved_vol_markets(self, monkeypatch, variant, two_stage):
        # each vol leg finds its forward by index into the strip and the stock
        # forward: drop either vol, or point the dividend vol at another window
        market = parse_market_csv(SNAPSHOT_CSV)
        market = {"no_stock_iv": replace(market, stock_iv=None),
                  "no_dividend_iv": replace(market, dividend_iv=None),
                  "dividend_iv_on_df3": replace(market, dividend_iv=replace(
                      market.dividend_iv, futures_id="DF3"))}[variant]
        vols = market.n_instruments - len(market.futures)
        shapes = [(10, 3), (vols, 2)] if two_stage else [(market.n_instruments, 5)]
        self.check(monkeypatch, market, CalibConfig(two_stage=two_stage),
                   [np.array([0.01, 0.02, 0.28, 0.02, 0.037])], shapes)


class TestCalibrate:
    def test_self_calibration_recovery(self):
        market = synthetic_market()
        cfg = CalibConfig(
            start_b=0.0103 * 1.2, start_beta=-0.3439 * 0.8,
            start_sigma=0.2813 * 1.2, start_nu=0.0194 * 0.8,
            start_d0=REFERENCE_D0 * 1.2, two_stage=True, max_evals=6000,
        )
        res = calibrate(market, cfg)
        assert abs(res.params.b[0] - 0.0103) / 0.0103 < 0.05
        assert abs(res.params.beta[0, 0] + 0.3439) / 0.3439 < 0.05
        assert res.max_abs_error < 1e-4
        assert res.admissibility.admissible
        assert not res.underdetermined

    def test_repricing_reproduces_stored_errors(self):
        market = synthetic_market()
        cfg = CalibConfig(two_stage=True, max_evals=1200)
        res = calibrate(market, cfg)
        rows = pricing_errors(res.params, res.d0, market, cfg.n_moments)
        for stored, fresh in zip(res.instruments, rows):
            assert stored.model == fresh.model
            assert stored.abs_error == fresh.abs_error
        p = res.params
        fitted = [p.b[0], p.beta[0, 0], p.sigma, p.nu[0], res.d0]
        assert res.objective == pytest.approx(objective(fitted, market, cfg), rel=1e-14)

    def test_single_quote_is_underdetermined(self):
        market = synthetic_market(include_ivs=False, n_futures=1)
        cfg = CalibConfig(max_evals=400)
        res = calibrate(market, cfg)
        assert res.underdetermined

    def test_determinism(self):
        market = synthetic_market(include_ivs=False, n_futures=4)
        cfg = CalibConfig(max_evals=600)
        r1 = calibrate(market, cfg)
        r2 = calibrate(market, cfg)
        assert r1.objective == r2.objective
        np.testing.assert_array_equal(r1.params.b, r2.params.b)

    def test_real_snapshot_beats_reference_objective(self):
        # fitting the December-2015 snapshot from the default start must land
        # within 1.5x of the objective at the published reference parameters
        from conftest import MARKET_QUOTES, MARKET_IV_STOCK, MARKET_IV_DIVIDEND
        import datetime as dt
        val = dt.date(2015, 12, 21)
        expiries = [dt.date(2015, 12, 18), dt.date(2016, 12, 16), dt.date(2017, 12, 15),
                    dt.date(2018, 12, 21), dt.date(2019, 12, 20), dt.date(2020, 12, 18),
                    dt.date(2021, 12, 17), dt.date(2022, 12, 16), dt.date(2023, 12, 15),
                    dt.date(2024, 12, 20), dt.date(2025, 12, 19)]
        yf = [(e - val).days / 365.0 for e in expiries]
        futures = [FuturesQuote(f"DF{k}", yf[k - 1], yf[k], MARKET_QUOTES[f"DF{k}"])
                   for k in range(1, 11)]
        market = MarketData("2015-12-21", SPOT, futures,
                            StockIvQuote(MARKET_IV_STOCK, 91 / 365),
                            DividendIvQuote(MARKET_IV_DIVIDEND, "DF1"))
        cfg = CalibConfig(two_stage=True, max_evals=4000)   # default start point
        result = calibrate(market, cfg)
        ref_obj = objective([0.0103, -0.3439, 0.2813, 0.0194, REFERENCE_D0], market, cfg)
        assert result.objective <= 1.5 * ref_obj
        assert result.admissibility.admissible
        fut_errors = [r.abs_error for r in result.instruments if r.kind == "futures"]
        assert max(fut_errors) <= 2.5

    @pytest.mark.parametrize("spot", [3000.0, 3100.0, 3200.0, SPOT, 3250.0, 3300.0, 3400.0])
    def test_recovers_strip_next_to_cap_boundary(self, spot):
        # futures generated 1e-9 inside the d = 1 cap inequality: the optimum
        # lies next to the boundary that the fit's box keeps off q = 0.  A
        # fit that also moved sigma and nu1, on which futures do not depend,
        # stopped on its step-size test at up to 2.3e-6 at some spots.
        r, a, b = 0.01, 0.2, 0.0103
        p = ModelParams.single_factor(r=r, a=a, sigma=0.2813, b=b,
                                      beta=r - a - b / a - 1e-9, nu=0.0194)
        st = State(0.0, 1.0, [REFERENCE_D0])
        futures = [FuturesQuote(f"DF{k}", k - 1.0, float(k),
                                spot * dividend_futures(p, None, st, 0.0, k - 1.0, float(k)))
                   for k in range(1, 11)]
        res = calibrate(MarketData("2015-12-21", spot, futures), CalibConfig(max_evals=600))
        assert res.objective <= 1e-12
        assert res.admissibility.admissible and 0.0 <= res.d0 <= a
        assert [rec["parameters"] for rec in res.trace["stages"]] == [["b", "q", "d0"]]
        assert res.underdetermined

    @pytest.mark.parametrize("two_stage", [False, True], ids=["joint", "two_stage"])
    def test_shipped_snapshot_converges(self, two_stage):
        market = parse_market_csv(SNAPSHOT_CSV)
        res = calibrate(market, CalibConfig(two_stage=two_stage))
        assert res.trace["converged"] is True
        assert res.objective <= 7.587
        assert res.admissibility.admissible

    def test_exhausted_budget_is_not_converged(self, monkeypatch):
        calls = []
        original = calibration.pricing_errors

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(calibration, "pricing_errors", counted)
        res = calibrate(synthetic_market(), CalibConfig(two_stage=True, max_evals=8))
        assert res.trace["converged"] is False
        assert res.trace["nfev"] <= 8
        # every fitting call is counted; calibrate then prices the fit once
        assert len(calls) == res.trace["nfev"] + 1

    def test_identical_calibrations_agree(self):
        # started fits chain only within one stage of one calibration
        market = parse_market_csv(SNAPSHOT_CSV)
        r1, r2 = (calibrate(market, CalibConfig(two_stage=True)) for _ in range(2))
        assert r1.objective == r2.objective
        strip = [{k: v for k, v in s.items() if k != "seconds"} for s in r1.trace["stages"]]
        assert strip == [{k: v for k, v in s.items() if k != "seconds"}
                         for s in r2.trace["stages"]]

    def test_stage_two_fits_start_from_the_last_density(self, monkeypatch):
        fits = []
        fit = maxent.fit_maxent

        def recorded(m, start=None, **kwargs):
            density = fit(m, start=start, **kwargs)
            fits.append((len(m) - 1, density.newton_start == "given", density.iterations))
            return density

        maxent._cold_fit.cache_clear()
        monkeypatch.setattr(maxent, "fit_maxent", recorded)
        res = calibrate(parse_market_csv(SNAPSHOT_CSV), CalibConfig(two_stage=True))
        stage2 = res.trace["stages"][1]
        # the first evaluation and the final pricing fit cold, two options
        # each, and a cold six-moment fit starts from the cold fits of 2..5
        cold = [(n, False) for n in range(2, 7)] * 2
        assert [(n, started) for n, started, _ in fits] == \
            cold + [(6, True)] * (stage2["maxent_fits"] - 2) + cold
        assert max(iters for _, started, iters in fits if started) <= 10
        assert stage2["newton_iterations"] == sum(iters for n, _, iters in fits[:-10] if n == 6)

    @pytest.mark.parametrize("two_stage,max_evals,minimum", [(False, 5, 6), (True, 7, 8)])
    def test_budget_below_one_jacobian_per_stage_rejected(self, two_stage, max_evals, minimum):
        with pytest.raises(InvalidParameterError, match=f"at least {minimum}"):
            CalibConfig(two_stage=two_stage, max_evals=max_evals)
        CalibConfig(two_stage=two_stage, max_evals=minimum)

    @pytest.mark.parametrize("a", [0.0, -0.2, math.nan])
    def test_non_positive_cap_rejected(self, a):
        with pytest.raises(InvalidParameterError, match="need a > 0"):
            CalibConfig(a=a)

    # a nan budget passes every `<` check, so no evaluation count exhausts it; a
    # fractional count fails only at the first pricing or not at all; and a nan
    # r reaches scipy's bounds check as its own ValueError
    @pytest.mark.parametrize("name,value", [
        (name, value) for name in ("r", "a", "start_b", "start_beta", "start_sigma", "start_nu",
                                   "start_d0")
        for value in (math.nan, math.inf, -math.inf)
        if name != "a" or value > 0])          # a nan or negative cap is not positive
    def test_non_finite_number_rejected(self, name, value):
        with pytest.raises(InvalidParameterError, match=f"need a finite {name}, got"):
            CalibConfig(**{name: value})

    @pytest.mark.parametrize("name", ["n_moments", "max_evals"])
    @pytest.mark.parametrize("value", [math.nan, 50.5, 6.0, True, "6"])
    def test_count_that_is_not_an_integer_rejected(self, name, value):
        with pytest.raises(InvalidParameterError, match=f"need an integer {name}, got"):
            CalibConfig(**{name: value})

    def test_integer_counts_and_a_default_d0_start_accepted(self):
        cfg = CalibConfig(n_moments=np.int64(4), max_evals=np.int64(100), start_d0=None)
        assert (cfg.n_moments, cfg.max_evals, cfg.start_d0) == (4, 100, None)
        assert CalibConfig(start_d0=0.05).start_d0 == 0.05

    def test_fewer_than_two_moments_rejected(self):
        with pytest.raises(InvalidParameterError, match="need n_moments >= 2, got 1"):
            CalibConfig(n_moments=1)

    def test_jacobian_away_from_the_last_priced_point_rejected(self, monkeypatch):
        # the exact Jacobian is made from the last residual call's fits: asked
        # anywhere else it would describe another point
        def jacobian_elsewhere(fun, x0, jac, **kwargs):
            fun(x0)
            jac(x0 * 1.01)

        monkeypatch.setattr(scipy.optimize, "least_squares", jacobian_elsewhere)
        with pytest.raises(CalibrationError, match="a Jacobian needs the fits of a priced point"):
            calibrate(synthetic_market(include_ivs=False, n_futures=2), CalibConfig(max_evals=200))

    @pytest.mark.parametrize("weight", [-1.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
    def test_non_finite_or_negative_iv_weight_rejected(self, weight):
        with pytest.raises(InvalidParameterError, match="finite weight_iv >= 0"):
            CalibConfig(weight_iv=weight)

    def test_stage_records(self):
        market = synthetic_market()
        res = calibrate(market, CalibConfig(two_stage=True, max_evals=400))
        stages = res.trace["stages"]
        assert [s["parameters"] for s in stages] == [["b", "q", "d0"], ["sigma", "nu1"]]
        assert stages[0]["residuals"] == [f.id for f in market.futures]
        assert stages[1]["residuals"] == ["IVSTOCK", "IVDIV"]
        for s in stages:
            assert sorted(s) == ["maxent_fits", "message", "method", "newton_iterations",
                                 "nfev", "njev", "parameters", "residuals", "seconds",
                                 "status", "unpriced"]
            assert s["unpriced"] == 0
            # a Jacobian at the start and after each accepted step, each made
            # from the residual call just before it
            assert 1 <= s["njev"] <= s["nfev"]
            assert s["method"] == "trf" and s["seconds"] > 0.0
        # futures need no maxent fit; every stage-2 evaluation fits both options
        assert (stages[0]["maxent_fits"], stages[0]["newton_iterations"]) == (0, 0)
        assert stages[1]["maxent_fits"] == 2 * stages[1]["nfev"]
        assert stages[1]["newton_iterations"] >= stages[1]["maxent_fits"]
        assert res.trace["nfev"] == sum(s["nfev"] for s in stages)
        assert res.trace["converged"] == all(s["status"] > 0 for s in stages)

    def test_unpriced_evaluations_are_counted(self, monkeypatch):
        # the second residual call fails to price: it gets the 1e6 misfit,
        # the fit goes on, and the stage record counts it
        calls = []
        original = calibration.pricing_errors

        def fails_once(*args):
            calls.append(1)
            if len(calls) == 2:
                raise NumericError("unpriceable trial point")
            return original(*args)

        monkeypatch.setattr(calibration, "pricing_errors", fails_once)
        market = synthetic_market(include_ivs=False, n_futures=4)
        res = calibrate(market, CalibConfig(max_evals=600))
        assert [s["unpriced"] for s in res.trace["stages"]] == [1]

    def test_unpriceable_first_evaluation_raises(self, monkeypatch):
        # with nothing priced yet there is no misfit to hand the optimizer:
        # the start's error ends the calibration, and nothing else is priced
        calls = []
        original = calibration.pricing_errors

        def fails_first(*args):
            calls.append(1)
            if len(calls) == 1:
                raise NumericError("unpriceable start")
            return original(*args)

        monkeypatch.setattr(calibration, "pricing_errors", fails_first)
        with pytest.raises(NumericError, match="unpriceable start"):
            calibrate(synthetic_market(include_ivs=False, n_futures=2), CalibConfig(max_evals=200))
        assert len(calls) == 1

    def test_no_futures_and_no_start_level_rejected(self):
        market = MarketData("2015-12-21", SPOT, (), StockIvQuote(0.2, 0.25))
        with pytest.raises(CalibrationError, match="without futures quotes"):
            calibrate(market, CalibConfig())
