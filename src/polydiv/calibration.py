"""Calibration of the single-factor model to a dividend-futures strip plus
ATM implied volatilities.

Free parameters are (b, beta, sigma, nu1, D0) with (r, a) fixed.  Futures
prices depend only on (b, beta, D0), the option legs add (sigma, nu1), so
the joint fit is well determined by a strip plus two vol quotes.  The fit
is a bounded nonlinear least-squares problem on the weighted residuals
sqrt(w) * (model - market), solved by scipy's trust-region reflective
method with exact Jacobians: every moment is a matrix exponential, which
one larger exponential differentiates (Van Loan), and an option price
follows its moments through the maxent dual of its fit, so a Jacobian
reuses the fits of the residual call at its point and prices nothing.
It runs in the coordinates
(b, q, sigma, nu1, D0), where q = r - a - b/a - beta is the slack of the
d = 1 cap inequality, so admissibility is the box b >= 0, q > 0,
sigma, nu1 >= 0, 0 <= D0 <= a and every trial point is admissible.
:func:`objective` is the reported score: the sum of squares of the same
residuals, defined on that box alone.
"""

import math
import numbers
import time
from dataclasses import dataclass, replace

import numpy as np

from .black import black76_derivatives, implied_vol
from .errors import (CalibrationError, DomainError, InvalidParameterError, MarketDataError,
                     PolydivError)
from .maxent import OptionSpec, fit_fields, price_option, price_tangents
from .model import ModelParams, State, validate_admissibility
from .moments import futures_strip
# price_* and *_futures are kept for perfbench's tracer, which wraps them here
from .maxent import price_dividend_option, price_stock_option  # noqa: F401
from .moments import dividend_futures, stock_futures  # noqa: F401

FREE_NAMES = ("b", "q", "sigma", "nu1", "d0")
# Floor of the cap slack q: at q = 0, validate_admissibility's r - a - beta
# - b/a rounds to about -1e-17 for some b and rejects the point.
Q_FLOOR = 1e-12


@dataclass(frozen=True)
class FuturesQuote:
    """One dividend-futures quote: accrual window in year fractions, price in index points."""

    id: str
    t0: float
    t1: float
    quote: float

    def __post_init__(self):
        if not self.t1 > self.t0:
            raise MarketDataError(f"{self.id}: window must be ordered, got ({self.t0}, {self.t1})")
        if not 0 < self.quote < math.inf:
            raise MarketDataError(f"{self.id}: quote must be positive and finite, got {self.quote}")


@dataclass(frozen=True)
class StockIvQuote:
    """ATM stock-option implied volatility and its expiry (years)."""

    iv: float
    expiry: float

    def __post_init__(self):
        if not (0.0 < self.iv < 2.0):
            raise MarketDataError(f"implied vol must be in (0, 2), got {self.iv}")
        if not self.expiry > 0:
            raise MarketDataError(f"expiry must be positive, got {self.expiry}")


@dataclass(frozen=True)
class DividendIvQuote:
    """ATM dividend-option implied volatility referencing one futures contract."""

    iv: float
    futures_id: str

    def __post_init__(self):
        if not (0.0 < self.iv < 2.0):
            raise MarketDataError(f"implied vol must be in (0, 2), got {self.iv}")


@dataclass(frozen=True)
class MarketData:
    """Quotes used for calibration, all windows/expiries in year fractions
    from the valuation date; prices in index points at spot level `spot`."""

    valuation_date: str
    spot: float
    futures: tuple
    stock_iv: StockIvQuote = None
    dividend_iv: DividendIvQuote = None

    def __post_init__(self):
        if not 0 < self.spot < math.inf:
            raise MarketDataError(f"spot must be positive and finite, got {self.spot}")
        object.__setattr__(self, "futures", tuple(self.futures))
        if not self.futures and self.stock_iv is None and self.dividend_iv is None:
            raise MarketDataError("market data is empty")
        ids = [f.id for f in self.futures]
        if len(set(ids)) != len(ids):
            raise MarketDataError("duplicate futures instrument ids")
        if self.dividend_iv is not None and self.dividend_iv.futures_id not in ids:
            raise MarketDataError(
                f"dividend IV references unknown futures id {self.dividend_iv.futures_id!r}"
            )

    def futures_by_id(self, fid):
        for f in self.futures:
            if f.id == fid:
                return f
        raise MarketDataError(f"unknown futures id {fid!r}")

    @property
    def n_instruments(self):
        return len(self.futures) + (self.stock_iv is not None) + (self.dividend_iv is not None)


@dataclass(frozen=True)
class CalibConfig:
    """Fixed parameters, starting point, weights, and optimizer budget."""

    r: float = 0.01
    a: float = 0.2
    start_b: float = 0.01
    start_beta: float = -0.3
    start_sigma: float = 0.3
    start_nu: float = 0.02
    start_d0: float = None          # default: DF1 quote / (spot * window length)
    weight_iv: float = 1e4
    n_moments: int = 6
    two_stage: bool = False
    max_evals: int = 4000           # residual calls, a Jacobian in n coordinates counted as n

    def __post_init__(self):
        if not self.a > 0:
            raise InvalidParameterError(f"need a > 0, got {self.a}")
        for name in ("r", "a", "start_b", "start_beta", "start_sigma", "start_nu", "start_d0"):
            value = getattr(self, name)
            if not (value is None and name == "start_d0" or math.isfinite(value)):
                raise InvalidParameterError(f"need a finite {name}, got {value!r}")
        for name in ("n_moments", "max_evals"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise InvalidParameterError(f"need an integer {name}, got {value!r}")
        if not 0 <= self.weight_iv < math.inf:
            raise InvalidParameterError(f"need a finite weight_iv >= 0, got {self.weight_iv}")
        if self.n_moments < 2:
            raise InvalidParameterError(f"need n_moments >= 2, got {self.n_moments}")
        # the start plus one Jacobian in every stage: 1 + 5 calls jointly, or
        # 1 + 3 for stage 1 in each half of the budget
        min_evals = 8 if self.two_stage else 6
        if self.max_evals < min_evals:
            raise InvalidParameterError(
                f"max_evals={self.max_evals} cannot pay for the start and one Jacobian "
                f"per stage; need at least {min_evals}"
            )


@dataclass(frozen=True)
class PricedInstrument:
    """Model value and absolute error for one calibration instrument."""

    id: str
    kind: str           # "futures", "stock_iv", "dividend_iv"
    market: float
    model: float
    abs_error: float
    # how an option leg's maxent fit was made (see maxent.fit_fields); None for futures
    moments_used: int | None = None
    newton_iterations: int | None = None
    newton_start: str | None = None
    residual: float | None = None
    nodes: int | None = None
    top_coefficient: float | None = None
    cut_log_pdf_ratio: float | None = None


@dataclass(frozen=True, eq=False)
class CalibResult:
    """Fitted parameters with per-instrument errors and optimizer trace."""

    params: ModelParams
    d0: float
    instruments: tuple
    objective: float
    trace: dict
    admissibility: object
    underdetermined: bool

    @property
    def max_abs_error(self):
        return max(row.abs_error for row in self.instruments)


def params_from_vector(vec, config):
    """Map (b, beta, sigma, nu1, D0) to model inputs; D0 outside [0, a] raises DomainError."""
    b, beta, sigma, nu, d0 = (float(v) for v in vec)
    if not 0.0 <= d0 <= config.a:
        raise DomainError(f"D0 must lie in [0, a] = [0, {config.a:g}], got {d0}")
    return ModelParams.single_factor(r=config.r, a=config.a, sigma=sigma, b=b, beta=beta, nu=nu), d0


def _forwards(params, state, market, tangents=False):
    """The strip's futures prices (per unit spot), then the stock forward if
    a stock vol is quoted, from one ``futures_strip`` call: values, or with
    ``tangents`` its rows of value and derivatives in (b, beta, D0)."""
    expiries = () if market.stock_iv is None else (market.stock_iv.expiry,)
    return np.concatenate(futures_strip(params, state, 0.0, [(f.t0, f.t1) for f in market.futures],
                                        expiries, tangents=tangents))


def _vol_legs(market, forwards, rate):
    """The ATM calls the vols quote, as (id, kind, quote, index of the
    call's forward in ``forwards``, OptionSpec).  The stock call is struck
    at spot 1, the dividend call at its futures price; at a futures price
    of 0 (b = D0 = 0: no dividends) its OptionSpec is None."""
    legs = []
    if market.stock_iv is not None:
        q = market.stock_iv
        legs.append(("IVSTOCK", "stock_iv", q.iv, len(market.futures),
                     OptionSpec(kind="call", underlying="stock", strike=1.0, expiry=q.expiry,
                                rate=rate)))
    if market.dividend_iv is not None:
        k = market.futures.index(market.futures_by_id(market.dividend_iv.futures_id))
        f = market.futures[k]
        legs.append(("IVDIV", "dividend_iv", market.dividend_iv.iv, k,
                     OptionSpec(kind="call", underlying="dividend", strike=float(forwards[k]),
                                expiry=f.t1, rate=rate, window=(f.t0, f.t1))
                     if forwards[k] > 0 else None))
    return legs


def pricing_errors(params, d0, market, n_moments, start=None):
    """Model prices and absolute errors for every instrument in the market.

    Futures legs are priced at the normalized spot X0 = 1 and scaled back to
    index points; each vol is the Black-76 vol of its ATM call on the
    model forward of its underlying.  ``start``, a dict
    {"stock" or "dividend": density}, seeds each option's maxent fit with
    the last density fitted on that underlying (by ``price_option``'s rule:
    every count tried that is at least the density's) and is updated after
    every option priced; without it the fits are cold.
    """
    state = State(c=0.0, x=1.0, y=[d0])
    forwards = _forwards(params, state, market)
    rows = [PricedInstrument(id=f.id, kind="futures", market=f.quote, model=model,
                             abs_error=abs(model - f.quote))
            for f, model in zip(market.futures, (market.spot * forwards).tolist())]
    for id, kind, quote, k, spec in _vol_legs(market, forwards, params.r):
        iv, density = 0.0, None     # no spec: a call on zero dividends, worth its intrinsic 0
        if spec is not None:
            value, density = price_option(params, None, state, spec, n_moments,
                                          None if start is None else start.get(spec.underlying))
            if start is not None and density is not None:
                start[spec.underlying] = density
            iv = implied_vol(value, float(forwards[k]), spec.strike, spec.expiry, params.r,
                             "black76")
        rows.append(PricedInstrument(id=id, kind=kind, market=quote, model=iv,
                                     abs_error=abs(iv - quote), **fit_fields(density, n_moments)))
    return tuple(rows)


def objective(param_vector, market, config):
    """Weighted sum of squared residuals at an admissible (b, beta, sigma, nu1, D0).

    Outside the box it raises the error naming the violation: a drift
    inequality, sigma or nu1 < 0, or D0 outside [0, a].
    """
    params, d0 = params_from_vector(param_vector, config)
    return _misfit(pricing_errors(params, d0, market, config.n_moments), config)


def _weights(rows, config):
    """sqrt(w) for each of `rows`: w = 1 for a futures price and
    ``config.weight_iv`` for an implied vol."""
    iv = math.sqrt(config.weight_iv)
    return np.array([1.0 if row.kind == "futures" else iv for row in rows])


def _residuals(rows, config):
    """The weighted residuals sqrt(w) * (model - market) of `rows`."""
    return _weights(rows, config) * np.array([row.model - row.market for row in rows])


def _pricing_tangents(params, d0, market, rows, densities):
    """Derivatives of the model values of `rows`, which ``pricing_errors``
    priced at (params, d0), in (b, beta, sigma, nu1, D0): one row each, in
    order.  ``densities`` holds the fit of each option's underlying made
    there; nothing is refitted.

    The futures and both forwards come from the strip's Van Loan tangents
    and do not move with sigma or nu1.  An option value comes from
    ``maxent.price_tangents``, and its implied vol from the Black-76 price
    at that vol: dIV = (dC - B_F dF - B_K dK) / vega.  The dividend option's
    strike is its futures price, so it moves too.  A vol at intrinsic (0)
    is flat.
    """
    state = State(c=0.0, x=1.0, y=[d0])
    forwards = _forwards(params, state, market, tangents=True)
    # their columns are (b, beta, D0)
    d_forwards = np.insert(forwards[:, 1:], [2, 2], 0.0, axis=1)
    out = list(market.spot * d_forwards[:len(market.futures)])
    for (_, _, _, k, spec), row in zip(_vol_legs(market, forwards[:, 0], params.r),
                                       rows[len(market.futures):]):
        if row.model == 0.0:
            out.append(np.zeros(5))
            continue
        d_value, value_strike = price_tangents(params, None, state, spec,
                                               densities[spec.underlying])
        black = black76_derivatives(forwards[k, 0], spec.strike, spec.expiry, row.model, spec.rate)
        d_strike = d_forwards[k] if spec.underlying == "dividend" else 0.0
        out.append((d_value - black.forward * d_forwards[k]
                    + (value_strike - black.strike) * d_strike) / black.vega)
    return np.array(out)


def _misfit(rows, config):
    return float(sum(r * r for r in _residuals(rows, config)))


def _vector_from_free(z, config):
    """(b, q, sigma, nu1, D0) -> (b, beta, sigma, nu1, D0), as beta = r - a - b/a - q."""
    b, q, sigma, nu, d0 = z
    return np.array([b, config.r - config.a - b / config.a - q, sigma, nu, d0])


def _params_from_free(z, config):
    return params_from_vector(_vector_from_free(z, config), config)


def _free_tangents(config):
    """d(b, beta, sigma, nu1, D0) / d(b, q, sigma, nu1, D0): dbeta/db = -1/a, dbeta/dq = -1."""
    chain = np.eye(5)
    chain[1, :2] = -1.0 / config.a, -1.0
    return chain


def _fit_stage(z, names, market, kinds, config, budget):
    """Fit the coordinates `names` of `z`, in place, to the `kinds` rows of
    `market`, and return the stage's trace record.

    The optimizer asks for the Jacobian only at the start and after an
    accepted step, each time right after the residual call at that point.
    It is exact (see ``_pricing_tangents``) and made from that call's fits,
    so it prices nothing; the budget still counts it as n calls for n
    coordinates, and allowing budget // (n + 1) residual calls keeps the
    total within `budget`.

    Every trial point lies next to one already priced, so each maxent fit
    starts from the stage's last density on its underlying; the first
    evaluation fits cold.  Each later point that cannot be priced gets
    residuals of 1e6, counted in ``unpriced``.
    """
    from scipy.optimize import least_squares  # here, to keep it off the import path

    started = time.perf_counter()
    idx = [FREE_NAMES.index(n) for n in names]
    lower, upper = np.array([[0.0, Q_FLOOR, 0.0, 0.0, 0.0], [np.inf] * 4 + [config.a]])[:, idx]
    start = {}
    iterations = []
    unpriced = 0
    priced = {}         # the last priced point: inputs, rows, the fitted ones and fits

    def residuals(v):
        nonlocal unpriced
        z[idx] = v
        params, d0 = _params_from_free(z, config)
        try:
            rows = pricing_errors(params, d0, market, config.n_moments, start)
        except PolydivError:
            if not priced:
                raise
            unpriced += 1
            return np.full(len(priced["fitted"]), 1e6)      # unpriceable: a large, finite misfit
        iterations.extend(row.newton_iterations for row in rows
                          if row.newton_iterations is not None)
        keep = [k for k, row in enumerate(rows) if row.kind in kinds]
        priced.update(x=v.copy(), params=params, d0=d0, rows=rows, keep=keep,
                      fitted=[rows[k] for k in keep], densities=dict(start))
        return _residuals(priced["fitted"], config)

    def jacobian(v):
        if not np.array_equal(v, priced["x"]):
            raise CalibrationError(f"a Jacobian needs the fits of a priced point; {v} was "
                                   f"not the last one priced, {priced['x']} was")
        tangents = _pricing_tangents(priced["params"], priced["d0"], market, priced["rows"],
                                     priced["densities"]) @ _free_tangents(config)
        return (_weights(priced["fitted"], config)[:, None]
                * tangents[np.ix_(priced["keep"], idx)])

    # no gradient test (gtol): it scales each gradient entry by the distance to
    # the bound the entry points at, so next to q = 0 it stops a fit that the
    # exact gradient still improves (futures quoted 1e-9 inside the cap
    # inequality stopped at objective 4e-12 after 24 calls, not 1e-17 after 31)
    sol = least_squares(
        residuals, np.clip(z[idx], lower, upper), jac=jacobian, bounds=(lower, upper),
        method="trf", gtol=None, max_nfev=budget // (len(idx) + 1),
    )
    z[idx] = sol.x
    return {"parameters": list(names), "residuals": [row.id for row in priced["fitted"]],
            "method": "trf", "nfev": int(sol.nfev), "njev": int(sol.njev),
            "status": int(sol.status), "message": str(sol.message),
            "maxent_fits": len(iterations), "newton_iterations": sum(iterations),
            "unpriced": unpriced, "seconds": time.perf_counter() - started}


def calibrate(market, config):
    """Fit (b, beta, sigma, nu1, D0) to the market by bounded least squares.

    Two-stage fits (b, beta, D0) to the futures, then (sigma, nu1) to the
    vols, on an even split of ``max_evals``.  A market of futures alone
    fits (b, beta, D0) alone, since futures prices do not depend on (sigma,
    nu1); a market of vols alone fits all five.  Deterministic given the
    config.
    ``trace["converged"]`` is true only when every stage stopped on a
    tolerance.  The fitted point is re-validated: an inadmissible one
    raises :class:`CalibrationError` carrying the optimizer trace.
    """
    d0_start = config.start_d0
    if d0_start is None:
        if not market.futures:
            raise CalibrationError("cannot derive a starting dividend level without futures quotes")
        f0 = market.futures[0]
        d0_start = f0.quote / (market.spot * (f0.t1 - f0.t0))
    x0 = [config.start_b, config.start_beta, config.start_sigma, config.start_nu, d0_start]
    z = _vector_from_free(x0, config)       # the map is its own inverse

    stages = [(FREE_NAMES, market, ("futures", "stock_iv", "dividend_iv"))]
    if len(market.futures) == market.n_instruments:
        # sigma and nu1 would be all-zero Jacobian columns that still enter
        # the optimizer's step-size (xtol) test and stop it early
        stages = [(("b", "q", "d0"), market, ("futures",))]
    elif config.two_stage and market.futures:
        # stage 2 prices only the futures window the dividend IV refers to
        iv = market.dividend_iv
        ref = (market.futures_by_id(iv.futures_id),) if iv is not None else ()
        stages = [
            (("b", "q", "d0"), replace(market, stock_iv=None, dividend_iv=None), ("futures",)),
            (("sigma", "nu1"), replace(market, futures=ref), ("stock_iv", "dividend_iv")),
        ]
    records = [_fit_stage(z, *stage, config, config.max_evals // len(stages)) for stage in stages]
    trace = {
        "nfev": sum(rec["nfev"] for rec in records),
        "converged": all(rec["status"] > 0 for rec in records),
        "message": " ".join(f"stage {k}: {rec['message']}" for k, rec in enumerate(records, 1)),
        "stages": records,
    }

    params, d0 = _params_from_free(z, config)
    report = validate_admissibility(params)
    if not report.admissible:
        raise CalibrationError(
            f"optimizer converged to an inadmissible point {dict(zip(FREE_NAMES, z.tolist()))} "
            f"(factor slack {report.factor_slack}, cap slack {report.cap_slack:.3g}); "
            f"trace: {trace}"
        )
    rows = pricing_errors(params, d0, market, config.n_moments)
    # a parameter that no stage fitted sits at its start value
    fitted = {name for rec in records for name in rec["parameters"]}
    return CalibResult(params=params, d0=float(d0), instruments=rows,
                       objective=_misfit(rows, config), trace=trace,
                       admissibility=report,
                       underdetermined=market.n_instruments < 5 or fitted != set(FREE_NAMES))
