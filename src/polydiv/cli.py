"""Command-line interface: config/market ingestion, pricing, simulation,
calibration, and report emission.

Commands
--------
validate        admissibility report for a model config; exit 0 iff admissible
price futures   dividend-futures strip and stock futures term structure
price option    maxent option price with a moment-count sweep, optional MC check
moments         conditional moment dump for a horizon
simulate        Euler Monte-Carlo summaries, yield-path CSV, martingale check
calibrate       fit (b, beta, sigma, nu1, D0) to a market CSV

Reports are JSON on stdout; ``--out DIR`` additionally writes the report
and CSV plot data.  Exit codes: 0 success, 2 validation failure, 3 data
error, 4 numeric failure.
"""

import argparse
import datetime as dt
import json
import math
import os
import sys
import time
from dataclasses import asdict, is_dataclass

import numpy as np
import scipy

from . import __version__, _blas, model
from .calibration import (
    CalibConfig,
    DividendIvQuote,
    FuturesQuote,
    MarketData,
    StockIvQuote,
    calibrate,
)
from .errors import (
    CalibrationError,
    ConfigError,
    ConvergenceError,
    DomainError,
    InadmissibleParamsError,
    InfeasibleMomentsError,
    InvalidParameterError,
    MarketDataError,
    NumericError,
    PolydivError,
)
from .maxent import OptionSpec, fit_fields, option_payoff, price_option
from .mc import SimConfig, martingale_diagnostic, mc_price, simulate_paths, yield_path_stats
from .model import JumpSpec, ModelParams, PointMass, State, TwoPoint, validate_admissibility
from .moments import conditional_moments, dividend_futures, futures_strip, stock_futures

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_CONFIG_KEYS = {"r", "a", "sigma", "d", "b", "beta", "nu", "lambda", "jump_dist", "x0", "y0", "c0"}
_CSV_HEADER = ["instrument", "type", "window_start", "window_end", "expiry", "quote"]
DAY_COUNT = 365.0


def _fmt(v):
    return f"{float(v):.17g}"


def parse_model_config(path, require_admissible=True):
    """Read a model config JSON into (params, jump, state).

    The schema is strict: exactly the keys r, a, sigma, d, b, beta, nu,
    lambda, jump_dist, x0, y0, c0.  Inadmissible parameters are rejected
    with a diagnostic naming the violated drift inequality unless
    ``require_admissible`` is false (used by the validate command, which
    reports instead of rejecting).
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")

    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = _CONFIG_KEYS - set(raw)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")

    try:
        params = ModelParams(
            r=float(raw["r"]), a=float(raw["a"]), sigma=float(raw["sigma"]),
            d=raw["d"], b=raw["b"], beta=raw["beta"], nu=raw["nu"],
        )
    except (TypeError, ValueError, InvalidParameterError) as exc:
        raise ConfigError(f"invalid model parameters: {exc}")

    jd = raw["jump_dist"]
    try:
        if jd is None:
            dist = None
        elif jd.get("type") == "point_mass":
            dist = PointMass(z0=float(jd["z0"]))
        elif jd.get("type") == "two_point":
            dist = TwoPoint(z1=float(jd["z1"]), p=float(jd["p"]), z2=float(jd["z2"]))
        else:
            raise ConfigError(f"unknown jump_dist type: {jd!r}")
        jump = JumpSpec(lam=float(raw["lambda"]), dist=dist)
    except (TypeError, KeyError, AttributeError) as exc:
        raise ConfigError(f"invalid jump_dist: {exc}")
    except InvalidParameterError as exc:
        raise ConfigError(f"invalid jump specification: {exc}")

    try:
        state = State(c=float(raw["c0"]), x=float(raw["x0"]), y=raw["y0"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid initial state: {exc}")
    if state.y.shape != (params.d,):
        raise ConfigError(f"y0 must have length d={params.d}, got {state.y.shape}")

    if require_admissible:
        model.require_admissible(params)
    return params, jump, state, raw


def _year_fraction(valuation, date_str, row_no):
    try:
        d = dt.date.fromisoformat(date_str)
    except ValueError:
        raise MarketDataError(f"row {row_no}: bad ISO date {date_str!r}")
    return (d - valuation).days / DAY_COUNT


def parse_market_csv(path, spot=None, valuation_date=None):
    """Read a market CSV (plus sibling meta JSON) into a MarketData object.

    Expected header: instrument,type,window_start,window_end,expiry,quote.
    Spot and valuation date come from a sibling ``<name>.json`` file unless
    given explicitly.
    """
    try:
        with open(path) as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except FileNotFoundError:
        raise MarketDataError(f"market file not found: {path}")
    lines = [ln for ln in lines if ln.strip()]
    if not lines:
        raise MarketDataError(f"market file is empty: {path}")
    header = [h.strip() for h in lines[0].split(",")]
    if header != _CSV_HEADER:
        raise MarketDataError(f"bad header: expected {','.join(_CSV_HEADER)}, got {lines[0]!r}")

    meta_path = os.path.splitext(path)[0] + ".json"
    if (spot is None or valuation_date is None) and os.path.exists(meta_path):
        try:
            with open(meta_path) as fh:
                meta = json.load(fh)
        except ValueError as exc:             # JSONDecodeError or UnicodeDecodeError
            raise MarketDataError(f"{meta_path} is not valid JSON: {exc}")
        if not isinstance(meta, dict):
            raise MarketDataError(f"{meta_path} must hold a JSON object")
        spot = meta.get("spot") if spot is None else spot
        valuation_date = meta.get("valuation_date") if valuation_date is None else valuation_date
    if spot is None or valuation_date is None:
        raise MarketDataError(
            "spot and valuation_date are required (sibling JSON or --spot/--valuation-date flags)"
        )
    try:
        valuation = dt.date.fromisoformat(str(valuation_date))
    except ValueError:
        raise MarketDataError(f"bad valuation date {valuation_date!r}")
    try:
        spot = float(spot)
    except (TypeError, ValueError):
        raise MarketDataError(f"spot must be a number, got {spot!r}")

    futures, stock_iv, div_iv_row = [], None, None
    seen = set()
    for row_no, line in enumerate(lines[1:], start=2):
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(_CSV_HEADER):
            raise MarketDataError(f"row {row_no}: expected {len(_CSV_HEADER)} cells, got {len(cells)}")
        inst, kind, wstart, wend, expiry, quote = cells
        if inst in seen:
            raise MarketDataError(f"row {row_no}: duplicate instrument id {inst!r}")
        seen.add(inst)
        try:
            quote = float(quote)
        except ValueError:
            raise MarketDataError(f"row {row_no}: bad quote {cells[5]!r}")
        if kind == "dividend_future":
            t0 = _year_fraction(valuation, wstart, row_no)
            t1 = _year_fraction(valuation, wend, row_no)
            if t1 <= t0:
                raise MarketDataError(f"row {row_no}: window not ordered ({wstart} >= {wend})")
            futures.append(FuturesQuote(id=inst, t0=t0, t1=t1, quote=quote))
        elif kind == "stock_iv":
            if stock_iv is not None:
                raise MarketDataError(f"row {row_no}: second stock_iv row; only one is allowed")
            stock_iv = StockIvQuote(iv=quote, expiry=_year_fraction(valuation, expiry, row_no))
        elif kind == "dividend_iv":
            if div_iv_row is not None:
                raise MarketDataError(f"row {row_no}: second dividend_iv row; only one is allowed")
            t0 = _year_fraction(valuation, wstart, row_no)
            t1 = _year_fraction(valuation, wend, row_no)
            div_iv_row = (quote, t0, t1, row_no)
        else:
            raise MarketDataError(f"row {row_no}: unknown instrument type {kind!r}")

    dividend_iv = None
    if div_iv_row is not None:
        quote, t0, t1, row_no = div_iv_row
        match = [f for f in futures if abs(f.t0 - t0) < 1e-12 and abs(f.t1 - t1) < 1e-12]
        if not match:
            raise MarketDataError(f"row {row_no}: dividend IV window matches no futures quote")
        dividend_iv = DividendIvQuote(iv=quote, futures_id=match[0].id)
    return MarketData(
        valuation_date=str(valuation_date), spot=spot,
        futures=tuple(futures), stock_iv=stock_iv, dividend_iv=dividend_iv,
    )


def _jsonify(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        return _jsonify(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def _report(command, config_echo, payload, seed=None, started=None):
    meta = {
        "versions": {"polydiv": __version__, "numpy": np.__version__, "scipy": scipy.__version__},
        "blas_single_thread": _blas.libraries(),
        "seed": seed,
        "elapsed_s": round(time.perf_counter() - started, 6) if started is not None else None,
    }
    return {"command": command, "config": _jsonify(config_echo), "payload": _jsonify(payload),
            "meta": meta}


def _csv_cell(v):
    if v is None:
        return ""
    return _fmt(v) if isinstance(v, (int, float, np.floating)) else str(v)


def _emit(report, out_dir, csv_files=()):
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            fh.write(text + "\n")
        for name, header, rows in csv_files:
            with open(os.path.join(out_dir, name), "w") as fh:
                fh.write(",".join(header) + "\n")
                for row in rows:
                    fh.write(",".join(_csv_cell(v) for v in row) + "\n")


def _cmd_validate(args):
    params, jump, state, echo = parse_model_config(args.config, require_admissible=False)
    report = validate_admissibility(params)
    _emit(_report("validate", echo, asdict(report), started=args._t0), args.out)
    return EXIT_OK if report.admissible else EXIT_VALIDATION


def _cmd_price_futures(args):
    params, jump, state, echo = parse_model_config(args.config)
    if args.market:
        market = parse_market_csv(args.market, spot=args.spot, valuation_date=args.valuation_date)
        windows = [(f.id, f.t0, f.t1, f.quote) for f in market.futures]
        scale = market.spot
    else:
        windows = [(f"W{k}", k - 1.0, float(k), None) for k in range(1, 11)]
        scale = 1.0
    strip, stock = futures_strip(params, state, 0.0, [(t0, t1) for _, t0, t1, _ in windows],
                                 [max(t1, 0.0) for _, _, t1, _ in windows])
    rows = []
    for (wid, t0, t1, quote), px, sf in zip(windows, scale * strip, scale * stock):
        row = {"id": wid, "window_start": t0, "window_end": t1,
               "dividend_futures": float(px), "stock_futures": float(sf)}
        if quote is not None:
            row["quote"] = quote
            row["abs_error"] = abs(float(px) - quote)
        rows.append(row)
    csv_rows = [
        (r["id"], r["window_start"], r["window_end"], r["dividend_futures"], r["stock_futures"])
        for r in rows
    ]
    _emit(
        _report("price futures", echo, {"spot_scale": scale, "term_structure": rows},
                started=args._t0),
        args.out,
        [("futures_term_structure.csv",
          ["id", "window_start", "window_end", "dividend_futures", "stock_futures"], csv_rows)],
    )
    return EXIT_OK


def _cmd_price_option(args):
    params, jump, state, echo = parse_model_config(args.config)
    n_top = args.moments
    if args.underlying == "stock":
        if args.window is not None:
            raise InvalidParameterError("--window applies to a dividend option only")
        expiry = args.expiry if args.expiry is not None else 0.25
        strike = args.strike if args.strike is not None else state.x
        spec = OptionSpec(kind=args.kind, underlying="stock", strike=strike,
                          expiry=expiry, rate=params.r)
        forward = stock_futures(params, jump, state, 0.0, expiry)
    else:
        if args.window is None:
            raise ConfigError("dividend option requires --window T0 T1")
        t0, t1 = args.window
        forward = dividend_futures(params, jump, state, 0.0, t0, t1)
        strike = args.strike if args.strike is not None else forward
        expiry = args.expiry if args.expiry is not None else t1
        spec = OptionSpec(kind=args.kind, underlying="dividend", strike=strike,
                          expiry=expiry, rate=params.r, window=(t0, t1))

    sweep = []
    # from a count below two, price_option rejects the first count
    for n in range(min(n_top, 2), n_top + 1):
        price, density = price_option(params, jump, state, spec, n)
        sweep.append({"n_moments": n, **fit_fields(density, n), "price": price})
    price = sweep[-1]["price"]
    payload = {
        "spec": {"kind": spec.kind, "underlying": spec.underlying, "strike": spec.strike,
                 "expiry": spec.expiry, "rate": spec.rate, "window": spec.window},
        "forward": forward,
        "price": price,
        "moment_sweep": sweep,
    }
    columns = list(sweep[0])
    csv_rows = [[row[c] for c in columns] for row in sweep]
    if args.mc:
        window = spec.window
        cfg = SimConfig(
            n_paths=args.paths, horizon=window[1] if window else spec.expiry,
            steps_per_year=args.steps_per_year, seed=args.seed, windows=(window,) if window else (),
        )
        bundle = simulate_paths(params, jump, state, cfg)
        est = mc_price(bundle, option_payoff(spec.kind, spec.strike),
                       math.exp(-params.r * spec.expiry), control="degree-one",
                       underlying=window or "stock")
        payload["mc"] = {
            "value": est.value, "std_error": est.std_error,
            "ci_low": est.ci_low, "ci_high": est.ci_high,
            "n_paths": est.n_paths, "control": est.control,
        }
        columns += ["mc_value", "mc_ci_low", "mc_ci_high"]
        csv_rows = [row + [est.value, est.ci_low, est.ci_high] for row in csv_rows]
    _emit(_report("price option", echo, payload, seed=args.seed if args.mc else None,
                  started=args._t0), args.out, [("moment_sweep.csv", columns, csv_rows)])
    return EXIT_OK


def _cmd_moments(args):
    params, jump, state, echo = parse_model_config(args.config)
    ms = conditional_moments(params, jump, state, args.t, args.T, args.n)
    rows = [
        {"i": mi.i, "j": mi.j, "alpha": list(mi.alpha), "value": float(v)}
        for mi, v in zip(ms.basis.members, ms.values)
    ]
    _emit(_report("moments", echo, {"t": args.t, "T": args.T, "n": args.n, "moments": rows},
                  started=args._t0), args.out)
    return EXIT_OK


def _cmd_simulate(args):
    params, jump, state, echo = parse_model_config(args.config)
    windows = tuple((t0, t1) for t0, t1 in (args.window or []))
    cfg = SimConfig(
        n_paths=args.paths, horizon=args.horizon, steps_per_year=args.steps_per_year,
        seed=args.seed, store_policy="full" if args.store_yields else "terminal",
        windows=windows,
    )
    bundle = simulate_paths(params, jump, state, cfg)
    mart = martingale_diagnostic(bundle)
    payload = {
        "n_paths": cfg.n_paths,
        "horizon": bundle.horizon,
        "steps_per_year": cfg.steps_per_year,
        "rng": bundle.rng_algorithm,
        "projection_count": bundle.projection_count,
        "terminal_stock": {
            "mean": float(bundle.terminal_x.mean()),
            "std": float(bundle.terminal_x.std(ddof=1)) if cfg.n_paths > 1 else 0.0,
        },
        "window_dividends": {
            f"{w[0]:g}..{w[1]:g}": float(v.mean()) for w, v in bundle.window_sums.items()
        },
        "martingale": {
            "estimate": mart.value, "std_error": mart.std_error,
            "ci_low": mart.ci_low, "ci_high": mart.ci_high,
            "reference": state.x,
            "contains_reference": bool(mart.ci_low <= state.x <= mart.ci_high),
        },
        "jumps_total": int(bundle.jump_counts.sum()),
    }
    csv_files = []
    if args.store_yields:
        stats = yield_path_stats(bundle)
        payload["yield_stats"] = {
            "min": stats.minimum, "max": stats.maximum,
            "quantiles": {f"{q:g}": v for q, v in stats.quantiles.items()},
        }
        times = np.arange(bundle.yield_paths.shape[1]) * bundle.dt
        header = ["time"] + [f"path_{k}" for k in range(bundle.yield_paths.shape[0])]
        rows = [
            tuple([times[i]] + [bundle.yield_paths[k, i] for k in range(bundle.yield_paths.shape[0])])
            for i in range(times.size)
        ]
        csv_files.append(("yield_paths.csv", header, rows))
    _emit(_report("simulate", echo, payload, seed=cfg.seed, started=args._t0), args.out, csv_files)
    return EXIT_OK


def _cmd_calibrate(args):
    params, jump, state, echo = parse_model_config(args.config)
    market = parse_market_csv(args.market, spot=args.spot, valuation_date=args.valuation_date)
    cfg = CalibConfig(
        r=params.r, a=params.a,
        start_b=float(params.b[0]), start_beta=float(params.beta[0, 0]),
        start_sigma=params.sigma, start_nu=float(params.nu[0]),
        start_d0=float(state.y.sum() / state.x) if state.y.sum() > 0 else None,
        n_moments=args.moments, two_stage=args.two_stage,
        max_evals=args.max_evals, weight_iv=args.weight_iv,
    )
    result = calibrate(market, cfg)
    rows = [asdict(r) for r in result.instruments]
    payload = {
        "fitted": {
            "a": cfg.a, "r": cfg.r,
            "b": float(result.params.b[0]), "beta": float(result.params.beta[0, 0]),
            "sigma": result.params.sigma, "nu": float(result.params.nu[0]),
            "d0": result.d0,
        },
        "instruments": rows,
        "objective": result.objective,
        "trace": result.trace,
        "underdetermined": result.underdetermined,
        "max_abs_error": result.max_abs_error,
    }
    lines = [
        f"{'instrument':<10} {'market':>12} {'model':>14} {'abs error':>12}"
    ]
    for r in result.instruments:
        lines.append(f"{r.id:<10} {r.market:>12.6g} {r.model:>14.8g} {r.abs_error:>12.4g}")
    lines.append("")
    lines.append(f"{'a':>6} {'b':>10} {'beta':>10} {'sigma':>9} {'nu1':>9} {'D0':>9}")
    f = payload["fitted"]
    lines.append(
        f"{f['a']:>6.3g} {f['b']:>10.4f} {f['beta']:>10.4f} {f['sigma']:>9.4f} "
        f"{f['nu']:>9.4f} {f['d0']:>9.4f}"
    )
    table_text = "\n".join(lines)
    _emit(_report("calibrate", echo, payload, started=args._t0), args.out)
    if args.out:
        with open(os.path.join(args.out, "calibration_table.txt"), "w") as fh:
            fh.write(table_text + "\n")
    else:
        print(table_text, file=sys.stderr)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="polydiv",
        description="Stock and dividend derivative pricing in a polynomial diffusion model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, market=False):
        p.add_argument("--config", required=True, help="model config JSON")
        p.add_argument("--out", default=None, help="directory for report/CSV output")
        if market:
            p.add_argument("--market", help="market data CSV")
            p.add_argument("--spot", type=float, default=None)
            p.add_argument("--valuation-date", default=None)

    p_val = sub.add_parser("validate", help="admissibility report")
    common(p_val)

    p_price = sub.add_parser("price", help="price futures or options")
    price_sub = p_price.add_subparsers(dest="target", required=True)

    p_fut = price_sub.add_parser("futures", help="dividend futures strip and stock futures")
    common(p_fut, market=True)

    p_opt = price_sub.add_parser("option", help="maxent option price")
    common(p_opt)
    p_opt.add_argument("--underlying", choices=["stock", "dividend"], default="stock")
    p_opt.add_argument("--kind", choices=["call", "put"], default="call")
    p_opt.add_argument("--strike", type=float, default=None, help="default: ATM")
    p_opt.add_argument("--expiry", type=float, default=None)
    p_opt.add_argument("--window", type=float, nargs=2, default=None, metavar=("T0", "T1"))
    p_opt.add_argument("--moments", type=int, default=6)
    p_opt.add_argument("--mc", action="store_true", help="cross-check with Monte-Carlo CI")
    p_opt.add_argument("--paths", type=int, default=100_000)
    p_opt.add_argument("--steps-per-year", type=int, default=252)
    p_opt.add_argument("--seed", type=int, default=0)

    p_mom = sub.add_parser("moments", help="conditional moment dump")
    common(p_mom)
    p_mom.add_argument("--t", type=float, default=0.0)
    p_mom.add_argument("--T", type=float, required=True)
    p_mom.add_argument("--n", type=int, default=2)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo path summaries")
    common(p_sim)
    p_sim.add_argument("--horizon", type=float, default=1.0)
    p_sim.add_argument("--paths", type=int, default=10_000)
    p_sim.add_argument("--steps-per-year", type=int, default=252)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--store-yields", action="store_true")
    p_sim.add_argument("--window", type=float, nargs=2, action="append",
                       metavar=("T0", "T1"), help="dividend accrual window (repeatable)")

    p_cal = sub.add_parser("calibrate", help="fit the single-factor model to market data")
    common(p_cal, market=True)
    p_cal.add_argument("--moments", type=int, default=6)
    p_cal.add_argument("--two-stage", action="store_true")
    p_cal.add_argument("--max-evals", type=int, default=4000)
    p_cal.add_argument("--weight-iv", type=float, default=1e4)
    return parser


_HANDLERS = {
    ("validate", None): _cmd_validate,
    ("price", "futures"): _cmd_price_futures,
    ("price", "option"): _cmd_price_option,
    ("moments", None): _cmd_moments,
    ("simulate", None): _cmd_simulate,
    ("calibrate", None): _cmd_calibrate,
}

_EXIT_BY_ERROR = (
    ((ConfigError, MarketDataError), EXIT_DATA),
    ((InadmissibleParamsError, InvalidParameterError, DomainError), EXIT_VALIDATION),
    ((NumericError, ConvergenceError, InfeasibleMomentsError, CalibrationError), EXIT_NUMERIC),
)


def run(argv=None):
    """Dispatch a CLI invocation; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    args._t0 = time.perf_counter()
    handler = _HANDLERS[(args.command, getattr(args, "target", None))]
    try:
        return handler(args)
    except PolydivError as exc:
        code = EXIT_NUMERIC
        for classes, c in _EXIT_BY_ERROR:
            if isinstance(exc, classes):
                code = c
                break
        err = {"error": {"type": type(exc).__name__, "message": str(exc), "exit_code": code}}
        print(json.dumps(err), file=sys.stderr)
        return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
