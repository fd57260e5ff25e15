"""Spans recorded around calls into polydiv's public functions.

The tracer replaces a function in the module namespace where its caller
looks it up (``polydiv.maxent.fit_maxent`` is what ``_price_from_moments``
calls, ``polydiv.moments.expm`` is scipy's ``expm`` as the moments module
sees it) and restores the original on exit.  No file of the package is
edited.  Spans stay in memory until the run writes them out.
"""

import json
import time

# (module, attribute, span name).  A name wrapped in several modules gets
# one wrapper per module so that every call site is seen.
TARGETS = (
    ("polydiv.cli", "parse_model_config", "cli.parse_model_config"),
    ("polydiv.cli", "parse_market_csv", "cli.parse_market_csv"),
    ("polydiv.cli", "calibrate", "calibration.calibrate"),
    ("polydiv.calibration", "objective", "calibration.objective"),
    ("polydiv.calibration", "pricing_errors", "calibration.pricing_errors"),
    ("polydiv.calibration", "dividend_futures", "moments.dividend_futures"),
    ("polydiv.calibration", "stock_futures", "moments.stock_futures"),
    ("polydiv.calibration", "implied_vol", "black.implied_vol"),
    ("polydiv.calibration", "price_stock_option", "maxent.price_stock_option"),
    ("polydiv.calibration", "price_dividend_option", "maxent.price_dividend_option"),
    ("polydiv.maxent", "price_stock_option", "maxent.price_stock_option"),
    ("polydiv.maxent", "price_dividend_option", "maxent.price_dividend_option"),
    ("polydiv.maxent", "fit_maxent", "maxent.fit_maxent"),
    ("polydiv.maxent", "integrate_payoff", "maxent.integrate_payoff"),
    ("polydiv.maxent", "stock_price_moments", "moments.stock_price_moments"),
    ("polydiv.maxent", "cumulative_dividend_moments", "moments.cumulative_dividend_moments"),
    ("polydiv.moments", "build_generator", "generator.build_generator"),
    ("polydiv.moments", "expm", "moments.expm"),
    ("polydiv.black", "implied_vol", "black.implied_vol"),
    ("polydiv.mc", "simulate_paths", "mc.simulate_paths"),
    ("polydiv.mc", "mc_price", "mc.mc_price"),
    ("polydiv.mc", "martingale_diagnostic", "mc.martingale_diagnostic"),
    ("polydiv.mc", "dividend_futures", "moments.dividend_futures"),
    ("polydiv.mc", "stock_futures", "moments.stock_futures"),
)


def _detail(name, args, result, block_size):
    """Work measured at the boundary: matrix size, Newton iterations, nodes."""
    if name == "moments.expm":
        return {"dim": int(args[0].shape[0])}
    if name == "maxent.fit_maxent" and result is not None:
        return {"iters": int(result.iterations), "nodes": int(result.nodes.size)}
    if name == "mc.simulate_paths" and result is not None:
        n_paths = result.config.n_paths
        return {"projections": int(result.projection_count),
                "blocks": len(range(0, n_paths, block_size))}
    if name == "calibration.calibrate" and result is not None:
        return {"converged": bool(result.trace.get("converged"))}
    return None


class Tracer:
    """Context manager that installs span-recording wrappers.

    Each span is ``[id, name, start, end, parent, unit, error, detail]``;
    ``parent`` is the id of the enclosing span (-1 at top level) and
    ``unit`` the benchmark unit of work the span belongs to.
    """

    FIELDS = ("id", "name", "start", "end", "parent", "unit", "error", "detail")

    def __init__(self, modules):
        self._modules = modules
        self._saved = []
        self._stack = []
        self.spans = []
        self.unit = None
        # paths per RNG block, a documented constant of the simulator
        self._block_size = modules["polydiv.mc"].BLOCK_SIZE

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            span = [sid, name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.unit, None, None]
            self.spans.append(span)
            self._stack.append(sid)
            result = None
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                span[6] = type(exc).__name__
                raise
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
                span[7] = _detail(name, args, result, self._block_size)
        return wrapper

    def __enter__(self):
        for mod_name, attr, span_name in TARGETS:
            module = self._modules[mod_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": self.FIELDS, "spans": self.spans}, fh, separators=(",", ":"))


def unit_counts(spans):
    """Counts that must repeat exactly between executions of one unit."""
    counts = {
        "objective_calls": 0, "maxent_fits": 0, "maxent_fallbacks": 0,
        "generator_builds": 0, "expm_calls": 0, "mc_projections": 0,
    }
    for _, name, _, _, _, _, error, detail in spans:
        if name == "calibration.objective":
            counts["objective_calls"] += 1
        elif name == "maxent.fit_maxent":
            counts["maxent_fits"] += 1
            counts["maxent_fallbacks"] += error == "ConvergenceError"
        elif name == "generator.build_generator":
            counts["generator_builds"] += 1
        elif name == "moments.expm":
            counts["expm_calls"] += 1
        elif name == "mc.simulate_paths" and detail:
            counts["mc_projections"] += detail["projections"]
    return counts


def layer_metrics(spans, n_units):
    """Per-layer metrics, per unit of work, from the spans of ``n_units`` units."""
    total = {}
    calls = {}
    for _, name, start, end, _, _, _, _ in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1

    def per_unit_s(*names):
        return sum(total.get(n, 0.0) for n in names) / n_units

    def per_unit_calls(name):
        return calls.get(name, 0) / n_units

    fits = [s[7] for s in spans if s[1] == "maxent.fit_maxent" and s[7]]
    calibrations = [s[7] for s in spans if s[1] == "calibration.calibrate" and s[7]]
    expm_dims = [s[7]["dim"] for s in spans if s[1] == "moments.expm"]
    counts = unit_counts(spans)
    n_objective = calls.get("calibration.objective", 0)

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    return {
        "calibration.objective_calls": (per_unit_calls("calibration.objective"), "count"),
        "calibration.objective_ms_mean": (
            1e3 * total.get("calibration.objective", 0.0) / n_objective if n_objective else 0.0,
            "ms"),
        "calibration.pricing_errors_s": (per_unit_s("calibration.pricing_errors"), "s"),
        "calibration.converged": (mean([float(c["converged"]) for c in calibrations]), "share"),
        "generator.build_calls": (per_unit_calls("generator.build_generator"), "count"),
        "generator.build_s": (per_unit_s("generator.build_generator"), "s"),
        "moments.expm_calls": (per_unit_calls("moments.expm"), "count"),
        "moments.expm_s": (per_unit_s("moments.expm"), "s"),
        "moments.expm_flops": (sum(float(d) ** 3 for d in expm_dims) / n_units, "flop"),
        "moments.futures_s": (per_unit_s("moments.dividend_futures", "moments.stock_futures"), "s"),
        "moments.stock_s": (per_unit_s("moments.stock_price_moments"), "s"),
        "moments.dividend_s": (per_unit_s("moments.cumulative_dividend_moments"), "s"),
        "maxent.fit_calls": (per_unit_calls("maxent.fit_maxent"), "count"),
        "maxent.fit_s": (per_unit_s("maxent.fit_maxent"), "s"),
        "maxent.fallbacks": (counts["maxent_fallbacks"] / n_units, "count"),
        "maxent.newton_iters_mean": (mean([f["iters"] for f in fits]), "count"),
        "maxent.nodes_mean": (mean([f["nodes"] for f in fits]), "count"),
        "maxent.integrate_s": (per_unit_s("maxent.integrate_payoff"), "s"),
        "black.implied_vol_calls": (per_unit_calls("black.implied_vol"), "count"),
        "black.implied_vol_s": (per_unit_s("black.implied_vol"), "s"),
        "mc.simulate_s": (per_unit_s("mc.simulate_paths"), "s"),
        "mc.estimate_s": (per_unit_s("mc.mc_price", "mc.martingale_diagnostic"), "s"),
        "mc.blocks": (sum(s[7]["blocks"] for s in spans
                          if s[1] == "mc.simulate_paths" and s[7]) / n_units, "count"),
        "mc.projections": (counts["mc_projections"] / n_units, "count"),
        "cli.parse_s": (per_unit_s("cli.parse_model_config", "cli.parse_market_csv"), "s"),
    }
