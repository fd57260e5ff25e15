"""The benchmark's tracer (``perfbench/tracing.py``) wraps package functions
by ``(module, attribute)`` name.  Some of those names are imported only for
it (``calibration`` keeps such imports), so each must still resolve, or a
traced run fails before it starts.  Conversely, each such import must name
a target, so one whose target is dropped shows up.  And pricing must call
the names it is traced by, or their metrics read 0."""

import ast
import glob
import importlib
import importlib.util
import os

import pytest

from polydiv import maxent

from conftest import reference_params, reference_state

TRACING = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracing.py")
PACKAGE = os.path.join(os.path.dirname(__file__), "..", "src", "polydiv")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_tracer_target_resolves():
    tracing = _tracing()
    missing = [(module, attribute) for module, attribute, _ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(module), attribute, None))]
    assert len(tracing.TARGETS) > 0 and missing == []


def test_every_unused_import_is_a_tracer_target():
    targets = {(module, attribute) for module, attribute, _ in _tracing().TARGETS}
    kept = []
    for path in glob.glob(os.path.join(PACKAGE, "*.py")):
        with open(path) as fh:
            source = fh.read()
        lines = source.splitlines()
        module = "polydiv." + os.path.splitext(os.path.basename(path))[0]
        kept += [(module, alias.asname or alias.name) for node in ast.walk(ast.parse(source))
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and "# noqa: F401" in " ".join(lines[node.lineno - 1:node.end_lineno])
                 for alias in node.names]
    assert kept and [name for name in kept if name not in targets] == []


_PRICING_TARGETS = ("stock_price_moments", "cumulative_dividend_moments", "fit_maxent",
                    "integrate_payoff")


@pytest.mark.parametrize("underlying", ["stock", "dividend"])
def test_pricing_calls_its_traced_names(underlying, monkeypatch):
    targets = {(module, attribute) for module, attribute, _ in _tracing().TARGETS}
    assert {("polydiv.maxent", name) for name in _PRICING_TARGETS} <= targets
    calls = dict.fromkeys(_PRICING_TARGETS, 0)

    def spy(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in _PRICING_TARGETS:
        monkeypatch.setattr(maxent, name, spy(name, getattr(maxent, name)))
    params = reference_params()
    spec = maxent.OptionSpec("call", underlying, 0.03 if underlying == "dividend" else 1.0,
                             2.0, 0.01, (1.0, 2.0) if underlying == "dividend" else None)
    maxent._cold_fit.cache_clear()
    try:
        maxent.price_option(params, None, reference_state(), spec, 4)
    finally:
        maxent._cold_fit.cache_clear()
    assert calls["fit_maxent"] > 0
    assert (calls["stock_price_moments"], calls["cumulative_dividend_moments"],
            calls["integrate_payoff"]) == ((1, 0, 1) if underlying == "stock" else (0, 1, 1))
