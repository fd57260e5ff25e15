"""The benchmark's tracer (``perfbench/tracing.py``) wraps package functions
by ``(module, attribute)`` name.  Some of those names are imported only for
it (``calibration`` and ``maxent`` keep such imports), so each must still
resolve, or a traced run fails before it starts."""

import importlib
import importlib.util
import os

TRACING = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracing.py")


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(module, attribute) for module, attribute, _ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(module), attribute, None))]
    assert len(tracing.TARGETS) > 0 and missing == []
