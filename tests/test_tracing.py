"""The benchmark's tracer (``perfbench/tracing.py``) wraps package functions
by ``(module, attribute)`` name.  Some of those names are imported only for
it (``calibration`` and ``maxent`` keep such imports), so each must still
resolve, or a traced run fails before it starts.  Conversely, each such
import must name a target, so one whose target is dropped shows up."""

import ast
import glob
import importlib
import importlib.util
import os

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
