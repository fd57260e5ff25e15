"""polydiv benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload calibrate_sx5e --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and nothing is installed.  With ``--trace 0`` the last stdout line
carries the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics, recorded by wrapping the package's public functions (see
``tracing.py``), and the spans are written to ``.perfbench/``.  The line
before it is a JSON report with the run environment, the workload's own
figures, the exact-repeat counts and any failed checks.

All load comes from this one process (set-up probes run one at a time).
"""

import argparse
import ctypes
import glob
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from tracing import Tracer, layer_metrics, unit_counts
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench")

SETUP_SAMPLES = 5
# set-up probe: a fresh interpreter imports the package and parses the
# workload's inputs, as every CLI invocation does
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import polydiv.cli as cli
for path in sys.argv[2:]:
    if path.endswith(".csv"):
        cli.parse_market_csv(path)
    else:
        cli.parse_model_config(path)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("need --seed >= 0 and --seconds >= 1")
    return args


def source_missing():
    needed = [os.path.join(SRC, "polydiv", "__init__.py"),
              os.path.join(SRC, "polydiv", "data", "sx5e_20151221.csv")]
    return [p for p in needed if not os.path.isfile(p)]


def load_package():
    sys.path.insert(0, SRC)
    names = ("polydiv", "polydiv.black", "polydiv.calibration", "polydiv.cli", "polydiv.errors",
             "polydiv.generator", "polydiv.maxent", "polydiv.mc", "polydiv.moments")
    modules = {name: importlib.import_module(name) for name in names}
    origin = os.path.dirname(os.path.abspath(modules["polydiv"].__file__))
    if origin != os.path.join(SRC, "polydiv"):
        raise SystemExit(f"polydiv imported from {origin}, not from {SRC}")
    return modules


def blas_threads():
    """OpenBLAS thread counts of the libraries numpy and scipy load."""
    import numpy
    import scipy
    out = {}
    for pkg in (numpy, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[pkg.__name__] = fn()
                    break
    return out


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest():
    """SHA-256 over the package sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "polydiv", "**", "*"), recursive=True)):
        if os.path.isfile(path) and "__pycache__" not in path:
            h.update(os.path.relpath(path, SRC).encode())
            h.update(open(path, "rb").read())
    return h.hexdigest()


def environment(seed):
    import numpy
    import scipy
    nproc = len(os.sched_getaffinity(0))
    blas = blas_threads()
    polydiv_threads = os.environ.get("POLYDIV_THREADS")
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas,
        "POLYDIV_THREADS": polydiv_threads,
        "threads_within_nproc": max([1, *blas.values()]) <= nproc
        and int(polydiv_threads or 1) <= nproc,
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def setup_probe(inputs, importtime):
    """One fresh-interpreter set-up: wall seconds, plus import times if asked."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += ["-c", SETUP_CODE, SRC, *inputs]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
    imports = {}
    for line in proc.stderr.splitlines():
        # "import time:  self [us] | cumulative | imported package"
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3:
            name = parts[2].strip()
            if name in ("polydiv", "scipy.stats"):
                imports[name] = int(parts[1]) * 1e-6
    return elapsed, imports


def run_rounds(workload, seconds, tracer=None):
    """Run whole rounds until the next one would overrun ``seconds``.

    Returns a list of rounds, each a list of ``(key, seconds, result)``.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        records = []
        for key in workload.units:
            if tracer is not None:
                tracer.unit = f"{len(rounds)}:{key}"
            t0 = time.perf_counter()
            result = workload.run_unit(key)
            records.append((key, time.perf_counter() - t0, result))
        rounds.append(records)
        now = time.perf_counter()
        if len(rounds) >= workload.min_rounds and now - start + (now - round_start) > seconds:
            return rounds


def unit_seconds(rounds):
    """Median over rounds of the mean unit time within the round."""
    return statistics.median(sum(r[1] for r in rnd) / len(rnd) for rnd in rounds)


def check_all(workload, records):
    firsts = {}
    attempted = failed = 0
    for key, _, result in records:
        a, f = workload.check(key, result, firsts.get(key))
        firsts.setdefault(key, result)
        attempted += a
        failed += f
    return attempted, failed


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced_run(workload, seconds, probes, report):
    """End-to-end metrics; the workload's own figures go to the report."""
    rounds = run_rounds(workload, seconds)
    records = [rec for rnd in rounds for rec in rnd]
    attempted, failed = check_all(workload, records)
    unit_s = unit_seconds(rounds)
    report["figures"] = {name: {"value": v, "unit": u, "samples": n}
                         for name, (v, u, n) in workload.figures(unit_s, records).items()}
    report["units"] = len(records)
    report["rounds"] = len(rounds)
    metrics = {
        "setup_s": metric(statistics.median(p[0] for p in probes), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "unit_s": metric(unit_s, "s"),
    }
    return metrics, attempted, failed


def traced_run(workload, seconds, probes, report, modules, spans_path):
    """Per-layer metrics from a traced run, preceded by one untraced unit."""
    first = workload.units[0]
    t0 = time.perf_counter()
    plain = workload.run_unit(first)
    plain_s = time.perf_counter() - t0
    with Tracer(modules) as tracer:
        rounds = run_rounds(workload, seconds, tracer)
        records = [rec for rnd in rounds for rec in rnd]
        if len(rounds) == 1:
            # a second traced run of the first unit, for the exact-repeat counts
            tracer.unit = f"repeat:{first}"
            t0 = time.perf_counter()
            result = workload.run_unit(first)
            records.append((first, time.perf_counter() - t0, result))
    attempted, failed = check_all(workload, [(first, plain_s, plain)] + records)

    spans_by_unit = {}
    for span in tracer.spans:
        spans_by_unit.setdefault(span[5], []).append(span)
    counts = {}
    for label, spans in spans_by_unit.items():
        counts.setdefault(label.split(":", 1)[1], []).append(unit_counts(spans))
    attempted += 1
    if any(c != cs[0] for cs in counts.values() for c in cs):
        workload.fail(f"exact-repeat counts differ between identical units: {counts}")
        failed += 1

    in_rounds = [s for s in tracer.spans if not s[5].startswith("repeat:")]
    layers = layer_metrics(in_rounds, sum(len(rnd) for rnd in rounds))
    imports = [p[1] for p in probes]
    layers["setup.import_s"] = (statistics.median(t.get("polydiv", 0.0) for t in imports), "s")
    layers["setup.scipy_stats_import_s"] = (
        statistics.median(t.get("scipy.stats", 0.0) for t in imports), "s")
    layers["trace.overhead_ratio"] = (records[0][1] / plain_s, "ratio")
    tracer.write(spans_path)
    report["counts"] = counts
    report["spans"] = os.path.relpath(spans_path, ROOT)
    report["trace_overhead_s"] = records[0][1] - plain_s
    return {name: metric(v, u) for name, (v, u) in layers.items()}, attempted, failed


def main(argv=None):
    args = parse_args(argv)
    missing = source_missing()
    if missing:
        print(f"perfbench: not a polydiv source checkout, missing {missing}", file=sys.stderr)
        return 2
    modules = load_package()
    os.makedirs(WORK_DIR, exist_ok=True)
    workload = WORKLOADS[args.workload](ROOT, WORK_DIR, modules["polydiv"])
    report = {"workload": workload.name, "trace": args.trace, "env": environment(args.seed)}
    workload.prepare(args.seed)
    probes = [setup_probe(workload.setup_inputs, args.trace == 1) for _ in range(SETUP_SAMPLES)]
    workload.warm_up()

    if args.trace:
        spans_path = os.path.join(WORK_DIR, f"spans-{workload.name}-seed{args.seed}.json")
        metrics, attempted, failed = traced_run(workload, args.seconds, probes, report,
                                                modules, spans_path)
    else:
        metrics, attempted, failed = untraced_run(workload, args.seconds, probes, report)
    report["failures"] = workload.failures[:20]
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
