"""Digests of the benchmark's outputs, one line per workload and seed.

    python3 tools/quote_digest.py [CHECKOUT] [--seeds 1-10]

For each seed it prints a SHA-256 of every ``surface_d3`` quote (line,
strike, moment count, price, implied vol, error; latencies dropped) and of
the ``calibrate_sx5e`` JSON payload with the per-stage ``seconds`` dropped.
Both come from perfbench's workload classes, imported read-only from the
checkout, with ``polydiv`` imported from its ``src/``.  Run it on two
checkouts (the default is the one holding this script) and compare the
output: equal lines mean bit-identical prices, vols and calibrations.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def without_seconds(obj):
    if isinstance(obj, dict):
        return {k: without_seconds(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [without_seconds(v) for v in obj]
    return obj


def surface_quotes(workload):
    # float.hex: the digest tells any two doubles apart
    return [[li, strike.hex(), n, None if price is None else price.hex(),
             None if vol is None else vol.hex(), error]
            for key in workload.units
            for li, strike, n, price, vol, error, _ in workload.run_unit(key)]


def calibration_payload(workload):
    result = workload.run_unit("calibration")
    if result["code"] != 0:
        return {"code": result["code"], "stderr": result["stderr"]}
    return without_seconds(json.loads(result["stdout"])["payload"])


def main(argv=None):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", default=here)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"),
                        help="a seed or an inclusive range, e.g. 1-10 (default)")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.checkout)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import polydiv.cli      # binds polydiv, with the submodules the workloads use
    from workloads import CalibrateSx5e, SurfaceD3

    if os.path.dirname(polydiv.__file__) != os.path.join(root, "src", "polydiv"):
        raise SystemExit(f"polydiv imported from {polydiv.__file__}, not from {root}/src")
    with tempfile.TemporaryDirectory() as work_dir:
        for cls, outputs in ((SurfaceD3, surface_quotes), (CalibrateSx5e, calibration_payload)):
            for seed in args.seeds:
                workload = cls(root, work_dir, polydiv)
                workload.prepare(seed)
                text = json.dumps(outputs(workload), sort_keys=True)
                print(cls.name, seed, hashlib.sha256(text.encode()).hexdigest(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
