"""dyncross benchmark: one workload, one seed, whole passes for a set time.

    python3 perfbench/run.py --workload verify|products|norms|topology \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/dyncross``.  Each pass of
the workload's fixed op list runs in a fresh worker process (one at a time:
a closed loop with one client), so every pass starts cold and does the same
work.  Passes repeat until ``--seconds`` have passed and at least
``MIN_PASSES`` passes are done.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, timed without tracing:

* ``setup_s``     worker start to its first timed op (interpreter start,
                  imports, input generation, warm-up);
* ``pass_s``      summed op times of one pass;
* ``op_s_p50``    median op time within a pass;
* ``op_s_p90``    90th percentile of op times within a pass;
* ``peak_rss_mb`` peak RSS of the worker.

Each is taken per pass and reported as the median over the run's passes.
Times are in reference seconds: wall seconds scaled by ``CAL_REF_S`` over
the median time of the worker's calibration loop in that pass, which
takes out the host's speed swings (see README.md).

With ``--trace 1`` untraced and traced passes alternate, and the metrics
are the per-layer ones (medians over traced passes, in wall seconds) plus
the tracing overhead, traced minus untraced wall ``pass_s``.  The spans of the last traced
pass are written to ``perfbench/results/<workload>.trace.npz``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# Ops per pass: verify 25, products 54, norms 15, topology 13; with these
# minimums every run times at least 100 ops.
MIN_PASSES = {"verify": 4, "products": 3, "norms": 7, "topology": 8}
PASS_TIMEOUT_S = 150
CAL_REF_S = 0.005       # the calibration loop's time on the reference host
# One BLAS thread: with OpenBLAS's default of one thread per core, norms
# passes on a 2-vCPU host took either about 2.2 s or about 3.1 s, depending
# on whether the other core was busy.  Python code adds no threads.
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                  MKL_NUM_THREADS="1")


def run_pass(args, trace, workdir, trace_file=None):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(trace), "--workdir", workdir]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    spawned = time.perf_counter()
    proc = subprocess.run(cmd + ["--spawned", repr(spawned)], capture_output=True,
                          text=True, timeout=PASS_TIMEOUT_S, env=WORKER_ENV)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pass_time(result):
    return sum(t for _, t in result["ops"])


def end_to_end(passes):
    """Each pass is one sample of the workload: its op-time median and 90th
    percentile are taken per pass, and every metric is the median over
    passes, so that a slow stretch of the host moves it little."""
    def per_pass(fn):
        return statistics.median(fn(p) for p in passes)

    def scaled(fn):
        return lambda p: fn(p) * CAL_REF_S / p["cal_s"]

    def op_quantile(q):
        return lambda p: statistics.quantiles([t for _, t in p["ops"]], n=10)[q]

    return {
        "setup_s": (per_pass(scaled(lambda p: p["setup_s"])), "s"),
        "pass_s": (per_pass(scaled(pass_time)), "s"),
        "op_s_p50": (per_pass(scaled(op_quantile(4))), "s"),
        "op_s_p90": (per_pass(scaled(op_quantile(8))), "s"),
        "peak_rss_mb": (per_pass(lambda p: p["rss_mb"]), "MB"),
    }


def per_layer(untraced, traced):
    out = {}
    for name in traced[0]["layers"]:
        unit = ("s" if name.endswith("_s") or name.endswith(".s") else
                "1" if name.endswith(("ratio", "rel_err")) else
                "B" if name.endswith("bytes") else "count")
        out[name] = (statistics.median(p["layers"][name] for p in traced), unit)
    out["trace.overhead_s"] = (statistics.median(pass_time(p) for p in traced)
                               - statistics.median(pass_time(p) for p in untraced), "s")
    out["trace.spans"] = (statistics.median(p["spans"] for p in traced), "count")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(MIN_PASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(os.path.dirname(HERE), "src", "dyncross",
                                       "__init__.py")):
        raise SystemExit("run from a checkout of dyncross: no src/dyncross found")
    results = os.path.join(HERE, "results")
    workdir = os.path.join(HERE, "work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    if args.trace:
        os.makedirs(results, exist_ok=True)
    untraced, traced = [], []
    try:
        start = time.perf_counter()
        while True:
            untraced.append(run_pass(args, 0, workdir))
            if args.trace:
                tf = os.path.join(results, f"{args.workload}.trace.npz")
                traced.append(run_pass(args, 1, workdir, tf))
            if (time.perf_counter() - start >= args.seconds and len(untraced)
                    >= (1 if args.trace else MIN_PASSES[args.workload])):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = untraced + traced
    first = passes[0]
    print(f"python {first['versions']['python']}, numpy {first['versions']['numpy']}, "
          f"{first['threads']} thread(s) per worker", file=sys.stderr)
    errors = [e for p in passes for e in p["errors"]]
    for e in errors[:20]:
        print(e, file=sys.stderr)
    metrics = per_layer(untraced, traced) if args.trace else end_to_end(untraced)
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(len(p["ops"]) for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
