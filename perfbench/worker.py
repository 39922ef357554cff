"""One pass of a workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --spawned T --workdir DIR [--trace-file PATH]

Imports dyncross from the ``src`` directory next to ``perfbench``, makes the
workload's inputs from the seed, warms up numpy on an input no op uses,
then runs each op of the pass: prepare (untimed), the calibration loop,
call (timed), check (untimed).  Prints one JSON line with the op times,
the set-up time (from ``--spawned``, the parent's clock reading before it
started this process, to the first timed op), the median calibration time,
failures, check errors and peak RSS; with ``--trace 1`` also the per-layer
metrics of the pass.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_program():
    """Import dyncross from this checkout's sources, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "dyncross", "__init__.py")):
        raise SystemExit(f"no dyncross sources under {SRC}")
    sys.path.insert(0, SRC)
    import dyncross
    if not os.path.abspath(dyncross.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported dyncross from {dyncross.__file__}, not {SRC}")
    return dyncross


def warm_up(dc):
    """Load numpy's linear algebra and the program's code paths on a system
    no op uses, so that lazy loading is paid in set-up."""
    space = dc.finite_space(["warm0", "warm1"], {"warm0": ["warm0"], "warm1": ["warm1"]},
                            {"warm0": "warm1", "warm1": "warm0"})
    sys_ = dc.make_dynsys(space)
    x = dc.delta(space, 1) + dc.identity(space)
    dc.cstar_norm(sys_, x * x.adjoint(), dc.CircleGrid(16))


def calibrate():
    """A fixed unit of pure-Python work of the kind dyncross does: small
    objects, dict updates and complex arithmetic, about 5 ms on the 2-vCPU
    reference host.  Timed before every op, it measures how fast the host
    runs during the pass."""
    t0 = time.perf_counter()
    table = {}
    acc = 0j
    for i in range(6000):
        z = complex(i, 0.5 * i)
        table[i % 251] = table.get(i % 251, 0j) + z
        acc += abs(z) * table[i % 251]
    return time.perf_counter() - t0


def threads():
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-file")
    args = ap.parse_args()

    dc = import_program()
    import numpy as np
    import workloads
    warm_up(dc)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    times, errors, failed, cal = [], [], 0, []
    first = None
    for op in workloads.ops(args.workload, args.seed, args.workdir):
        inputs = op.prepare()
        cal.append(calibrate())
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            result = op.run(*inputs)
        except Exception:
            result = None
            failed += 1
            errors.append(f"{op.name}: {traceback.format_exc(limit=3)}")
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.enabled = False
        if first is None:
            first = t0
        times.append([op.name, t1 - t0])
        if result is None:
            continue
        try:
            err = op.check(result)
        except Exception:
            err = traceback.format_exc(limit=3)
        if err:
            errors.append(f"{op.name}: {err}")

    out = {
        "setup_s": first - args.spawned,
        "cal_s": statistics.median(cal),
        "ops": times,
        "failed": failed,
        "errors": errors,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": threads(),
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__},
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["spans"] = tracer.spans()
        if args.trace_file:
            tracer.save(args.trace_file)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
