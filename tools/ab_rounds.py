"""Alternate whole benchmark rounds of two checkouts in fresh processes.

    python tools/ab_rounds.py WORKLOAD PARENT CHANGE [--pairs N] [--seed S]

WORKLOAD is one of `perfbench/workloads.py`'s (queries, plane-search,
long-chain); PARENT and CHANGE are the roots of two checkouts.  Each pair
runs three fresh processes on one seed (S + pair index): the parent, the
change and the parent again (the control), in that order on even pairs and
reversed on odd ones, so that neither side always runs first.  A process
imports its checkout's `perfbench/worker.py` (which imports that
checkout's `src/enaqt` and refuses any other copy), makes the round with
its `workloads.make_round`, runs the warm-up operation untimed, then one
whole round, with BLAS on one thread (`OPENBLAS_NUM_THREADS`,
`OMP_NUM_THREADS` and `MKL_NUM_THREADS` set to 1).  It reports the CPU
seconds of the round (`time.process_time`) and the median wall time of
its operations.

For each metric the script prints the median and quartiles of each side,
the change's and the control's median relative to the parent's, and in
how many of the pairs each beat the parent (lower is better).  A control
that reads far from 1 or wins far from half of the pairs says that the
machine drifted during the run.  It only reads `perfbench/` and writes
nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

CHILD = r"""
import json, os, sys, time
root, workload = sys.argv[1:3]
seed = int(sys.argv[3])
sys.path.insert(0, os.path.join(root, "perfbench"))
import worker, workloads
ops = workloads.make_round(workload, seed)
worker.run_round([workloads.warmup_op(workload)])
cpu = time.process_time()
records = worker.run_round(ops)
cpu = time.process_time() - cpu
print(json.dumps({"cpu_s": cpu, "latencies": [r["s"] for r in records],
                  "errors": sum(r["error"] is not None for r in records)}))
"""

SIDES = ("parent", "change", "control")
METRICS = (("round_cpu_s", "s"), ("latency_p50_ms", "ms"))


def run_round(root, workload, seed):
    """(CPU seconds, median operation latency in ms, errors) of one round
    of `workload` in a fresh process of the checkout `root`."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", CHILD, root, workload, str(seed)],
        cwd=root, env=env, check=True, capture_output=True, text=True).stdout
    got = json.loads(out.strip().splitlines()[-1])
    return (got["cpu_s"], 1e3 * statistics.median(got["latencies"]),
            got["errors"])


def quartiles(values):
    """(first quartile, median, third quartile) of values."""
    if len(values) < 2:
        return values * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    roots["control"] = roots["parent"]
    results = {side: [] for side in SIDES}
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            results[side].append(run_round(roots[side], args.workload,
                                           seed))
        print(f"pair {pair + 1}/{args.pairs} seed {seed}: " + "  ".join(
            f"{side} {results[side][-1][0]:.3f} s {results[side][-1][1]:.2f}"
            " ms" for side in SIDES), file=sys.stderr)
    for side in SIDES:
        errors = sum(r[2] for r in results[side])
        if errors:
            print(f"{side}: {errors} failed operations")
    for index, (name, unit) in enumerate(METRICS):
        print(f"{name} ({unit}), {args.workload}, {args.pairs} pairs:")
        parent = [r[index] for r in results["parent"]]
        base = statistics.median(parent)
        for side in SIDES:
            values = [r[index] for r in results[side]]
            q1, q2, q3 = quartiles(values)
            line = f"  {side:8s} median {q2:.4g}  quartiles {q1:.4g}-{q3:.4g}"
            if side != "parent":
                wins = sum(v < p for v, p in zip(values, parent))
                line += (f"  ratio {q2 / base:.3f}  wins {wins}/"
                         f"{args.pairs}")
            print(line)


if __name__ == "__main__":
    main()
