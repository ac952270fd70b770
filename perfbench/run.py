"""Benchmark of the enaqt package: one workload per invocation.

    python3 perfbench/run.py --blas-threads 1 --workload queries \
        --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload runs in fresh child
processes (`worker.py`) with one client in a closed loop: the next
operation starts when the previous one returns.  BLAS runs on
--blas-threads threads in every process.

--trace 0 measures the end-to-end metrics: set-up time (the median of
SETUP_SAMPLES fresh processes, each importing the program, making the
inputs and running one warm-up operation), operations per second and the
median operation latency over the fixed number of whole rounds that
fills about --seconds, and the peak resident memory of the measuring
process.

--trace 1 runs a plain, a traced and a plain round in one process and
reports the per-layer metrics of the traced round, plus the tracing
overhead (traced round minus the mean of the plain rounds).  The spans
are written to perfbench/out/.

Every operation's output is checked against the benchmark's own oracle
after the timed part.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the metric
names and units come from BENCHMARK.json.  The exit code is 0 when the
run completed, whatever the checks found, and 1 when it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 150
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS")


def _spawn(env, *args):
    """Run worker.py to its end; returns (start wall time, its JSON result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    start = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def _check(ops, records, known_failure):
    """(attempted, failed, completed latencies in ms, correct)."""
    import checks

    checker = checks.Checker()
    failed = 0
    latencies = []
    correct = True
    for i, rec in enumerate(records):
        op = ops[i % len(ops)]
        if rec["error"] is not None:
            failed += 1
            if op != known_failure:
                print(f"unexpected failure: {op['kind']}: {rec['error']}",
                      file=sys.stderr)
            continue
        latencies.append(1e3 * rec["s"])
        bad = checker.problems(op, rec["output"])
        if bad:
            failed += 1
            correct = False
            print(f"check failed: {op}: {bad[:3]}", file=sys.stderr)
    return len(records), failed, latencies, correct


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--blas-threads", type=int, required=True)
    args = parser.parse_args()

    # Set before numpy is first imported, here and in every child.
    for var in BLAS_VARIABLES:
        os.environ[var] = str(args.blas_threads)
    env = dict(os.environ)
    sys.path.insert(0, HERE)
    import numpy
    import scipy

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    ops = workloads.make_round(args.workload, args.seed)

    if args.trace:
        trace_file = os.path.join(OUT, f"trace-{tag}.json")
        _, res = _spawn(env, *common, "--mode", "trace",
                        "--trace-file", trace_file)
        values = res["layers"]
    else:
        # set-up samples are spread before and after the measuring process
        def setup_probe():
            start, probe = _spawn(env, *common, "--mode", "setup")
            return probe["ready"] - start

        setups = [setup_probe() for _ in range(SETUP_SAMPLES // 2)]
        start, res = _spawn(env, *common, "--mode", "measure",
                            "--seconds", str(args.seconds))
        setups.append(res["ready"] - start)
        setups += [setup_probe() for _ in range(SETUP_SAMPLES // 2)]
    attempted, failed, latencies, correct = _check(
        ops, res["records"], workloads.KNOWN_FAILURE)
    if not args.trace:
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(latencies) / res["timed_s"],
            "latency_p50_ms": statistics.median(latencies),
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        }

    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(f"workload={args.workload} seed={args.seed} "
          f"rounds={res['rounds']} blas_threads={args.blas_threads} "
          f"nproc={len(os.sched_getaffinity(0))} numpy={numpy.__version__} "
          f"scipy={scipy.__version__} python={sys.version.split()[0]}")
    print(f"attempted={attempted} failed={failed} correct={correct}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    with open(os.path.join(OUT, f"result-{tag}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
