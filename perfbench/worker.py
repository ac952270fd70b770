"""One workload in a fresh process: set up, run rounds, report raw results.

Run by `run.py`, never by hand.  Modes:

  setup    import the program, make the inputs, run the warm-up, exit
  measure  then run the fixed number of whole rounds that fills about
           --seconds (`workloads.rounds`)
  trace    then run a plain, a traced and a plain round

The last line of standard output is one JSON object: the wall-clock time
at which set-up ended, every operation with its output or error and its
wall time, the wall time of the timed part and the peak resident memory.
Output checks happen in the parent process, outside the timed interval.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import enaqt  # noqa: E402
import enaqt.cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

# The program under test must be the checkout's own copy.
if not os.path.abspath(enaqt.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"enaqt imported from {enaqt.__file__}, not {SRC}")


def _spec(op, gamma=0.0):
    return enaqt.model.SystemSpec(op["topology"], op["n"], (op["trap"] - 1,),
                                  op["init"] - 1, kappa=op["kappa"],
                                  mu=op["mu"], gamma=gamma)


def _nan_to_none(values):
    return [[None if math.isnan(v) else float(v) for v in row]
            for row in values]


def call(op):
    """Run one operation; returns its output as plain JSON data.

    Only the program's own call is inside the returned interval; turning
    its result into JSON data happens after the clock stops.
    """
    kind = op["kind"]
    analysis = enaqt.analysis
    t0 = time.perf_counter()
    if kind == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = enaqt.cli.main(op["argv"])
        elapsed = time.perf_counter() - t0
        return elapsed, {"exit": code, "stdout": buf.getvalue()}
    if kind == "max_enaqt":
        res = analysis.max_enaqt(op["topology"], op["n"], op["trap"],
                                 op["init"])
        elapsed = time.perf_counter() - t0
        return elapsed, res._asdict()
    if kind == "plane_sweep":
        pm = analysis.plane_sweep(op["topology"], op["n"], op["trap"],
                                  op["init"], kappa_grid=op["kappa_grid"],
                                  mu_grid=op["mu_grid"])
        elapsed = time.perf_counter() - t0
        return elapsed, {"eta0": _nan_to_none(pm.eta0),
                         "xi": _nan_to_none(pm.xi),
                         "gamma_opt": _nan_to_none(pm.gamma_opt),
                         "errors": {f"{i},{j}": e
                                    for (i, j), e in pm.errors.items()}}
    if kind == "infinite_chain_enaqt":
        res = analysis.infinite_chain_enaqt(op["kappa"], op["mu"],
                                            op["offset"])
    elif kind == "optimize_dephasing":
        res = analysis.optimize_dephasing(_spec(op))
    elif kind == "efficiency_curve":
        res = analysis.efficiency_curve(_spec(op), op["gammas"])
    elif kind == "efficiency_direct":
        res = enaqt.solver.efficiency_direct(_spec(op, op["gamma"]))
    else:
        raise ValueError(f"unknown operation {kind!r}")
    elapsed = time.perf_counter() - t0
    if dataclasses.is_dataclass(res):
        return elapsed, dataclasses.asdict(res)
    return elapsed, res


def run_round(ops):
    """Every operation once, in order.

    Any exception the program raises is recorded as the operation's error,
    so one failed call costs that operation, not the run.
    """
    records = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            elapsed, output = call(op)
            records.append({"s": elapsed, "output": output, "error": None})
        except Exception as exc:
            records.append({"s": time.perf_counter() - t0, "output": None,
                            "error": f"{type(exc).__name__}: {exc}"})
    return records


def _timed_round(ops):
    t0 = time.perf_counter()
    records = run_round(ops)
    return time.perf_counter() - t0, records


def _rounds(ops, count):
    """`count` whole rounds; returns their wall time and records."""
    records = []
    t0 = time.perf_counter()
    for _ in range(count):
        records += run_round(ops)
    return time.perf_counter() - t0, records


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=["setup", "measure", "trace"],
                        required=True)
    parser.add_argument("--trace-file")
    args = parser.parse_args()

    ops = workloads.make_round(args.workload, args.seed)
    run_round([workloads.warmup_op(args.workload)])
    result = {"ready": time.time()}
    if args.mode == "measure":
        rounds = workloads.rounds(args.workload, args.seconds)
        wall, records = _rounds(ops, rounds)
        result.update(rounds=rounds, timed_s=wall, records=records,
                      peak_rss_kb=resource.getrusage(
                          resource.RUSAGE_SELF).ru_maxrss)
    elif args.mode == "trace":
        # plain rounds on both sides of the traced one, so that a slow
        # drift of the machine's speed does not show as tracing overhead
        before_s, before = _timed_round(ops)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_s, traced = _timed_round(ops)
        finally:
            tracer.uninstall()
        after_s, after = _timed_round(ops)
        tracer.write(args.trace_file)
        plain_s = (before_s + after_s) / 2
        layers = tracer.layer_metrics()
        layers["trace.plain_round_ms"] = 1e3 * plain_s
        layers["trace.overhead_ms"] = 1e3 * (traced_s - plain_s)
        result.update(rounds=3, records=before + traced + after,
                      layers=layers)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
