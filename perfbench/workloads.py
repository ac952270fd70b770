"""Seeded inputs of the three workloads.

A workload is a list of operations, one round.  Each operation is a plain
dict: `kind` names the call, the other keys are its arguments and, under
`check_gammas`, an independent gamma grid the checks use.  Sites are
1-based, as on the command line.  The same (workload, seed) always gives
the same round; the seed moves rates and grids a little and sets the order
of the operations, while the kind, count and system size of the
operations stay fixed, so that the cost of a round hardly depends on the
seed.  A run is a fixed number of whole rounds (`rounds`), so that every
run of a workload attempts the same operations, however fast the program.

This module imports nothing from the program: the benchmark hands the
program only the generated inputs.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("queries", "plane-search", "long-chain")

RATE_RANGE = (1e-4, 1e2)      # the program's (kappa, mu) plane
GAMMA_RANGE = (1e-4, 1e4)     # the program's dephasing range

# queries: chains n = 2..10 and rings n = 3..10, cycled through in order
QUERY_GEOMETRIES = ([("chain", n) for n in range(2, 11)]
                    + [("ring", n) for n in range(3, 11)])
# share of each CLI subcommand in one round (40/25/30/5 per cent)
QUERY_COUNTS = {"efficiency": 96, "curve": 60, "optimize": 72, "sweep": 12}
CURVE_POINTS = 12
QUERY_BASE_SEED = 20120123
QUERY_JITTER = 1.05
SWEEP_POINTS = 3

# plane-search: the paper's small geometries (topology, N, trap, init),
# with the mirror cases N=4 (2,3) and N=5 (2,4), two rings with a start
# that is not antipodal to the trap and one ring with an antipodal start
PLANE_GEOMETRIES = (("chain", 3, 1, 2), ("chain", 4, 2, 3),
                    ("chain", 5, 2, 4), ("chain", 5, 1, 3),
                    ("ring", 4, 1, 2), ("ring", 5, 1, 3), ("ring", 4, 1, 3))
PLANE_SWEEP_POINTS = 16

# long-chain: the three truncations sit on both sides of the program's
# dense/eigenbasis switch at n = 64 (n = 33 and 49 dense, 65 and 109 not)
INFINITE_KAPPA = 6.3
INFINITE_MUS = (1.0, 0.5, 0.3)
# fails on every run: the eigenbasis path certifies the residual but then
# rejects an imaginary part of 1.2e-10 in the lost probability
KNOWN_FAILURE = {"kind": "efficiency_direct", "topology": "chain", "n": 65,
                 "trap": 1, "init": 2, "kappa": 1.0, "mu": 0.1,
                 "gamma": 1e4}

# reaches the eigenbasis path's sparse-LU fallback on every run: GMRES
# stagnates above the residual gate at gamma = 1e4 near kappa = 1
SPARSE_FALLBACK = {"kind": "efficiency_direct", "topology": "chain", "n": 96,
                   "trap": 1, "init": 2, "kappa": 1.0, "mu": 0.1,
                   "gamma": 1e4}
# single strong-dephasing solves: three dense, three eigenbasis
SINGLE_SOLVE_SIZES = (32, 40, 48, 72, 96, 120)
CHECK_POINTS = 8

# wall time of one round at the commit that added the benchmark (2-core
# machine, BLAS on one thread); a run of --seconds makes
# round(seconds / ROUND_SECONDS) rounds, at least one, so that the number
# of rounds does not depend on the speed of the program under test
ROUND_SECONDS = {"queries": 3.0, "plane-search": 19.5, "long-chain": 23.0}


def _log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def _latin(rng, count, lo, hi):
    """count log-uniform values, one in each of count equal strata."""
    u = (rng.permutation(count) + rng.random(count)) / count
    return np.exp(math.log(lo) + u * math.log(hi / lo))


def _check_gammas(rng):
    return sorted(float(g) for g in _log_uniform(rng, *GAMMA_RANGE,
                                                 CHECK_POINTS))


def _queries(rng):
    # The make-up of the round (geometries, sites, formats, rates on a
    # Latin hypercube) comes from a fixed generator, so that its cost does
    # not depend on the seed; the seed moves every rate and gamma bound by
    # up to QUERY_JITTER in log scale and sets the order.
    base = np.random.default_rng(QUERY_BASE_SEED)

    def moved(value, lo, hi):
        return float(np.clip(value * _log_uniform(rng, 1 / QUERY_JITTER,
                                                  QUERY_JITTER), lo, hi))

    ops = []
    for kind, count in QUERY_COUNTS.items():
        kappas = _latin(base, count, *RATE_RANGE)
        mus = _latin(base, count, *RATE_RANGE)
        gammas = _latin(base, count, *GAMMA_RANGE)
        for j in range(count):
            topology, n = QUERY_GEOMETRIES[j % len(QUERY_GEOMETRIES)]
            trap, init = (int(s) + 1 for s in base.choice(n, 2, replace=False))
            op = {"kind": "cli", "command": kind, "topology": topology,
                  "n": n, "trap": trap, "init": init,
                  "format": str(base.choice(["csv", "json"]))}
            if kind == "sweep":
                op.update(
                    kappa_min=moved(10 ** base.uniform(-4, -3), *RATE_RANGE),
                    kappa_max=moved(10 ** base.uniform(1, 2), *RATE_RANGE),
                    mu_min=moved(10 ** base.uniform(-4, -3), *RATE_RANGE),
                    mu_max=moved(10 ** base.uniform(1, 2), *RATE_RANGE))
            else:
                op.update(kappa=moved(kappas[j], *RATE_RANGE),
                          mu=moved(mus[j], *RATE_RANGE))
            if kind == "efficiency":
                op["gamma"] = moved(gammas[j], *GAMMA_RANGE)
            if kind == "curve":
                op.update(
                    gamma_min=moved(10 ** base.uniform(-4, -2), *GAMMA_RANGE),
                    gamma_max=moved(10 ** base.uniform(2, 4), *GAMMA_RANGE))
            if kind in ("optimize", "sweep"):
                op["check_gammas"] = _check_gammas(rng)
            op["argv"] = cli_argv(op)
            ops.append(op)
    return ops


def cli_argv(op) -> list:
    """Command-line tokens for one `cli` operation."""
    argv = [op["command"]]
    keys = ["topology", "n", "trap", "init", "format"]
    keys += {"efficiency": ["kappa", "mu", "gamma"],
             "curve": ["kappa", "mu", "gamma_min", "gamma_max"],
             "optimize": ["kappa", "mu"],
             "sweep": ["kappa_min", "kappa_max", "mu_min", "mu_max"],
             }[op["command"]]
    for key in keys:
        argv += ["--" + key.replace("_", "-"), repr(op[key])
                 if isinstance(op[key], float) else str(op[key])]
    if op["command"] == "curve":
        argv += ["--gamma-points", str(CURVE_POINTS)]
    if op["command"] == "sweep":
        argv += ["--kappa-points", str(SWEEP_POINTS),
                 "--mu-points", str(SWEEP_POINTS)]
    return argv


def _plane_search(rng):
    ops = []
    for topology, n, trap, init in PLANE_GEOMETRIES:
        geo = {"topology": topology, "n": n, "trap": trap, "init": init}
        ops.append({"kind": "max_enaqt", **geo})
        # the seed moves the grid ends only a little, so that the cost of
        # a sweep stays nearly the same from seed to seed
        grids = {}
        for axis in ("kappa_grid", "mu_grid"):
            lo = 1.25e-4 * _log_uniform(rng, 0.8, 1.25)
            hi = 80.0 * _log_uniform(rng, 0.8, 1.25)
            grids[axis] = [float(v) for v in
                           np.geomspace(lo, hi, PLANE_SWEEP_POINTS)]
        ops.append({"kind": "plane_sweep", **geo, **grids,
                    "check_gammas": _check_gammas(rng)})
    return ops


def _long_chain(rng):
    def rates(kappa, mu):
        return {"kappa": float(kappa * _log_uniform(rng, 0.9, 1.1)),
                "mu": float(mu * _log_uniform(rng, 0.9, 1.1))}

    # kappa stays near 3: at kappa ~ 1 the eigenbasis path rejects some
    # strong-dephasing solves for imaginary leakage, depending on the seed
    chain = {"topology": "chain", "trap": 1, "init": 2}
    ops = [{"kind": "infinite_chain_enaqt", "kappa": INFINITE_KAPPA,
            "mu": mu, "offset": 1} for mu in INFINITE_MUS]
    ops.append({"kind": "optimize_dephasing", **chain, "n": 80,
                **rates(3.0, 0.3), "check_gammas": _check_gammas(rng)})
    # at n = 128 GMRES needs about ten times the matvecs from gamma ~ 1000
    # on; the grid keeps its last point above that and the one before it
    # well below, whatever the seed, so that the cost of the curve does not
    # depend on the seed
    for n, lo, hi in ((32, 1e-2, 1e2), (128, 1e-3, 2e3)):
        jitter = float(_log_uniform(rng, 0.8, 1.25))
        ops.append({"kind": "efficiency_curve", **chain, "n": n,
                    **rates(3.0, 0.1),
                    "gammas": [float(g) for g in
                               np.geomspace(lo * jitter, hi * jitter, 8)]})
    # single solves at strong dephasing on both sides of the dense limit
    for n in SINGLE_SOLVE_SIZES:
        ops.append({"kind": "efficiency_direct", **chain, "n": n,
                    **rates(3.0, 0.1),
                    "gamma": float(_log_uniform(rng, 1500.0, 4000.0))})
    ops.append(dict(SPARSE_FALLBACK))
    ops.append(dict(KNOWN_FAILURE))
    return ops


def make_round(workload: str, seed: int) -> list:
    """The operations of one round of `workload`, in execution order."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    ops = {"queries": _queries, "plane-search": _plane_search,
           "long-chain": _long_chain}[workload](rng)
    return [ops[i] for i in rng.permutation(len(ops))]


def rounds(workload: str, seconds: float) -> int:
    """The fixed number of whole rounds a run of `seconds` makes."""
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def warmup_op(workload: str) -> dict:
    """One small fixed operation run, untimed, before the timed rounds."""
    if workload == "queries":
        op = {"kind": "cli", "command": "efficiency", "topology": "chain",
              "n": 3, "trap": 1, "init": 2, "kappa": 0.1, "mu": 0.01,
              "gamma": 0.5, "format": "csv"}
        op["argv"] = cli_argv(op)
        return op
    if workload == "plane-search":
        return {"kind": "plane_sweep", "topology": "chain", "n": 3,
                "trap": 1, "init": 2, "kappa_grid": [0.1], "mu_grid": [0.01]}
    return {"kind": "efficiency_direct", "topology": "chain", "n": 65,
            "trap": 1, "init": 2, "kappa": 1.0, "mu": 0.1, "gamma": 1.0}
