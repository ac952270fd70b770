"""Output checks, run in the parent process after the timed part.

Each check compares an operation's output with the benchmark's own oracle
(`oracle.py`) or with a property the method must have; none compares
with a saved copy of earlier output.  `Checker.problems` returns a list of
what is wrong with one output, empty when the output passes.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import oracle
from workloads import CURVE_POINTS, SWEEP_POINTS

ETA_TOL = 1e-8        # |eta - oracle eta|
SUM_TOL = 1e-9        # |eta + eta_loss - 1| when mu > 0
GRID_TOL = 1e-8       # eta_max may sit this far below an oracle grid point
XI_TOL = 1e-6         # max_enaqt's xi against the oracle's at (kappa*, mu*)
TRUNCATION_TOL = 1e-4
# limits from the paper: chain N=3, trap 1, start 2 -> 7 - 4 sqrt 3;
# a ring with a start that is not antipodal to the trap -> 1/2, with an
# antipodal start -> 0
CHAIN3_LIMIT, CHAIN3_TOL = 7 - 4 * math.sqrt(3), 1e-3
RING_LIMIT, RING_TOL = 0.5, 5e-3
ZERO_TOL = 1e-6
METHODS = {"direct", "direct-eigenbasis", "direct-sparse"}


def parse_cli(text: str, fmt: str) -> list:
    """CLI stdout (CSV or JSON) -> list of records with numbers parsed."""
    if fmt == "json":
        return json.loads(text)
    rows = list(csv.DictReader(io.StringIO(text)))
    out = []
    for row in rows:
        rec = {}
        for key, raw in row.items():
            try:
                rec[key] = float(raw) if raw else None
            except ValueError:
                rec[key] = raw
        out.append(rec)
    return out


class Checker:
    """Checks outputs; oracle answers are kept so that repeated rounds of
    the same operations cost one oracle solve per distinct input."""

    def __init__(self):
        self._cache = {}

    def _memo(self, key, fn, *args):
        if key not in self._cache:
            self._cache[key] = fn(*args)
        return self._cache[key]

    def eta(self, op, kappa, mu, gamma):
        """Oracle (eta, eta_loss) for op's geometry at the given rates."""
        geo = (op["topology"], op["n"], (op["trap"] - 1,), op["init"] - 1)
        return self._memo(("eta",) + geo + (kappa, mu, gamma),
                          oracle.efficiency, *geo, kappa, mu, gamma)

    def best(self, op, kappa, mu):
        geo = (op["topology"], op["n"], (op["trap"] - 1,), op["init"] - 1)
        return self._memo(("best",) + geo + (kappa, mu),
                          oracle.best_eta, *geo, kappa, mu)

    def semi_infinite(self, *args):
        return self._memo(("semi",) + args, oracle.semi_infinite, *args)

    # -- shared property checks -------------------------------------------

    def _point(self, what, op, kappa, mu, gamma, eta, eta_loss=None):
        ref = self.eta(op, kappa, mu, gamma)[0]
        bad = []
        if not abs(eta - ref) <= ETA_TOL:
            bad.append(f"{what}: eta {eta!r} != oracle {ref!r} "
                       f"at gamma={gamma!r}")
        if eta_loss is not None and not abs(eta + eta_loss - 1) <= SUM_TOL:
            bad.append(f"{what}: eta + eta_loss = {eta + eta_loss!r}")
        return bad

    def _optimum(self, what, op, kappa, mu, eta0, eta_max, gamma_opt, xi):
        bad = self._point(what + " eta0", op, kappa, mu, 0.0, eta0)
        if not xi >= 0:
            bad.append(f"{what}: xi {xi!r} < 0")
        if not abs(eta_max - eta0 - xi) <= 1e-11:
            bad.append(f"{what}: xi != eta_max - eta0")
        if gamma_opt > 0:
            bad += self._point(what + " eta_max", op, kappa, mu, gamma_opt,
                               eta_max)
        elif eta_max != eta0:
            bad.append(f"{what}: gamma_opt = 0 but eta_max != eta0")
        for g in op["check_gammas"]:
            ref = self.eta(op, kappa, mu, g)[0]
            if not eta_max >= ref - GRID_TOL:
                bad.append(f"{what}: eta_max {eta_max!r} below oracle "
                           f"{ref!r} at gamma={g!r}")
        return bad

    # -- one check per operation kind --------------------------------------

    def problems(self, op, output) -> list:
        try:
            return getattr(self, "_" + op["kind"])(op, output)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return [f"malformed output: {type(exc).__name__}: {exc}"]

    def _cli(self, op, out):
        if out["exit"] != 0:
            return [f"exit code {out['exit']}"]
        recs = parse_cli(out["stdout"], op["format"])
        cmd = op["command"]
        if cmd == "efficiency":
            (rec,) = recs
            return self._point("efficiency", op, op["kappa"], op["mu"],
                               op["gamma"], rec["eta"], rec["eta_loss"])
        if cmd == "curve":
            gammas = [0.0] + list(np.geomspace(op["gamma_min"],
                                               op["gamma_max"],
                                               CURVE_POINTS))
            if len(recs) != len(gammas):
                return [f"curve has {len(recs)} rows, not {len(gammas)}"]
            bad = []
            for rec, g in zip(recs, gammas):
                if not abs(rec["gamma"] - g) <= 1e-11 * g:
                    bad.append(f"curve gamma {rec['gamma']!r} != {g!r}")
                bad += self._point("curve", op, op["kappa"], op["mu"], g,
                                   rec["eta"], rec["eta_loss"])
            return bad
        if cmd == "optimize":
            (rec,) = recs
            return self._optimum("optimize", op, op["kappa"], op["mu"],
                                 rec["eta0"], rec["eta_max"],
                                 rec["gamma_opt"], rec["xi"])
        if len(recs) != SWEEP_POINTS ** 2:
            return [f"sweep has {len(recs)} rows"]
        bad = []
        for rec in recs:
            if rec["error"]:
                bad.append(f"sweep cell error {rec['error']}")
                continue
            bad += self._optimum(
                "sweep cell", op, rec["kappa"], rec["mu"], rec["eta0"],
                rec["eta0"] + rec["xi"], rec["gamma_opt"], rec["xi"])
        return bad

    def _max_enaqt(self, op, out):
        xi, kappa, mu = out["xi"], out["kappa"], out["mu"]
        bad = []
        lo, hi = 1e-4 * (1 - 1e-12), 1e2 * (1 + 1e-12)
        if not (xi >= 0 and lo <= kappa <= hi and lo <= mu <= hi):
            bad.append(f"max_enaqt {out} outside its ranges")
            return bad
        eta0, eta_max = self.best(op, kappa, mu)
        if not abs(xi - (eta_max - eta0)) <= XI_TOL:
            bad.append(f"max_enaqt xi {xi!r} != oracle {eta_max - eta0!r} "
                       f"at kappa={kappa!r} mu={mu!r}")
        n, trap, init = op["n"], op["trap"], op["init"]
        if op["topology"] == "chain" and (n, trap, init) == (3, 1, 2):
            if not abs(xi - CHAIN3_LIMIT) <= CHAIN3_TOL:
                bad.append(f"chain N=3 xi {xi!r} != 7 - 4 sqrt 3")
        antipodal = n % 2 == 0 and (init - trap) % n == n // 2
        if op["topology"] == "ring" and not antipodal:
            if not abs(xi - RING_LIMIT) <= RING_TOL:
                bad.append(f"ring xi {xi!r} != 1/2")
        if op["topology"] == "ring" and antipodal and not xi <= ZERO_TOL:
            bad.append(f"antipodal ring xi {xi!r} != 0")
        return bad

    def _plane_sweep(self, op, out):
        bad = []
        if out["errors"]:
            bad.append(f"plane_sweep cell errors {out['errors']}")
            return bad
        for i, kappa in enumerate(op["kappa_grid"]):
            for j, mu in enumerate(op["mu_grid"]):
                eta0, xi = out["eta0"][i][j], out["xi"][i][j]
                bad += self._optimum(f"plane_sweep[{i},{j}]", op, kappa, mu,
                                     eta0, eta0 + xi, out["gamma_opt"][i][j],
                                     xi)
        return bad

    def _infinite_chain_enaqt(self, op, out):
        bad = []
        if not out["truncation_delta"] < TRUNCATION_TOL:
            bad.append(f"truncation_delta {out['truncation_delta']!r}")
        if out["n_total"] != out["left"] + op["offset"] + out["right"]:
            bad.append("n_total != left + offset + right")
        if not (out["xi"] >= 0
                and abs(out["eta_max"] - out["eta0"] - out["xi"]) <= 1e-11):
            bad.append(f"xi {out['xi']!r} inconsistent")
        for gamma, eta in ((0.0, out["eta0"]),
                           (out["gamma_opt"], out["eta_max"])):
            ref = self.semi_infinite(op["kappa"], op["mu"], gamma,
                                     op["offset"], 2 * out["left"],
                                     2 * out["right"])
            if not abs(eta - ref) <= TRUNCATION_TOL:
                bad.append(f"eta {eta!r} vs oracle {ref!r} at twice the "
                           f"truncation, gamma={gamma!r}")
        return bad

    def _optimize_dephasing(self, op, out):
        return self._optimum("optimize_dephasing", op, op["kappa"], op["mu"],
                             out["eta0"], out["eta_max"], out["gamma_opt"],
                             out["xi"])

    def _efficiency_curve(self, op, out):
        bad = []
        if [g for g, _ in out] != op["gammas"]:
            bad.append("curve gammas differ from the input")
        for g, eta in out:
            bad += self._point("efficiency_curve", op, op["kappa"], op["mu"],
                               g, eta)
        return bad

    def _efficiency_direct(self, op, out):
        bad = self._point("efficiency_direct", op, op["kappa"], op["mu"],
                          op["gamma"], out["eta"], out["eta_loss"])
        if out["method"] not in METHODS:
            bad.append(f"unknown method {out['method']!r}")
        return bad
