"""Command-line front end: batch runs with CSV/JSON output.

Subcommands map one-to-one onto the library layer:

    efficiency -> efficiency_direct       (one point)
    curve      -> EigenbasisSteadySolver  (one solver, efficiency per gamma)
    optimize   -> optimize_dephasing      (gamma_opt, xi)
    sweep      -> plane_sweep             (long-form rows, one per cell)
    table      -> max_enaqt               (all trap/init pairs for one N)
    infinite   -> infinite_chain_enaqt

efficiency and curve run the solver's one point path (solve, certify,
fall back), so each row carries its method and certified residual.

Site labels are 1-based here, matching the human-facing convention used
everywhere in the analysis layer.  Parameters may come from flags or from
a key=value config file (--config); flags win.  Output goes to stdout or,
with --output, to a file written atomically (temp + rename).  Numbers are
serialized with 12 significant digits, and identical configurations
produce byte-identical output regardless of worker count.

Exit codes: 0 success, 2 validation or usage, 3 solver failure
(singular or stiff), 4 truncation not converged, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import multiprocessing
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import __version__
from .analysis import (
    infinite_chain_enaqt,
    max_enaqt,
    optimize_dephasing,
    plane_sweep,
)
from .errors import (
    SingularSystemError,
    StiffnessError,
    TruncationError,
    ValidationError,
)
from .model import SystemSpec, Topology
from .solver import EigenbasisSteadySolver, efficiency_direct

__all__ = ["RunConfig", "parse_config", "run", "emit", "main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_TRUNCATION = 4
EXIT_IO = 5


@dataclass
class RunConfig:
    """Validated parameters for one CLI invocation."""

    subcommand: str
    topology: str = "chain"
    n: int | None = None
    trap: int | None = None
    init: int | None = None
    kappa: float | None = None
    mu: float | None = None
    gamma: float | None = None
    gamma_min: float = 1e-3
    gamma_max: float = 1e3
    gamma_points: int = 64
    gamma_scale: str = "log"
    kappa_min: float = 1e-4
    kappa_max: float = 1e2
    kappa_points: int = 48
    mu_min: float = 1e-4
    mu_max: float = 1e2
    mu_points: int = 48
    scale: str = "log"
    offset: int = 1
    workers: int | None = None
    output: str | None = None
    format: str = "csv"


# Fields each subcommand accepts (from flags or config file) and requires.
_COMMON = ("output", "format")
_ACCEPTED = {
    "efficiency": ("topology", "n", "trap", "init", "kappa", "mu",
                   "gamma") + _COMMON,
    "curve": ("topology", "n", "trap", "init", "kappa", "mu", "gamma_min",
              "gamma_max", "gamma_points", "gamma_scale") + _COMMON,
    "optimize": ("topology", "n", "trap", "init", "kappa", "mu") + _COMMON,
    "sweep": ("topology", "n", "trap", "init", "kappa_min", "kappa_max",
              "kappa_points", "mu_min", "mu_max", "mu_points", "scale",
              "offset", "workers") + _COMMON,
    "table": ("n", "workers") + _COMMON,
    "infinite": ("kappa", "mu", "offset") + _COMMON,
}
_REQUIRED = {
    "efficiency": ("n", "trap", "init", "kappa", "mu", "gamma"),
    "curve": ("n", "trap", "init", "kappa", "mu"),
    "optimize": ("n", "trap", "init", "kappa", "mu"),
    "sweep": ("n", "trap", "init"),
    "table": ("n",),
    "infinite": ("kappa", "mu"),
}
_INT_FIELDS = {"n", "trap", "init", "gamma_points", "kappa_points",
               "mu_points", "offset", "workers"}
_FLOAT_FIELDS = {"kappa", "mu", "gamma", "gamma_min", "gamma_max",
                 "kappa_min", "kappa_max", "mu_min", "mu_max"}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser, built once per process: it holds no per-call
    state (no flag has a default), and building it costs more than a
    small solve."""
    parser = argparse.ArgumentParser(
        prog="enaqt",
        description="Trapping efficiency and ENAQT for tight-binding "
                    "chains and rings with dephasing and loss.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(p, *names):
        for name in names:
            flag = "--" + name.replace("_", "-")
            if name == "topology":
                p.add_argument(flag, choices=[t.value for t in Topology])
            elif name in ("gamma_scale", "scale"):
                p.add_argument(flag, choices=["log", "linear"])
            elif name == "format":
                p.add_argument(flag, choices=["csv", "json"])
            elif name in _INT_FIELDS:
                p.add_argument(flag, type=int)
            elif name in _FLOAT_FIELDS:
                p.add_argument(flag, type=float)
            else:
                p.add_argument(flag)
        p.add_argument("--config", metavar="FILE",
                       help="key=value file; flags override its values")

    descriptions = {
        "efficiency": "solve one (topology, rates) point for eta, eta_loss",
        "curve": "eta over a gamma grid (gamma = 0 prepended)",
        "optimize": "gamma_opt, eta_max, xi for fixed kappa, mu",
        "sweep": "optimize every cell of a (kappa, mu) grid",
        "table": "max ENAQT for every trap/init pair of an N-site chain",
        "infinite": "ENAQT next to the trapped half of an infinite chain",
    }
    for name, accepted in _ACCEPTED.items():
        add(sub.add_parser(name, help=descriptions[name]), *accepted)
    return parser


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}")
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(
                f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def _coerce(key: str, raw: str):
    try:
        if key in _INT_FIELDS:
            return int(raw)
        if key in _FLOAT_FIELDS:
            return float(raw)
    except ValueError:
        raise ValidationError(f"config value {key}={raw!r} is not a number")
    return raw


def parse_config(argv) -> RunConfig:
    """Tokens (plus optional --config file) -> validated RunConfig."""
    ns = _build_parser().parse_args(argv)
    sub = ns.subcommand
    accepted = set(_ACCEPTED[sub])
    cfg = RunConfig(subcommand=sub)
    if getattr(ns, "config", None):
        for key, raw in _load_config_file(ns.config).items():
            if key not in accepted:
                raise ValidationError(
                    f"config key {key!r} is not accepted by '{sub}'")
            setattr(cfg, key, _coerce(key, raw))
    for key in accepted:
        val = getattr(ns, key, None)
        if val is not None:
            setattr(cfg, key, val)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    required = _REQUIRED[cfg.subcommand]
    if (cfg.subcommand == "sweep"
            and cfg.topology == Topology.SEMI_INFINITE.value):
        required = ()
    missing = [k for k in required if getattr(cfg, k) is None]
    if missing:
        raise ValidationError(
            f"'{cfg.subcommand}' needs {', '.join('--' + m for m in missing)}")
    for key in ("kappa", "mu", "gamma"):
        val = getattr(cfg, key)
        if val is not None and (not math.isfinite(val) or val < 0):
            raise ValidationError(f"negative rate: {key} = {val!r}")
    if cfg.subcommand in ("efficiency", "curve", "optimize", "sweep"):
        if cfg.topology != Topology.SEMI_INFINITE.value:
            for key in ("trap", "init"):
                site = getattr(cfg, key)
                if not 1 <= site <= cfg.n:
                    raise ValidationError(
                        f"invalid site index: {key} = {site} "
                        f"outside 1..{cfg.n}")
            if cfg.trap == cfg.init:
                raise ValidationError(
                    f"coincident trap and initial site ({cfg.trap})")
        elif cfg.subcommand != "sweep":
            raise ValidationError(
                "semi-infinite topology is available for 'sweep' and "
                "'infinite' only")
    for key in ("gamma_points", "kappa_points", "mu_points"):
        if getattr(cfg, key) < 1:
            raise ValidationError(f"{key} must be >= 1")
    if cfg.workers is not None and cfg.workers < 1:
        raise ValidationError(f"workers must be >= 1, got {cfg.workers}")


def _spec(cfg: RunConfig, gamma: float = 0.0) -> SystemSpec:
    return SystemSpec(cfg.topology, cfg.n, (cfg.trap - 1,), cfg.init - 1,
                      kappa=cfg.kappa, mu=cfg.mu, gamma=gamma)


def _grid(lo, hi, count, scale):
    if count == 1:
        return [float(lo)]
    if scale == "linear":
        return list(np.linspace(lo, hi, count))
    if lo <= 0:
        raise ValidationError(f"log grid needs positive bounds, got {lo!r}")
    return list(np.geomspace(lo, hi, count))


def _table_job(args):
    n, trap, init = args
    res = max_enaqt("chain", n, trap, init)
    return res.xi, res.kappa, res.mu


def run(cfg: RunConfig) -> list:
    """Execute the configured subcommand; returns flat output records."""
    sub = cfg.subcommand
    if sub == "efficiency":
        rep = efficiency_direct(_spec(cfg, cfg.gamma))
        return [{
            "topology": cfg.topology, "n": cfg.n, "trap": cfg.trap,
            "init": cfg.init, "kappa": cfg.kappa, "mu": cfg.mu,
            "gamma": cfg.gamma,
            "eta": rep.eta, "eta_loss": rep.eta_loss,
            "method": rep.method, "residual": rep.residual,
            "version": __version__,
        }]
    if sub == "curve":
        gammas = [0.0] + _grid(cfg.gamma_min, cfg.gamma_max,
                               cfg.gamma_points, cfg.gamma_scale)
        solver = EigenbasisSteadySolver(_spec(cfg))
        records = []
        for g in gammas:
            eta, eta_loss, resid, method = solver.efficiency(g)[:4]
            records.append({
                "topology": cfg.topology, "n": cfg.n, "trap": cfg.trap,
                "init": cfg.init, "kappa": cfg.kappa, "mu": cfg.mu,
                "gamma": g,
                "eta": eta, "eta_loss": eta_loss,
                "method": method, "residual": resid,
                "version": __version__,
            })
        return records
    if sub == "optimize":
        res = optimize_dephasing(_spec(cfg))
        return [{
            "topology": cfg.topology, "n": cfg.n, "trap": cfg.trap,
            "init": cfg.init, "kappa": cfg.kappa, "mu": cfg.mu,
            "eta0": res.eta0, "eta_max": res.eta_max,
            "gamma_opt": res.gamma_opt, "xi": res.xi,
            "method": "optimize_dephasing", "version": __version__,
        }]
    if sub == "sweep":
        semi = cfg.topology == Topology.SEMI_INFINITE.value
        pm = plane_sweep(
            cfg.topology, cfg.n, cfg.trap, cfg.init,
            kappa_grid=_grid(cfg.kappa_min, cfg.kappa_max,
                             cfg.kappa_points, cfg.scale),
            mu_grid=_grid(cfg.mu_min, cfg.mu_max, cfg.mu_points, cfg.scale),
            offset=cfg.offset, workers=cfg.workers)
        records = []
        for i, kv in enumerate(pm.kappa_grid):
            for j, mv in enumerate(pm.mu_grid):
                err = pm.errors.get((i, j))
                rec = {"topology": cfg.topology}
                if semi:
                    rec["offset"] = cfg.offset
                else:
                    rec.update(n=cfg.n, trap=cfg.trap, init=cfg.init)
                rec.update(kappa=float(kv), mu=float(mv))
                if err is None:
                    rec.update(eta0=float(pm.eta0[i, j]),
                               xi=float(pm.xi[i, j]),
                               gamma_opt=float(pm.gamma_opt[i, j]))
                else:
                    rec.update(eta0=None, xi=None, gamma_opt=None)
                rec.update(error=err or "", version=__version__)
                records.append(rec)
        return records
    if sub == "table":
        jobs = [(cfg.n, trap, init)
                for trap in range(1, (cfg.n + 1) // 2 + 1)
                for init in range(1, cfg.n + 1) if init != trap]
        if cfg.workers is not None and cfg.workers > 1:
            with multiprocessing.Pool(cfg.workers) as pool:
                results = pool.map(_table_job, jobs)
        else:
            results = [_table_job(j) for j in jobs]
        return [{
            "topology": "chain", "n": n, "trap": trap, "init": init,
            "xi_max": xi, "kappa_star": kv, "mu_star": mv,
            "version": __version__,
        } for (n, trap, init), (xi, kv, mv) in zip(jobs, results)]
    if sub == "infinite":
        res = infinite_chain_enaqt(cfg.kappa, cfg.mu, cfg.offset)
        return [{
            "topology": Topology.SEMI_INFINITE.value,
            "kappa": cfg.kappa, "mu": cfg.mu, "offset": cfg.offset,
            "eta0": res.eta0, "eta_max": res.eta_max,
            "gamma_opt": res.gamma_opt, "xi": res.xi,
            "left": res.left, "right": res.right, "n_total": res.n_total,
            "truncation_delta": res.truncation_delta, "method": res.method,
            "version": __version__,
        }]
    raise ValidationError(f"unknown subcommand {sub!r}")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _json_value(value):
    if isinstance(value, float):
        if math.isnan(value):
            return None
        return float(f"{value:.12g}")
    return value


def render(records: list, fmt: str) -> str:
    """Records -> CSV (header + rows) or JSON array text."""
    if fmt == "json":
        cooked = [{k: _json_value(v) for k, v in rec.items()}
                  for rec in records]
        return json.dumps(cooked, indent=2) + "\n"
    buf = io.StringIO()
    header = list(records[0]) if records else []
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for rec in records:
        writer.writerow([_csv_cell(rec.get(k)) for k in header])
    return buf.getvalue()


def emit(records: list, fmt: str, path: str | None) -> None:
    """Write rendered records to stdout or atomically to a file."""
    text = render(records, fmt)
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".enaqt-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv)
    except SystemExit as exc:
        # argparse handled --help (0) or a usage error (2) itself.
        return int(exc.code or 0)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        records = run(cfg)
        emit(records, cfg.format, cfg.output)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (SingularSystemError, StiffnessError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except TruncationError as exc:
        print(f"truncation error: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
