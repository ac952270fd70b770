"""Command-line front end: batch runs with CSV/JSON output.

Subcommands map one-to-one onto the library layer:

    efficiency -> efficiency_direct       (one point)
    curve      -> EigenbasisSteadySolver  (one solver, one call for the grid)
    optimize   -> optimize_dephasing      (gamma_opt, xi)
    sweep      -> plane_sweep             (long-form rows, one per cell)
    table      -> max_enaqt               (all trap/init pairs for one N)
    infinite   -> infinite_chain_enaqt

_COMMANDS holds one row per subcommand: its help, the fields it accepts
and the fields it requires.  The fields are RunConfig's, and each flag
takes its type, or its choices, from the field's annotation.  Parameters
may come from flags or from a key=value config file (--config): each line
of the file becomes the flag it names, placed before the command line's
flags and parsed by the same subparser, so config values meet the same
checks as flags (a bad one exits 2 with argparse's message), and flags
win.

A record is the echoed inputs, then the library's result field by field
(EfficiencyReport for efficiency and curve, EnaqtResult for optimize,
InfiniteChainResult for infinite), then the package version.  efficiency
and curve run the solver's one point path (solve, certify, fall back), so
each row carries its method and certified residual.

Site labels are 1-based here, matching the human-facing convention used
everywhere in the analysis layer.  Output goes to stdout or, with
--output, to a file written atomically (temp + rename).  Numbers are
serialized with 12 significant digits, and identical configurations
produce byte-identical output regardless of worker count.

Exit codes: 0 success, 2 validation or usage, 3 solver failure
(singular system, or a trajectory off its probability budget), 4
truncation not converged, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, fields
from typing import Literal, NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .analysis import (
    _pool_map,
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
from .model import SystemSpec, Topology, _check_site_count, _geometry_spec
from .solver import (
    EfficiencyReport,
    EigenbasisSteadySolver,
    efficiency_direct,
)

__all__ = ["RunConfig", "parse_config", "run", "emit", "main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_TRUNCATION = 4
EXIT_IO = 5


@dataclass
class RunConfig:
    """Validated parameters for one CLI invocation.  Each field's flag
    takes its type, or its choices (a Literal), from the annotation."""

    subcommand: str
    topology: Literal["chain", "ring", "semi-infinite"] = "chain"
    n: int | None = None
    trap: int | None = None
    init: int | None = None
    kappa: float | None = None
    mu: float | None = None
    gamma: float | None = None
    gamma_min: float = 1e-3
    gamma_max: float = 1e3
    gamma_points: int = 64
    gamma_scale: Literal["log", "linear"] = "log"
    kappa_min: float = 1e-4
    kappa_max: float = 1e2
    kappa_points: int = 48
    mu_min: float = 1e-4
    mu_max: float = 1e2
    mu_points: int = 48
    scale: Literal["log", "linear"] = "log"
    offset: int = 1
    workers: int | None = None
    output: str | None = None
    format: Literal["csv", "json"] = "csv"


class _Command(NamedTuple):
    """One subcommand: its help, the fields it accepts from flags or a
    config file (besides _COMMON) and the fields it requires."""

    help: str
    accepts: tuple
    requires: tuple


_COMMON = ("output", "format")
_COMMANDS = {
    "efficiency": _Command(
        "solve one (topology, rates) point for eta, eta_loss",
        ("topology", "n", "trap", "init", "kappa", "mu", "gamma"),
        ("n", "trap", "init", "kappa", "mu", "gamma")),
    "curve": _Command(
        "eta over a gamma grid (gamma = 0 prepended)",
        ("topology", "n", "trap", "init", "kappa", "mu", "gamma_min",
         "gamma_max", "gamma_points", "gamma_scale"),
        ("n", "trap", "init", "kappa", "mu")),
    "optimize": _Command(
        "gamma_opt, eta_max, xi for fixed kappa, mu",
        ("topology", "n", "trap", "init", "kappa", "mu"),
        ("n", "trap", "init", "kappa", "mu")),
    "sweep": _Command(
        "optimize every cell of a (kappa, mu) grid",
        ("topology", "n", "trap", "init", "kappa_min", "kappa_max",
         "kappa_points", "mu_min", "mu_max", "mu_points", "scale", "offset",
         "workers"),
        ("n", "trap", "init")),
    "table": _Command(
        "max ENAQT for every trap/init pair of an N-site chain",
        ("n", "workers"), ("n",)),
    "infinite": _Command(
        "ENAQT next to the trapped half of an infinite chain",
        ("kappa", "mu", "offset"), ("kappa", "mu")),
}


def _flag(hint) -> dict:
    """argparse keywords for a RunConfig annotation: the choices of a
    Literal, else the type (of an optional one, the type it wraps)."""
    if get_origin(hint) is Literal:
        return {"choices": get_args(hint)}
    return {"type": next(t for t in (*get_args(hint), hint)
                         if t is not type(None))}


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
    hints = get_type_hints(RunConfig)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for field in command.accepts + _COMMON:
            p.add_argument("--" + field.replace("_", "-"),
                           **_flag(hints[field]))
        p.add_argument("--config", metavar="FILE",
                       help="key=value file; flags override its values")
    return parser


def _load_config_file(path: str, sub: str) -> list:
    """The lines of a key = value config file as the flags of `sub` they
    name (--key=value); a key that `sub` does not accept is an error."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}")
    flags = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(
                f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _COMMANDS[sub].accepts + _COMMON:
            raise ValidationError(
                f"config key {key!r} is not accepted by '{sub}'")
        flags.append("--" + key.replace("_", "-") + "=" + val.strip())
    return flags


def parse_config(argv=None) -> RunConfig:
    """Tokens (sys.argv[1:] when None) -> validated RunConfig.  The flags
    of a --config file go right after the subcommand, before the tokens'
    own flags, and the same subparser parses them all: config values meet
    the checks of flags, and flags win."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.config:
        at = argv.index(ns.subcommand) + 1
        ns = parser.parse_args(argv[:at]
                               + _load_config_file(ns.config, ns.subcommand)
                               + argv[at:])
    cfg = RunConfig(**{key: val for key, val in vars(ns).items()
                       if val is not None and key != "config"})
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    """The checks that no library function makes: the flags a subcommand
    requires, table's n (before its pairs are built), the subcommands
    that take the semi-infinite topology, and a gamma grid of at least
    one point besides curve's gamma = 0.  The library checks the rest
    (rates, sites, grids, workers) where it first reads them."""
    semi = cfg.topology == Topology.SEMI_INFINITE.value
    required = (() if semi and cfg.subcommand == "sweep"
                else _COMMANDS[cfg.subcommand].requires)
    missing = [k for k in required if getattr(cfg, k) is None]
    if missing:
        raise ValidationError(
            f"'{cfg.subcommand}' needs {', '.join('--' + m for m in missing)}")
    if cfg.subcommand == "table":
        _check_site_count(Topology.CHAIN, cfg.n)
    if semi and cfg.subcommand != "sweep":
        raise ValidationError(
            "semi-infinite topology is available for 'sweep' and "
            "'infinite' only")
    if cfg.gamma_points < 1:
        raise ValidationError("gamma_points must be >= 1")


def _spec(cfg: RunConfig, gamma: float = 0.0) -> SystemSpec:
    return _geometry_spec(cfg.topology, cfg.n, cfg.trap, cfg.init,
                          kappa=cfg.kappa, mu=cfg.mu, gamma=gamma)


def _grid(cfg: RunConfig, axis: str, scale: str) -> list:
    """The grid of cfg's axis_min, axis_max and axis_points: [axis_min]
    for one point, none for fewer (an empty grid, which the library
    rejects); a log grid of two or more points needs both bounds finite
    and > 0."""
    lo, hi = getattr(cfg, f"{axis}_min"), getattr(cfg, f"{axis}_max")
    count = getattr(cfg, f"{axis}_points")
    if count <= 1:
        return [float(lo)] * count
    if scale == "linear":
        return list(np.linspace(lo, hi, count))
    for end, bound in (("min", lo), ("max", hi)):
        if not 0.0 < bound < math.inf:
            raise ValidationError(
                f"{axis}_grid must be finite and > 0 on a log scale, got "
                f"{axis}_{end}={bound!r}")
    return list(np.geomspace(lo, hi, count))


def _echo(cfg: RunConfig, *names) -> dict:
    return {name: getattr(cfg, name) for name in names}


def _table_job(args):
    return max_enaqt("chain", *args)


def run(cfg: RunConfig) -> list:
    """Execute the configured subcommand; returns flat output records:
    the echoed inputs, then the library's result, then the version."""
    sub = cfg.subcommand
    point = _echo(cfg, "topology", "n", "trap", "init", "kappa", "mu")
    if sub == "efficiency":
        records = [{**point, "gamma": cfg.gamma,
                    **asdict(efficiency_direct(_spec(cfg, cfg.gamma)))}]
    elif sub == "curve":
        gammas = [0.0] + _grid(cfg, "gamma", cfg.gamma_scale)
        solver = EigenbasisSteadySolver(_spec(cfg))
        etas, losses, resids, methods = solver.efficiencies(gammas)
        if solver.failed:
            raise solver.failed[0]
        # each point's report by EfficiencyReport's field names: an
        # asdict of one report a point cost 125 us more a 13-point curve
        names = [field.name for field in fields(EfficiencyReport)]
        records = [{**point, "gamma": g, **dict(zip(names, rep))}
                   for g, *rep in zip(gammas, etas.tolist(), losses.tolist(),
                                      methods, resids.tolist())]
    elif sub == "optimize":
        records = [{**point, **asdict(optimize_dephasing(_spec(cfg))),
                    "method": "optimize_dephasing"}]
    elif sub == "sweep":
        pm = plane_sweep(
            cfg.topology, cfg.n, cfg.trap, cfg.init,
            kappa_grid=_grid(cfg, "kappa", cfg.scale),
            mu_grid=_grid(cfg, "mu", cfg.scale),
            offset=cfg.offset, workers=cfg.workers)
        where = (_echo(cfg, "topology", "offset")
                 if cfg.topology == Topology.SEMI_INFINITE.value
                 else _echo(cfg, "topology", "n", "trap", "init"))
        records = [{**where, "kappa": float(kv), "mu": float(mv),
                    **{key: None if (i, j) in pm.errors
                       else float(getattr(pm, key)[i, j])
                       for key in ("eta0", "xi", "gamma_opt")},
                    "error": pm.errors.get((i, j), "")}
                   for i, kv in enumerate(pm.kappa_grid)
                   for j, mv in enumerate(pm.mu_grid)]
    elif sub == "table":
        pairs = [(trap, init) for trap in range(1, (cfg.n + 1) // 2 + 1)
                 for init in range(1, cfg.n + 1) if init != trap]
        best = _pool_map(_table_job, [(cfg.n, *pair) for pair in pairs],
                         cfg.workers)
        records = [{"topology": "chain", "n": cfg.n, "trap": trap,
                    "init": init, "xi_max": res.xi, "kappa_star": res.kappa,
                    "mu_star": res.mu}
                   for (trap, init), res in zip(pairs, best)]
    elif sub == "infinite":
        records = [{"topology": Topology.SEMI_INFINITE.value,
                    **_echo(cfg, "kappa", "mu", "offset"),
                    **asdict(infinite_chain_enaqt(cfg.kappa, cfg.mu,
                                                  cfg.offset))}]
    else:
        raise ValidationError(f"unknown subcommand {sub!r}")
    return [{**rec, "version": __version__} for rec in records]


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
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv)
        emit(run(cfg), cfg.format, cfg.output)
    except SystemExit as exc:
        # argparse handled --help (0) or a usage error (2) itself.
        return int(exc.code or 0)
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
