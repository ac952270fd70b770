"""Command-line interface tests."""

import argparse
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import typing

import numpy as np
import pytest

import enaqt
from enaqt import ValidationError, analysis, cli, infinite_chain_enaqt
from enaqt.cli import main, parse_config, render, run


def _run_capture(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


OPTIMIZE_ARGS = ["optimize", "--topology", "chain", "--n", "3",
                 "--trap", "1", "--init", "2",
                 "--kappa", "0.1", "--mu", "0.01"]


def test_parse_optimize_flags():
    cfg = parse_config(OPTIMIZE_ARGS)
    assert cfg.subcommand == "optimize"
    assert cfg.topology == "chain"
    assert (cfg.n, cfg.trap, cfg.init) == (3, 1, 2)
    assert (cfg.kappa, cfg.mu) == (0.1, 0.01)
    assert cfg.format == "csv"


def test_parse_defaults_for_curve():
    cfg = parse_config(["curve", "--n", "3", "--trap", "1", "--init", "2",
                        "--kappa", "0.1", "--mu", "0.01"])
    assert cfg.gamma_min == 1e-3
    assert cfg.gamma_max == 1e3
    assert cfg.gamma_points == 64
    assert cfg.gamma_scale == "log"


def test_missing_required_flag_is_validation_error(capsys):
    code, _, err = _run_capture(["optimize", "--n", "3", "--trap", "1",
                                 "--init", "2", "--kappa", "0.1"], capsys)
    assert code == cli.EXIT_VALIDATION
    assert "mu" in err


def test_coincident_sites_rejected(capsys):
    code, _, err = _run_capture(
        ["efficiency", "--n", "3", "--trap", "2", "--init", "2",
         "--kappa", "0.1", "--mu", "0.01", "--gamma", "0"], capsys)
    assert code == cli.EXIT_VALIDATION
    assert "coincident" in err


def test_negative_rate_rejected(capsys):
    code, _, err = _run_capture(
        ["efficiency", "--n", "3", "--trap", "1", "--init", "2",
         "--kappa", "-0.1", "--mu", "0.01", "--gamma", "0"], capsys)
    assert code == cli.EXIT_VALIDATION
    assert "negative rate" in err


def test_site_out_of_range_rejected(capsys):
    code, _, err = _run_capture(
        ["efficiency", "--n", "3", "--trap", "4", "--init", "2",
         "--kappa", "0.1", "--mu", "0.01", "--gamma", "0"], capsys)
    assert code == cli.EXIT_VALIDATION
    assert "site index" in err


def test_unknown_subcommand_exits_two(capsys):
    code, _, _ = _run_capture(["frobnicate"], capsys)
    assert code == cli.EXIT_VALIDATION


def test_singular_system_maps_to_solver_exit(capsys):
    # dark geometry: no dephasing, no loss, middle trap of an odd chain
    code, _, err = _run_capture(
        ["efficiency", "--n", "5", "--trap", "3", "--init", "1",
         "--kappa", "0.1", "--mu", "0", "--gamma", "0"], capsys)
    assert code == cli.EXIT_SOLVER
    assert err.strip()


def test_optimize_values_on_reference_point(capsys):
    code, out, _ = _run_capture(OPTIMIZE_ARGS + ["--format", "json"], capsys)
    assert code == 0
    (rec,) = json.loads(out)
    assert rec["gamma_opt"] == pytest.approx(0.319, abs=2e-3)
    assert rec["xi"] == pytest.approx(0.038, abs=1e-3)
    assert rec["eta0"] == pytest.approx(0.712896558083, abs=1e-9)
    assert rec["version"]


def test_efficiency_csv_round_trip(capsys):
    code, out, _ = _run_capture(
        ["efficiency", "--n", "3", "--trap", "1", "--init", "2",
         "--kappa", "0.1", "--mu", "0.01", "--gamma", "0.5"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    row = rows[0]
    # echoed parameters re-parse to the requested values
    assert float(row["kappa"]) == 0.1
    assert float(row["gamma"]) == 0.5
    assert int(row["n"]) == 3
    eta = float(row["eta"])
    assert float(row["eta_loss"]) == pytest.approx(1 - eta, abs=1e-9)


def test_curve_includes_zero_point(capsys):
    code, out, _ = _run_capture(
        ["curve", "--n", "3", "--trap", "1", "--init", "2",
         "--kappa", "0.1", "--mu", "0.01", "--gamma-points", "8"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 9
    assert float(rows[0]["gamma"]) == 0.0
    assert float(rows[0]["eta"]) == pytest.approx(0.712896558083, abs=1e-9)
    assert float(rows[1]["gamma"]) == pytest.approx(1e-3)
    assert float(rows[-1]["gamma"]) == pytest.approx(1e3)


def test_table_enumerates_inequivalent_geometries(capsys):
    code, out, _ = _run_capture(["table", "--n", "3"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["trap"], r["init"]) for r in rows] == [
        ("1", "2"), ("1", "3"), ("2", "1"), ("2", "3")]
    by_geom = {(r["trap"], r["init"]): float(r["xi_max"]) for r in rows}
    assert by_geom[("1", "2")] == pytest.approx(0.072, abs=1e-3)
    assert by_geom[("1", "3")] < 1e-6
    assert by_geom[("2", "1")] == pytest.approx(0.5, abs=5e-3)
    assert by_geom[("2", "3")] == pytest.approx(0.5, abs=5e-3)


def test_table_reports_rounding_noise_as_no_gain(capsys):
    # the mirror entries (trap 1, start N) have no gain; their best cells
    # once printed xi = 1.73e-19 for N=4, rounding noise on an eta of
    # 1e-15, and xi = 6.5e-19 for N=5, on an eta0 of 8.7e-17
    for n in (4, 5):
        _, out, _ = _run_capture(["table", "--n", str(n)], capsys)
        rows = {(r["trap"], r["init"]): r["xi_max"]
                for r in csv.DictReader(io.StringIO(out))}
        assert rows[("1", str(n))] == "0"


def test_table_worker_count_gives_identical_bytes(capsys):
    _, serial, _ = _run_capture(["table", "--n", "3", "--workers", "1"],
                                capsys)
    _, parallel, _ = _run_capture(["table", "--n", "3", "--workers", "2"],
                                  capsys)
    assert serial == parallel


def test_sweep_small_grid(capsys):
    code, out, _ = _run_capture(
        ["sweep", "--n", "3", "--trap", "1", "--init", "2",
         "--kappa-min", "0.01", "--kappa-max", "1", "--kappa-points", "2",
         "--mu-min", "0.01", "--mu-max", "1", "--mu-points", "2"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    assert all(r["error"] == "" for r in rows)
    assert {float(r["kappa"]) for r in rows} == {0.01, 1.0}


def test_sweep_non_finite_bound_is_validation_error(capsys):
    # a NaN bound is invalid input, not a failure of every cell
    code, out, err = _run_capture(
        ["sweep", "--n", "3", "--trap", "1", "--init", "2",
         "--kappa-min", "nan", "--kappa-points", "2", "--mu-points", "2"],
        capsys)
    assert code == 2
    assert out == ""
    assert "kappa_grid must be finite" in err


_CURVE = ["curve", "--n", "3", "--trap", "1", "--init", "2", "--kappa", "1",
          "--mu", "0.1", "--gamma-points", "3"]
_SWEEP = ["sweep", "--n", "3", "--trap", "1", "--init", "2",
          "--kappa-points", "2", "--mu-points", "2"]


@pytest.mark.parametrize("argv, bound", [
    (_CURVE + ["--gamma-max", "0"], "gamma_max=0.0"),
    (_CURVE + ["--gamma-max", "-5"], "gamma_max=-5.0"),
    (_CURVE + ["--gamma-min", "inf"], "gamma_min=inf"),
    (_SWEEP + ["--kappa-max", "0"], "kappa_max=0.0"),
    (_SWEEP + ["--kappa-max", "-1"], "kappa_max=-1.0"),
    (_SWEEP + ["--mu-min", "-0.5"], "mu_min=-0.5"),
])
def test_log_grid_bound_not_positive_is_validation_error(argv, bound,
                                                         capsys):
    # a log grid needs both bounds finite and > 0; the error names the
    # bound, before any numpy warning or solve
    code, out, err = _run_capture(argv, capsys)
    assert code == cli.EXIT_VALIDATION
    assert out == ""
    assert f"must be finite and > 0 on a log scale, got {bound}" in err


def test_sweep_on_a_two_site_ring_exits_two(capsys):
    # an invalid geometry is invalid input, as for optimize, not an
    # error row for every cell
    code, out, err = _run_capture(
        ["sweep", "--topology", "ring", "--n", "2", "--trap", "1",
         "--init", "2", "--kappa-points", "2", "--mu-points", "2"], capsys)
    assert code == cli.EXIT_VALIDATION
    assert out == ""
    assert "ring needs at least 3 sites" in err


@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_table_of_fewer_than_two_sites_exits_two(n, capsys):
    code, out, err = _run_capture(["table", "--n", n], capsys)
    assert code == cli.EXIT_VALIDATION
    assert out == ""
    assert "chain needs at least 2 sites" in err


def test_linear_grids_are_evenly_spaced():
    curve = run(parse_config(_CURVE + [
        "--gamma-scale", "linear", "--gamma-min", "0.5", "--gamma-max", "2",
        "--gamma-points", "4"]))
    assert [row["gamma"] for row in curve] == [0.0] + list(
        np.linspace(0.5, 2.0, 4))
    sweep = run(parse_config(_SWEEP + [
        "--scale", "linear", "--kappa-min", "0.1", "--kappa-max", "1",
        "--kappa-points", "3", "--mu-min", "0.1", "--mu-max", "0.5"]))
    assert [(row["kappa"], row["mu"]) for row in sweep] == [
        (k, m) for k in np.linspace(0.1, 1.0, 3) for m in (0.1, 0.5)]


def test_one_point_gamma_grid_is_gamma_min():
    curve = run(parse_config(_CURVE + ["--gamma-points", "1",
                                       "--gamma-min", "0.2"]))
    assert [row["gamma"] for row in curve] == [0.0, 0.2]


@pytest.mark.parametrize("argv, message", [
    (_CURVE + ["--gamma-points", "0"], "gamma_points must be >= 1"),
    (_SWEEP + ["--workers", "0"], "workers must be >= 1, got 0"),
    (["efficiency", "--topology", "semi-infinite", "--n", "3", "--trap",
      "1", "--init", "2", "--kappa", "1", "--mu", "0.1", "--gamma", "0"],
     "semi-infinite topology is available for 'sweep' and 'infinite' "
     "only"),
])
def test_bad_counts_and_topology_exit_two(argv, message, capsys):
    code, out, err = _run_capture(argv, capsys)
    assert code == cli.EXIT_VALIDATION
    assert out == ""
    assert message in err


def test_output_file_written_atomically(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = _run_capture(
        OPTIMIZE_ARGS + ["--output", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert target.exists()
    leftovers = [p for p in os.listdir(tmp_path) if p != "out.csv"]
    assert leftovers == []
    rows = list(csv.DictReader(target.open()))
    assert len(rows) == 1


def test_unwritable_output_maps_to_io_exit(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "out.csv"
    code, _, err = _run_capture(
        OPTIMIZE_ARGS + ["--output", str(missing)], capsys)
    assert code == cli.EXIT_IO
    assert err.strip()


def test_config_file_supplies_values(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# reference geometry\n"
        "n = 3\n"
        "trap = 1\n"
        "init = 2\n"
        "kappa = 0.1\n"
        "mu = 0.01\n")
    cfg = parse_config(["optimize", "--config", str(cfgfile)])
    assert (cfg.n, cfg.trap, cfg.init) == (3, 1, 2)
    assert cfg.kappa == 0.1


def test_flags_override_config_file(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("n = 3\ntrap = 1\ninit = 2\nkappa = 0.1\nmu = 0.01\n")
    cfg = parse_config(["optimize", "--config", str(cfgfile),
                        "--kappa", "0.7"])
    assert cfg.kappa == 0.7
    assert cfg.mu == 0.01


def test_config_file_hyphen_keys(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("n=3\ntrap=1\ninit=2\nkappa=0.1\nmu=0.01\n"
                       "gamma-points = 8\n")
    cfg = parse_config(["curve", "--config", str(cfgfile)])
    assert cfg.gamma_points == 8


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("n=3\ntrap=1\ninit=2\nkappa=0.1\nmu=0.01\n"
                       "gamma-points = 8\n")
    # gamma_points is not a parameter of the optimize subcommand
    code, _, err = _run_capture(
        ["optimize", "--config", str(cfgfile)], capsys)
    assert code == cli.EXIT_VALIDATION
    assert "gamma" in err


def test_json_rendering_rounds_and_nulls():
    records = [{"a": 0.123456789012345678, "b": float("nan"), "c": None,
                "d": "text", "e": 3}]
    parsed = json.loads(render(records, "json"))
    assert parsed[0]["a"] == 0.123456789012
    assert parsed[0]["b"] is None
    assert parsed[0]["c"] is None
    assert parsed[0]["d"] == "text"
    assert parsed[0]["e"] == 3


def test_csv_rendering_formats_floats():
    text = render([{"x": 1 / 3, "y": None, "z": "ok"}], "csv")
    assert text.splitlines() == ["x,y,z", "0.333333333333,,ok"]
    assert "\r" not in text


def test_run_returns_plain_records():
    cfg = parse_config(["efficiency", "--n", "3", "--trap", "1",
                        "--init", "2", "--kappa", "0.1", "--mu", "0.01",
                        "--gamma", "0"])
    (rec,) = run(cfg)
    assert rec["eta"] == pytest.approx(0.7128965580831489, abs=1e-9)
    assert rec["method"] == "direct-eigenbasis"


def test_version_flag(capsys):
    code, out, _ = _run_capture(["--version"], capsys)
    assert code == 0
    assert out.strip()


def test_consecutive_parses_do_not_share_values(tmp_path):
    # the parser is built once per process; no value may carry over from
    # one call to the next
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("n=4\ntrap=1\ninit=3\nkappa=0.2\nmu=0.05\n"
                       "gamma-points = 8\n")
    curve = parse_config(["curve", "--config", str(cfgfile),
                          "--gamma-max", "10"])
    efficiency = parse_config(["efficiency", "--n", "3", "--trap", "2",
                               "--init", "1", "--kappa", "0.1",
                               "--mu", "0.01", "--gamma", "0.5"])
    assert (curve.subcommand, curve.n, curve.trap, curve.init) == (
        "curve", 4, 1, 3)
    assert (curve.kappa, curve.mu) == (0.2, 0.05)
    assert (curve.gamma_points, curve.gamma_max, curve.gamma) == (8, 10.0,
                                                                  None)
    assert (efficiency.subcommand, efficiency.n, efficiency.trap,
            efficiency.init) == ("efficiency", 3, 2, 1)
    assert (efficiency.kappa, efficiency.mu, efficiency.gamma) == (
        0.1, 0.01, 0.5)
    assert (efficiency.gamma_points, efficiency.gamma_max) == (64, 1e3)
    again = parse_config(["curve", "--n", "5", "--trap", "1", "--init", "2",
                          "--kappa", "1", "--mu", "1"])
    assert (again.n, again.gamma_points, again.gamma_max) == (5, 64, 1e3)
    with pytest.raises(ValidationError, match="--mu"):
        parse_config(["optimize", "--n", "3", "--trap", "1", "--init", "2",
                      "--kappa", "0.1"])


INFINITE_ARGS = ["infinite", "--kappa", "6.3", "--mu", "0.5",
                 "--offset", "2"]
INFINITE_FIELDS = ["topology", "kappa", "mu", "offset", "eta0", "eta_max",
                   "gamma_opt", "xi", "left", "right", "n_total",
                   "truncation_delta", "method", "version"]


def test_infinite_csv_fields(capsys):
    code, out, _ = _run_capture(INFINITE_ARGS, capsys)
    assert code == cli.EXIT_OK
    (row,) = list(csv.DictReader(io.StringIO(out)))
    assert list(row) == INFINITE_FIELDS
    assert row["topology"] == "semi-infinite" and row["offset"] == "2"
    assert int(row["n_total"]) == (int(row["left"]) + 2 + int(row["right"]))
    assert float(row["truncation_delta"]) < 1e-4
    assert row["method"] == "direct-eigenbasis"


def test_infinite_json_matches_library(capsys):
    code, out, _ = _run_capture(INFINITE_ARGS + ["--format", "json"], capsys)
    assert code == cli.EXIT_OK
    (rec,) = json.loads(out)
    assert list(rec) == INFINITE_FIELDS
    res = infinite_chain_enaqt(6.3, 0.5, 2)
    assert rec["n_total"] == rec["left"] + rec["offset"] + rec["right"]
    assert (rec["left"], rec["right"], rec["n_total"]) == (
        res.left, res.right, res.n_total)
    for name in ("eta0", "eta_max", "gamma_opt", "xi", "truncation_delta"):
        assert rec[name] == pytest.approx(getattr(res, name), rel=1e-11)


def test_infinite_mu_below_cutoff_exits_two(capsys):
    code, out, err = _run_capture(
        ["infinite", "--kappa", "6.3", "--mu", "0.05"], capsys)
    assert code == cli.EXIT_VALIDATION
    assert out == "" and "cutoff" in err


def test_infinite_site_cap_exits_four(monkeypatch, capsys):
    monkeypatch.setattr(analysis, "SITE_CAP_INFINITE", 10)
    code, out, err = _run_capture(INFINITE_ARGS, capsys)
    assert code == cli.EXIT_TRUNCATION
    assert out == "" and "truncation error" in err


def test_importing_the_cli_does_not_load_scipy_integrate():
    # nothing in the package needs scipy.integrate; loading it with the
    # package would add about a quarter second and 18 MB to every start
    src = os.path.dirname(os.path.dirname(enaqt.__file__))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, enaqt, enaqt.cli; "
         "print('scipy.integrate' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, check=True).stdout
    assert loaded == "False\n"


def _per_gamma_rows(cfg):
    """The curve as one efficiency call per gamma, as (eta, eta_loss,
    method) rows: the oracle of the batched curve."""
    solver = enaqt.EigenbasisSteadySolver(cli._spec(cfg))
    return [solver.efficiency(row["gamma"]) for row in run(cfg)]


@pytest.mark.parametrize("argv", [
    ["--topology", "chain", "--n", "8", "--trap", "1", "--init", "3",
     "--kappa", "1", "--mu", "0.1"],
    ["--topology", "ring", "--n", "6", "--trap", "1", "--init", "3",
     "--kappa", "3", "--mu", "0.01", "--gamma-points", "12"],
    # the map-free kernel, in chunks of one rate
    ["--topology", "chain", "--n", "20", "--trap", "1", "--init", "2",
     "--kappa", "3", "--mu", "0.1", "--gamma-points", "6"],
], ids=["chain8", "ring6", "chain20"])
def test_curve_is_one_batched_call_with_per_gamma_rows(argv, monkeypatch):
    cfg = parse_config(["curve", *argv])
    points = enaqt.EigenbasisSteadySolver._points
    calls = []

    def counting(self, gammas, *args, **kwargs):
        calls.append(gammas.shape)
        return points(self, gammas, *args, **kwargs)

    monkeypatch.setattr(enaqt.EigenbasisSteadySolver, "_points", counting)
    rows = run(cfg)
    assert calls == [(1, cfg.gamma_points + 1)]
    monkeypatch.undo()
    for row, (eta, eta_loss, resid, method) in zip(rows,
                                                    _per_gamma_rows(cfg)):
        assert row["eta"] == pytest.approx(eta, abs=1e-12)
        assert row["eta_loss"] == pytest.approx(eta_loss, abs=1e-12)
        assert row["method"] == method == "direct-eigenbasis"
        assert row["residual"] <= 1e-10


def test_curve_reports_the_method_of_a_redone_point(monkeypatch):
    # one point of the batch fails certification and ends on the sparse
    # LU; only its row says so
    cfg = parse_config(["curve", "--topology", "chain", "--n", "6",
                        "--trap", "1", "--init", "3", "--kappa", "0.4",
                        "--mu", "0.02", "--gamma-points", "5",
                        "--gamma-min", "0.01", "--gamma-max", "100"])
    certify = enaqt.EigenbasisSteadySolver._certify
    bad = float(np.geomspace(0.01, 100.0, 5)[2])  # gamma = 1

    def failing(self, xs, pops, g2, a, rhs, bnorm):
        eta, eta_loss, resid, certified = certify(self, xs, pops, g2, a, rhs,
                                                  bnorm)
        hit = np.reshape(g2, np.shape(certified)) == 2.0 * bad
        return eta, eta_loss, resid, certified & ~hit

    monkeypatch.setattr(enaqt.EigenbasisSteadySolver, "_certify", failing)
    rows = run(cfg)
    assert [r["method"] for r in rows] == (
        ["direct-eigenbasis"] * 3 + ["direct-sparse"]
        + ["direct-eigenbasis"] * 2)
    assert rows[3]["gamma"] == bad
    for row, (eta, eta_loss, _, method) in zip(rows, _per_gamma_rows(cfg)):
        assert row["eta"] == pytest.approx(eta, abs=1e-12)
        assert row["eta_loss"] == pytest.approx(eta_loss, abs=1e-12)
        assert row["method"] == method


@pytest.mark.parametrize("command, line, message", [
    (OPTIMIZE_ARGS, "format = xml",
     "argument --format: invalid choice: 'xml' (choose from 'csv', 'json')"),
    (_CURVE, "gamma_scale = cubic",
     "argument --gamma-scale: invalid choice: 'cubic' "
     "(choose from 'log', 'linear')"),
    (OPTIMIZE_ARGS, "topology = blob",
     "argument --topology: invalid choice: 'blob' "
     "(choose from 'chain', 'ring', 'semi-infinite')"),
    (OPTIMIZE_ARGS, "n = x", "argument --n: invalid int value: 'x'"),
], ids=["format", "gamma_scale", "topology", "n"])
def test_config_values_meet_the_checks_of_flags(command, line, message,
                                                tmp_path, capsys):
    # a config line is parsed as the flag it names: a bad value exits 2
    # with the message the flag gives
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(line + "\n")
    code, out, err = _run_capture(command[:1] + ["--config", str(cfgfile)],
                                  capsys)
    assert (code, out) == (cli.EXIT_VALIDATION, "")
    assert err.endswith(f"error: {message}\n")
    key, _, val = (part.strip() for part in line.partition("="))
    flag = "--" + key.replace("_", "-")
    assert _run_capture(command + [flag, val], capsys) == (code, out, err)


def test_config_file_not_utf8_exits_two(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_bytes(b"n = 3\nkappa = \xff\n")
    code, out, err = _run_capture(["optimize", "--config", str(cfgfile)],
                                  capsys)
    assert (code, out) == (cli.EXIT_VALIDATION, "")
    assert err.startswith(f"error: cannot read config file {cfgfile}: ")


def _subparsers():
    (action,) = [a for a in cli._build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_each_subcommand_parses_its_table_row():
    # the flags of a subcommand are its row's fields plus output, format
    # and config, each typed (or given choices) by its RunConfig annotation
    hints = typing.get_type_hints(cli.RunConfig)
    subparsers = _subparsers()
    assert list(subparsers) == list(cli._COMMANDS)
    for name, parser in subparsers.items():
        flags = {a.dest: a for a in parser._actions if a.option_strings
                 and a.dest != "help"}
        fields = cli._COMMANDS[name].accepts + ("output", "format")
        assert list(flags) == [*fields, "config"]
        assert set(cli._COMMANDS[name].requires) <= set(fields)
        for field in fields:
            hint, action = hints[field], flags[field]
            assert action.option_strings == ["--" + field.replace("_", "-")]
            if typing.get_origin(hint) is typing.Literal:
                assert (action.type, tuple(action.choices)) == (
                    None, typing.get_args(hint))
            else:
                assert action.choices is None
                assert action.type in (hint, *typing.get_args(hint))
                assert action.type is not type(None)
        assert (flags["config"].type, flags["config"].metavar) == (None,
                                                                   "FILE")


def test_topology_choices_are_the_model_topologies():
    hint = typing.get_type_hints(cli.RunConfig)["topology"]
    assert typing.get_args(hint) == tuple(t.value for t in enaqt.Topology)


def test_records_are_echoed_inputs_plus_the_library_result():
    cfg = parse_config(["efficiency", "--n", "4", "--trap", "1",
                        "--init", "3", "--kappa", "0.2", "--mu", "0.05",
                        "--gamma", "0.5"])
    report = enaqt.efficiency_direct(enaqt.SystemSpec(
        "chain", 4, (0,), 2, kappa=0.2, mu=0.05, gamma=0.5))
    assert run(cfg) == [{
        "topology": "chain", "n": 4, "trap": 1, "init": 3, "kappa": 0.2,
        "mu": 0.05, "gamma": 0.5, **dataclasses.asdict(report),
        "version": enaqt.__version__}]


def test_module_entry_point_prints_csv():
    # python -m enaqt.cli reads its tokens from sys.argv (main(None)), as
    # the enaqt console script does
    src = os.path.dirname(os.path.dirname(enaqt.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "enaqt.cli", "efficiency", "--n", "3",
         "--trap", "1", "--init", "2", "--kappa", "0.1", "--mu", "0.01",
         "--gamma", "0.5"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    (row,) = csv.DictReader(io.StringIO(proc.stdout))
    assert (row["n"], row["gamma"], row["method"]) == (
        "3", "0.5", "direct-eigenbasis")
    assert 0.0 < float(row["eta"]) < 1.0
