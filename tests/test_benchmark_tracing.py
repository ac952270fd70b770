"""The benchmark's traced mode (`perfbench/run.py --trace 1`) wraps names
of the program by their string paths; this checks that they still exist
and still record spans."""

import importlib.util
import pathlib

import enaqt
import enaqt.cli
from enaqt import SystemSpec

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_solver_layers(capsys):
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        code = enaqt.cli.main(["efficiency", "--n", "4", "--trap", "1",
                               "--init", "3", "--kappa", "0.5",
                               "--mu", "0.1", "--gamma", "0.3"])
        enaqt.optimize_dephasing(SystemSpec("chain", 3, (0,), 1, 0.1, 0.01,
                                            0.0))
        # the gamma-grid layer: optimize_dephasing scans on its solver's
        # own eta_grid, efficiency_curve still goes through this function
        enaqt.efficiency_curve(SystemSpec("chain", 3, (0,), 1, 0.1, 0.01,
                                          0.0), [0.0, 1.0])
    finally:
        tracer.uninstall()
    assert code == 0
    assert "direct-eigenbasis" in capsys.readouterr().out
    metrics = tracer.layer_metrics()
    assert metrics["solver.efficiency_direct.calls"] == 1
    assert metrics["solver.eigenbasis_efficiency.calls"] >= 1
    assert metrics["analysis.optimize_dephasing.calls"] == 1
    assert metrics["solver.efficiency_gamma_grid.calls"] >= 1
    # uninstall restores every wrapped name
    assert not hasattr(enaqt.cli.main, "__wrapped__")
    assert not hasattr(enaqt.solver.efficiency_direct, "__wrapped__")
    assert not hasattr(enaqt.solver.EigenbasisSteadySolver.efficiency,
                       "__wrapped__")
