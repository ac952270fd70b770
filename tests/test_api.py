"""The public API: each module lists its names once, and the package
joins the lists."""

import math
import types

import pytest

import enaqt
from enaqt import analysis, errors, model, solver
from enaqt import (
    EigenbasisSteadySolver,
    SystemSpec,
    ValidationError,
    average_population,
    chain_amplitude,
    dephased_efficiency_estimate,
    efficiency_curve,
    efficiency_direct,
    efficiency_gamma_grid,
    enaqt_estimate,
    eta3_closed_form,
    infinite_chain_enaqt,
    max_enaqt,
    no_enaqt_region,
    plane_sweep,
    propagate,
)

PUBLIC = {
    "__version__",
    # errors
    "EnaqtError", "SingularSystemError", "StiffnessError", "TruncationError",
    "ValidationError",
    # model
    "Superoperator", "SystemSpec", "Topology", "as_density_vec",
    "build_hamiltonian", "build_liouvillian", "semi_infinite_spec",
    # solver
    "EfficiencyReport", "EigenbasisSteadySolver", "Trajectory",
    "efficiency_direct", "efficiency_gamma_grid", "propagate",
    # analysis
    "EnaqtResult", "InfiniteChainResult", "MaxEnaqt", "PlaneMap",
    "average_population", "chain_amplitude", "circle_max_enaqt",
    "dephased_efficiency_estimate", "efficiency_curve", "enaqt_estimate",
    "eta3_closed_form", "infinite_chain_enaqt", "max_enaqt",
    "no_enaqt_region", "optimize_dephasing", "plane_sweep",
    "symmetry_split",
}


def test_package_list_joins_the_module_lists():
    modules = (errors, model, solver, analysis)
    assert enaqt.__all__ == ["__version__"] + [
        name for module in modules for name in module.__all__]
    assert len(set(enaqt.__all__)) == len(enaqt.__all__)


def test_every_public_name_resolves():
    for module in (errors, model, solver, analysis):
        for name in module.__all__:
            assert getattr(enaqt, name) is getattr(module, name)
    assert isinstance(enaqt.__version__, str)


def test_public_names_are_the_known_set():
    assert set(enaqt.__all__) == PUBLIC
    assert len(PUBLIC) == 36
    public = {name for name in vars(enaqt) if not name.startswith("_")}
    # the package also exposes its modules (cli once imported), and
    # nothing else
    assert {"analysis", "errors", "model", "solver"} <= public - PUBLIC
    assert all(isinstance(getattr(enaqt, name), types.ModuleType)
               for name in public - PUBLIC)


_CHAIN = SystemSpec("chain", 3, (0,), 1, 1.0, 0.1, 0.0)
_GRIDS = {"kappa_grid": [0.1], "mu_grid": [0.1]}


@pytest.mark.parametrize("call", [
    lambda: SystemSpec("blob", 3, (0,), 1, 1.0, 0.1, 0.0),
    lambda: max_enaqt("blob", 3, 1, 2),
    lambda: plane_sweep("blob", 3, 1, 2, **_GRIDS),
    lambda: average_population("blob", 3, 1, 2),
    lambda: SystemSpec("chain", 3, (0,), 1, 1.0, 0.1, "0.5"),
    lambda: SystemSpec("chain", 3, (0,), 1, None, 0.1, 0.0),
    lambda: SystemSpec("chain", 3, (0,), 1, [1.0, 2.0], 0.1, 0.0),
    lambda: EigenbasisSteadySolver(_CHAIN, ["a"]),
    lambda: EigenbasisSteadySolver(_CHAIN, [1, 2], [1, 2, 3]),
    lambda: efficiency_gamma_grid(_CHAIN, ["a"]),
    lambda: efficiency_curve(_CHAIN, ["a"]),
    lambda: plane_sweep("chain", 3, 1, 2, kappa_grid=["a"], mu_grid=[0.1]),
    lambda: EigenbasisSteadySolver(_CHAIN).eta("a"),
    lambda: EigenbasisSteadySolver(_CHAIN).efficiency([0.5, 0.6]),
    lambda: eta3_closed_form("a", 1, 1),
    lambda: no_enaqt_region(None, 1),
    lambda: propagate(_CHAIN, horizon="a"),
    lambda: infinite_chain_enaqt("a", 0.2),
    lambda: infinite_chain_enaqt(1.0, "a"),
    lambda: enaqt_estimate("chain", 4, "a", 0.1, 1, 2),
    lambda: dephased_efficiency_estimate(3, "a", 0.1),
    lambda: efficiency_direct(_CHAIN, "abc"),
    lambda: plane_sweep("chain", 3, 1, 2, workers=0, **_GRIDS),
    lambda: plane_sweep("chain", 3, 1, 2, workers=-2, **_GRIDS),
    lambda: plane_sweep("chain", 3, 1, 2, workers=1.5, **_GRIDS),
    lambda: efficiency_gamma_grid(_CHAIN, [[0.1], [0.1, 0.2]]),
    lambda: SystemSpec("chain", 3, (0,), 1, 1.0, 0.1, 0.0, v="a"),
    lambda: chain_amplitude(3, 1, 2, "a"),
    lambda: chain_amplitude(3, 1, 2, math.nan),
    lambda: chain_amplitude(3, 1, 2, [[1.0], [1.0, 2.0]]),
], ids=["SystemSpec-topology", "max_enaqt-topology", "plane_sweep-topology",
        "average_population-topology", "SystemSpec-gamma-str",
        "SystemSpec-kappa-None", "SystemSpec-kappa-array", "solver-kappa-str",
        "solver-shapes", "efficiency_gamma_grid-str", "efficiency_curve-str",
        "plane_sweep-grid-str", "eta-str", "efficiency-two-rates",
        "eta3_closed_form-str", "no_enaqt_region-None",
        "propagate-horizon-str", "infinite_chain_enaqt-kappa-str",
        "infinite_chain_enaqt-mu-str", "enaqt_estimate-kappa-str",
        "dephased_efficiency_estimate-kappa-str", "efficiency_direct-rho0-str",
        "plane_sweep-workers-0", "plane_sweep-workers-negative",
        "plane_sweep-workers-float", "efficiency_gamma_grid-ragged",
        "SystemSpec-v-str", "chain_amplitude-t-str", "chain_amplitude-t-nan",
        "chain_amplitude-t-ragged"])
def test_malformed_input_raises_validation_error(call):
    # errors.py's contract: every malformed input raises ValidationError
    # (CLI exit 2), never a bare ValueError or TypeError of numpy or of
    # Python, nor runs on as if it were valid
    with pytest.raises(ValidationError):
        call()
