"""The public API: each module lists its names once, and the package
joins the lists."""

import types

import enaqt
from enaqt import analysis, errors, model, solver

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
