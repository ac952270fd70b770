"""Steady-state and propagation solver tests."""

import logging
import math
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from enaqt import (
    EigenbasisSteadySolver,
    SingularSystemError,
    StiffnessError,
    SystemSpec,
    ValidationError,
    build_hamiltonian,
    efficiency_direct,
    efficiency_gamma_grid,
    optimize_dephasing,
    propagate,
    semi_infinite_spec,
    site_density,
    state_density,
    survival_probability,
)
import enaqt.solver as solver_module
from enaqt.cli import main as cli_main
from enaqt.model import _colouring
from enaqt.solver import DIRECT_MAX_N, _stack_size
from dense_oracles import (
    dense_generator,
    dense_lu_branching,
    efficiency_accumulator,
)

FIG1B = SystemSpec("chain", 3, (0,), 1, kappa=0.1, mu=0.01, gamma=0.0)


def test_undephased_reference_efficiency():
    # oracle: N=3 closed form at gamma=0, kappa=0.1, mu=0.01
    # (alpha0/beta0 evaluated with mpmath, 50 digits)
    rep = efficiency_direct(FIG1B)
    assert rep.eta == pytest.approx(0.7128965580831489, abs=1e-12)
    assert rep.eta + rep.eta_loss == pytest.approx(1.0, abs=1e-12)
    assert rep.residual < 1e-9


def test_symmetric_point_value():
    # oracle: N=3 closed form at gamma=kappa=mu=1 gives 25/401
    spec = SystemSpec("chain", 3, (0,), 1, 1.0, 1.0, 1.0)
    assert efficiency_direct(spec).eta == pytest.approx(25 / 401, abs=1e-12)


def test_no_trapping_means_no_yield():
    spec = SystemSpec("chain", 4, (0,), 2, kappa=0.0, mu=0.2, gamma=0.5)
    rep = efficiency_direct(spec)
    assert rep.eta == 0.0
    assert rep.eta_loss == pytest.approx(1.0, abs=1e-12)


def test_weak_rates_give_one_fifth():
    spec = SystemSpec("chain", 3, (0,), 1, kappa=1e-3, mu=1e-3, gamma=0.0)
    assert efficiency_direct(spec).eta == pytest.approx(0.2, abs=5e-3)


def test_strong_dephasing_freezes_transport():
    spec = SystemSpec("chain", 3, (0,), 1, kappa=0.1, mu=0.01, gamma=1e4)
    assert efficiency_direct(spec).eta < 1e-2


def test_weak_trapping_starves_yield():
    spec = SystemSpec("chain", 3, (0,), 1, kappa=1e-6, mu=0.01, gamma=1.0)
    assert efficiency_direct(spec).eta < 1e-3


def test_dark_initial_state_is_singular():
    # middle site of an odd chain with a middle trap, no dephasing, no
    # background loss: the antisymmetric component never decays
    spec = SystemSpec("chain", 3, (1,), 0, kappa=0.1, mu=0.0, gamma=0.0)
    spec = SystemSpec("chain", 5, (2,), 0, kappa=0.1, mu=0.0, gamma=0.0)
    with pytest.raises(SingularSystemError):
        efficiency_direct(spec)


def test_dephasing_lifts_dark_state():
    # same geometry, but any dephasing makes the system relax; with no
    # background loss everything eventually reaches the trap
    spec = SystemSpec("chain", 5, (2,), 0, kappa=0.1, mu=0.0, gamma=0.5)
    rep = efficiency_direct(spec)
    assert rep.eta == pytest.approx(1.0, abs=1e-9)


def test_near_dark_limit_is_half():
    # mu -> 0 with dark geometry: symmetric half is trapped, the rest lost
    spec = SystemSpec("chain", 5, (2,), 0, kappa=0.1, mu=1e-8, gamma=0.0)
    rep = efficiency_direct(spec)
    assert rep.eta == pytest.approx(0.5, abs=1e-6)
    assert rep.residual < 1e-9


def test_mirror_symmetric_inputs_agree():
    left = SystemSpec("chain", 5, (2,), 0, 0.3, 0.05, 0.7)
    right = SystemSpec("chain", 5, (2,), 4, 0.3, 0.05, 0.7)
    assert efficiency_direct(left).eta == pytest.approx(
        efficiency_direct(right).eta, abs=1e-12)


def test_ring_shift_invariance():
    a = SystemSpec("ring", 6, (0,), 2, 0.4, 0.02, 0.3)
    b = SystemSpec("ring", 6, (1,), 3, 0.4, 0.02, 0.3)
    assert efficiency_direct(a).eta == pytest.approx(
        efficiency_direct(b).eta, abs=1e-12)


def test_custom_initial_density():
    spec = SystemSpec("chain", 3, (0,), 2, 0.1, 0.01, 0.2)
    rho0 = site_density(3, 2)
    assert efficiency_direct(spec, rho0=rho0).eta == pytest.approx(
        efficiency_direct(spec).eta, abs=1e-14)


class TestAccumulator:
    def test_matches_direct(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            topology = "chain" if rng.random() < 0.7 else "ring"
            n = int(rng.integers(3, 7))
            n_traps = int(rng.integers(1, n - 1))
            traps = tuple(rng.choice(n, size=n_traps, replace=False))
            free = [s for s in range(n) if s not in traps]
            init = int(rng.choice(free))
            spec = SystemSpec(
                topology, n, traps, init,
                kappa=float(10 ** rng.uniform(-3, 1)),
                mu=float(10 ** rng.uniform(-3, 1)),
                gamma=float(10 ** rng.uniform(-3, 2)),
            )
            direct = efficiency_direct(spec)
            acc = efficiency_accumulator(spec)
            assert acc.eta == pytest.approx(direct.eta, abs=1e-9)
            assert acc.eta_loss == pytest.approx(direct.eta_loss, abs=1e-9)

    def test_epsilon_independent(self):
        spec = SystemSpec("chain", 4, (0,), 2, 0.2, 0.05, 0.8)
        etas = [efficiency_accumulator(spec, epsilon=e).eta
                for e in (1e-3, 1.0, 1e3)]
        assert max(etas) - min(etas) < 1e-10

    def test_no_trapping_gives_exact_zero(self):
        spec = SystemSpec("chain", 3, (0,), 1, kappa=0.0, mu=0.1, gamma=0.5)
        assert efficiency_accumulator(spec).eta == 0.0


class TestPropagation:
    def test_two_site_rabi_oscillation(self):
        # closed two-site system: population oscillates as sin^2(V t)
        spec = SystemSpec("chain", 2, (), 0, 0.0, 0.0, 0.0)
        traj = propagate(spec, horizon=6.0, store_states=True)
        for st in traj.states[:: max(1, len(traj.states) // 20)]:
            expected = np.sin(st.time) ** 2
            assert st.matrix[1, 1].real == pytest.approx(expected, abs=1e-7)

    def test_matches_matrix_exponential(self):
        # oracle: rho(t) = V exp(lambda t) V^-1 rho0 from the eigenvectors
        # of the dense Kronecker generator, not a matrix exponential
        spec = SystemSpec("chain", 3, (0,), 1, 0.3, 0.05, 0.6)
        lam, vecs = np.linalg.eig(dense_generator(spec))
        coef = np.linalg.solve(vecs, site_density(3, 1))
        traj = propagate(spec, horizon=4.0, store_states=True)
        for st in traj.states[::32]:
            rho_exact = vecs @ (np.exp(lam * st.time) * coef)
            assert np.allclose(st.vec, rho_exact, rtol=0, atol=1e-12)

    def test_trace_decay_bound(self):
        # trace can never decay slower than the background-loss envelope
        spec = SystemSpec("chain", 4, (0,), 2, 0.5, 0.1, 0.3)
        traj = propagate(spec, horizon=20.0)
        envelope = np.exp(-2 * spec.mu * traj.times)
        assert np.all(traj.traces <= envelope + 1e-9)

    def test_eta_estimate_matches_direct(self):
        spec = SystemSpec("chain", 4, (1,), 3, 0.4, 0.08, 0.9)
        direct = efficiency_direct(spec)
        traj = propagate(spec, horizon=8.0 / spec.mu)
        assert traj.eta_estimate == pytest.approx(direct.eta, abs=1e-6)
        assert traj.eta_estimate + traj.eta_loss_estimate == pytest.approx(
            1.0, abs=1e-7)

    def test_budget_split_sums_to_one(self):
        spec = SystemSpec("ring", 4, (2,), 0, 0.2, 0.15, 0.4)
        traj = propagate(spec, horizon=8.0 / spec.mu)
        total = (traj.trapped_cumulative[-1] + traj.loss_cumulative[-1]
                 + traj.traces[-1])
        assert total == pytest.approx(1.0, abs=1e-7)

    def test_records_an_even_time_grid(self):
        traj = propagate(FIG1B, horizon=10.0, store_states=True)
        steps = solver_module.PROPAGATE_STEPS
        assert np.array_equal(traj.times, np.linspace(0.0, 10.0, steps + 1))
        assert len(traj.states) == len(traj.traces) == steps + 1
        assert [st.time for st in traj.states] == list(traj.times)

    @pytest.mark.parametrize("horizon", [1.0, 10.0])
    def test_too_stiff_dephasing_raises_at_once(self, horizon):
        # at gamma * dt of 4e11 and more the exponential loses the trace
        # (by 1e-2 at horizon 10), which the probability budget shows
        start = time.perf_counter()
        with pytest.raises(StiffnessError, match="probability budget"):
            propagate(FIG1B.with_gamma(1e14), horizon=horizon)
        assert time.perf_counter() - start < 1.0

    def test_stiff_dephasing_within_the_guard_completes(self):
        for gamma in (1e12, 1e14):
            traj = propagate(FIG1B.with_gamma(gamma), horizon=1e-9)
            assert traj.times[-1] == 1e-9
            budget = (traj.trapped_cumulative + traj.loss_cumulative
                      + traj.traces - 1.0)
            assert np.abs(budget).max() < 1e-11
            # strong dephasing freezes the populations (Zeno): only the
            # background loss acts on the trace over so short a time
            assert traj.traces[-1] == pytest.approx(
                math.exp(-2 * FIG1B.mu * 1e-9), abs=1e-11)

    @pytest.mark.parametrize("kw", [
        {"horizon": np.inf}, {"horizon": np.nan}, {"horizon": 0.0},
        {"horizon": -1.0},
        {"spec": SystemSpec("chain", solver_module.PROPAGATE_MAX_N + 1,
                            (0,), 1, 0.1, 0.01, 0.0)},
    ])
    def test_bad_arguments_rejected_before_integrating(self, kw,
                                                       monkeypatch):
        # a guard that does not fire must fail here instead of building
        # the generator
        def unreachable(spec):
            raise AssertionError("propagate went on to integrate")

        monkeypatch.setattr("enaqt.solver.build_liouvillian", unreachable)
        with pytest.raises(ValidationError):
            propagate(**{"spec": FIG1B, "horizon": 10.0, **kw})

    def test_default_horizon_is_fifty_over_mu(self):
        spec = FIG1B.with_rates(mu=0.1)
        got, want = propagate(spec), propagate(spec, horizon=50.0 / spec.mu)
        for name in ("times", "traces", "trapped_cumulative",
                     "loss_cumulative", "eta_estimate", "eta_loss_estimate",
                     "tail_bound"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        with pytest.raises(ValidationError, match="horizon is required"):
            propagate(FIG1B.with_rates(mu=0.0))

    @pytest.mark.parametrize("n, trap, init, mu, gamma_opt", [
        (4, 1, 2, 0.0880194, 10.1669),
        (5, 1, 3, 0.0027613, 0.395941),
    ], ids=["N4-(2,3)", "N5-(2,4)"])
    def test_criterion_4_optima_match_direct(self, n, trap, init, mu,
                                             gamma_opt):
        # docs/decisions.md: at kappa = 100 the exact time route agrees
        # with the steady solve at gamma = 0 and at gamma_opt
        for gamma in (0.0, gamma_opt):
            spec = SystemSpec("chain", n, (trap,), init, 100.0, mu, gamma)
            traj = propagate(spec, horizon=2000.0)
            assert traj.eta_estimate == pytest.approx(
                efficiency_direct(spec).eta, abs=1e-9)


@pytest.mark.parametrize("rho0", [np.zeros(9), np.full(9, np.nan),
                                  np.full(9, np.inf)],
                         ids=["zero", "nan", "inf"])
@pytest.mark.parametrize("route", [
    efficiency_direct,
    lambda spec, rho0: propagate(spec, rho0=rho0, horizon=10.0),
], ids=["efficiency_direct", "propagate"])
def test_zero_or_non_finite_initial_state_rejected(route, rho0):
    with pytest.raises(ValidationError, match="density matrix"):
        route(FIG1B, rho0=rho0)


def _initial_state(n, entries):
    rho = np.zeros((n, n), dtype=complex)
    for (i, j), value in entries.items():
        rho[i, j] = value
    return rho


# rho0 that are not density matrices of trace at most 1, each with the
# property its error names (0-based sites: start 3 is site 2)
_NOT_A_STATE = {
    "one-sided coherence": ({(2, 2): 1.0, (2, 1): 0.5}, "not Hermitian"),
    "one-sided imaginary coherence": ({(2, 2): 1.0, (2, 1): 0.5j},
                                      "not Hermitian"),
    "trace 5": ({(2, 2): 5.0}, "trace 5 > 1"),
    "negative eigenvalue": ({(2, 2): 1.5, (1, 1): -0.5},
                            "not positive semidefinite"),
}


_ROUTES = {
    "efficiency_direct": efficiency_direct,
    "solver": lambda spec, rho0: EigenbasisSteadySolver(spec).efficiency(
        spec.gamma, rho0),
    "propagate": lambda spec, rho0: propagate(spec, rho0, horizon=10.0),
}


@pytest.mark.parametrize("case", list(_NOT_A_STATE))
@pytest.mark.parametrize("route, n", [  # maps, map-free and GMRES kernels
    (route, n) for route in _ROUTES for n in (4, 20, 40)
    if route != "propagate" or n <= solver_module.PROPAGATE_MAX_N])
def test_initial_state_must_be_a_density_matrix(route, n, case):
    # unchecked, the one-sided coherence raised SingularSystemError and
    # the others gave certified numbers (eta = 1.966 from trace 5 on 4
    # sites)
    spec = SystemSpec("chain", n, (0,), 2, 1.0, 0.1, 0.5)
    entries, message = _NOT_A_STATE[case]
    with pytest.raises(ValidationError, match=message):
        _ROUTES[route](spec, _initial_state(n, entries))


@pytest.mark.parametrize("n", [4, 20])
def test_stored_decayed_states_are_initial_states(n):
    # every state propagate stores, of trace below 1, is a valid rho0, and
    # the yields from it are what is left to come: eta + eta_loss = tr rho
    spec = SystemSpec("chain", n, (0,), 2, 1.0, 0.1, 0.5)
    traj = propagate(spec, horizon=8.0, store_states=True)
    for state in traj.states:
        solver_module.as_density_vec(state, n)
    state = traj.states[-1]
    assert 0.0 < state.trace < 0.9
    rep = efficiency_direct(spec, state)
    assert rep.eta + rep.eta_loss == pytest.approx(state.trace, abs=1e-9)
    assert traj.trapped_cumulative[-1] + rep.eta == pytest.approx(
        efficiency_direct(spec).eta, abs=1e-9)
    assert EigenbasisSteadySolver(spec).efficiency(0.5, state)[0] == rep.eta
    propagate(spec, state, horizon=1.0)


def test_survival_probability_basics():
    spec = SystemSpec("chain", 3, (0,), 1, 0.1, 0.05, 0.2)
    traj = propagate(spec, horizon=30.0)
    assert survival_probability(traj, 0.0) == pytest.approx(1.0, abs=1e-10)
    times = np.linspace(0.0, 30.0, 40)
    surv = survival_probability(traj, times)
    assert np.all(np.diff(surv) <= 1e-9)
    with pytest.raises(ValidationError):
        survival_probability(traj, -1.0)
    with pytest.raises(ValidationError):
        survival_probability(traj, 31.0)


def test_three_methods_agree():
    rng = np.random.default_rng(3)
    for _ in range(12):
        n = int(rng.integers(3, 7))
        trap = int(rng.integers(0, n))
        init = int(rng.integers(0, n))
        if init == trap:
            init = (trap + 1) % n
        spec = SystemSpec(
            "ring" if rng.random() < 0.4 else "chain", n, (trap,), init,
            kappa=float(10 ** rng.uniform(-2, 0.5)),
            mu=float(10 ** rng.uniform(-2, 0.5)),
            gamma=float(10 ** rng.uniform(-2, 1)),
        )
        d = efficiency_direct(spec)
        a = efficiency_accumulator(spec)
        traj = propagate(spec, horizon=8.0 / spec.mu)
        assert a.eta == pytest.approx(d.eta, abs=1e-9)
        assert traj.eta_estimate == pytest.approx(d.eta, abs=1e-6)


def test_gamma_grid_matches_pointwise():
    gammas = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 25)])
    etas = efficiency_gamma_grid(FIG1B, gammas)
    for g, eta in zip(gammas[::5], etas[::5]):
        single = dense_lu_branching(FIG1B.with_gamma(float(g)))[0]
        assert eta == pytest.approx(single, abs=1e-10)
    # spec's own gamma is ignored
    assert np.array_equal(efficiency_gamma_grid(FIG1B.with_gamma(7.0), gammas),
                          etas)


def test_gamma_grid_rejects_negative():
    with pytest.raises(ValidationError):
        efficiency_gamma_grid(FIG1B, np.array([-0.1, 1.0]))


def test_eigenbasis_solver_agrees_with_dense():
    spec = SystemSpec("chain", 12, (0, 1), 7, 0.3, 0.02, 0.0)
    solver = EigenbasisSteadySolver(spec)
    for gamma in (0.0, 0.1, 2.0):
        eta, eta_loss, resid, method = solver.efficiency(gamma)
        dense_eta, dense_loss = dense_lu_branching(spec.with_gamma(gamma))
        assert eta == pytest.approx(dense_eta, abs=1e-9)
        assert eta_loss == pytest.approx(dense_loss, abs=1e-9)
        assert resid < 1e-9


def test_large_system_uses_eigenbasis_path():
    spec = semi_infinite_spec(1.0, 0.5, 0.7, left=40, right=40)
    rep = efficiency_direct(spec)
    assert rep.method == "direct-eigenbasis"
    assert rep.residual < 1e-9
    assert 0.0 < rep.eta < 1.0


def test_report_is_real_and_clean():
    rep = efficiency_direct(FIG1B)
    assert isinstance(rep.eta, float)
    assert isinstance(rep.eta_loss, float)


def _sparse_lu_branching(spec):
    """(eta, eta_loss) from a sparse LU of the full vectorized generator,
    built here from H: L = -i(H x I) + i(I x conj H) - 2 gamma off-diag."""
    n = spec.n
    h = sp.csr_matrix(build_hamiltonian(spec))
    eye = sp.identity(n, format="csr")
    off = (1.0 - np.eye(n)).reshape(-1)
    lmat = (-1j * sp.kron(h, eye) + 1j * sp.kron(eye, h.conj())
            - sp.diags(2.0 * spec.gamma * off))
    x = spla.splu(lmat.tocsc()).solve(-site_density(n, spec.initial_site))
    pops = x.reshape(n, n).diagonal()
    return (2.0 * spec.kappa * pops[list(spec.trap_sites)].sum().real,
            2.0 * spec.mu * pops.sum().real)


@pytest.mark.parametrize("n", [65, 80])
def test_strong_dephasing_near_kappa_one_is_certified(n):
    # these solves used to be rejected for ~1e-10 imaginary leakage in
    # eta_loss after passing the residual gate
    spec = SystemSpec("chain", n, (0,), 1, 1.0, 0.1, 1e4)
    rep = efficiency_direct(spec)
    eta, eta_loss = _sparse_lu_branching(spec)
    assert rep.eta == pytest.approx(eta, abs=1e-10)
    assert rep.eta_loss == pytest.approx(eta_loss, abs=1e-10)
    assert rep.eta + rep.eta_loss == pytest.approx(1.0, abs=1e-9)
    assert rep.residual < 1e-9


def test_long_chain_optimization_near_kappa_one_is_certified():
    spec = SystemSpec("chain", 128, (0,), 1, 1.0, 0.1, 0.0)
    res = optimize_dephasing(spec)
    assert res.eta0 == pytest.approx(
        _sparse_lu_branching(spec)[0], abs=1e-10)
    at_opt = spec.with_gamma(res.gamma_opt)
    eta, eta_loss = _sparse_lu_branching(at_opt)
    assert res.eta_max == pytest.approx(eta, abs=1e-10)
    rep = efficiency_direct(at_opt)
    assert rep.eta + rep.eta_loss == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("gamma", [0.01, 0.5, 5.0])
def test_population_matvec_is_the_reduced_operator(gamma):
    # oracle: p + 2 gamma diag(A^-1 Diag p), the form before cancellation,
    # with A(X) = -i(H X - X H^dag) - 2 gamma X solved densely
    spec = SystemSpec("chain", 24, (0,), 5, 3.0, 0.1, 0.0)
    solver = EigenbasisSteadySolver(spec)
    h, eye = build_hamiltonian(spec), np.eye(24)
    amat = (-1j * (np.kron(h, eye) - np.kron(eye, h.conj()))
            - 2.0 * gamma * np.eye(24 * 24))
    rng = np.random.default_rng(7)
    for _ in range(3):
        p = rng.normal(size=24)
        ainv = np.linalg.solve(amat, np.diag(p).reshape(-1)).reshape(24, 24)
        naive = p + 2.0 * gamma * ainv.diagonal()
        got = solver._population_matvec(solver._all, 2.0 * gamma)(p)
        assert np.linalg.norm(got - naive) <= 1e-12 * np.linalg.norm(naive)


@pytest.mark.parametrize("kappa", [1.0, 3.0])
@pytest.mark.parametrize("n", [17, 24, 40])
@pytest.mark.parametrize("topology", ["chain", "ring"])
def test_eigenbasis_engine_matches_dense_lu(topology, n, kappa):
    for gamma in (0.0, 0.3, 2000.0, 1e4):
        spec = SystemSpec(topology, n, (0,), n // 3, kappa, 0.1, gamma)
        rep = efficiency_direct(spec)
        assert rep.method == "direct-eigenbasis"
        eta, eta_loss = dense_lu_branching(spec)
        assert rep.eta == pytest.approx(eta, abs=1e-10)
        assert rep.eta_loss == pytest.approx(eta_loss, abs=1e-10)


def test_engine_switches_above_sixteen_sites():
    # maps up to 16 sites, map-free up to DIRECT_MAX_N, GMRES above; each
    # kernel's certified answer is a "direct-eigenbasis" solve
    for n, kernel in ((16, "maps"), (17, "map-free"),
                      (DIRECT_MAX_N, "map-free"), (DIRECT_MAX_N + 1, "gmres")):
        spec = SystemSpec("chain", n, (0,), 1, 1.0, 0.1, 0.5)
        assert EigenbasisSteadySolver(spec).kernel == kernel
        assert efficiency_direct(spec).method == "direct-eigenbasis"


def _records(caplog, prefix):
    return [r.args for r in caplog.records
            if r.name == "enaqt" and r.msg.startswith(prefix)]


def _solve_records(caplog):
    # the fields before the trailing kernel name (see test_kernel_is_named)
    return [args[:-1] for args in _records(caplog, "eigenbasis solve")]


def test_gmres_converges_at_strong_dephasing(caplog):
    spec = SystemSpec("chain", 65, (0,), 1, 3.0, 0.1, 2000.0)
    with caplog.at_level(logging.DEBUG, logger="enaqt"):
        rep = efficiency_direct(spec)
    (record,) = _solve_records(caplog)
    n, gamma, info, matvecs, route = record
    assert (n, gamma, info, route) == (65, 2000.0, 0, "direct-eigenbasis")
    assert 0 < matvecs <= 20
    assert rep.method == route


@pytest.mark.parametrize("spec, step, identity", [
    (SystemSpec("chain", 24, (0,), 1, 3.0, 0.1, 0.5), "_assemble",
     lambda self, a, ratio: np.broadcast_to(
         np.eye(self.n), ratio.shape[:-1] + (self.n, self.n))),
    (SystemSpec("ring", DIRECT_MAX_N + 1, (0,), 7, 1.0, 0.1, 3.0),
     "_population_matvec", lambda self, a, g2: lambda p: p),
], ids=["map-free", "gmres"])
def test_failed_residual_sends_the_solve_to_sparse_lu(caplog, monkeypatch,
                                                      spec, step, identity):
    # the patched step makes K the identity in the kernel's solve and in
    # its refinement steps: the residual rejects both, and the sparse LU
    # redoes the point
    monkeypatch.setattr(EigenbasisSteadySolver, step, identity)
    with caplog.at_level(logging.DEBUG, logger="enaqt"):
        rep = efficiency_direct(spec)
    assert rep.method == "direct-sparse"
    assert _solve_records(caplog)[0][4] == "direct-sparse"
    eta, eta_loss = _sparse_lu_branching(spec)
    assert rep.eta == pytest.approx(eta, abs=1e-12)
    assert rep.eta_loss == pytest.approx(eta_loss, abs=1e-12)


class _WrongLU:
    """A sparse LU whose every solve answers zero."""

    def __init__(self, matrix):
        pass

    def solve(self, rhs):
        return np.zeros_like(rhs)


def test_wrong_sparse_lu_answer_raises(monkeypatch):
    # the residual after the sparse fallback is the one check of its
    # answer: a wrong one (here zero, of residual 1) fails the point
    spec = SystemSpec("chain", 24, (0,), 1, 3.0, 0.1, 0.5)
    _fail_direct_solve_at(monkeypatch, 0.5)
    monkeypatch.setattr("enaqt.solver.spla.splu", _WrongLU)
    with pytest.raises(SingularSystemError, match=(
            r"^gamma=0\.5: residual 1\.00e\+00 after sparse fallback$")):
        efficiency_direct(spec)


def test_near_dark_limit_above_sixteen_sites():
    # the eigenbasis engine refines near-singular solves (|X| ~ 1/mu) in
    # extended precision, as the dense LU does
    spec = SystemSpec("chain", 21, (10,), 0, 0.1, 1e-8, 0.0)
    rep = efficiency_direct(spec)
    assert rep.method == "direct-eigenbasis"
    assert rep.residual < 1e-9
    assert rep.eta == pytest.approx(0.5, abs=1e-6)
    assert rep.eta == pytest.approx(dense_lu_branching(spec)[0], abs=1e-10)


@pytest.mark.parametrize("n", [5, 17, 21, 33])
def test_dark_state_above_sixteen_sites_is_singular(n):
    # whichever check rejects the solve (the sparse LU's exact singularity
    # or the residual after it), the error names the dark state
    spec = SystemSpec("chain", n, (n // 2,), 0, 0.1, 0.0, 0.0)
    with pytest.raises(SingularSystemError, match="dark state"):
        efficiency_direct(spec)


def _batch_records(caplog):
    # the fields before the trailing kernel name (see test_kernel_is_named)
    return [args[:-1] for args in _records(caplog, "batched solve")]


@pytest.mark.parametrize("kappa", [2.0 + 1e-9, 2.0])
def test_exceptional_point_is_redone(kappa, caplog):
    # kappa = 2 is the exceptional point of the two-site chain: cond(S) is
    # 6e4 at 2 + 1e-9 (the direct population solve is 7e-9 off) and 2e8
    # at 2; the residual must send the point to the single-solve fallback
    spec = SystemSpec("chain", 2, (0,), 1, kappa, 0.01, 0.0)
    oracle = dense_lu_branching(spec.with_gamma(0.3))[0]
    assert oracle == pytest.approx(0.964942668, abs=1e-9)
    solver = EigenbasisSteadySolver(spec)
    with caplog.at_level(logging.DEBUG, logger="enaqt"):
        ((grid_eta,),) = solver.eta_grid([0.3])
        single = solver.eta(0.3)
    ((n, points, _, redone),) = _batch_records(caplog)
    assert (n, points, redone) == (2, 1, 1)
    assert len(_solve_records(caplog)) == 2
    assert grid_eta == pytest.approx(oracle, abs=1e-10)
    assert single == pytest.approx(oracle, abs=1e-10)


@st.composite
def _small_systems(draw):
    topology = draw(st.sampled_from(["chain", "ring"]))
    n = draw(st.integers(3 if topology == "ring" else 2, 16))
    trap, init = draw(st.lists(st.integers(0, n - 1), min_size=2,
                               max_size=2, unique=True))
    kappa, mu = (10.0 ** draw(st.floats(-4, 2)) for _ in range(2))
    gammas = [10.0 ** e for e in draw(st.lists(st.floats(-4, 4),
                                               min_size=1, max_size=4))]
    if draw(st.booleans()):
        gammas.insert(0, 0.0)
    return (SystemSpec(topology, n, (trap,), init, kappa, mu, 0.0),
            np.array(gammas))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(_small_systems())
def test_batched_grid_properties(system):
    spec, gammas = system
    solver = EigenbasisSteadySolver(spec)
    (etas,) = solver.eta_grid(gammas)
    for gamma, eta in zip(gammas, etas):
        assert eta == pytest.approx(
            dense_lu_branching(spec.with_gamma(gamma))[0], abs=1e-10)
        # non-negative up to rounding: where the true eta is ~1e-30, the
        # computed one is off by up to ~1e-16 either way
        assert eta >= -1e-15
        single, lost = solver.efficiency(gamma)[:2]
        assert single + lost == pytest.approx(1.0, abs=1e-9)


def _fail_direct_solve_at(monkeypatch, gamma, resid=None):
    """Make the direct population solve fail its checks at gamma only;
    with resid, certification reports that residual there, and above
    RESID_TARGET the fallback chain refines the kernel's answer before it
    tries the sparse LU."""
    certify = EigenbasisSteadySolver._certify

    def failing(self, xs, pops, g2, a, rhs, bnorm):
        eta, eta_loss, residual, certified = certify(self, xs, pops, g2, a,
                                                     rhs, bnorm)
        hit = np.reshape(g2, np.shape(certified)) == 2.0 * gamma
        if resid is not None:
            residual = np.where(hit, resid, residual)
        return eta, eta_loss, residual, certified & ~hit

    monkeypatch.setattr(EigenbasisSteadySolver, "_certify", failing)


def test_grid_redoes_only_the_failed_point(monkeypatch, caplog):
    spec = SystemSpec("ring", 6, (0,), 2, 0.4, 0.02, 0.0)
    gammas = [0.0, 0.1, 0.3, 3.0]
    # the failed point's residual is certified in truth, so the fallback
    # chain skips the refinement and ends it on the sparse LU
    _fail_direct_solve_at(monkeypatch, 0.3)
    solver = EigenbasisSteadySolver(spec)
    with caplog.at_level(logging.DEBUG, logger="enaqt"):
        (etas,) = solver.eta_grid(gammas)
    assert solver.routes == {"direct-eigenbasis": 3, "direct-sparse": 1}
    ((n, points, max_resid, redone),) = _batch_records(caplog)
    assert (n, points, redone) == (6, 4, 1)
    assert max_resid <= 1e-10
    for gamma, eta in zip(gammas, etas):
        assert eta == pytest.approx(
            _sparse_lu_branching(spec.with_gamma(gamma))[0], abs=1e-12)


_FAILING = SystemSpec("chain", 5, (0,), 3, 0.4, 0.02, 0.0)


def _failing_splu(matrix):
    raise RuntimeError("factor is exactly singular")


def _fail_the_fallback_at(monkeypatch, gamma):
    """Make the point at gamma fail certification, and the sparse LU that
    its fallback chain then factors raise."""
    _fail_direct_solve_at(monkeypatch, gamma)
    monkeypatch.setattr("enaqt.solver.spla.splu", _failing_splu)


def test_grid_point_failing_the_fallback_names_its_gamma(monkeypatch,
                                                         caplog):
    # the solver records the error under its cell, and that cell answers
    # NaN, with method None, from then on; routes counts none of its
    # points, also those certified in the call in which it failed
    _fail_the_fallback_at(monkeypatch, 0.3)
    solver = EigenbasisSteadySolver(_FAILING)
    etas = solver.eta_grid([0.1, 0.3, 3.0])
    assert etas.shape == (1, 3) and np.isnan(etas).all()
    assert list(solver.failed) == [0]
    with pytest.raises(SingularSystemError,
                       match=r"gamma=0\.3: sparse fallback failed"):
        raise solver.failed[0]
    assert math.isnan(solver.eta(0.1))
    with caplog.at_level(logging.DEBUG, logger="enaqt"):
        eta, eta_loss, _, method = solver.efficiency(3.0)
    assert math.isnan(eta) and math.isnan(eta_loss) and method is None
    assert _solve_records(caplog)[-1][4] is None
    assert solver.efficiencies([0.1, 3.0])[3] == [None, None]
    assert solver.routes == Counter()


@pytest.mark.parametrize("call", [
    lambda: efficiency_direct(_FAILING.with_gamma(0.3)),
    lambda: efficiency_gamma_grid(_FAILING, [0.1, 0.3, 3.0]),
], ids=["efficiency_direct", "efficiency_gamma_grid"])
def test_one_spec_callers_raise_the_failed_point(monkeypatch, call):
    _fail_the_fallback_at(monkeypatch, 0.3)
    with pytest.raises(SingularSystemError,
                       match=r"gamma=0\.3: sparse fallback failed"):
        call()


def test_cli_curve_exits_3_on_the_failed_point(monkeypatch, capsys):
    _fail_the_fallback_at(monkeypatch, 0.3)
    code = cli_main(["curve", "--n", "5", "--trap", "1", "--init", "4",
                     "--kappa", "0.4", "--mu", "0.02", "--gamma-min", "0.3",
                     "--gamma-max", "3", "--gamma-points", "3"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith(
        "solver error: gamma=0.3: sparse fallback failed")


@pytest.mark.parametrize("gamma", [-0.3, np.nan, np.inf])
@pytest.mark.parametrize("call", [
    lambda solver, g: solver.efficiency(g),
    lambda solver, g: solver.eta(g),
    lambda solver, g: solver.eta_grid([0.1, g]),
], ids=["efficiency", "eta", "eta_grid"])
def test_solver_rejects_bad_dephasing_rates(call, gamma):
    solver = EigenbasisSteadySolver(SystemSpec("chain", 4, (0,), 2, 0.5, 0.1,
                                               0.0))
    with pytest.raises(ValidationError, match="finite and >= 0"):
        call(solver, gamma)


@pytest.mark.parametrize("n,cells", [(5, 26), (8, 4), (10, 1), (17, 1),
                                     (64, 1)])
def test_stack_size(n, cells):
    # 16 n^4 bytes of maps a cell within STACK_BYTES, at least one cell
    assert _stack_size(n) == cells


def test_stack_redo_builds_nothing(monkeypatch):
    # the near-dark cells (mu = 1e-8) fail the batch check at some rates
    # and are redone on their own cell's arrays, without a new solver
    specs = [SystemSpec("chain", 5, (0,), 2, kappa, mu, 0.0)
             for kappa in (1e-4, 1.0, 100.0) for mu in (1e-8, 1e-4, 1.0)]
    gammas = np.concatenate([[0.0], np.geomspace(1e-4, 1e4, 64)])
    solver = EigenbasisSteadySolver(specs[0], [s.kappa for s in specs],
                                    [s.mu for s in specs])
    eig, calls = np.linalg.eig, []

    def counting(*args, **kwargs):
        calls.append(args)
        return eig(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eig", counting)
    etas = solver.eta_grid(gammas)
    monkeypatch.undo()
    assert len(calls) == 0
    assert sum(solver.routes.values()) == len(specs) * gammas.size == 585
    assert not solver.failed
    for spec, row in zip(specs, etas):
        single = EigenbasisSteadySolver(spec)
        for gamma, eta in zip(gammas, row):
            assert eta == pytest.approx(single.efficiency(gamma)[0],
                                        abs=1e-11)


def _central_slope(solver, gamma, h=1e-3):
    """d eta/d log gamma by the five-point central difference in log
    gamma (truncation error O(h^4))."""
    x = np.log(gamma)

    def at(dx):
        return solver.eta(float(np.exp(x + dx)))

    return (8.0 * (at(h) - at(-h)) - (at(2 * h) - at(-2 * h))) / (12.0 * h)


@pytest.mark.parametrize("spec, gammas", [
    # chain N=5, trap 2, start 4 (1-based), near criterion 4's optimum;
    # population system assembled through the maps
    (SystemSpec("chain", 5, (1,), 3, 100.0, 0.00276, 0.0), (0.1, 3.0, 300.0)),
    # assembled without the maps
    (SystemSpec("chain", 24, (0,), 1, 3.0, 0.1, 0.0), (0.1, 3.0, 300.0)),
    # GMRES route: the adjoint by GMRES
    (SystemSpec("chain", DIRECT_MAX_N + 1, (0,), 1, 3.0, 0.1, 0.0),
     (0.1, 3.0, 300.0)),
])
def test_slope_matches_central_differences(spec, gammas):
    solver = EigenbasisSteadySolver(spec)
    for gamma in gammas:
        eta, slope = solver.eta(gamma, slope=True)
        assert eta == pytest.approx(solver.eta(gamma), abs=1e-12)
        assert slope == pytest.approx(_central_slope(solver, gamma), rel=1e-6)


def test_stack_slopes_match_single_cells():
    specs = [SystemSpec("ring", 5, (0,), 2, kappa, mu, 0.0)
             for kappa, mu in ((1.0, 0.1), (100.0, 1e-3), (0.3, 3.0))]
    gammas = np.array([[0.0, 0.2], [3.0, 1e-4], [40.0, 1e4]])
    etas, slopes = EigenbasisSteadySolver(
        specs[0], [s.kappa for s in specs], [s.mu for s in specs]).eta(
            gammas, slope=True)
    assert slopes[0, 0] == 0.0  # d eta/d log gamma vanishes at gamma = 0
    for spec, row, eta_row, slope_row in zip(specs, gammas, etas, slopes):
        single = EigenbasisSteadySolver(spec)
        for gamma, eta, slope in zip(row, eta_row, slope_row):
            want = single.eta(gamma, slope=True)
            assert eta == pytest.approx(want[0], abs=1e-14)
            assert slope == pytest.approx(want[1], rel=1e-10, abs=1e-15)


@pytest.mark.parametrize("route, resid", [("direct-sparse", None),
                                          ("direct-eigenbasis", 1e-8)],
                         ids=["sparse", "refined"])
@pytest.mark.parametrize("n", [6, 20, DIRECT_MAX_N + 1],
                         ids=["maps", "map-free", "gmres"])
def test_redone_point_gives_the_undisturbed_slopes(monkeypatch, n, route,
                                                   resid):
    # a point that certification rejected gets its slopes from the adjoint
    # of the full generator, solved through the same fallback chain as its
    # eta; they equal the kernel's, where the point is not redone
    spec = SystemSpec("chain", n, (0,), 2, 0.4, 0.02, 0.0)
    gammas = np.array([[0.1, 0.3, 3.0]])
    want = EigenbasisSteadySolver(spec, [spec.kappa], [spec.mu]).eta(
        gammas, _rates=True)
    _fail_direct_solve_at(monkeypatch, 0.3, resid)
    solver = EigenbasisSteadySolver(spec, [spec.kappa], [spec.mu])
    got = solver.eta(gammas, _rates=True)
    assert solver.routes == Counter(["direct-eigenbasis"] * 2 + [route])
    assert got[0][0, 1] == pytest.approx(_sparse_lu_branching(
        spec.with_gamma(0.3))[0], abs=1e-12)
    for g, w in zip(got[1:], want[1:]):
        np.testing.assert_allclose(g, w, rtol=1e-9, atol=0)


def test_rate_slopes_of_a_redone_scan_point(monkeypatch):
    # the scan's gamma = 0 column asks for rate slopes only: a redone
    # point there gets them too
    spec = SystemSpec("ring", 5, (0,), 2, 0.4, 0.02, 0.0)
    gammas = [0.0, 0.3, 3.0]
    want = EigenbasisSteadySolver(spec).eta_grid(gammas, _rates=True)
    _fail_direct_solve_at(monkeypatch, 0.0)
    got = EigenbasisSteadySolver(spec).eta_grid(gammas, _rates=True)
    assert np.array_equal(got[0][0, 1:], want[0][0, 1:])
    np.testing.assert_allclose(got[1], want[1], rtol=1e-9, atol=0)


def _central_rate_slope(spec, gamma, rate, h=1e-3):
    """d eta/d log rate (rate "kappa" or "mu") at gamma by the five-point
    central difference in log rate, one solver per shifted rate."""
    x = np.log(getattr(spec, rate))

    def at(dx):
        moved = spec.with_rates(**{rate: float(np.exp(x + dx))})
        return EigenbasisSteadySolver(moved).eta(gamma)

    return (8.0 * (at(h) - at(-h)) - (at(2 * h) - at(-2 * h))) / (12.0 * h)


@pytest.mark.parametrize("spec", [
    # chain N=5, trap 2, start 4 (1-based), near criterion 4's optimum
    SystemSpec("chain", 5, (1,), 3, 100.0, 0.00276, 0.0),
    SystemSpec("ring", 4, (0,), 1, 1.0, 0.1, 0.0),
    # the map-free kernel's adjoint
    SystemSpec("chain", 24, (0,), 1, 3.0, 0.1, 0.0),
    # the GMRES route's adjoint
    SystemSpec("chain", DIRECT_MAX_N + 1, (0,), 1, 3.0, 0.1, 0.0),
], ids=["chain5", "ring4", "chain24", "gmres"])
def test_rate_slopes_match_central_differences(spec):
    # d eta/d log kappa and d eta/d log mu from the adjoint of the slope
    # solve, at gamma = 0 as in a scan's first column and at two rates
    solver = EigenbasisSteadySolver(spec)
    for gamma in (0.0, 0.3, 30.0):
        eta, slope, rates = solver.eta(gamma, _rates=True)
        assert (eta, slope) == solver.eta(gamma, slope=True)
        for rate, got in zip(("kappa", "mu"), rates):
            assert got == pytest.approx(
                _central_rate_slope(spec, gamma, rate), rel=1e-6)


def test_stack_rate_slopes_match_single_cells():
    specs = [SystemSpec("ring", 5, (0,), 2, kappa, mu, 0.0)
             for kappa, mu in ((1.0, 0.1), (100.0, 1e-3), (0.3, 3.0))]
    gammas = np.array([[0.0, 0.2], [3.0, 1e-4], [40.0, 1e4]])
    stack = EigenbasisSteadySolver(specs[0], [s.kappa for s in specs],
                                   [s.mu for s in specs])
    etas, slopes, rates = stack.eta(gammas, _rates=True)
    assert rates.shape == gammas.shape + (2,)
    grid = np.array([0.0, 0.2, 3.0])
    scan, zero = stack.eta_grid(grid, _rates=True)
    assert np.array_equal(scan, stack.eta_grid(grid))
    for k, spec in enumerate(specs):
        single = EigenbasisSteadySolver(spec)
        for gamma, got in zip(gammas[k], rates[k]):
            want = single.eta(gamma, _rates=True)[2]
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-15)
        # the scan's gamma = 0 column: K = I, no adjoint solve
        np.testing.assert_allclose(zero[k], single.eta(0.0, _rates=True)[2],
                                   rtol=1e-10, atol=1e-15)


def test_gmres_point_record_counts_the_adjoint_matvecs(caplog):
    spec = SystemSpec("chain", DIRECT_MAX_N + 1, (0,), 1, 3.0, 0.1, 0.0)
    with caplog.at_level(logging.DEBUG, logger="enaqt"):
        EigenbasisSteadySolver(spec).eta(0.3)
        EigenbasisSteadySolver(spec).eta(0.3, slope=True)
    plain, sloped = (r[3] for r in _solve_records(caplog))
    assert 0 < plain < sloped


def test_gmres_adjoint_without_convergence_takes_the_fallback_route(
        monkeypatch, caplog):
    # where GMRES does not converge on the adjoint, the point's eta is
    # still the kernel's, and its slopes come from the adjoint of the full
    # generator, as at a redone point
    spec = SystemSpec("chain", DIRECT_MAX_N + 1, (0,), 1, 3.0, 0.1, 0.0)
    want = EigenbasisSteadySolver(spec).eta(0.3, _rates=True)
    matvec = EigenbasisSteadySolver._population_matvec
    monkeypatch.setattr(
        EigenbasisSteadySolver, "_population_matvec",
        lambda self, a, g2, transpose=False: (
            np.zeros_like if transpose else matvec(self, a, g2)))
    solver = EigenbasisSteadySolver(spec)
    with caplog.at_level(logging.DEBUG, logger="enaqt"):
        got = solver.eta(0.3, _rates=True)
    ((_, _, info, _, route),) = _solve_records(caplog)
    assert (info, route) == (0, "direct-eigenbasis")
    assert got[0] == want[0]
    assert got[1] == pytest.approx(want[1], rel=1e-9, abs=0)
    np.testing.assert_allclose(got[2], want[2], rtol=1e-9, atol=0)


@pytest.mark.parametrize("n", [5, 16])
def test_map_free_steps_match_the_maps(n, monkeypatch):
    # the three steps in which the kernels differ, on one eigenbasis: K,
    # diag(S Y S^dag) and S^-1 Diag(p) S^-dag; then whole grids
    spec = SystemSpec("chain", n, (0,), 1, 3.0, 0.1, 0.0)
    maps = EigenbasisSteadySolver(spec)
    monkeypatch.setattr(solver_module, "MAPS_MAX_N", 0)
    free = EigenbasisSteadySolver(spec)
    assert (maps.kernel, free.kernel) == ("maps", "map-free")
    gammas = np.array([0.0, 0.3, 2000.0])
    g2 = 2.0 * gammas[:, None]
    ratio = maps._all.c / (maps._all.c - g2)
    rng = np.random.default_rng(11)
    y = rng.normal(size=ratio.shape) + 1j * rng.normal(size=ratio.shape)
    pops = rng.normal(size=(1, 3, n)) + 1j * rng.normal(size=(1, 3, n))
    kmat = maps._assemble(maps._all, ratio)
    np.testing.assert_allclose(free._assemble(free._all, ratio), kmat,
                               rtol=0, atol=1e-13)
    assert np.array_equal(kmat.reshape(1, 3, -1),
                          (ratio @ maps._all.kmap).real)
    for step, arg in (("_diag", y), ("_sandwich", pops)):
        want = getattr(maps, step)(maps._all, arg)
        got = getattr(free, step)(free._all, arg)
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-13 * np.abs(want).max())
    np.testing.assert_allclose(free.eta_grid(gammas), maps.eta_grid(gammas),
                               rtol=0, atol=1e-13)


def test_map_free_grid_in_rate_chunks_matches_single_points(monkeypatch,
                                                            caplog):
    spec = SystemSpec("chain", 24, (0,), 1, 3.0, 0.1, 0.0)
    solver = EigenbasisSteadySolver(spec)
    gammas = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 7)])
    # chunks of three rates
    monkeypatch.setattr(solver_module, "BATCH_BYTES", 3 * 16 * 24 ** 3)
    batch, chunks = EigenbasisSteadySolver._batch, []

    def counting(self, gammas, *args):
        chunks.append(gammas.shape)
        return batch(self, gammas, *args)

    monkeypatch.setattr(EigenbasisSteadySolver, "_batch", counting)
    with caplog.at_level(logging.DEBUG, logger="enaqt"):
        (etas,) = solver.eta_grid(gammas)
    assert chunks == [(1, 3), (1, 3), (1, 2)]
    ((n, points, max_resid, redone),) = _batch_records(caplog)
    assert (n, points, redone) == (24, 8, 0)
    assert max_resid <= 1e-10
    for gamma, eta in zip(gammas, etas):
        assert eta == pytest.approx(solver.eta(gamma), abs=1e-14)


@pytest.mark.parametrize("n, kernel", [
    (5, "maps"), (24, "map-free"), (DIRECT_MAX_N + 1, "gmres")])
def test_kernel_is_named(n, kernel, caplog):
    # a one-point call leaves a point record; a grid leaves one batched
    # record on a direct kernel, and one point record per rate where it is
    # solved one rate at a time: on GMRES, and on the map-free kernel,
    # whose chunks hold one rate at 24 sites
    solver = EigenbasisSteadySolver(SystemSpec("chain", n, (0,), 1, 3.0, 0.1,
                                               0.0))
    assert solver.kernel == kernel
    with caplog.at_level(logging.DEBUG, logger="enaqt"):
        solver.eta(0.3)
        solver.eta_grid([0.0, 0.3, 3.0])
    points = _records(caplog, "eigenbasis solve")
    grids = _records(caplog, "batched solve")
    assert [r[-1] for r in points] == [kernel] * (1 if kernel == "maps"
                                                  else 4)
    assert [r[-1] for r in grids] == ([] if kernel == "gmres" else [kernel])


@st.composite
def _rate_stacks(draw):
    topology = draw(st.sampled_from(["chain", "ring"]))
    n = draw(st.integers(2 if topology == "chain" else 3, 10))
    trap, init = draw(st.lists(st.integers(0, n - 1), min_size=2,
                               max_size=2, unique=True))
    rates = draw(st.lists(st.tuples(st.floats(-4, 2), st.floats(-4, 2)),
                          min_size=1, max_size=6))
    gammas = np.concatenate([[0.0], np.sort(10.0 ** np.array(draw(st.lists(
        st.floats(-4, 4), min_size=1, max_size=5))))])
    kappas, mus = (10.0 ** np.array(axis) for axis in zip(*rates))
    return (SystemSpec(topology, n, (trap,), init, 1.0, 1.0, 0.0), kappas,
            mus, gammas)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_rate_stacks())
def test_stack_from_rate_arrays_equals_one_spec_solvers(stack):
    # H of every cell comes from the builder of build_hamiltonian, so each
    # row is the one-spec solver's exactly
    spec, kappas, mus, gammas = stack
    etas = EigenbasisSteadySolver(spec, kappas, mus).eta_grid(gammas)
    assert etas.shape == (kappas.size, gammas.size)
    for row, kappa, mu in zip(etas, kappas, mus):
        one = spec.with_rates(kappa=kappa, mu=mu)
        single = EigenbasisSteadySolver(one)
        assert np.array_equal(row, single.eta_grid(gammas)[0])
        # a solver built from one spec is the one-cell stack at its rates
        cell = EigenbasisSteadySolver(one, [kappa], [mu])
        assert np.array_equal(single.eta_grid(gammas), cell.eta_grid(gammas))
        for got, want in zip(single.eta(gammas, _rates=True),
                             cell.eta(gammas, _rates=True)):
            assert np.array_equal(got, want)


_CHAIN4 = SystemSpec("chain", 4, (0,), 2, 1.0, 1.0, 0.0)


@pytest.mark.parametrize("args, match", [
    ((_CHAIN4, [1.0, math.nan], [0.1, 0.1]),
     "kappa=nan must be finite and >= 0"),
    ((_CHAIN4, [1.0, 2.0], [math.inf, 0.1]),
     "mu=inf must be finite and >= 0"),
    ((_CHAIN4, [1.0, -1e-3], [0.1, 0.1]),
     "kappa=-0.001 must be finite and >= 0"),
    ((_CHAIN4, [], []), "at least one cell"),
    ((SystemSpec("chain", 17, (0,), 1, 1.0, 1.0, 0.0), [1.0, 2.0],
      [0.1, 0.1]), "holds one cell"),
    # the sequence-of-specs form is gone
    (([_CHAIN4, _CHAIN4],), "one SystemSpec"),
], ids=["nan", "inf", "negative", "empty", "two-cells-above-16", "specs"])
def test_stack_rejects_bad_input(args, match):
    with pytest.raises(ValidationError, match=match):
        EigenbasisSteadySolver(*args)


def _two_cells():
    return EigenbasisSteadySolver(_CHAIN4, [1.0, 2.0], [0.1, 0.1])


@pytest.mark.parametrize("call, match", [
    (lambda: EigenbasisSteadySolver(_CHAIN4).eta_grid([]), "non-empty 1-d"),
    (lambda: EigenbasisSteadySolver(_CHAIN4).efficiencies([]),
     "non-empty 1-d"),
    (lambda: _two_cells().eta_grid([[0.1, 0.2]]), "non-empty 1-d"),
    (lambda: EigenbasisSteadySolver(_CHAIN4).eta([]), "one non-empty row"),
    (lambda: _two_cells().eta([0.1, 0.2, 0.3]), "one non-empty row"),
    (lambda: _two_cells().eta([[0.1], [0.2]], cells=[0, 5]), "one non-empty row"),
    (lambda: _two_cells().eta([[0.1], [0.2]], cells=[0.0, 1.0]),
     "one non-empty row"),
    (lambda: _two_cells().eta([[0.1], [0.2]], cells=[[0], [1]]),
     "one non-empty row"),
    (lambda: _two_cells().eta([0.1], cells=[]), "one non-empty row"),
], ids=["eta_grid-empty", "efficiencies-empty", "eta_grid-2d", "eta-empty",
        "eta-rows", "cells-out-of-range", "cells-float", "cells-2d",
        "cells-empty"])
def test_solver_rejects_malformed_calls(call, match):
    with pytest.raises(ValidationError, match=match):
        call()


@pytest.mark.parametrize("points, chunks", [
    # whole rows: each cell's products cover all its rates
    (16, [(2, 8), (1, 8)]),
    # a row that does not fit goes in chunks of its rates
    (3, [(1, 3), (1, 3), (1, 2)] * 3),
], ids=["rows", "rates"])
def test_maps_grid_in_chunks_equals_the_unchunked_grid(monkeypatch, points,
                                                       chunks):
    # the chunks change no bit of any answer or slope
    spec = SystemSpec("ring", 5, (0,), 2, 1.0, 1.0, 0.0)
    kappas, mus = [0.1, 1.0, 30.0], [1e-3, 0.1, 1.0]
    gammas = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 7)])
    rows = np.tile(gammas, (3, 1))

    def solve():
        solver = EigenbasisSteadySolver(spec, kappas, mus)
        return (*solver.eta_grid(gammas, _rates=True),
                *solver.eta(rows, _rates=True))

    want = solve()
    monkeypatch.setattr(solver_module, "BATCH_BYTES", points * 16 * 5 ** 2)
    batch, got_chunks = EigenbasisSteadySolver._batch, []

    def counting(self, gammas, *args):
        got_chunks.append(gammas.shape)
        return batch(self, gammas, *args)

    monkeypatch.setattr(EigenbasisSteadySolver, "_batch", counting)
    got = solve()
    assert got_chunks == chunks * 2
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_gmres_chunks_hold_one_point_whatever_the_byte_budget(monkeypatch):
    # a budget that fits several n^3 points still gives the GMRES kernel
    # one point a chunk, so the results are the default run's bits
    spec = SystemSpec("chain", 40, (0,), 1, 3.0, 0.1, 0.0)
    gammas = [0.0, 0.5, 1.0, 2.0]
    want = EigenbasisSteadySolver(spec).eta_grid(gammas)
    monkeypatch.setattr(solver_module, "BATCH_BYTES", 2 ** 22)
    batch, chunks = EigenbasisSteadySolver._batch, []

    def counting(self, gammas, *args):
        chunks.append(gammas.shape)
        return batch(self, gammas, *args)

    monkeypatch.setattr(EigenbasisSteadySolver, "_batch", counting)
    solver = EigenbasisSteadySolver(spec)
    assert solver.kernel == "gmres"
    got = solver.eta_grid(gammas)
    assert chunks == [(1, 1)] * len(gammas)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [40, 48])
def test_gmres_points_match_dense_lu(n):
    # the GMRES kernel's point (b, F and X from four n x n products) from
    # the initial site and from another initial state, and its slope
    spec = SystemSpec("chain", n, (0,), n // 3, 3.0, 0.1, 0.0)
    solver = EigenbasisSteadySolver(spec)
    assert solver.kernel == "gmres"
    psi = np.zeros(n)
    psi[[1, n // 2]] = 1.0
    rho0 = state_density(psi)
    for gamma in (0.0, 0.3, 30.0):
        lu = sla.lu_factor(dense_generator(spec.with_gamma(gamma)))
        for start in (None, rho0):
            x = sla.lu_solve(lu, -(site_density(n, spec.initial_site)
                                   if start is None else start))
            pops = x[::n + 1]
            eta, eta_loss, resid, method = solver.efficiency(gamma, start)
            assert method == "direct-eigenbasis" and resid <= 1e-10
            assert eta == pytest.approx(2.0 * 3.0 * pops[0].real, abs=1e-10)
            assert eta_loss == pytest.approx(2.0 * 0.1 * pops.sum().real,
                                             abs=1e-10)
    slope = solver.eta(0.3, slope=True)[1]
    assert slope == pytest.approx(_central_slope(solver, 0.3), rel=1e-6)


@st.composite
def _geometries(draw):
    # chains, even and odd rings and semi-infinite truncations of at most
    # 40 sites, at random rates
    kappa, mu = (10.0 ** draw(st.floats(-4, 2)) for _ in range(2))
    kind = draw(st.sampled_from(["chain", "ring", "semi-infinite"]))
    if kind == "semi-infinite":
        left, right = draw(st.integers(1, 19)), draw(st.integers(1, 19))
        return semi_infinite_spec(kappa, mu, 0.0, draw(st.integers(1, 2)),
                                  left, right)
    n = draw(st.integers(2 if kind == "chain" else 3, 40))
    trap, init = draw(st.lists(st.integers(0, n - 1), min_size=2,
                               max_size=2, unique=True))
    return SystemSpec(kind, n, (trap,), init, kappa, mu, 0.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_geometries())
def test_eigendecomposition_through_the_sublattice(spec):
    # the solver's (lam, S), real through the 2-colouring where the
    # geometry has one, diagonalize H and give the complex eig's spectrum
    h = build_hamiltonian(spec)
    lam, s = solver_module._eig(h[None], _colouring(spec))
    lam, s = lam[0], s[0]
    solver = EigenbasisSteadySolver(spec)
    assert np.array_equal(solver._all.s[0], s)
    scale = np.linalg.norm(h, 2)
    assert (np.linalg.norm(h @ s - s * lam, 2)
            <= 1e-12 * scale * np.linalg.norm(s, 2))
    want = np.linalg.eigvals(h)
    gaps = np.abs(lam[:, None] - want[None, :])
    assert gaps.min(axis=1).max() <= 1e-12 * max(1.0, scale)
    assert gaps.min(axis=0).max() <= 1e-12 * max(1.0, scale)


@pytest.mark.parametrize("kappa", [1.0, 3.0])
def test_odd_ring_on_the_gmres_route_matches_dense_lu(kappa):
    # an odd ring has no 2-colouring: its H keeps the complex eig
    n = DIRECT_MAX_N + 2
    for gamma in (0.0, 0.3, 2000.0):
        spec = SystemSpec("ring", n, (0,), n // 3, kappa, 0.1, gamma)
        solver = EigenbasisSteadySolver(spec)
        assert solver.kernel == "gmres" and _colouring(spec) is None
        eta, eta_loss, resid, method = solver.efficiency(gamma)
        assert method == "direct-eigenbasis" and resid <= 1e-10
        want = dense_lu_branching(spec)
        assert eta == pytest.approx(want[0], abs=1e-10)
        assert eta_loss == pytest.approx(want[1], abs=1e-10)


@pytest.mark.parametrize("topology, n", [
    ("chain", DIRECT_MAX_N + 1), ("chain", DIRECT_MAX_N + 2),
    ("ring", DIRECT_MAX_N + 1), ("ring", DIRECT_MAX_N + 2)])
def test_real_matvec_is_the_full_operator(topology, n):
    # K and K^T by the sum over every eigenvalue pair (p, q), against the
    # matvec on real vectors: half the sum where the sublattice symmetry
    # pairs the eigenvalues (an odd chain adds a real eigenvalue of M,
    # counted once), all of it on the odd ring
    solver = EigenbasisSteadySolver(SystemSpec(topology, n, (0,), n // 3,
                                               3.0, 0.1, 0.0))
    a = solver._all
    s, sinv = a.s[0], a.sinv[0]
    rng = np.random.default_rng(n)
    for gamma in (0.3, 30.0):
        ratio = (a.c / (a.c - 2.0 * gamma)).reshape(n, n)
        for transpose in (False, True):
            left, right = (sinv.T, s.T) if transpose else (s, sinv)
            matvec = solver._population_matvec(a, 2.0 * gamma, transpose)
            for _ in range(2):
                p = rng.normal(size=n)
                want = np.diag(left @ ((right * p) @ right.conj().T * ratio)
                               @ left.conj().T)
                got = matvec(p)
                assert got.dtype == float
                assert np.abs(want.imag).max() <= 1e-12 * np.abs(want).max()
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_gmres_scan_of_a_long_chain_stays_within_its_matvecs(caplog):
    # the 65-point scan of a chain of 80 sites: 618 matvecs with scipy's
    # gmres, whose stopping rule the in-house GMRES keeps
    spec = SystemSpec("chain", 80, (0,), 1, 3.0, 0.3, 0.0)
    solver = EigenbasisSteadySolver(spec)
    gammas = np.concatenate([[0.0], np.geomspace(1e-4, 1e4, 64)])
    with caplog.at_level(logging.DEBUG, logger="enaqt"):
        solver.eta_grid(gammas)
    records = _solve_records(caplog)
    assert len(records) == gammas.size
    assert all(info in (None, 0) for _, _, info, _, _ in records)
    matvecs = sum(r[3] for r in records)
    assert matvecs <= 650
    assert solver.matvecs == matvecs


def test_matvecs_count_forward_and_adjoint_gmres_solves(caplog):
    # the solver's counter adds up the matvecs of its points' records
    spec = SystemSpec("chain", DIRECT_MAX_N + 1, (0,), 1, 3.0, 0.1, 0.0)
    plain, sloped = EigenbasisSteadySolver(spec), EigenbasisSteadySolver(spec)
    assert plain.matvecs == sloped.matvecs == 0
    with caplog.at_level(logging.DEBUG, logger="enaqt"):
        plain.eta(0.3)
        sloped.eta(0.3, slope=True)
        sloped.eta_grid([0.0, 3.0])
    counts = [r[3] for r in _solve_records(caplog)]
    assert plain.matvecs == counts[0] > 0
    assert sloped.matvecs == sum(counts[1:]) > counts[1] > counts[0]
    # the direct kernels run no GMRES
    direct = EigenbasisSteadySolver(SystemSpec("chain", 24, (0,), 1, 3.0, 0.1,
                                               0.0))
    direct.eta_grid([0.0, 0.3, 3.0])
    assert direct.matvecs == 0


def test_gmres_warm_start_follows_the_initial_site_points_only():
    # a solve from another rho0 starts cold and leaves the warm start of
    # the next initial-site scan where the last initial-site point left it
    spec = SystemSpec("chain", 40, (0,), 1, 3.0, 0.1, 0.0)
    rho0 = 0.5 * (site_density(40, 1) + site_density(40, 20))

    def last_scan(other_solve):
        solver = EigenbasisSteadySolver(spec)
        solver.eta_grid([0.0, 0.3, 1.0])
        if other_solve:
            solver.efficiency(0.5, rho0)
        before = solver.matvecs
        return solver.eta_grid([3.0, 10.0]), solver.matvecs - before

    got, want = last_scan(True), last_scan(False)
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1]  # the same matvecs: the same warm start


def _recording_matvec(monkeypatch, dtypes, fake=None):
    # the solver's matvec, or fake(p) in its place, noting the dtype of
    # every vector it is applied to
    matvec = EigenbasisSteadySolver._population_matvec

    def recording(self, a, g2, transpose=False):
        apply = fake or matvec(self, a, g2, transpose)

        def noted(p):
            dtypes.add(p.dtype)
            return apply(p)

        return noted

    monkeypatch.setattr(EigenbasisSteadySolver, "_population_matvec",
                        recording)


def test_gmres_solves_from_another_state_in_real_arithmetic(monkeypatch):
    # a rho0 with coherences on a 40-site chain: the GMRES route solves on
    # Re b, as for the initial site, and matches dense LU
    n = 40
    spec = SystemSpec("chain", n, (0,), 1, 3.0, 0.1, 0.0)
    psi = np.zeros(n, dtype=complex)
    psi[[1, n // 2]] = 1.0, 1j
    rho0 = state_density(psi)
    dtypes = set()
    _recording_matvec(monkeypatch, dtypes)
    solver = EigenbasisSteadySolver(spec)
    assert solver.kernel == "gmres"
    for gamma in (0.3, 30.0):
        x = sla.lu_solve(sla.lu_factor(dense_generator(spec.with_gamma(
            gamma))), -rho0)
        pops = x[::n + 1].real
        eta, eta_loss, resid, method = solver.efficiency(gamma, rho0)
        assert method == "direct-eigenbasis" and resid <= 1e-10
        assert eta == pytest.approx(2.0 * 3.0 * pops[0], abs=1e-10)
        assert eta_loss == pytest.approx(2.0 * 0.1 * pops.sum(), abs=1e-10)
    assert dtypes == {np.dtype(float)}


def test_gmres_refinement_steps_run_in_real_arithmetic(monkeypatch):
    # the fallback forced by an identity matvec, as in
    # test_failed_residual_sends_the_solve_to_sparse_lu, on a 40-site
    # chain: its refinement steps solve residuals through GMRES on float
    # vectors only, and the sparse LU's answer matches dense LU
    spec = SystemSpec("chain", 40, (0,), 1, 1.0, 0.1, 3.0)
    dtypes = set()
    _recording_matvec(monkeypatch, dtypes, fake=lambda p: p)
    rep = efficiency_direct(spec)
    assert rep.method == "direct-sparse"
    assert dtypes == {np.dtype(float)}
    eta, eta_loss = dense_lu_branching(spec)
    assert rep.eta == pytest.approx(eta, abs=1e-10)
    assert rep.eta_loss == pytest.approx(eta_loss, abs=1e-10)


@pytest.mark.parametrize("n, entries", [
    (5, {"dgetrf", "dgetrs", "solve"}),
    (24, {"dgetrf", "dgetrs"}),
    (40, {"_restarted_gmres"}),
], ids=["maps", "map-free", "gmres"])
def test_population_system_reaches_the_solve_in_float64(monkeypatch, n,
                                                        entries):
    # K, b, the populations p and the adjoint w are real on every kernel:
    # every floating array that enters or leaves the population solve (one
    # point, a stacked grid, or GMRES) is float64
    solver = EigenbasisSteadySolver(SystemSpec("chain", n, (0,), 1, 3.0,
                                               0.1, 0.0))
    seen = {}

    def recording(name, solve):
        def recorded(*args, **kwargs):
            out = solve(*args, **kwargs)
            seen.setdefault(name, set()).update(
                v.dtype for v in args + (out if isinstance(out, tuple)
                                         else (out,))
                if isinstance(v, np.ndarray)
                and np.issubdtype(v.dtype, np.inexact))
            return out

        return recorded

    for owner, name in ((sla.lapack, "dgetrf"), (sla.lapack, "dgetrs"),
                        (np.linalg, "solve"),
                        (solver_module, "_restarted_gmres")):
        monkeypatch.setattr(owner, name, recording(name,
                                                   getattr(owner, name)))
    solver.eta(0.3, slope=True)
    solver.eta(np.array([0.3, 3.0]), slope=True)
    assert set(seen) == entries
    assert set().union(*seen.values()) == {np.dtype(float)}


def _random_system(n, seed):
    rng = np.random.default_rng(seed)
    a = np.eye(n) + 0.3 * rng.normal(size=(n, n)) / math.sqrt(n)
    return a, rng.normal(size=n)


@pytest.mark.parametrize("restart", [60, 4])
def test_restarted_gmres_solves_a_nonsymmetric_system(restart):
    a, b = _random_system(50, 3)
    x, info, matvecs = solver_module._restarted_gmres(
        lambda v: a @ v, b, None, restart, 50)
    assert info == 0
    assert np.linalg.norm(b - a @ x) <= 1e-12 * np.linalg.norm(b)
    # one matvec per Arnoldi step, and one true residual per cycle
    assert matvecs > (0 if restart == 60 else restart)
    # from the exact solution: only the initial residual
    y, info, matvecs = solver_module._restarted_gmres(
        lambda v: a @ v, b, np.linalg.solve(a, b), restart, 50)
    assert (info, matvecs) == (0, 1)


def test_restarted_gmres_breakdowns():
    b = np.arange(1.0, 41.0)
    # a lucky breakdown: the identity's Krylov space is one vector, and
    # its solve is exact
    x, info, _ = solver_module._restarted_gmres(lambda v: v, b, None, 60, 10)
    assert info == 0 and np.allclose(x, b, rtol=1e-15, atol=0)
    # a zero Krylov vector with a singular Hessenberg system: no solve, and
    # non-convergence reported
    x, info, matvecs = solver_module._restarted_gmres(np.zeros_like, b, None,
                                                      60, 10)
    assert info != 0 and not x.any() and matvecs == 2
