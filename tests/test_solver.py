"""Steady-state and propagation solver tests."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from enaqt import (
    EigenbasisSteadySolver,
    SingularSystemError,
    SystemSpec,
    ValidationError,
    build_hamiltonian,
    efficiency_direct,
    efficiency_gamma_grid,
    optimize_dephasing,
    propagate,
    semi_infinite_spec,
    site_density,
    survival_probability,
)
from dense_oracles import dense_lu_branching, efficiency_accumulator

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
        # oracle: expm of the dense generator at a fixed time
        spec = SystemSpec("chain", 3, (0,), 1, 0.3, 0.05, 0.6)
        from enaqt import build_liouvillian
        lmat = build_liouvillian(spec, dense=True).matrix
        t = 4.0
        rho_exact = sla.expm(lmat * t) @ site_density(3, 1)
        traj = propagate(spec, horizon=t, store_states=True)
        assert np.allclose(
            traj.states[-1].vec, rho_exact, atol=1e-8)

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

    def test_step_counters_populated(self):
        traj = propagate(FIG1B, horizon=10.0)
        assert traj.n_steps > 0
        assert traj.n_rejected >= 0


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


def test_gamma_grid_rejects_negative():
    with pytest.raises(ValidationError):
        efficiency_gamma_grid(FIG1B, np.array([-0.1, 1.0]))


def test_eigenbasis_solver_agrees_with_dense():
    spec = SystemSpec("chain", 12, (0, 1), 7, 0.3, 0.02, 0.0)
    solver = EigenbasisSteadySolver(spec)
    for gamma in (0.0, 0.1, 2.0):
        eta, eta_loss, resid, method, _ = solver.efficiency(gamma)
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
        p = rng.normal(size=24) + 1j * rng.normal(size=24)
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
    small = SystemSpec("chain", 16, (0,), 1, 1.0, 0.1, 0.5)
    large = SystemSpec("chain", 17, (0,), 1, 1.0, 0.1, 0.5)
    assert efficiency_direct(small).method == "direct-eigenbasis"
    assert efficiency_direct(large).method == "direct-eigenbasis"


def _solve_records(caplog):
    return [r.args for r in caplog.records
            if r.name == "enaqt" and r.msg.startswith("eigenbasis solve")]


def test_gmres_converges_at_strong_dephasing(caplog):
    spec = SystemSpec("chain", 65, (0,), 1, 3.0, 0.1, 2000.0)
    with caplog.at_level(logging.DEBUG, logger="enaqt"):
        rep = efficiency_direct(spec)
    (record,) = _solve_records(caplog)
    n, gamma, info, matvecs, route = record
    assert (n, gamma, info, route) == (65, 2000.0, 0, "direct-eigenbasis")
    assert 0 < matvecs <= 20
    assert rep.method == route


def test_leakage_sends_the_solve_to_sparse_lu(caplog, monkeypatch):
    # a solve with a certified residual but imaginary leakage above
    # REAL_TOL must not be rejected outright: the sparse LU redoes it
    spec = SystemSpec("chain", 24, (0,), 1, 3.0, 0.1, 0.5)
    branching = EigenbasisSteadySolver._branching
    calls = []

    def leaky(self, pops, a):
        eta, eta_loss = branching(self, pops, a)
        calls.append(eta_loss)
        return eta, eta_loss + (1e-9j if len(calls) == 1 else 0.0)

    monkeypatch.setattr(EigenbasisSteadySolver, "_branching", leaky)
    with caplog.at_level(logging.DEBUG, logger="enaqt"):
        rep = efficiency_direct(spec)
    assert len(calls) == 2
    assert rep.method == "direct-sparse"
    assert _solve_records(caplog)[0][4] == "direct-sparse"
    eta, eta_loss = _sparse_lu_branching(spec)
    assert rep.eta == pytest.approx(eta, abs=1e-12)
    assert rep.eta_loss == pytest.approx(eta_loss, abs=1e-12)


def test_failed_residual_sends_the_solve_to_sparse_lu(monkeypatch):
    spec = SystemSpec("ring", 20, (0,), 7, 1.0, 0.1, 3.0)
    monkeypatch.setattr(EigenbasisSteadySolver, "_population_matvec",
                        lambda self, a, g2: lambda p: p)
    rep = efficiency_direct(spec)
    assert rep.method == "direct-sparse"
    assert rep.eta == pytest.approx(_sparse_lu_branching(spec)[0],
                                    abs=1e-12)


def test_leakage_after_fallback_raises(monkeypatch):
    spec = SystemSpec("chain", 24, (0,), 1, 3.0, 0.1, 0.5)
    branching = EigenbasisSteadySolver._branching

    def leaky(self, pops, a):
        eta, eta_loss = branching(self, pops, a)
        return eta, eta_loss + 1e-9j

    monkeypatch.setattr(EigenbasisSteadySolver, "_branching", leaky)
    with pytest.raises(SingularSystemError, match="imaginary part"):
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
    return [r.args for r in caplog.records
            if r.name == "enaqt" and r.msg.startswith("batched solve")]


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
        (grid_eta,) = efficiency_gamma_grid(spec, [0.3], solver=solver)
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
    etas = efficiency_gamma_grid(spec, gammas, solver=solver)
    for gamma, eta in zip(gammas, etas):
        assert eta == pytest.approx(
            dense_lu_branching(spec.with_gamma(gamma))[0], abs=1e-10)
        # non-negative up to rounding: where the true eta is ~1e-30, the
        # computed one is off by up to ~1e-16 either way
        assert eta >= -1e-15
        single, lost = solver.efficiency(gamma)[:2]
        assert single + lost == pytest.approx(1.0, abs=1e-9)


def _fail_direct_solve_at(monkeypatch, gamma):
    """Make the direct population solve fail its checks at gamma only."""
    certify = EigenbasisSteadySolver._certify

    def failing(self, xs, pops, g2, a, rhs, bnorm):
        eta, eta_loss, resid, certified = certify(self, xs, pops, g2, a, rhs,
                                                  bnorm)
        hit = np.reshape(g2, np.shape(certified)) == 2.0 * gamma
        return eta, eta_loss, resid, certified & ~hit

    monkeypatch.setattr(EigenbasisSteadySolver, "_certify", failing)


def test_grid_redoes_only_the_failed_point(monkeypatch, caplog):
    spec = SystemSpec("ring", 6, (0,), 2, 0.4, 0.02, 0.0)
    gammas = [0.0, 0.1, 0.3, 3.0]
    _fail_direct_solve_at(monkeypatch, 0.3)
    # the failed point's own first answer leaks too, so it ends on the
    # sparse LU
    branching = EigenbasisSteadySolver._branching
    calls = []

    def leaky(self, pops, a):
        eta, eta_loss = branching(self, pops, a)
        calls.append(eta_loss)
        if len(calls) == 1:
            eta_loss = eta_loss + 1e-9j * (np.asarray(gammas) == 0.3)
        return eta, eta_loss

    monkeypatch.setattr(EigenbasisSteadySolver, "_branching", leaky)
    solver = EigenbasisSteadySolver(spec)
    with caplog.at_level(logging.DEBUG, logger="enaqt"):
        etas = efficiency_gamma_grid(spec, gammas, solver=solver)
    assert len(calls) == 2
    assert solver.routes == {"direct-eigenbasis": 3, "direct-sparse": 1}
    ((n, points, max_resid, redone),) = _batch_records(caplog)
    assert (n, points, redone) == (6, 4, 1)
    assert max_resid <= 1e-10
    for gamma, eta in zip(gammas, etas):
        assert eta == pytest.approx(
            _sparse_lu_branching(spec.with_gamma(gamma))[0], abs=1e-12)


def test_grid_point_failing_the_fallback_names_its_gamma(monkeypatch):
    spec = SystemSpec("chain", 5, (0,), 3, 0.4, 0.02, 0.0)
    _fail_direct_solve_at(monkeypatch, 0.3)
    branching = EigenbasisSteadySolver._branching

    def leaky(self, pops, a):
        # every answer of a point solved alone leaks
        eta, eta_loss = branching(self, pops, a)
        return eta, eta_loss + (1e-9j if pops.size == self.n else 0.0)

    monkeypatch.setattr(EigenbasisSteadySolver, "_branching", leaky)
    with pytest.raises(SingularSystemError,
                       match=r"gamma=0\.3: lost probability has imaginary"):
        efficiency_gamma_grid(spec, [0.1, 0.3, 3.0])
    with pytest.raises(SingularSystemError, match=r"gamma=0\.3: "):
        EigenbasisSteadySolver(spec).eta(0.3)


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


def test_grid_rejects_a_spec_that_does_not_match_the_solver():
    solver = EigenbasisSteadySolver(SystemSpec("chain", 4, (0,), 2, 0.5, 0.1,
                                               0.0))
    with pytest.raises(ValidationError, match="does not match"):
        efficiency_gamma_grid(SystemSpec("ring", 5, (0,), 2, 0.5, 0.1, 0.0),
                              [0.3], solver=solver)
    with pytest.raises(ValidationError, match="does not match"):
        efficiency_gamma_grid(SystemSpec("chain", 4, (0,), 2, 0.5, 0.2, 0.0),
                              [0.3], solver=solver)
    # spec's own gamma is ignored
    (eta,) = efficiency_gamma_grid(
        SystemSpec("chain", 4, (0,), 2, 0.5, 0.1, 7.0), [0.3], solver=solver)
    assert eta == solver.eta(0.3)


def test_stack_redo_builds_nothing(monkeypatch):
    # the near-dark cells (mu = 1e-8) fail the batch check at some rates
    # and are redone on their own cell's arrays, without a new solver
    specs = [SystemSpec("chain", 5, (0,), 2, kappa, mu, 0.0)
             for kappa in (1e-4, 1.0, 100.0) for mu in (1e-8, 1e-4, 1.0)]
    gammas = np.concatenate([[0.0], np.geomspace(1e-4, 1e4, 64)])
    solver = EigenbasisSteadySolver(specs)
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
