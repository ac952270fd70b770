"""Construction-layer tests: Hamiltonians, specs, generators."""

import math

import numpy as np
import pytest

from enaqt import (
    DensityState,
    SystemSpec,
    Topology,
    ValidationError,
    as_density_vec,
    build_attenuation,
    build_chain_hamiltonian,
    build_hamiltonian,
    build_liouvillian,
    build_ring_hamiltonian,
    population_index,
    propagate,
    semi_infinite_spec,
    site_density,
    state_density,
)


def test_chain_hamiltonian_matrix():
    h = build_chain_hamiltonian(3)
    expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
    assert np.array_equal(h, expected)


def test_chain_eigenvalues_match_cosine_formula():
    # spectrum of the open chain: 2 cos(pi k / (N+1)), k = 1..N
    for n in range(2, 9):
        evals = np.sort(np.linalg.eigvalsh(build_chain_hamiltonian(n).real))
        k = np.arange(1, n + 1)
        expected = np.sort(2 * np.cos(np.pi * k / (n + 1)))
        assert np.allclose(evals, expected, atol=1e-12)


def test_ring_eigenvalues_match_cosine_formula():
    # ring spectrum: 2 cos(2 pi k / N)
    for n in range(3, 9):
        evals = np.sort(np.linalg.eigvalsh(build_ring_hamiltonian(n).real))
        k = np.arange(n)
        expected = np.sort(2 * np.cos(2 * np.pi * k / n))
        assert np.allclose(evals, expected, atol=1e-12)


def test_ring_closes_the_loop():
    h = build_ring_hamiltonian(5)
    assert h[0, 4] == 1 and h[4, 0] == 1
    assert h[0, 2] == 0


def test_ring_commutes_with_cyclic_shift():
    n = 6
    h = build_ring_hamiltonian(n)
    shift = np.roll(np.eye(n), 1, axis=0)
    assert np.allclose(shift @ h @ shift.T, h)


def test_attenuation_diagonal():
    a = build_attenuation(4, (0, 2), kappa=0.5, mu=0.1)
    diag = np.diagonal(a)
    assert np.allclose(diag, [-0.6j, -0.1j, -0.6j, -0.1j])
    assert np.count_nonzero(a - np.diag(diag)) == 0


def test_attenuation_repeated_trap_not_double_counted():
    a = build_attenuation(3, (1, 1), kappa=1.0, mu=0.0)
    assert a[1, 1] == -1j


def test_total_hamiltonian_combines_parts():
    spec = SystemSpec("chain", 3, (0,), 1, kappa=0.1, mu=0.01, gamma=0.0)
    h = build_hamiltonian(spec)
    assert h[0, 0] == pytest.approx(-0.11j)
    assert h[1, 1] == pytest.approx(-0.01j)
    assert h[0, 1] == 1


class TestSystemSpecValidation:
    def test_topology_coerced_from_string(self):
        spec = SystemSpec("ring", 4, (0,), 1, 0.1, 0.1, 0.0)
        assert spec.topology is Topology.RING

    def test_trap_sites_sorted_and_deduplicated(self):
        spec = SystemSpec("chain", 5, (3, 1, 3), 0, 0.1, 0.1, 0.0)
        assert spec.trap_sites == (1, 3)

    def test_ring_needs_three_sites(self):
        with pytest.raises(ValidationError):
            SystemSpec("ring", 2, (0,), 1, 0.1, 0.1, 0.0)

    @pytest.mark.parametrize("field,value", [
        ("kappa", -0.1), ("mu", -1.0), ("gamma", -2.0),
        ("kappa", math.inf), ("mu", math.nan),
    ])
    def test_bad_rates_rejected(self, field, value):
        kw = dict(kappa=0.1, mu=0.1, gamma=0.0)
        kw[field] = value
        with pytest.raises(ValidationError):
            SystemSpec("chain", 3, (0,), 1, **kw)

    def test_site_out_of_range(self):
        with pytest.raises(ValidationError):
            SystemSpec("chain", 3, (3,), 1, 0.1, 0.1, 0.0)
        with pytest.raises(ValidationError):
            SystemSpec("chain", 3, (0,), -1, 0.1, 0.1, 0.0)

    def test_initial_on_single_trap_rejected(self):
        with pytest.raises(ValidationError):
            SystemSpec("chain", 3, (1,), 1, 0.1, 0.1, 0.0)

    def test_initial_on_one_of_several_traps_allowed(self):
        spec = SystemSpec("chain", 4, (1, 2), 1, 0.1, 0.1, 0.0)
        assert spec.initial_site == 1

    def test_semi_infinite_requires_offset(self):
        with pytest.raises(ValidationError):
            SystemSpec("semi-infinite", 10, (0, 1), 3, 0.1, 0.1, 0.0)

    def test_with_rates_copies(self):
        spec = SystemSpec("chain", 3, (0,), 1, 0.1, 0.01, 0.0)
        other = spec.with_rates(mu=0.5)
        assert other.mu == 0.5 and other.kappa == 0.1
        assert spec.mu == 0.01


def test_semi_infinite_spec_geometry():
    spec = semi_infinite_spec(1.0, 0.5, 0.0, offset=2, left=7, right=5)
    assert spec.n == 7 + 2 + 5
    assert spec.trap_sites == tuple(range(7))
    assert spec.initial_site == 8
    assert spec.offset == 2


def test_semi_infinite_default_sizing():
    spec = semi_infinite_spec(1.0, 0.1, 0.0)
    assert spec.trap_sites == tuple(range(160))  # ceil(16 / 0.1)
    assert spec.n == 160 + 1 + 160


def test_population_index_row_major():
    assert population_index(4, 0) == 0
    assert population_index(4, 2) == 10
    vec = site_density(4, 2)
    assert vec[10] == 1.0 and vec.sum() == 1.0


def test_state_density_normalizes():
    vec = state_density(np.array([3.0, 4.0]))
    rho = vec.reshape(2, 2)
    assert np.trace(rho).real == pytest.approx(1.0)
    assert rho[0, 0].real == pytest.approx(9 / 25)
    with pytest.raises(ValidationError):
        state_density(np.zeros(3))


def test_as_density_vec_accepts_all_forms():
    mat = np.eye(3, dtype=complex) / 3
    state = DensityState(mat.reshape(-1))
    for form in (mat, mat.reshape(-1), state):
        out = as_density_vec(form, 3)
        assert out.shape == (9,)
    with pytest.raises(ValidationError):
        as_density_vec(mat, 4)


def test_density_state_properties():
    mat = np.diag([0.25, 0.75]).astype(complex)
    st = DensityState(mat.reshape(-1), time=2.5)
    assert st.n == 2
    assert st.trace == pytest.approx(1.0)
    assert np.array_equal(st.matrix, mat)


def _liouvillian_element(h, gamma, n, row, col):
    # L[(a,b),(p,q)] = -i H[a,p] d(b,q) + i conj(H[b,q]) d(a,p)
    #                  - 2 gamma (1 - d(a,b)) d(a,p) d(b,q)
    a, b = divmod(row, n)
    p, q = divmod(col, n)
    val = 0.0 + 0.0j
    if b == q:
        val += -1j * h[a, p]
    if a == p:
        val += 1j * np.conj(h[b, q])
    if a != b and a == p and b == q:
        val += -2.0 * gamma
    return val


@pytest.mark.parametrize("spec", [
    SystemSpec("chain", 3, (0,), 1, 0.1, 0.01, 0.3),
    SystemSpec("chain", 4, (0, 3), 1, 0.7, 0.2, 1.5),
    SystemSpec("ring", 4, (2,), 0, 0.4, 0.05, 0.9),
])
def test_dense_liouvillian_matches_element_formula(spec):
    lop = build_liouvillian(spec, dense=True)
    h = build_hamiltonian(spec)
    n = spec.n
    for row in range(n * n):
        for col in range(n * n):
            assert lop.matrix[row, col] == pytest.approx(
                _liouvillian_element(h, spec.gamma, n, row, col), abs=1e-14)


def test_matrix_free_apply_matches_dense():
    spec = SystemSpec("ring", 5, (1,), 3, 0.3, 0.02, 0.8)
    dense = build_liouvillian(spec, dense=True)
    free = build_liouvillian(spec, dense=False)
    assert free.representation == "matrix-free"
    with pytest.raises(ValidationError):
        free.matrix
    rng = np.random.default_rng(7)
    for _ in range(5):
        vec = rng.normal(size=25) + 1j * rng.normal(size=25)
        assert np.allclose(free.apply(vec), dense.matrix @ vec, atol=1e-13)


def test_trace_rate_identity():
    # d/dt tr rho = -2 mu tr rho - 2 kappa sum_traps rho_tt for any rho
    spec = SystemSpec("chain", 4, (0, 2), 3, 0.6, 0.15, 1.1)
    lop = build_liouvillian(spec)
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    drho = lop.apply(rho.reshape(-1)).reshape(4, 4)
    expected = -2 * spec.mu * np.trace(rho) - 2 * spec.kappa * (
        rho[0, 0] + rho[2, 2])
    assert np.trace(drho) == pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_liouvillian_spectrum_damped(n):
    # every generator eigenvalue has nonpositive real part
    spec = SystemSpec("chain", n, (0,), n - 1, 0.5, 0.1, 0.7)
    evals = np.linalg.eigvals(build_liouvillian(spec, dense=True).matrix)
    assert evals.real.max() < 1e-12


def test_conservative_evolution_when_all_rates_zero():
    spec = SystemSpec("chain", 4, (), 1, 0.0, 0.0, 0.0)
    traj = propagate(spec, horizon=50.0, store_states=True)
    assert np.allclose(traj.traces, 1.0, atol=1e-8)
    final = traj.states[-1].matrix
    assert np.allclose(final, final.conj().T, atol=1e-8)
    # purity is preserved under purely coherent evolution
    assert np.trace(final @ final).real == pytest.approx(1.0, abs=1e-7)
    assert traj.trapped_cumulative[-1] == 0.0
    assert traj.loss_cumulative[-1] == 0.0

