"""Construction-layer tests: Hamiltonians, specs, generators."""

import math

import numpy as np
import pytest

from enaqt import (
    SystemSpec,
    Topology,
    ValidationError,
    as_density_vec,
    build_hamiltonian,
    build_liouvillian,
    propagate,
    semi_infinite_spec,
)
from enaqt.model import _colouring, _generator, _site_density
from dense_oracles import dense_generator, hopping


def test_chain_hamiltonian_matrix():
    h = hopping("chain", 3)
    expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
    assert np.array_equal(h, expected)


def test_chain_eigenvalues_match_cosine_formula():
    # spectrum of the open chain: 2 cos(pi k / (N+1)), k = 1..N
    for n in range(2, 9):
        evals = np.sort(np.linalg.eigvalsh(hopping("chain", n).real))
        k = np.arange(1, n + 1)
        expected = np.sort(2 * np.cos(np.pi * k / (n + 1)))
        assert np.allclose(evals, expected, atol=1e-12)


def test_ring_eigenvalues_match_cosine_formula():
    # ring spectrum: 2 cos(2 pi k / N)
    for n in range(3, 9):
        evals = np.sort(np.linalg.eigvalsh(hopping("ring", n).real))
        k = np.arange(n)
        expected = np.sort(2 * np.cos(2 * np.pi * k / n))
        assert np.allclose(evals, expected, atol=1e-12)


def test_ring_closes_the_loop():
    h = hopping("ring", 5)
    assert h[0, 4] == 1 and h[4, 0] == 1
    assert h[0, 2] == 0


def test_ring_commutes_with_cyclic_shift():
    n = 6
    h = hopping("ring", n)
    shift = np.roll(np.eye(n), 1, axis=0)
    assert np.allclose(shift @ h @ shift.T, h)


def test_attenuation_diagonal():
    spec = SystemSpec("chain", 4, (0, 2), 1, kappa=0.5, mu=0.1, gamma=0.0)
    a = build_hamiltonian(spec) - hopping("chain", 4)
    diag = np.diagonal(a)
    assert np.allclose(diag, [-0.6j, -0.1j, -0.6j, -0.1j])
    assert np.count_nonzero(a - np.diag(diag)) == 0


def test_attenuation_repeated_trap_not_double_counted():
    spec = SystemSpec("chain", 3, (1, 1), 0, kappa=1.0, mu=0.0, gamma=0.0)
    assert build_hamiltonian(spec)[1, 1] == -1j


def test_total_hamiltonian_combines_parts():
    spec = SystemSpec("chain", 3, (0,), 1, kappa=0.1, mu=0.01, gamma=0.0)
    h = build_hamiltonian(spec)
    assert h[0, 0] == pytest.approx(-0.11j)
    assert h[1, 1] == pytest.approx(-0.01j)
    assert h[0, 1] == 1


@pytest.mark.parametrize("spec", [
    SystemSpec("chain", 5, (0, 3), 2, kappa=0.7, mu=0.03, gamma=0.0),
    SystemSpec("ring", 6, (4,), 1, kappa=0.0, mu=0.0, gamma=0.0),
    SystemSpec("ring", 4, (0,), 2, kappa=3.0, mu=0.0, gamma=0.0),
    SystemSpec("ring", 3, (0, 1), 2, kappa=0.3, mu=0.2, gamma=0.0, v=-0.5),
    semi_infinite_spec(1.7, 0.4, 0.0, offset=2, left=3, right=2),
])
def test_total_hamiltonian_is_hopping_plus_attenuation(spec):
    # byte for byte its element formula: v on each bond, (k, k+1) and on a
    # ring (0, n-1), and the zero diagonal less i(mu + kappa [site traps])
    n = spec.n
    bonds = {(k, k + 1) for k in range(n - 1)}
    if spec.topology is Topology.RING:
        bonds.add((0, n - 1))
    want = np.zeros((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            if a == b:
                trap = 1.0 if a in spec.trap_sites else 0.0
                want[a, b] = complex(0.0, 0.0 - (spec.mu + spec.kappa * trap))
            elif (min(a, b), max(a, b)) in bonds:
                want[a, b] = spec.v
    assert build_hamiltonian(spec).tobytes() == want.tobytes()


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
        ("kappa", math.inf), ("mu", math.nan), ("v", math.nan),
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

    @pytest.mark.parametrize("traps,init", [
        ((0.7,), 1), ((-0.5,), 1), ((2.9,), 1), (("0",), 1),
        ((0,), 1.5), ((0,), 1.0),
    ], ids=["trap-0.7", "trap-minus-0.5", "trap-2.9", "trap-str",
            "init-1.5", "init-1.0"])
    def test_non_integer_site_rejected(self, traps, init):
        # int() would truncate a trap label to another site, and a float
        # initial site would fail later as numpy's IndexError
        with pytest.raises(ValidationError, match="must be integers"):
            SystemSpec("chain", 3, traps, init, 0.1, 0.1, 0.0)

    def test_numpy_integer_sites_stored_as_int(self):
        spec = SystemSpec("chain", 3, (np.int64(0),), np.int64(2),
                          0.1, 0.1, 0.0)
        assert spec.trap_sites == (0,) and spec.initial_site == 2
        assert type(spec.trap_sites[0]) is int
        assert type(spec.initial_site) is int

    def test_numpy_integer_site_count_stored_as_int(self):
        spec = SystemSpec("chain", np.int64(5), (0,), 2, 0.1, 0.1, 0.0)
        assert spec.n == 5 and type(spec.n) is int
        assert spec == SystemSpec("chain", 5, (0,), 2, 0.1, 0.1, 0.0)

    def test_initial_on_single_trap_rejected(self):
        with pytest.raises(ValidationError):
            SystemSpec("chain", 3, (1,), 1, 0.1, 0.1, 0.0)

    def test_initial_on_one_of_several_traps_allowed(self):
        spec = SystemSpec("chain", 4, (1, 2), 1, 0.1, 0.1, 0.0)
        assert spec.initial_site == 1

    def test_semi_infinite_requires_offset(self):
        with pytest.raises(ValidationError):
            SystemSpec("semi-infinite", 10, (0, 1), 3, 0.1, 0.1, 0.0)

    @pytest.mark.parametrize("topology, offset, message", [
        ("semi-infinite", 1.5, "offset=1.5 must be an integer >= 1"),
        ("semi-infinite", 0, "offset=0 must be an integer >= 1"),
        ("chain", 7, "offset=7 is given for the semi-infinite topology only"),
    ], ids=["float", "zero", "chain"])
    def test_offset_checked_once(self, topology, offset, message):
        # a float offset was stored as given, and a chain's was ignored
        with pytest.raises(ValidationError, match=message):
            SystemSpec(topology, 6, (0, 1), 2, 1, 0.1, 0.5, offset=offset)
        spec = SystemSpec("semi-infinite", 6, (0, 1), 2, 1, 0.1, 0.5,
                          offset=np.int64(1))
        assert spec.offset == 1 and type(spec.offset) is int
        if topology == "semi-infinite":
            # not as a non-integer n or initial site
            with pytest.raises(ValidationError, match=message):
                semi_infinite_spec(1.0, 0.5, 0.0, offset=offset, left=3,
                                   right=3)

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


def test_semi_infinite_spec_needs_mu_only_to_size_a_side():
    # given both sizes, mu = 0 is a valid rate; without one, mu sizes it
    spec = semi_infinite_spec(1.0, 0.0, 0.0, 1, 4, 4)
    assert (spec.n, spec.mu) == (9, 0.0)
    for sizes in ((), (4,)):
        with pytest.raises(ValidationError,
                           match="sizing needs mu > 0, got mu=0.0"):
            semi_infinite_spec(1.0, 0.0, 0.0, 1, *sizes)


@pytest.mark.parametrize("mu", [math.nan, math.inf])
def test_semi_infinite_spec_rejects_non_finite_mu(mu):
    # the model's one rate check, before mu sizes the sides
    with pytest.raises(ValidationError, match=f"mu={mu!r} must be finite"):
        semi_infinite_spec(1.0, mu, 0.0)


@pytest.mark.parametrize("spec", [
    *(SystemSpec("chain", n, (0,), 1, 1.0, 0.1, 0.0) for n in range(2, 10)),
    *(SystemSpec("ring", n, (0,), 1, 1.0, 0.1, 0.0) for n in range(3, 12)),
    semi_infinite_spec(1.0, 0.5, 0.0, offset=2, left=7, right=5),
    semi_infinite_spec(1.0, 0.5, 0.0, offset=1, left=4, right=4),
], ids=lambda spec: f"{spec.topology.value}{spec.n}")
def test_colouring_is_missing_exactly_for_odd_rings(spec):
    # a 2-colouring of the sites that every bond of the hopping respects;
    # an odd ring has none
    colours = _colouring(spec)
    if spec.topology is Topology.RING and spec.n % 2:
        assert colours is None
        return
    assert set(colours.tolist()) == {0, 1} and colours.shape == (spec.n,)
    bonds = np.argwhere(build_hamiltonian(spec).real != 0.0)
    assert len(bonds) and (colours[bonds[:, 0]] != colours[bonds[:, 1]]).all()


def test_semi_infinite_default_sizing():
    spec = semi_infinite_spec(1.0, 0.1, 0.0)
    assert spec.trap_sites == tuple(range(160))  # ceil(16 / 0.1)
    assert spec.n == 160 + 1 + 160


def test_population_index_row_major():
    # the population of site s sits at vec index s*n + s
    vec = _site_density(4, 2)
    assert vec[10] == 1.0 and vec.sum() == 1.0
    pops = np.array([0.1, 0.2, 0.3, 0.4])
    assert np.array_equal(as_density_vec(np.diag(pops), 4)[::5], pops)


def test_missing_density_matrix_rejected():
    # None is an array of no shape, which the shape check rejects
    with pytest.raises(ValidationError,
                       match=r"density matrix of shape \(\) is neither"):
        as_density_vec(None, 3)


def test_semi_infinite_spec_needs_a_trap_region():
    with pytest.raises(ValidationError, match="requires a trap region"):
        SystemSpec("semi-infinite", 5, (), 2, 1.0, 0.5, 0.0, offset=1)


def test_as_density_vec_accepts_all_forms():
    mat = np.eye(3, dtype=complex) / 3
    for form in (mat, mat.reshape(-1)):
        out = as_density_vec(form, 3)
        assert out.shape == (9,)
        assert np.array_equal(out, mat.reshape(-1))
    with pytest.raises(ValidationError):
        as_density_vec(mat, 4)


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
    lmat = dense_generator(spec)
    h = build_hamiltonian(spec)
    n = spec.n
    for row in range(n * n):
        for col in range(n * n):
            assert lmat[row, col] == pytest.approx(
                _liouvillian_element(h, spec.gamma, n, row, col), abs=1e-14)


def test_matrix_free_apply_matches_dense():
    # _generator certifies every steady solve; n = 17 is above the
    # solver's map-assembled population solve
    rng = np.random.default_rng(7)
    for spec in (SystemSpec("ring", 5, (1,), 3, 0.3, 0.02, 0.8),
                 SystemSpec("chain", 17, (0, 9), 4, 1.3, 0.1, 2.5)):
        h = build_hamiltonian(spec)
        mh, mhd = -1j * h[None], -1j * h.conj().T[None]
        sup = build_liouvillian(spec)
        assert sup.representation == "sparse"
        dense = dense_generator(spec)
        dim = spec.n ** 2
        for _ in range(5):
            vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            free = _generator(vec.reshape(1, 1, -1), 2.0 * spec.gamma, mh,
                              mhd).reshape(-1)
            assert np.allclose(free, dense @ vec, atol=1e-13)
            assert np.allclose(sup.apply(vec), dense @ vec, atol=1e-13)


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
    evals = np.linalg.eigvals(dense_generator(spec))
    assert evals.real.max() < 1e-12


def test_conservative_evolution_when_all_rates_zero():
    spec = SystemSpec("chain", 4, (), 1, 0.0, 0.0, 0.0)
    traj = propagate(spec, horizon=50.0)
    assert np.allclose(traj.traces, 1.0, atol=1e-8)
    final = traj.states[-1]
    assert np.allclose(final, final.conj().T, atol=1e-8)
    # purity is preserved under purely coherent evolution
    assert np.trace(final @ final).real == pytest.approx(1.0, abs=1e-7)
    assert traj.trapped_cumulative[-1] == 0.0
    assert traj.loss_cumulative[-1] == 0.0

