"""Test oracles: the dense generator, its LU and the accumulator solve.

dense_generator forms the n^2 x n^2 generator by Kronecker products,
independently of the library's matrix-free one.  The LU and the
accumulator solve it independently of the library's population-space
engine, so tests can check that engine against them.  Dense matrices make
them practical up to about 16 sites; sparse_lu_branching assembles the
same generator from sparse Kronecker products for larger chains.
"""

import warnings

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from enaqt import (
    EfficiencyReport,
    SingularSystemError,
    SystemSpec,
    build_hamiltonian,
)
from enaqt.model import _site_density
from enaqt.solver import RESID_ACCEPT, RESID_TARGET, _refine

RCOND_FLOOR = 1e-12   # reciprocal condition estimate below which we refuse
REAL_TOL = 1e-10      # imaginary part of a probability above which we refuse


def hopping(topology, n: int) -> np.ndarray:
    """The hopping part of H on a chain or ring of n sites: H at zero
    rates."""
    return build_hamiltonian(SystemSpec(topology, n, (), 0, 0.0, 0.0, 0.0))


def dense_generator(spec: SystemSpec) -> np.ndarray:
    """The n^2 x n^2 generator of d/dt vec(rho), row-major vec, as a dense
    matrix: -i(H x I) + i(I x conj H) - 2 gamma on the coherences."""
    h = build_hamiltonian(spec)
    eye = np.eye(spec.n)
    mat = -1j * np.kron(h, eye) + 1j * np.kron(eye, h.conj())
    mat[np.diag_indices(spec.n ** 2)] -= 2.0 * spec.gamma * (
        1.0 - eye).reshape(-1)
    return mat


def _real_checked(value: complex, what: str) -> float:
    if abs(value.imag) > REAL_TOL:
        raise SingularSystemError(
            f"{what} has imaginary part {value.imag:.3e}; "
            "the solve is not trustworthy")
    return float(value.real)


def _gated_solve(mat: np.ndarray, rhs: np.ndarray):
    """LU solve with a condition gate, one refinement pass, and a residual gate.

    Returns (x, relative_residual).  Raises SingularSystemError when the
    reciprocal condition estimate falls below RCOND_FLOOR (e.g. a dark state
    at mu = 0 makes the steady integral divergent) or when the refined
    residual still exceeds RESID_ACCEPT.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu, piv = sla.lu_factor(mat, check_finite=False)
    anorm = np.abs(mat).sum(axis=0).max()
    rcond = sla.lapack.zgecon(lu, anorm, norm="1")[0]
    if not np.isfinite(rcond) or rcond < RCOND_FLOOR:
        raise SingularSystemError(
            f"steady-state system is singular to working precision "
            f"(condition estimate {rcond:.2e}); with mu = 0 a dark state "
            "never decays -- evaluate at mu = 1e-8 for the mu -> 0+ limit")
    bnorm = np.linalg.norm(rhs)
    x = sla.lu_solve((lu, piv), rhs, check_finite=False)
    resid = np.linalg.norm(mat @ x - rhs) / bnorm
    if resid > RESID_TARGET:
        mat_ld = mat.astype(np.clongdouble)
        x, resid = _refine(
            lambda v: mat_ld @ v,
            lambda r: sla.lu_solve((lu, piv), r, check_finite=False),
            x, rhs, bnorm)
    if resid > RESID_ACCEPT:
        raise SingularSystemError(
            f"solve residual {resid:.2e} exceeds {RESID_ACCEPT:.0e}")
    return x, float(resid)


def _branching(spec: SystemSpec, x: np.ndarray):
    """eta, eta_loss from the steady integral vector x."""
    n = spec.n
    pops = x[:: n + 1]
    trap_pop = sum(x[t * (n + 1)] for t in spec.trap_sites)
    eta = _real_checked(2.0 * spec.kappa * trap_pop, "trapped probability")
    eta_loss = _real_checked(2.0 * spec.mu * pops.sum(), "lost probability")
    return eta, eta_loss


def dense_lu_branching(spec):
    """(eta, eta_loss) from the gated LU of the dense n^2 x n^2 generator."""
    lmat = dense_generator(spec)
    x, _ = _gated_solve(lmat, -_site_density(spec.n, spec.initial_site))
    return _branching(spec, x)


def sparse_lu_branching(spec):
    """(eta, eta_loss) from a sparse LU of the generator of dense_generator,
    assembled by sparse Kronecker products, with a residual gate."""
    n = spec.n
    h = sp.csr_matrix(build_hamiltonian(spec))
    eye = sp.identity(n, format="csr")
    mat = (-1j * sp.kron(h, eye) + 1j * sp.kron(eye, h.conj())
           - sp.diags(2.0 * spec.gamma * (1.0 - np.eye(n)).reshape(-1))
           ).tocsc()
    rhs = -_site_density(n, spec.initial_site)
    x = spla.splu(mat).solve(rhs)
    resid = np.linalg.norm(mat @ x - rhs) / np.linalg.norm(rhs)
    if resid > RESID_ACCEPT:
        raise SingularSystemError(
            f"sparse solve residual {resid:.2e} exceeds {RESID_ACCEPT:.0e}")
    return _branching(spec, x)


def efficiency_accumulator(spec, epsilon: float = 1.0) -> EfficiencyReport:
    """Trapping probability read from an augmented-generator steady state.

    The generator is extended by an accumulator coordinate fed at 2*kappa
    from the trap populations, with epsilon on its own diagonal and
    nothing flowing back into the state sector.  The shifted system
    L~ sigma = epsilon * rho~(0) has the state sector sigma = -epsilon*X,
    with X the steady integral (L X = -rho0), so the accumulator row gives
    sigma_acc = 2*kappa * sum_traps X[t, t] = +eta for every epsilon > 0.
    Needs mu > 0 so the state sector fully decays.
    """
    n = spec.n
    dim = n * n + 1
    mat = np.zeros((dim, dim), dtype=complex)
    mat[: n * n, : n * n] = dense_generator(spec)
    for t in spec.trap_sites:
        mat[dim - 1, t * (n + 1)] = 2.0 * spec.kappa
    mat[dim - 1, dim - 1] = epsilon
    rhs = np.zeros(dim, dtype=complex)
    rhs[: n * n] = epsilon * _site_density(n, spec.initial_site)
    sigma, resid = _gated_solve(mat, rhs)
    eta = _real_checked(sigma[dim - 1], "trapped probability")
    x = -sigma[: n * n] / epsilon
    pops = x[:: n + 1]
    eta_loss = _real_checked(2.0 * spec.mu * pops.sum(), "lost probability")
    return EfficiencyReport(eta, eta_loss, "accumulator", resid)
