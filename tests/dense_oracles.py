"""Test oracles: the dense n^2 x n^2 LU and the accumulator solve.

Both solve the full vectorized generator, independently of the library's
population-space engine, so tests can check that engine against them.
Dense matrices make them practical up to about 16 sites.
"""

import warnings

import numpy as np
import scipy.linalg as sla

from enaqt import (
    EfficiencyReport,
    SingularSystemError,
    SystemSpec,
    build_liouvillian,
    population_index,
    site_density,
)
from enaqt.solver import REAL_TOL, RESID_ACCEPT, RESID_TARGET, _refine

RCOND_FLOOR = 1e-12   # reciprocal condition estimate below which we refuse


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
    pops = x[[population_index(n, s) for s in range(n)]]
    trap_pop = sum(x[population_index(n, t)] for t in spec.trap_sites)
    eta = _real_checked(2.0 * spec.kappa * trap_pop, "trapped probability")
    eta_loss = _real_checked(2.0 * spec.mu * pops.sum(), "lost probability")
    return eta, eta_loss


def dense_lu_branching(spec):
    """(eta, eta_loss) from the gated LU of the dense n^2 x n^2 generator."""
    lmat = build_liouvillian(spec, dense=True).matrix
    x, _ = _gated_solve(lmat, -site_density(spec.n, spec.initial_site))
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
    mat[: n * n, : n * n] = build_liouvillian(spec, dense=True).matrix
    for t in spec.trap_sites:
        mat[dim - 1, population_index(n, t)] = 2.0 * spec.kappa
    mat[dim - 1, dim - 1] = epsilon
    rhs = np.zeros(dim, dtype=complex)
    rhs[: n * n] = epsilon * site_density(n, spec.initial_site)
    sigma, resid = _gated_solve(mat, rhs)
    eta = _real_checked(sigma[dim - 1], "trapped probability")
    x = -sigma[: n * n] / epsilon
    pops = x[[population_index(n, s) for s in range(n)]]
    eta_loss = _real_checked(2.0 * spec.mu * pops.sum(), "lost probability")
    return EfficiencyReport(eta, eta_loss, "accumulator", resid)
