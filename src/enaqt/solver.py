"""Transport-efficiency solvers: exact steady-integral solves and propagation.

The trapped probability is eta = 2*kappa * sum_traps of the time integral of
the trap populations; the lost probability is eta_loss = 2*mu times the
integrated total population.  Because the state fully decays whenever mu > 0
(or kappa > 0 with no dark state), the integral x = int_0^inf vec(rho) dt
satisfies the linear system L x = -vec(rho0), which is solved directly.

Three independent routes are implemented and cross-validated:

* efficiency_direct    -- resolvent solve of L x = -vec(rho0)
* efficiency_accumulator -- augmented-generator solve reading one coordinate
* propagate            -- adaptive Runge-Kutta integration of the motion

The steady solve has one engine per size.  Up to DENSE_SOLVE_MAX_N sites
it is a gated LU of the dense n^2 x n^2 generator (batched over gamma
grids).  Above it, EigenbasisSteadySolver reduces the solve to the n site
populations in the eigenbasis of H and solves that system by GMRES, with a
sparse LU of the full generator as its single fallback.  Both routes certify
every answer by the residual of the full generator.
"""

from __future__ import annotations

import logging
import math
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SingularSystemError, StiffnessError, ValidationError
from .model import (
    DENSE_LIMIT,
    DensityState,
    Superoperator,
    SystemSpec,
    as_density_vec,
    build_hamiltonian,
    build_liouvillian,
    build_augmented_liouvillian,
    population_index,
    site_density,
)

__all__ = [
    "EfficiencyReport",
    "Trajectory",
    "efficiency_direct",
    "efficiency_accumulator",
    "propagate",
    "survival_probability",
    "efficiency_gamma_grid",
    "EigenbasisSteadySolver",
]

RESID_ACCEPT = 1e-9   # relative residual above which a solve is rejected
RCOND_FLOOR = 1e-12   # reciprocal condition estimate below which we refuse
REAL_TOL = 1e-10      # allowed imaginary leakage in probabilities
# Largest n solved by the dense n^2 x n^2 LU; every larger system goes to
# EigenbasisSteadySolver (at gamma = 0.5 the two cost 5.0 and 3.4 ms at
# n = 16, 28 and 5 ms at n = 24, 1035 and 10 ms at n = 48).
DENSE_SOLVE_MAX_N = 16

_log = logging.getLogger("enaqt")


@dataclass(frozen=True)
class EfficiencyReport:
    """Branching probabilities from one solve.

    eta is the probability the particle is ever trapped, eta_loss the
    probability it is lost; for mu > 0 the two sum to 1.  residual is the
    relative residual of the underlying linear solve (0 for propagation).
    """

    eta: float
    eta_loss: float
    method: str
    residual: float


@dataclass
class Trajectory:
    """Time evolution record produced by propagate().

    states is None when state storage was disabled (large systems).
    trapped_cumulative[i] is 2*kappa * int_0^t_i of the trap populations, a
    non-decreasing sequence; eta_estimate adds the tail estimate
    trace/2 at the horizon, which is bounded by the remaining trace.
    """

    times: np.ndarray
    states: list[DensityState] | None
    traces: np.ndarray
    trapped_cumulative: np.ndarray
    loss_cumulative: np.ndarray
    eta_estimate: float
    eta_loss_estimate: float
    tail_bound: float
    n_steps: int
    n_rejected: int


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
    if resid > 1e-10:
        mat_ld = mat.astype(np.clongdouble)
        x, resid = _refine(
            lambda v: mat_ld @ v,
            lambda r: sla.lu_solve((lu, piv), r, check_finite=False),
            x, rhs, bnorm)
    if resid > RESID_ACCEPT:
        raise SingularSystemError(
            f"solve residual {resid:.2e} exceeds {RESID_ACCEPT:.0e}")
    return x, float(resid)


def _refine(apply_ld, solve, x, rhs, bnorm):
    """Mixed-precision iterative refinement of a solve of L x = rhs.

    Near-singular systems (mu ~ 1e-8) have solutions of norm ~1/mu,
    putting the plain double-precision residual floor (eps*|L|*|x|) above
    the acceptance threshold; computing the residual in extended precision
    (apply_ld maps an extended-precision x to L x) and correcting with the
    double-precision `solve` pushes the true residual back below it.
    Returns (x, relative_residual).
    """
    rhs_ld = rhs.astype(np.clongdouble)
    x_ld = x.astype(np.clongdouble)
    for attempt in range(4):
        r_ld = apply_ld(x_ld) - rhs_ld
        resid = float(np.sqrt((np.abs(r_ld) ** 2).sum())) / bnorm
        if resid <= 1e-10 or attempt == 3:
            break
        x_ld = x_ld - solve(np.asarray(r_ld, dtype=complex))
    return np.asarray(x_ld, dtype=complex), float(resid)


def _branching(spec: SystemSpec, x: np.ndarray):
    """eta, eta_loss from the steady integral vector x."""
    n = spec.n
    pops = x[[population_index(n, s) for s in range(n)]]
    trap_pop = sum(x[population_index(n, t)] for t in spec.trap_sites)
    eta = _real_checked(2.0 * spec.kappa * trap_pop, "trapped probability")
    eta_loss = _real_checked(2.0 * spec.mu * pops.sum(), "lost probability")
    return eta, eta_loss


def efficiency_direct(spec: SystemSpec, rho0=None) -> EfficiencyReport:
    """Trapping and loss probabilities from the resolvent solve.

    Solves L x = -vec(rho0), valid because rho(inf) = 0 whenever mu > 0 or
    trapping reaches every part of the initial state, and reads off
    eta = 2*kappa*sum_traps x[tau,tau], eta_loss = 2*mu*tr x.

    Up to DENSE_SOLVE_MAX_N sites the dense generator is LU-factored
    (method "direct").  Larger systems are solved in population space by
    EigenbasisSteadySolver ("direct-eigenbasis"), or by its sparse-LU
    fallback ("direct-sparse") when that answer fails certification.

    Parameters
    ----------
    spec : SystemSpec
    rho0 : optional
        Initial density matrix (DensityState, vector, or matrix).  Defaults
        to the particle localized on spec.initial_site.

    Raises
    ------
    SingularSystemError
        If the generator is singular (dark state at mu = 0) or the solve
        residual or imaginary leakage is not acceptable.
    """
    n = spec.n
    vec0 = (site_density(n, spec.initial_site) if rho0 is None
            else as_density_vec(rho0, n))
    if n > DENSE_SOLVE_MAX_N:
        solver = EigenbasisSteadySolver(spec)
        eta, eta_loss, resid, method = solver.efficiency(
            spec.gamma, rho0=vec0)[:4]
        return EfficiencyReport(eta, eta_loss, method, resid)
    lmat = build_liouvillian(spec, dense=True).matrix
    x, resid = _gated_solve(lmat, -vec0)
    eta, eta_loss = _branching(spec, x)
    return EfficiencyReport(eta, eta_loss, "direct", resid)


def efficiency_accumulator(spec: SystemSpec, rho0=None,
                           epsilon: float = 1.0) -> EfficiencyReport:
    """Trapping probability read from the augmented-generator steady state.

    The generator is extended by an accumulator coordinate fed at 2*kappa
    from the trap populations, and the shifted system
    L~(eps) sigma = eps * rho~(0) is solved; the accumulator entry then
    carries the trapped probability, independent of eps.  The entry is read
    as an absolute value, a convention fixed once against the propagation
    oracle (the balance equation leaves its overall sign ambiguous).

    Requires mu > 0 so the state sector fully decays.
    """
    if epsilon <= 0:
        raise ValidationError(f"epsilon must be > 0, got {epsilon!r}")
    if spec.mu <= 0:
        raise ValidationError("accumulator method requires mu > 0")
    n = spec.n
    vec0 = (site_density(n, spec.initial_site) if rho0 is None
            else as_density_vec(rho0, n))
    aug = build_augmented_liouvillian(spec, epsilon)
    rhs = np.zeros(aug.dim, dtype=complex)
    rhs[: n * n] = epsilon * vec0
    sigma, resid = _gated_solve(aug.matrix, rhs)
    eta = abs(sigma[aug.accumulator_index])
    # State sector holds -eps times the steady integral.
    x = -sigma[: n * n] / epsilon
    pops = x[[population_index(n, s) for s in range(n)]]
    eta_loss = _real_checked(2.0 * spec.mu * pops.sum(), "lost probability")
    return EfficiencyReport(eta, eta_loss, "accumulator", resid)


# Dormand-Prince 5(4) tableau; row 7 equals the 5th-order weights (FSAL).
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784,
                   11 / 84, 0.0])
_DP_ERR = _DP_B5 - np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                             -92097 / 339200, 187 / 2100, 1 / 40])


def propagate(spec: SystemSpec, rho0=None, horizon: float | None = None,
              rtol: float = 1e-9, atol: float = 1e-12,
              store_states: bool | None = None) -> Trajectory:
    """Adaptive time integration of the master equation.

    The state vector is augmented with the two running integrals
    2*kappa*int rho_trap dt and 2*mu*int tr rho dt, so the quadrature is
    carried by the same embedded error control as the state itself.  The
    terminal efficiency estimate adds half the surviving trace as a tail
    estimate; the full surviving trace bounds the tail error.

    Parameters
    ----------
    spec : SystemSpec
    rho0 : optional initial density (defaults to the initial site).
    horizon : float, optional
        Integration endpoint.  Defaults to 50/mu, by which the surviving
        trace is below e^-100.  Required explicitly when mu = 0.
    rtol, atol : float
        Embedded local error control.
    store_states : bool, optional
        Keep the full state at every accepted step.  Defaults to True for
        dense-sized systems and False above DENSE_LIMIT sites.

    Raises
    ------
    StiffnessError
        If the step size underflows; very large gamma*dt calls for an
        implicit method.
    """
    if horizon is None:
        if spec.mu <= 0:
            raise ValidationError("horizon is required when mu = 0")
        horizon = 50.0 / spec.mu
    if horizon <= 0 or rtol <= 0:
        raise ValidationError("horizon and rtol must be > 0")
    n = spec.n
    if store_states is None:
        store_states = n <= DENSE_LIMIT
    vec0 = (site_density(n, spec.initial_site) if rho0 is None
            else as_density_vec(rho0, n))
    lop = build_liouvillian(spec)
    didx = np.array([population_index(n, s) for s in range(n)])
    tidx = np.array([population_index(n, t) for t in spec.trap_sites],
                    dtype=int)
    m = n * n
    two_kappa, two_mu = 2.0 * spec.kappa, 2.0 * spec.mu

    def rhs(y):
        out = np.empty(m + 2, dtype=complex)
        out[:m] = lop.apply(y[:m])
        out[m] = two_kappa * y[tidx].sum() if tidx.size else 0.0
        out[m + 1] = two_mu * y[didx].sum()
        return out

    y = np.concatenate([vec0, [0.0, 0.0]]).astype(complex)
    t = 0.0
    k1 = rhs(y)
    times = [0.0]
    traces = [y[didx].sum().real]
    trapped = [0.0]
    lost = [0.0]
    states = [DensityState(vec0.copy(), 0.0)] if store_states else None

    stages = np.empty((7, m + 2), dtype=complex)
    h = min(0.1, horizon)
    err_prev = 1.0
    n_acc = n_rej = 0
    while t < horizon:
        h = min(h, horizon - t)
        stages[0] = k1
        for i in range(1, 7):
            yi = y + h * np.tensordot(np.asarray(_DP_A[i]), stages[:i], 1)
            stages[i] = rhs(yi)
        y5 = y + h * (_DP_B5 @ stages)
        err = h * (_DP_ERR @ stages)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        enorm = math.sqrt(float(np.mean((np.abs(err) / scale) ** 2)))
        if enorm <= 1.0:
            t += h
            y = y5
            k1 = stages[6]  # FSAL
            n_acc += 1
            times.append(t)
            traces.append(y[didx].sum().real)
            trapped.append(y[m].real)
            lost.append(y[m + 1].real)
            if store_states:
                states.append(DensityState(y[:m].copy(), t))
            # PI controller: current and previous error weighted.
            en = max(enorm, 1e-16)
            fac = 0.9 * en ** -0.14 * err_prev ** 0.08
            err_prev = max(en, 1e-10)
        else:
            n_rej += 1
            fac = max(0.2, 0.9 * enorm ** -0.2)
        h *= min(5.0, max(0.2, fac))
        if h < 1e-13 * max(1.0, abs(t)):
            raise StiffnessError(
                f"step size underflow at t={t:.3g} (gamma*dt too stiff); "
                "reduce the horizon or use the direct solver")
    trace_final = traces[-1]
    return Trajectory(
        times=np.asarray(times),
        states=states,
        traces=np.asarray(traces),
        trapped_cumulative=np.asarray(trapped),
        loss_cumulative=np.asarray(lost),
        eta_estimate=trapped[-1] + trace_final / 2.0,
        eta_loss_estimate=lost[-1] + trace_final / 2.0,
        tail_bound=trace_final,
        n_steps=n_acc,
        n_rejected=n_rej,
    )


def survival_probability(traj: Trajectory, t):
    """Surviving norm tr rho(t), linearly interpolated between steps.

    t must lie within the trajectory's time range.
    """
    t_arr = np.asarray(t, dtype=float)
    t0, t1 = traj.times[0], traj.times[-1]
    if np.any(t_arr < t0) or np.any(t_arr > t1):
        raise ValidationError(
            f"time {t!r} outside trajectory range [{t0:g}, {t1:g}]")
    out = np.clip(np.interp(t_arr, traj.times, traj.traces), 0.0, 1.0)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def efficiency_gamma_grid(spec: SystemSpec, gammas,
                          solver: EigenbasisSteadySolver | None = None
                          ) -> np.ndarray:
    """eta evaluated at each dephasing rate on the grid.

    The workhorse behind curve evaluation and gamma optimization.  Up to
    DENSE_SOLVE_MAX_N sites all grid points are solved as one stacked LU
    of the dense generator, redone point by point when one of them is
    near-singular.  Larger systems go through one EigenbasisSteadySolver
    for the whole grid, warm-started along it; pass `solver` (built for
    spec's geometry and rates) to reuse one across calls.

    Raises the per-point solver error with the failing gamma attached.
    """
    gammas = np.asarray(list(gammas), dtype=float)
    if gammas.ndim != 1 or gammas.size == 0:
        raise ValidationError("gamma grid must be a non-empty 1-d sequence")
    if np.any(gammas < 0):
        raise ValidationError("gamma grid must be non-negative")
    n = spec.n
    if n > DENSE_SOLVE_MAX_N:
        if solver is None:
            solver = EigenbasisSteadySolver(spec)
        return _pointwise(solver.eta, gammas)

    base = build_liouvillian(spec.with_gamma(0.0), dense=True).matrix
    deph = -2.0 * (1.0 - np.eye(n)).reshape(-1)
    vec0 = site_density(n, spec.initial_site)
    mats = np.broadcast_to(base, (gammas.size, n * n, n * n)).copy()
    step = np.arange(n * n)
    mats[:, step, step] += gammas[:, None] * deph[None, :]
    rhs = np.broadcast_to(-vec0, (gammas.size, n * n))
    try:
        xs = np.linalg.solve(mats, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        xs = None
    if xs is not None:
        resid = np.linalg.norm(
            np.einsum("gij,gj->gi", mats, xs) - rhs, axis=1)
        bad = np.flatnonzero(resid > 1e-10)
        if bad.size:
            r_bad = np.einsum("gij,gj->gi", mats[bad], xs[bad]) - rhs[bad]
            xs[bad] -= np.linalg.solve(mats[bad], r_bad[..., None])[..., 0]
            resid2 = np.linalg.norm(
                np.einsum("gij,gj->gi", mats[bad], xs[bad]) - rhs[bad],
                axis=1)
            if np.any(resid2 > RESID_ACCEPT):
                xs = None
    if xs is None:
        # At least one grid point is near-singular; redo pointwise so the
        # offending gamma is reported.
        return _pointwise(
            lambda g: efficiency_direct(spec.with_gamma(g)).eta, gammas)
    tidx = np.array([population_index(n, t) for t in spec.trap_sites],
                    dtype=int)
    if tidx.size == 0:
        return np.zeros(gammas.size)
    etas = 2.0 * spec.kappa * xs[:, tidx].real.sum(axis=1)
    return etas


def _pointwise(eta_fn, gammas) -> np.ndarray:
    """eta_fn at every gamma, with the failing gamma named in the error."""
    etas = np.empty(gammas.size)
    for i, g in enumerate(gammas):
        try:
            etas[i] = eta_fn(g)
        except SingularSystemError as exc:
            raise SingularSystemError(f"gamma={g:g}: {exc}") from exc
    return etas


class EigenbasisSteadySolver:
    """Population-space steady-integral solver, the engine for every
    n > DENSE_SOLVE_MAX_N.

    One eigendecomposition H = S diag(lam) S^-1 of the n x n generator is
    shared across all dephasing rates.  With c_pq = -i(lam_p - conj(lam_q))
    the coherent part with uniform dephasing,
    A(X) = -i(H X - X H^dag) - 2*gamma*X, is diagonal in that basis:

        A(X) = S [(S^-1 X S^-dag) o D] S^dag,   D = c - 2*gamma.

    The steady integral X solves A(X) + 2*gamma*Diag(diag X) = -rho0, so
    the populations p = diag(X) satisfy the n-dimensional system

        (I + 2*gamma*M) p = -diag(A^-1 rho0),   M(p) = diag(A^-1 Diag(p)).

    Because S S^-1 = I, the identity cancels exactly inside the
    eigenbasis:

        (I + 2*gamma*M) p = diag(S [(S^-1 Diag(p) S^-dag) o R] S^dag),
        R = c / (c - 2*gamma),

    and GMRES applies the operator in that form, at the cost of two dense
    n x n products per matvec, as for M alone.  The form matters at strong
    dephasing: p + 2*gamma*M(p) adds two O(|p|) terms whose sum is
    O(|p|/gamma), so that product loses about log10(gamma) digits and from
    gamma ~ 1e3 on GMRES stalls short of its tolerance.  In the form above
    |R| <= 1 for every gamma > 0 (Re c <= 0), and GMRES converges at
    every gamma.  The full steady integral is rebuilt the
    same way, -2*gamma*A^-1(Diag p) = Diag(p) - S[(S^-1 Diag(p) S^-dag) o
    R]S^dag, which keeps its residual near working precision.

    Every result is certified by the residual of the full generator,
    refined in extended precision when it exceeds 1e-10 (near-singular
    systems, mu ~ 1e-8), as in the dense LU route.  A solve whose
    residual exceeds RESID_ACCEPT, or whose eta or eta_loss carries an
    imaginary part above REAL_TOL, is redone once by a sparse LU of the
    full vectorized generator; SingularSystemError is raised only if that
    answer fails the same checks.
    """

    GMRES_RESTART = 60
    GMRES_MAXITER = 10

    def __init__(self, spec: SystemSpec):
        self.spec = spec.with_gamma(0.0)
        self.n = spec.n
        self.h = build_hamiltonian(spec)
        lam, s = np.linalg.eig(self.h)
        self.s = s
        self.sinv = np.linalg.inv(s)
        self.c = -1j * (lam[:, None] - lam[None, :].conj())
        self.tidx = np.asarray(spec.trap_sites, dtype=int)
        self._sparse_base = None
        self._warm = None
        self.routes = Counter()  # accepted solves per method

    def _to_eigen(self, xmat):
        """S^-1 X S^-dag."""
        return self.sinv @ xmat @ self.sinv.conj().T

    def _from_eigen(self, w):
        """S W S^dag."""
        return self.s @ w @ self.s.conj().T

    def _ainv(self, rmat, gamma):
        """A^-1 R for an arbitrary n x n matrix R."""
        return self._from_eigen(self._to_eigen(rmat) / (self.c - 2.0 * gamma))

    def _ratio(self, gamma):
        """R = c / (c - 2*gamma), the eigenbasis image of I + 2*gamma*M."""
        return self.c / (self.c - 2.0 * gamma)

    def _population_matvec(self, gamma):
        """p -> (I + 2*gamma*M) p, in the cancellation-free form."""
        b, s = self.sinv, self.s
        ratio = self._ratio(gamma)

        def matvec(p):
            w = ((b * p[None, :]) @ b.conj().T) * ratio
            return ((s @ w) * s.conj()).sum(axis=1)

        return matvec

    def _solve(self, rhs_mat, gamma, warm_start, stats):
        """X with L(X) = rhs_mat, by GMRES on the populations.

        The populations p = diag(X) solve (I + 2*gamma*M) p =
        diag(A^-1 rhs); X = A^-1(rhs - 2*gamma*Diag p) is then rebuilt
        cancellation-free.  stats collects the GMRES info flag and the
        matvec count.
        """
        n = self.n
        base = self._ainv(rhs_mat, gamma)
        if gamma == 0.0:
            return base
        apply = self._population_matvec(gamma)

        def matvec(p):
            stats["matvecs"] += 1
            return apply(p)

        op = spla.LinearOperator((n, n), matvec=matvec, dtype=complex)
        pops, stats["info"] = spla.gmres(
            op, base.diagonal(), x0=warm_start, rtol=1e-12, atol=0.0,
            restart=self.GMRES_RESTART, maxiter=self.GMRES_MAXITER)
        pmat = np.diag(pops)
        return base + pmat - self._from_eigen(
            self._to_eigen(pmat) * self._ratio(gamma))

    def _refined(self, xmat, gamma, rhs_mat, solve):
        """(X, relative residual) of L(X) = rhs_mat on the full generator,
        refined in extended precision when the residual is above 1e-10;
        solve(R) returns the double-precision solution of L(Z) = R."""
        n = self.n
        rhs = rhs_mat.reshape(-1)
        bnorm = np.linalg.norm(rhs)
        lop = Superoperator(n, gamma, self.h)
        resid = float(np.linalg.norm(lop.apply(xmat.reshape(-1)) - rhs)
                      / bnorm)
        if resid > 1e-10:
            lop_ld = Superoperator(n, gamma, self.h.astype(np.clongdouble))
            x, resid = _refine(
                lop_ld.apply,
                lambda r: solve(r.reshape(n, n)).reshape(-1),
                xmat.reshape(-1), rhs, bnorm)
            xmat = x.reshape(n, n)
        return xmat, resid

    def _probabilities(self, xmat):
        """(eta, eta_loss), still complex, from the steady integral."""
        pops = xmat.diagonal()
        return (2.0 * self.spec.kappa * pops[self.tidx].sum(),
                2.0 * self.spec.mu * pops.sum())

    def _sparse_lu(self, gamma):
        if self._sparse_base is None:
            h = sp.csr_matrix(self.h)
            eye = sp.identity(self.n, format="csr")
            base = (-1j * sp.kron(h, eye) + 1j * sp.kron(eye, h.conj()))
            self._sparse_base = base.tocsr()
            self._deph_diag = -2.0 * (1.0 - np.eye(self.n)).reshape(-1)
        mat = self._sparse_base + sp.diags(gamma * self._deph_diag)
        try:
            return spla.splu(mat.tocsc())
        except RuntimeError as exc:
            raise SingularSystemError(
                f"sparse fallback failed at gamma={gamma:g}: {exc}") from exc

    def efficiency(self, gamma, rho0=None, warm_start=None):
        """Returns (eta, eta_loss, residual, method, populations)."""
        n = self.n
        if rho0 is None:
            rho0 = site_density(n, self.spec.initial_site)
        rhs = -rho0.reshape(n, n)
        stats = {"info": None, "matvecs": 0}
        method = "direct-eigenbasis"
        with np.errstate(divide="ignore", invalid="ignore"):
            xmat, resid = self._refined(
                self._solve(rhs, gamma, warm_start, stats), gamma, rhs,
                lambda r: self._solve(r, gamma, None, stats))
        eta, eta_loss = self._probabilities(xmat)
        if not (resid <= RESID_ACCEPT and abs(eta.imag) <= REAL_TOL
                and abs(eta_loss.imag) <= REAL_TOL):
            method = "direct-sparse"
            lu = self._sparse_lu(gamma)

            def solve(r):
                return lu.solve(r.reshape(-1)).reshape(n, n)

            xmat, resid = self._refined(solve(rhs), gamma, rhs, solve)
            eta, eta_loss = self._probabilities(xmat)
        _log.debug("eigenbasis solve n=%d gamma=%g gmres_info=%s matvecs=%d "
                   "route=%s", n, gamma, stats["info"], stats["matvecs"],
                   method)
        if not resid <= RESID_ACCEPT:
            hint = ("; with mu = 0 a dark state never decays -- evaluate at "
                    "mu = 1e-8 for the mu -> 0+ limit"
                    if self.spec.mu == 0 else "")
            raise SingularSystemError(
                f"residual {resid:.2e} after sparse fallback{hint}")
        eta = _real_checked(eta, "trapped probability")
        eta_loss = _real_checked(eta_loss, "lost probability")
        self.routes[method] += 1
        return eta, eta_loss, resid, method, xmat.diagonal().copy()

    def eta(self, gamma):
        """eta at gamma for the initial site, warm-started from the
        populations of the previous call on this solver."""
        eta, _, _, _, self._warm = self.efficiency(
            gamma, warm_start=self._warm)
        return eta
