"""Transport-efficiency solvers: exact steady-integral solves and propagation.

The trapped probability is eta = 2*kappa * sum_traps of the time integral of
the trap populations; the lost probability is eta_loss = 2*mu times the
integrated total population.  Because the state fully decays whenever mu > 0
(or kappa > 0 with no dark state), the integral x = int_0^inf vec(rho) dt
satisfies the linear system L x = -vec(rho0), which is solved directly.

Two independent routes are implemented and cross-validated:

* efficiency_direct    -- resolvent solve of L x = -vec(rho0)
* propagate            -- adaptive Runge-Kutta integration of the motion

Every steady solve, single, over a gamma grid or over a stack of
(kappa, mu) cells of one geometry, runs on one engine,
EigenbasisSteadySolver: it reduces the steady solve to the n site
populations in the eigenbasis of H, solves that system directly (batched
over all cells and rates of a call) up to DENSE_SOLVE_MAX_N sites and by
GMRES above, and falls back to a sparse LU of the full generator.  Every
answer is certified by the residual of the full generator.
"""

from __future__ import annotations

import logging
import math
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
    SystemSpec,
    as_density_vec,
    build_hamiltonian,
    build_liouvillian,
    population_index,
    site_density,
)

__all__ = [
    "EfficiencyReport",
    "Trajectory",
    "efficiency_direct",
    "propagate",
    "survival_probability",
    "efficiency_gamma_grid",
    "EigenbasisSteadySolver",
]

RESID_ACCEPT = 1e-9   # relative residual above which a solve is rejected
REAL_TOL = 1e-10      # allowed imaginary leakage in probabilities
# Bytes of one (points x n^2) complex array of a batched direct solve,
# which holds several such arrays at once; a call with more points than
# that is solved in chunks of cells.
BATCH_BYTES = 2 ** 17
# Largest n for which EigenbasisSteadySolver assembles the population
# system (through an n^2 x n^2 map of 16 n^4 bytes) and solves it
# directly; larger systems use its GMRES route.  The value was set for the
# former dense n^2 x n^2 LU and has not been re-measured for this solve.
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


def efficiency_direct(spec: SystemSpec, rho0=None) -> EfficiencyReport:
    """Trapping and loss probabilities from the resolvent solve.

    Solves L x = -vec(rho0), valid because rho(inf) = 0 whenever mu > 0 or
    trapping reaches every part of the initial state, and reads off
    eta = 2*kappa*sum_traps x[tau,tau], eta_loss = 2*mu*tr x.

    The solve runs in population space on EigenbasisSteadySolver (method
    "direct-eigenbasis"), or on its sparse-LU fallback ("direct-sparse")
    when that answer fails certification.

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
    vec0 = None if rho0 is None else as_density_vec(rho0, spec.n)
    eta, eta_loss, resid, method = EigenbasisSteadySolver(spec).efficiency(
        spec.gamma, rho0=vec0)[:4]
    return EfficiencyReport(eta, eta_loss, method, resid)


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

    The workhorse behind curve evaluation and gamma optimization.  The
    whole grid goes through one EigenbasisSteadySolver (see
    EigenbasisSteadySolver.eta_grid): one batched direct solve of the
    population system up to DENSE_SOLVE_MAX_N sites, warm-started GMRES
    along the grid above it.  Pass `solver` (built for spec's geometry and
    rates) to reuse one across calls; a cell stack gives one row of etas
    per cell.

    Raises the per-point solver error with the failing gamma attached.
    """
    gammas = np.asarray(list(gammas), dtype=float)
    if gammas.ndim != 1 or gammas.size == 0:
        raise ValidationError("gamma grid must be a non-empty 1-d sequence")
    if np.any(gammas < 0):
        raise ValidationError("gamma grid must be non-negative")
    if solver is None:
        solver = EigenbasisSteadySolver(spec)
    return solver.eta_grid(gammas)


def _apply_generator(h, g2, xs):
    """L(X) for X = xs of shape (n, n), or for a stack of shape (G, n, n):
    -i(H X - X H^dag) - 2*gamma*X on the coherences, with the populations
    untouched by dephasing.  g2 = 2*gamma is a scalar, or has shape
    (G, 1, 1) for a stack."""
    n = h.shape[0]
    out = -1j * (h @ xs - xs @ h.conj().T)
    flat = out.reshape(-1, n * n)  # a view: out is a new contiguous array
    pops = flat[:, ::n + 1].copy()
    flat -= np.reshape(g2, (-1, 1)) * xs.reshape(-1, n * n)
    flat[:, ::n + 1] = pops
    return out


def _right(y, r):
    """Y R for every n x n matrix Y flattened (row-major) along the last
    axis of y, R one per cell: y of shape (cells, k, n^2) with r of shape
    (cells, n, n), or y of shape (k, n^2) or (n^2,) with one r.  One
    matrix product per cell covers all its k points."""
    n = r.shape[-1]
    return (y.reshape(r.shape[:-2] + (-1, n)) @ r).reshape(y.shape)


def _left(m, y):
    """M Y for every matrix Y of y, M one per cell, as in _right: one
    product per point when each cell has one point, else the transposes
    Y^T M^T as one matrix product per cell."""
    n = m.shape[-1]
    cells = m.shape[:-2]
    if y.size == n * n * math.prod(cells):
        return (m @ y.reshape(cells + (n, n))).reshape(y.shape)
    yt = np.swapaxes(y.reshape(cells + (-1, n, n)), -1, -2)
    return np.swapaxes((yt.reshape(cells + (-1, n)) @ np.swapaxes(m, -1, -2)
                        ).reshape(cells + (-1, n, n)), -1, -2).reshape(y.shape)


def _geometry(spec):
    return (spec.topology, spec.n, spec.trap_sites, spec.initial_site,
            spec.v, spec.offset)


class EigenbasisSteadySolver:
    """Population-space steady-integral solver, the steady-state engine
    behind every single solve, gamma grid and optimization.

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
        R = c / (c - 2*gamma).

    The form matters at strong dephasing: p + 2*gamma*M(p) adds two
    O(|p|) terms whose sum is O(|p|/gamma), so that product loses about
    log10(gamma) digits.  In the form above |R| <= 1 for every gamma > 0
    (Re c <= 0).  Up to DENSE_SOLVE_MAX_N sites the system matrix is
    assembled explicitly,

        K[l, j] = sum_pq C[l, j, p] R[p, q] conj(C[l, j, q]),
        C[l, j, p] = S[l, p] S^-1[p, j],

    for many rates at once: the products C[l, j, p] conj(C[l, j, q]) are
    tabulated once per solver as an n^2 x n^2 map, so a grid costs one
    matrix product and one stacked solve (eta_grid).  Above it GMRES
    applies the operator at the cost of two dense n x n products per
    matvec.  The full steady integral is
    rebuilt the same way, -2*gamma*A^-1(Diag p) = Diag(p) -
    S[(S^-1 Diag(p) S^-dag) o R]S^dag, which keeps its residual near
    working precision.

    A solver is built from one SystemSpec, or from a cell stack: a
    sequence of specs that share one geometry and differ only in
    (kappa, mu), which gives every array a leading cell axis.  A stack is
    built with one stacked eigendecomposition and one stacked map, and
    each call of eta_grid or eta solves a (cells x rates) array of points
    at once: per cell, one matrix product applies a map, or S, S^dag or H,
    to all its rates together, and one stacked solve covers every point
    (a single LAPACK solve for one cell and one rate).  Above
    DENSE_SOLVE_MAX_N sites a stack holds one cell and its points are
    solved one by one by GMRES, warm-started along the calls.

    Every result is certified by the residual of the full generator.  A
    single solve (efficiency) is refined in extended precision when its
    residual exceeds 1e-10 (near-singular systems, mu ~ 1e-8); one whose
    residual then exceeds RESID_ACCEPT, or whose eta or eta_loss carries
    an imaginary part above REAL_TOL, is redone once by a sparse LU of the
    full vectorized generator, and SingularSystemError is raised only if
    that answer fails the same checks.  A point of a batched solve whose
    residual exceeds 1e-10 or whose probabilities leak above REAL_TOL goes
    through that single solve.  A solver built from one spec raises a
    point's SingularSystemError with its gamma named; a stack records it
    in `failed` under the cell's index, answers NaN for that cell from
    then on, and solves its other cells as before.
    """

    GMRES_RESTART = 60
    GMRES_MAXITER = 10

    def __init__(self, spec):
        self._stacked = not isinstance(spec, SystemSpec)
        specs = [s if s.gamma == 0.0 else s.with_gamma(0.0)
                 for s in (spec if self._stacked else [spec])]
        if not specs:
            raise ValidationError("a cell stack needs at least one spec")
        if any(_geometry(s) != _geometry(specs[0]) for s in specs[1:]):
            raise ValidationError(
                "the cells of a stack must share one geometry and differ "
                "only in kappa and mu")
        self.n = n = specs[0].n
        if n > DENSE_SOLVE_MAX_N and len(specs) > 1:
            raise ValidationError(
                f"a stack above {DENSE_SOLVE_MAX_N} sites holds one cell")
        self.specs = specs
        self.cells = len(specs)
        h = np.stack([build_hamiltonian(s) for s in specs])
        lam, s = np.linalg.eig(h)
        sinv = np.linalg.inv(s)
        self._c = -1j * (lam[:, :, None] - lam[:, None, :].conj())
        self.tidx = np.asarray(specs[0].trap_sites, dtype=int)
        self._ids = np.arange(self.cells)
        if n <= DENSE_SOLVE_MAX_N:
            self._build_maps(specs, h, s, sinv)
        if self.cells == 1:
            # the single solves (efficiency) work on one cell's arrays
            self.spec = specs[0]
            self.h, self.s, self.sinv, self.c = h[0], s[0], sinv[0], self._c[0]
        self._sparse_base = None
        self._warm = None
        self.routes = Counter()  # accepted solves per method
        self.failed = {}  # cell index -> SingularSystemError, stacks only

    def _build_maps(self, specs, h, s, sinv):
        """Tabulate, per cell, what the assembled route applies.

        Matrices X are flattened row-major (X[i, j] at i*n + j), and the
        maps act from the right on rows of points, so that all points of
        a cell form one matrix product:
          kmap[pq, lj] = C[l, j, p] conj(C[l, j, q]):  K = R @ kmap;
          emap[pq, i] = S[i, p] conj(S[i, q]):         diag(S Y S^dag);
          fmap[j, pq] = S^-1[p, j] conj(S^-1[q, j]):   S^-1 Diag(p) S^-dag.
        No n^3-per-rate temporaries arise (a 65-point grid at n = 10 would
        need 1 MB of them, returned to the system and faulted in again on
        every call).  S, S^dag, -iH and -iH^dag are kept for _left and
        _right.
        """
        n = self.n
        nn = n * n
        cells = len(specs)
        st, sinvt = s.transpose(0, 2, 1), sinv.transpose(0, 2, 1)
        ct = (st[:, :, :, None] * sinv[:, :, None, :]).reshape(cells, n, nn)
        kmap = (ct[:, :, None, :] * ct.conj()[:, None, :, :]).reshape(
            cells, nn, nn)
        emap = (st[:, :, None, :] * st.conj()[:, None, :, :]).reshape(
            cells, nn, n)
        fmap = (sinvt[:, :, :, None] * sinvt.conj()[:, :, None, :]).reshape(
            cells, n, nn)
        self._rhs0 = -site_density(n, specs[0].initial_site)
        weights0 = (sinv @ self._rhs0.reshape(n, n)
                    @ sinvt.conj()).reshape(cells, 1, nn)
        self._offdiag = (1.0 - np.eye(n)).reshape(nn)
        two_rates = 2.0 * np.array([[c.kappa, c.mu] for c in specs])
        # per cell, with an axis of length 1 for the rates where the array
        # is applied elementwise; for the only cell, without either axis
        self._maps_all = (
            self._c.reshape(cells, 1, nn), kmap, emap, fmap, s, st.conj(),
            -1j * h, -1j * h.conj().transpose(0, 2, 1), weights0,
            two_rates[:, :1], two_rates[:, 1:])
        if cells == 1:
            self._maps_one = tuple(m[0, 0] if m.shape[1] == 1 else m[0]
                                   for m in self._maps_all)

    def _maps(self, cells):
        """The arrays of _build_maps for the index array `cells` (every
        cell when None); those of the only cell, without the cell axis,
        when cells is None on a one-cell solver."""
        if cells is None:
            return self._maps_one if self.cells == 1 else self._maps_all
        return tuple(m[cells] for m in self._maps_all)

    def _cell(self, k):
        """The one-cell solver of cell k (this solver when it has one
        cell); it counts its accepted solves in this solver's routes."""
        if self.cells == 1:
            return self
        solver = EigenbasisSteadySolver(self.specs[k])
        solver.routes = self.routes
        return solver

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

    def _direct(self, g2, weights, maps):
        """(X, diag X), X flattened, with L(X) = rhs at every point, from a
        direct solve of the explicitly assembled population system;
        weights = S^-1 rhs S^-dag, flattened, and maps from _maps.

        With one cell's maps g2 = 2*gamma is a number, or has shape
        (k, 1) for k rates; with a stack's maps it has shape (m, k, 1),
        k rates for each of its m cells.  X then has the shape of g2 with
        its last axis n^2 long, and diag X that with it n long.
        """
        c, kmap, emap, fmap, s, sdag = maps[:6]
        n = self.n
        # in place where it saves a (points x n^2) array: a stack's grid
        # holds thousands of points
        y = c - g2
        ratio = c / y
        y = np.divide(weights, y, out=y)
        kmat = (ratio @ kmap).reshape(ratio.shape[:-1] + (n, n))
        if kmat.ndim == 2:
            # LAPACK directly: a third of np.linalg.solve's cost at n ~ 5.
            # An exactly singular K (info > 0) leaves pops unsolved; the
            # residual check then rejects the point.
            pops = sla.lapack.zgesv(kmat, y @ emap)[2]
        else:
            pops = np.linalg.solve(kmat, (y @ emap)[..., None])[..., 0]
        del kmat
        ratio *= pops @ fmap
        y -= ratio
        del ratio
        xs = _left(s, _right(y, sdag))
        xs[..., ::n + 1] += pops
        return xs, pops

    def _direct_etas(self, g2, cells=None):
        """(eta, certified, residual) at the initial site from _direct, for
        g2 as there, on the arrays of `cells` (see _maps); certified is
        False where the full-generator residual exceeds 1e-10 or eta or
        eta_loss carries an imaginary part above REAL_TOL."""
        maps = self._maps(cells)
        with np.errstate(divide="ignore", invalid="ignore"):
            xs, pops = self._direct(g2, maps[8], maps)
            # relative residual of (-iH) X - X (-iH)^dag - 2 gamma
            # X_offdiag = rhs, with H itself; |rhs| = 1 for a
            # site-localized start
            r = _left(maps[6], xs)
            r -= _right(xs, maps[7])
            xs *= g2 * self._offdiag
            r -= xs
            r -= self._rhs0
            del xs
            r = r.view(float)  # real and imaginary parts, interleaved
            resid = np.sqrt((r * r).sum(axis=-1))
        eta = maps[9] * pops[..., self.tidx].sum(axis=-1)
        eta_loss = maps[10] * pops.sum(axis=-1)
        certified = ((resid <= 1e-10) & (np.abs(eta.imag) <= REAL_TOL)
                     & (np.abs(eta_loss.imag) <= REAL_TOL))
        return eta.real, certified, resid

    def _solve(self, rhs_mat, gamma, warm_start, stats):
        """X with L(X) = rhs_mat.

        Up to DENSE_SOLVE_MAX_N sites by the direct population solve;
        above it the populations p = diag(X) solve (I + 2*gamma*M) p =
        diag(A^-1 rhs) by GMRES and X = A^-1(rhs - 2*gamma*Diag p) is then
        rebuilt cancellation-free.  stats collects the GMRES info flag and
        the matvec count.
        """
        n = self.n
        if n <= DENSE_SOLVE_MAX_N:
            return self._direct(
                2.0 * gamma, self._to_eigen(rhs_mat).reshape(-1),
                self._maps_one)[0].reshape(n, n)
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
        resid = float(np.linalg.norm(
            _apply_generator(self.h, 2.0 * gamma, xmat).reshape(-1) - rhs)
            / bnorm)
        if resid > 1e-10:
            h_ld = self.h.astype(np.clongdouble)
            x, resid = _refine(
                lambda v: _apply_generator(
                    h_ld, 2.0 * gamma, v.reshape(n, n)).reshape(-1),
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
            raise self._singular(
                f"sparse fallback failed at gamma={gamma:g}: {exc}") from exc

    def _singular(self, message):
        """SingularSystemError for a failed fallback, with the dark-state
        hint whenever mu = 0 (a dark state makes L exactly singular)."""
        if self.spec.mu == 0:
            message += ("; with mu = 0 a dark state never decays -- "
                        "evaluate at mu = 1e-8 for the mu -> 0+ limit")
        return SingularSystemError(message)

    def efficiency(self, gamma, rho0=None, warm_start=None):
        """Returns (eta, eta_loss, residual, method, populations).

        A single solve on a one-cell solver.
        """
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
            raise self._singular(f"residual {resid:.2e} after sparse fallback")
        eta = _real_checked(eta, "trapped probability")
        eta_loss = _real_checked(eta_loss, "lost probability")
        self.routes[method] += 1
        return eta, eta_loss, resid, method, xmat.diagonal().copy()

    def _point(self, k, gamma):
        """eta of cell k at gamma by efficiency (extended-precision
        refinement, then the sparse-LU fallback), warm-started from the
        cell's previous point above DENSE_SOLVE_MAX_N sites.  A failure is
        raised, or recorded in `failed` by a stack, with its gamma named."""
        if k in self.failed:
            return math.nan
        solver = self._cell(k)
        try:
            eta, _, _, _, pops = solver.efficiency(
                gamma, warm_start=solver._warm)
        except SingularSystemError as exc:
            err = SingularSystemError(f"gamma={gamma:g}: {exc}")
            if not self._stacked:
                raise err from exc
            err.__cause__ = exc
            self.failed[int(k)] = err
            return math.nan
        if self.n > DENSE_SOLVE_MAX_N:
            solver._warm = pops
        return eta

    def _etas(self, gammas, cells=None):
        """eta at the rates gammas[i, j] of cell cells[i] (of cell i when
        cells is None), NaN for a failed cell.

        Returns (etas, residuals, points redone).  Up to DENSE_SOLVE_MAX_N
        sites the points are one batched direct solve (one per chunk of
        cells when they exceed BATCH_BYTES), and a point that fails its
        certification is redone alone by _point; above it every point goes
        through _point and residuals is None.
        """
        if cells is not None and len(cells) == self.cells and (
                self.cells == 1 or (cells == self._ids).all()):
            cells = None
        ids = self._ids if cells is None else cells
        if self.n > DENSE_SOLVE_MAX_N:
            etas = np.array([self._point(ids[i], g)
                             for (i, _), g in np.ndenumerate(gammas)])
            return etas.reshape(gammas.shape), None, 0
        rows, k = gammas.shape
        chunk = max(1, BATCH_BYTES // (16 * self.n ** 2 * k))
        if rows > chunk:
            parts = [self._etas(gammas[i:i + chunk], ids[i:i + chunk])
                     for i in range(0, rows, chunk)]
            return (np.concatenate([p[0] for p in parts]),
                    np.concatenate([p[1] for p in parts]),
                    sum(p[2] for p in parts))
        g2 = 2.0 * gammas
        if cells is None and self.cells == 1:
            g2 = float(g2[0, 0]) if g2.size == 1 else g2[0, :, None]
        else:
            g2 = g2[..., None]
        etas, certified, resid = self._direct_etas(g2, cells)
        etas = np.asarray(etas).reshape(gammas.shape)
        redo = ([] if certified.all()
                else np.argwhere(~np.reshape(certified, gammas.shape)))
        for i, j in redo:
            etas[i, j] = self._point(ids[i], gammas[i, j])
        if len(redo) < gammas.size:
            self.routes["direct-eigenbasis"] += gammas.size - len(redo)
        if self.failed:
            etas[np.isin(ids, list(self.failed))] = math.nan
        return etas, resid, len(redo)

    def eta_grid(self, gammas):
        """eta for the initial site at every rate of the 1-d array gammas,
        for every cell: shape (cells, G), or (G,) for a solver built from
        one spec.

        Up to DENSE_SOLVE_MAX_N sites the whole grid of every cell is one
        batched direct solve, each point certified by its full-generator
        residual and its imaginary leakage; a point that fails either is
        redone alone by efficiency (extended-precision refinement, then the
        sparse-LU fallback).  Larger systems solve point by point along
        the grid, warm-started.  A failing point is raised or recorded
        with its gamma named (see the class docstring).
        """
        gammas = np.asarray(gammas, dtype=float)
        etas, resid, redone = self._etas(
            np.broadcast_to(gammas, (self.cells, gammas.size)))
        if resid is not None:
            _log.debug(
                "batched solve n=%d points=%d max_residual=%.2e redone=%d",
                self.n, etas.size, resid.max(), redone)
        return etas if self._stacked else etas[0]

    def eta(self, gamma, cells=None):
        """eta for the initial site at one rate per cell.

        On a solver built from one spec, gamma is a number and so is the
        result.  On a stack, gamma is an array with one row (or one entry)
        of rates per cell of the index array `cells` (every cell, in order,
        when None), and the result has its shape; all points are solved as
        one batch.  Points are certified as in eta_grid; above
        DENSE_SOLVE_MAX_N sites each GMRES solve is warm-started from the
        populations of the previous point.
        """
        if not self._stacked:
            return float(self._etas(np.array([[gamma]], dtype=float))[0][0, 0])
        gamma = np.asarray(gamma, dtype=float)
        rows = self.cells if cells is None else len(cells)
        return self._etas(gamma.reshape(rows, -1), cells)[0].reshape(
            gamma.shape)
