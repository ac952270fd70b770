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
EigenbasisSteadySolver, through one point path: it reduces the steady
solve to the n site populations in the eigenbasis of H and solves that
system directly (batched over all cells and rates of a call) up to
DENSE_SOLVE_MAX_N sites and by GMRES above; it certifies every answer by
one residual of the full generator and one acceptance rule; and it sends
a rejected point, on its own cell's arrays, through one fallback chain:
extended-precision refinement, then a sparse LU of the full generator.
The solver also sizes the cell stacks of its callers (_stack_size).
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SingularSystemError, StiffnessError, ValidationError
from .model import (
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

RESID_TARGET = 1e-10  # relative residual that certifies an answer outright
RESID_ACCEPT = 1e-9   # relative residual above which a fallback is rejected
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
# Bytes of the n^2 x n^2 maps (16 n^4 bytes a cell) of one cell stack;
# see _stack_size.
STACK_BYTES = 2 ** 18

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

    states is None unless propagate() was asked to store them.
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
        if resid <= RESID_TARGET or attempt == 3:
            break
        x_ld = x_ld - solve(np.asarray(r_ld, dtype=complex))
    return np.asarray(x_ld, dtype=complex), float(resid)


def efficiency_direct(spec: SystemSpec, rho0=None) -> EfficiencyReport:
    """Trapping and loss probabilities from the resolvent solve.

    Solves L x = -vec(rho0), valid because rho(inf) = 0 whenever mu > 0 or
    trapping reaches every part of the initial state, and reads off
    eta = 2*kappa*sum_traps x[tau,tau], eta_loss = 2*mu*tr x.

    The solve runs through the point path of EigenbasisSteadySolver, in
    population space (method "direct-eigenbasis"), or on its sparse-LU
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
    vec0 = None if rho0 is None else as_density_vec(rho0, spec.n)
    eta, eta_loss, resid, method = EigenbasisSteadySolver(spec).efficiency(
        spec.gamma, rho0=vec0)[:4]
    return EfficiencyReport(eta, eta_loss, method, resid)


# Dormand-Prince 5(4) tableau; row 7 equals the 5th-order weights (FSAL).
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
              store_states: bool = False) -> Trajectory:
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
        Keep the full state at every accepted step (off by default: a long
        horizon at tight tolerances takes millions of steps).

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
    along the grid above it.  Pass `solver` to reuse one across calls; its
    first cell must match spec in geometry, kappa and mu (spec's gamma is
    ignored), and a cell stack gives one row of etas per cell.

    Raises ValidationError for a rate that is negative or not finite, and
    the per-point solver error with the failing gamma attached.
    """
    gammas = np.asarray(list(gammas), dtype=float)
    if gammas.ndim != 1 or gammas.size == 0:
        raise ValidationError("gamma grid must be a non-empty 1-d sequence")
    if solver is None:
        return EigenbasisSteadySolver(spec).eta_grid(gammas)
    first = solver.specs[0]
    if (_geometry(spec), spec.kappa, spec.mu) != (
            _geometry(first), first.kappa, first.mu):
        raise ValidationError(
            "spec does not match the solver's first cell in geometry, "
            "kappa and mu")
    return solver.eta_grid(gammas)


def _right(y, r):
    """Y R for every n x n matrix Y flattened (row-major) along the last
    axis of y, of shape (cells, k, n^2), R one per cell (shape (cells, n,
    n)).  One matrix product per cell covers all its k points."""
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


def _generator(xs, g2, mh, mhd):
    """L(X) = -i(H X - X H^dag) - 2*gamma*X_offdiag for every X of xs,
    flattened as in _right, with mh = -iH and mhd = -iH^dag one per cell
    and g2 = 2*gamma as in _kernel.  The one residual of the
    solver: in double precision for every answer, in extended precision
    (mh, mhd and xs in clongdouble) for refinement."""
    out = _left(mh, xs)
    out -= _right(xs, mhd)
    deph = g2 * xs
    deph[..., ::mh.shape[-1] + 1] = 0.0
    out -= deph
    return out


def _accepted(resid, eta, eta_loss, bound):
    """The acceptance rule: residual within bound, and eta and eta_loss
    (still complex) with imaginary parts within REAL_TOL; elementwise."""
    return ((resid <= bound) & (np.abs(eta.imag) <= REAL_TOL)
            & (np.abs(eta_loss.imag) <= REAL_TOL))


def _geometry(spec):
    return (spec.topology, spec.n, spec.trap_sites, spec.initial_site,
            spec.v, spec.offset)


def _stack_size(n):
    """Cells per stack of n-site cells: as many as keep their n^2 x n^2
    maps (16 n^4 bytes a cell) within STACK_BYTES (26 at n = 5, 4 at
    n = 8, one from n = 10 on), and one above DENSE_SOLVE_MAX_N sites,
    where the GMRES route solves one cell at a time."""
    if n > DENSE_SOLVE_MAX_N:
        return 1
    return max(1, STACK_BYTES // (16 * n ** 4))


class _Cells(NamedTuple):
    """Per-cell arrays of EigenbasisSteadySolver, each with a leading cell
    axis; see EigenbasisSteadySolver._build_maps for the last four, which
    exist up to DENSE_SOLVE_MAX_N sites only."""

    c: np.ndarray          # -i(lam_p - conj lam_q), shape (cells, 1, n^2)
    s: np.ndarray          # S
    sdag: np.ndarray       # S^dag
    sinv: np.ndarray       # S^-1
    mh: np.ndarray         # -iH
    mhd: np.ndarray        # -iH^dag
    two_kappa: np.ndarray  # shape (cells, 1)
    two_mu: np.ndarray     # shape (cells, 1)
    kmap: np.ndarray | None = None
    emap: np.ndarray | None = None
    fmap: np.ndarray | None = None
    weights0: np.ndarray | None = None


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

    efficiency, eta and eta_grid run one point path (_points) for rates
    that are finite and >= 0 (ValidationError otherwise): (1) solve the
    points (_kernel); (2) certify each answer by the one residual of the
    full generator (_generator) and one acceptance rule (_accepted):
    residual within RESID_TARGET, imaginary leakage of eta and eta_loss
    within REAL_TOL; (3) send a rejected point, on its own cell's arrays
    and from the answer it has, through one fallback chain (_fall_back):
    extended-precision refinement when its residual is above RESID_TARGET
    (near-singular systems, mu ~ 1e-8), then a sparse LU of the cell's
    full generator, each accepted at RESID_ACCEPT.  A point failing both
    gets a SingularSystemError with its gamma named (and the dark-state
    hint at mu = 0): a solver built from one spec raises it; a stack
    records it in `failed` under the cell's index, answers NaN for that
    cell from then on, and solves its other cells as before.  `routes`
    counts the accepted points per method, and every point solved alone
    (a one-point call, a GMRES point, a fallback) leaves a DEBUG record.
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
        self.cells = cells = len(specs)
        h = np.stack([build_hamiltonian(s) for s in specs])
        lam, s = np.linalg.eig(h)
        sinv = np.linalg.inv(s)
        c = -1j * (lam[:, :, None] - lam[:, None, :].conj())
        two_rates = 2.0 * np.array([[x.kappa, x.mu] for x in specs])
        self.tidx = np.asarray(specs[0].trap_sites, dtype=int)
        self._ids = np.arange(cells)
        self._rhs0 = -site_density(n, specs[0].initial_site)
        self._all = _Cells(
            c.reshape(cells, 1, n * n), s, s.conj().transpose(0, 2, 1), sinv,
            -1j * h, -1j * h.conj().transpose(0, 2, 1), two_rates[:, :1],
            two_rates[:, 1:],
            *(self._build_maps(s, sinv) if n <= DENSE_SOLVE_MAX_N else ()))
        self._warm = None  # GMRES start: the last point's populations
        self.routes = Counter()  # accepted points per method
        self.failed = {}  # cell index -> SingularSystemError, stacks only

    def _build_maps(self, s, sinv):
        """Tabulate, per cell, what the assembled route applies.

        Matrices X are flattened row-major (X[i, j] at i*n + j), and the
        maps act from the right on rows of points, so that all points of
        a cell form one matrix product:
          kmap[pq, lj] = C[l, j, p] conj(C[l, j, q]):  K = R @ kmap;
          emap[pq, i] = S[i, p] conj(S[i, q]):         diag(S Y S^dag);
          fmap[j, pq] = S^-1[p, j] conj(S^-1[q, j]):   S^-1 Diag(p) S^-dag;
          weights0 = S^-1 rhs0 S^-dag for the initial site's rhs0.
        No n^3-per-rate temporaries arise (a 65-point grid at n = 10 would
        need 1 MB of them, returned to the system and faulted in again on
        every call).
        """
        n = self.n
        nn = n * n
        cells = len(s)
        st, sinvt = s.transpose(0, 2, 1), sinv.transpose(0, 2, 1)
        ct = (st[:, :, :, None] * sinv[:, :, None, :]).reshape(cells, n, nn)
        kmap = (ct[:, :, None, :] * ct.conj()[:, None, :, :]).reshape(
            cells, nn, nn)
        emap = (st[:, :, None, :] * st.conj()[:, None, :, :]).reshape(
            cells, nn, n)
        fmap = (sinvt[:, :, :, None] * sinvt.conj()[:, :, None, :]).reshape(
            cells, n, nn)
        weights0 = (sinv @ self._rhs0.reshape(n, n)
                    @ sinvt.conj()).reshape(cells, 1, nn)
        return kmap, emap, fmap, weights0

    def _select(self, cells):
        """The arrays of `cells`: all, an index array (copies) or a slice."""
        if cells is None:
            return self._all
        return _Cells._make(None if m is None else m[cells]
                            for m in self._all)

    def _kernel(self, g2, a, rhs, warm_start, stats):
        """(X, diag X), X flattened, with L(X) = rhs at every point (step 1
        of the point path), on the arrays a (see _select): a direct solve of
        the assembled population system, or _gmres above DENSE_SOLVE_MAX_N
        sites.  g2 = 2*gamma has shape (cells, k, 1), or is a float for one
        point; X then has shape (cells, k, n^2) and diag X (cells, k, n).
        """
        n = self.n
        if n > DENSE_SOLVE_MAX_N:
            return self._gmres(g2, a, rhs, warm_start, stats)
        weights = (a.weights0 if rhs is self._rhs0 else
                   (a.sinv @ rhs.reshape(n, n)
                    @ np.swapaxes(a.sinv.conj(), -1, -2)
                    ).reshape(len(a.s), 1, n * n))
        # in place where it saves a (points x n^2) array: a stack's grid
        # holds thousands of points
        y = a.c - g2
        ratio = a.c / y
        y = np.divide(weights, y, out=y)
        kmat = (ratio @ a.kmap).reshape(ratio.shape[:-1] + (n, n))
        b = y @ a.emap
        if kmat.size == n * n:
            # LAPACK directly: a third of np.linalg.solve's cost at n ~ 5.
            # An exactly singular K (info > 0) leaves pops unsolved; the
            # residual check then rejects the point.
            pops = sla.lapack.zgesv(kmat.reshape(n, n),
                                    b.reshape(n))[2].reshape(b.shape)
        else:
            pops = np.linalg.solve(kmat, b[..., None])[..., 0]
        del kmat
        ratio *= pops @ a.fmap
        y -= ratio
        del ratio
        xs = _left(a.s, _right(y, a.sdag))
        xs[..., ::n + 1] += pops
        return xs, pops

    def _gmres(self, g2, a, rhs, warm_start, stats):
        """_kernel for one point of one cell: p = diag(X) solves
        (I + 2*gamma*M) p = diag(A^-1 rhs) by GMRES from warm_start, and
        X = A^-1(rhs - 2*gamma*Diag p) is then rebuilt cancellation-free.
        stats collects the GMRES info flag and the matvec count."""
        n = self.n
        s, sdag, sinv = a.s[0], a.sdag[0], a.sinv[0]
        c = a.c[0, 0].reshape(n, n)
        x = s @ ((sinv @ rhs.reshape(n, n) @ sinv.conj().T) / (c - g2)) @ sdag
        if g2 != 0.0:
            apply = self._population_matvec(a, g2)

            def matvec(p):
                stats["matvecs"] += 1
                return apply(p)

            op = spla.LinearOperator((n, n), matvec=matvec, dtype=complex)
            pops, stats["info"] = spla.gmres(
                op, x.diagonal(), x0=warm_start, rtol=1e-12, atol=0.0,
                restart=self.GMRES_RESTART, maxiter=self.GMRES_MAXITER)
            pmat = np.diag(pops)
            x += pmat - s @ ((sinv @ pmat @ sinv.conj().T)
                             * (c / (c - g2))) @ sdag
        return x.reshape(1, 1, n * n), x.diagonal().reshape(1, 1, n).copy()

    def _population_matvec(self, a, g2):
        """p -> (I + 2*gamma*M) p for the one cell of the arrays a, in the
        cancellation-free form; g2 = 2*gamma."""
        s, sinv = a.s[0], a.sinv[0]
        c = a.c[0, 0].reshape(self.n, self.n)
        ratio = c / (c - g2)

        def matvec(p):
            w = ((sinv * p[None, :]) @ sinv.conj().T) * ratio
            return ((s @ w) * s.conj()).sum(axis=1)

        return matvec

    def _branching(self, pops, a):
        """(eta, eta_loss), still complex, from the populations pops,
        (cells, k, n) or one cell's (n,), of the cells of the arrays a."""
        return (a.two_kappa * pops[..., self.tidx].sum(axis=-1),
                a.two_mu * pops.sum(axis=-1))

    def _certify(self, xs, pops, g2, a, rhs, bnorm):
        """(eta, eta_loss, residual, certified) of the answers xs (step 2
        of the point path): the residual of the full generator relative to
        bnorm = |rhs|, and the acceptance rule at RESID_TARGET."""
        r = _generator(xs, g2, a.mh, a.mhd)
        r -= rhs
        r = r.view(float)  # real and imaginary parts, interleaved
        resid = np.sqrt((r * r).sum(axis=-1))
        if bnorm != 1.0:
            resid /= bnorm
        eta, eta_loss = self._branching(pops, a)
        return eta, eta_loss, resid, _accepted(resid, eta, eta_loss,
                                               RESID_TARGET)

    def _singular(self, k, gamma, message):
        """SingularSystemError of cell k at gamma, with the dark-state hint
        when the cell has mu = 0 (a dark state makes L exactly singular)."""
        if self.specs[k].mu == 0:
            message += ("; with mu = 0 a dark state never decays -- "
                        "evaluate at mu = 1e-8 for the mu -> 0+ limit")
        return SingularSystemError(f"gamma={gamma:g}: {message}")

    def _fall_back(self, k, gamma, x, resid, rhs, bnorm, stats):
        """(eta, eta_loss, residual, populations, route) of cell k at gamma
        from the fallback chain (step 3 of the point path), on the cell's
        own arrays, from its rejected answer x (flattened) of residual
        resid."""
        n = self.n
        a = self._select(slice(k, k + 1))
        g2 = 2.0 * gamma
        mh, mhd = (m.astype(np.clongdouble) for m in (a.mh, a.mhd))

        def apply_ld(v):
            return _generator(v.reshape(1, 1, -1), g2, mh, mhd).reshape(-1)

        def solve(r):
            return self._kernel(g2, a, r, None, stats)[0].reshape(-1)

        route, accepted = "direct-eigenbasis", False
        if resid > RESID_TARGET:
            x, resid = _refine(apply_ld, solve, x, rhs, bnorm)
            eta, eta_loss = (v.item() for v in self._branching(x[::n + 1], a))
            accepted = _accepted(resid, eta, eta_loss, RESID_ACCEPT)
        if not accepted:
            route, eye = "direct-sparse", sp.identity(n, format="csr")
            mat = (sp.kron(sp.csr_matrix(a.mh[0]), eye)
                   - sp.kron(eye, sp.csr_matrix(a.mhd[0].T))
                   - sp.diags(g2 * (1.0 - np.eye(n)).reshape(-1)))
            try:
                lu = spla.splu(mat.tocsc())
            except RuntimeError as exc:
                raise self._singular(
                    k, gamma, f"sparse fallback failed: {exc}") from exc
            x, resid = _refine(apply_ld, lu.solve, lu.solve(rhs), rhs, bnorm)
            eta, eta_loss = (v.item() for v in self._branching(x[::n + 1], a))
            if not _accepted(resid, eta, eta_loss, RESID_ACCEPT):
                what, v = (("trapped", eta) if abs(eta.imag) > REAL_TOL
                           else ("lost", eta_loss))
                raise self._singular(k, gamma, (
                    f"residual {resid:.2e} after sparse fallback"
                    if not resid <= RESID_ACCEPT else
                    f"{what} probability has imaginary part {v.imag:.3e}; "
                    "the solve is not trustworthy"))
        return eta.real, eta_loss.real, resid, x[::n + 1], route

    def _batch(self, gammas, cells, ids, rhs, bnorm, warm_start):
        """The point path for the rates gammas[i, j] of cell ids[i] (cells
        as in _select): solve, certify, then the fallback chain for every
        rejected point.  Returns (eta, eta_loss, residual, populations,
        route of each redone point, None where its cell failed)."""
        stats = {"info": None, "matvecs": 0}
        g2 = 2.0 * (gammas.item() if gammas.size == 1 else gammas[..., None])
        a = self._select(cells)
        with np.errstate(divide="ignore", invalid="ignore"):
            xs, pops = self._kernel(g2, a, rhs, warm_start, stats)
            eta, eta_loss, resid, certified = self._certify(
                xs, pops, g2, a, rhs, bnorm)
        eta, eta_loss = eta.real, eta_loss.real
        redone = []
        for i, j in [] if certified.all() else np.argwhere(~certified):
            k, gamma = int(ids[i]), float(gammas[i, j])
            route = None
            if k not in self.failed:
                try:
                    (eta[i, j], eta_loss[i, j], resid[i, j], pops[i, j],
                     route) = self._fall_back(k, gamma, xs[i, j], resid[i, j],
                                              rhs, bnorm, stats)
                    self._record(gamma, route, stats)
                except SingularSystemError as err:
                    if not self._stacked:
                        raise
                    self.failed[k] = err
            redone.append(route)
        if len(redone) < gammas.size:
            if gammas.size == 1:
                self._record(gammas.item(), "direct-eigenbasis", stats)
            else:
                self.routes["direct-eigenbasis"] += gammas.size - len(redone)
        return eta, eta_loss, resid, pops, redone

    def _record(self, gamma, route, stats):
        """Count a point solved alone in routes and leave its DEBUG
        record."""
        self.routes[route] += 1
        _log.debug("eigenbasis solve n=%d gamma=%g gmres_info=%s matvecs=%d "
                   "route=%s", self.n, gamma, stats["info"], stats["matvecs"],
                   route)

    def _points(self, gammas, cells=None, rho0=None, warm_start=None):
        """The one point path: (eta, eta_loss, residual, populations,
        routes of the redone points) at the rates gammas[i, j] of cell
        cells[i] (of cell i when cells is None) from rho0 (the initial
        site when None), NaN for a failed cell.  The points form one
        _batch, one per chunk of cells beyond BATCH_BYTES, or one per
        point above DENSE_SOLVE_MAX_N sites, warm-started from the last.
        """
        if not (np.minimum.reduce(gammas, None) >= 0.0
                and np.maximum.reduce(gammas, None) < math.inf):
            bad = float(gammas[~((gammas >= 0.0) & (gammas < math.inf))][0])
            raise ValidationError(f"gamma={bad!r} must be finite and >= 0")
        if cells is not None and len(cells) == self.cells and (
                self.cells == 1 or (cells == self._ids).all()):
            cells = None
        ids = self._ids if cells is None else cells
        rhs, bnorm = ((self._rhs0, 1.0) if rho0 is None
                      else (-rho0, float(np.linalg.norm(rho0))))
        rows, k = gammas.shape
        gmres = self.n > DENSE_SOLVE_MAX_N
        size = 0 if gmres else max(1, BATCH_BYTES // (16 * self.n ** 2 * k))
        if size >= rows:
            eta, eta_loss, resid, pops, redone = self._batch(
                gammas, cells, ids, rhs, bnorm, warm_start)
        else:
            out = []
            for i in range(0, k if gmres else rows, max(size, 1)):
                if gmres:  # one cell (ids = [0]), one point at a time
                    at, sel = np.s_[:, i:i + 1], None
                else:  # a chunk of cells
                    at = np.s_[i:i + size, :]
                    sel = (np.s_[i:i + size] if cells is None
                           else cells[i:i + size])
                out.append(self._batch(gammas[at], sel, ids[at[0]], rhs,
                                       bnorm, warm_start))
                warm_start = out[-1][3][0, -1]
            if gmres:
                self._warm = warm_start
            eta, eta_loss, resid, pops = (
                np.concatenate(arrays, axis=int(gmres))
                for arrays in zip(*(p[:4] for p in out)))
            redone = [route for p in out for route in p[4]]
        if self.failed:
            lost = np.isin(ids, list(self.failed))
            eta[lost] = eta_loss[lost] = math.nan
        return eta, eta_loss, resid, pops, redone

    def efficiency(self, gamma, rho0=None, warm_start=None):
        """Returns (eta, eta_loss, residual, method, populations).

        A single solve on a one-cell solver through the point path, from
        rho0 (a flattened density matrix; the initial site when None),
        warm-started from warm_start above DENSE_SOLVE_MAX_N sites.
        """
        eta, eta_loss, resid, pops, redone = self._points(
            np.array([[gamma]], dtype=float), self._ids[:1], rho0,
            warm_start)
        return (float(eta[0, 0]), float(eta_loss[0, 0]), float(resid[0, 0]),
                redone[0] if redone else "direct-eigenbasis",
                pops[0, 0].copy())

    def eta_grid(self, gammas):
        """eta for the initial site at every rate of the 1-d array gammas,
        for every cell: shape (cells, G), or (G,) for a solver built from
        one spec.

        Up to DENSE_SOLVE_MAX_N sites the whole grid of every cell is one
        batched direct solve; larger systems solve point by point along
        the grid, warm-started.  Every point is certified, and redone if
        rejected, by the point path (see the class docstring).
        """
        gammas = np.asarray(gammas, dtype=float)
        etas, _, resid, _, redone = self._points(
            np.broadcast_to(gammas, (self.cells, gammas.size)),
            warm_start=self._warm)
        if self.n <= DENSE_SOLVE_MAX_N:
            _log.debug(
                "batched solve n=%d points=%d max_residual=%.2e redone=%d",
                self.n, etas.size, resid.max(), len(redone))
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
            return float(self._points(np.array([[gamma]], dtype=float),
                                      warm_start=self._warm)[0][0, 0])
        gamma = np.asarray(gamma, dtype=float)
        rows = self.cells if cells is None else len(cells)
        return self._points(gamma.reshape(rows, -1), cells,
                            warm_start=self._warm)[0].reshape(gamma.shape)
