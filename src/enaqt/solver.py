"""Transport-efficiency solvers: exact steady-integral solves and propagation.

The trapped probability is eta = 2*kappa * sum_traps of the time integral of
the trap populations; the lost probability is eta_loss = 2*mu times the
integrated total population.  Because the state fully decays whenever mu > 0
(or kappa > 0 with no dark state), the integral x = int_0^inf vec(rho) dt
satisfies the linear system L x = -vec(rho0), which is solved directly.

Two independent routes are implemented and cross-validated:

* efficiency_direct    -- resolvent solve of L x = -vec(rho0)
* propagate            -- exact time evolution by one matrix exponential
                          of the generator augmented with the two running
                          yield integrals, applied step by step

model._generator applies L without forming it in every residual and
refinement of the steady solve; propagate densifies the sparse matrix of
model._sparse_generator, which the sparse-LU fallback also factors.

Every steady solve, single, over a gamma grid or over several
(kappa, mu) cells of one geometry, runs on one engine,
EigenbasisSteadySolver, a cell stack (one cell for a single spec),
through one point path: it reduces the steady solve to the n site
populations in the eigenbasis of H and solves that system by one of three
kernels, chosen by the number of sites n:

* up to MAPS_MAX_N sites, directly, with the system assembled through
  n^2 x n^2 maps tabulated per kappa row ("maps");
* up to DIRECT_MAX_N sites, directly, with the system assembled without
  maps ("map-free");
* above, by an in-house restarted GMRES (_restarted_gmres), one point at
  a time ("gmres").

The population system is real on every kernel (L maps Hermitian matrices
to Hermitian ones), and each kernel solves it in real arithmetic.  The
solver certifies every answer by one rule, the residual of the full
generator; it sends a rejected point, on its own cell's arrays, through
one fallback chain: extended-precision refinement, then a sparse LU of
the full generator; and it records a point failing both in `failed`
(efficiency_direct and efficiency_gamma_grid raise it).  Since
H(kappa, mu) = H(kappa, 0) - i*mu*I, a stack takes its eigendecomposition
and maps once per distinct kappa (a row), and every cell is its row
shifted by its mu.  The solver also sizes the cell stacks of its callers
in whole rows (_stack_size, _stacks).
"""

from __future__ import annotations

import functools
import logging
import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .errors import SingularSystemError, StiffnessError, ValidationError
from .model import (
    SystemSpec,
    _colouring,
    _generator,
    _hamiltonians,
    _left,
    _rate,
    _right,
    _site_density,
    _sparse_generator,
    as_density_vec,
    build_liouvillian,
)

__all__ = [
    "EfficiencyReport",
    "Trajectory",
    "efficiency_direct",
    "propagate",
    "efficiency_gamma_grid",
    "EigenbasisSteadySolver",
]

RESID_TARGET = 1e-10  # relative residual that certifies an answer outright
RESID_ACCEPT = 1e-9   # relative residual above which a fallback is rejected
GMRES_RTOL = 1e-12    # true residual, relative to |b|, that ends GMRES
EPS = np.finfo(float).eps
# Bytes of the points of one chunk of a call (all rates of as many cells
# as fit, or as many rates of one cell): a direct solve holds several
# (points x n^2) complex arrays at once up to MAPS_MAX_N sites, and n^3
# complex numbers a point above, while it assembles K without maps (one
# rate from 17 sites on).  Chunks of 1 MB and 4 MB timed the same on
# 65-point grids at n = 17-32.
BATCH_BYTES = 2 ** 17
# Largest n for which EigenbasisSteadySolver assembles the population
# system through n^2 x n^2 maps (16 n^4 bytes a cell); on 65-point grids
# the maps kernel is 1.4-4x faster than the map-free one up to here.
MAPS_MAX_N = 16
# Largest n for which EigenbasisSteadySolver solves the population system
# directly, assembled without maps at O(n^4) flops per rate; larger systems
# use its GMRES route.  Measured: the largest n at which the map-free
# kernel beat GMRES on an optimization, an 8-point curve and single solves
# at weak and strong dephasing, in a process whose allocator keeps freed
# memory; where every solve faults in its n^3 arrays afresh, GMRES wins
# single strong-dephasing solves from about 30 sites (docs/decisions.md).
DIRECT_MAX_N = 35
# Bytes of the n^2 x n^2 maps (16 n^4 bytes a kappa row) of one cell
# stack; see _stack_size.
STACK_BYTES = 2 ** 18
# Steps of one matrix exponential by which propagate crosses its horizon.
PROPAGATE_STEPS = 256
# Largest n propagate takes: its dense augmented generator holds
# 16 (n^2 + 2)^2 bytes, 17 MB at 32 sites and 268 MB at 64.
PROPAGATE_MAX_N = 32

_log = logging.getLogger("enaqt")


@dataclass(frozen=True)
class EfficiencyReport:
    """Branching probabilities from one solve.

    eta is the probability the particle is ever trapped, eta_loss the
    probability it is lost; for mu > 0 the two sum to tr rho0 (1 for the
    initial site, at most 1 for any initial state, model.as_density_vec).
    residual is the relative residual of the underlying linear solve.
    """

    eta: float
    eta_loss: float
    method: str
    residual: float


@dataclass
class Trajectory:
    """Time evolution record produced by propagate().

    states[i] is the density matrix at times[i], of shape (steps + 1, n,
    n) in all, a view of the propagated array that trapped_cumulative and
    loss_cumulative also view.  trapped_cumulative[i] is 2*kappa *
    int_0^t_i of the trap populations, a non-decreasing sequence;
    eta_estimate adds the tail estimate trace/2 at the horizon, which is
    bounded by the remaining trace.
    """

    times: np.ndarray
    states: np.ndarray
    traces: np.ndarray
    trapped_cumulative: np.ndarray
    loss_cumulative: np.ndarray
    eta_estimate: float
    eta_loss_estimate: float
    tail_bound: float


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
        Initial density matrix (a length-n^2 vector or an n x n matrix),
        checked once, by model.as_density_vec: Hermitian, positive
        semidefinite, of trace at most 1.  Defaults to the particle
        localized on spec.initial_site.

    Raises
    ------
    ValidationError
        If rho0 has the wrong shape, a non-finite entry, is zero, or is not
        a density matrix of trace at most 1 (the message names the
        property).
    SingularSystemError
        The solver's `failed` entry, if the generator is singular (dark
        state at mu = 0) or the residual of every route is not acceptable.
    """
    solver = EigenbasisSteadySolver(spec)
    eta, eta_loss, resid, method = solver.efficiency(spec.gamma, rho0=rho0)
    if solver.failed:
        raise solver.failed[0]
    return EfficiencyReport(eta, eta_loss, method, resid)


def propagate(spec: SystemSpec, rho0=None,
              horizon: float | None = None) -> Trajectory:
    """Exact time evolution of the master equation on an even time grid.

    The generator is augmented by one row 2*kappa on the trap populations
    and one row 2*mu on all populations, which carry the running trapped
    and lost yields with the state.  Its exponential over one step,
    horizon/PROPAGATE_STEPS, is computed once and applied step by step.
    At every recorded time trapped + lost + trace must equal tr rho0
    within RESID_ACCEPT times what decayed (trapped + lost), or within
    PROPAGATE_STEPS rounding errors of tr rho0 where that is larger: the
    probability budget, relative, so that it also holds where little has
    decayed.
    The terminal efficiency estimate adds half the surviving trace as a
    tail estimate; the full surviving trace bounds the tail error.

    Parameters
    ----------
    spec : SystemSpec
        At most PROPAGATE_MAX_N sites.
    rho0 : optional
        Initial density matrix, checked as efficiency_direct checks it;
        defaults to the initial site.  A state this function recorded
        (Trajectory.states), of trace below 1, is a valid rho0.
    horizon : float, optional
        Integration endpoint.  Defaults to 50/mu, by which the surviving
        trace is below e^-100.  Required explicitly when mu = 0.

    Raises
    ------
    ValidationError
        If horizon is not finite and > 0, spec has more than
        PROPAGATE_MAX_N sites, or rho0 is not a density matrix of trace at
        most 1 (see efficiency_direct); before anything is built.
    StiffnessError
        If the trajectory misses the probability budget, as at extreme
        gamma*dt (a 3-site chain misses it by 2.5e-8 at gamma = 1e8,
        horizon 10); a shorter horizon restores it, but not at every gamma
        (at 1e14 the miss is 9 % of what decays by horizon 1e-9).
    """
    if horizon is None:
        if spec.mu <= 0:
            raise ValidationError("horizon is required when mu = 0")
        horizon = 50.0 / spec.mu
    if not _rate("horizon", horizon) > 0:
        raise ValidationError(f"horizon={horizon!r} must be finite and > 0")
    n = spec.n
    if n > PROPAGATE_MAX_N:
        raise ValidationError(
            f"propagate takes at most {PROPAGATE_MAX_N} sites, got n={n}")
    vec0 = (_site_density(n, spec.initial_site) if rho0 is None
            else as_density_vec(rho0, n))
    m = n * n
    didx = np.arange(0, m, n + 1)
    gen = np.zeros((m + 2, m + 2), dtype=complex)
    gen[:m, :m] = build_liouvillian(spec).matrix.toarray()
    gen[m, didx[list(spec.trap_sites)]] = 2.0 * spec.kappa
    gen[m + 1, didx] = 2.0 * spec.mu
    step = sla.expm(gen * (horizon / PROPAGATE_STEPS))
    ys = np.empty((PROPAGATE_STEPS + 1, m + 2), dtype=complex)
    ys[0, :m], ys[0, m:] = vec0, 0.0
    for i in range(PROPAGATE_STEPS):
        ys[i + 1] = step @ ys[i]
    times = np.linspace(0.0, horizon, PROPAGATE_STEPS + 1)
    traces = ys[:, didx].sum(axis=1).real
    trapped, lost = ys[:, m].real, ys[:, m + 1].real
    decayed = trapped + lost
    miss = np.abs(decayed + traces - traces[0])
    kept = miss <= np.maximum(RESID_ACCEPT * decayed,
                              PROPAGATE_STEPS * EPS * traces[0])
    if not kept.all():
        worst = int(np.argmin(kept))
        raise StiffnessError(
            f"probability budget missed by {miss[worst]:.2e} of "
            f"{decayed[worst]:.2e} decayed at t={times[worst]:.3g}: the "
            "matrix exponential is inaccurate at this gamma*dt; reduce the "
            "horizon or use the direct solver")
    trace_final = traces[-1]
    return Trajectory(
        times=times,
        states=ys[:, :m].reshape(-1, n, n),
        traces=traces,
        trapped_cumulative=trapped,
        loss_cumulative=lost,
        eta_estimate=trapped[-1] + trace_final / 2.0,
        eta_loss_estimate=lost[-1] + trace_final / 2.0,
        tail_bound=trace_final,
    )


def efficiency_gamma_grid(spec: SystemSpec, gammas) -> np.ndarray:
    """eta evaluated at each dephasing rate on the grid.

    The whole grid is one call of a one-cell EigenbasisSteadySolver's
    eta_grid; spec's own gamma is ignored.  Callers that solve several
    grids on one system call the solver's eta_grid.

    Raises ValidationError for a grid that is not a non-empty 1-d
    sequence or holds a rate that is negative or not finite, and the
    solver's error where a point fails (see efficiency_direct).
    """
    solver = EigenbasisSteadySolver(spec)
    etas = solver.eta_grid(gammas)
    if solver.failed:
        raise solver.failed[0]
    return etas[0]


def _eig(h, colours):
    """(lam, S) with H = S diag(lam) S^-1 for every H of the stack h.  With
    a 2-colouring c of the sites that the hopping respects
    (model._colouring), D = diag(i^c) makes M = i D^-1 H D real: the rates
    mu + kappa on the traps on its diagonal, +-v off it.  So one real
    eigendecomposition M V = V diag(lam_M) gives lam = -i lam_M and S = D V,
    at half the cost of the complex one at 80 sites and a third at 128;
    stacks gain from n = 2, single cells from about 10 sites.  Without a
    colouring (an odd ring), the complex eig of H."""
    if colours is None:
        return np.linalg.eig(h)
    # H is hopping - i rates: M = hopping o (c_j - c_k) + rates
    lam_m, v = np.linalg.eig(h.real * (colours[:, None] - colours) - h.imag)
    return -1j * lam_m, np.where(colours, 1j, 1.0)[:, None] * v


def _restarted_gmres(apply, b, x0, restart, maxiter):
    """(x, info, matvecs): GMRES(restart) on apply(x) = b from x0 (zero
    when None), in real arithmetic (b, x0 and apply's values are float
    vectors), at most maxiter cycles, stopped as scipy's gmres stops:
    Arnoldi steps until the estimated residual meets an inner tolerance
    (adapted from cycle to cycle), then the true residual b - apply(x) at
    the end of the cycle; info is 0 once that is at most GMRES_RTOL |b|,
    else the number of cycles run.  The basis is orthogonalised by
    classical Gram-Schmidt with one re-orthogonalisation, two products
    against the basis block each, and the Givens rotations act on Python
    scalars, each turning its column's diagonal entry a into sign(a) rho.
    A breakdown (a Krylov vector of zero norm) ends the cycle and, unless
    its true residual meets the tolerance, the solve: info is then
    non-zero, also where the breakdown leaves the Hessenberg system
    singular (apply maps the basis to zero), whose last column is
    dropped."""
    n = b.size
    restart = min(restart, n)
    atol = GMRES_RTOL * math.sqrt(np.vdot(b, b))
    x = np.zeros_like(b) if x0 is None else x0.astype(float)
    r, matvecs = (b - apply(x), 1) if x.any() else (b.copy(), 0)
    rnorm = math.sqrt(np.vdot(r, r))
    if rnorm <= atol:
        return x, 0, matvecs
    basis = np.empty((restart + 1, n))
    tri = np.zeros((restart, restart))
    ptol, factor = atol, 1.0
    for cycle in range(1, maxiter + 1):
        basis[0] = r / rnorm
        g, rots = [rnorm], []
        for j in range(restart):
            w = apply(basis[j])
            matvecs += 1
            block = basis[:j + 1]
            h0 = math.sqrt(np.vdot(w, w))
            h = block @ w
            w = w - h @ block  # a new array: apply may return its argument
            h2 = block @ w
            w -= h2 @ block
            col = (h + h2).tolist()
            hnext = math.sqrt(np.vdot(w, w))
            breakdown = hnext <= EPS * h0
            if breakdown:
                hnext = 0.0
            for k, (c, s) in enumerate(rots):
                col[k], col[k + 1] = (c * col[k] + s * col[k + 1],
                                      c * col[k + 1] - s * col[k])
            rho = math.hypot(col[j], hnext)
            if rho == 0.0:
                break
            sign = -1.0 if col[j] < 0.0 else 1.0
            c, s = abs(col[j]) / rho, sign * hnext / rho
            col[j] = sign * rho
            rots.append((c, s))
            tri[:j + 1, j] = col
            g[j:] = [c * g[j], -s * g[j]]
            if breakdown or abs(g[j + 1]) <= ptol:
                break
            basis[j + 1] = w / hnext
        m = len(rots)
        if m:
            y = sla.lapack.dtrtrs(tri[:m, :m], g[:m])[0]
            x += y @ basis[:m]
        r = b - apply(x)
        matvecs += 1
        rnorm = math.sqrt(np.vdot(r, r))
        if rnorm <= atol:
            return x, 0, matvecs
        if breakdown:
            return x, cycle, matvecs
        presid = abs(g[m])
        factor = (max(EPS, 0.25 * factor) if presid <= ptol
                  else min(1.0, 1.5 * factor))
        ptol = presid * min(factor, atol / rnorm)
    return x, maxiter, matvecs


def _stack_size(n):
    """Kappa rows per stack of n-site cells: as many as keep their
    n^2 x n^2 maps (16 n^4 bytes a row) within STACK_BYTES, and at least
    one: 26 at n = 5, 4 at n = 8, and one from n = 10 on.  A row holds any
    number of mu cells, but above MAPS_MAX_N sites a stack holds one cell
    (_stacks)."""
    return max(1, STACK_BYTES // (16 * n ** 4))


def _stacks(n, kappas, parts=1):
    """The stacks of the n-site cells at the rates kappas (a 1-d array,
    one per cell, in order), as slices of the cells: whole runs of equal
    kappa (rows), _stack_size(n) runs a stack, or fewer where that makes
    at least `parts` stacks (the tasks of a pool of `parts` processes),
    and one cell a stack above MAPS_MAX_N sites."""
    first = (range(kappas.size) if n > MAPS_MAX_N else
             [0, *(np.flatnonzero(kappas[1:] != kappas[:-1]) + 1).tolist()])
    size = min(_stack_size(n), -(-len(first) // parts))
    cuts = [*first[::size], kappas.size]
    return [slice(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]


class _Rows(NamedTuple):
    """The arrays of EigenbasisSteadySolver that do not depend on mu, one
    per kappa row (a leading row axis), tabulated for the cell (kappa, 0):
    H(kappa, mu) = H(kappa, 0) - i*mu*I leaves S, S^-1 and the maps as
    they are.  See EigenbasisSteadySolver._build_maps for the last five:
    weights0 exists at every size, kmap, emap and fmap up to MAPS_MAX_N
    sites, and dmat from there to DIRECT_MAX_N sites."""

    s: np.ndarray          # S
    sdag: np.ndarray       # S^dag
    sinv: np.ndarray       # S^-1
    two_kappa: np.ndarray  # shape (rows, 1)
    weights0: np.ndarray   # S^-1 rhs0 S^-dag, shape (rows, 1, n^2)
    kmap: np.ndarray | None = None
    emap: np.ndarray | None = None
    fmap: np.ndarray | None = None
    dmat: np.ndarray | None = None


class _Cells(NamedTuple):
    """The arrays of a chunk of cells of EigenbasisSteadySolver
    (EigenbasisSteadySolver._select), each with a leading cell axis,
    except the maps: each cell's c, -iH and -iH^dag, its row's shifted by
    its mu, and its row's arrays of _Rows.  The maps are never gathered:
    a chunk holds the rows' own, and `runs` tells which rows its cells are
    on (_by_row)."""

    c: np.ndarray          # -i(lam_p - conj lam_q), shape (cells, 1, n^2)
    s: np.ndarray          # S
    sdag: np.ndarray       # S^dag
    sinv: np.ndarray       # S^-1
    mh: np.ndarray         # -iH
    mhd: np.ndarray        # -iH^dag
    two_kappa: np.ndarray  # shape (cells, 1)
    two_mu: np.ndarray     # shape (cells, 1)
    weights0: np.ndarray   # S^-1 rhs0 S^-dag, shape (cells, 1, n^2)
    runs: tuple            # (r0, r1, lo, hi): the cells lo:hi on rows r0:r1
    kmap: np.ndarray | None = None  # one per row, as the next three
    emap: np.ndarray | None = None
    fmap: np.ndarray | None = None
    dmat: np.ndarray | None = None


def _solve(a, b):
    """x with a x = b for a stack of n x n matrices a and n-vectors b (one
    per matrix, or one for all), by numpy's LAPACK one matrix at a time:
    the same bits whatever else the stack holds, down to one point alone.
    x is NaN where a matrix is exactly singular (LAPACK's info > 0), a
    point that the residual check then rejects; numpy raises for the
    whole stack."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        b = np.broadcast_to(b, a.shape[:-1])
        x = np.full(b.shape, math.nan)
        for at in np.ndindex(b.shape[:-1]):
            try:
                x[at] = np.linalg.solve(a[at], b[at][:, None])[:, 0]
            except np.linalg.LinAlgError:
                pass
        return x


def _runs(row):
    """The runs (r0, r1, lo, hi) of the row indices `row` of a chunk's
    cells: the cells lo:hi all on row r0 (r1 = r0 + 1), or each on the next
    row (r1 - r0 = hi - lo), so that maps[r0:r1] is a view of their maps
    that broadcasts against them.  A run of one cell is both, and a cell
    on the row after it joins it."""
    rows = row.tolist()
    if len(rows) == 1:
        return ((rows[0], rows[0] + 1, 0, 1),)
    cut = [0, *(np.flatnonzero(row[1:] != row[:-1]) + 1).tolist(), len(rows)]
    runs = []
    for lo, hi in zip(cut[:-1], cut[1:]):
        r = rows[lo]
        if (hi - lo == 1 and runs and runs[-1][1] == r
                and runs[-1][1] - runs[-1][0] == runs[-1][3] - runs[-1][2]):
            runs[-1][1:4:2] = r + 1, hi
        else:
            runs.append([r, r + 1, lo, hi])
    return tuple(map(tuple, runs))


def _by_row(a, x, maps):
    """x @ maps[row] for every cell of the chunk a, row its row, along the
    cell axis (-3) of x: per run (r0, r1, lo, hi) of a, one matmul of the
    cells lo:hi by the view maps[r0:r1] (_runs), one matrix product per
    cell over all its points, by its row's map as it is (no copy per
    cell).  OpenBLAS gives a row of a product different bits for a
    different row count, so a point's result then does not depend on its
    chunk."""
    if len(a.runs) == 1:
        (r0, r1, _, _), = a.runs
        return x @ maps[r0:r1]
    out = np.empty(x.shape[:-1] + maps.shape[-1:], complex)
    for r0, r1, lo, hi in a.runs:
        np.matmul(x[..., lo:hi, :, :], maps[r0:r1],
                  out=out[..., lo:hi, :, :])
    return out


class EigenbasisSteadySolver:
    """Population-space steady-integral solver, the steady-state engine
    behind every single solve, gamma grid and optimization.

    One eigendecomposition H = S diag(lam) S^-1 of the n x n generator is
    shared across all dephasing rates.  It is a real one (_eig) wherever
    the hopping is bipartite (chains, even rings, semi-infinite
    truncations): D^-1 H D is -i times a real matrix for D = diag(i^c), c
    a 2-colouring of the sites; an odd ring keeps the complex one.  With
    c_pq = -i(lam_p - conj(lam_q)) the coherent part with uniform
    dephasing, A(X) = -i(H X - X H^dag) - 2*gamma*X, is diagonal in that
    basis:

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
    (Re c <= 0).  Up to DIRECT_MAX_N sites the system matrix is
    assembled explicitly, for many rates at once, and solved directly:

        K[l, j] = sum_pq C[l, j, p] R[p, q] conj(C[l, j, q]),
        C[l, j, p] = S[l, p] S^-1[p, j].

    Up to MAPS_MAX_N sites (kernel "maps") the products
    C[l, j, p] conj(C[l, j, q]) are tabulated once per solver as an
    n^2 x n^2 map, as are the maps of diag(S Y S^dag) and
    S^-1 Diag(p) S^-dag, so a grid costs one matrix product per map and
    one stacked solve (eta_grid).  Above it (kernel "map-free") a map
    would hold 16 n^4 bytes, and K is assembled from C alone: with
    D[p, (l, j)] = C[l, j, p] an n x n^2 matrix,

        K[l, j] = sum_p D[p, (l, j)] T[p, (l, j)],
        T = R @ conj D = conj(conj R @ D),

    one matrix product of (rates x n, n) by (n, n^2) per chunk of rates,
    at O(n^4) flops and n^3 numbers per rate; the two other products are
    taken directly.  Above DIRECT_MAX_N sites (kernel "gmres") GMRES
    applies the operator (_restarted_gmres).  A matvec costs two n x n by
    n x n/2 products where the sublattice symmetry pairs the eigenvalues,
    two n x n products where it does not (_population_matvec).

    K is real, because L maps Hermitian matrices to Hermitian ones, and
    so is every right-hand side b a kernel meets: every initial state is
    Hermitian (model.as_density_vec checks a rho0 once per call), and so
    is every residual the refinement solves for.  So K, b, the
    populations p and the adjoint w below are real on every kernel: the
    direct kernels keep the real parts of the K and b they assemble and
    solve by dgetrf/dgetrs (one point) or a real stacked solve, and
    GMRES runs in real arithmetic only.  The full steady integral is
    rebuilt the same way,
    -2*gamma*A^-1(Diag p) = Diag(p) - S[(S^-1 Diag(p) S^-dag) o R]S^dag,
    which keeps its residual near working precision.

    eta and its slope d eta/d log gamma come from the same system
    K p = b.  eta = t^T p with t = 2*kappa on the trap sites, and only R
    and b depend on gamma: dR/d gamma = 2c/(c - 2*gamma)^2, and
    b = diag(S [W / (c - 2*gamma)] S^dag) with W = S^-1 rho0 S^-dag.  So

        db - dK p = diag(S Z S^dag),
        Z = 2 (W - c o S^-1 Diag(p) S^-dag) / (c - 2*gamma)^2,

    where (c - 2*gamma) Z / 2 is the Y of the rebuilt steady integral,
    and d eta/d gamma = t^T K^-1 (db - dK p).  Every kernel solves the
    adjoint K^T w = t and takes w^T (db - dK p): the two direct kernels
    in the same stacked call as K p = b, the GMRES route by a second
    GMRES solve whose transposed matvec,

        K^T w = diag(S^-T [R o (S^T Diag(w) conj S)] conj S^-1),

    costs what a forward matvec costs.  The slope (eta(..., slope=True)) is a
    hint for a search, given at every certified point: a point the
    fallback chain redid, or one whose GMRES adjoint did not converge,
    gets it, and the rate slopes below, from the adjoint of the full
    generator (_full_slopes).

    The same adjoint w gives the slopes in the two other rates, with no
    further solve (eta(..., _rates=True), for max_enaqt's sweeps).  Let
    F = S^-1 Diag(p) S^-dag, Y the matrix the steady integral is rebuilt
    from, and b(Q) = diag(S [(S^-1 Q S^-dag) / (c - 2*gamma)] S^dag) the
    right-hand side of K p = b for L(X) = Q.  Then X = S (Y + F) S^dag and

        d eta/d mu    = 2*kappa w^T diag(S [2 (Y + F) / (c - 2*gamma)] S^dag),
        d eta/d kappa = eta/kappa + 2*kappa w^T b(P X + X P),

    with P the trap projector, and S^-1 (P X + X P) S^-dag =
    Pi (Y + F) + (Y + F) Pi^dag, Pi = S^-1 P S.  The first holds because
    H(kappa, mu) = H(kappa, 0) - i*mu*I: c moves to c - 2*mu and S does
    not move.  The second because dL/d kappa (X) = -(P X + X P).  A scan
    whose grid starts at gamma = 0 gets both there in closed form
    (eta_grid(..., _rates=True)): at gamma = 0, K = I and w = t.  A
    slope is NaN only at a failed cell, or where the full generator's
    adjoint fails its residual.

    Every solver is a cell stack, built from the geometry of one spec and
    two rate arrays, EigenbasisSteadySolver(spec, kappa, mu): cell i has the
    rates (kappa[i], mu[i]) (finite and >= 0, else ValidationError).  Each
    array defaults to spec's own rate, so EigenbasisSteadySolver(spec) is
    the one-cell stack at spec's rates.  No spec is built per cell.  Since
    H(kappa, mu) = H(kappa, 0) - i*mu*I, S, S^-1 and the maps do not
    depend on mu: the stack tabulates them once per distinct kappa (`rows`
    of them, _Rows), from one stacked eigendecomposition of the H that
    model._hamiltonians, the builder behind build_hamiltonian, gives at
    mu = 0.  A cell keeps its row and what depends on its mu, its row's
    shifted: c - 2*mu, and -iH and -iH^dag of H(kappa, 0) - i*mu*I,
    bitwise the H of model._hamiltonians at its rates, so that every
    residual is its own full generator's.  Each call of eta_grid or eta
    solves a (cells x rates) array of points at once: per cell, one matrix
    product applies its row's map, or S, S^dag or H, to all its rates
    together (_by_row: never one product of several cells, so a point's
    result does not depend on its chunk), and one stacked solve covers
    every point (_solve: numpy's LAPACK, one matrix at a time, also for a
    point alone, so that its bits do not depend on its chunk either), in
    chunks of at most BATCH_BYTES: all rates of as many cells as fit, or
    as many rates of one cell.  Above MAPS_MAX_N sites a stack holds one
    cell and a chunk one rate, and above DIRECT_MAX_N sites GMRES solves
    the points one by one (a chunk of one point, whatever BATCH_BYTES).
    Each initial-site point starts from the final populations of the last
    initial-site point solved, in this call or an earlier one; the solver
    keeps them in one place (_warm), so a solve from another rho0 moves no
    later start.

    efficiency, eta and eta_grid run one point path (_points) for rates that
    are finite and >= 0 (ValidationError otherwise): (1) solve the points
    (_kernel); (2) certify each answer by one rule, the residual of the
    full generator (_generator) within RESID_TARGET; (3) send a rejected
    point, on its own cell's arrays and from the answer it has, through
    one fallback chain (_fall_back): extended-precision refinement when
    its residual is above RESID_TARGET (near-singular systems,
    mu ~ 1e-8), then a sparse LU of the cell's full generator, each
    accepted by the same rule at RESID_ACCEPT.  A point failing both gets
    a SingularSystemError with its gamma named (and the dark-state hint at
    mu = 0), which the solver never raises: it records it in `failed` under
    the cell's index, answers NaN with method None for every point of
    that cell in that call and from then on, and solves its other cells
    as before.  `routes` counts the accepted points per method, none of
    them a point the cell answers NaN for, and `matvecs` the GMRES
    matvecs, forward and adjoint, fallbacks included.
    `kernel` names the kernel ("maps", "map-free" or "gmres"), and so does
    the DEBUG record that every point solved alone (a one-point call, a
    GMRES point, a fallback) and every eta_grid or efficiencies call of a
    direct kernel leaves.  efficiencies gives what efficiency gives for each
    rate of a grid, method included, from one call of the point path.
    """

    GMRES_RESTART = 60
    GMRES_MAXITER = 10

    def __init__(self, spec, kappa=None, mu=None):
        if not isinstance(spec, SystemSpec):
            raise ValidationError(
                f"a solver is built from one SystemSpec, got {spec!r}")
        # spec's own rates, which SystemSpec checked, by default
        kappa = spec.kappa if kappa is None else _rate("kappa", kappa, True)
        mu = spec.mu if mu is None else _rate("mu", mu, True)
        try:
            kappa, mu = np.array(np.broadcast_arrays(kappa, mu),
                                 dtype=float).reshape(2, -1)
        except ValueError:
            raise ValidationError(f"kappa and mu of shapes {np.shape(kappa)}"
                                  f" and {np.shape(mu)} differ") from None
        if kappa.size == 0:
            raise ValidationError("a cell stack needs at least one cell")
        self.n = n = spec.n
        if n > MAPS_MAX_N and kappa.size > 1:
            raise ValidationError(
                f"a stack above {MAPS_MAX_N} sites holds one cell")
        self.kernel = ("maps" if n <= MAPS_MAX_N else
                       "map-free" if n <= DIRECT_MAX_N else "gmres")
        self.cells = cells = kappa.size
        self.tidx = np.asarray(spec.trap_sites, dtype=int)
        self._trap_indicator = np.zeros(n)
        self._trap_indicator[self.tidx] = 1.0
        # one row per distinct kappa, the cell (kappa, 0), in the order of
        # the cells (cells of distinct kappas then apply their maps in one
        # matmul, _runs)
        first = {}
        self._row = row = np.array([first.setdefault(k, len(first))
                                    for k in kappa.tolist()])
        kappas = np.array(list(first))
        self.rows = rows = kappas.size
        h = _hamiltonians(spec, kappas, np.zeros(rows))
        self._colours = _colouring(spec)
        lam, s = _eig(h, self._colours)
        # cell 0's row's, for _population_matvec: mu moves no real part
        self._lam = lam[0]
        sinv = np.linalg.inv(s)
        c = -1j * (lam[:, :, None] - lam[:, None, :].conj())
        self._ids = np.arange(cells)
        self._init = spec.initial_site
        self._rhs0 = -_site_density(n, spec.initial_site)
        self._rows = _Rows(s, s.conj().transpose(0, 2, 1), sinv,
                           2.0 * kappas[:, None], **self._build_maps(s, sinv))
        # what depends on mu, per cell, its row's shifted: c - 2*mu, and
        # H - i*mu*I, bitwise the H of model._hamiltonians at its rates
        c = c.reshape(rows, 1, n * n)
        if rows < cells:  # else each cell is its own row, in order
            c, h = c[row], h[row]
        self._two_mu = 2.0 * mu[:, None]
        self._c = c - self._two_mu[:, :, None]
        diag = np.arange(n)
        h.imag[:, diag, diag] -= mu[:, None]
        self._mh, self._mhd = -1j * h, -1j * h.conj().transpose(0, 2, 1)
        self._warm = None  # GMRES start: last initial-site populations
        self._operands = {}  # transpose -> _population_matvec's operands
        self.routes = Counter()  # accepted points per method
        self.matvecs = 0  # GMRES matvecs, forward and adjoint
        self.failed = {}  # cell index -> SingularSystemError

    def _build_maps(self, s, sinv):
        """Tabulate, per row, what the direct kernels apply, as keyword
        arguments of _Rows (s and sinv hold one S and S^-1 per row).

        Matrices X are flattened row-major (X[i, j] at i*n + j), and the
        maps act from the right on rows of points, so that all points of
        a cell form one matrix product:
          kmap[pq, lj] = C[l, j, p] conj(C[l, j, q]):  K = R @ kmap;
          emap[pq, i] = S[i, p] conj(S[i, q]):         diag(S Y S^dag);
          fmap[j, pq] = S^-1[p, j] conj(S^-1[q, j]):   S^-1 Diag(p) S^-dag;
          weights0 = S^-1 rhs0 S^-dag for the initial site's rhs0.
        No n^3-per-rate temporaries arise (a 65-point grid at n = 10 would
        need 1 MB of them, returned to the system and faulted in again on
        every call).  Above MAPS_MAX_N sites only weights0 and
        dmat[p, lj] = C[l, j, p] = S[l, p] S^-1[p, j] (n^3 numbers) are
        kept (see _assemble), and above DIRECT_MAX_N sites only weights0,
        as the outer product of a column of S^-1 (see _gmres).
        """
        n = self.n
        nn = n * n
        rows = len(s)
        if self.kernel == "gmres":
            # rank one, -S^-1[:, i] conj(S^-1[:, i])^T: no n x n products
            col = sinv[:, :, self._init]
            return {"weights0": -(col[:, :, None] * col.conj()[:, None, :]
                                  ).reshape(rows, 1, nn)}
        st, sinvt = s.transpose(0, 2, 1), sinv.transpose(0, 2, 1)
        weights0 = (sinv @ self._rhs0.reshape(n, n)
                    @ sinvt.conj()).reshape(rows, 1, nn)
        if n > MAPS_MAX_N:
            # from a contiguous S^T: the product is then laid out as dmat,
            # and the reshape copies nothing
            dmat = (np.ascontiguousarray(st)[:, :, :, None]
                    * sinv[:, :, None, :]).reshape(rows, n, nn)
            return {"weights0": weights0, "dmat": dmat}
        ct = (st[:, :, :, None] * sinv[:, :, None, :]).reshape(rows, n, nn)
        kmap = (ct[:, :, None, :] * ct.conj()[:, None, :, :]).reshape(
            rows, nn, nn)
        emap = (st[:, :, None, :] * st.conj()[:, None, :, :]).reshape(
            rows, nn, n)
        fmap = (sinvt[:, :, :, None] * sinvt.conj()[:, :, None, :]).reshape(
            rows, n, nn)
        return {"kmap": kmap, "emap": emap, "fmap": fmap,
                "weights0": weights0}

    def _select(self, cells):
        """The arrays of `cells`, an index array or a slice (see _Cells):
        views where they can be (the cells' own for a slice, the rows'
        where each cell is on the next row, as a single cell is), else
        gathered copies, and the rows' own maps."""
        r, row = self._rows, self._row[cells]
        runs = _runs(row)
        (r0, r1, _, _), *more = runs
        at = row if more or r1 - r0 < row.size else slice(r0, r1)
        return _Cells(self._c[cells], r.s[at], r.sdag[at], r.sinv[at],
                      self._mh[cells], self._mhd[cells], r.two_kappa[at],
                      self._two_mu[cells], r.weights0[at], runs, r.kmap,
                      r.emap, r.fmap, r.dmat)

    @functools.cached_property
    def _all(self):
        """The arrays of every cell (_select), built on first use: a
        stack whose chunks each hold only some of its cells never needs
        them."""
        return self._select(slice(None))

    def _kernel(self, g2, a, rhs, stats, slope=False, rates=False):
        """(X, diag X, dtrap, drates), X flattened, with L(X) = rhs at
        every point (step 1 of the point path), on the arrays a (see
        _select): the population system K p = b is solved directly,
        assembled by _assemble, or by GMRES above DIRECT_MAX_N sites
        (_gmres), and the rest is one code for every kernel.  g2 =
        2*gamma has shape (cells, k, 1), or is a float for one point; X
        then has shape (cells, k, n^2) and diag X (cells, k, n).  With
        slope, dtrap holds d(sum of the trap populations)/d gamma at every
        point, shape (cells, k), from the adjoint K^T w = t (NaN where
        GMRES did not converge on it), else None (see the class
        docstring).  With rates, drates holds d(sum of the trap
        populations)/d(kappa, mu), shape (cells, k, 2): at every point
        from the adjoint with slope, and without it at the first rate
        only, which must be gamma = 0, where K = I and the adjoint is the
        trap indicator (shape (cells, 1, 2)).  Else drates is None.
        """
        n = self.n
        weights = (a.weights0 if rhs is self._rhs0 else
                   (a.sinv @ rhs.reshape(n, n)
                    @ np.swapaxes(a.sinv.conj(), -1, -2)
                    ).reshape(len(a.s), 1, n * n))
        # in place where it saves a (points x n^2) array: a stack's grid
        # holds thousands of points
        y = a.c - g2
        ratio = a.c / y
        y = np.divide(weights, y, out=y)
        kmat = None if self.kernel == "gmres" else self._assemble(a, ratio)
        b = self._diag(a, y)
        adjoint = None
        if kmat is None:
            pops, adjoint = self._gmres(g2, b, stats, slope,
                                        rhs is self._rhs0)
        else:
            # K p = b and, with slope, the adjoint K^T w = t
            pops = _solve(kmat, b)
            if slope:
                adjoint = _solve(np.swapaxes(kmat, -1, -2),
                                 self._trap_indicator)
        del kmat
        f = self._sandwich(a, pops)
        ratio *= f
        y -= ratio
        del ratio
        dtrap = drates = None
        if slope:
            # db - dK p = diag(S Z S^dag) with Z = 2 y / (c - 2 gamma), y
            # as now
            dtrap = (self._diag(a, 2.0 * y / (a.c - g2)) * adjoint).sum(
                axis=-1)
        if rates:
            drates = (self._rate_terms(a, y + f, g2, adjoint) if slope else
                      self._rate_terms(a, y[:, :1] + f[:, :1], 0.0,
                                       self._trap_indicator))
        xs = _left(a.s, _right(y, a.sdag))
        xs[..., ::n + 1] += pops
        return xs, pops, dtrap, drates

    def _rate_terms(self, a, v, g2, adjoint):
        """d(sum of the trap populations)/d(kappa, mu), shape (cells, k, 2),
        at the points of V = Y + F = S^-1 X S^-dag (v, flattened, shape
        (cells, k, n^2)) and 2*gamma g2, from the adjoint w, K^T w = t:
        w^T diag(S [Q / (c - 2 gamma)] S^dag) with Q = Pi V + V Pi^dag,
        Pi = S^-1 P S, for kappa, and Q = 2 V for mu (see the class
        docstring)."""
        n = self.n
        pi = (a.sinv[:, :, self.tidx] @ a.s[:, self.tidx, :])[:, None]
        vm = v.reshape(v.shape[:-1] + (n, n))
        q = pi @ vm + vm @ np.swapaxes(pi.conj(), -1, -2)
        terms = np.stack([q.reshape(v.shape), 2.0 * v]) / (a.c - g2)
        return np.moveaxis((self._diag(a, terms) * adjoint).sum(axis=-1), 0,
                           -1)

    # The three steps in which the two direct kernels differ: with the
    # maps of _build_maps, or without them.

    def _assemble(self, a, ratio):
        """K at every point, real, shape (cells, k, n, n), from R (ratio,
        flattened, shape (cells, k, n^2)): Re(R @ kmap), or without the
        map K[l, j] = sum_p Re(D[p, lj] T[p, lj]) with
        T = conj(conj R @ D), one matrix product per cell for all its
        rates (see the class docstring); a stack without maps holds one
        cell, so D is its one row's.  T is conjugated in place: a stored
        conj D would be a second n^3 array to fault in for every solver."""
        n = self.n
        shape = ratio.shape[:-1] + (n, n)
        if self.kernel == "maps":
            return _by_row(a, ratio, a.kmap).real.reshape(shape)
        cells = len(a.s)
        t = (ratio.conj().reshape(cells, -1, n) @ a.dmat).reshape(
            cells, -1, n, n * n)
        np.conjugate(t, out=t)
        t *= a.dmat[:, None]
        return t.real.sum(axis=2).reshape(shape)

    def _diag(self, a, y):
        """diag(S Y S^dag), real, at every point of Y (y, flattened, of
        shape (..., cells, k, n^2))."""
        if self.kernel == "maps":
            return _by_row(a, y, a.emap).real
        n = self.n
        ym = y.reshape(y.shape[:-1] + (n, n))
        return ((a.s[:, None] @ ym) * a.s.conj()[:, None]).real.sum(axis=-1)

    def _sandwich(self, a, pops):
        """S^-1 Diag(p) S^-dag, flattened, at every point of the
        populations pops, shape (cells, k, n)."""
        if self.kernel == "maps":
            return _by_row(a, pops, a.fmap)
        n = self.n
        f = ((a.sinv[:, None] * pops[..., None, :])
             @ np.swapaxes(a.sinv.conj(), -1, -2)[:, None])
        return f.reshape(pops.shape[:-1] + (n * n,))

    def _gmres(self, g2, b, stats, slope=False, initial=False):
        """(p, w) for one point of the one cell above DIRECT_MAX_N sites:
        K p = b solved by GMRES and, with slope, the adjoint K^T w = t by
        GMRES from zero, w NaN where it did not converge; w None without
        slope.  At gamma = 0, K = I: p = b and w = t.  Every solve runs
        in real arithmetic (see the class docstring).  `initial` (the
        initial site's right-hand side) only picks the start: the solver's
        warm start (_warm, written by _batch), else zero.  stats collects
        the info flag of the K p = b solve and the matvecs of both."""
        n = self.n
        if g2 == 0.0:
            return b, self._trap_indicator if slope else None
        pops, stats["info"], count = _restarted_gmres(
            self._population_matvec(g2), b.reshape(n),
            self._warm if initial else None, self.GMRES_RESTART,
            self.GMRES_MAXITER)
        stats["matvecs"] += count
        pops = pops.reshape(b.shape)
        if not slope:
            return pops, None
        adjoint, info, count = _restarted_gmres(
            self._population_matvec(g2, True), self._trap_indicator,
            None, self.GMRES_RESTART, self.GMRES_MAXITER)
        stats["matvecs"] += count
        return pops, (adjoint if info == 0 else np.full(n, math.nan)
                      ).reshape(b.shape)

    def _population_matvec(self, g2, transpose=False):
        """p -> (I + 2*gamma*M) p for a real vector p and cell 0 of a
        solver without maps, in the cancellation-free form
        diag(S [(S^-1 Diag(p) S^-dag) o R] S^dag) that _sandwich and _diag
        apply, g2 = 2*gamma; with transpose, its transpose, the same form
        with S^-T and S^T in place of S and S^-1:
        w -> diag(S^-T [(S^T Diag(w) conj S) o R] conj S^-1).

        The operator is real, and for a real p the sum over the
        eigenvalues halves: under the sublattice symmetry the eigenvalues
        with negative real part are the partners -conj(lam) of those with
        positive real part, and their terms are the conjugates of their
        partners' terms.  So the result is the real part of the sum over
        the eigenvalues with real part >= 0 alone, those > 0 counted twice
        (every eigenvalue once on an odd ring, which has no colouring):
        two products, n/2 x n by n x n and n x n/2 by n/2 x n, half the
        flops of the full ones.  Only R depends on gamma, and only its
        kept rows are computed; the other operands are built once per
        solver and direction (_matvec_operands)."""
        left, right, s_kept, sconj, c_kept, twice = self._matvec_operands(
            transpose)
        ratio = c_kept / (c_kept - g2) * twice

        def matvec(p):
            y = (left * p) @ right
            y *= ratio
            y = s_kept @ y
            y *= sconj
            return y.real.sum(axis=-1)

        return matvec

    def _matvec_operands(self, transpose):
        """The gamma-independent operands of _population_matvec in the
        direction `transpose`, built on first use and kept: the kept rows
        of S^-1, a contiguous S^-dag, the kept columns of S, conj S, the
        kept rows of c and the weights of their terms."""
        if transpose not in self._operands:
            s, sinv = ((self._all.sinv[0].T, self._all.s[0].T) if transpose
                       else (self._all.s[0], self._all.sinv[0]))
            # the eigenvalues whose terms are summed, real part > 0 twice
            # and = 0 (exactly: -i times a real eigenvalue of M) once
            if self._colours is None:
                kept, twice = slice(None), 1.0
            else:
                kept = np.flatnonzero(self._lam.real >= 0.0)
                twice = np.where(self._lam[kept].real > 0.0, 2.0, 1.0)[:, None]
            self._operands[transpose] = (
                sinv[kept], np.ascontiguousarray(sinv.conj().T), s[:, kept],
                s.conj(), self._all.c[0, 0].reshape(self.n, self.n)[kept],
                twice)
        return self._operands[transpose]

    def _branching(self, pops, a):
        """(eta, eta_loss) from the real populations pops, (cells, k, n) or
        one cell's (n,), of the cells of the arrays a."""
        return (a.two_kappa * pops[..., self.tidx].sum(axis=-1),
                a.two_mu * pops.sum(axis=-1))

    def _certify(self, xs, pops, g2, a, rhs, bnorm):
        """(eta, eta_loss, residual, certified) of the answers xs (step 2
        of the point path): the residual of the full generator relative to
        bnorm = |rhs|, certified within RESID_TARGET."""
        r = _generator(xs, g2, a.mh, a.mhd)
        r -= rhs
        r = r.view(float)  # real and imaginary parts, interleaved
        resid = np.sqrt((r * r).sum(axis=-1))
        if bnorm != 1.0:
            resid /= bnorm
        return (*self._branching(pops, a), resid, resid <= RESID_TARGET)

    def _singular(self, k, gamma, message):
        """SingularSystemError of cell k at gamma, with the dark-state hint
        when the cell has mu = 0 (a dark state makes L exactly singular)."""
        if self._two_mu[k, 0] == 0:
            message += ("; with mu = 0 a dark state never decays -- "
                        "evaluate at mu = 1e-8 for the mu -> 0+ limit")
        return SingularSystemError(f"gamma={gamma:g}: {message}")

    def _full_solve(self, a, g2, rhs, bnorm, v, resid, stats, lu=None):
        """(v, residual, lu) with L v = rhs on the one cell of the arrays
        a by the fallback chain, from the answer v of residual resid:
        extended-precision refinement when resid is above RESID_TARGET and
        no sparse LU lu of L is given, kept where its residual is within
        RESID_ACCEPT; else the refined solve by lu, factored here when
        None (RuntimeError where L cannot be).  lu is None where the
        refinement was kept."""
        mh, mhd = (m.astype(np.clongdouble) for m in (a.mh, a.mhd))

        def apply_ld(u):
            return _generator(u.reshape(1, 1, -1), g2, mh, mhd).reshape(-1)

        def solve(r):
            return self._kernel(g2, a, r, stats)[0].reshape(-1)

        if lu is None and resid > RESID_TARGET:
            v, resid = _refine(apply_ld, solve, v, rhs, bnorm)
            if resid <= RESID_ACCEPT:
                return v, resid, None
        if lu is None:
            lu = spla.splu(_sparse_generator(a.mh[0], a.mhd[0], g2).tocsc())
        return (*_refine(apply_ld, lu.solve, lu.solve(rhs), rhs, bnorm), lu)

    def _fall_back(self, k, gamma, x, resid, rhs, bnorm, stats):
        """(eta, eta_loss, residual, X, route, lu) of cell k at gamma from
        the fallback chain (step 3 of the point path, _full_solve), on the
        cell's own arrays, from its rejected answer x (flattened) of
        residual resid, accepted within RESID_ACCEPT; lu as _full_solve
        returns it.  X is complex, and its residual bounds the imaginary
        parts of the populations, which are dropped."""
        a = self._select(slice(k, k + 1))
        try:
            x, resid, lu = self._full_solve(a, 2.0 * gamma, rhs, bnorm, x,
                                            resid, stats)
        except RuntimeError as exc:
            raise self._singular(
                k, gamma, f"sparse fallback failed: {exc}") from exc
        if lu is not None and not resid <= RESID_ACCEPT:
            raise self._singular(
                k, gamma, f"residual {resid:.2e} after sparse fallback")
        eta, eta_loss = self._branching(x[::self.n + 1].real, a)
        route = "direct-eigenbasis" if lu is None else "direct-sparse"
        return eta.item(), eta_loss.item(), resid, x, route, lu

    def _full_slopes(self, k, gamma, x, lu, stats):
        """(d trap/d gamma, d trap/d(kappa, mu)) of cell k at gamma, at its
        certified X (x, flattened), trap the sum of the trap populations,
        from the adjoint of the full generator: L is complex symmetric
        (H^T = H), so the adjoint w solves L w = vec(P), P the trap
        projector, by the fallback chain from zero (sharing the sparse LU
        lu of the point's own fallback), accepted at RESID_ACCEPT, else
        every slope is NaN.  d trap/d gamma = 2 w.x_offdiag,
        d trap/d mu = 2 w.x and d trap/d kappa = w.vec(P X + X P)."""
        n = self.n
        t = np.zeros(n * n, dtype=complex)
        t[self.tidx * (n + 1)] = 1.0
        try:
            w, resid, _ = self._full_solve(
                self._select(slice(k, k + 1)), 2.0 * gamma, t,
                math.sqrt(self.tidx.size), np.zeros_like(t), math.inf, stats,
                lu)
        except RuntimeError:
            resid = math.nan
        if not resid <= RESID_ACCEPT:
            return math.nan, np.full(2, math.nan)
        wx = (w * x).real.reshape(n, n)  # a real sum: w and X Hermitian
        traps = self._trap_indicator
        return 2.0 * (wx.sum() - wx.trace()), np.array(
            [(wx * (traps[:, None] + traps)).sum(), 2.0 * wx.sum()])

    def _batch(self, gammas, a, ids, rhs, bnorm, slope=False, rates=False):
        """The point path for the rates gammas[i, j] of cell ids[i], whose
        arrays are a (see _select): solve, certify, then the fallback chain
        for every rejected point; a point failing it records its error in
        `failed`.  Returns (eta, eta_loss, residual, (i, j, route) of each
        redone point, route None where its cell failed, slope, rate
        slopes): slope is d eta/d log gamma at every point, or None
        without `slope`; rate slopes are d eta/d log(kappa, mu) on the
        points of _kernel's drates, or None without `rates`.
        A redone point, and one whose GMRES adjoint did not converge, gets
        them from _full_slopes.  On the GMRES kernel, a point of the
        initial site's right-hand side leaves its final populations as the
        next point's warm start."""
        n = self.n
        stats = {"info": None, "matvecs": 0}
        g2 = 2.0 * (gammas.item() if gammas.size == 1 else gammas[..., None])
        with np.errstate(divide="ignore", invalid="ignore"):
            xs, pops, dtrap, drates = self._kernel(g2, a, rhs, stats, slope,
                                                   rates)
            eta, eta_loss, resid, certified = self._certify(
                xs, pops, g2, a, rhs, bnorm)
        redone, to_slope = [], []
        for i, j in [] if certified.all() else np.argwhere(~certified):
            k, gamma = int(ids[i]), float(gammas[i, j])
            route = None
            if k not in self.failed:
                try:
                    (eta[i, j], eta_loss[i, j], resid[i, j], x, route,
                     lu) = self._fall_back(k, gamma, xs[i, j], resid[i, j],
                                           rhs, bnorm, stats)
                    pops[i, j] = x[::n + 1].real
                    self._record(gamma, route, stats)
                    to_slope.append((i, j, x, lu))
                except SingularSystemError as err:
                    self.failed[k] = err
            redone.append((int(i), int(j), route))
        if self.kernel == "gmres" and rhs is self._rhs0:
            # the one write of the warm start, at the point's final
            # populations: the gamma = 0 point never reaches _gmres
            self._warm = pops[0, -1]
        if slope and self.kernel == "gmres":  # an adjoint not converged
            to_slope += [(i, j, xs[i, j], None)
                         for i, j in np.argwhere(certified & np.isnan(dtrap))]
        for i, j, x, lu in to_slope:
            # only where the call asked for slopes
            if slope or (rates and j < drates.shape[1]):
                dt, dr = self._full_slopes(int(ids[i]), float(gammas[i, j]),
                                           x, lu, stats)
                if slope:
                    dtrap[i, j] = dt
                if rates:
                    drates[i, j] = dr
        slopes = gammas * a.two_kappa * dtrap if slope else None
        rslopes = None
        if rates:
            # d eta/d log kappa = eta + kappa 2 kappa d trap/d kappa and
            # d eta/d log mu = mu 2 kappa d trap/d mu
            rslopes = (0.5 * a.two_kappa[..., None] * drates
                       * np.stack([a.two_kappa, a.two_mu], axis=-1))
            rslopes[..., 0] += eta[:, :rslopes.shape[1]]
        if gammas.size == 1 and not redone:  # None: its cell had failed
            self._record(gammas.item(), None if int(ids[0]) in self.failed
                         else "direct-eigenbasis", stats)
        self.matvecs += stats["matvecs"]
        return eta, eta_loss, resid, redone, slopes, rslopes

    def _record(self, gamma, route, stats):
        """Leave the DEBUG record of a point solved alone."""
        _log.debug("eigenbasis solve n=%d gamma=%g gmres_info=%s matvecs=%d "
                   "route=%s kernel=%s", self.n, gamma, stats["info"],
                   stats["matvecs"], route, self.kernel)

    def _points(self, gammas, ids, rho0=None, slope=False, rates=False):
        """The one point path: (eta, eta_loss, residual, (i, j, route) of
        the redone points, slopes, rate slopes) at the rates gammas[i, j]
        of cell ids[i] (an index array) from rho0 (the initial site when
        None, else as_density_vec's vector), NaN, and route None, for a
        cell failed by the end of the call; the other points are counted
        in `routes`.  The populations stay in _batch (the warm start).
        slopes holds d eta/d log gamma with `slope`, else it is None.  Rate
        slopes hold d eta/d log(kappa, mu) with `rates`, else None: at
        every point with `slope`, shape (rows, k, 2), and without it at
        gammas[:, 0], which must be 0, in rate slopes[:, 0].  The points
        form one _batch per chunk of at most BATCH_BYTES, at 16 n^2 bytes a
        point up to MAPS_MAX_N sites and 16 n^3 above, or of one point on
        the GMRES kernel (warm-started as the class docstring says)."""
        every = ids is self._ids or ids.size == self.cells and (
            self.cells == 1 or (ids == self._ids).all())
        rhs, bnorm = ((self._rhs0, 1.0) if rho0 is None
                      else (-rho0, float(np.linalg.norm(rho0))))
        rows, k = gammas.shape
        # a chunk holds all rates of as many rows as fit, so that a cell's
        # matrix products cover its whole row, or as many rates of one row
        # as fit (chunks of a few rates of every row multiply the products:
        # plane-search rounds ran 5 % slower, docs/decisions.md); GMRES
        # solves one point at a time
        fit = 1 if self.kernel == "gmres" else max(1, BATCH_BYTES // (
            16 * self.n ** (2 if self.kernel == "maps" else 3)))
        dr, dk = max(1, fit // k), min(k, fit)
        parts, redone = [], []
        for r in range(0, rows, dr):
            at = slice(r, r + dr)
            a = (self._all if every and dr >= rows else
                 self._select(at if every else ids[at]))
            for j in range(0, k, dk):
                part = self._batch(  # rates without slope: at 0
                    gammas[at, j:j + dk], a, ids[at], rhs, bnorm, slope,
                    rates and (slope or j == 0))
                redone += [(i + r, c + j, route) for i, c, route in part[3]]
                parts.append(part[:3] + part[4:])
        # the chunks hold the points in row-major order
        eta, eta_loss, resid, slopes, rslopes = (
            parts[0] if len(parts) == 1 else
            [None if v[0] is None else np.concatenate(
                [u.reshape((-1,) + u.shape[2:]) for u in v if u is not None]
            ).reshape((rows, -1) + v[0].shape[2:]) for v in zip(*parts)])
        kept = rows * k  # the points of cells that have not failed
        if self.failed:
            lost = np.isin(ids, list(self.failed))
            eta[lost] = eta_loss[lost] = math.nan
            for v in (slopes, rslopes):
                if v is not None:
                    v[lost] = math.nan
            redone = [(i, j, None if lost[i] else route)
                      for i, j, route in redone]
            kept -= k * int(lost.sum())
        routes = [route for *_, route in redone if route is not None]
        self.routes.update(routes)
        if kept > len(routes):
            self.routes["direct-eigenbasis"] += kept - len(routes)
        return eta, eta_loss, resid, redone, slopes, rslopes

    def _report(self, out):
        """(eta, eta_loss, residual, methods) of row 0, cell 0's, of the
        _points result out; every method is None where cell 0 failed."""
        eta, eta_loss, resid, redone = out[:4]
        methods = [None if 0 in self.failed else "direct-eigenbasis"
                   ] * eta.shape[1]
        for i, j, route in redone:
            if i == 0:
                methods[j] = route
        return eta[0], eta_loss[0], resid[0], methods

    def efficiency(self, gamma, rho0=None):
        """Returns (eta, eta_loss, residual, method) of one solve of cell 0
        through the point path, from rho0 (the initial site when None; else
        any input model.as_density_vec takes, checked by it, so
        ValidationError unless it is a density matrix of trace at most 1):
        what efficiencies gives for that rate."""
        if rho0 is not None:
            rho0 = as_density_vec(rho0, self.n)
        eta, eta_loss, resid, (method,) = self._report(self._points(
            np.array([[_rate("gamma", gamma)]], dtype=float), self._ids[:1],
            rho0))
        return float(eta[0]), float(eta_loss[0]), float(resid[0]), method

    def efficiencies(self, gammas):
        """(eta, eta_loss, residual, methods) of cell 0 at every rate of
        the 1-d array gammas: three arrays of shape (G,) and a list of G
        methods, each as efficiency gives it for that rate alone.  The grid
        is one call of the point path, solved as eta_grid solves it."""
        return self._report(self._grid(gammas))

    def _grid(self, gammas, rates=False):
        """_points at every rate of the 1-d sequence gammas, checked here,
        for every cell; a direct kernel leaves one DEBUG record."""
        gammas = np.asarray(_rate("gamma", gammas, True), dtype=float)
        if gammas.ndim != 1 or gammas.size == 0:
            raise ValidationError(
                "gamma grid must be a non-empty 1-d sequence")
        out = self._points(np.broadcast_to(gammas, (self.cells, gammas.size)),
                           self._ids, rates=rates)
        if self.kernel != "gmres":
            _log.debug(
                "batched solve n=%d points=%d max_residual=%.2e redone=%d "
                "kernel=%s", self.n, out[0].size, out[2].max(), len(out[3]),
                self.kernel)
        return out

    def eta_grid(self, gammas, _rates=False):
        """eta for the initial site at every rate of the 1-d array gammas,
        for every cell: shape (cells, G), by the point path (see the class
        docstring); a direct kernel leaves one DEBUG record per call.  With
        _rates, for a grid that starts at gamma = 0, the pair (eta,
        d eta/d log(kappa, mu) at gamma = 0), the latter of shape
        (cells, 2), from the closed form at K = I: no extra solve."""
        etas, _, _, _, _, rates = self._grid(gammas, _rates)
        return (etas, rates[:, 0]) if _rates else etas

    def eta(self, gamma, cells=None, slope=False, _rates=False):
        """eta for the initial site at the rates gamma, in rows of one or
        more rates per cell of the index array `cells` (every cell, in
        order, when None); with `slope`, the pair (eta, d eta/d log gamma);
        with _rates, the triple (eta, d eta/d log gamma,
        d eta/d log(kappa, mu)), the last with a trailing axis of 2.  Each
        has gamma's shape, and is a number where gamma is one.  All points
        go through the point path in one call (on the GMRES kernel, each
        initial-site point warm-started as the class docstring says).
        Every certified eta has its slopes, from the kernel or, where the
        fallback chain redid the point, from the full generator; a slope
        is NaN where the cell failed.  Each is a hint for a search, never
        a reported number."""
        slope = slope or _rates
        gamma = np.asarray(_rate("gamma", gamma, True), dtype=float)
        try:  # integer arithmetic only: no reduction on a good call
            ids = self._ids if cells is None else self._ids[cells]
            good = ids.ndim == 1 and gamma.size and ids.size and (
                gamma.size % ids.size == 0)
        except IndexError:
            good = False
        if not good:
            raise ValidationError(
                f"gamma must hold one non-empty row of rates per cell of "
                f"cells={cells!r}, an index array of the {self.cells} cells")
        out = self._points(gamma.reshape(ids.size, -1), ids, slope=slope,
                           rates=_rates)
        got = [v.reshape(gamma.shape + v.shape[2:]) for v in out[:1] + (
            out[4:6] if _rates else out[4:5] if slope else ())]
        got = [v.item() if v.ndim == 0 else v for v in got]
        return got[0] if len(got) == 1 else tuple(got)
