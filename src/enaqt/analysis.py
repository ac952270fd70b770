"""ENAQT quantification on top of the steady-integral solvers.

ENAQT (environment-assisted quantum transport) is measured as
xi = eta_max - eta0: the gain in trapping efficiency at the optimal
dephasing rate over the coherent (gamma = 0) baseline.  This module
optimizes eta over gamma, searches the (kappa, mu) plane for the maximum
attainable xi, evaluates the closed-form three-site efficiency and its
no-ENAQT sign condition, the fully-dephased and coherent long-time
estimates, inversion-symmetry decompositions, ring formulas, and the
truncated realization of the half-infinite chain.

Site labels in this module are 1-based (sites 1..N, the trap at tau, the
mirror of m at N+1-m); everything below translates to the 0-based model
layer.  Dephasing optimization searches gamma in [0, 1e4]: a 64-point log
grid plus the gamma = 0 endpoint, refined by golden section in log space.

Every dephasing optimization, whether of one system (optimize_dephasing),
of the cells of a plane sweep, of max_enaqt's ranking grid and seeds, or
of a semi-infinite truncation, runs one path (_scan_refine) over a cell
stack, an EigenbasisSteadySolver built for up to solver._stack_size(n)
(kappa, mu) cells of one geometry: one batched scan of the gamma grid for
all cells, then one elementwise golden-section search (_golden, the only
maximizer here) that refines every cell in lockstep, with one batched
solve per step.  How many cells a stack holds is the solver's choice.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EnaqtError, TruncationError, ValidationError
from .model import (
    SystemSpec,
    Topology,
    semi_infinite_spec,
    state_density,
)
from .solver import (
    EigenbasisSteadySolver,
    _stack_size,
    efficiency_direct,
    efficiency_gamma_grid,
)

__all__ = [
    "EnaqtResult",
    "InfiniteChainResult",
    "MaxEnaqt",
    "PlaneMap",
    "AveragePopulation",
    "efficiency_curve",
    "optimize_dephasing",
    "max_enaqt",
    "eta3_closed_form",
    "no_enaqt_region",
    "dephased_efficiency_estimate",
    "chain_amplitude",
    "average_population",
    "enaqt_estimate",
    "symmetry_split",
    "circle_max_enaqt",
    "infinite_chain_enaqt",
    "plane_sweep",
]

GAMMA_BOUNDS = (1e-4, 1e4)
RATE_BOUNDS = (1e-4, 1e2)
MU_CUTOFF_INFINITE = 0.1
TRUNCATION_TOL = 1e-4
SITE_CAP_INFINITE = 4096
GRID_POINTS = 64     # default log-spaced gamma grid of an optimization
REFINE_TOL = 1e-4    # default golden bracket, in log gamma

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class EnaqtResult:
    """Dephasing-optimization summary.

    eta0 is the efficiency at gamma = 0, eta_max the best over gamma,
    gamma_opt the maximizer (0 when no dephasing helps), and
    xi = eta_max - eta0 >= 0 the ENAQT measure.
    """

    eta0: float
    eta_max: float
    gamma_opt: float
    xi: float


@dataclass(frozen=True)
class InfiniteChainResult(EnaqtResult):
    """EnaqtResult for the truncated half-infinite chain, plus the
    truncation sizes that certified it.  method joins the solve routes
    used at the reported size ("direct-eigenbasis", "direct-sparse"), or
    is "trivial" when kappa = 0."""

    offset: int
    left: int
    right: int
    n_total: int
    truncation_delta: float
    method: str


class MaxEnaqt(NamedTuple):
    """Best (xi, kappa, mu) found by the plane search."""

    xi: float
    kappa: float
    mu: float


@dataclass
class PlaneMap:
    """Per-cell optimization results over a (kappa, mu) grid.

    Arrays are indexed [i, j] for (kappa_grid[i], mu_grid[j]).  Cells whose
    solve failed hold NaN and an entry in errors keyed by (i, j).
    """

    kappa_grid: np.ndarray
    mu_grid: np.ndarray
    eta0: np.ndarray
    xi: np.ndarray
    gamma_opt: np.ndarray
    errors: dict


@dataclass(frozen=True)
class AveragePopulation:
    """Infinite-time average population of site l for a start at site m."""

    l: int
    m: int
    value: float

    def __float__(self):
        return self.value


def _site0(label, n: int, what: str) -> int:
    try:
        s = int(label)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be an integer, got {label!r}")
    if not 1 <= s <= n:
        raise ValidationError(f"{what} {s} outside 1..{n}")
    return s - 1


def _check_positive_rates(kappa, mu):
    if not (kappa > 0 and mu > 0):
        raise ValidationError(
            f"kappa and mu must be > 0, got kappa={kappa!r}, mu={mu!r}")


def _check_search(grid_points, refine_tol=None, least_points=1):
    """ValidationError unless grid_points is an integer >= least_points and
    refine_tol (when given) is finite and > 0."""
    if not (isinstance(grid_points, (int, np.integer))
            and grid_points >= least_points):
        raise ValidationError(
            f"grid_points={grid_points!r} must be an integer >= "
            f"{least_points}")
    if refine_tol is not None and not (
            isinstance(refine_tol, (int, float)) and math.isfinite(refine_tol)
            and refine_tol > 0):
        raise ValidationError(
            f"refine_tol={refine_tol!r} must be finite and > 0")


def _exp(x):
    """exp of every element of x by the C library's math.exp, which
    numpy's vectorized exp does not reproduce bit for bit; a searched
    optimum then does not depend on how many elements were searched at
    once."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.exp, x.flat), float, x.size).reshape(x.shape)


def _log(x):
    """log of every element of x by math.log (see _exp)."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.log, x.flat), float, x.size).reshape(x.shape)


def _golden(f, a, b, tol):
    """Golden-section search for a maximum on each bracket [a[i], b[i]].

    f(x, idx) returns the values at the points x of the elements of the
    index array idx: x[r] belongs to element idx[r], and the first call
    passes both interior points of every element, as x of shape
    (len(idx), 2).  Each element shrinks its bracket until it is at most
    tol[i] wide (tol may be one number), keeping the side of the larger
    of its two interior values (ties keep the left), and yields its
    midpoint.  An element also stops when a step leaves its width
    unchanged, which happens only once the bracket is a few ulps wide.
    The live elements step in lockstep, with one call of f per step.
    """
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    tol = [float(v) for v in np.broadcast_to(tol, len(a))]
    c = [bi - _INVPHI * (bi - ai) for ai, bi in zip(a, b)]
    d = [ai + _INVPHI * (bi - ai) for ai, bi in zip(a, b)]
    idx = np.arange(len(a))
    fc, fd = f(np.array([c, d]).T, idx).T.tolist()
    live = [i for i in range(len(a)) if b[i] - a[i] > tol[i]]
    while live:
        if len(live) < idx.size:
            idx = np.array(live)
        steps = []  # (element, went left, width before the step)
        for i in live:
            steps.append((i, fc[i] >= fd[i], b[i] - a[i]))
            if steps[-1][1]:
                b[i], d[i], fd[i] = d[i], c[i], fc[i]
                c[i] = b[i] - _INVPHI * (b[i] - a[i])
            else:
                a[i], c[i], fc[i] = c[i], d[i], fd[i]
                d[i] = a[i] + _INVPHI * (b[i] - a[i])
        values = f(np.array([c[i] if on_left else d[i]
                             for i, on_left, _ in steps]), idx).tolist()
        for (i, on_left, _), value in zip(steps, values):
            if on_left:
                fc[i] = value
            else:
                fd[i] = value
        live = [i for i, _, width in steps if tol[i] < b[i] - a[i] < width]
    return np.array([(ai + bi) / 2 for ai, bi in zip(a, b)])


def _scan_refine(solver, grid_points, refine_tol) -> list:
    """optimize_dephasing for every cell of the stack `solver`: one
    batched scan of the grid, then one golden refinement of all cells
    whose best grid point is not gamma = 0, in lockstep.

    gammas[0] is the no-dephasing endpoint; a cell's refinement runs in
    log gamma over the neighbours of its best grid point.  Returns one
    entry per cell: its EnaqtResult, or the SingularSystemError of a solve
    that failed.  The callers build their stacks in cells of
    solver._stack_size(n), which knows the memory of a cell.
    """
    gammas = np.concatenate([[0.0], np.geomspace(*GAMMA_BOUNDS, grid_points)])
    etas = efficiency_gamma_grid(solver.specs[0], gammas, solver=solver)
    eta0 = etas[:, 0]
    results = [EnaqtResult(float(e), float(e), 0.0, 0.0) for e in eta0]
    best = np.argmax(etas, axis=1)
    go = np.flatnonzero(best > 0)
    if go.size:
        last = gammas.size - 1
        x = _golden(lambda x, sel: solver.eta(_exp(x), go[sel]),
                    _log(gammas[np.maximum(best[go] - 1, 1)]),
                    _log(gammas[np.minimum(best[go] + 1, last)]), refine_tol)
        g_best = _exp(x)
        for k, g, e in zip(go, g_best, solver.eta(g_best, go)):
            if e > eta0[k]:
                results[k] = EnaqtResult(float(eta0[k]), float(e), float(g),
                                         float(e - eta0[k]))
    return [solver.failed.get(k, res) for k, res in enumerate(results)]


def _optimize_cells(specs, grid_points=GRID_POINTS,
                    refine_tol=REFINE_TOL) -> list:
    """_scan_refine over specs (one geometry, any rates) in stacks of
    _stack_size cells; one entry per spec, in order."""
    if not specs:
        return []
    size = _stack_size(specs[0].n)
    return [res for i in range(0, len(specs), size)
            for res in _scan_refine(EigenbasisSteadySolver(specs[i:i + size]),
                                    grid_points, refine_tol)]


def _raised(result):
    """result, raised instead when it is an error."""
    if isinstance(result, EnaqtError):
        raise result
    return result


def efficiency_curve(spec: SystemSpec, gamma_grid) -> list:
    """eta evaluated at each dephasing rate; returns [(gamma, eta), ...].

    spec's own gamma field is ignored; the whole grid goes through one
    EigenbasisSteadySolver (efficiency_gamma_grid), and every value is
    certified by its own full-generator residual.
    """
    gammas = np.asarray(list(gamma_grid), dtype=float)
    etas = efficiency_gamma_grid(spec, gammas)
    return [(float(g), float(e)) for g, e in zip(gammas, etas)]


def optimize_dephasing(spec: SystemSpec, grid_points: int = GRID_POINTS,
                       refine_tol: float = REFINE_TOL) -> EnaqtResult:
    """Maximize eta over gamma in [0, 1e4] for fixed (kappa, mu).

    The gamma = 0 endpoint is always evaluated with the grid of
    grid_points log-spaced rates; when no interior point beats it the
    result reports gamma_opt = 0 and xi = 0.  Otherwise a golden-section
    search in log gamma between the neighbours of the best grid point,
    to a bracket of refine_tol, gives gamma_opt.  spec's own gamma field
    is ignored.  The system is a cell stack of one (see the module
    docstring): one eigendecomposition of H serves the endpoint, the grid
    (one batched solve for small systems) and the refinement, whose steps
    are single LAPACK solves.

    Raises ValidationError for rates that are not > 0, grid_points < 1 or
    a refine_tol that is not finite and > 0, and SingularSystemError,
    with its gamma named, for a solve that fails its certification.
    """
    _check_positive_rates(spec.kappa, spec.mu)
    _check_search(grid_points, refine_tol)
    return _raised(_optimize_cells([spec], grid_points, refine_tol)[0])


def max_enaqt(topology, n: int, trap_site: int, initial_site: int,
              grid_points: int = 13, sweeps: int = 3,
              starts: int = 4) -> MaxEnaqt:
    """Maximum xi over the (kappa, mu) plane for one geometry.

    Scans a grid_points x grid_points log grid over [1e-4, 1e2]^2, then
    refines by coordinate golden-section sweeps of shrinking span.  The
    landscape can hold several local maxima (a dephasing-peak basin and
    a large-gamma plateau basin, sometimes more), so the sweeps restart
    from up to `starts` well-separated top grid cells.  Every candidate
    is re-evaluated with the full optimizer, so the reported xi carries
    the production solve's accuracy; kappa and mu are resolved to about
    the final sweep span.

    The ranking grid is optimized in cell stacks (a coarse 32-point gamma
    grid and a 1e-3 golden tolerance), and the seeds refine in lockstep:
    each step of their kappa (or mu) sweeps evaluates one cell per seed
    as one stack, as do the final optimizations.

    Sites are 1-based.  Raises ValidationError for grid_points < 2,
    sweeps < 0 or starts < 1.
    """
    topology = Topology(topology)
    if topology is Topology.SEMI_INFINITE:
        raise ValidationError(
            "use infinite_chain_enaqt for the semi-infinite geometry")
    trap0 = _site0(trap_site, n, "trap_site")
    init0 = _site0(initial_site, n, "initial_site")
    if trap0 == init0:
        raise ValidationError("trap and initial sites must differ")
    _check_search(grid_points, least_points=2)
    if not (isinstance(sweeps, int) and sweeps >= 0):
        raise ValidationError(f"sweeps={sweeps!r} must be an integer >= 0")
    if starts < 1:
        raise ValidationError("starts must be at least 1")
    spec0 = SystemSpec(topology, n, (trap0,), init0,
                       kappa=1.0, mu=1.0, gamma=0.0)

    def optimized(kappas, mus, *search):
        # one result per broadcast (kappa, mu) pair, in row-major order
        kappas, mus = np.broadcast_arrays(kappas, mus)
        return [_raised(res) for res in _optimize_cells(
            [spec0.with_rates(kappa=kv, mu=mv)
             for kv, mv in zip(kappas.flat, mus.flat)], *search)]

    def xi(kappas, mus):
        # coarse xi for ranking: 32-point grid, 1e-3 golden tolerance
        shape = np.broadcast_shapes(np.shape(kappas), np.shape(mus))
        return np.array([res.xi for res in optimized(kappas, mus, 32, 1e-3)]
                        ).reshape(shape)

    grid = np.geomspace(*RATE_BOUNDS, grid_points)
    ranked = xi(grid[:, None], grid[None, :])
    cells = sorted(((float(ranked[i, j]), i, j)
                    for i in range(grid_points) for j in range(grid_points)),
                   reverse=True)

    # well-separated seeds: skip any cell adjacent to a better kept one
    seeds = []
    for x, i, j in cells:
        if all(max(abs(i - i0), abs(j - j0)) > 1 for _, i0, j0 in seeds):
            seeds.append((x, i, j))
        if len(seeds) == starts:
            break

    lo_log, hi_log = math.log(RATE_BOUNDS[0]), math.log(RATE_BOUNDS[1])
    kk = grid[[i for _, i, _ in seeds]]
    mm = grid[[j for _, _, j in seeds]]
    step = math.log(grid[1] / grid[0])
    for _ in range(sweeps):
        for axis in (0, 1):
            def val(x, sel):
                # x holds one row of points per live seed sel
                v = _exp(np.clip(x, lo_log, hi_log))
                fixed = (mm if axis == 0 else kk)[sel].reshape(
                    (-1,) + (1,) * (v.ndim - 1))
                return xi(v, fixed) if axis == 0 else xi(fixed, v)

            center = _log(kk if axis == 0 else mm)
            x = _golden(val, center - step, center + step, 1e-3)
            if axis == 0:
                kk = _exp(np.clip(x, lo_log, hi_log))
            else:
                mm = _exp(np.clip(x, lo_log, hi_log))
        step *= 0.35

    best = None
    for final, kv, mv in zip(optimized(kk, mm), kk, mm):
        if best is None or final.xi > best[0]:
            best = (final.xi, float(kv), float(mv))
    return MaxEnaqt(*best)


def eta3_closed_form(gamma: float, kappa: float, mu: float) -> float:
    """Efficiency of the three-site chain (trap on an end, start adjacent).

    Rational in gamma with polynomial coefficients in (kappa, mu); agrees
    with efficiency_direct to solver precision.  The denominator vanishes
    only at kappa = mu = gamma = 0, where the efficiency is undefined.
    """
    for name, val in (("gamma", gamma), ("kappa", kappa), ("mu", mu)):
        if not (math.isfinite(val) and val >= 0):
            raise ValidationError(f"{name}={val!r} must be finite and >= 0")
    k, m, g = kappa, mu, gamma
    a2 = 4 * k * m
    a1 = k * (2 + 2 * k * m + 8 * m**2)
    a0 = k * (2 * k * m**2 + k + 4 * m**3 + 2 * m)
    b3 = 8 * m**2 * (k + m)
    b2 = 4 * m * (2 * k**2 * m + k * (8 * m**2 + 3) + 6 * m**3 + 4 * m)
    b1 = (2 * k**3 * m**2 + 2 * k**2 * m * (9 * m**2 + 5)
          + 2 * k * (20 * m**4 + 20 * m**2 + 1)
          + 6 * (4 * m**5 + 6 * m**3 + m))
    b0 = (2 * k**3 * (m**3 + m) + k**2 * (10 * m**4 + 13 * m**2 + 1)
          + k * m * (16 * m**4 + 29 * m**2 + 6)
          + 4 * m**2 * (2 * m**4 + 5 * m**2 + 2))
    den = ((b3 * g + b2) * g + b1) * g + b0
    if den == 0:
        raise ValidationError(
            "efficiency undefined at kappa = mu = gamma = 0")
    num = (a2 * g + a1) * g + a0
    return num / den


def no_enaqt_region(kappa: float, mu: float) -> bool:
    """Whether dephasing cannot help the three-site end-trap geometry.

    Evaluates a degree-7 polynomial in (kappa, mu) whose sign separates
    monotone-decreasing eta(gamma) from curves with an interior maximum.
    Returns True (no ENAQT) when the polynomial is positive; the
    convention is fixed by a dense gamma-scan oracle across the
    [1e-4, 1e2]^2 plane.
    """
    for name, val in (("kappa", kappa), ("mu", mu)):
        if not (math.isfinite(val) and val >= 0):
            raise ValidationError(f"{name}={val!r} must be finite and >= 0")
    k, m = kappa, mu
    poly = (-k**4 * m + 4 * k**3 * m**4 - 2 * k**3 * m**2 + 2 * k**3
            + k**2 * (20 * m**4 + 7 * m**2 + 9) * m
            + 32 * k * m**6 + 16 * k * m**4 + 7 * k * m**2 - k
            + 16 * m**7 + 8 * m**5 - 4 * m**3 - 2 * m)
    return bool(poly > 0)


def dephased_efficiency_estimate(n: int, kappa: float, mu: float) -> float:
    """Strong-dephasing efficiency 1/(1 + N*mu/kappa).

    Valid once dephasing has mixed the state across all N sites, so each
    site holds 1/N of the surviving population.
    """
    if not isinstance(n, int) or n < 2:
        raise ValidationError(f"n={n!r} must be an integer >= 2")
    _check_positive_rates(kappa, mu)
    return 1.0 / (1.0 + n * mu / kappa)


def chain_amplitude(n: int, l: int, m: int, t):
    """Coherent amplitude U_lm(t) on the bare open chain (1-based sites).

    Eigenstate sum with u_j(k) = sqrt(2/(N+1)) sin(pi*j*k/(N+1)) and
    lambda_k = 2 cos(pi*k/(N+1)).  t may be a scalar or an array.
    """
    _site0(l, n, "l")
    _site0(m, n, "m")
    k = np.arange(1, n + 1)
    u_l = np.sin(np.pi * l * k / (n + 1))
    u_m = np.sin(np.pi * m * k / (n + 1))
    lam = 2.0 * np.cos(np.pi * k / (n + 1))
    t_arr = np.asarray(t, dtype=float)
    phases = np.exp(-1j * t_arr[..., None] * lam)
    out = (2.0 / (n + 1)) * (phases * (u_l * u_m)).sum(axis=-1)
    return complex(out) if t_arr.ndim == 0 else out


def average_population(topology, n: int, l: int, m: int) -> AveragePopulation:
    """Infinite-time-averaged population of site l for a particle started
    at site m, on the bare (lossless, trapless) geometry.  1-based sites.

    Chain: (1/(N+1)) (1 + d_lm/2 + d_{l,N+1-m}/2).  Ring: flat 1/N plus
    enhancements on the start site and, for even N, its antipode.
    """
    topology = Topology(topology)
    _site0(l, n, "l")
    _site0(m, n, "m")
    if topology is Topology.CHAIN:
        value = (1.0 + 0.5 * (l == m) + 0.5 * (l == n + 1 - m)) / (n + 1)
    elif topology is Topology.RING:
        if n % 2:
            value = (n * (1.0 + (l == m)) - 1.0) / n**2
        else:
            opposite = (l - m - n // 2) % n == 0
            value = (n * (1.0 + (l == m) + opposite) - 2.0) / n**2
    else:
        raise ValidationError(
            "average population is defined for chain and ring only")
    return AveragePopulation(l=l, m=m, value=float(value))


def enaqt_estimate(topology, n: int, kappa: float, mu: float,
                   trap: int, init: int) -> float:
    """Small-attenuation ENAQT estimate from long-time average populations.

    Zero in the mirror (chain) and antipodal (ring) configurations, where
    coherent refocusing beats the dephased average; otherwise the
    difference of the dephased and coherent efficiency estimates, which
    depends only on mu/kappa.  1-based sites.
    """
    topology = Topology(topology)
    trap0 = _site0(trap, n, "trap")
    init0 = _site0(init, n, "init")
    if trap0 == init0:
        raise ValidationError("trap and init must differ")
    _check_positive_rates(kappa, mu)
    ratio = mu / kappa
    dephased = 1.0 / (1.0 + n * ratio)
    if topology is Topology.CHAIN:
        if init == n + 1 - trap:
            return 0.0
        return dephased - 1.0 / (1.0 + (n + 1) * ratio)
    if topology is Topology.RING:
        if n % 2 == 0 and (init0 - trap0) % n == n // 2:
            return 0.0
        return dephased - 1.0 / (1.0 + n**2 * ratio / (n - 1))
    raise ValidationError(
        "estimate is defined for chain and ring only")


def symmetry_split(spec: SystemSpec) -> tuple:
    """(eta_S, eta_A) for the even and odd combinations of the initial site.

    Requires an odd-N chain with its single trap on the middle site, so the
    generator commutes with inversion.  |S/A> = (|m> +/- |mirror of m>)/sqrt2
    built from spec.initial_site; the odd component never reaches the
    (even) middle site, so eta_A -> 0 as mu -> 0+, and the site-localized
    efficiency equals (eta_S + eta_A)/2 at any gamma.
    """
    if spec.topology is not Topology.CHAIN:
        raise ValidationError("inversion split requires a chain")
    if spec.n % 2 == 0:
        raise ValidationError(
            f"inversion split requires odd N, got {spec.n}")
    mid = (spec.n - 1) // 2
    if spec.trap_sites != (mid,):
        raise ValidationError(
            f"inversion split requires the single trap on the middle site "
            f"{mid} (0-based), got {spec.trap_sites}")
    tau = spec.initial_site
    mirror = spec.n - 1 - tau
    etas = []
    for sign in (1.0, -1.0):
        psi = np.zeros(spec.n, dtype=complex)
        psi[tau] += 1.0
        psi[mirror] += sign
        etas.append(efficiency_direct(spec, rho0=state_density(psi)).eta)
    return etas[0], etas[1]


def circle_max_enaqt(n: int, trap: int, init: int) -> float:
    """Maximum attainable xi on the ring: 0 for antipodal start/trap
    (even N at distance N/2), 1/2 otherwise.  1-based sites."""
    if not isinstance(n, int) or n < 3:
        raise ValidationError(f"ring needs n >= 3, got {n!r}")
    trap0 = _site0(trap, n, "trap")
    init0 = _site0(init, n, "init")
    if trap0 == init0:
        raise ValidationError("trap and init must differ")
    if n % 2 == 0 and (init0 - trap0) % n == n // 2:
        return 0.0
    return 0.5


def infinite_chain_enaqt(kappa: float, mu: float, offset: int = 1,
                         grid_points: int = GRID_POINTS,
                         refine_tol: float = REFINE_TOL
                         ) -> InfiniteChainResult:
    """ENAQT for a particle released next to the trapped half of an
    infinite chain.

    The chain is truncated to left trap sites + offset + right free sites,
    with left = right = ceil(16/mu) initially; both sides are doubled until
    eta changes by less than 1e-4 at gamma in {0, 1}, capped at 4096 total
    sites.  mu >= 0.1 keeps the certified sizes tractable (the support
    grows as 1/mu).  Dephasing is then optimized as in optimize_dephasing,
    on the accepted truncation as a stack of one cell.

    Raises TruncationError (carrying achieved_delta) if the cap is hit
    before convergence, and ValidationError for grid_points < 1 or a
    refine_tol that is not finite and > 0.
    """
    if not (math.isfinite(mu) and mu >= MU_CUTOFF_INFINITE):
        raise ValidationError(
            f"mu={mu!r} below the cutoff {MU_CUTOFF_INFINITE} (truncated "
            "supports scale as 1/mu and are certified only above it)")
    if not (math.isfinite(kappa) and kappa >= 0):
        raise ValidationError(f"kappa={kappa!r} must be finite and >= 0")
    if not isinstance(offset, int) or offset < 1:
        raise ValidationError(f"offset={offset!r} must be an integer >= 1")
    _check_search(grid_points, refine_tol)
    left = right = math.ceil(16.0 / mu)
    if kappa == 0.0:
        # Nothing traps, so eta = 0 for every gamma.
        return InfiniteChainResult(
            0.0, 0.0, 0.0, 0.0, offset=offset, left=left, right=right,
            n_total=left + offset + right, truncation_delta=0.0,
            method="trivial")

    probe_gammas = np.array([0.0, 1.0])

    def truncation(lsize, rsize):
        # one solver per truncation serves both probe rates and, for the
        # accepted truncation, the whole optimization
        return EigenbasisSteadySolver(
            [semi_infinite_spec(kappa, mu, 0.0, offset, lsize, rsize)])

    def probe(solver):
        etas = solver.eta_grid(probe_gammas)[0]
        if solver.failed:
            raise solver.failed[0]
        return etas

    solver = truncation(left, right)
    while True:
        base = probe(solver)
        deltas = [abs(e - b)
                  for sizes in ((2 * left, right), (left, 2 * right))
                  for e, b in zip(probe(truncation(*sizes)), base)]
        delta = max(deltas)
        if delta < TRUNCATION_TOL:
            break
        left *= 2
        right *= 2
        if left + offset + right > SITE_CAP_INFINITE:
            raise TruncationError(
                f"truncation not converged below {TRUNCATION_TOL:g} within "
                f"{SITE_CAP_INFINITE} sites (best delta {delta:.3e})",
                achieved_delta=delta)
        solver = truncation(left, right)

    res = _raised(_scan_refine(solver, grid_points, refine_tol)[0])
    method = "+".join(sorted(solver.routes))
    return InfiniteChainResult(
        res.eta0, res.eta_max, res.gamma_opt, res.xi, offset=offset,
        left=left, right=right, n_total=solver.n, truncation_delta=delta,
        method=method)


def _attempt(fn, *args, **kwargs):
    """fn(*args, **kwargs), or the EnaqtError it raised."""
    try:
        return fn(*args, **kwargs)
    except EnaqtError as exc:
        return exc


def _sweep_batch(task):
    """(eta0, xi, gamma_opt, error) for each cell of one plane-sweep batch;
    module-level so worker pools can pickle it.  Chain and ring cells are
    optimized as cell stacks, semi-infinite cells one by one; a cell whose
    spec or solve raised holds NaN and the error's text."""
    topology, n, trap0, init0, offset, rates = task
    if topology is Topology.SEMI_INFINITE:
        results = [_attempt(infinite_chain_enaqt, kv, mv, offset)
                   for kv, mv in rates]
    else:
        specs = [_attempt(SystemSpec, topology, n, (trap0,), init0,
                          kappa=kv, mu=mv, gamma=0.0) for kv, mv in rates]
        solved = iter(_optimize_cells(
            [s for s in specs if isinstance(s, SystemSpec)]))
        results = [next(solved) if isinstance(s, SystemSpec) else s
                   for s in specs]
    return [(res.eta0, res.xi, res.gamma_opt, None)
            if isinstance(res, EnaqtResult)
            else (math.nan, math.nan, math.nan,
                  f"{type(res).__name__}: {res}")
            for res in results]


def plane_sweep(topology, n=None, trap=None, init=None,
                kappa_grid=None, mu_grid=None, offset: int = 1,
                workers: int | None = None) -> PlaneMap:
    """Optimize dephasing on every cell of a (kappa, mu) grid.

    Defaults to 48-point log grids over [1e-4, 1e2].  The cells, in grid
    order (mu fastest), are cut into batches: chain and ring cells into
    cell stacks of _stack_size(n) cells, each optimized by one batched
    scan and one lockstep golden refinement (see the module docstring),
    and semi-infinite cells one by one, each with its own truncation.
    The batches depend only on the grid and the geometry; with
    workers > 1 they are the tasks of a process pool, and the map is
    identical for any worker count.  Per-cell failures are recorded in
    PlaneMap.errors (keyed (i, j)) with NaN values in the arrays, and are
    not fatal; the other cells of the batch are unaffected.  Grid values
    must be finite, strictly increasing and within the rate bounds
    (ValidationError otherwise).

    For the semi-infinite topology, n/trap/init are ignored (geometry is
    set by offset) and the mu grid must respect the 0.1 cutoff.
    """
    topology = Topology(topology)
    kappa_grid = (np.geomspace(*RATE_BOUNDS, 48) if kappa_grid is None
                  else np.asarray(list(kappa_grid), dtype=float))
    mu_grid = (np.geomspace(*RATE_BOUNDS, 48) if mu_grid is None
               else np.asarray(list(mu_grid), dtype=float))
    for name, grid in (("kappa_grid", kappa_grid), ("mu_grid", mu_grid)):
        if grid.ndim != 1 or grid.size == 0:
            raise ValidationError(f"{name} must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(grid)):
            raise ValidationError(f"{name} must be finite")
        if np.any(np.diff(grid) <= 0):
            raise ValidationError(f"{name} must be strictly increasing")
        lo = (MU_CUTOFF_INFINITE
              if (name == "mu_grid"
                  and topology is Topology.SEMI_INFINITE)
              else RATE_BOUNDS[0])
        if grid[0] < lo * (1 - 1e-12) or grid[-1] > RATE_BOUNDS[1] * (1 + 1e-12):
            raise ValidationError(
                f"{name} must lie within [{lo:g}, {RATE_BOUNDS[1]:g}]")
    if topology is Topology.SEMI_INFINITE:
        if not isinstance(offset, int) or offset < 1:
            raise ValidationError(
                f"offset={offset!r} must be an integer >= 1")
        trap0 = init0 = None
    else:
        trap0 = _site0(trap, n, "trap")
        init0 = _site0(init, n, "init")
        if trap0 == init0:
            raise ValidationError("trap and init must differ")

    cells = [(float(kv), float(mv)) for kv in kappa_grid for mv in mu_grid]
    size = 1 if topology is Topology.SEMI_INFINITE else _stack_size(n)
    tasks = [(topology, n, trap0, init0, offset, cells[i:i + size])
             for i in range(0, len(cells), size)]
    if workers is not None and workers > 1:
        with multiprocessing.Pool(workers) as pool:
            batches = pool.map(_sweep_batch, tasks)
    else:
        batches = [_sweep_batch(t) for t in tasks]
    rows = [row for batch in batches for row in batch]

    shape = (kappa_grid.size, mu_grid.size)
    eta0 = np.empty(shape)
    xi = np.empty(shape)
    gamma_opt = np.empty(shape)
    errors = {}
    for idx, (e0, x, g, err) in enumerate(rows):
        i, j = divmod(idx, mu_grid.size)
        eta0[i, j], xi[i, j], gamma_opt[i, j] = e0, x, g
        if err is not None:
            errors[(i, j)] = err
    return PlaneMap(kappa_grid=kappa_grid, mu_grid=mu_grid, eta0=eta0,
                    xi=xi, gamma_opt=gamma_opt, errors=errors)
