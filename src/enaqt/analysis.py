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
layer.  Dephasing optimization searches gamma in [0, 1e4]: a 16-point log
grid (GRID_POINTS) plus the gamma = 0 endpoint, each grid-local maximum
refined in log space by a safeguarded secant search on the slope
d eta/d log gamma, which the solver returns beside each certified eta.

Every dephasing optimization, whether of one system (optimize_dephasing),
of the cells of a plane sweep, of max_enaqt's ranking grid and seeds, or
of a semi-infinite truncation, runs one path (_scan_refine) over a cell
stack, an EigenbasisSteadySolver built from one geometry spec and the
rate arrays of its cells (no spec per cell), whole kappa rows of them,
each row one eigendecomposition for all its mus: one batched scan of the
gamma grid for all cells, then one elementwise search (_maximize, the
only maximizer here: a secant search on the slope with bisection) that
refines every grid-local maximum of every cell in lockstep, with one
batched solve per step.  The solver gives a slope at every certified
point, on every route.  max_enaqt's kappa and mu sweeps run on _maximize
too: _scan_refine gives their slopes d xi/d log kappa and d xi/d log mu
by the envelope theorem, from the solves it makes anyway, and a seed
whose xi is 0 at both first points of a sweep leaves the lockstep (see
max_enaqt).  How many rows a stack holds is the solver's choice
(solver._stacks): a 16 x 16 plane sweep and max_enaqt's 13 x 13 ranking
grid are each one stack up to 5 sites.
"""

from __future__ import annotations

import logging
import math
import multiprocessing
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EnaqtError, TruncationError, ValidationError
from .model import (
    SystemSpec,
    Topology,
    _check_offset,
    _check_site_count,
    _geometry_spec,
    _rate,
    _site0,
    _topology,
    semi_infinite_spec,
)
from .solver import (
    EigenbasisSteadySolver,
    _stacks,
    efficiency_gamma_grid,
)

__all__ = [
    "EnaqtResult",
    "InfiniteChainResult",
    "MaxEnaqt",
    "PlaneMap",
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
START_SITES = 4      # each side of the first semi-infinite truncation
GRID_POINTS = 16     # log-spaced gamma grid of an optimization
REFINE_TOL = 1e-4    # final bracket of an optimization, in log gamma
PLANE_POINTS = 13    # max_enaqt's ranking grid, points per rate axis
PLANE_SWEEPS = 3     # max_enaqt's coordinate sweeps per seed
PLANE_STARTS = 4     # max_enaqt's seeds

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

_logger = logging.getLogger("enaqt")


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
    truncation sizes that certified it and truncation_delta, the largest
    change of a certified eta when either side or both are doubled.
    method joins the solve routes of the optimization at the reported
    size ("direct-eigenbasis", "direct-sparse"), or is "trivial" when
    kappa = 0."""

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


def _check_positive_rates(kappa, mu):
    """ValidationError unless kappa and mu are rates (model._rate) > 0."""
    if not (_rate("kappa", kappa) > 0 and _rate("mu", mu) > 0):
        raise ValidationError(
            f"kappa and mu must be finite and > 0, got kappa={kappa!r}, "
            f"mu={mu!r}")


def _worker_count(workers=None) -> int:
    """The number of processes that `workers` asks for: 1 when None, else
    an integer >= 1 (ValidationError otherwise)."""
    try:
        count = 1 if workers is None else operator.index(workers)
    except TypeError:
        count = 0
    if count < 1:
        raise ValidationError(f"workers must be >= 1, got {workers!r}")
    return count


def _pool_map(func, tasks, workers=None) -> list:
    """[func(t) for t in tasks], in order: spread over a process pool of
    `workers` processes when workers > 1 (func and the tasks must then
    pickle), else in this process.  workers is checked by _worker_count
    before any task runs."""
    count = _worker_count(workers)
    if count > 1:
        with multiprocessing.Pool(count) as pool:
            return pool.map(func, tasks)
    return [func(t) for t in tasks]


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


class _Secant:
    """One element of _maximize: a safeguarded secant search for a root of
    the slope s = f' in the bracket [a, b], from the values and slopes
    (NaN without) that the first call gave at c and d.

    The first call settles the element (answer set, live False) at the
    midpoint of a bracket no wider than tol, at a point of slope 0, at the
    midpoint where it met a point without a slope (unsloped), or, with
    answer NaN, where f was flat at 0 at both points.  A point of value 0
    without a slope is such a flat zero and shows no direction: an element
    with one runs the search from the sloped point alone, on the side its
    slope points to; its first step probes the end of that side, or, where
    that side leads back to the zero point, bisects toward it.  Otherwise
    the signs at c and d leave the part of [a, b] that holds the maximum.

    A point with s > 0 becomes the left end and one with s < 0 the right
    end, so a maximum stays inside; a point with s = 0 is the answer.
    slo and shi are the slopes at the ends, None at an end of the
    original bracket that was never evaluated, NaN at a flat zero: that
    point becomes the end on the side away from the last sloped point, is
    never probed, and the next step bisects.  A step takes the secant
    through the last two sloped points.  When the secant leaves the
    bracket, the step evaluates the end on that side if it has no slope
    yet (the bracket may be monotone; the end is the answer if f still
    rises toward it) and bisects otherwise.  It also bisects when the
    secant step is not below half the step before last, or when the last
    step was a nudge: a secant that moves less than tol/2 is nudged tol/2
    across the root instead, which collapses the bracket once the root is
    that close.  Points keep tol/2 off the ends.  A point with a NaN
    value, or another point without a slope, ends the element (unsloped).
    The result is the secant root of the final bracket, its midpoint where
    an end has no slope.
    """

    def __init__(self, a, b, c, d, values, slopes, tol):
        self.tol, self.answer, self.live = tol, None, False
        self.bisect, self.bisections, self.unsloped = False, 0, False
        (fc, fd), (sc, sd) = values, slopes
        zc, zd = (f == 0.0 and math.isnan(v) for f, v in ((fc, sc), (fd, sd)))
        if b - a <= tol:
            self.answer = (a + b) / 2
        elif zc and zd:
            self.answer = math.nan
        elif math.isnan(fc + sc) and not zc or math.isnan(fd + sd) and not zd:
            self.answer, self.unsloped = (a + b) / 2, True
        elif sc == 0.0 or sd == 0.0:
            self.answer = c if sc == 0.0 else d
        else:
            if zd:
                bracket = (a, c, None, sc) if sc < 0 else (c, d, sc, math.nan)
                points = [(c, sc)] * 2
            elif zc:
                bracket = (d, b, sd, None) if sd > 0 else (c, d, math.nan, sd)
                points = [(d, sd)] * 2
            elif sc > 0 > sd:
                bracket, points = (c, d, sc, sd), [(c, sc), (d, sd)]
            elif sd > 0 and (sc > 0 or fd > fc):  # the maximum is right of d
                bracket, points = (d, b, sd, None), [(c, sc), (d, sd)]
            else:
                bracket, points = (a, c, None, sc), [(d, sd), (c, sc)]
            self.lo, self.hi, self.slo, self.shi = bracket
            self.points = points  # the last two (x, slope)
            # a secant step must be below half the step before last; the
            # first two may go anywhere in the bracket
            self.steps = [2 * (self.hi - self.lo)] * 2
            self.live = self.hi - self.lo > tol

    def propose(self):
        (x1, s1), (x2, s2) = self.points
        lo, hi, half = self.lo, self.hi, self.tol / 2
        u = x2 - s2 * (x2 - x1) / (s2 - s1) if s2 != s1 else math.nan
        inside = lo < u < hi
        right = s2 > 0 if math.isnan(u) else u >= hi
        self.probe = not inside and (self.shi if right else self.slo) is None
        if self.probe:
            self.u = hi if right else lo
            return self.u
        if not inside or self.bisect or abs(u - x2) >= self.steps[-2] / 2:
            u = (lo + hi) / 2
            self.bisections += 1
            self.bisect = False
        else:
            self.bisect = abs(u - x2) < half  # a nudge
            if self.bisect:
                u = x2 + (half if s2 > 0 else -half)
        self.u = u = min(max(u, lo + half), hi - half)
        self.steps.append(abs(u - x2))
        return u

    def update(self, value, slope):
        u = self.u
        width = self.hi - self.lo
        if math.isnan(value + slope):
            if value != 0.0:  # a failed point, or one without a slope
                self.live, self.unsloped = False, True
                return
            self.bisect = True  # a flat zero
            if u > self.points[1][0]:
                self.hi, self.shi = u, math.nan
            else:
                self.lo, self.slo = u, math.nan
        elif slope == 0.0 or (self.probe and (slope > 0) == (u == self.hi)):
            self.answer, self.live = u, False  # stationary, or an end max
            return
        else:
            if slope > 0:
                self.lo, self.slo = u, slope
            else:
                self.hi, self.shi = u, slope
            self.points = [self.points[1], (u, slope)]
        self.live = self.tol < self.hi - self.lo and (
            self.probe or self.hi - self.lo < width)

    def result(self):
        if self.answer is not None:
            return self.answer
        if (self.slo is None or self.shi is None or self.hi == self.lo
                or math.isnan(self.slo + self.shi)):
            return (self.lo + self.hi) / 2
        return self.lo - self.slo * (self.hi - self.lo) / (self.shi - self.slo)


def _maximize(f, a, b, tol, stats=None):
    """Elementwise maximizer of f on each bracket [a[i], b[i]].

    f(x, idx) returns the pair (values, slopes) at the points x of the
    elements of the index array idx, the slopes being f' (NaN where there
    is none): x[r] belongs to element idx[r], and the first call passes
    the two golden-section points c < d of every element, as x of shape
    (len(idx), 2).  Each element runs a safeguarded secant search on the
    slope (_Secant) from the part of [a, b] that the signs at c and d
    leave, and yields the secant root of its final bracket, or the end
    where f still rises, once the bracket is at most tol[i] wide (tol
    may be one number); a bracket no wider than tol from the start
    yields its midpoint.
    The live elements step in lockstep, one point each and one call of f
    per step; an element also stops when a step leaves its bracket
    unchanged, which happens only once it is a few ulps wide.

    A point of value 0 without a slope is a flat zero (max_enaqt's xi
    where there is no gain): an element whose first two points are both
    flat zeros stops and yields NaN, so that its caller keeps its own
    point, and one that meets a flat zero otherwise bisects toward it
    (see _Secant).  A point with a NaN value (a failed cell), or without
    a slope otherwise, ends its element at its current bracket's result.
    stats, a dict, receives the calls of f ("steps"), the bisection
    steps of all elements ("bisections"), how many elements ended on a
    point without a slope other than a flat zero ("unsloped"), and the
    largest |slope| at the last point of each element ("max_abs_slope",
    NaN when there is none).
    """
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    tol = [float(v) for v in np.broadcast_to(tol, len(a))]
    c = [bi - _INVPHI * (bi - ai) for ai, bi in zip(a, b)]
    d = [ai + _INVPHI * (bi - ai) for ai, bi in zip(a, b)]
    idx = np.arange(len(a))
    values, slopes = (v.tolist() for v in f(np.array([c, d]).T, idx))
    elements = [_Secant(*args)
                for args in zip(a, b, c, d, values, slopes, tol)]
    # each element's last slope: the smaller of the first two, then the
    # slope of its latest point
    last = [min(pair, key=abs) for pair in slopes]
    steps = 1
    live = [i for i, e in enumerate(elements) if e.live]
    while live:
        if len(live) < idx.size:
            idx = np.array(live)
        x = np.array([elements[i].propose() for i in live])
        values, slopes = (v.tolist() for v in f(x, idx))
        steps += 1
        for i, value, slope in zip(live, values, slopes):
            elements[i].update(value, slope)
            last[i] = slope
        live = [i for i in live if elements[i].live]
    if stats is not None:
        stats["steps"] = steps
        stats["bisections"] = sum(e.bisections for e in elements)
        stats["unsloped"] = sum(e.unsloped for e in elements)
        stats["max_abs_slope"] = max(
            (abs(v) for v in last if not math.isnan(v)), default=math.nan)
    return np.array([e.result() for e in elements])


def _scan_refine(solver, refine_tol=REFINE_TOL, rates=False):
    """optimize_dephasing for every cell of the stack `solver`: one
    batched scan of the grid, then one refinement (_maximize on eta and
    its slope d eta/d log gamma) of every grid-local maximum of every
    cell, all in lockstep, and one certified solve at the gammas found.

    gammas[0] is the no-dephasing endpoint.  A grid point j >= 1 is a
    local maximum when eta[j] >= eta[j-1] and eta[j] > eta[j+1], the last
    point when it rises, whether or not it beats gamma = 0: a narrow peak
    can rise above eta0 between samples that all stay below it.  A
    maximum whose rise and fall are both at most 1e-12 is rounding and
    gets no bracket, and so is a cell's best grid point (which is
    bracketed when it is not gamma = 0, also where the next point ties
    it), so that the noise of a flat curve is never refined.  Each
    bracket runs in log gamma over the neighbours of its grid point, and
    each cell reports the best of its brackets' certified answers.  A
    gain counts only above rounding: unless eta_max - eta0 > 1e-12, the
    cell reports xi = 0 and gamma_opt = 0 (rounding in eta scales with
    eta + eta_loss = 1, not with eta).  Returns the pair (entries,
    xi_slopes) whatever `rates`.  entries holds one entry per cell: its
    EnaqtResult, or the SingularSystemError of a solve that failed.
    xi_slopes is None without `rates`, and with it d xi/d log(kappa, mu),
    shape (cells, 2): by the envelope theorem, d eta/d log rate at
    gamma_opt (from the certifying solve) less d eta/d log rate at
    gamma = 0 (from the scan's gamma = 0 column), NaN where xi = 0 or a
    rate slope is missing, as at a failed cell (see
    EigenbasisSteadySolver.eta).  The callers build
    their stacks by solver._stacks, which knows the memory of a kappa
    row.  Leaves one DEBUG record: the cells, the cells and the brackets
    refined, the refinement's steps and bisection steps, the largest
    |d eta/d log gamma| at the gammas the cells keep (near 0 at an
    interior optimum), and the rows (eigendecompositions) of the stack.
    """
    gammas = np.concatenate([[0.0], np.geomspace(*GAMMA_BOUNDS, GRID_POINTS)])
    etas, zero = (solver.eta_grid(gammas, _rates=True) if rates
                  else (solver.eta_grid(gammas), None))
    eta0 = etas[:, 0]
    results = [EnaqtResult(float(e), float(e), 0.0, 0.0) for e in eta0]
    xi_slopes = np.full((solver.cells, 2), math.nan) if rates else None
    last = gammas.size - 1
    # rise and fall of every grid point j >= 1 (column j - 1); the last
    # point has no fall
    rise = np.diff(etas, axis=1)
    fall = np.zeros_like(rise)
    fall[:, :-1] = -rise[:, 1:]
    peak = (rise >= 0.0) & (fall > 0.0)
    peak[:, -1] = rise[:, -1] >= 0.0
    best = np.argmax(etas, axis=1)
    peak[best > 0, best[best > 0] - 1] = True
    peak &= np.maximum(rise, fall) > 1e-12
    cell, point = np.nonzero(peak)
    point += 1
    stats = {"steps": 0, "bisections": 0}
    largest = 0.0
    if cell.size:
        x = _maximize(
            lambda x, sel: solver.eta(_exp(x), cell[sel], slope=True),
            _log(gammas[np.maximum(point - 1, 1)]),
            _log(gammas[np.minimum(point + 1, last)]), refine_tol, stats)
        g_best = _exp(x)
        final, slopes, *at_opt = solver.eta(g_best, cell, slope=True,
                                            _rates=rates)
        kept = {}  # cell -> its best bracket, the first of equal answers
        for i, k in enumerate(cell.tolist()):
            if k not in kept or final[i] > final[kept[k]]:
                kept[k] = i
        at = list(kept.values())
        largest = float(np.nanmax(np.abs(slopes[at]), initial=0.0))
        for k, i in kept.items():
            g, e = g_best[i], final[i]
            if e - eta0[k] > 1e-12:
                results[k] = EnaqtResult(float(eta0[k]), float(e), float(g),
                                         float(e - eta0[k]))
                if rates:
                    xi_slopes[k] = at_opt[0][i] - zero[k]
    _logger.debug("scan_refine n=%d cells=%d refined=%d brackets=%d "
                  "steps=%d bisections=%d max_abs_slope=%.2e rows=%d",
                  solver.n, solver.cells, np.unique(cell).size, cell.size,
                  stats["steps"], stats["bisections"], largest, solver.rows)
    return [solver.failed.get(k, res)
            for k, res in enumerate(results)], xi_slopes


def _optimize_cells(spec, kappas, mus, refine_tol=REFINE_TOL, rates=False):
    """_scan_refine over the cells (kappas[i], mus[i]) of the geometry of
    spec (1-d rate arrays of one length; spec's own rates are ignored) in
    the stacks of solver._stacks, whole kappa rows: the pair (entries,
    xi_slopes) of _scan_refine over all cells, in order, xi_slopes None
    without `rates`."""
    kappas = np.asarray(kappas, dtype=float)
    mus = np.asarray(mus, dtype=float)
    stacks = [_scan_refine(EigenbasisSteadySolver(spec, kappas[at], mus[at]),
                           refine_tol, rates)
              for at in _stacks(spec.n, kappas)]
    return ([res for results, _ in stacks for res in results],
            np.concatenate([slopes for _, slopes in stacks]) if rates
            else None)


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
    etas = efficiency_gamma_grid(spec, gamma_grid)  # checks the grid
    return [(float(g), float(e)) for g, e in zip(gamma_grid, etas)]


def optimize_dephasing(spec: SystemSpec) -> EnaqtResult:
    """Maximize eta over gamma in [0, 1e4] for fixed (kappa, mu).

    The gamma = 0 endpoint is always evaluated with the grid of
    GRID_POINTS log-spaced rates.  Every grid-local maximum (see
    _scan_refine), whether or not it beats gamma = 0, is refined by a
    safeguarded secant search on d eta/d log gamma, in log gamma between
    its neighbours, to a bracket of REFINE_TOL, and eta_max is certified
    at the gammas found by one more solve.  gamma_opt is the best of
    them; when none beats gamma = 0 by more than 1e-12 (rounding), the
    result reports gamma_opt = 0 and xi = 0.  spec's own gamma field is
    ignored.  The system is a cell stack of one (see the module
    docstring): one eigendecomposition of H serves the endpoint, the grid
    (one batched solve for small systems) and the refinement, whose steps
    solve eta and its slope at one point of every bracket at once.

    Raises ValidationError for rates that are not finite and > 0, and
    SingularSystemError, with its gamma named, for a solve that fails its
    certification.
    """
    _check_positive_rates(spec.kappa, spec.mu)
    return _raised(_optimize_cells(spec, [spec.kappa], [spec.mu])[0][0])


def max_enaqt(topology, n: int, trap_site: int,
              initial_site: int) -> MaxEnaqt:
    """Maximum xi over the (kappa, mu) plane for one geometry.

    Scans a PLANE_POINTS x PLANE_POINTS log grid over [1e-4, 1e2]^2, then
    refines by PLANE_SWEEPS coordinate sweeps of shrinking span, each a
    1-d maximization (_maximize) in log kappa or log mu on a bracket
    clipped to RATE_BOUNDS.  The landscape can hold several local maxima (a
    dephasing-peak basin and a large-gamma plateau basin, sometimes
    more), so the sweeps restart from up to PLANE_STARTS well-separated
    top grid cells.  Every candidate is re-evaluated with the full
    optimizer, so the reported xi carries the production solve's
    accuracy; kappa and mu are resolved to about the final sweep span.

    The ranking grid is optimized as one cell stack of its PLANE_POINTS
    kappa rows up to 5 sites, in stacks of whole rows above (the
    GRID_POINTS gamma grid and a coarse 1e-3 refinement tolerance; gamma
    is refined on the slope as in optimize_dephasing), and the seeds
    refine in lockstep: each step of their kappa (or mu) sweeps evaluates
    one cell per seed as one stack, as do the final optimizations.  A
    sweep step also returns d xi/d log kappa (or mu) of every cell, by
    the envelope theorem (_scan_refine), so the sweeps run _maximize's
    secant search on the slope, and an optimum on a rate bound is
    settled by its end probe.
    The solver gives these slopes on every route (its direct kernels,
    its GMRES route above solver.DIRECT_MAX_N sites and its fallback
    chain).  xi = 0 (no gain) has no slope, and shows no direction: a
    seed with xi = 0 at both first points of a sweep stops there and
    keeps its own rate, and one with xi = 0 at one of them runs the
    secant search from the other, on the side its slope points to, and
    bisects toward the zero point where that side leads back to it.  So
    a geometry without any gain costs one step per sweep, and reports
    the top seed's own grid cell.  Each sweep leaves one DEBUG record:
    the axis, the seeds, the steps, the bisection steps, how many seeds
    ended on a point without a slope other than xi = 0 (unsloped), and
    the largest |d xi/d log rate| at the seeds' last points.

    Sites are 1-based.
    """
    spec0 = _geometry_spec(topology, n, trap_site, initial_site,
                           ("trap_site", "initial_site"))

    def optimized(kappas, mus, *search, rates=False):
        # one result per broadcast (kappa, mu) pair, in row-major order, and
        # with `rates` their d xi/d log(kappa, mu), shape (pairs, 2)
        kappas, mus = np.broadcast_arrays(kappas, mus)
        results, slopes = _optimize_cells(spec0, kappas.ravel(), mus.ravel(),
                                          *search, rates=rates)
        return [_raised(res) for res in results], slopes

    def xi(kappas, mus, axis=None):
        # coarse xi for ranking: 1e-3 refinement tolerance; with an axis,
        # the pair (xi, d xi/d log kappa (0) or mu (1))
        shape = np.broadcast_shapes(np.shape(kappas), np.shape(mus))
        results, slopes = optimized(kappas, mus, 1e-3,
                                    rates=axis is not None)
        values = np.array([res.xi for res in results]).reshape(shape)
        return values if axis is None else (
            values, slopes[:, axis].reshape(shape))

    grid = np.geomspace(*RATE_BOUNDS, PLANE_POINTS)
    ranked = xi(grid[:, None], grid[None, :])
    cells = sorted(((float(ranked[i, j]), i, j)
                    for i in range(PLANE_POINTS) for j in range(PLANE_POINTS)),
                   reverse=True)

    # well-separated seeds: skip any cell adjacent to a better kept one
    seeds = []
    for x, i, j in cells:
        if all(max(abs(i - i0), abs(j - j0)) > 1 for _, i0, j0 in seeds):
            seeds.append((x, i, j))
        if len(seeds) == PLANE_STARTS:
            break

    lo_log, hi_log = math.log(RATE_BOUNDS[0]), math.log(RATE_BOUNDS[1])
    # (kappa, mu) of each seed; a sweep along axis moves column axis
    seeds = grid[[(i, j) for _, i, j in seeds]]
    step = math.log(grid[1] / grid[0])
    for _ in range(PLANE_SWEEPS):
        for axis in (0, 1):
            def val(x, sel):
                # x holds one row of points per live seed sel
                v = _exp(x)
                fixed = seeds[sel, 1 - axis].reshape(
                    (-1,) + (1,) * (v.ndim - 1))
                return xi(*((v, fixed) if axis == 0 else (fixed, v)), axis)

            center = _log(seeds[:, axis])
            stats = {}
            x = _maximize(val, np.maximum(center - step, lo_log),
                          np.minimum(center + step, hi_log), 1e-3, stats)
            # a seed with xi = 0 at both first points keeps its own rate
            seeds[:, axis] = np.where(np.isnan(x), seeds[:, axis], _exp(x))
            _logger.debug(
                "max_enaqt sweep axis=%s seeds=%d steps=%d bisections=%d "
                "unsloped=%d max_abs_slope=%.2e", ("kappa", "mu")[axis],
                len(seeds), stats["steps"], stats["bisections"],
                stats["unsloped"], stats["max_abs_slope"])
        step *= 0.35

    finals = [res.xi for res in optimized(*seeds.T)[0]]
    best = int(np.argmax(finals))  # the first of equal maxima
    return MaxEnaqt(finals[best], *map(float, seeds[best]))


def eta3_closed_form(gamma: float, kappa: float, mu: float) -> float:
    """Efficiency of the three-site chain (trap on an end, start adjacent).

    Rational in gamma with polynomial coefficients in (kappa, mu); agrees
    with efficiency_direct to solver precision.  The denominator vanishes
    only at kappa = mu = gamma = 0, where the efficiency is undefined.
    """
    for name, rate in (("gamma", gamma), ("kappa", kappa), ("mu", mu)):
        _rate(name, rate)
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
    _rate("kappa", kappa)
    _rate("mu", mu)
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
    n = _check_site_count(Topology.CHAIN, n)
    _check_positive_rates(kappa, mu)
    return 1.0 / (1.0 + n * mu / kappa)


def chain_amplitude(n: int, l: int, m: int, t):
    """Coherent amplitude U_lm(t) on the bare open chain (1-based sites).

    Eigenstate sum with u_j(k) = sqrt(2/(N+1)) sin(pi*j*k/(N+1)) and
    lambda_k = 2 cos(pi*k/(N+1)).  t may be a scalar or an array of
    finite real times, negative ones included (ValidationError otherwise).
    """
    n = _check_site_count(Topology.CHAIN, n)
    l = _site0(l, n, "l") + 1
    m = _site0(m, n, "m") + 1
    try:
        t_arr = np.asarray(t)
    except ValueError:  # a ragged sequence
        t_arr = None
    if (t_arr is None or t_arr.dtype.kind not in "biuf"
            or not np.isfinite(t_arr).all()):
        raise ValidationError(f"t={t!r} must be finite real times")
    t_arr = t_arr.astype(float, copy=False)
    k = np.arange(1, n + 1)
    u_l = np.sin(np.pi * l * k / (n + 1))
    u_m = np.sin(np.pi * m * k / (n + 1))
    lam = 2.0 * np.cos(np.pi * k / (n + 1))
    phases = np.exp(-1j * t_arr[..., None] * lam)
    out = (2.0 / (n + 1)) * (phases * (u_l * u_m)).sum(axis=-1)
    return complex(out) if t_arr.ndim == 0 else out


def average_population(topology, n: int, l: int, m: int) -> float:
    """Infinite-time-averaged population of site l for a particle started
    at site m, on the bare (lossless, trapless) geometry.  1-based sites.

    Chain: (1/(N+1)) (1 + d_lm/2 + d_{l,N+1-m}/2).  Ring: flat 1/N plus
    enhancements on the start site and, for even N, its antipode.
    """
    topology = _topology(topology)
    n = _check_site_count(topology, n)
    l = _site0(l, n, "l") + 1
    m = _site0(m, n, "m") + 1
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
    return float(value)


def enaqt_estimate(topology, n: int, kappa: float, mu: float,
                   trap: int, init: int) -> float:
    """Small-attenuation ENAQT estimate from long-time average populations.

    Zero in the mirror (chain) and antipodal (ring) configurations, where
    coherent refocusing beats the dephased average; otherwise the
    difference of the dephased and coherent efficiency estimates, which
    depends only on mu/kappa: 1/(1 + N mu/kappa) less 1/(1 + mu/(kappa P)),
    P the trap's average population (average_population) for a particle
    started at init.  1-based sites.
    """
    spec = _geometry_spec(topology, n, trap, init, kappa=kappa, mu=mu)
    _check_positive_rates(kappa, mu)
    n, (trap0,), init0 = spec.n, spec.trap_sites, spec.initial_site
    if (init0 == n - 1 - trap0 if spec.topology is Topology.CHAIN
            else n % 2 == 0 and (init0 - trap0) % n == n // 2):
        return 0.0
    ratio = mu / kappa
    trapped = average_population(spec.topology, n, trap0 + 1, init0 + 1)
    return 1.0 / (1.0 + n * ratio) - 1.0 / (1.0 + ratio / trapped)


def symmetry_split(spec: SystemSpec) -> tuple:
    """(eta_S, eta_A) for the even and odd combinations of the initial site.

    Requires an odd-N chain with its single trap on the middle site, so the
    generator commutes with inversion.  |S/A> = (|m> +/- |mirror of m>)/sqrt2
    built from spec.initial_site; the odd component never reaches the
    (even) middle site, so eta_A -> 0 as mu -> 0+, and the site-localized
    efficiency equals (eta_S + eta_A)/2 at any gamma.  One solver (one
    eigendecomposition of H) solves both sectors, and its `failed` entry
    is raised as efficiency_direct raises it.
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
    solver = EigenbasisSteadySolver(spec)
    etas = []
    for sign in (1.0, -1.0):
        psi = np.zeros(spec.n)
        psi[[tau, mirror]] = 1.0, sign
        rho = np.outer(psi, psi) / 2.0
        etas.append(solver.efficiency(spec.gamma, rho)[0])
    if solver.failed:
        raise solver.failed[0]
    return etas[0], etas[1]


def circle_max_enaqt(n: int, trap: int, init: int) -> float:
    """Maximum attainable xi on the ring: 0 for antipodal start/trap
    (even N at distance N/2), 1/2 otherwise.  1-based sites."""
    spec = _geometry_spec(Topology.RING, n, trap, init)
    n = spec.n
    if n % 2 == 0 and (spec.initial_site - spec.trap_sites[0]) % n == n // 2:
        return 0.0
    return 0.5


def infinite_chain_enaqt(kappa: float, mu: float,
                         offset: int = 1) -> InfiniteChainResult:
    """ENAQT for a particle released next to the trapped half of an
    infinite chain.

    The chain is truncated to left trap sites + offset + right free sites.
    Both sides start at START_SITES (or ceil(16/mu) when that is smaller).
    A truncation (L, R) is certified when eta at every probe rate moves by
    less than TRUNCATION_TOL on each of (2L, R), (L, 2R) and (2L, 2R);
    until then, each side whose own probe moved is doubled (both, when
    only the doubled-both probe moved).  The probe rates are gamma = 0, 1
    and the two ends of the search interval.  Dephasing is then optimized
    as in optimize_dephasing on the certified truncation, and the
    reported gamma_opt joins the probe rates: if its eta moves, the
    truncation grows again and is optimized again.  truncation_delta is
    the largest probe change at the reported truncation, eta0 and eta_max
    included.  The solvers of a probe step's four truncations are kept
    until the step moves on, so the optimization and the probes of a new
    gamma_opt build (and eigendecompose) none of them again.  mu >= 0.1
    keeps the certified sizes tractable (the support grows as 1/mu).

    Raises TruncationError (carrying achieved_delta, the largest probe
    change of the last complete probe step) instead of building any
    truncation of more than SITE_CAP_INFINITE sites.
    """
    _rate("kappa", kappa)
    if not _rate("mu", mu) >= MU_CUTOFF_INFINITE:
        raise ValidationError(
            f"mu={mu!r} below the cutoff {MU_CUTOFF_INFINITE} (truncated "
            "supports scale as 1/mu and are certified only above it)")
    offset = _check_offset(offset)
    left = right = min(START_SITES, math.ceil(16.0 / mu))
    if kappa == 0.0:
        # Nothing traps, so eta = 0 for every gamma.
        return InfiniteChainResult(
            0.0, 0.0, 0.0, 0.0, offset=offset, left=left, right=right,
            n_total=left + offset + right, truncation_delta=0.0,
            method="trivial")

    delta = math.inf
    known = {}  # (left, right) -> {gamma: eta} of every truncation solved
    solvers = {}  # (left, right) -> solver, for the current probe step

    def truncation(sizes):
        if sizes not in solvers:
            n = sizes[0] + offset + sizes[1]
            if n > SITE_CAP_INFINITE:
                raise TruncationError(
                    f"truncation not converged below {TRUNCATION_TOL:g} "
                    f"within {SITE_CAP_INFINITE} sites ({n} needed, best "
                    f"delta {delta:.3e})", achieved_delta=delta)
            solvers[sizes] = EigenbasisSteadySolver(
                semi_infinite_spec(kappa, mu, 0.0, offset, *sizes))
        return solvers[sizes]

    def etas(sizes, gammas):
        # eta of the truncation at gammas, solving only the new rates
        seen = known.setdefault(sizes, {})
        new = [g for g in gammas if g not in seen]
        if new:
            solver = truncation(sizes)
            values = solver.eta_grid(new)[0]
            if solver.failed:
                raise solver.failed[0]
            seen.update(zip(new, values.tolist()))
        return np.array([seen[g] for g in gammas])

    gammas = [0.0, 1.0, *GAMMA_BOUNDS]
    optimized = None  # the truncation the last optimization ran on
    while True:
        while True:
            # the base truncation and its three probes; their solvers are
            # kept while they are these, for the optimization and for the
            # probes of a new gamma_opt
            step = [(left, right), (2 * left, right), (left, 2 * right),
                    (2 * left, 2 * right)]
            for sizes in set(solvers) - set(step):
                del solvers[sizes]
            base = etas(step[0], gammas)
            moved = [float(np.max(np.abs(etas(sizes, gammas) - base)))
                     for sizes in step[1:]]
            delta = max(moved)
            if delta < TRUNCATION_TOL:
                break
            grow_left, grow_right = (m >= TRUNCATION_TOL for m in moved[:2])
            if not (grow_left or grow_right):  # only (2L, 2R) moved
                grow_left = grow_right = True
            left *= 2 if grow_left else 1
            right *= 2 if grow_right else 1
        if (left, right) == optimized:
            break
        optimized = (left, right)
        solver = truncation(optimized)
        res = _raised(_scan_refine(solver)[0][0])
        # the next probe step certifies the reported numbers themselves
        known[optimized].update({0.0: res.eta0, res.gamma_opt: res.eta_max})
        if res.gamma_opt not in gammas:
            gammas.append(res.gamma_opt)
    return InfiniteChainResult(
        res.eta0, res.eta_max, res.gamma_opt, res.xi, offset=offset,
        left=left, right=right, n_total=solver.n, truncation_delta=delta,
        method="+".join(sorted(solver.routes)))


def _attempt(fn, *args, **kwargs):
    """fn(*args, **kwargs), or the EnaqtError it raised."""
    try:
        return fn(*args, **kwargs)
    except EnaqtError as exc:
        return exc


def _sweep_batch(task):
    """(eta0, xi, gamma_opt, error) for each cell of one plane-sweep batch;
    module-level so worker pools can pickle it.  Chain and ring cells
    (rates on the base spec spec0) are optimized as cell stacks,
    semi-infinite cells (spec0 None) one by one; a cell whose solve
    raised holds NaN and the error's text."""
    spec0, offset, rates = task
    if spec0 is None:
        results = [_attempt(infinite_chain_enaqt, kv, mv, offset)
                   for kv, mv in rates]
    else:
        kappas, mus = np.array(rates, dtype=float).T
        results, _ = _optimize_cells(spec0, kappas, mus)
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
    cell stacks of whole kappa rows (solver._stacks: one
    eigendecomposition per row), each optimized by one batched scan and
    one lockstep refinement (see the module docstring), and semi-infinite
    cells one by one, each with its own truncation.  With workers > 1 the
    batches are the tasks of a process pool, at least `workers` of them
    where the grid has that many kappa rows; a point's result does not
    depend on its batch, so the map is identical for any worker count.
    Per-cell failures are recorded in PlaneMap.errors (keyed (i, j)) with
    NaN values in the arrays, and are not fatal; the other cells of the
    batch are unaffected.  Grid values must be finite, strictly
    increasing and within the rate bounds (ValidationError otherwise).

    For the semi-infinite topology, n/trap/init are ignored (geometry is
    set by offset) and the mu grid must respect the 0.1 cutoff.
    """
    topology = _topology(topology)
    kappa_grid = (np.geomspace(*RATE_BOUNDS, 48) if kappa_grid is None
                  else np.array(_rate("kappa_grid", kappa_grid, True)))
    mu_grid = (np.geomspace(*RATE_BOUNDS, 48) if mu_grid is None
               else np.array(_rate("mu_grid", mu_grid, True)))
    for name, grid in (("kappa_grid", kappa_grid), ("mu_grid", mu_grid)):
        if grid.ndim != 1 or grid.size == 0:
            raise ValidationError(f"{name} must be a non-empty 1-d sequence")
        if np.any(np.diff(grid) <= 0):
            raise ValidationError(f"{name} must be strictly increasing")
        lo = (MU_CUTOFF_INFINITE
              if (name == "mu_grid"
                  and topology is Topology.SEMI_INFINITE)
              else RATE_BOUNDS[0])
        if grid[0] < lo * (1 - 1e-12) or grid[-1] > RATE_BOUNDS[1] * (1 + 1e-12):
            raise ValidationError(
                f"{name} must lie within [{lo:g}, {RATE_BOUNDS[1]:g}]")
    cells = [(float(kv), float(mv)) for kv in kappa_grid for mv in mu_grid]
    if topology is Topology.SEMI_INFINITE:
        offset = _check_offset(offset)
        spec0, stacks = None, [slice(i, i + 1) for i in range(len(cells))]
    else:
        spec0 = _geometry_spec(topology, n, trap, init)
        stacks = _stacks(spec0.n, np.repeat(kappa_grid, mu_grid.size),
                         _worker_count(workers))
    tasks = [(spec0, offset, cells[at]) for at in stacks]
    rows = [row for batch in _pool_map(_sweep_batch, tasks, workers)
            for row in batch]

    eta0, xi, gamma_opt = np.array([row[:3] for row in rows]).T.reshape(
        3, kappa_grid.size, mu_grid.size)
    errors = {divmod(idx, mu_grid.size): row[3]
              for idx, row in enumerate(rows) if row[3] is not None}
    return PlaneMap(kappa_grid=kappa_grid, mu_grid=mu_grid, eta0=eta0,
                    xi=xi, gamma_opt=gamma_opt, errors=errors)
