"""Model construction: Hamiltonians, attenuation, and master-equation generators.

Site geometry
-------------
Sites are indexed 0..n-1 internally.  A chain couples nearest neighbours
with strength v; a ring adds the (0, n-1) bond.  The truncated-infinite
geometry is an open chain whose leftmost sites all carry the trapping rate,
with the initial site a fixed offset to the right of the trap edge.

All rates are expressed in units of the coupling v, with hbar = 1, so time
is measured in 1/v.

Vectorization convention: row-major, vec index(n, m) = n*N + m, 0-based.
The population of site s sits at index s*N + s.  L exists in two forms in
this layout: _sparse_generator assembles it as one sparse Kronecker matrix
(Superoperator, the sparse-LU fallback, propagate); _generator applies it
without forming it (the residual that certifies every steady solve).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError

__all__ = [
    "Topology",
    "SystemSpec",
    "Superoperator",
    "semi_infinite_spec",
    "build_hamiltonian",
    "build_liouvillian",
    "as_density_vec",
]

class Topology(str, Enum):
    CHAIN = "chain"
    RING = "ring"
    SEMI_INFINITE = "semi-infinite"


def _topology(value) -> Topology:
    """value as a Topology (a member or its name): ValidationError naming
    the choices otherwise.  The one place that parses a topology."""
    try:
        return Topology(value)
    except ValueError:
        raise ValidationError(f"topology={value!r} invalid: choose from "
                              f"{', '.join(Topology)}") from None


def _rate(name, value, array=False):
    """value once it is a rate, or with `array` an array of rates: every
    entry a real number, finite and >= 0.  A float is returned as it is
    (one math.isfinite), anything else as a float array, 0-d for a number
    (one np.minimum.reduce and one np.maximum.reduce, so a good call makes
    no other reduction; an empty array passes).  Otherwise
    ValidationError `{name}={v!r} must be finite and >= 0`, v the first
    bad entry, or value itself where it is not a number (an array without
    `array`) or an array of numbers.  The one check of a rate."""
    if isinstance(value, float):
        if math.isfinite(value) and value >= 0:
            return value
    else:
        try:
            rates = np.asarray(value)
        except ValueError:  # a ragged sequence
            rates = None
        if (rates is not None and rates.dtype.kind in "biuf"
                and (array or rates.ndim == 0)):
            rates = rates.astype(float, copy=False)
            if (np.minimum.reduce(rates, None, initial=math.inf) >= 0.0
                    and np.maximum.reduce(rates, None, initial=0.0)
                    < math.inf):
                return rates
            value = float(rates[~((rates >= 0.0) & (rates < math.inf))][0])
    raise ValidationError(f"{name}={value!r} must be finite and >= 0")


def _check_site_count(topology: Topology, n) -> int:
    """n as an int: ValidationError unless it is an integer (Python or
    numpy, by operator.index: nothing truncated) large enough for the
    topology (>= 2 sites for chains, >= 3 for rings)."""
    try:
        count = operator.index(n)
    except TypeError:
        raise ValidationError(f"n={n!r} invalid: must be an integer") from None
    min_n = 3 if topology is Topology.RING else 2
    if count < min_n:
        raise ValidationError(
            f"n={count} invalid: {topology.value} needs at least "
            f"{min_n} sites")
    return count


def _check_offset(offset) -> int:
    """offset as an int: ValidationError unless it is an integer (Python
    or numpy, by operator.index: nothing truncated) of at least 1."""
    try:
        count = operator.index(offset)
    except TypeError:
        count = 0
    if count < 1:
        raise ValidationError(f"offset={offset!r} must be an integer >= 1")
    return count


def _site0(label, n: int, what: str) -> int:
    """The 0-based site of the 1-based label `what` on n sites:
    ValidationError unless it is an integer (by operator.index, as
    SystemSpec takes sites: nothing truncated) in 1..n."""
    try:
        s = operator.index(label)
    except TypeError:
        raise ValidationError(
            f"{what} must be an integer, got {label!r}") from None
    if not 1 <= s <= n:
        raise ValidationError(f"{what} {s} outside 1..{n}")
    return s - 1


@dataclass(frozen=True)
class SystemSpec:
    """Complete description of one transport problem.

    Parameters
    ----------
    topology : Topology or str
        Chain, ring, or the truncated-infinite chain geometry.
    n : int
        Number of sites (>= 2 for chains, >= 3 for rings), a Python or
        numpy integer, stored as int.
    trap_sites : iterable of int
        0-based sites carrying the trapping rate kappa.  Duplicates are
        dropped; the stored value is a sorted tuple.
    initial_site : int
        0-based site holding the particle at t = 0.  Sites must be
        integers (Python or numpy); any other label raises ValidationError
        instead of being truncated.
    kappa, mu, gamma : float
        Trapping, loss, and dephasing rates, all >= 0 and finite,
        in units of the coupling.
    v : float, optional
        Nearest-neighbour coupling strength.  Defaults to 1, which sets
        the energy scale.
    offset : int, optional
        Distance of the initial site from the trap-region edge: given for
        the semi-infinite topology only, as an integer >= 1 (Python or
        numpy), stored as int.
    """

    topology: Topology
    n: int
    trap_sites: tuple[int, ...]
    initial_site: int
    kappa: float
    mu: float
    gamma: float
    v: float = 1.0
    offset: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "topology", _topology(self.topology))
        try:  # operator.index: ints and numpy integers, nothing truncated
            traps = tuple(sorted({operator.index(t) for t in self.trap_sites}))
            init = operator.index(self.initial_site)
        except TypeError:
            raise ValidationError(
                f"sites must be integers, got trap_sites={self.trap_sites!r}"
                f", initial_site={self.initial_site!r}") from None
        object.__setattr__(self, "trap_sites", traps)
        object.__setattr__(self, "initial_site", init)
        n = _check_site_count(self.topology, self.n)
        object.__setattr__(self, "n", n)
        for name in ("kappa", "mu", "gamma"):
            _rate(name, getattr(self, name))
        try:  # a real number: math.isfinite refuses str, None, complex
            finite = math.isfinite(self.v)
        except TypeError:
            finite = False
        if not finite:
            raise ValidationError(f"v={self.v!r} must be a finite number")
        for s in traps + (self.initial_site,):
            if not 0 <= s < n:
                raise ValidationError(
                    f"site index {s} outside [0, {n})")
        if (self.topology is not Topology.SEMI_INFINITE
                and len(traps) == 1 and self.initial_site in traps):
            # The efficiency gain is undefined when the particle starts
            # on the single trap site.
            raise ValidationError("the initial site and the single trap "
                                  "must differ")
        if self.topology is Topology.SEMI_INFINITE:
            object.__setattr__(self, "offset", _check_offset(self.offset))
            if not traps:
                raise ValidationError(
                    "semi-infinite topology requires a trap region")
        elif self.offset is not None:
            raise ValidationError(
                f"offset={self.offset!r} is given for the semi-infinite "
                "topology only")

    def with_rates(self, kappa=None, mu=None, gamma=None) -> "SystemSpec":
        """A copy with each rate that is given (not None) replaced, and
        checked as SystemSpec checks its rates."""
        rates = {"kappa": kappa, "mu": mu, "gamma": gamma}
        return replace(self, **{name: rate for name, rate in rates.items()
                                if rate is not None})


def semi_infinite_spec(kappa, mu, gamma, offset=1, left=None, right=None):
    """Truncated realization of the infinite chain with a left trap region.

    Sites 0..left-1 all trap; the initial site is `offset` sites right of
    the trap edge; `right` further sites extend the free region.  Callers
    that do not pass explicit sizes get left = right = ceil(16/mu), sized
    so the ballistic front never reaches the boundary within the survival
    horizon; only then must mu be > 0.
    """
    if left is None or right is None:
        if not _rate("mu", mu) > 0:
            raise ValidationError(
                f"semi-infinite sizing needs mu > 0, got mu={mu!r}")
        side = math.ceil(16.0 / mu)
        left = side if left is None else left
        right = side if right is None else right
    offset = _check_offset(offset)
    return SystemSpec(
        topology=Topology.SEMI_INFINITE,
        n=left + offset + right,
        trap_sites=tuple(range(left)),
        initial_site=left - 1 + offset,
        kappa=kappa,
        mu=mu,
        gamma=gamma,
        offset=offset,
    )


def _geometry_spec(topology, n, trap, init, names=("trap", "init"),
                   kappa=1.0, mu=1.0, gamma=0.0) -> SystemSpec:
    """The one builder of a chain or ring spec from 1-based labels: the
    single trap `trap` and the initial site `init`, called names[0] and
    names[1] in errors, at the given rates.  n is checked before the
    sites are compared with it (SystemSpec checks that they differ); the
    semi-infinite topology raises ValidationError (it has no such
    labels: semi_infinite_spec builds it)."""
    topology = _topology(topology)
    if topology is Topology.SEMI_INFINITE:
        raise ValidationError("defined for chain and ring only, not "
                              "semi-infinite (see infinite_chain_enaqt)")
    n = _check_site_count(topology, n)
    trap0 = _site0(trap, n, names[0])
    init0 = _site0(init, n, names[1])
    return SystemSpec(topology, n, (trap0,), init0, kappa=kappa, mu=mu,
                      gamma=gamma)


def _hopping(spec: SystemSpec) -> np.ndarray:
    """The hopping part of spec's H, which does not depend on the rates:
    v on the bonds (k, k+1) of an open chain (the truncated-infinite
    geometry is one), which a ring closes by the (0, n-1) bond."""
    n = spec.n
    h = np.zeros((n, n), dtype=complex)
    k = np.arange(n - 1)
    h[k, k + 1] = h[k + 1, k] = spec.v
    if spec.topology is Topology.RING:
        h[[0, n - 1], [n - 1, 0]] += spec.v
    return h


def _colouring(spec: SystemSpec):
    """A 2-colouring c of spec's sites that its hopping respects, every
    bond joining two colours: c_k = k mod 2 on every chain, semi-infinite
    truncation and even ring; None on an odd ring, whose bond (0, n-1)
    joins two sites of colour 0."""
    if spec.topology is Topology.RING and spec.n % 2:
        return None
    return np.arange(spec.n) % 2


def _hamiltonians(spec: SystemSpec, kappa, mu) -> np.ndarray:
    """H of every cell of spec's geometry, shape (cells, n, n), cell i at
    the rates kappa[i] and mu[i] (1-d float arrays; spec's own rates are
    ignored): the hopping part minus i(mu + kappa on the traps) on its
    zero diagonal.  The one builder of H: build_hamiltonian gives its
    single cell at spec's rates."""
    sites = np.arange(spec.n)
    traps = np.zeros(spec.n)
    traps[list(spec.trap_sites)] = 1.0
    h = np.repeat(_hopping(spec)[None], kappa.size, axis=0)
    h.imag[:, sites, sites] -= mu[:, None] + kappa[:, None] * traps
    return h


def build_hamiltonian(spec: SystemSpec) -> np.ndarray:
    """Total single-particle generator H = hopping + attenuation: the one
    cell of _hamiltonians at spec's rates."""
    return _hamiltonians(spec, np.array([spec.kappa], dtype=float),
                         np.array([spec.mu], dtype=float))[0]


def _site_density(n: int, site: int) -> np.ndarray:
    """Vectorized density matrix of a particle localized on one site."""
    rho = np.zeros(n * n, dtype=complex)
    rho[site * (n + 1)] = 1.0
    return rho


def as_density_vec(rho, n: int) -> np.ndarray:
    """The one definition of an initial state: rho (a length-n^2 vector,
    row-major, or an n x n matrix) as a length-n^2 complex vector, once
    it is a density matrix of at most unit trace.  rho must have one of
    those two shapes and be finite, non-zero, Hermitian and positive
    semidefinite within 1e-12, and its trace at most 1 + 1e-12, so a
    decayed state that propagate recorded passes; else ValidationError
    names the failed property.  The yields of such a state are real, and
    eta + eta_loss = tr rho when mu > 0."""
    try:
        vec = np.array(rho, dtype=complex)
    except (TypeError, ValueError):
        raise ValidationError(
            "density matrix is not an array of numbers") from None
    if vec.shape not in ((n * n,), (n, n)):
        raise ValidationError(
            f"density matrix of shape {vec.shape} is neither ({n * n},) "
            f"nor ({n}, {n})")
    vec = vec.reshape(-1)
    if not np.isfinite(vec).all():
        raise ValidationError("density matrix has non-finite entries")
    if not vec.any():
        raise ValidationError("density matrix is zero")
    mat = vec.reshape(n, n)
    skew = float(np.abs(mat - mat.conj().T).max())
    if skew > 1e-12:
        raise ValidationError(
            f"density matrix is not Hermitian: |rho - rho^dag| reaches "
            f"{skew:.3g}")
    trace = float(mat.trace().real)
    if trace > 1.0 + 1e-12:
        raise ValidationError(f"density matrix has trace {trace:.15g} > 1")
    lowest = float(np.linalg.eigvalsh(mat)[0])
    if lowest < -1e-12:
        raise ValidationError(
            "density matrix is not positive semidefinite: eigenvalue "
            f"{lowest:.3g}")
    return vec


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
    and g2 = 2*gamma (a number, or one per point broadcast against xs).
    It serves the steady solver's residual in double precision and, with
    mh, mhd and xs in clongdouble, in extended precision for refinement."""
    out = _left(mh, xs)
    out -= _right(xs, mhd)
    deph = g2 * xs
    deph[..., ::mh.shape[-1] + 1] = 0.0
    out -= deph
    return out


def _sparse_generator(mh, mhd, g2):
    """L as a sparse n^2 x n^2 matrix, mh x I - I x mhd^T - g2 on the
    coherences, from mh = -iH and mhd = -iH^dag (n x n) and g2 = 2*gamma.
    Its element formula is

        L[(n,m),(p,q)] = -i H[n,p] d(m,q) + i conj(H[m,q]) d(n,p)
                         - 2 gamma (1 - d(n,m)) d(n,p) d(m,q)

    with d the Kronecker delta."""
    n = mh.shape[-1]
    eye = sp.identity(n, format="csr")
    return (sp.kron(sp.csr_matrix(mh), eye)
            - sp.kron(eye, sp.csr_matrix(mhd.T))
            - sp.diags(g2 * (1.0 - np.eye(n)).reshape(-1)))


class Superoperator:
    """Master-equation generator acting on vectorized density matrices,
    held as the sparse matrix of _sparse_generator."""

    representation = "sparse"

    def __init__(self, n, gamma, hamiltonian):
        self.n = n
        self.gamma = gamma
        self.hamiltonian = hamiltonian
        self.dim = n * n
        self.matrix = _sparse_generator(-1j * hamiltonian,
                                        -1j * hamiltonian.conj().T,
                                        2.0 * gamma)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Action of the generator on a vectorized state."""
        return self.matrix @ vec


def build_liouvillian(spec: SystemSpec) -> Superoperator:
    """Generator of d/dt vec(rho) for the given spec, as used by propagate."""
    return Superoperator(spec.n, spec.gamma, build_hamiltonian(spec))
