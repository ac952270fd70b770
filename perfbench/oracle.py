"""Independent reference solver used to check the program's answers.

Written from the model's definition, not from the program's code: a
single excitation hops with unit strength between neighbouring sites of a
chain or ring; every site decays at 2*mu, trap sites at 2*(mu + kappa);
dephasing damps every coherence at 2*gamma.  With H = hopping
- i*diag(mu + kappa*[site is a trap]), the density matrix obeys

    d rho/dt = -i (H rho - rho H^dagger) - 2 gamma (rho - diag(rho)),

and its time integral X solves L(X) = -rho0.  The trapped share is
eta = 2 kappa sum_traps X[t, t]; the lost share is eta_loss = 2 mu tr X.

The generator is vectorised column by column (vec(X)[i + j*n] = X[i, j]),
which is the transpose of the program's layout.  Small systems go through
numpy.linalg.solve on the dense matrix, large ones through a sparse LU.
Every solve is certified by its relative residual.

This module imports nothing from the program.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.optimize as sopt
import scipy.sparse as sp
import scipy.sparse.linalg as spla

DENSE_MAX_N = 16        # dense numpy solve up to here, sparse LU above
RESIDUAL_MAX = 1e-10    # relative residual the oracle accepts from itself
GAMMA_RANGE = (1e-4, 1e4)


class OracleError(RuntimeError):
    """The reference solve itself is not trustworthy."""


def geometry(topology: str, n: int, traps, init: int):
    """(hopping matrix, trap mask, initial site) with 0-based sites.

    The semi-infinite geometry is an open chain whose trap region is given
    explicitly, so it needs no case of its own.
    """
    hop = np.zeros((n, n))
    i = np.arange(n - 1)
    hop[i, i + 1] = hop[i + 1, i] = 1.0
    if topology == "ring":
        hop[0, n - 1] = hop[n - 1, 0] = 1.0
    elif topology not in ("chain", "semi-infinite"):
        raise ValueError(f"unknown topology {topology!r}")
    mask = np.zeros(n, dtype=bool)
    mask[list(traps)] = True
    return hop, mask, init


def _generator(hop, mask, kappa, mu, gamma, sparse):
    n = hop.shape[0]
    decay = mu + kappa * mask
    if sparse:
        h = sp.csr_matrix(hop, dtype=complex) - 1j * sp.diags(decay)
        eye = sp.identity(n, dtype=complex, format="csr")
        kron = sp.kron
    else:
        h = hop.astype(complex) - 1j * np.diag(decay)
        eye = np.eye(n, dtype=complex)
        kron = np.kron
    # column-major: vec(A X) = (I (x) A) vec X, vec(X B) = (B^T (x) I) vec X
    lmat = -1j * (kron(eye, h) - kron(h.conj(), eye))
    off = np.ones((n, n)) - np.eye(n)
    damp = -2.0 * gamma * off.reshape(-1, order="F")
    if sparse:
        return (lmat + sp.diags(damp)).tocsc()
    return lmat + np.diag(damp)


def steady_integral(hop, mask, init, kappa, mu, gamma, sparse=None):
    """Time-integrated density matrix X (n x n) for a start on `init`."""
    n = hop.shape[0]
    if sparse is None:
        sparse = n > DENSE_MAX_N
    lmat = _generator(hop, mask, kappa, mu, gamma, sparse)
    rhs = np.zeros(n * n, dtype=complex)
    rhs[init + init * n] = -1.0
    if sparse:
        x = spla.splu(lmat).solve(rhs)
    else:
        x = np.linalg.solve(lmat, rhs)
    resid = np.linalg.norm(lmat @ x - rhs) / np.linalg.norm(rhs)
    if not resid <= RESIDUAL_MAX:
        raise OracleError(f"oracle residual {resid:.2e}")
    return x.reshape(n, n, order="F")


def efficiency(topology, n, traps, init, kappa, mu, gamma, sparse=None):
    """(eta, eta_loss) with 0-based sites."""
    hop, mask, init = geometry(topology, n, traps, init)
    x = steady_integral(hop, mask, init, kappa, mu, gamma, sparse)
    pops = np.diagonal(x)
    return (float(2.0 * kappa * pops[mask].sum().real),
            float(2.0 * mu * pops.sum().real))


def semi_infinite(kappa, mu, gamma, offset, left, right):
    """eta on the truncated half-infinite chain: `left` trap sites, the
    start `offset` sites past the trap edge, `right` free sites beyond."""
    n = left + offset + right
    return efficiency("semi-infinite", n, range(left), left - 1 + offset,
                      kappa, mu, gamma)[0]


def best_eta(topology, n, traps, init, kappa, mu, points=401):
    """(eta at gamma = 0, max over gamma in [0, 1e4] of eta).

    A dense log grid locates the best cell; a bounded scalar search in
    log gamma between its neighbours refines it.
    """
    def eta(g):
        return efficiency(topology, n, traps, init, kappa, mu, g)[0]

    grid = np.geomspace(*GAMMA_RANGE, points)
    etas = np.array([eta(g) for g in grid])
    eta0 = eta(0.0)
    i = int(np.argmax(etas))
    if etas[i] <= eta0:
        return eta0, eta0
    lo = math.log(grid[max(i - 1, 0)])
    hi = math.log(grid[min(i + 1, points - 1)])
    res = sopt.minimize_scalar(lambda s: -eta(math.exp(s)), bounds=(lo, hi),
                               method="bounded",
                               options={"xatol": 1e-9})
    return eta0, max(float(etas[i]), float(-res.fun))
