"""Tests of the benchmark's reference solver.

    python3 -m pytest -q perfbench/test_oracle.py
"""

import math

import numpy as np
import pytest

import oracle

CASES = [
    ("chain", 2, (0,), 1, 0.3, 0.02, 0.0),
    ("chain", 3, (0,), 1, 0.1, 0.01, 0.5),
    ("chain", 7, (3,), 0, 2.0, 1e-3, 30.0),
    ("ring", 5, (0,), 2, 1.3, 0.2, 1e-3),
    ("ring", 6, (1,), 4, 1e-2, 1e-4, 1e2),
    ("semi-infinite", 9, (0, 1, 2), 3, 6.3, 0.5, 1.0),
]


@pytest.mark.parametrize("case", CASES)
def test_dense_and_sparse_routes_agree(case):
    dense = oracle.efficiency(*case, sparse=False)
    sparse = oracle.efficiency(*case, sparse=True)
    assert np.allclose(dense, sparse, rtol=0, atol=1e-12)


@pytest.mark.parametrize("case", CASES)
def test_trapped_and_lost_shares_sum_to_one(case):
    eta, eta_loss = oracle.efficiency(*case)
    assert 0 <= eta <= 1
    assert abs(eta + eta_loss - 1) <= 1e-12


def test_three_site_limit():
    # Chain N=3, trap 1, start 2: the paper's largest gain 7 - 4 sqrt 3 is
    # approached along mu = kappa / (2 sqrt 3) as kappa -> 0.
    kappa = 1e-4
    eta0, eta_max = oracle.best_eta("chain", 3, (0,), 1, kappa,
                                    kappa / (2 * math.sqrt(3)))
    assert abs(eta_max - eta0 - (7 - 4 * math.sqrt(3))) <= 1e-3


def test_end_trap_catches_everything_without_loss():
    # Every eigenstate of an open chain reaches its end site, so with
    # mu -> 0+ the trap at one end catches the whole excitation.
    eta, _ = oracle.efficiency("chain", 4, (0,), 3, 1.0, 1e-9, 0.0)
    assert eta == pytest.approx(1.0, abs=1e-6)
