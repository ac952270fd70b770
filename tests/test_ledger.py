"""The program's results against the ledger that tests/make_ledger.py wrote.

Probabilities (eta0, eta_max, xi) must agree within 1e-9 absolute, the
rates of an optimum (kappa, mu, gamma_opt) within 1e-6 relative, and
counts (truncation sizes, failed cells) exactly.
"""

import json
import math
import os

import pytest

import make_ledger

PROBABILITIES = {"eta0", "eta_max", "xi"}
RATES = {"kappa", "mu", "gamma_opt"}


def _differences(got, want, path="", name=""):
    """Every place where got strays from want, as 'path: got vs want';
    name is the key of the innermost dict entry, which sets the check."""
    if isinstance(want, dict):
        assert set(got) == set(want), f"{path}: keys {sorted(got)}"
        return [d for key in want
                for d in _differences(got[key], want[key], f"{path}/{key}",
                                      key)]
    if isinstance(want, list):
        assert len(got) == len(want), f"{path}: length {len(got)}"
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in _differences(g, w, f"{path}[{i}]", name)]
    if name in PROBABILITIES:
        ok = math.isclose(got, want, rel_tol=0.0, abs_tol=1e-9)
    elif name in RATES:
        ok = math.isclose(got, want, rel_tol=1e-6, abs_tol=0.0)
    else:
        ok = got == want
    return [] if ok else [f"{path}: {got!r} vs {want!r}"]


def _check(part):
    want = json.loads(make_ledger.LEDGER.read_text(encoding="utf-8"))[part]
    differences = _differences(getattr(make_ledger, part)(), want)
    assert not differences, "\n".join(differences[:20])


def test_ledger_cheap_part():
    _check("cheap")


@pytest.mark.skipif(not os.environ.get("ENAQT_EXTENDED_TABLE"),
                    reason="gated ledger: set ENAQT_EXTENDED_TABLE=1")
def test_ledger_gated_part():
    _check("gated")
