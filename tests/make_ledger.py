"""Write the results ledger, tests/ledger.json.

The ledger records what the program computes on fixed inputs, not
reference values: a change that promises the same numbers is checked
against it by tests/test_ledger.py.  It has two parts.

* "cheap" (compared in every test run, about a second):
  - max_enaqt on the seven small geometries of the plane-search benchmark;
  - a 16 x 16 plane_sweep of each of them over np.geomspace(1e-4, 1e2, 16)
    on both axes;
  - infinite_chain_enaqt(6.3, mu) at mu = 1, 0.5 and 0.3.
* "gated" (compared only with ENAQT_EXTENDED_TABLE=1, about half a minute):
  - max_enaqt at the 22 + 67 chain entries of the maximum-enhancement table
    (N = 3-8, trap in the left half, any other start);
  - max_enaqt on the rings of the circle dichotomy (N = 4, 5, 6, every
    distance);
  - infinite_chain_enaqt(6.3, 0.1).

Run from the repository root:

    PYTHONPATH=src python tests/make_ledger.py

A rewritten ledger is new test data: record why it changed.
"""

import json
import pathlib

import numpy as np

from enaqt import infinite_chain_enaqt, max_enaqt, plane_sweep

LEDGER = pathlib.Path(__file__).with_name("ledger.json")

PLANE_GEOMETRIES = (("chain", 3, 1, 2), ("chain", 4, 2, 3),
                    ("chain", 5, 2, 4), ("chain", 5, 1, 3),
                    ("ring", 4, 1, 2), ("ring", 5, 1, 3), ("ring", 4, 1, 3))
SWEEP_GRID = np.geomspace(1e-4, 1e2, 16)
INFINITE_KAPPA = 6.3
CHEAP_MUS = (1.0, 0.5, 0.3)
GATED_MUS = (0.1,)
TABLE_GEOMETRIES = tuple(("chain", n, trap, init) for n in range(3, 9)
                         for trap in range(1, (n + 1) // 2 + 1)
                         for init in range(1, n + 1) if init != trap)
RING_GEOMETRIES = tuple(("ring", n, 1, 1 + dist) for n in (4, 5, 6)
                        for dist in range(1, n // 2 + 1))


def _key(geometry):
    return " ".join(str(v) for v in geometry)


def _max_enaqt(geometries):
    return {_key(g): max_enaqt(*g)._asdict() for g in geometries}


def _infinite(mus):
    out = {}
    for mu in mus:
        res = infinite_chain_enaqt(INFINITE_KAPPA, mu)
        out[repr(mu)] = {"eta0": res.eta0, "eta_max": res.eta_max,
                         "gamma_opt": res.gamma_opt, "xi": res.xi,
                         "left": res.left, "right": res.right}
    return out


def cheap() -> dict:
    maps = {}
    for g in PLANE_GEOMETRIES:
        m = plane_sweep(*g, kappa_grid=SWEEP_GRID, mu_grid=SWEEP_GRID)
        maps[_key(g)] = {"eta0": m.eta0.tolist(), "xi": m.xi.tolist(),
                         "gamma_opt": m.gamma_opt.tolist(),
                         "errors": len(m.errors)}
    return {"max_enaqt": _max_enaqt(PLANE_GEOMETRIES), "plane_sweep": maps,
            "infinite": _infinite(CHEAP_MUS)}


def gated() -> dict:
    return {"table": _max_enaqt(TABLE_GEOMETRIES),
            "ring": _max_enaqt(RING_GEOMETRIES),
            "infinite": _infinite(GATED_MUS)}


if __name__ == "__main__":
    LEDGER.write_text(json.dumps({"cheap": cheap(), "gated": gated()},
                                 indent=1) + "\n", encoding="utf-8")
    print(f"wrote {LEDGER}")
