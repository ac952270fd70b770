"""Acceptance suite: ten end-to-end checks with hard tolerances.

Each test prints one `[criterion N] PASS/FAIL` summary line (visible with
`pytest -s`).  Criterion 4 is expected to fail on two table entries whose
tabulated value of 0 disagrees with what the solver reproducibly finds;
the evidence is recorded in docs/decisions.md.
"""

import os
import time

import numpy as np
import pytest

from enaqt import (
    SystemSpec,
    average_population,
    circle_max_enaqt,
    efficiency_curve,
    efficiency_direct,
    eta3_closed_form,
    infinite_chain_enaqt,
    max_enaqt,
    optimize_dephasing,
    propagate,
    symmetry_split,
)
from enaqt import analysis
from dense_oracles import efficiency_accumulator, hopping


def _report(k, ok, detail):
    print(f"[criterion {k}] {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_1_reference_curve_peak():
    t0 = time.perf_counter()
    res = optimize_dephasing(SystemSpec("chain", 3, (0,), 1, 0.1, 0.01, 0.0))
    dt = time.perf_counter() - t0
    ok = (abs(res.gamma_opt - 0.319) <= 0.002
          and abs(res.xi - 0.038) <= 0.001
          and dt < 1.0)
    _report(1, ok, f"gamma_opt={res.gamma_opt:.4f} xi={res.xi:.4f} "
            f"({dt:.2f}s)")
    assert ok


def test_criterion_2_closed_form_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        g, k, m = 10 ** rng.uniform(-3, 1, size=3)
        spec = SystemSpec("chain", 3, (0,), 1, float(k), float(m), float(g))
        diff = abs(eta3_closed_form(float(g), float(k), float(m))
                   - efficiency_direct(spec).eta)
        worst = max(worst, diff)
    dt = time.perf_counter() - t0
    ok = worst < 1e-10 and dt < 5.0
    _report(2, ok, f"max |closed form - solver| = {worst:.2e} ({dt:.2f}s)")
    assert ok


def test_criterion_3_extremal_enhancement():
    t0 = time.perf_counter()
    best = max_enaqt("chain", 3, 1, 2)
    target = 7 - 4 * np.sqrt(3)
    # approach to the limiting optimum along mu = kappa / (2 sqrt 3)
    kappa = 1e-4
    ray = optimize_dephasing(
        SystemSpec("chain", 3, (0,), 1, kappa, kappa / (2 * np.sqrt(3)), 0.0))
    dt = time.perf_counter() - t0
    ok = (abs(best.xi - target) <= 1e-3
          and abs(ray.gamma_opt - 0.4151) <= 5e-3
          and dt < 60.0)
    _report(3, ok, f"xi_max={best.xi:.6f} (target {target:.6f}), "
            f"gamma_opt on ray={ray.gamma_opt:.5f} ({dt:.1f}s)")
    assert ok


# Reference maximum-enhancement table, 1-based (trap, init) -> value.
# Tolerance class: zeros must come out < 1e-6, fractions (boundary-limit
# optima) within 5e-3, interior optima within 1e-3.
TABLE = {
    3: {(1, 2): 0.072, (1, 3): 0.0,
        (2, 1): 0.5, (2, 3): 0.5},
    4: {(1, 2): 0.083, (1, 3): 0.083, (1, 4): 0.0,
        (2, 1): 0.083, (2, 3): 0.0, (2, 4): 0.083},
    5: {(1, 2): 0.082, (1, 3): 0.107, (1, 4): 0.082, (1, 5): 0.0,
        (2, 1): 1 / 3, (2, 3): 1 / 3, (2, 4): 0.0, (2, 5): 1 / 3,
        (3, 1): 0.5, (3, 2): 0.5, (3, 4): 0.5, (3, 5): 0.5},
}
TABLE_EXTENDED = {
    6: {(1, 2): 0.080, (1, 3): 0.114, (1, 4): 0.114, (1, 5): 0.080,
        (1, 6): 0.0,
        (2, 1): 0.114, (2, 3): 0.080, (2, 4): 0.080, (2, 5): 0.0,
        (2, 6): 0.114,
        (3, 1): 0.080, (3, 2): 0.114, (3, 4): 0.0, (3, 5): 0.114,
        (3, 6): 0.080},
    7: {(1, 2): 0.077, (1, 3): 0.115, (1, 4): 0.125, (1, 5): 0.115,
        (1, 6): 0.077, (1, 7): 0.0,
        (2, 1): 0.25, (2, 3): 0.25, (2, 4): 0.033, (2, 5): 0.25,
        (2, 6): 0.0, (2, 7): 0.25,
        (3, 1): 0.115, (3, 2): 0.077, (3, 4): 0.125, (3, 5): 0.0,
        (3, 6): 0.077, (3, 7): 0.115,
        (4, 1): 0.5, (4, 2): 0.5, (4, 3): 0.5, (4, 5): 0.5, (4, 6): 0.5,
        (4, 7): 0.5},
    8: {(1, 2): 0.074, (1, 3): 0.114, (1, 4): 0.128, (1, 5): 0.128,
        (1, 6): 0.114, (1, 7): 0.074, (1, 8): 0.0,
        (2, 1): 0.128, (2, 3): 0.114, (2, 4): 0.074, (2, 5): 0.074,
        (2, 6): 0.114, (2, 7): 0.0, (2, 8): 0.128,
        (3, 1): 1 / 3, (3, 2): 1 / 3, (3, 4): 1 / 3, (3, 5): 1 / 3,
        (3, 6): 0.0, (3, 7): 1 / 3, (3, 8): 1 / 3,
        (4, 1): 0.074, (4, 2): 0.128, (4, 3): 0.114, (4, 5): 0.0,
        (4, 6): 0.114, (4, 7): 0.128, (4, 8): 0.074},
}
FRACTIONS = (0.5, 1 / 3, 0.25)


def _check_table_rows(table, budget):
    t0 = time.perf_counter()
    misses = []
    for n, row in table.items():
        for (trap, init), expected in row.items():
            got = max_enaqt("chain", n, trap, init).xi
            if expected == 0.0:
                tol, kind = 1e-6, "zero"
            elif any(abs(expected - f) < 1e-9 for f in FRACTIONS):
                tol, kind = 5e-3, "boundary"
            else:
                tol, kind = 1e-3, "interior"
            if abs(got - expected) > tol:
                misses.append((n, trap, init, expected, got, kind))
    dt = time.perf_counter() - t0
    return misses, dt, dt < budget


def test_criterion_4_table_regression():
    misses, dt, in_budget = _check_table_rows(TABLE, budget=600.0)
    ok = not misses and in_budget
    detail = f"{sum(len(r) for r in TABLE.values())} entries ({dt:.1f}s)"
    if misses:
        detail += "; divergent entries (see docs/decisions.md):"
    _report(4, ok, detail)
    for n, trap, init, expected, got, kind in misses:
        print(f"    N={n} trap={trap} init={init}: table says "
              f"{expected:g}, solver finds {got:.6f} ({kind})")
    assert ok, (
        "solver reproducibly finds nonzero maxima where the reference "
        f"table says 0: {[(m[0], m[1], m[2]) for m in misses]}")


@pytest.mark.skipif(not os.environ.get("ENAQT_EXTENDED_TABLE"),
                    reason="extended rows: set ENAQT_EXTENDED_TABLE=1")
def test_criterion_4_table_regression_extended():
    misses, dt, in_budget = _check_table_rows(TABLE_EXTENDED, budget=600.0)
    ok = not misses and in_budget
    detail = (f"{sum(len(r) for r in TABLE_EXTENDED.values())} entries "
              f"({dt:.1f}s)")
    if misses:
        detail += "; divergent entries (see docs/decisions.md):"
    _report("4-ext", ok, detail)
    for n, trap, init, expected, got, kind in misses:
        print(f"    N={n} trap={trap} init={init}: table says "
              f"{expected:g}, solver finds {got:.6f} ({kind})")
    assert ok


@pytest.mark.skipif(not os.environ.get("ENAQT_EXTENDED_TABLE"),
                    reason="survey of the scan: set ENAQT_EXTENDED_TABLE=1")
def test_coarse_gamma_scan_survey(monkeypatch):
    # the GRID_POINTS scan against a 64-point one on 103 geometries (the
    # table chains and the rings of 4-8 sites at every distance) x 144
    # (kappa, mu) cells of a 12 x 12 log grid over RATE_BOUNDS
    t0 = time.perf_counter()
    geometries = [("chain", n, trap, init)
                  for table in (TABLE, TABLE_EXTENDED)
                  for n, row in table.items() for trap, init in row]
    geometries += [("ring", n, 1, 1 + d)
                   for n in range(4, 9) for d in range(1, n // 2 + 1)]
    grid = np.geomspace(*analysis.RATE_BOUNDS, 12)
    kappas, mus = (v.ravel() for v in np.meshgrid(grid, grid, indexing="ij"))
    coarse_points = analysis.GRID_POINTS

    def xi(spec, points):
        # the 64-point reference patches the one grid size of a scan
        monkeypatch.setattr(analysis, "GRID_POINTS", points)
        return [res.xi for res in analysis._optimize_cells(
            spec, kappas, mus)[0]]

    worst = 0.0
    for geometry in geometries:
        spec = analysis._geometry_spec(*geometry, ("trap", "init"))
        coarse, fine = (xi(spec, points) for points in (coarse_points, 64))
        worst = max(worst, float(np.max(np.abs(np.subtract(coarse, fine)))))
    dt = time.perf_counter() - t0
    _report("scan", worst <= 1e-9,
            f"{len(geometries)} geometries x {kappas.size} cells: "
            f"max |xi - xi(64 points)| = {worst:.1e} ({dt:.1f}s)")
    assert len(geometries) == 103
    assert worst <= 1e-9


def test_criterion_5_weak_rate_limits():
    t0 = time.perf_counter()
    spec = SystemSpec("chain", 3, (0,), 1, 1e-3, 1e-3, 0.0)
    pts = dict(efficiency_curve(spec, [0.0, 1.0]))
    res = optimize_dephasing(spec)
    dt = time.perf_counter() - t0
    ok = (abs(pts[0.0] - 0.200) <= 0.005
          and abs(pts[1.0] - 0.250) <= 0.01
          and abs(res.xi - 0.050) <= 0.005
          and dt < 10.0)
    _report(5, ok, f"eta(0)={pts[0.0]:.4f} eta(1)={pts[1.0]:.4f} "
            f"xi={res.xi:.4f} ({dt:.2f}s)")
    assert ok


def test_criterion_6_circle_dichotomy():
    # the plane search on the ring against the closed-form dichotomy
    t0 = time.perf_counter()
    results = {}
    for n in (4, 5, 6):
        for dist in range(1, n // 2 + 1):
            results[(n, dist)] = max_enaqt("ring", n, 1, 1 + dist).xi
    dt = time.perf_counter() - t0
    ok = dt < 600.0
    for (n, dist), xi in results.items():
        expected = circle_max_enaqt(n, 1, 1 + dist)
        if expected == 0.0:
            ok = ok and xi < 1e-6
        else:
            ok = ok and abs(xi - expected) <= 5e-3
    shown = " ".join(f"N={n},d={d}:{xi:.4f}"
                     for (n, d), xi in results.items())
    _report(6, ok, f"{shown} ({dt:.1f}s)")
    assert ok


def test_criterion_7_symmetry_suite():
    t0 = time.perf_counter()
    ok = True
    details = []
    for n in (3, 5, 7):
        spec = SystemSpec("chain", n, (n // 2,), 0, 0.1, 1e-6, 0.0)
        eta0 = efficiency_direct(spec).eta
        _, eta_a = symmetry_split(spec)
        ok = ok and abs(eta0 - 0.5) <= 1e-3 and abs(eta_a) < 1e-3
        details.append(f"N={n}: eta0={eta0:.5f} eta_A={eta_a:.1e}")
    dt = time.perf_counter() - t0
    ok = ok and dt < 10.0
    _report(7, ok, "; ".join(details) + f" ({dt:.2f}s)")
    assert ok


def test_criterion_8_infinite_chain():
    t0 = time.perf_counter()
    res = infinite_chain_enaqt(kappa=6.3, mu=0.1, offset=1)
    dt = time.perf_counter() - t0
    ok = (abs(res.xi - 0.1233) <= 0.005
          and res.truncation_delta < 1e-4
          and dt < 600.0)
    _report(8, ok, f"xi={res.xi:.5f} gamma_opt={res.gamma_opt:.4f} "
            f"sites={res.n_total} |delta eta|={res.truncation_delta:.1e} "
            f"({dt:.1f}s)")
    assert ok


def test_criterion_9_solver_cross_validation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    worst_pair = 0.0
    worst_budget = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 7))
        trap = int(rng.integers(0, n))
        init = int(rng.integers(0, n))
        if init == trap:
            init = (trap + 1) % n
        spec = SystemSpec(
            "ring" if rng.random() < 0.3 else "chain", n, (trap,), init,
            kappa=float(10 ** rng.uniform(-2, 1)),
            mu=float(10 ** rng.uniform(-2, 0)),
            gamma=float(10 ** rng.uniform(-3, 1)),
        )
        d = efficiency_direct(spec)
        worst_budget = max(worst_budget, abs(d.eta + d.eta_loss - 1.0))
        for eps in (1e-3, 1.0, 1e3):
            a = efficiency_accumulator(spec, epsilon=eps)
            worst_pair = max(worst_pair, abs(a.eta - d.eta))
            worst_budget = max(worst_budget, abs(a.eta + a.eta_loss - 1.0))
        traj = propagate(spec, horizon=8.0 / spec.mu)
        worst_pair = max(worst_pair, abs(traj.eta_estimate - d.eta))
        worst_budget = max(
            worst_budget,
            abs(traj.eta_estimate + traj.eta_loss_estimate - 1.0))
    dt = time.perf_counter() - t0
    ok = worst_pair < 1e-6 and worst_budget < 1e-8 and dt < 120.0
    _report(9, ok, f"max method disagreement={worst_pair:.2e}, "
            f"max |eta+eta'-1|={worst_budget:.2e} ({dt:.1f}s)")
    assert ok


def _time_averaged_populations(h, horizon=1e4, dt=0.01):
    # midpoint-rule average of |U_lm(t)|^2 straight from the propagator;
    # independent of the closed-form average being tested
    lam, vv = np.linalg.eigh(h.real)
    n = h.shape[0]
    weights = (vv[:, None, :] * vv[None, :, :]).reshape(n * n, n)
    steps = int(round(horizon / dt))
    acc = np.zeros(n * n)
    chunk = 50_000
    for start in range(0, steps, chunk):
        ts = (np.arange(start, min(start + chunk, steps)) + 0.5) * dt
        phases = np.exp(-1j * np.outer(lam, ts))
        amp = weights @ phases
        acc += (amp.real ** 2 + amp.imag ** 2).sum(axis=1)
    return (acc / steps).reshape(n, n)


def test_criterion_10_average_population_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for topology, lo in (("chain", 2), ("ring", 3)):
        for n in range(lo, 9):
            averaged = _time_averaged_populations(hopping(topology, n))
            for l in range(1, n + 1):
                for m in range(1, n + 1):
                    predicted = float(average_population(topology, n, l, m))
                    diff = abs(predicted - averaged[l - 1, m - 1])
                    worst = max(worst, diff)
    dt = time.perf_counter() - t0
    ok = worst < 1e-3 and dt < 120.0
    _report(10, ok, f"max |formula - time average| = {worst:.2e} ({dt:.1f}s)")
    assert ok
