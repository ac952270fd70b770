"""Analysis-layer tests: optimization, closed forms, estimates, sweeps."""

import logging
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enaqt import (
    EigenbasisSteadySolver,
    EnaqtResult,
    SingularSystemError,
    SystemSpec,
    TruncationError,
    ValidationError,
    average_population,
    chain_amplitude,
    circle_max_enaqt,
    dephased_efficiency_estimate,
    efficiency_curve,
    efficiency_direct,
    enaqt_estimate,
    eta3_closed_form,
    infinite_chain_enaqt,
    max_enaqt,
    no_enaqt_region,
    optimize_dephasing,
    plane_sweep,
    semi_infinite_spec,
    symmetry_split,
)
from enaqt import analysis
import enaqt.solver as solver_module
import make_ledger
from dense_oracles import (
    dense_lu_branching,
    hopping,
    rate_plane_polish_xi,
    rate_plane_sweep_xi,
    sparse_lu_branching,
)

FIG1B = SystemSpec("chain", 3, (0,), 1, kappa=0.1, mu=0.01, gamma=0.0)


def _fail_every_solve(monkeypatch):
    """Make every point fail certification, and the sparse LU that its
    fallback chain then factors raise: every cell of every solver fails."""
    certify = EigenbasisSteadySolver._certify

    def uncertified(self, *args):
        eta, eta_loss, resid, certified = certify(self, *args)
        return eta, eta_loss, resid, np.zeros_like(certified)

    def failing_splu(matrix):
        raise RuntimeError("factor is exactly singular")

    monkeypatch.setattr(EigenbasisSteadySolver, "_certify", uncertified)
    monkeypatch.setattr("enaqt.solver.spla.splu", failing_splu)


class TestClosedForm:
    def test_symmetric_point(self):
        # oracle: rational steady-state solution at gamma=kappa=mu=1,
        # reduced by hand to 25/401
        assert eta3_closed_form(1.0, 1.0, 1.0) == pytest.approx(
            25 / 401, abs=1e-15)

    def test_undephased_value(self):
        # oracle: alpha0/beta0 at kappa=0.1, mu=0.01 (mpmath, 50 digits)
        assert eta3_closed_form(0.0, 0.1, 0.01) == pytest.approx(
            0.7128965580831489, abs=1e-15)

    def test_matches_numeric_solver(self):
        rng = np.random.default_rng(100)
        for _ in range(100):
            g, k, m = 10 ** rng.uniform(-3, 1, size=3)
            spec = SystemSpec("chain", 3, (0,), 1, float(k), float(m), float(g))
            assert eta3_closed_form(float(g), float(k), float(m)) == \
                pytest.approx(dense_lu_branching(spec)[0], abs=1e-10)

    def test_rejects_negative_rates(self):
        with pytest.raises(ValidationError):
            eta3_closed_form(-1.0, 0.1, 0.1)

    def test_undefined_without_any_rate(self):
        with pytest.raises(ValidationError,
                           match="undefined at kappa = mu = gamma = 0"):
            eta3_closed_form(0.0, 0.0, 0.0)


class TestNoEnaqtRegion:
    def test_known_enaqt_point(self):
        # (0.1, 0.01) shows clear enhancement, so it is not in the region
        assert no_enaqt_region(0.1, 0.01) is False

    def test_large_loss_kills_enhancement(self):
        assert no_enaqt_region(0.1, 10.0) is True

    def test_consistent_with_optimizer(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            k, m = 10 ** rng.uniform(-2, 1, size=2)
            spec = SystemSpec("chain", 3, (0,), 1, float(k), float(m), 0.0)
            res = optimize_dephasing(spec)
            flat = no_enaqt_region(float(k), float(m))
            assert flat == (res.xi <= 1e-9), (k, m, res.xi)

    def test_small_kappa_boundary_case(self):
        # at kappa=1e-3, mu=0.1 a weak but genuine maximum survives
        # (xi ~ 5.5e-4 at gamma ~ 0.6), so the point is outside the region
        assert no_enaqt_region(1e-3, 0.1) is False
        res = optimize_dephasing(
            SystemSpec("chain", 3, (0,), 1, 1e-3, 0.1, 0.0))
        assert res.xi > 1e-4
        assert res.gamma_opt > 0.1


class TestOptimizeDephasing:
    def test_reference_curve_peak(self):
        res = optimize_dephasing(FIG1B)
        assert res.gamma_opt == pytest.approx(0.319, abs=2e-3)
        assert res.xi == pytest.approx(0.038, abs=1e-3)
        assert res.eta0 == pytest.approx(0.7128965580831489, abs=1e-9)
        assert res.eta_max == pytest.approx(res.eta0 + res.xi, abs=1e-12)

    def test_weak_rate_corner(self):
        res = optimize_dephasing(SystemSpec("chain", 3, (0,), 1, 1e-3, 1e-3, 0.0))
        assert res.eta0 == pytest.approx(0.2, abs=5e-3)
        assert res.xi == pytest.approx(0.05, abs=5e-3)

    def test_flat_curve_reports_zero(self):
        # mirror geometry: dephasing only hurts, optimum sits at gamma=0
        spec = SystemSpec("chain", 3, (0,), 2, 0.1, 0.01, 0.0)
        res = optimize_dephasing(spec)
        assert res.gamma_opt == 0.0
        assert res.xi == 0.0
        assert res.eta_max == res.eta0

    def test_requires_positive_rates(self):
        with pytest.raises(ValidationError):
            optimize_dephasing(SystemSpec("chain", 3, (0,), 1, 0.0, 0.01, 0.0))
        with pytest.raises(ValidationError):
            optimize_dephasing(SystemSpec("chain", 3, (0,), 1, 0.1, 0.0, 0.0))

    def test_failed_solve_is_raised(self, monkeypatch):
        _fail_every_solve(monkeypatch)
        with pytest.raises(SingularSystemError,
                           match="sparse fallback failed"):
            optimize_dephasing(FIG1B)

    def test_result_is_frozen(self):
        res = optimize_dephasing(FIG1B)
        assert isinstance(res, EnaqtResult)
        with pytest.raises(AttributeError):
            res.xi = 0.0


def test_efficiency_curve_shape_and_values():
    grid = [0.0, 0.1, 1.0]
    pts = efficiency_curve(SystemSpec("chain", 3, (0,), 1, 1e-3, 1e-3, 0.0),
                           grid)
    assert [g for g, _ in pts] == grid
    assert pts[0][1] == pytest.approx(0.2, abs=5e-3)
    # weak-rate plateau: eta ~ 1/4 around gamma ~ 1
    assert pts[2][1] == pytest.approx(0.25, abs=1e-2)


def test_efficiency_curve_zero_trapping():
    pts = efficiency_curve(SystemSpec("chain", 3, (0,), 1, 0.0, 0.1, 0.0),
                           [0.0, 1.0, 10.0])
    assert all(eta == 0.0 for _, eta in pts)


class TestMaxEnaqt:
    def test_three_site_donor_acceptor(self):
        # global maximum 7 - 4 sqrt(3), attained toward the small-rate
        # corner of the search box
        best = max_enaqt("chain", 3, 1, 2)
        assert best.xi == pytest.approx(7 - 4 * np.sqrt(3), abs=1e-3)
        assert best.kappa < 1e-2 and best.mu < 1e-2

    def test_mirror_geometry_zero(self):
        assert max_enaqt("chain", 3, 1, 3).xi < 1e-6
        assert max_enaqt("chain", 4, 1, 4).xi < 1e-6

    def test_interior_chain_value(self):
        assert max_enaqt("chain", 4, 1, 2).xi == pytest.approx(0.083, abs=1e-3)

    def test_half_for_interior_trap(self):
        # trap strictly inside the chain: the antisymmetric half of the
        # initial state is dark, and dephasing can recover all of it
        assert max_enaqt("chain", 3, 2, 1).xi == pytest.approx(0.5, abs=5e-3)

    def test_mirror_pair_symmetry(self):
        a = max_enaqt("chain", 5, 1, 2).xi
        b = max_enaqt("chain", 5, 1, 4).xi
        assert a == pytest.approx(b, abs=1e-3)

    def test_rejects_semi_infinite(self):
        with pytest.raises(ValidationError):
            max_enaqt("semi-infinite", 10, 1, 5)

    def test_numpy_integer_site_count(self):
        assert max_enaqt("chain", np.int64(5), 2, 4) == max_enaqt(
            "chain", 5, 2, 4)

    @pytest.mark.parametrize("trap,init", [(1.5, 2), ("1", 2), (1, 2.0)])
    def test_non_integer_site_rejected(self, trap, init):
        # int() would truncate 1.5 to site 1 and search that geometry
        with pytest.raises(ValidationError, match="must be an integer"):
            max_enaqt("chain", 3, trap, init)


@pytest.mark.parametrize("call", [
    lambda: enaqt_estimate("chain", 4, 1.0, 0.1, 2, 2),
    lambda: enaqt_estimate("ring", 5, 1.0, 0.1, 3, 3),
    lambda: circle_max_enaqt(5, 2, 2),
    lambda: max_enaqt("chain", 4, 3, 3),
], ids=["estimate-chain", "estimate-ring", "circle", "max_enaqt"])
def test_trap_on_the_initial_site_rejected(call):
    with pytest.raises(ValidationError, match="must differ"):
        call()


def test_circle_max_enaqt_dichotomy():
    # antipodal start refocuses perfectly: no enhancement at all;
    # every other geometry saturates at 1/2
    assert circle_max_enaqt(4, 1, 3) < 1e-6
    assert circle_max_enaqt(6, 2, 5) < 1e-6
    assert circle_max_enaqt(4, 1, 2) == pytest.approx(0.5, abs=5e-3)
    assert circle_max_enaqt(5, 1, 3) == pytest.approx(0.5, abs=5e-3)


class TestChainAmplitude:
    def test_identity_at_time_zero(self):
        for n in (2, 3, 5):
            for l in range(1, n + 1):
                for m in range(1, n + 1):
                    val = chain_amplitude(n, l, m, 0.0)
                    assert val == pytest.approx(1.0 if l == m else 0.0,
                                                abs=1e-12)

    def test_two_site_cosine(self):
        ts = np.linspace(0.0, 5.0, 11)
        amp = chain_amplitude(2, 1, 1, ts)
        assert np.allclose(np.abs(amp) ** 2, np.cos(ts) ** 2, atol=1e-12)

    def test_unitarity(self):
        n, t = 6, 3.7
        col = np.array([chain_amplitude(n, l, 2, t) for l in range(1, n + 1)])
        assert np.abs(col) @ np.abs(col) == pytest.approx(1.0, abs=1e-12)

    def test_site_range_checked(self):
        with pytest.raises(ValidationError):
            chain_amplitude(3, 0, 1, 0.0)
        with pytest.raises(ValidationError):
            chain_amplitude(3, 1, 4, 0.0)


class TestAveragePopulation:
    def test_chain_mirror_site(self):
        # l = m and l = N+1-m coincide for the middle site: 1/2
        assert float(average_population("chain", 3, 2, 2)) == pytest.approx(
            0.5, abs=1e-15)

    def test_chain_edge_pair(self):
        assert float(average_population("chain", 3, 1, 3)) == pytest.approx(
            3 / 8, abs=1e-15)

    def test_ring_even_antipode(self):
        assert float(average_population("ring", 4, 3, 1)) == pytest.approx(
            3 / 8, abs=1e-15)

    def test_ring_even_neighbor(self):
        assert float(average_population("ring", 4, 2, 1)) == pytest.approx(
            1 / 8, abs=1e-15)

    def test_normalization(self):
        for topology, lo in (("chain", 2), ("ring", 3)):
            for n in range(lo, 13):
                for m in range(1, n + 1):
                    total = sum(
                        float(average_population(topology, n, l, m))
                        for l in range(1, n + 1))
                    assert total == pytest.approx(1.0, abs=1e-12)

    def test_self_population_enhanced(self):
        # the starting site always keeps more than the uniform share
        for n in (4, 5, 7):
            assert float(average_population("chain", n, 2, 2)) > 1 / n
            assert float(average_population("ring", n, 2, 2)) > 1 / n

    @pytest.mark.parametrize("l,m", [(2.9, 2), (2, "2"), (2, 2.0)])
    def test_non_integer_site_rejected(self, l, m):
        with pytest.raises(ValidationError, match="must be an integer"):
            average_population("chain", 3, l, m)

    def test_semi_infinite_rejected(self):
        with pytest.raises(ValidationError,
                           match="defined for chain and ring only"):
            average_population("semi-infinite", 4, 1, 2)

    def test_matches_time_average_spot(self):
        # midpoint-rule time average of |U_lm|^2 over T=2000
        n, l, m = 4, 2, 3
        ts = np.arange(0.5, 2000.0, 1.0) * 1.0
        amps = chain_amplitude(n, l, m, ts)
        time_avg = float(np.mean(np.abs(amps) ** 2))
        assert float(average_population("chain", n, l, m)) == pytest.approx(
            time_avg, abs=2e-3)


class TestEnaqtEstimate:
    def test_three_site_weak_rates(self):
        # kappa = mu: dephased estimate 1/(1+N mu/kappa) = 1/4, coherent
        # estimate 1/5, so the enhancement estimate is 1/20
        assert enaqt_estimate("chain", 3, 1e-3, 1e-3, 1, 2) == pytest.approx(
            0.05, abs=1e-12)

    def test_mirror_configuration_zero(self):
        assert enaqt_estimate("chain", 3, 1e-3, 1e-3, 1, 3) == 0.0
        assert enaqt_estimate("chain", 5, 1e-2, 1e-3, 2, 4) == 0.0

    @pytest.mark.parametrize("trap,init", [(2.9, 3), ("2", 3), (2, 3.0)])
    def test_non_integer_site_rejected(self, trap, init):
        # int() truncated trap 2.9 to 2, and the mirror check then missed
        # the mirror pair (2, 3) of a 4-site chain and returned 0.0476
        with pytest.raises(ValidationError, match="must be an integer"):
            enaqt_estimate("chain", 4, 1.0, 0.1, trap, init)

    def test_mirror_check_uses_converted_sites(self):
        assert enaqt_estimate("chain", 4, 1.0, 0.1, np.int64(2),
                              np.int64(3)) == 0.0
        assert enaqt_estimate("chain", 4, 1.0, 0.1, np.int64(1),
                              np.int64(3)) == enaqt_estimate(
                                  "chain", 4, 1.0, 0.1, 1, 3) > 0

    def test_ring_antipode_zero(self):
        assert enaqt_estimate("ring", 4, 1e-3, 1e-3, 1, 3) == 0.0
        assert enaqt_estimate("ring", 6, 1e-3, 1e-3, 2, 5) == 0.0

    def test_ring_off_the_antipode(self):
        # dephased 1/(1 + N mu/kappa) less the coherent 1/(1 + mu/(kappa
        # P)), P = (N - 1)/N^2 the trap's average population on an odd
        # ring
        kappa, mu = 1.0, 0.1
        p = float(average_population("ring", 5, 1, 3))
        assert p == pytest.approx(4 / 25, abs=1e-15)
        assert enaqt_estimate("ring", 5, kappa, mu, 1, 3) == pytest.approx(
            1 / (1 + 5 * mu / kappa) - 1 / (1 + mu / (kappa * p)),
            rel=1e-14)

    @pytest.mark.parametrize("topology, n, trap, init", [
        ("ring", 4, 1, 2), ("ring", 6, 2, 4), ("ring", 6, 1, 2),
        ("ring", 5, 1, 3), ("chain", 4, 1, 2), ("chain", 6, 2, 3)])
    def test_coherent_term_uses_the_average_population(self, topology, n,
                                                       trap, init):
        # the coherent estimate 1/(1 + mu/(kappa P)) takes P, the trap's
        # average population, from average_population on every geometry:
        # (N - 2)/N^2 on an even ring off the antipode
        kappa, mu = 1.0, 0.3
        p = float(average_population(topology, n, trap, init))
        assert enaqt_estimate(topology, n, kappa, mu, trap, init) == (
            pytest.approx(1 / (1 + n * mu / kappa) - 1 / (1 + mu / (kappa * p)),
                          rel=1e-14))

    def test_even_ring_off_the_antipode(self):
        # the trap's average population on the 4-ring, next to the start,
        # is the time average of |U_21(t)|^2, 1/8, not the odd-ring
        # (N - 1)/N^2 = 3/16
        lam, vecs = np.linalg.eigh(hopping("ring", 4).real)
        ts = np.arange(0.5, 4000.0, 1.0)
        amps = (vecs[1] * np.exp(-1j * ts[:, None] * lam)) @ vecs[0]
        time_avg = float(np.mean(np.abs(amps) ** 2))
        assert time_avg == pytest.approx(0.125, abs=1e-3)
        assert float(average_population("ring", 4, 2, 1)) == 0.125
        # at kappa = mu = 1e-3: 1/5 - 1/9, against 0.0996 from
        # optimize_dephasing (the odd-ring term gave 1/5 - 3/19 = 0.042)
        est = enaqt_estimate("ring", 4, 1e-3, 1e-3, 1, 2)
        assert est == pytest.approx(1 / 5 - 1 / 9, rel=1e-14)
        xi = optimize_dephasing(SystemSpec("ring", 4, (0,), 1, 1e-3, 1e-3,
                                           0.0)).xi
        assert abs(est - xi) <= 0.2 * xi

    def test_semi_infinite_rejected(self):
        with pytest.raises(ValidationError,
                           match="defined for chain and ring only"):
            enaqt_estimate("semi-infinite", 4, 1.0, 0.1, 1, 2)

    @pytest.mark.parametrize("n,trap,init", [(3, 1, 2), (4, 1, 2), (4, 1, 3)])
    def test_within_twenty_percent_small_n(self, n, trap, init):
        k = m = 1e-3
        est = enaqt_estimate("chain", n, k, m, trap, init)
        spec = SystemSpec("chain", n, (trap - 1,), init - 1, k, m, 0.0)
        actual = optimize_dephasing(spec).xi
        assert abs(est - actual) <= 0.2 * actual

    @pytest.mark.xfail(reason="five-site estimate misses the measured "
                       "enhancement by ~59% even at 1e-3 rates",
                       strict=True)
    def test_within_twenty_percent_five_sites(self):
        k = m = 1e-3
        est = enaqt_estimate("chain", 5, k, m, 1, 2)
        actual = optimize_dephasing(
            SystemSpec("chain", 5, (0,), 1, k, m, 0.0)).xi
        assert abs(est - actual) <= 0.2 * actual

    @pytest.mark.parametrize("estimate", [
        lambda: dephased_efficiency_estimate(3, 1.0, math.inf),
        lambda: dephased_efficiency_estimate(3, math.inf, 1.0),
        lambda: dephased_efficiency_estimate(3, 0.0, 1.0),
        lambda: dephased_efficiency_estimate(3, 1.0, math.nan),
        lambda: enaqt_estimate("chain", 4, math.inf, 1.0, 1, 2),
        lambda: enaqt_estimate("ring", 4, 1.0, -0.1, 1, 2),
    ], ids=["dephased-mu-inf", "dephased-kappa-inf", "dephased-kappa-0",
            "dephased-mu-nan", "enaqt-kappa-inf", "enaqt-mu-negative"])
    def test_estimates_reject_rates_not_finite_and_positive(self, estimate):
        # an infinite rate gave 0.0 or 1.0 instead of an error; the model's
        # rate check (finite and >= 0) comes before the > 0 rule
        with pytest.raises(ValidationError, match="finite and >=? 0"):
            estimate()

    def test_dephased_estimate_formula(self):
        assert dephased_efficiency_estimate(3, 1e-3, 1e-3) == pytest.approx(
            0.25, abs=1e-12)
        assert dephased_efficiency_estimate(5, 0.1, 0.02) == pytest.approx(
            1 / (1 + 5 * 0.2), abs=1e-12)


class TestSymmetrySplit:
    def test_halves_reconstruct_site_start(self):
        # starting from a site is an equal mix of the two parity sectors
        spec = SystemSpec("chain", 5, (2,), 0, 0.1, 0.01, 1.0)
        eta_s, eta_a = symmetry_split(spec)
        whole = efficiency_direct(spec).eta
        assert 0.5 * (eta_s + eta_a) == pytest.approx(whole, abs=1e-9)

    def test_antisymmetric_sector_is_dark_without_dephasing(self):
        # at gamma=0 the odd-parity component never reaches the middle
        # trap; with mu -> 0 the site-localized start tends to 1/2
        for n in (3, 5):
            spec = SystemSpec("chain", n, (n // 2,), 0, 0.1, 1e-6, 0.0)
            eta_s, eta_a = symmetry_split(spec)
            assert abs(eta_a) < 1e-3
            assert 0.5 * (eta_s + eta_a) == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.parametrize("n, gamma", [(7, 0.7), (41, 0.3)])
    def test_one_solver_for_both_sectors(self, monkeypatch, n, gamma):
        # one eigendecomposition for the two sectors, and for each the eta
        # that efficiency_direct gives, bit for bit
        spec = SystemSpec("chain", n, (n // 2,), 1, 0.3, 0.05, gamma)
        want = []
        for sign in (1.0, -1.0):
            psi = np.zeros(n)
            psi[[1, n - 2]] = 1.0, sign
            want.append(efficiency_direct(
                spec, rho0=np.outer(psi, psi) / 2.0).eta)
        eig, calls = solver_module._eig, []

        def counting(*args):
            calls.append(args)
            return eig(*args)

        monkeypatch.setattr(solver_module, "_eig", counting)
        assert symmetry_split(spec) == tuple(want)
        assert len(calls) == 1

    def test_failed_solve_is_raised(self, monkeypatch):
        _fail_every_solve(monkeypatch)
        with pytest.raises(SingularSystemError):
            symmetry_split(SystemSpec("chain", 5, (2,), 0, 0.1, 0.01, 1.0))

    def test_dephasing_recovers_dark_half(self):
        spec = SystemSpec("chain", 3, (1,), 0, 1.0, 1e-6, 1.0)
        assert efficiency_direct(spec).eta == pytest.approx(1.0, abs=1e-2)

    def test_geometry_restrictions(self):
        with pytest.raises(ValidationError):
            symmetry_split(SystemSpec("chain", 4, (1,), 0, 0.1, 0.01, 1.0))
        with pytest.raises(ValidationError):
            symmetry_split(SystemSpec("chain", 5, (1,), 0, 0.1, 0.01, 1.0))
        with pytest.raises(ValidationError):
            symmetry_split(SystemSpec("ring", 5, (2,), 0, 0.1, 0.01, 1.0))


class TestPlaneSweep:
    def test_single_cell_matches_optimizer(self):
        pm = plane_sweep("chain", 3, 1, 2, kappa_grid=[0.1], mu_grid=[0.01])
        ref = optimize_dephasing(FIG1B)
        assert pm.xi[0, 0] == pytest.approx(ref.xi, abs=1e-12)
        assert pm.eta0[0, 0] == pytest.approx(ref.eta0, abs=1e-12)
        assert pm.gamma_opt[0, 0] == pytest.approx(ref.gamma_opt, abs=1e-12)
        assert not pm.errors

    def test_worker_count_does_not_change_output(self):
        kg, mg = [1e-2, 1e-1], [1e-2, 1e-1, 1.0]
        serial = plane_sweep("chain", 3, 1, 2, kappa_grid=kg, mu_grid=mg,
                             workers=1)
        parallel = plane_sweep("chain", 3, 1, 2, kappa_grid=kg, mu_grid=mg,
                               workers=3)
        assert np.array_equal(serial.xi, parallel.xi)
        assert np.array_equal(serial.gamma_opt, parallel.gamma_opt)
        assert serial.xi.shape == (2, 3)

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            plane_sweep("chain", 3, 1, 2, kappa_grid=[0.1, 0.1], mu_grid=[0.1])
        with pytest.raises(ValidationError):
            plane_sweep("chain", 3, 1, 2, kappa_grid=[1e-6], mu_grid=[0.1])
        with pytest.raises(ValidationError):
            plane_sweep("semi-infinite", kappa_grid=[0.1], mu_grid=[0.01])

    def test_two_dimensional_grid_rejected(self):
        with pytest.raises(ValidationError,
                           match="kappa_grid must be a non-empty 1-d"):
            plane_sweep("chain", 3, 1, 2, kappa_grid=[[0.1, 1.0]],
                        mu_grid=[0.1])

    @pytest.mark.parametrize("axis", ["kappa_grid", "mu_grid"])
    def test_scalar_grid_rejected(self, axis):
        grids = {"kappa_grid": [0.1, 1.0], "mu_grid": [0.1]}
        grids[axis] = 1.0
        with pytest.raises(ValidationError,
                           match=f"{axis} must be a non-empty 1-d"):
            plane_sweep("chain", 4, 1, 3, **grids)

    @pytest.mark.parametrize("axis", ["kappa_grid", "mu_grid"])
    def test_non_finite_grid_rejected(self, axis):
        # NaN passes the ordering and bound checks, whose comparisons are
        # all False for it
        grids = {"kappa_grid": [0.1, 1.0], "mu_grid": [0.1, 1.0]}
        grids[axis] = [0.1, float("nan")]
        with pytest.raises(ValidationError,
                           match=f"{axis}=nan must be finite"):
            plane_sweep("chain", 3, 1, 2, **grids)


# every function that takes a site count, on a ring where it takes one
_RING_COUNTS = {
    "SystemSpec": lambda n: SystemSpec("ring", n, (0,), 1, 0.1, 0.1, 0.0),
    "circle_max_enaqt": lambda n: circle_max_enaqt(n, 1, 2),
    "enaqt_estimate": lambda n: enaqt_estimate("ring", n, 1.0, 0.1, 1, 2),
    "average_population": lambda n: average_population("ring", n, 1, 2),
    "max_enaqt": lambda n: max_enaqt("ring", n, 1, 2),
}
_CHAIN_COUNTS = {
    "dephased_efficiency_estimate": lambda n: dephased_efficiency_estimate(
        n, 1.0, 0.1),
    "chain_amplitude": lambda n: chain_amplitude(n, 1, 2, 0.3),
}


@pytest.mark.parametrize("name, n, message", [
    *((name, 2.5, "n=2.5 invalid: must be an integer")
      for name in {**_RING_COUNTS, **_CHAIN_COUNTS}),
    *((name, 2, "n=2 invalid: ring needs at least 3 sites")
      for name in _RING_COUNTS),
])
def test_one_site_count_check(name, n, message):
    # one check for every site count: operator.index, so that nothing is
    # truncated, then the topology's minimum
    call = {**_RING_COUNTS, **_CHAIN_COUNTS}[name]
    with pytest.raises(ValidationError, match=message):
        call(n)


@pytest.mark.parametrize("search", [
    lambda *geometry: plane_sweep(*geometry, kappa_grid=[0.1],
                                  mu_grid=[0.1]),
    max_enaqt,
], ids=["plane_sweep", "max_enaqt"])
@pytest.mark.parametrize("geometry,message", [
    (("ring", 2, 1, 2), "ring needs at least 3 sites"),
    (("chain", None, 1, 2), "n=None invalid"),
], ids=["two-site-ring", "no-n"])
def test_searches_reject_a_bad_geometry_once(search, geometry, message):
    # one ValidationError up front, not one per cell or a TypeError from
    # comparing a site with n = None
    with pytest.raises(ValidationError, match=message):
        search(*geometry)


def _spy_solver_sizes(monkeypatch):
    """The n of every EigenbasisSteadySolver analysis builds from now on."""
    sizes = []

    class Spy(EigenbasisSteadySolver):
        def __init__(self, spec, kappa=None, mu=None):
            sizes.append(spec.n)
            super().__init__(spec, kappa, mu)

    monkeypatch.setattr(analysis, "EigenbasisSteadySolver", Spy)
    return sizes


class TestInfiniteChain:
    def test_zero_trapping_trivial(self):
        res = infinite_chain_enaqt(0.0, 0.5)
        assert res.xi == 0.0 and res.eta0 == 0.0
        assert res.method == "trivial"

    def test_mu_cutoff_enforced(self):
        with pytest.raises(ValidationError):
            infinite_chain_enaqt(1.0, 0.05)

    def test_moderate_rates_converge(self):
        res = infinite_chain_enaqt(2.0, 0.5, offset=1)
        assert res.truncation_delta < 1e-4
        assert res.xi >= 0.0
        assert res.n_total == res.left + res.offset + res.right
        assert 0.0 < res.eta0 < 1.0

    def test_numpy_integer_offset(self):
        # an offset is checked by operator.index, as sites are
        res = infinite_chain_enaqt(6.3, 0.5, np.int64(2))
        assert res == infinite_chain_enaqt(6.3, 0.5, 2)
        assert type(res.offset) is int and res.offset == 2
        for bad in (2.0, 0, np.int64(0)):
            with pytest.raises(ValidationError, match="offset"):
                infinite_chain_enaqt(6.3, 0.5, bad)

    def test_fields_are_plain_numbers(self):
        res = infinite_chain_enaqt(2.0, 0.5)
        for name in ("eta0", "eta_max", "gamma_opt", "xi",
                     "truncation_delta"):
            assert type(getattr(res, name)) is float, name
        for name in ("offset", "left", "right", "n_total"):
            assert type(getattr(res, name)) is int, name

    @pytest.mark.parametrize("kappa,mu", [(6.3, 0.3), (1e-4, 0.1),
                                          (100.0, 0.1), (2.0, 0.5)])
    def test_matches_oracle_at_twice_the_truncation(self, kappa, mu):
        # the benchmark's own check: eta0 and eta_max against an
        # independent solve with both sides doubled
        res = infinite_chain_enaqt(kappa, mu)
        for gamma, eta in ((0.0, res.eta0), (res.gamma_opt, res.eta_max)):
            spec = semi_infinite_spec(kappa, mu, gamma, 1, 2 * res.left,
                                      2 * res.right)
            oracle = (dense_lu_branching if spec.n <= 25
                      else sparse_lu_branching)(spec)[0]
            assert abs(eta - oracle) < analysis.TRUNCATION_TOL

    def test_reported_truncation_certified(self):
        # every probe rate and the reported optimum, on all three probes
        res = infinite_chain_enaqt(6.3, 0.3)
        assert res.gamma_opt > 0
        gammas = [0.0, 1.0, *analysis.GAMMA_BOUNDS, res.gamma_opt]

        def etas(left, right):
            return EigenbasisSteadySolver(semi_infinite_spec(
                6.3, 0.3, 0.0, 1, left, right)).eta_grid(gammas)[0]

        base = etas(res.left, res.right)
        assert base[0] == pytest.approx(res.eta0, abs=1e-12)
        assert base[-1] == pytest.approx(res.eta_max, abs=1e-12)
        worst = max(float(np.max(np.abs(etas(*sizes) - base)))
                    for sizes in ((2 * res.left, res.right),
                                  (res.left, 2 * res.right),
                                  (2 * res.left, 2 * res.right)))
        assert worst < analysis.TRUNCATION_TOL
        assert worst == pytest.approx(res.truncation_delta, abs=1e-12)

    def test_trap_side_stays_smaller(self):
        # the free side sets the truncation error; only it grows here
        res = infinite_chain_enaqt(6.3, 0.3)
        assert res.left == analysis.START_SITES
        assert res.left < res.right

    def test_start_size_follows_short_supports(self):
        # ceil(16/mu) = 2 is below START_SITES, and nothing moves there
        res = infinite_chain_enaqt(1.0, 10.0)
        assert (res.left, res.right) == (2, 2)

    def test_cap_checked_before_any_solver_is_built(self, monkeypatch):
        # (6.3, 0.3) certifies at 4 + 1 + 16 sites with probes of up to
        # 41; a cap of 30 lets the truncation itself pass and stops its
        # doubled probes
        monkeypatch.setattr(analysis, "SITE_CAP_INFINITE", 30)
        sizes = _spy_solver_sizes(monkeypatch)
        with pytest.raises(TruncationError) as err:
            infinite_chain_enaqt(6.3, 0.3)
        assert sizes and max(sizes) <= 30
        delta = err.value.achieved_delta
        assert math.isfinite(delta) and delta >= analysis.TRUNCATION_TOL

    def test_cap_below_the_first_probes(self, monkeypatch):
        monkeypatch.setattr(analysis, "SITE_CAP_INFINITE", 10)
        sizes = _spy_solver_sizes(monkeypatch)
        with pytest.raises(TruncationError) as err:
            infinite_chain_enaqt(6.3, 1.0)
        assert max(sizes) <= 10
        assert err.value.achieved_delta == math.inf

    def test_failed_probe_is_raised(self, monkeypatch):
        _fail_every_solve(monkeypatch)
        with pytest.raises(SingularSystemError):
            infinite_chain_enaqt(6.3, 1.0)

    def test_both_sides_grow_when_only_both_doubled_moved(self,
                                                          monkeypatch):
        # (6.3, 1.0) certifies at (4, 4).  No input moves the (8, 8) probe
        # of that step alone, so it is built at twice kappa: both sides
        # double, and (16, 16) certifies the same numbers
        want = infinite_chain_enaqt(6.3, 1.0)
        assert (want.left, want.right) == (4, 4)
        build = analysis.semi_infinite_spec

        def moved(kappa, mu, gamma, offset, left, right):
            return build(2 * kappa if (left, right) == (8, 8) else kappa,
                         mu, gamma, offset, left, right)

        monkeypatch.setattr(analysis, "semi_infinite_spec", moved)
        res = infinite_chain_enaqt(6.3, 1.0)
        assert (res.left, res.right) == (16, 16)
        for name in ("eta0", "eta_max"):
            assert getattr(res, name) == pytest.approx(
                getattr(want, name), abs=analysis.TRUNCATION_TOL)

    def test_semi_infinite_plane_sweep_records_a_failed_cell(self,
                                                             monkeypatch):
        monkeypatch.setattr(analysis, "SITE_CAP_INFINITE", 10)
        pm = plane_sweep("semi-infinite", kappa_grid=[6.3], mu_grid=[1.0])
        assert list(pm.errors) == [(0, 0)]
        assert pm.errors[(0, 0)].startswith("TruncationError: ")
        assert np.isnan(pm.xi).all() and np.isnan(pm.eta0).all()

    def test_semi_infinite_plane_sweep_takes_a_numpy_integer_offset(self):
        grids = {"kappa_grid": [1.0, 6.3], "mu_grid": [0.5]}
        pm = plane_sweep("semi-infinite", offset=np.int64(2), **grids)
        want = plane_sweep("semi-infinite", offset=2, **grids)
        assert not pm.errors
        for name in ("eta0", "xi", "gamma_opt"):
            assert np.array_equal(getattr(pm, name), getattr(want, name))

    def test_semi_infinite_plane_sweep_matches_cells(self):
        kappas, mus = [1.0, 6.3], [0.3, 1.0]
        pm = plane_sweep("semi-infinite", kappa_grid=kappas, mu_grid=mus)
        assert not pm.errors
        for i, kv in enumerate(kappas):
            for j, mv in enumerate(mus):
                res = infinite_chain_enaqt(kv, mv)
                assert (pm.eta0[i, j], pm.xi[i, j], pm.gamma_opt[i, j]) == (
                    res.eta0, res.xi, res.gamma_opt)
        pooled = plane_sweep("semi-infinite", kappa_grid=kappas,
                             mu_grid=mus, workers=2)
        for name in ("eta0", "xi", "gamma_opt"):
            assert np.array_equal(getattr(pm, name), getattr(pooled, name))


class TestSearchArguments:
    """The scan and the refinement at extreme search settings."""

    SPEC = SystemSpec("chain", 5, (0,), 1, kappa=1.0, mu=0.1, gamma=0.0)

    def test_tolerance_below_an_ulp_terminates(self, monkeypatch):
        # the bracket cannot shrink below one ulp of log gamma; the search
        # stops there instead of looping
        ref = optimize_dephasing(self.SPEC)
        monkeypatch.setattr(analysis, "GRID_POINTS", 64)
        fine = analysis._optimize_cells(self.SPEC, [self.SPEC.kappa],
                                        [self.SPEC.mu], 1e-300)[0][0]
        assert fine.gamma_opt == pytest.approx(ref.gamma_opt, rel=1e-3)
        assert fine.xi == pytest.approx(ref.xi, abs=1e-9)

    def test_single_point_grid(self, monkeypatch):
        monkeypatch.setattr(analysis, "GRID_POINTS", 1)
        res = analysis._optimize_cells(self.SPEC, [self.SPEC.kappa],
                                       [self.SPEC.mu])[0][0]
        assert res.eta0 == pytest.approx(dense_lu_branching(self.SPEC)[0],
                                         abs=1e-12)


class TestSlopeRefinement:
    """optimize_dephasing refines on d eta/d log gamma, in few solves."""

    # chain N=5, trap 3, start 5 (1-based; SystemSpec is 0-based): xi > 0
    # at kappa 1, mu 0.1, so the refinement runs (trap 2, start 4 has
    # xi = 0 there and stops after the scan)
    SPEC = SystemSpec("chain", 5, (2,), 4, kappa=1.0, mu=0.1, gamma=0.0)

    def test_few_solver_calls(self, monkeypatch):
        # the grid scan, the first call (two points), the secant steps and
        # the certifying solve; golden section made about 20 calls here
        points, calls = EigenbasisSteadySolver._points, []

        def counting(self, *args, **kwargs):
            calls.append(args[0])
            return points(self, *args, **kwargs)

        monkeypatch.setattr(EigenbasisSteadySolver, "_points", counting)
        res = optimize_dephasing(self.SPEC)
        assert res.xi > 0.08
        assert len(calls) <= 10

    def test_one_debug_record_per_refinement(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="enaqt"):
            res = optimize_dephasing(self.SPEC)
        (record,) = [r for r in caplog.records
                     if r.msg.startswith("scan_refine")]
        (n, cells, refined, brackets, steps, bisections, largest,
         rows) = record.args
        assert (n, cells, refined, brackets, rows) == (5, 1, 1, 1, 1)
        assert 2 <= steps <= 8 and bisections == 0
        # a stationarity certificate: the slope at the reported gamma_opt
        solver = EigenbasisSteadySolver(self.SPEC)
        assert largest == pytest.approx(
            abs(solver.eta(res.gamma_opt, slope=True)[1]), abs=1e-13)
        assert largest < 1e-9


def _scan_record(caplog, spec):
    """optimize_dephasing(spec) and the args of its scan_refine record."""
    with caplog.at_level(logging.DEBUG, logger="enaqt"):
        res = optimize_dephasing(spec)
    (record,) = [r.args for r in caplog.records
                 if r.msg.startswith("scan_refine")]
    return res, record


class TestEveryLocalMaximum:
    """The coarse gamma scan refines every grid-local maximum, whether or
    not it beats gamma = 0, and skips rises and falls of rounding."""

    SURVEY = np.geomspace(*analysis.RATE_BOUNDS, 12)

    # The cells of the 12 x 12 survey grid over RATE_BOUNDS where a
    # 16-point scan that refines its best grid point alone reports
    # xi = 0: a narrow peak whose samples all stay below eta0.  xi is the
    # 64-point scan's.  1-based (trap, init); kappa and mu are indices
    # into SURVEY.
    @pytest.mark.parametrize("n, trap, init, i, j, xi", [
        (5, 2, 4, 9, 0, 4.115413445937577e-05),
        (5, 2, 4, 9, 1, 1.3996544504679687e-04),
        (5, 2, 4, 9, 2, 4.392045887154916e-04),
        (5, 2, 4, 9, 3, 1.0295510457973833e-03),
        (5, 2, 4, 9, 4, 5.151872333538643e-04),
        (8, 2, 1, 8, 0, 3.186834157820062e-05),
        (8, 2, 1, 8, 1, 1.2272690855197332e-04),
        (8, 2, 3, 8, 5, 8.416057892572937e-04),
    ])
    def test_narrow_peak_below_eta0_on_the_grid(self, n, trap, init, i, j,
                                                 xi):
        spec = SystemSpec("chain", n, (trap - 1,), init - 1,
                          self.SURVEY[i], self.SURVEY[j], 0.0)
        assert optimize_dephasing(spec).xi == pytest.approx(xi, abs=1e-9)

    def test_two_peaks_are_both_refined(self, caplog):
        # ring 8 (1, 2): eta(gamma) peaks at gamma 0.0126 and 19.8, and
        # the second is higher
        spec = SystemSpec("ring", 8, (0,), 1, 100.0, 0.0152, 0.0)
        res, (_, cells, refined, brackets, *_) = _scan_record(caplog, spec)
        assert (cells, refined, brackets) == (1, 1, 2)
        assert res.gamma_opt == pytest.approx(19.8, rel=1e-2)
        solver = EigenbasisSteadySolver(spec)
        low = analysis._maximize(
            lambda x, sel: solver.eta(analysis._exp(x), sel, slope=True),
            [math.log(0.005)], [math.log(0.03)], analysis.REFINE_TOL)
        eta_low = solver.eta(math.exp(low[0]))
        assert res.eta0 < eta_low < res.eta_max - 1e-3

    @pytest.mark.parametrize("n, trap, init, kappa, mu", [
        (5, 1, 5, 1e-4, 10.0),  # eta ~ 2.6e-14 with a rise of 2e-21
        (10, 10, 2, 1.0, 10.0),  # eta ~ 1e-18: every grid value rounding
    ])
    def test_rounding_flat_curve_gets_no_bracket(self, caplog, n, trap,
                                                 init, kappa, mu):
        spec = SystemSpec("chain", n, (trap - 1,), init - 1, kappa, mu, 0.0)
        res, (_, _, refined, brackets, steps, *_) = _scan_record(caplog,
                                                                  spec)
        assert (refined, brackets, steps) == (0, 0, 0)
        assert (res.xi, res.gamma_opt) == (0.0, 0.0)


class TestRateSlopeSweeps:
    """max_enaqt climbs from every grid-local maximum by line searches on
    d xi/d log(kappa, mu), which _scan_refine gives by the envelope
    theorem from solves it makes anyway."""

    @pytest.mark.parametrize("spec", [
        # chain N=5, trap 2, start 4 (1-based): criterion 4's optimum
        SystemSpec("chain", 5, (1,), 3, 100.0, 0.00276, 0.0),
        SystemSpec("ring", 4, (0,), 1, 1.0, 0.01, 0.0),
    ], ids=["chain5", "ring4"])
    def test_envelope_slope_matches_central_difference(self, spec):
        (res,), slopes = analysis._scan_refine(
            EigenbasisSteadySolver(spec, [spec.kappa], [spec.mu]),
            rates=True)
        assert res.xi > 0.05
        h = 1e-3
        for rate, got in zip(("kappa", "mu"), slopes[0]):
            x = math.log(getattr(spec, rate))

            def xi(dx):
                # refined far below REFINE_TOL, so that the difference
                # sees xi and not where the refinement stopped
                moved = spec.with_rates(**{rate: math.exp(x + dx)})
                return analysis._optimize_cells(
                    moved, [moved.kappa], [moved.mu], 1e-8)[0][0].xi

            want = (8.0 * (xi(h) - xi(-h)) - (xi(2 * h) - xi(-2 * h))) / (
                12.0 * h)
            assert got == pytest.approx(want, rel=1e-6)

    def test_no_gain_no_slope(self):
        # trap 2, start 4 of the five-site chain has xi = 0 at kappa 1,
        # mu 0.1; a slope there would steer a climb by rounding noise
        spec = SystemSpec("chain", 5, (1,), 3, 1.0, 0.1, 0.0)
        cells = spec, [1.0, 100.0], [0.1, 0.00276]
        results, slopes = analysis._optimize_cells(*cells, rates=True)
        assert results[0].xi == 0.0 and results[0].gamma_opt == 0.0
        assert np.isnan(slopes[0]).all()
        assert results[1].xi > 0.06 and np.isfinite(slopes[1]).all()
        assert results == analysis._optimize_cells(*cells)[0]

    @pytest.mark.parametrize("geometry, calls", [
        (("chain", 5, 2, 4), 11),
        # antipodal ring: xi = 0 everywhere, so no seed has a slope and
        # nothing climbs
        (("ring", 4, 1, 3), 2),
    ], ids=["chain5", "ring4"])
    def test_sweep_call_count(self, monkeypatch, geometry, calls):
        # the ranking grid, the line-search steps, the slopes where the
        # seeds moved to and the final optimizations
        optimize_cells, counted = analysis._optimize_cells, []

        def counting(*args, **kwargs):
            counted.append(kwargs.get("rates", False))
            return optimize_cells(*args, **kwargs)

        monkeypatch.setattr(analysis, "_optimize_cells", counting)
        max_enaqt(*geometry)
        # all but the final optimizations ask for rate slopes
        assert counted == [True] * (calls - 1) + [False]

    def test_one_debug_record_per_sweep(self, caplog):
        # one record per line search: seeds, steps, bisections, unsloped
        # and the largest slope along the line
        with caplog.at_level(logging.DEBUG, logger="enaqt"):
            best = max_enaqt("chain", 5, 2, 4)
        records = _line_searches(caplog)
        assert [r[0] for r in records] == [1, 1]
        # steps: the calls of test_sweep_call_count less the ranking grid,
        # the final optimizations and the slopes after each line search
        # but the last
        assert sum(r[1] for r in records) == 11 - 2 - (len(records) - 1)
        for seeds, steps, bisections, unsloped, largest in records:
            assert 0 <= bisections < steps and unsloped == 0
            assert math.isfinite(largest)
        # the climb ends on the bound kappa = 100, where xi still rises,
        # stationary along its last line
        assert records[-1][4] < 1e-4
        assert best.kappa == pytest.approx(100.0)

    def test_seeds_without_gain_keep_their_points(self, caplog):
        # the antipodal ring has xi = 0 everywhere: no grid-local maximum,
        # and the best cell, the last of equal ones, has no slope to climb
        with caplog.at_level(logging.DEBUG, logger="enaqt"):
            best = max_enaqt("ring", 4, 1, 3)
        assert not _line_searches(caplog)
        assert best == (0.0, 100.0, 100.0)

    def test_seed_with_one_zero_point_runs_on_its_slope(self, monkeypatch):
        # chain 8 (4, 5) has two seeds.  The lower one meets xi = 0 at
        # one first point of its first line search and runs the secant
        # search from the other; in its third both first points are 0,
        # and it keeps its point.  The other climbs to the optimum on
        # kappa = 100
        maximize, firsts, moves = analysis._maximize, [], []

        def watched(f, a, b, tol, stats=None):
            if np.any(a):  # a gamma refinement, not a line search
                return maximize(f, a, b, tol, stats)

            def first(x, idx):
                values, slopes = f(x, idx)
                if x.ndim == 2:
                    firsts.append((values == 0.0).sum(1).tolist())
                return values, slopes

            moves.append(maximize(first, a, b, tol, stats))
            return moves[-1]

        monkeypatch.setattr(analysis, "_maximize", watched)
        best = max_enaqt("chain", 8, 4, 5)
        assert firsts == [[1, 0], [0, 0], [2, 0]]
        assert moves[0][0] >= analysis.REFINE_TOL
        assert math.isnan(moves[2][0])
        assert best.kappa == pytest.approx(100.0) and best.xi >= 0.044162

    def test_sweeps_run_on_slopes_above_sixteen_sites(self, caplog):
        # the map-free kernel (17 to DIRECT_MAX_N sites) solves the
        # adjoint, so every seed has rate slopes and none ends without
        with caplog.at_level(logging.DEBUG, logger="enaqt"):
            best = max_enaqt("chain", 17, 1, 2)
        records = _line_searches(caplog)
        assert records and [r[3] for r in records] == [0] * len(records)
        assert best.xi > 0.2

    def test_every_grid_local_maximum_climbs(self, caplog):
        # chain 3 (1, 2) has two grid-local maxima in its ranking grid,
        # and both climb, in one stack per step
        with caplog.at_level(logging.DEBUG, logger="enaqt"):
            max_enaqt("chain", 3, 1, 2)
        assert _line_searches(caplog)[0][0] == 2

    def test_ridge_optimum_on_the_kappa_bound(self):
        # mu* falls as kappa rises toward the bound: a ridge on which
        # alternating kappa and mu searches zig-zag
        best = max_enaqt("chain", 8, 2, 5)
        assert best.kappa == pytest.approx(100.0) and best.xi >= 0.109490

    def test_climb_ends_at_its_bound(self, monkeypatch, caplog):
        # line searches cut to 1e-3 in log rate keep moving: the climb
        # ends after PLANE_POINTS of them, above its grid cell and short
        # of the optimum
        maximize = analysis._maximize

        def short(f, a, b, tol, stats=None):
            x = maximize(f, a, b, tol, stats)
            return x if np.any(a) else np.minimum(x, 1e-3)

        monkeypatch.setattr(analysis, "_maximize", short)
        grid = np.geomspace(*analysis.RATE_BOUNDS, analysis.PLANE_POINTS)
        spec = SystemSpec("chain", 5, (1,), 3, 1.0, 1.0, 0.0)
        kappas, mus = (v.ravel() for v in np.meshgrid(grid, grid,
                                                      indexing="ij"))
        ranked, _ = analysis._optimize_cells(spec, kappas, mus, 1e-3)
        with caplog.at_level(logging.DEBUG, logger="enaqt"):
            best = max_enaqt("chain", 5, 2, 4)
        assert len(_line_searches(caplog)) == analysis.PLANE_POINTS
        assert max(res.xi for res in ranked) < best.xi < 0.064000484 - 1e-6

    @pytest.mark.parametrize("geometry", make_ledger.PLANE_GEOMETRIES,
                             ids=make_ledger._key)
    def test_rate_plane_oracles(self, geometry):
        _check_rate_plane_oracles([geometry])

    @pytest.mark.skipif(not os.environ.get("ENAQT_EXTENDED_TABLE"),
                        reason="every ledger geometry: set "
                               "ENAQT_EXTENDED_TABLE=1")
    def test_rate_plane_oracles_on_the_ledger(self):
        _check_rate_plane_oracles(dict.fromkeys(
            make_ledger.PLANE_GEOMETRIES + make_ledger.TABLE_GEOMETRIES
            + make_ledger.RING_GEOMETRIES))


def _line_searches(caplog):
    """The arguments of max_enaqt's DEBUG records, one per line search."""
    return [r.args for r in caplog.records
            if r.msg.startswith("max_enaqt line search")]


def _check_rate_plane_oracles(geometries):
    """max_enaqt's xi against a 49 x 49 plane_sweep and an L-BFGS-B
    polish from its own point: never below either by more than 1e-9."""
    short = []
    for geometry in geometries:
        best = max_enaqt(*geometry)
        for name, xi in (
                ("sweep", rate_plane_sweep_xi(*geometry)),
                ("polish", rate_plane_polish_xi(*geometry, best.kappa,
                                                best.mu))):
            if best.xi < xi - 1e-9:
                short.append((geometry, name, best.xi, xi))
    assert not short


def _dense_argmax(f, a, b, tol):
    """Brute-force maximum of f on [a, b]: a 2001-point grid, zoomed onto
    its best point until the spacing is below tol/100; for the unimodal
    functions of the slope-mode test, within that spacing of the true
    maximizer."""
    lo, hi = a, b
    while True:
        x = np.linspace(lo, hi, 2001)
        best = int(np.argmax([f(v) for v in x]))
        h = x[1] - x[0]
        if h < tol / 100 or h == 0.0:
            return x[best]
        lo, hi = max(a, x[best] - 2 * h), min(b, x[best] + 2 * h)


@st.composite
def _sloped(draw):
    """Brackets with analytic functions and their exact slopes: concave
    (a quadratic with a sine ripple), a flat top (slope exactly 0 on a
    plateau) or monotone (the maximum on an end)."""
    count = draw(st.integers(1, 6))
    elements = []
    for _ in range(count):
        a = draw(st.floats(-10, 10))
        width = draw(st.floats(0.0, 5.0))
        tol = 10.0 ** draw(st.floats(-9, 0))
        kind = draw(st.sampled_from(["concave", "plateau", "monotone"]))
        peak = draw(st.floats(-12, 12))
        shape = draw(st.floats(0.0, 1.0))
        elements.append((a, a + width, tol, kind, peak, shape))
    return elements


def _sloped_function(kind, peak, shape):
    """(f, f') of one element of _sloped; every f is unimodal."""
    if kind == "concave":  # f'' = -2 - 1.8 shape sin(3x) < 0
        return (lambda x: -(x - peak) ** 2 + 0.2 * shape * math.sin(3 * x),
                lambda x: -2 * (x - peak) + 0.6 * shape * math.cos(3 * x))
    if kind == "plateau":  # flat top of half-width shape around peak
        return (lambda x: -max(abs(x - peak) - shape, 0.0) ** 2,
                lambda x: -2 * math.copysign(max(abs(x - peak) - shape, 0.0),
                                             x - peak))
    sign = 1.0 if shape > 0.5 else -1.0
    return (lambda x: sign * math.tanh(x - peak),
            lambda x: sign / math.cosh(x - peak) ** 2)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_sloped())
def test_slope_mode_maximizer_matches_dense_grid_oracle(elements):
    pairs = [_sloped_function(kind, peak, shape)
             for _, _, _, kind, peak, shape in elements]

    def stacked(x, idx):
        return tuple(np.array([[pairs[i][k](v) for v in np.atleast_1d(row)]
                               for i, row in zip(idx, x)]).reshape(x.shape)
                     for k in (0, 1))

    stats = {}
    got = analysis._maximize(stacked, [e[0] for e in elements],
                             [e[1] for e in elements],
                             [e[2] for e in elements], stats)
    assert stats["steps"] >= 1 and stats["bisections"] >= 0
    assert stats["unsloped"] == 0
    for x, (f, df), (a, b, tol, kind, _, _) in zip(got, pairs, elements):
        assert a <= x <= b
        best = _dense_argmax(f, a, b, tol)
        # within tol of the maximizer; a flat top has many, and so has f
        # where it rounds to its maximum, so there the value decides
        # (|f''| <= 4 for every f)
        if kind != "plateau" and f(x) < f(best) - 1e-15 * abs(f(best)):
            assert abs(x - best) <= tol
        assert f(x) >= f(best) - (abs(df(best)) + 4 * tol) * tol - 1e-12


def test_point_without_a_value_ends_its_element():
    # f = -(x - p)^2, NaN (a failed cell) right of 0.3: the first element
    # meets NaN at a step and ends at its bracket's result, the second
    # at its first call and ends at the midpoint; the third never meets it
    peaks = np.array([0.5, 0.0, -0.5])

    def f(x, idx):
        p = peaks[idx].reshape((-1,) + (1,) * (x.ndim - 1))
        hole = x > 0.3
        return (np.where(hole, math.nan, -(x - p) ** 2),
                np.where(hole, math.nan, -2.0 * (x - p)))

    stats = {}
    got = analysis._maximize(f, [-1.0, -0.3, -1.0], [1.0, 0.9, 1.0], 1e-6,
                             stats)
    assert stats["unsloped"] == 2
    assert 0.236 <= got[0] <= 1.0  # within the bracket left after c, d
    assert got[1] == pytest.approx(0.3, abs=1e-15)
    assert got[2] == pytest.approx(-0.5, abs=1e-6)


def test_slope_mode_takes_few_steps():
    # the refinement of an optimization: a 0.585-wide bracket (two spacings
    # of the 64-point grid) and REFINE_TOL; golden section needed 19
    # calls
    peaks = np.linspace(-0.29, 0.29, 40)

    def stacked(x, idx):
        p = peaks[idx].reshape((-1,) + (1,) * (x.ndim - 1))
        return -np.expm1(x - p) ** 2, -2 * np.expm1(x - p) * np.exp(x - p)

    stats = {}
    got = analysis._maximize(stacked, np.full(40, -0.2925),
                             np.full(40, 0.2925), analysis.REFINE_TOL, stats)
    assert np.abs(got - peaks).max() <= analysis.REFINE_TOL
    assert stats["steps"] <= 8 and stats["bisections"] == 0


def test_flat_zero_elements():
    # f = max(0, h - (x - p)^2), without a slope where it is 0
    peaks = np.array([10.0, -0.9, 0.9, 0.1, -0.1])
    heights = np.array([1.0, 1.0, 1.0, 1.0, 0.1])

    def f(x, idx):
        p, h = (v[idx].reshape((-1,) + (1,) * (x.ndim - 1))
                for v in (peaks, heights))
        value = np.maximum(0.0, h - (x - p) ** 2)
        return value, np.where(value > 0, -2.0 * (x - p), math.nan)

    stats = {}
    got = analysis._maximize(f, np.full(5, -1.0), np.full(5, 1.0), 1e-6,
                             stats)
    # no gain at either first point: the element stops, and its caller
    # keeps its own point; a zero at one first point: the secant search
    # from the other, on the side its slope points to; the last element's
    # sloped point points back at its zero point, and bisects toward it
    assert math.isnan(got[0])
    np.testing.assert_allclose(got[1:], peaks[1:], rtol=0, atol=1e-6)
    assert stats["unsloped"] == 0


def test_flat_zero_met_after_the_first_call():
    # ramps that rise (fall) with slope 1 (-1) up to 0.4 (from -0.4) and
    # are 0 without a slope beyond: both first points are sloped, the end
    # probe meets the flat zero, and the bracket closes on the ramp's edge
    # from the right (left)
    sign = np.array([1.0, -1.0])

    def f(x, idx):
        s = sign[idx].reshape((-1,) + (1,) * (x.ndim - 1))
        ramp = s * x < 0.4
        return (np.where(ramp, s * x + 0.5, 0.0),
                np.where(ramp, s, math.nan))

    stats = {}
    got = analysis._maximize(f, [-1.0, -1.0], [1.0, 1.0], 1e-6, stats)
    np.testing.assert_allclose(got, [0.4, -0.4], rtol=0, atol=1e-6)
    assert stats["unsloped"] == 0 and stats["bisections"] > 0


@st.composite
def _cells(draw):
    n = draw(st.integers(3, 9))
    trap, init = draw(st.lists(st.integers(1, n), min_size=2, max_size=2,
                               unique=True))
    rates = draw(st.lists(st.tuples(st.floats(-4, 2), st.floats(-4, 2)),
                          min_size=1, max_size=5))
    gammas = np.concatenate([[0.0], 10.0 ** np.array(draw(st.lists(
        st.floats(-4, 4), min_size=1, max_size=4)))])
    return n, trap, init, [(10.0 ** k, 10.0 ** m) for k, m in rates], gammas


def _stack_etas(topology, n, trap, init, rates, gammas):
    """eta through one cell stack and through efficiency_direct."""
    specs = [SystemSpec(topology, n, (trap - 1,), init - 1, k, m, 0.0)
             for k, m in rates]
    stacked = EigenbasisSteadySolver(specs[0], *zip(*rates)).eta_grid(gammas)
    direct = np.array([[efficiency_direct(s.with_rates(gamma=g)).eta
                        for g in gammas] for s in specs])
    return stacked, direct


@settings(max_examples=20, deadline=None, derandomize=True)
@given(_cells())
def test_chain_mirror_invariance(cells):
    n, trap, init, rates, gammas = cells
    stacked, direct = _stack_etas("chain", n, trap, init, rates, gammas)
    mirrored, mirrored_direct = _stack_etas(
        "chain", n, n + 1 - trap, n + 1 - init, rates, gammas)
    np.testing.assert_allclose(stacked, mirrored, rtol=0, atol=1e-10)
    np.testing.assert_allclose(direct, mirrored_direct, rtol=0, atol=1e-10)
    np.testing.assert_allclose(stacked, direct, rtol=0, atol=1e-10)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(_cells(), st.integers(1, 8))
def test_ring_rotation_invariance(cells, shift):
    n, trap, init, rates, gammas = cells
    stacked, direct = _stack_etas("ring", n, trap, init, rates, gammas)
    rotated, rotated_direct = _stack_etas(
        "ring", n, (trap - 1 + shift) % n + 1, (init - 1 + shift) % n + 1,
        rates, gammas)
    np.testing.assert_allclose(stacked, rotated, rtol=0, atol=1e-10)
    np.testing.assert_allclose(direct, rotated_direct, rtol=0, atol=1e-10)
    np.testing.assert_allclose(stacked, direct, rtol=0, atol=1e-10)


class TestCellStacks:
    # 5 x 4 = 20 cells: one stack of five kappa rows
    KAPPAS = [1e-3, 1e-2, 0.1, 1.0, 10.0]
    MUS = [1e-3, 1e-2, 0.3, 3.0]

    def test_plane_sweep_is_one_stack_of_kappa_rows(self, monkeypatch):
        # 16 x 16 cells at n = 5: one solver, one eigendecomposition per
        # kappa row
        eig, shapes = solver_module._eig, []

        def counting(h, colours):
            shapes.append(h.shape)
            return eig(h, colours)

        monkeypatch.setattr(solver_module, "_eig", counting)
        grid = np.geomspace(*analysis.RATE_BOUNDS, 16)
        pm = plane_sweep("chain", 5, 1, 3, kappa_grid=grid, mu_grid=grid)
        assert not pm.errors
        assert shapes == [(16, 5, 5)]

    def test_plane_sweep_gives_each_worker_whole_rows(self, monkeypatch):
        # the 16 x 16 cells of one serial stack are, for three workers,
        # three tasks of whole kappa rows, and the map is the same
        grid = np.geomspace(*analysis.RATE_BOUNDS, 16)
        serial = plane_sweep("chain", 5, 1, 3, kappa_grid=grid, mu_grid=grid)
        tasks = []

        def in_process(func, batch, workers):
            tasks.extend(batch)
            return [func(t) for t in batch]

        monkeypatch.setattr(analysis, "_pool_map", in_process)
        pooled = plane_sweep("chain", 5, 1, 3, kappa_grid=grid, mu_grid=grid,
                             workers=3)
        assert [len(rates) for _, _, rates in tasks] == [6 * 16] * 2 + [64]
        for name in ("eta0", "xi", "gamma_opt"):
            assert np.array_equal(getattr(serial, name),
                                  getattr(pooled, name))

    def test_max_enaqt_ranks_one_stack_of_kappa_rows(self, caplog):
        # the 13 x 13 ranking grid: one stack, one lockstep refinement
        with caplog.at_level(logging.DEBUG, logger="enaqt"):
            max_enaqt("chain", 5, 2, 4)
        records = [r.args for r in caplog.records
                   if r.msg.startswith("scan_refine")]
        n, cells, *_, rows = records[0]
        assert (n, cells, rows) == (5, 169, 13)

    def test_plane_sweep_matches_single_optimizations(self):
        pm = plane_sweep("chain", 5, 2, 4, kappa_grid=self.KAPPAS,
                         mu_grid=self.MUS)
        assert not pm.errors
        for i, kv in enumerate(self.KAPPAS):
            for j, mv in enumerate(self.MUS):
                ref = optimize_dephasing(
                    SystemSpec("chain", 5, (1,), 3, kv, mv, 0.0))
                assert pm.eta0[i, j] == pytest.approx(ref.eta0, abs=1e-12)
                assert pm.xi[i, j] == pytest.approx(ref.xi, abs=1e-12)
                assert pm.gamma_opt[i, j] == pytest.approx(
                    ref.gamma_opt, rel=1e-12, abs=0.0)

    def test_plane_sweep_batches_do_not_depend_on_workers(self):
        maps = [plane_sweep("ring", 5, 1, 3, kappa_grid=self.KAPPAS,
                            mu_grid=self.MUS, workers=w) for w in (1, 2)]
        for name in ("eta0", "xi", "gamma_opt"):
            assert np.array_equal(getattr(maps[0], name),
                                  getattr(maps[1], name))
        assert maps[0].errors == maps[1].errors

    def test_failed_cell_leaves_its_batch_intact(self, monkeypatch):
        clean = plane_sweep("chain", 4, 1, 3, kappa_grid=self.KAPPAS,
                            mu_grid=self.MUS)
        bad_kappa = self.KAPPAS[2]
        certify = EigenbasisSteadySolver._certify

        def uncertified(self, xs, pops, g2, a, rhs, bnorm):
            # every point of the cells at bad_kappa fails its batch checks
            eta, eta_loss, resid, certified = certify(self, xs, pops, g2, a,
                                                      rhs, bnorm)
            hit = a.two_kappa == 2.0 * bad_kappa  # shape (cells, 1)
            return eta, eta_loss, resid, certified & ~hit

        def failing_splu(matrix):
            # the sparse LU of their fallback chain cannot be factored
            raise RuntimeError("factor is exactly singular")

        monkeypatch.setattr(EigenbasisSteadySolver, "_certify", uncertified)
        monkeypatch.setattr("enaqt.solver.spla.splu", failing_splu)
        pm = plane_sweep("chain", 4, 1, 3, kappa_grid=self.KAPPAS,
                         mu_grid=self.MUS)
        assert sorted(pm.errors) == [(2, j) for j in range(len(self.MUS))]
        assert all(e.startswith("SingularSystemError: gamma=")
                   for e in pm.errors.values())
        assert np.isnan(pm.xi[2]).all() and np.isnan(pm.eta0[2]).all()
        keep = np.arange(len(self.KAPPAS)) != 2
        for name in ("eta0", "xi", "gamma_opt"):
            assert np.array_equal(getattr(pm, name)[keep],
                                  getattr(clean, name)[keep])

    def test_stack_cells_share_one_geometry(self):
        # a stack is one spec's geometry and arrays of rates, so its cells
        # share that geometry by construction; above 16 sites it holds one
        with pytest.raises(ValidationError, match="one cell"):
            EigenbasisSteadySolver(semi_infinite_spec(1, 0.5, 0, 1, 9, 9),
                                   [1.0, 1.0], [0.5, 0.5])
