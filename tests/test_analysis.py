"""Analysis-layer tests: optimization, closed forms, estimates, sweeps."""

import numpy as np
import pytest

from enaqt import (
    EnaqtResult,
    SystemSpec,
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
    symmetry_split,
)
from dense_oracles import dense_lu_branching

FIG1B = SystemSpec("chain", 3, (0,), 1, kappa=0.1, mu=0.01, gamma=0.0)


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

    def test_ring_antipode_zero(self):
        assert enaqt_estimate("ring", 4, 1e-3, 1e-3, 1, 3) == 0.0
        assert enaqt_estimate("ring", 6, 1e-3, 1e-3, 2, 5) == 0.0

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
