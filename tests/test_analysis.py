"""Analysis-layer tests: optimization, closed forms, estimates, sweeps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enaqt import (
    EigenbasisSteadySolver,
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
    semi_infinite_spec,
    symmetry_split,
)
from enaqt import analysis
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

    @pytest.mark.parametrize("axis", ["kappa_grid", "mu_grid"])
    def test_non_finite_grid_rejected(self, axis):
        # NaN passes the ordering and bound checks, whose comparisons are
        # all False for it
        grids = {"kappa_grid": [0.1, 1.0], "mu_grid": [0.1, 1.0]}
        grids[axis] = [0.1, float("nan")]
        with pytest.raises(ValidationError, match=f"{axis} must be finite"):
            plane_sweep("chain", 3, 1, 2, **grids)


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


class TestSearchArguments:
    """Optimizer arguments outside their domain raise ValidationError."""

    SPEC = SystemSpec("chain", 5, (0,), 1, kappa=1.0, mu=0.1, gamma=0.0)

    @pytest.mark.parametrize("refine_tol", [0.0, -1e-4, np.nan, np.inf])
    def test_optimize_rejects_refine_tol(self, refine_tol):
        # with refine_tol = 0 the search would never end: a bracket
        # stops shrinking at one ulp
        with pytest.raises(ValidationError, match="refine_tol"):
            optimize_dephasing(self.SPEC, refine_tol=refine_tol)

    @pytest.mark.parametrize("grid_points", [0, -3])
    def test_optimize_rejects_grid_points(self, grid_points):
        with pytest.raises(ValidationError, match="grid_points"):
            optimize_dephasing(self.SPEC, grid_points=grid_points)

    @pytest.mark.parametrize("refine_tol", [0.0, -1e-4, np.nan, np.inf])
    def test_infinite_chain_rejects_refine_tol(self, refine_tol):
        with pytest.raises(ValidationError, match="refine_tol"):
            infinite_chain_enaqt(2.0, 0.5, refine_tol=refine_tol)

    @pytest.mark.parametrize("grid_points", [0, -3])
    def test_infinite_chain_rejects_grid_points(self, grid_points):
        with pytest.raises(ValidationError, match="grid_points"):
            infinite_chain_enaqt(2.0, 0.5, grid_points=grid_points)

    @pytest.mark.parametrize("grid_points", [0, 1])
    def test_max_enaqt_rejects_grid_points(self, grid_points):
        # the coordinate sweeps step by the spacing of the ranking grid
        with pytest.raises(ValidationError, match="grid_points"):
            max_enaqt("chain", 4, 2, 3, grid_points=grid_points)

    def test_max_enaqt_rejects_negative_sweeps(self):
        with pytest.raises(ValidationError, match="sweeps"):
            max_enaqt("chain", 4, 2, 3, sweeps=-1)

    def test_tolerance_below_an_ulp_terminates(self):
        # the golden bracket cannot shrink below one ulp of log gamma; the
        # search stops there instead of looping
        fine = optimize_dephasing(self.SPEC, refine_tol=1e-300)
        ref = optimize_dephasing(self.SPEC)
        assert fine.gamma_opt == pytest.approx(ref.gamma_opt, rel=1e-3)
        assert fine.xi == pytest.approx(ref.xi, abs=1e-9)

    def test_single_point_grid(self):
        res = optimize_dephasing(self.SPEC, grid_points=1)
        assert res.eta0 == pytest.approx(dense_lu_branching(self.SPEC)[0],
                                         abs=1e-12)


def _scalar_golden(f, a, b, tol):
    """The one-bracket golden-section maximizer: the oracle for the
    elementwise analysis._golden."""
    invphi = (5 ** 0.5 - 1) / 2
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (a + b) / 2


@st.composite
def _brackets(draw):
    count = draw(st.integers(1, 6))
    elements = []
    for _ in range(count):
        a = draw(st.floats(-10, 10))
        width = draw(st.floats(0.0, 5.0))
        tol = 10.0 ** draw(st.floats(-9, 0))
        peak = draw(st.floats(-12, 12))
        # rounding makes plateaus, so ties between the two interior
        # values occur and must keep the left side
        digits = draw(st.integers(1, 12))
        elements.append((a, a + width, tol, peak, digits))
    return elements


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_brackets())
def test_elementwise_golden_matches_scalar_oracle(elements):
    fns = [lambda x, p=p, k=k: round(-(x - p) ** 2 + 0.3 * math.sin(3 * x), k)
           for _, _, _, p, k in elements]

    def stacked(x, idx):
        return np.array([[fns[i](v) for v in np.atleast_1d(row)]
                         for i, row in zip(idx, x)]).reshape(x.shape)

    got = analysis._golden(stacked, [e[0] for e in elements],
                           [e[1] for e in elements], [e[2] for e in elements])
    want = [_scalar_golden(fn, a, b, tol)
            for fn, (a, b, tol, _, _) in zip(fns, elements)]
    assert got.tolist() == want


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
    stacked = EigenbasisSteadySolver(specs).eta_grid(gammas)
    direct = np.array([[efficiency_direct(s.with_gamma(g)).eta
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
    # 5 x 4 = 20 cells: two batches of plane_sweep
    KAPPAS = [1e-3, 1e-2, 0.1, 1.0, 10.0]
    MUS = [1e-3, 1e-2, 0.3, 3.0]

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
        branching = EigenbasisSteadySolver._branching

        def uncertified(self, xs, pops, g2, a, rhs, bnorm):
            # every point of the cells at bad_kappa fails its batch checks
            eta, eta_loss, resid, certified = certify(self, xs, pops, g2, a,
                                                      rhs, bnorm)
            hit = a.two_kappa == 2.0 * bad_kappa  # shape (cells, 1)
            return eta, eta_loss, resid, certified & ~hit

        def leaky(self, pops, a):
            # every answer for a cell at bad_kappa leaks
            eta, eta_loss = branching(self, pops, a)
            return eta, eta_loss + 1e-9j * (a.two_kappa == 2.0 * bad_kappa)

        monkeypatch.setattr(EigenbasisSteadySolver, "_certify", uncertified)
        monkeypatch.setattr(EigenbasisSteadySolver, "_branching", leaky)
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
        with pytest.raises(ValidationError, match="geometry"):
            EigenbasisSteadySolver([SystemSpec("chain", 4, (0,), 2, 1, 1, 0),
                                    SystemSpec("chain", 4, (0,), 1, 1, 1, 0)])
        with pytest.raises(ValidationError, match="one cell"):
            EigenbasisSteadySolver(
                [semi_infinite_spec(1, 0.5, 0, 1, 9, 9)] * 2)
