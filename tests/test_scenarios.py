import math
from dataclasses import replace

import numpy as np
import pytest

from bosonet import scenarios
from bosonet.errors import (
    ApplicabilityError,
    FrameError,
    NumericsError,
    StabilityError,
    ValidationError,
)
from bosonet.linalg import solve_lyapunov
from bosonet.network import (
    BathSpec,
    InputMoments,
    NetworkSpec,
    beam_splitter,
    build_state_space,
    hyperbolic_frame,
    is_passive,
    two_mode_squeeze,
)
from bosonet.scenarios import (
    FIG1_HEADER,
    FIG2_HEADER,
    FIG3_HEADER,
    ParametricParams,
    ThreeModeParams,
    TwoModeParams,
    boundary_line,
    duan_quantity,
    fig1_point,
    fig2_point,
    fig3_rows,
    optimal_coupling,
    parametric_blocks,
    parametric_bound,
    parametric_network,
    parametric_optimum,
    parametric_variance_check,
    separability_boundary,
    three_mode_budget,
    three_mode_frame_network,
    three_mode_physical_network,
    three_mode_transform,
    two_mode_network,
    two_mode_squeezing_power,
)
from bosonet.steady import min_quadrature_variance, steady_covariance


def squeeze_params(g_script, xi, gamma1=1.0, gamma2=1.0, n1=0.0, n2=0.0):
    return TwoModeParams(
        g_plus=g_script * math.sinh(xi),
        g_minus=g_script * math.cosh(xi),
        gamma1=gamma1,
        gamma2=gamma2,
        n1=n1,
        n2=n2,
    )


THREE_MODE = ThreeModeParams(
    g_script=1.0, omega=1.0, kappa=1.0, gamma_m=0.01, xi=0.5
)


def equal_damping_sum(g_script, xi, gamma=1.0):
    """Vacuum-input closed form of the squeezing sum at equal damping."""
    g2, gg = 4.0 * g_script * g_script, gamma * gamma
    return 1.0 + math.exp(-2.0 * xi) * g2 / (g2 + gg) + gg / (g2 + gg)


def hand_written_frame_network(p):
    """The collective frame written out by hand, as a reference.

    The cavity exchanges with Sigma at g_script and the detuning split
    becomes a Sigma/Delta exchange at omega / 2.
    """
    phys = three_mode_physical_network(p)
    transform = three_mode_transform(p.xi)
    moments = transform.apply_to_inputs(InputMoments.from_baths(phys))
    baths = tuple(
        BathSpec(gamma, moments.occupancy[i], moments.anomalous[i])
        for i, gamma in enumerate((p.kappa, p.gamma_m, p.gamma_m))
    )
    couplings = [beam_splitter(p.g_script, 0, 1), beam_splitter(0.5 * p.omega, 1, 2)]
    return NetworkSpec(3, baths, couplings)


class TestTwoModeParams:
    def test_frame_parameters(self):
        p = TwoModeParams(g_plus=0.5, g_minus=1.0, gamma1=1.0, gamma2=1.0)
        assert abs(p.g_script - math.sqrt(0.75)) < 1e-15
        assert abs(p.xi - math.atanh(0.5)) < 1e-15

    def test_no_frame_when_squeeze_dominates(self):
        p = TwoModeParams(g_plus=1.0, g_minus=0.5, gamma1=1.0, gamma2=1.0)
        with pytest.raises(FrameError, match="g_plus = 1 must be below"):
            p.g_script
        with pytest.raises(FrameError):
            two_mode_squeezing_power(p)

    def test_nan_occupancy_rejected(self):
        with pytest.raises(ValidationError):
            TwoModeParams(g_plus=0.5, g_minus=1.0, gamma1=1.0, gamma2=1.0, n1=math.nan)

    def test_network_matches_params(self):
        p = TwoModeParams(g_plus=0.3, g_minus=0.8, gamma1=2.0, gamma2=0.5)
        spec = two_mode_network(p)
        assert spec.n_modes == 2
        assert not is_passive(spec)
        kinds = sorted(c.kind for c in spec.couplings)
        assert kinds == ["beam_splitter", "two_mode_squeeze"]


class TestNonFiniteParams:
    """Parameter records name the field that holds a NaN or Inf."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["eta1", "eta2", "gamma1", "n2"])
    def test_parametric_params(self, field, value):
        kwargs = {"g_plus": 0.3, "g_minus": 1.0, "gamma1": 1.0, "gamma2": 1.0}
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            ParametricParams(**{**kwargs, field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["omega", "kappa", "xi", "n_m"])
    def test_three_mode_params(self, field, value):
        kwargs = {"g_script": 1.0, "omega": 1.0, "kappa": 1.0, "gamma_m": 0.01}
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            ThreeModeParams(**{**kwargs, field: value})


class TestSqueezingPower:
    def test_no_squeeze_gives_vacuum_noise(self):
        result = two_mode_squeezing_power(
            TwoModeParams(g_plus=0.0, g_minus=1.0, gamma1=1.0, gamma2=1.0)
        )
        assert abs(result.norm_var1 - 1.0) < 1e-12
        assert abs(result.norm_var2 - 1.0) < 1e-12
        assert abs(result.sum - 2.0) < 1e-12

    def test_weak_damping_reference_point(self):
        result = two_mode_squeezing_power(
            TwoModeParams(g_plus=0.5, g_minus=1.0, gamma1=0.1, gamma2=0.1)
        )
        assert result.sum == pytest.approx(1.3355481727574756, abs=1e-13)
        assert result.norm_var1 == pytest.approx(0.667774086378738, abs=1e-13)
        assert result.norm_var2 == pytest.approx(0.6677740863787375, abs=1e-13)
        assert result.alpha_normalized_variance == pytest.approx(
            1.9966777408637868, abs=1e-13
        )
        assert result.sum > 1.0
        assert result.slack > 0.0

    def test_strong_coupling_approaches_its_floor(self):
        result = two_mode_squeezing_power(squeeze_params(50.0, 0.5))
        floor = 1.0 + math.exp(-1.0)
        assert result.sum == pytest.approx(1.3679426469067515, abs=1e-13)
        assert result.sum > floor
        assert result.sum - floor < 1e-4

    def test_sum_decreases_with_coupling_and_respects_floor(self):
        xi = 0.7
        floor = 1.0 + math.exp(-2.0 * xi)
        sums = [
            two_mode_squeezing_power(squeeze_params(g, xi)).sum
            for g in np.geomspace(0.2, 40.0, 12)
        ]
        assert all(s >= floor - 1e-12 for s in sums)
        assert all(a > b for a, b in zip(sums, sums[1:]))

    def test_strong_coupling_large_xi_matches_closed_form(self):
        # operands of order 1e3: the Lyapunov residual is checked
        # relative to them, not to max(1, ||q||)
        result = two_mode_squeezing_power(squeeze_params(50.0, 4.0))
        assert abs(result.sum - equal_damping_sum(50.0, 4.0)) < 1e-9

    def test_direct_route_holds_at_xi_five(self):
        spec = two_mode_network(squeeze_params(50.0, 5.0))
        cov = steady_covariance(build_state_space(spec), InputMoments.from_baths(spec))
        total = sum(min_quadrature_variance(cov, k).value / 0.5 for k in (0, 1))
        assert abs(total - equal_damping_sum(50.0, 5.0)) < 1e-9

    def test_bound_is_never_violated_for_thermal_inputs(self):
        result = two_mode_squeezing_power(
            squeeze_params(2.0, 0.8, gamma1=0.3, gamma2=1.7, n1=0.3, n2=1.7)
        )
        assert result.slack >= -1e-12
        assert result.sum >= result.bound - 1e-12


class TestParametricBound:
    def test_balanced_no_split(self):
        p = ParametricParams(g_plus=0.0, g_minus=1.0, gamma1=1.0, gamma2=1.0)
        assert parametric_bound(p) == 1.0

    def test_balanced_with_split(self):
        p = ParametricParams(
            g_plus=0.0, g_minus=1.0, gamma1=1.0, gamma2=1.0, eta1=1.0
        )
        assert abs(parametric_bound(p) - 4.0 / 3.0) < 1e-15

    def test_unbalanced_optimum_value(self):
        p = ParametricParams(
            g_plus=0.0,
            g_minus=3.0,
            gamma1=4.0,
            gamma2=1.0,
            eta1=5.0 / 6.0,
            eta2=-5.0 / 6.0,
        )
        assert abs(parametric_bound(p) - 0.9) < 1e-12

    def test_split_at_stability_edge_rejected(self):
        p = ParametricParams(
            g_plus=0.0, g_minus=1.0, gamma1=1.0, gamma2=1.0, eta1=2.0
        )
        with pytest.raises(StabilityError):
            parametric_bound(p)


class TestParametricOptimum:
    def test_equal_rates(self):
        opt = parametric_optimum(1.0, 1.0)
        assert abs(opt.delta_eta_star) < 1e-12
        assert abs(opt.min_value - 1.0) < 1e-12

    def test_four_to_one(self):
        opt = parametric_optimum(4.0, 1.0)
        assert abs(opt.delta_eta_star - 5.0 / 3.0) < 1e-12
        assert abs(opt.min_value - 0.9) < 1e-12
        assert abs(opt.numeric_min_value - 0.9) < 1e-9

    def test_nan_numeric_minimum_rejected(self, monkeypatch):
        monkeypatch.setattr(
            scenarios, "golden_section_min", lambda *args, **kwargs: (0.0, math.nan)
        )
        with pytest.raises(NumericsError):
            parametric_optimum(4.0, 1.0)

    def test_extreme_asymmetry_approaches_half(self):
        opt = parametric_optimum(1.0e4, 1.0)
        assert abs(opt.min_value - (0.5 + 100.0 / 10001.0)) < 1e-12


class TestParametricVarianceCheck:
    def test_zero_split_reduces_to_squeezing_power(self):
        two_mode = two_mode_squeezing_power(
            TwoModeParams(g_plus=0.5, g_minus=1.0, gamma1=0.1, gamma2=0.1)
        )
        check = parametric_variance_check(
            ParametricParams(g_plus=0.5, g_minus=1.0, gamma1=0.1, gamma2=0.1)
        )
        assert abs(check.sum_x - two_mode.sum) < 1e-12
        assert abs(check.ratio_x1 - two_mode.norm_var1) < 1e-12
        assert abs(check.ratio_y1 - two_mode.alpha_normalized_variance) < 1e-12
        assert check.min_slack >= -1e-9

    def test_balanced_sweep_respects_split_bound(self):
        for de in np.linspace(-1.8, 1.8, 13):
            p = ParametricParams(
                g_plus=0.0,
                g_minus=3.0,
                gamma1=1.0,
                gamma2=1.0,
                eta1=de / 2.0,
                eta2=-de / 2.0,
            )
            check = parametric_variance_check(p)
            assert abs(check.sum_y_bound - 4.0 / (4.0 - de * de) * (4.0 - 0.0 * de) / 4.0) < 1e-12
            assert check.min_slack >= -1e-9
            assert check.sum_y >= check.sum_y_bound - 1e-9
            assert check.sum_x >= check.sum_x_bound - 1e-9

    def test_x_and_y_bounds_mirror_under_split_sign(self):
        p = ParametricParams(
            g_plus=0.0, g_minus=3.0, gamma1=4.0, gamma2=1.0, eta1=0.9
        )
        q = ParametricParams(
            g_plus=0.0, g_minus=3.0, gamma1=4.0, gamma2=1.0, eta2=0.9
        )
        cp, cq = parametric_variance_check(p), parametric_variance_check(q)
        assert abs(cp.sum_y_bound - cq.sum_x_bound) < 1e-12
        assert abs(cp.sum_x_bound - cq.sum_y_bound) < 1e-12

    def test_unstable_block_is_named(self):
        p = ParametricParams(
            g_plus=0.0, g_minus=0.0, gamma1=1.0, gamma2=1.0, eta1=2.0
        )
        with pytest.raises(StabilityError, match=r"\('X1', 'Y2'\)"):
            parametric_variance_check(p)

    def test_blocks_split_the_quadratures(self):
        p = ParametricParams(
            g_plus=0.0, g_minus=3.0, gamma1=4.0, gamma2=1.0, eta1=0.5
        )
        first, second = parametric_blocks(p)
        assert first.labels == ("X1", "Y2")
        assert second.labels == ("X2", "Y1")
        assert first.drift.shape == (2, 2)
        assert abs(first.drift[0, 0] - (-(4.0 - 0.5) / 2.0)) < 1e-14
        assert abs(second.drift[0, 0] - (-(1.0 + 0.0) / 2.0)) < 1e-14
        assert np.allclose(first.noise, np.diag([4.0, 1.0]) / 2.0)

    def test_blocks_match_the_full_steady_covariance(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            gamma1, gamma2 = rng.uniform(0.2, 5.0, size=2)
            g_minus = rng.uniform(0.0, 4.0)
            p = ParametricParams(
                g_plus=rng.uniform(0.0, 1.0) * g_minus,
                g_minus=g_minus,
                gamma1=gamma1,
                gamma2=gamma2,
                eta1=rng.uniform(-0.9, 0.9) * gamma1,
                eta2=rng.uniform(-0.9, 0.9) * gamma2,
                n1=rng.uniform(0.0, 3.0),
                n2=rng.uniform(0.0, 3.0),
            )
            spec = parametric_network(p)
            vq = steady_covariance(
                build_state_space(spec), InputMoments.from_baths(spec)
            ).quadrature_matrix()
            # quadrature order (X1, X2, Y1, Y2)
            for block, index in zip(parametric_blocks(p), ([0, 3], [1, 2])):
                w = solve_lyapunov(block.drift, block.noise.astype(complex)).real
                scale = max(1.0, float(np.abs(w).max()))
                assert np.abs(w - vq[np.ix_(index, index)]).max() < 1e-10 * scale


class TestThreeModeBudget:
    def test_no_coupling_leaves_optical_mode_alone(self):
        budget = three_mode_budget(
            ThreeModeParams(g_script=0.0, omega=1.0, kappa=1.0, gamma_m=0.01)
        )
        assert abs(budget.transfer[0, 0] - 1.0) < 1e-12
        assert budget.eta_e == pytest.approx(0.0, abs=1e-12)

    def test_no_mechanical_exchange_decouples_third_mode(self):
        budget = three_mode_budget(replace(THREE_MODE, omega=0.0))
        assert np.abs(budget.transfer[2] - np.array([0.0, 0.0, 1.0])).max() < 1e-12

    def test_reference_extraction_efficiency(self):
        budget = three_mode_budget(THREE_MODE)
        assert budget.eta_e == pytest.approx(1.9417429974751599, abs=1e-12)
        assert 0.0 < budget.eta_e < 2.0

    def test_transfer_rows_sum_to_one(self):
        budget = three_mode_budget(THREE_MODE)
        assert np.abs(budget.transfer.sum(axis=1) - 1.0).max() < 1e-10

    def test_derived_frame_is_two_plain_beam_splitters(self):
        rng = np.random.default_rng(5)
        cases = [THREE_MODE, replace(THREE_MODE, omega=-0.7, n_o=0.4, n_m=1.3)]
        cases += [
            ThreeModeParams(
                g_script=rng.uniform(0.1, 3.0),
                omega=rng.uniform(-3.0, 3.0),
                kappa=rng.uniform(0.5, 5.0),
                gamma_m=rng.uniform(0.005, 0.5),
                xi=rng.uniform(0.0, 1.2),
                n_o=rng.uniform(0.0, 2.0),
                n_m=rng.uniform(0.0, 2.0),
            )
            for _ in range(20)
        ]
        for p in cases:
            derived = three_mode_frame_network(p)
            reference = hand_written_frame_network(p)
            assert [(c.kind, c.modes) for c in derived.couplings] == [
                ("beam_splitter", (0, 1)),
                ("beam_splitter", (1, 2)),
            ]
            for got, want in zip(derived.couplings, reference.couplings):
                gap = abs(got.amplitude - want.amplitude)
                assert gap <= 1e-12 * abs(want.amplitude)
            assert derived.baths == reference.baths
            assert np.abs(
                build_state_space(derived).drift - build_state_space(reference).drift
            ).max() < 1e-12

    def test_frame_network_is_passive(self):
        assert is_passive(three_mode_frame_network(THREE_MODE))
        assert not is_passive(three_mode_physical_network(THREE_MODE))


class TestDuanQuantity:
    def test_uncoupled_vacuum_sits_on_the_classical_edge(self):
        # exactly on the boundary, so the verdict bit is left unchecked
        result = duan_quantity(
            ThreeModeParams(g_script=0.0, omega=1.0, kappa=1.0, gamma_m=0.01)
        )
        assert abs(result.direct - 1.0) < 1e-10
        assert abs(result.budget - 1.0) < 1e-10

    def test_no_squeeze_never_entangles(self):
        for g in (0.3, 1.0, 2.0):
            result = duan_quantity(
                ThreeModeParams(g_script=g, omega=1.0, kappa=1.0, gamma_m=0.01)
            )
            assert result.direct >= 1.0 - 1e-10

    def test_reference_point_via_both_routes(self):
        result = duan_quantity(THREE_MODE)
        assert result.direct == pytest.approx(0.3862921656672832, abs=1e-12)
        assert abs(result.direct - result.budget) < 1e-8
        assert result.entangled
        assert result.pairing == "x_sigma_p_delta"

    def test_hot_baths_destroy_entanglement(self):
        result = duan_quantity(replace(THREE_MODE, n_o=2.0, n_m=2.0))
        assert not result.entangled
        assert abs(result.direct - result.budget) < 1e-8

    @pytest.mark.parametrize("n", [1e4, 1e6, 3e6])
    def test_room_temperature_occupancies(self, n):
        # the Duan sum is affine in the occupancies, so unit-scale
        # points predict the value at n_o = n_m = n
        cold = duan_quantity(THREE_MODE).direct
        warm = duan_quantity(replace(THREE_MODE, n_o=1.0, n_m=1.0)).direct
        result = duan_quantity(replace(THREE_MODE, n_o=n, n_m=n))
        assert result.direct == pytest.approx(cold + n * (warm - cold), rel=1e-12)
        assert not result.entangled


class TestBoundary:
    def test_no_squeeze_is_degenerate(self):
        line = boundary_line(1.0, 0.0)
        assert line.degenerate
        assert line.n_o_intercept == 0.0
        assert line.n_m_intercept == 0.0

    def test_reference_line(self):
        line = boundary_line(1.0, 0.5)
        assert line.slope == pytest.approx(-0.36787944117144233, abs=1e-15)
        assert line.n_o_intercept == pytest.approx(0.8591409142295225, abs=1e-15)
        assert line.n_m_intercept == pytest.approx(0.31606027941427883, abs=1e-15)
        assert abs(line.n_m_at(0.0) - line.n_m_intercept) < 1e-15
        assert abs(line.n_m_at(line.n_o_intercept)) < 1e-15

    def test_optical_intercept_formula(self):
        for xi in (0.1, 0.5, 1.2):
            line = boundary_line(0.7, xi)
            assert line.n_o_intercept == 0.5 * (math.exp(2.0 * xi) - 1.0)

    def test_vanishing_efficiency_flattens_the_line(self):
        line = boundary_line(0.0, 0.5)
        assert line.slope == 0.0
        assert line.n_m_intercept == 0.0

    def test_efficiency_domain(self):
        with pytest.raises(ApplicabilityError):
            boundary_line(2.0, 0.5)
        with pytest.raises(ApplicabilityError):
            boundary_line(-0.1, 0.5)

    def test_scheme_boundary_uses_its_own_efficiency(self):
        line = separability_boundary(THREE_MODE)
        budget = three_mode_budget(THREE_MODE)
        assert line.eta_e == budget.eta_e
        assert line.xi == THREE_MODE.xi

    def test_line_separates_duan_outcomes(self):
        line = separability_boundary(THREE_MODE)
        n_o = 0.3
        edge = line.n_m_at(n_o)
        below = duan_quantity(replace(THREE_MODE, n_o=n_o, n_m=max(edge - 0.05, 0.0)))
        above = duan_quantity(replace(THREE_MODE, n_o=n_o, n_m=edge + 0.05))
        assert below.entangled
        assert not above.entangled


class TestOptimalCoupling:
    def test_reference_formula_value(self):
        opt = optimal_coupling(1.0, 1.0, 0.01)
        assert opt.g_formula == pytest.approx(1.057371263440564, abs=1e-12)
        expected = math.sqrt(0.5 * math.sqrt(1.0 + 4.0))
        assert abs(opt.g_formula - expected) < 1e-12

    def test_formula_tracks_numeric_optimum(self):
        opt = optimal_coupling(1.0, 1.0, 0.001)
        ratio = opt.eta_e_formula / opt.eta_e_numeric
        assert ratio >= 0.99
        assert opt.eta_e_numeric <= 2.0

    def test_weak_exchange_limit(self):
        opt = optimal_coupling(1.0, 0.001, 0.01)
        assert opt.g_formula < 0.05


class TestSidebandConstruction:
    def test_from_sidebands_matches_frame_parameters(self):
        p = ThreeModeParams.from_sidebands(
            g_plus=0.5, g_minus=1.0, omega=1.0, kappa=1.0, gamma_m=0.01
        )
        assert abs(p.g_script - math.sqrt(0.75)) < 1e-12
        assert abs(p.xi - math.atanh(0.5)) < 1e-12

    def test_from_sidebands_rejects_dominant_squeeze(self):
        with pytest.raises(FrameError):
            ThreeModeParams.from_sidebands(
                g_plus=1.0, g_minus=0.5, omega=1.0, kappa=1.0, gamma_m=0.01
            )


class TestFrameRule:
    """Every caller derives the hyperbolic frame from hyperbolic_frame."""

    @pytest.mark.parametrize(
        "g_plus, g_minus", [(0.0, 1.0), (0.5, 1.0), (0.3, 0.8), (1e-3, 2.5), (2.9, 3.0)]
    )
    def test_every_caller_gives_the_same_bits(self, g_plus, g_minus):
        expected = hyperbolic_frame(g_plus, g_minus)
        two = TwoModeParams(g_plus=g_plus, g_minus=g_minus, gamma1=1.0, gamma2=1.0)
        three = ThreeModeParams.from_sidebands(
            g_plus=g_plus, g_minus=g_minus, omega=1.0, kappa=1.0, gamma_m=0.01
        )
        assert (two.g_script, two.xi) == expected
        assert (three.g_script, three.xi) == expected

    @pytest.mark.parametrize(
        "g_plus, g_minus", [(1.0, 1.0), (1.0, 0.5), (math.nan, 1.0), (0.5, math.nan)]
    )
    def test_every_caller_refuses_with_one_text(self, g_plus, g_minus):
        text = (
            f"no hyperbolic frame: g_plus = {g_plus:g} must be below "
            f"g_minus = {g_minus:g}"
        )
        callers = [lambda: hyperbolic_frame(g_plus, g_minus)]
        if math.isnan(g_plus) or math.isnan(g_minus):
            # the library records refuse NaN before any frame is formed
            with pytest.raises(ValidationError):
                TwoModeParams(g_plus=g_plus, g_minus=g_minus, gamma1=1.0, gamma2=1.0)
            with pytest.raises(ValidationError):
                ThreeModeParams.from_sidebands(g_plus, g_minus, 1.0, 1.0, 0.01)
            with pytest.raises(ValidationError, match="amplitude must be finite"):
                beam_splitter(g_minus, 0, 1), two_mode_squeeze(g_plus, 0, 1)
        else:
            two = TwoModeParams(g_plus=g_plus, g_minus=g_minus, gamma1=1.0, gamma2=1.0)
            callers += [
                lambda: two.g_script,
                lambda: two.xi,
                lambda: two_mode_squeezing_power(two),
                lambda: ThreeModeParams.from_sidebands(g_plus, g_minus, 1.0, 1.0, 0.01),
            ]
        for call in callers:
            with pytest.raises(FrameError) as err:
                call()
            assert str(err.value) == text


class TestRowHelpers:
    def test_header_constants(self):
        assert FIG1_HEADER == (
            "g_script",
            "xi",
            "gamma1",
            "gamma2",
            "norm_var1",
            "norm_var2",
            "sum",
        )
        assert FIG2_HEADER == ("delta_eta", "gamma1", "gamma2", "bound", "direct_sum")
        assert FIG3_HEADER == ("n_o", "n_m", "duan_direct", "duan_budget", "entangled")

    def test_fig1_row(self):
        row = fig1_point(50.0, 0.5, 1.0, 1.0)
        assert len(row) == len(FIG1_HEADER)
        assert row[0] == 50.0
        assert row[6] == pytest.approx(1.3679426469067515, abs=1e-13)

    def test_fig2_row(self):
        row = fig2_point(5.0 / 3.0, 4.0, 1.0, g_minus=3.0)
        assert len(row) == len(FIG2_HEADER)
        assert row[3] == pytest.approx(0.9, abs=1e-12)
        assert row[4] >= row[3] - 1e-9

    def test_fig3_row(self):
        (row,) = fig3_rows(THREE_MODE, [0.0], [0.0])
        assert len(row) == len(FIG3_HEADER)
        assert row[2] == pytest.approx(0.3862921656672832, abs=1e-12)
        assert row[4] is True

    @pytest.mark.parametrize("n", [1e4, 1e6, 1e8])
    def test_fig1_row_at_room_temperature(self, n):
        # for n1 = n2 the normalized sum does not depend on the occupancy
        row = fig1_point(2.0, 0.5, 1.0, 1.0, n1=n, n2=n)
        assert abs(row[6] - equal_damping_sum(2.0, 0.5)) < 1e-9


class TestFig3Rows:
    N_OS = np.linspace(0.0, 2.0, 5)
    N_MS = np.linspace(0.0, 0.5, 5)

    def test_rows_equal_per_point_duan(self):
        expected = []
        for n_o in self.N_OS:
            for n_m in self.N_MS:
                r = duan_quantity(replace(THREE_MODE, n_o=n_o, n_m=n_m))
                expected.append((n_o, n_m, r.direct, r.budget, r.entangled))
        assert fig3_rows(THREE_MODE, self.N_OS, self.N_MS) == expected

    def test_one_budget_per_grid(self, monkeypatch):
        calls = []

        def counting(p):
            calls.append(p)
            return three_mode_budget(p)

        monkeypatch.setattr(scenarios, "three_mode_budget", counting)
        rows = fig3_rows(THREE_MODE, self.N_OS, self.N_MS)
        assert len(rows) == 25
        assert len(calls) == 1
