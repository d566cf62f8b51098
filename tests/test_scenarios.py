import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from bosonet import scenarios
from bosonet.errors import (
    ApplicabilityError,
    DimensionError,
    FrameError,
    NumericsError,
    StabilityError,
    ValidationError,
)
from bosonet.linalg import solve_lyapunov
from bosonet.network import (
    BathSpec,
    InputMoments,
    MomentTransform,
    NetworkSpec,
    beam_splitter,
    build_state_space,
    build_state_spaces,
    cosh_sinh,
    hyperbolic_frame,
    is_passive,
    passive_state_space,
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
    fig1_rows,
    fig2_point,
    fig2_rows,
    fig3_rows,
    OptimalCoupling,
    optimal_coupling,
    optimal_couplings,
    parametric_blocks,
    parametric_bound,
    parametric_network,
    parametric_optimum,
    parametric_variance_check,
    parametric_variance_checks,
    duan_quantities,
    separability_boundary,
    squeezing_powers,
    three_mode_budget,
    three_mode_budgets,
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


def frame_state_space(p):
    """The physical three-mode dynamics in the collective frame."""
    phys = build_state_space(three_mode_physical_network(p))
    return three_mode_transform(p.xi).apply_to_state_space(phys)


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

    def test_decoupled_pair_keeps_its_inputs(self):
        # g_script = 0 has the identity frame: the closed form at G = 0
        assert fig1_point(0.0, 0.5, 1.0, 1.0) == (0.0, 0.5, 1.0, 1.0, 1.0, 1.0, 2.0)

    @pytest.mark.parametrize("g_script, xi", [
        (g, xi) for xi in (4.5, 5.0, 6.0, 7.0) for g in (0.5, 1.0, 5.0, 50.0)
        if (g, xi) != (50.0, 7.0)
    ])
    def test_strong_squeezing_answers_within_the_closed_form(self, g_script, xi):
        # the per-mode reads drop the mirror-odd part of V's forward error,
        # so the direct route keeps the frame route's 1e-10 here
        row = fig1_point(g_script, xi, 1.0, 1.0)
        g2 = 4.0 * g_script * g_script
        norm_var1 = (0.5 * g2 * (1.0 + math.exp(-2.0 * xi)) + 1.0) / (g2 + 1.0)
        assert abs(row[4] - norm_var1) < 1e-10
        # the sum adds norm_var2's error: at most 1.1e-10 at xi = 7
        assert abs(row[6] - equal_damping_sum(g_script, xi)) < 2e-10

    def test_strong_squeezing_past_the_structure_limit_is_refused(self):
        # G = 50 at xi = 7: V's doubled-structure defect is about 2.1e-6
        with pytest.raises(NumericsError, match="breaks the doubled structure"):
            fig1_point(50.0, 7.0, 1.0, 1.0)

    def test_bound_is_never_violated_for_thermal_inputs(self):
        result = two_mode_squeezing_power(
            squeeze_params(2.0, 0.8, gamma1=0.3, gamma2=1.7, n1=0.3, n2=1.7)
        )
        assert result.slack >= -1e-12
        assert result.sum >= 1.0 - 1e-12


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
            scenarios, "golden_sections_max", lambda *args, **kwargs: ([0.0], [math.nan])
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
            derived = frame_state_space(p)
            reference = build_state_space(hand_written_frame_network(p))
            assert np.abs(derived.drift - reference.drift).max() < 1e-12
            # the slots the hand-written network leaves empty are exactly zero
            assert np.array_equal(derived.drift == 0, reference.drift == 0)
            assert np.array_equal(derived.input, reference.input)

    def test_unequal_damping_mixer_is_refused(self):
        # the Sigma/Delta mixer needs the two mechanical dampings equal
        phys = build_state_space(
            NetworkSpec(3, [BathSpec(1.0), BathSpec(0.01), BathSpec(0.02)])
        )
        with pytest.raises(FrameError, match="round-trip defect"):
            three_mode_transform(0.5).apply_to_state_space(phys)

    def test_frame_network_is_passive(self):
        assert passive_state_space(frame_state_space(THREE_MODE))
        assert not is_passive(three_mode_physical_network(THREE_MODE))


def mp_frame_figures(p):
    """eta_e, the mechanical share sum, the slope and the n_m intercept of
    the scheme from a 50-digit Kronecker solve of the frame's annihilation
    block (the cavity exchanging with Sigma at g_script, Sigma with Delta
    at omega / 2)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        g, w = mpmath.mpf(p.g_script), mpmath.mpf(p.omega) / 2
        gammas = [mpmath.mpf(p.kappa), mpmath.mpf(p.gamma_m), mpmath.mpf(p.gamma_m)]
        h = [[0, g, 0], [g, 0, w], [0, w, 0]]
        a = [[-gammas[i] / 2 * (i == j) - 1j * h[i][j] for j in range(3)] for i in range(3)]
        # A K + K A^H = -gamma_c e_c e_c^T, K flattened row-major
        m = mpmath.matrix(9, 9)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    m[3 * i + j, 3 * k + j] += a[i][k]
                    m[3 * i + j, 3 * i + k] += mpmath.conj(a[j][k])
        shares = []
        for c in range(3):
            q = mpmath.matrix(9, 1)
            q[4 * c] = -gammas[c]
            k = mpmath.lu_solve(m, q)
            shares.append([mpmath.re(k[4 * i]) for i in range(3)])
        # shares[c][i] is transfer[i, c]
        eta_e = shares[0][1] + shares[0][2]
        mechanical = shares[1][1] + shares[1][2] + shares[2][1] + shares[2][2]
        decay = mpmath.exp(-2 * mpmath.mpf(p.xi))
        slope = -eta_e * decay / mechanical
        n_m_intercept = eta_e * (1 - decay) / (2 * mechanical)
        return tuple(float(x) for x in (eta_e, mechanical, slope, n_m_intercept))


class TestHighQ:
    """eta_e and its complement are share sums, so they stay accurate at
    mechanical damping far below the cavity's."""

    @pytest.mark.parametrize(
        "p", [THREE_MODE, replace(THREE_MODE, g_script=1.4, omega=0.7, kappa=2.3, xi=0.9)]
    )
    def test_share_sums_equal_the_sum_rule_forms(self, p):
        budget = three_mode_budget(p)
        i00 = float(budget.transfer[0, 0])
        assert abs(budget.eta_e - (p.kappa / p.gamma_m) * (1.0 - i00)) < 1e-13
        assert abs(budget.mechanical - (2.0 - budget.eta_e)) < 1e-13

    @pytest.mark.parametrize("gamma_m", [1e-6, 1e-8, 1e-10, 1e-12])
    def test_figures_match_a_50_digit_solve(self, gamma_m):
        p = replace(THREE_MODE, gamma_m=gamma_m)
        budget = three_mode_budget(p)
        line = separability_boundary(p, budget)
        got = (budget.eta_e, budget.mechanical, line.slope, line.n_m_intercept)
        for value, exact in zip(got, mp_frame_figures(p)):
            assert value == pytest.approx(exact, rel=1e-12, abs=0.0)


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
        budget = three_mode_budget(THREE_MODE)
        line = separability_boundary(THREE_MODE, budget)
        assert line.eta_e == budget.eta_e
        assert line.xi == THREE_MODE.xi

    def test_line_separates_duan_outcomes(self):
        line = separability_boundary(THREE_MODE, three_mode_budget(THREE_MODE))
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

    @pytest.mark.parametrize("omega", [0.3, 1.0, 2.5])
    def test_eta_e_is_even_in_omega(self, omega):
        plus = three_mode_budget(replace(THREE_MODE, omega=omega))
        minus = three_mode_budget(replace(THREE_MODE, omega=-omega))
        assert minus.eta_e == plus.eta_e

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

    def test_amplitudes_whose_square_overflows(self):
        two = TwoModeParams(g_plus=1e200, g_minus=2e200, gamma1=1.0, gamma2=1.0)
        three = ThreeModeParams.from_sidebands(
            g_plus=1e200, g_minus=2e200, omega=1.0, kappa=1.0, gamma_m=0.01
        )
        for p in (two, three):
            assert abs(p.g_script - math.sqrt(0.75) * 2e200) <= 1e-15 * 2e200
            assert abs(p.xi - math.atanh(0.5)) <= 1e-15

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
        (row,) = fig3_rows(THREE_MODE, three_mode_budget(THREE_MODE), [0.0], [0.0])
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

    def grid(self, side=5):
        """The (n_o, n_m) columns of the side x side grid, n_o-major."""
        n_o, n_m = np.meshgrid(self.N_OS[:side], self.N_MS[:side], indexing="ij")
        return n_o.ravel(), n_m.ravel()

    def test_rows_equal_per_point_duan(self):
        n_os, n_ms = self.grid()
        expected = []
        for n_o, n_m in zip(n_os, n_ms):
            r = duan_quantity(replace(THREE_MODE, n_o=n_o, n_m=n_m))
            expected.append((n_o, n_m, r.direct, r.budget, r.entangled))
        budget = three_mode_budget(THREE_MODE)
        assert fig3_rows(THREE_MODE, budget, n_os, n_ms) == expected

    def test_occupancies_broadcast(self):
        budget = three_mode_budget(THREE_MODE)
        rows = fig3_rows(THREE_MODE, budget, 0.3, self.N_MS)
        assert rows == fig3_rows(THREE_MODE, budget, [0.3] * len(self.N_MS), self.N_MS)
        assert [row[:2] for row in rows] == [(0.3, n_m) for n_m in self.N_MS]

    @pytest.mark.parametrize(
        "n_o, n_m, first_bad",
        [
            ([0.0, -1.0], 0.2, (-1.0, 0.2)),
            (0.0, [0.5, math.nan, -2.0], (0.0, math.nan)),
            ([-1.0, 0.0], [math.inf, 0.0], (-1.0, math.inf)),
        ],
    )
    def test_invalid_occupancy_is_refused_as_by_the_params(self, n_o, n_m, first_bad):
        # the first bad point in row order raises, its n_o checked first
        with pytest.raises(ValidationError) as params:
            replace(THREE_MODE, n_o=first_bad[0], n_m=first_bad[1])
        with pytest.raises(ValidationError) as rows:
            fig3_rows(THREE_MODE, three_mode_budget(THREE_MODE), n_o, n_m)
        assert str(rows.value) == str(params.value)

    def test_one_budget_per_grid(self, monkeypatch):
        # the caller's one budget serves the grid; the rows compute none
        budget = three_mode_budget(THREE_MODE)
        calls = []

        def counting(p):
            calls.append(p)
            return three_mode_budget(p)

        monkeypatch.setattr(scenarios, "three_mode_budget", counting)
        rows = fig3_rows(THREE_MODE, budget, *self.grid())
        assert len(rows) == 25
        assert len(calls) == 0

    def test_rows_share_one_physical_state_space(self, monkeypatch):
        builds, read, solved = [], [], []
        real_build = scenarios.family_state_space
        real_read = scenarios.thermal_covariance

        def counting_build(*args):
            builds.append(args)
            return real_build(*args)

        def recording_read(ss, inputs):
            read.append((ss, inputs.occupancy.shape))
            return real_read(ss, inputs)

        budget = three_mode_budget(THREE_MODE)
        operator = budget.physical._lyapunov
        real_solve = operator.solve

        def recording_solve(q):
            solved.append(np.shape(q))
            return real_solve(q)

        monkeypatch.setattr(scenarios, "family_state_space", counting_build)
        monkeypatch.setattr(scenarios, "thermal_covariance", recording_read)
        monkeypatch.setattr(operator, "solve", recording_solve)
        counts = []
        for side in (1, 5):
            builds.clear()
            read.clear()
            fig3_rows(THREE_MODE, budget, *self.grid(side))
            counts.append(len(builds))
            # each grid is one read of the shared drift, with a thermal
            # occupancy row per grid row
            assert len(read) == 1
            assert read[0][0] is budget.physical
            assert read[0][1] == (side * side, 3)
        assert counts[0] == counts[1]
        # both grids contract the kernels of one solve on the physical drift,
        # one source per channel, not one per row
        assert solved == [(3, 6, 6)]

    def test_rows_check_the_direct_route_against_the_budget(self):
        budget = three_mode_budget(THREE_MODE)
        skewed = replace(budget, mechanical=budget.mechanical * (1.0 + 1e-6))
        with pytest.raises(NumericsError, match="disagree on the Duan quantity"):
            fig3_rows(THREE_MODE, skewed, [0.0], [0.0])


class TestBatches:
    """A grid is one batch whose rows equal the single points bit for bit."""

    def test_fig1_sweep_over_g_script(self):
        gs = np.geomspace(0.5, 50.0, 40)
        rows = fig1_rows(gs, 0.6, 1.3, 0.8)
        assert rows == [fig1_point(g, 0.6, 1.3, 0.8) for g in gs]

    def test_fig1_sweep_over_xi(self):
        xis = np.linspace(0.0, 3.0, 40)
        rows = fig1_rows(2.0, xis, 1.0, 1.0, n1=0.3, n2=1.7)
        assert rows == [fig1_point(2.0, xi, 1.0, 1.0, n1=0.3, n2=1.7) for xi in xis]

    def test_fig2_sweep(self):
        des = np.linspace(-4.9, 4.9, 41)
        rows = fig2_rows(des, 4.0, 1.0, 3.0, g_plus=0.5, n1=0.2)
        assert rows == [fig2_point(de, 4.0, 1.0, 3.0, g_plus=0.5, n1=0.2) for de in des]

    def test_array_forms_equal_the_scalar_functions(self):
        squeezers = [squeeze_params(g, 0.4 * g, n1=0.1 * g) for g in (0.2, 1.0, 3.0)]
        assert squeezing_powers(squeezers) == [
            two_mode_squeezing_power(p) for p in squeezers
        ]
        parametric = [
            ParametricParams(0.2, 1.5, 2.0, 1.0, eta1=de, eta2=-de, n2=0.4)
            for de in (-1.0, 0.0, 0.8)
        ]
        assert parametric_variance_checks(parametric) == [
            parametric_variance_check(p) for p in parametric
        ]
        assert squeezing_powers([]) == parametric_variance_checks([]) == []
        assert fig3_rows(THREE_MODE, three_mode_budget(THREE_MODE), [], [0.0]) == []

    def test_first_bad_point_raises_its_own_error(self):
        # xi = 21 has no frame; the batch raises what the point raises
        with pytest.raises(FrameError) as point:
            fig1_point(1.0, 21.0, 1.0, 1.0)
        with pytest.raises(FrameError) as batch:
            fig1_rows(1.0, [0.5, 21.0, 0.7, 20.0], 1.0, 1.0)
        assert str(batch.value) == str(point.value)
        # |delta_eta| >= gamma1 + gamma2 is unstable
        with pytest.raises(StabilityError) as point:
            fig2_point(6.0, 4.0, 1.0, 3.0)
        with pytest.raises(StabilityError) as batch:
            fig2_rows([0.0, 6.0, 1.0, 7.0], 4.0, 1.0, 3.0)
        assert str(batch.value) == str(point.value)
        assert "quadrature block ('X1', 'Y2')" in str(batch.value)

    def test_route_checks_run_at_every_point(self, monkeypatch):
        # the frame route of every member from the first slipped one on
        # slips by (k + 1) 1e-9: the grid raises at the first of them, whose
        # gap (over v1 = 1/2) names it
        grid = [0.5, 5.0, 50.0]
        assert fig1_rows(grid, 6.0, 1.0, 1.0) == [fig1_point(g, 6.0, 1.0, 1.0) for g in grid]
        split = scenarios.variance_decomposition

        for first in range(len(grid)):
            def slipped(*args, **kwargs):
                out = split(*args, **kwargs)
                out[first:, 0] += 1e-9 * np.arange(first + 1, len(grid) + 1)
                return out

            monkeypatch.setattr(scenarios, "variance_decomposition", slipped)
            with pytest.raises(NumericsError, match="routes disagree") as err:
                fig1_rows(grid, 6.0, 1.0, 1.0)
            assert err.value.estimate == pytest.approx(2e-9 * (first + 1), rel=0.05)

    def test_invalid_parameter_raises_validation_error(self):
        with pytest.raises(ValidationError, match="g_plus must be nonnegative"):
            fig1_rows(1.0, [0.5, -0.1], 1.0, 1.0)
        with pytest.raises(ValidationError):
            fig2_rows([0.0, 1.0], [4.0, -1.0], 1.0, 3.0)


def random_three_mode_points(count, seed):
    from bosonet.suites import random_three_mode

    rng = np.random.default_rng(seed)
    return [random_three_mode(rng) for _ in range(count)]


def bits(x) -> bytes:
    return np.ascontiguousarray(x).tobytes()


class TestThreeModeBatches:
    """three_mode_budgets and duan_quantities against their one-point calls."""

    def test_members_have_the_bits_of_the_one_point_call(self):
        points = random_three_mode_points(20, 5) + [
            replace(THREE_MODE, xi=0.0), replace(THREE_MODE, gamma_m=1e-8, xi=1.1),
        ]
        stack = three_mode_budgets(points)
        assert stack.transfer.shape == (len(points), 3, 3)
        assert stack.eta_e.shape == stack.mechanical.shape == (len(points),)
        assert stack.physical.drift.shape == (len(points), 6, 6)
        for i, p in enumerate(points):
            single = three_mode_budget(p)
            assert type(single.eta_e) is type(single.mechanical) is float
            assert bits(stack.transfer[i]) == bits(single.transfer)
            assert repr(float(stack.eta_e[i])) == repr(single.eta_e)
            assert repr(float(stack.mechanical[i])) == repr(single.mechanical)
            assert bits(stack.physical.drift[i]) == bits(single.physical.drift)
        with pytest.raises(DimensionError):
            three_mode_budgets([])

    def test_one_point_call_has_the_bits_of_the_direct_solve(self):
        # the per-point route: one drift, its own transform, one budget
        for p in random_three_mode_points(10, 6):
            transfer = scenarios.compute_budget(frame_state_space(p)).transfer
            budget = three_mode_budget(p)
            assert bits(budget.transfer) == bits(transfer)
            assert repr(budget.eta_e) == repr(float(transfer[1, 0] + transfer[2, 0]))

    def test_a_held_frame_gives_the_same_bits(self):
        # the coupling search prepares its schemes once and evaluates them
        # at every step
        p = THREE_MODE
        schemes = scenarios._Schemes(
            *(np.array([value]) for value in (p.omega, p.kappa, p.gamma_m, p.xi))
        )
        for g in (0.1, 0.8, 2.5, 0.8):
            p = replace(THREE_MODE, g_script=g)
            held, built = schemes.budgets(np.array([g])), three_mode_budget(p)
            physical = build_state_spaces([three_mode_physical_network(p)])
            assert bits(held.physical.drift) == bits(physical.drift)
            assert bits(held.transfer[0]) == bits(built.transfer)
            assert repr(float(held.eta_e[0])) == repr(built.eta_e)

    def test_frame_sum_rule_failure_is_refused(self, monkeypatch):
        real = scenarios.verify_sum_rules

        def failing_second(stack):
            reports = real(stack)
            reports[1] = replace(
                reports[1], passed=False, completeness_residual=2e-7, metric_residual=3e-8
            )
            return reports

        monkeypatch.setattr(scenarios, "verify_sum_rules", failing_second)
        points = random_three_mode_points(3, 8)
        with pytest.raises(NumericsError, match="^budget sum rules failed in the frame$") as err:
            three_mode_budgets(points)
        assert err.value.estimate == 2e-7
        with pytest.raises(NumericsError, match="budget sum rules failed in the frame"):
            duan_quantities(points)

    def test_duan_quantities_equal_the_points(self):
        points = random_three_mode_points(15, 7)
        assert duan_quantities(points) == [duan_quantity(p) for p in points]
        assert duan_quantities([]) == []

    def test_one_transform_per_coupling_search(self, monkeypatch):
        builds = []
        real = scenarios.three_mode_transform

        def counting(xi):
            builds.append(xi)
            return real(xi)

        monkeypatch.setattr(scenarios, "three_mode_transform", counting)
        for xi in (0.0, 0.5):
            builds.clear()
            optimal_coupling(1.0, 1.0, 0.01, xi)
            # one stack serves the golden section's evaluations and the
            # formula coupling
            assert builds == [[xi]]
        builds.clear()
        optimal_couplings([(1.0, 1.0, 0.01, 0.0), (3.0, 1.0, 0.03, 0.5)])
        assert builds == [[0.0, 0.5]]

    def test_coupling_search_validates_xi_first(self):
        with pytest.raises(ValidationError, match="xi must be nonnegative"):
            optimal_coupling(1.0, 1.0, 0.01, -0.5)
        with pytest.raises(ValidationError, match="xi must be finite"):
            optimal_coupling(1.0, 1.0, 0.01, math.nan)


class TestOverflow:
    """Frames and bounds beyond the float range raise package errors."""

    def test_three_mode_network_at_huge_xi(self):
        with pytest.raises(NumericsError, match="xi = 800 overflow"):
            three_mode_budget(replace(THREE_MODE, xi=800.0))

    def test_fig1_point_at_huge_xi(self):
        with pytest.raises(NumericsError, match="xi = 800 overflow"):
            fig1_point(1.0, 800.0, 1.0, 1.0)
        with pytest.raises(NumericsError, match="xi = 800 overflow"):
            fig1_rows(1.0, [0.5, 800.0], 1.0, 1.0)

    def test_pair_bound_overflow_is_refused(self):
        p = ParametricParams(g_plus=0.0, g_minus=3.0, gamma1=1e308, gamma2=1.0)
        with pytest.raises(NumericsError, match="pair bound overflows"):
            parametric_bound(p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError, match="pair bound overflows"):
                fig2_rows([-1.0, 0.0], 1e308, 1.0, 3.0)

    def test_finite_pair_bounds_keep_their_bits(self):
        # S^2 of 1e154 is still a float
        assert parametric_bound(
            ParametricParams(g_plus=0.0, g_minus=3.0, gamma1=1e154, gamma2=1.0)
        ) == 1.0
        p = ParametricParams(g_plus=0.0, g_minus=1.0, gamma1=4.0, gamma2=1.0, eta1=1.0)
        s, d, de = 5.0, 3.0, 1.0
        assert parametric_bound(p) == (s * s - d * de) / (s * s - de * de)

    def test_stability_edge_still_raises_stability_error(self):
        p = ParametricParams(g_plus=0.0, g_minus=1.0, gamma1=4.0, gamma2=1.0, eta1=5.0)
        with pytest.raises(StabilityError, match="reaches the stability"):
            parametric_bound(p)

    def test_boundary_line_past_exp_range(self):
        # e^(2 xi) overflows above xi of about 354.9; e^(-2 xi) only underflows
        assert boundary_line(0.5, 354.0).n_o_intercept < math.inf
        with pytest.raises(NumericsError, match="xi = 400 overflows the n_o intercept"):
            boundary_line(0.5, 400.0)
        budget = three_mode_budget(THREE_MODE)
        with pytest.raises(NumericsError, match="xi = 400 overflows"):
            separability_boundary(replace(THREE_MODE, xi=400.0), budget)

    def test_three_mode_frame_past_metric_range(self):
        # cosh 400 is a float, but its square in the metric check is not
        with pytest.raises(NumericsError, match="overflow the commutator metric check"):
            three_mode_budget(replace(THREE_MODE, xi=400.0))
        with pytest.raises(NumericsError, match="overflow the commutator metric check"):
            optimal_coupling(1.0, 1.0, 0.01, 400.0)


def scalar_optimal_coupling(kappa, omega, gamma_m, xi, visits=None):
    """The per-search coupling search that optimal_couplings replaced: the
    scalar golden-section loop over one-point frame budgets. The couplings
    the loop visits, in order, go to the list ``visits``."""
    from test_linalg import scalar_golden_max

    def eta_at(g):
        p = ThreeModeParams(g_script=g, omega=omega, kappa=kappa, gamma_m=gamma_m, xi=xi)
        return three_mode_budget(p).eta_e

    def visit(g):
        if visits is not None:
            visits.append(g)
        return eta_at(g)

    g_formula = math.sqrt(0.5 * omega * math.hypot(kappa, 2.0 * omega))
    hi = 8.0 * max(g_formula, omega, kappa)
    g_numeric, eta_numeric = scalar_golden_max(visit, 0.0, hi, rel_tol=1e-6)
    return OptimalCoupling(g_formula, g_numeric, eta_at(g_formula), eta_numeric)


def boundary_search_points():
    """The coupling searches (kappa, |omega|, gamma_m, xi) of the boundary
    commands of the ten grids benchmark reference sets, read from bench/."""
    from bosonet.cli import build_parser
    from test_bench_refs import BENCH, capture

    points = []
    for seed in range(10):
        refs = capture.load(BENCH / "refs" / f"grids-{seed}-full.json.gz")
        for command in refs["commands"]:
            if command["name"] == "boundary":
                args = build_parser().parse_args(command["argv"])
                xi = 0.5 if args.xi is None else args.xi
                points.append((args.kappa, abs(args.omega), args.gamma_m, xi))
    assert len(points) == 10
    return points


class TestCouplingSearchLockstep:
    """optimal_couplings runs its golden sections in lockstep."""

    # the searches of verify's g_opt suite
    G_OPT_POINTS = [
        (kappa, 1.0, ratio * kappa, 0.0)
        for kappa in (0.1, 0.3, 1.0, 3.0, 10.0)
        for ratio in (1e-3, 1e-2)
    ]

    def test_lockstep_has_the_bits_of_each_search_alone(self, monkeypatch):
        points = self.G_OPT_POINTS + [
            (kappa, 1.0, ratio * kappa, 0.5) for kappa in (0.3, 3.0) for ratio in (1e-3, 1e-2)
        ]
        alone = [optimal_coupling(*p) for p in points]
        assert optimal_couplings(points) == alone
        # two searches look two steps ahead, on tiled schemes, as one batch
        real, sizes = scenarios._Schemes.budgets, []

        def recording(schemes, g_script):
            sizes.append(len(g_script))
            return real(schemes, g_script)

        monkeypatch.setattr(scenarios._Schemes, "budgets", recording)
        pair = [points[0], points[-1]]
        assert scenarios._coupling_searches(pair) == [alone[0], alone[-1]]
        # both probes, trees of 3 points each, the midpoints and the formula
        # couplings: no lookahead call failed
        assert sizes[0] == 4 and set(sizes[1:-2]) == {6} and sizes[-2:] == [2, 2]

    @pytest.mark.parametrize(
        "point",
        [(1.0, 1.0, 0.01, 0.0), (1.0, 1.0, 0.01, 0.5), (0.1, 1.0, 1e-4, 0.0), (1.0, 1.0, 1e-8, 0.5)]
        + boundary_search_points(),
    )
    def test_a_search_has_the_bits_of_the_scalar_search(self, point):
        assert optimal_coupling(*point) == scalar_optimal_coupling(*point)

    def test_first_failing_search_raises_its_own_error(self, monkeypatch):
        real = scenarios._Schemes.budgets
        evaluations = {}
        visits = []
        scalar_optimal_coupling(1.0, 1.0, 0.01, 0.0, visits)

        def failing(schemes, g_script):
            # coupling j P + i is on scheme i
            kappas = np.tile(schemes.gammas[:, 0], len(g_script) // len(schemes.gammas))
            for value, g in zip(kappas.tolist(), np.asarray(g_script).tolist()):
                evaluations[value] = evaluations.get(value, 0) + 1
                # the search at kappa = 1 fails at the fifth point it visits,
                # the one at kappa = 3 at its first, which is in the first
                # lockstep step
                if (value == 1.0 and g == visits[4]) or value == 3.0:
                    raise NumericsError(f"made to fail at kappa = {value:g}")
            return real(schemes, g_script)

        monkeypatch.setattr(scenarios._Schemes, "budgets", failing)
        points = [(0.5, 1.0, 0.01, 0.0), (1.0, 1.0, 0.01, 0.0), (3.0, 1.0, 0.03, 0.0)]
        with pytest.raises(NumericsError, match="kappa = 1$"):
            optimal_couplings(points)
        assert evaluations[0.5] > 20  # the search before it ran to its end

    def test_one_frame_per_search_batch(self, monkeypatch):
        # the three transforms of one three_mode_transform call (two
        # factors and their product), and none inside the search loop
        made = []
        real = MomentTransform.__post_init__

        def counting(self):
            made.append(self.matrix.shape)
            real(self)

        monkeypatch.setattr(MomentTransform, "__post_init__", counting)
        optimal_couplings(self.G_OPT_POINTS)
        searched = list(made)
        made.clear()
        three_mode_transform([xi for *_, xi in self.G_OPT_POINTS])
        assert searched == made
        assert len(made) == 3

    def test_points_are_validated_in_order(self):
        with pytest.raises(ValidationError, match="xi must be nonnegative"):
            optimal_couplings([(1.0, 1.0, 0.01, 0.0), (1.0, 1.0, 0.01, -0.5)])
        with pytest.raises(ValidationError, match="kappa must be positive"):
            optimal_couplings([(0.0, 1.0, 0.01, 0.0), (1.0, 1.0, 0.01, -0.5)])
        assert optimal_couplings([]) == []


def public_eta_e(kappa, omega, gamma_m, xi, g_script):
    """eta_e of one scheme, built the public way: its network, a one-member
    stack of its drift, its frame transform, the budget and its sum rules."""
    p = ThreeModeParams(g_script=g_script, omega=omega, kappa=kappa, gamma_m=gamma_m, xi=xi)
    physical = build_state_spaces([three_mode_physical_network(p)])
    budget = scenarios.compute_budget(three_mode_transform(xi).apply_to_state_space(physical))
    assert all(rules.passed for rules in scenarios.verify_sum_rules(budget))
    return float(budget.transfer[0, 1, 0] + budget.transfer[0, 2, 0])


class TestPreparedSchemes:
    """A coupling search prepares its schemes once (_Schemes) and evaluates
    only the coupling-dependent work at every step."""

    # verify's g_opt suite, and a high-Q scheme in a squeezed frame
    POINTS = TestCouplingSearchLockstep.G_OPT_POINTS + [(1.0, 1.0, 1e-8, 0.5)]

    def test_searches_equal_a_search_over_public_budgets(self):
        from test_linalg import scalar_golden_max

        found = optimal_couplings(self.POINTS)
        for (kappa, omega, gamma_m, xi), result in zip(self.POINTS, found):
            def eta_at(g):
                return public_eta_e(kappa, omega, gamma_m, xi, g)

            g_formula = math.sqrt(0.5 * omega * math.hypot(kappa, 2.0 * omega))
            hi = 8.0 * max(g_formula, omega, kappa)
            g_numeric, eta_numeric = scalar_golden_max(eta_at, 0.0, hi, rel_tol=1e-6)
            expected = (g_formula, g_numeric, eta_at(g_formula), eta_numeric)
            assert [repr(value) for value in expected] == [
                repr(result.g_formula), repr(result.g_numeric),
                repr(result.eta_e_formula), repr(result.eta_e_numeric),
            ]

    def test_a_sum_rule_failure_at_one_step_raises(self, monkeypatch):
        real = scenarios.verify_sum_rules
        real_budgets = scenarios._Schemes.budgets
        visits, calls = [], []
        scalar_optimal_coupling(1.0, 1.0, 0.01, 0.5, visits)

        def recording(schemes, g_script):
            calls.append(np.asarray(g_script).tolist())
            return real_budgets(schemes, g_script)

        # the fifth point the search visits fails, whenever it is
        # evaluated, so the one-point replay fails there too
        def failing_fifth_step(stack):
            reports = real(stack)
            if visits[4] in calls[-1]:
                k = calls[-1].index(visits[4])
                reports[k] = replace(reports[k], passed=False, metric_residual=3e-8)
            return reports

        monkeypatch.setattr(scenarios._Schemes, "budgets", recording)
        monkeypatch.setattr(scenarios, "verify_sum_rules", failing_fifth_step)
        with pytest.raises(NumericsError, match="^budget sum rules failed in the frame$") as err:
            optimal_coupling(1.0, 1.0, 0.01, 0.5)
        assert err.value.estimate == 3e-8
        # the search reached its first five points and no later one, and
        # it raised in a call of that one point
        assert {g for call in calls for g in call} & set(visits) == set(visits[:5])
        assert calls[-1] == [visits[4]]

    def test_a_failing_lone_search_runs_once(self, monkeypatch):
        # a lone search that raises is not run a second time before its
        # error: the 21st visited coupling fails, whenever it is evaluated
        real = scenarios.verify_sum_rules
        real_budgets = scenarios._Schemes.budgets
        visits, calls = [], []
        scalar_optimal_coupling(1.0, 1.0, 0.01, 0.5, visits)
        assert len(visits) > 21

        def recording(schemes, g_script):
            calls.append(np.asarray(g_script).tolist())
            return real_budgets(schemes, g_script)

        def failing_21st_visit(stack):
            reports = real(stack)
            if visits[20] in calls[-1]:
                k = calls[-1].index(visits[20])
                reports[k] = replace(
                    reports[k], passed=False, completeness_residual=4e-8, metric_residual=1e-9
                )
            return reports

        monkeypatch.setattr(scenarios._Schemes, "budgets", recording)
        monkeypatch.setattr(scenarios, "verify_sum_rules", failing_21st_visit)
        for search in (
            lambda: optimal_coupling(1.0, 1.0, 0.01, 0.5),
            lambda: optimal_couplings([(1.0, 1.0, 0.01, 0.5)])[0],
        ):
            calls.clear()
            with pytest.raises(
                NumericsError, match="^budget sum rules failed in the frame$"
            ) as err:
                search()
            assert err.value.estimate == 4e-8
            # every coupling visited before the failing one was evaluated
            # exactly once, and the error came from a call of that one point
            evaluated = [g for call in calls for g in call]
            assert [evaluated.count(g) for g in visits[:20]] == [1] * 20
            assert calls[-1] == [visits[20]]

    @pytest.mark.parametrize("count", [1, 3])
    def test_k_stacks_have_the_bits_of_each_stack(self, count):
        # the couplings j P + i of a call of k stacks are on scheme i: the
        # held columns and the frame are tiled (or, for one scheme,
        # broadcast), and each stack has the bits of its own call
        kappa, omega, gamma_m, xi = (
            np.array(column[:count]) for column in ([0.3, 1.0, 3.0], [1.0, 2.0, 0.7],
                                                    [1e-3, 0.01, 0.03], [0.0, 0.5, 1.2])
        )
        schemes = scenarios._Schemes(omega, kappa, gamma_m, xi)
        g = np.linspace(0.2, 2.0, 7 * count)
        stacked = schemes.budgets(g)
        for j in range(7):
            one = schemes.budgets(g[j * count:(j + 1) * count])
            members = slice(j * count, (j + 1) * count)
            assert np.array_equal(stacked.physical.drift[members], one.physical.drift)
            assert np.array_equal(stacked.transfer[members], one.transfer)

    def test_held_arrays_are_read_only(self):
        from bosonet import budget, network

        schemes = scenarios._Schemes(*(np.array([0.7, 1.3]) for _ in range(4)))
        transform = schemes.frame
        held = [
            schemes.omega, schemes.cosh, schemes.sinh, schemes.gammas,
            transform.matrix, transform._inverse, transform._size,
            *network._lower_masks(3), *network._scatter_table(scenarios._THREE_MODE_SLOTS),
            *budget._sum_rule_targets(3),
        ]
        for array in held:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    def test_frame_steps_form_no_constant_anew(self, monkeypatch):
        from bosonet import budget, network

        schemes = scenarios._Schemes(*(np.array([value]) for value in (1.0, 1.0, 0.01, 0.5)))
        schemes.budgets(np.array([0.8]))
        made = []
        for module, name in ((network, "metric"), (budget, "metric"), (np, "triu"), (np, "eye")):
            real = getattr(module, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                made.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        for g in (0.3, 0.8, 2.0):
            schemes.budgets(np.array([g]))
        assert made == []

    def test_one_scatter_table_per_structure(self, monkeypatch):
        from bosonet import network

        three_mode_budgets([THREE_MODE])
        real = scenarios._Schemes.budgets
        calls = []

        def counting(schemes, g_script):
            calls.append(len(g_script))
            return real(schemes, g_script)

        monkeypatch.setattr(scenarios._Schemes, "budgets", counting)
        before = network._scatter_table.cache_info()
        optimal_coupling(1.0, 1.0, 0.01, 0.5)
        after = network._scatter_table.cache_info()
        # every call of the search finds the three-mode table made before it
        assert after.misses == before.misses
        assert after.hits - before.hits == len(calls) > 10
        assert network._scatter_table(()) is None


def fig1_params(g_script, xi, gamma1, gamma2, n1=0.0, n2=0.0):
    """The record of one fig1_rows point."""
    cosh, sinh = cosh_sinh(xi)
    return TwoModeParams(
        g_plus=g_script * sinh, g_minus=g_script * cosh,
        gamma1=gamma1, gamma2=gamma2, n1=n1, n2=n2,
    )


def fig2_params(delta_eta, gamma1, gamma2, g_minus, g_plus=0.0, n1=0.0, n2=0.0):
    """The record of one fig2_rows point."""
    return ParametricParams(
        g_plus=g_plus, g_minus=g_minus, gamma1=gamma1, gamma2=gamma2,
        eta1=+0.5 * delta_eta, eta2=-0.5 * delta_eta, n1=n1, n2=n2,
    )


class TestColumnPaths:
    """The array forms build their drifts from coefficient columns: the
    bits of the records' networks, and no record per point."""

    @staticmethod
    def recorded(monkeypatch, name):
        """The results of every call of scenarios.<name>, as it runs."""
        real, results = getattr(scenarios, name), []

        def recording(*args):
            results.append((args, real(*args)))
            return results[-1][1]

        monkeypatch.setattr(scenarios, name, recording)
        return results

    def test_fig1_drifts_have_the_bits_of_the_records(self, monkeypatch):
        from test_network import assert_per_spec_bits

        # zero g_plus and g_minus columns, and xi = 0
        columns = (
            [0.0, 0.0, 0.7, 2.0, 0.3, 1e-3],
            [0.0, 0.9, 0.0, 0.5, 1.3, 2.0],
            [1.0, 2.0, 0.5, 1.0, 3.0, 1.0],
            1.5,
        )
        builds = self.recorded(monkeypatch, "family_state_space")
        rows = fig1_rows(*columns, n2=0.2)
        ((_, ss),) = builds
        points = list(zip(*columns[:3]))
        assert_per_spec_bits(
            ss, [two_mode_network(fig1_params(*p, 1.5, n2=0.2)) for p in points]
        )
        assert rows == [fig1_point(*p, 1.5, n2=0.2) for p in points]

    def test_parametric_family_has_the_bits_of_the_records(self):
        from test_network import assert_per_spec_bits

        g_plus = np.array([0.0, 0.4, 0.0, 0.2])
        g_minus = np.array([0.0, 0.0, 1.5, 3.0])
        eta1 = np.array([0.0, 0.3, -0.7, 0.0])
        eta2 = np.array([0.0, 0.0, 0.2, -1.1])
        gammas = np.array([[1.0, 2.0], [0.5, 0.5], [4.0, 1.0], [2.0, 3.0]])
        ss = scenarios.family_state_space(
            scenarios._PARAMETRIC_SLOTS,
            (g_minus, g_plus, -0.25j * eta1, -0.25j * eta2),
            gammas,
        )
        records = [
            ParametricParams(gp, gm, a, b, e1, e2)
            for gp, gm, (a, b), e1, e2 in zip(g_plus, g_minus, gammas, eta1, eta2)
        ]
        assert_per_spec_bits(ss, [parametric_network(p) for p in records])

    def test_three_mode_drifts_have_the_bits_of_the_records(self):
        from test_network import assert_per_spec_bits

        # zero g_script and omega columns, and xi = 0
        points = random_three_mode_points(6, 11) + [
            replace(THREE_MODE, g_script=0.0),
            replace(THREE_MODE, omega=0.0),
            replace(THREE_MODE, xi=0.0),
            replace(THREE_MODE, g_script=0.0, omega=0.0, xi=0.0),
            replace(THREE_MODE, omega=-0.7),
        ]
        physical = three_mode_budgets(points).physical
        assert_per_spec_bits(physical, [three_mode_physical_network(p) for p in points])

    @pytest.mark.parametrize("xi", [0.0, 0.5])
    def test_search_drifts_have_the_bits_of_the_records(self, monkeypatch, xi):
        from test_network import assert_per_spec_bits

        real, builds = scenarios._Schemes.budgets, []

        def recording(schemes, g_script):
            builds.append((schemes, g_script, real(schemes, g_script)))
            return builds[-1][-1]

        monkeypatch.setattr(scenarios._Schemes, "budgets", recording)
        optimal_couplings([(1.0, 1.0, 0.01, xi), (0.3, 2.0, 0.003, xi)])
        # more than 20 points of each search
        assert sum(len(g_script) for _, g_script, _ in builds) > 40
        for schemes, g_script, budget in builds:
            # coupling j P + i is on scheme i
            k = len(g_script) // len(schemes.omega)
            kappa, gamma_m = np.tile(schemes.gammas[:, 0], k), np.tile(schemes.gammas[:, 1], k)
            records = [
                ThreeModeParams(g_script=g, omega=w, kappa=k, gamma_m=m, xi=xi)
                for g, w, k, m in zip(g_script, np.tile(schemes.omega, k), kappa, gamma_m)
            ]
            assert len(records) == len(g_script)
            assert_per_spec_bits(
                budget.physical, [three_mode_physical_network(p) for p in records]
            )

    def test_squeezing_powers_rows_equal_fig1_rows(self):
        g, x = np.meshgrid(np.geomspace(0.2, 30.0, 7), np.linspace(0.0, 2.0, 6), indexing="ij")
        rows = fig1_rows(g, x, 1.3, 0.8, 0.1, 0.6)
        records = [fig1_params(a, b, 1.3, 0.8, 0.1, 0.6) for a, b in zip(g.ravel(), x.ravel())]
        assert [row[4:] for row in rows] == [
            (r.norm_var1, r.norm_var2, r.sum) for r in squeezing_powers(records)
        ]

    def test_no_record_per_point(self, monkeypatch):
        made = []
        for record in (NetworkSpec, TwoModeParams, ParametricParams, ThreeModeParams):
            def counting(self, real=record.__post_init__):
                made.append(type(self).__name__)
                real(self)

            monkeypatch.setattr(record, "__post_init__", counting)
        TwoModeParams(0.1, 1.0, 1.0, 1.0)
        assert made == ["TwoModeParams"]  # the count sees a record
        made.clear()
        assert len(fig1_rows(np.geomspace(0.5, 50.0, 400), 0.6, 1.3, 0.8)) == 400
        assert made == []
        assert len(fig2_rows(np.linspace(-4.9, 4.9, 400), 4.0, 1.0, 3.0)) == 400
        assert made == []
        optimal_couplings([(1.0, 1.0, 0.01, 0.5), (0.3, 2.0, 0.003, 0.0)])
        assert made == []


BAD_VALUES = [-1.0, math.nan, math.inf]
# a grid of four valid points; a bad value goes in at row 2
FIG1_COLUMNS = ([0.5, 1.0, 2.0, 0.7], [0.1, 0.4, 0.2, 0.8], 1.0, 2.0, 0.0, 0.3)
FIG2_COLUMNS = ([-1.0, 0.0, 0.5, 2.0], 4.0, 1.0, 3.0, 0.2, 0.1, 0.0)


def with_bad_value(columns, field, value, row=2):
    """columns with ``value`` at ``row`` of column ``field``."""
    column = np.broadcast_to(np.asarray(columns[field], dtype=float), (4,)).copy()
    column[row] = value
    return columns[:field] + (column,) + columns[field + 1:]


def record_error(make, columns, row=2):
    """The error that the record of point ``row`` of the grid raises."""
    point = [np.broadcast_to(np.asarray(c, dtype=float), (4,))[row] for c in columns]
    with pytest.raises(ValidationError) as error:
        make(*[float(value) for value in point])
    return str(error.value)


class TestColumnValidation:
    """Each column is checked once; the first invalid point, in row order,
    raises the error its record raises, for its first failing field."""

    @pytest.mark.parametrize("value", BAD_VALUES)
    @pytest.mark.parametrize("field", range(6))
    def test_fig1_rows(self, field, value):
        columns = with_bad_value(FIG1_COLUMNS, field, value)
        expected = record_error(fig1_params, columns)
        with pytest.raises(ValidationError) as rows:
            fig1_rows(*columns)
        assert str(rows.value) == expected

    @pytest.mark.parametrize(
        "field, value",
        [(0, math.nan), (0, math.inf)]
        + [(field, value) for field in range(1, 7) for value in BAD_VALUES],
    )
    def test_fig2_rows(self, field, value):
        # a negative delta_eta is valid
        columns = with_bad_value(FIG2_COLUMNS, field, value)
        expected = record_error(fig2_params, columns)
        with pytest.raises(ValidationError) as rows:
            fig2_rows(*columns)
        assert str(rows.value) == expected

    def test_first_point_then_first_field(self):
        # row 1 fails in n2 and gamma1, row 2 in g_script: gamma1 of row 1
        columns = with_bad_value(with_bad_value(FIG1_COLUMNS, 5, -1.0, row=1), 2, math.nan, row=1)
        columns = with_bad_value(columns, 0, -1.0)
        with pytest.raises(ValidationError, match="^gamma1 must be finite, got nan$"):
            fig1_rows(*columns)
        # xi beyond the float range of cosh raises where its point stands
        with pytest.raises(NumericsError, match="overflow a float"):
            fig1_rows(1.0, [0.5, 800.0, -1.0], 1.0, 1.0)
        with pytest.raises(ValidationError, match="g_plus must be nonnegative"):
            fig1_rows(1.0, [0.5, -1.0, 800.0], 1.0, 1.0)

    @pytest.mark.parametrize("value", BAD_VALUES)
    @pytest.mark.parametrize("field", ["kappa", "omega", "gamma_m", "xi"])
    def test_optimal_couplings(self, field, value):
        points = [dict(kappa=1.0, omega=1.0, gamma_m=0.01, xi=0.5) for _ in range(3)]
        points[1][field] = value
        points[2]["kappa"] = -2.0  # a later bad point does not raise first
        if not math.isfinite(value):
            expected = f"{field} must be finite, got {value}"
        elif field == "xi":
            expected = "xi must be nonnegative, got -1.0"
        else:
            expected = f"{field} must be positive, got -1.0"
        with pytest.raises(ValidationError) as search:
            optimal_couplings([tuple(p.values()) for p in points])
        assert str(search.value) == expected
