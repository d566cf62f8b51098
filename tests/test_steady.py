import math

import numpy as np
import pytest

from bosonet.budget import compute_budget
from bosonet.errors import ApplicabilityError, NumericsError, StabilityError
from bosonet.network import (
    BathSpec,
    InputMoments,
    MomentTransform,
    NetworkSpec,
    beam_splitter,
    build_state_space,
    degenerate_parametric,
    hyperbolic_frame,
    transform_network,
    two_mode_squeeze,
)
from bosonet.steady import (
    CovarianceState,
    min_quadrature_variance,
    quadrature_variance,
    steady_covariance,
    variance_decomposition,
)


def single_mode_state(occupancy=0.0):
    ss = build_state_space(NetworkSpec(1, [BathSpec(1.0)]))
    return steady_covariance(ss, InputMoments.thermal([occupancy]))


def bs_system(g=0.5, n2=2.0):
    spec = NetworkSpec(
        2, [BathSpec(1.0), BathSpec(1.0)], [beam_splitter(g, 0, 1)]
    )
    ss = build_state_space(spec)
    return ss, InputMoments.thermal([0.0, n2])


class TestSteadyCovariance:
    def test_vacuum_mode_is_isotropic_half(self):
        state = single_mode_state()
        for theta in np.linspace(0.0, math.pi, 7):
            assert abs(quadrature_variance(state, 0, theta) - 0.5) < 1e-12

    def test_thermal_mode(self):
        state = single_mode_state(2.0)
        assert abs(quadrature_variance(state, 0, 0.0) - 2.5) < 1e-12
        assert abs(state.nu(0) - 2.5) < 1e-12
        assert abs(state.mu(0)) < 1e-14

    def test_exchange_mixes_thermal_noise_into_cold_mode(self):
        ss, inputs = bs_system()
        state = steady_covariance(ss, inputs)
        assert abs(quadrature_variance(state, 0, 0.0) - 1.0) < 1e-12
        assert abs(quadrature_variance(state, 1, 0.0) - 2.0) < 1e-12

    def test_covariance_is_positive_and_heisenberg_bounded(self):
        spec = NetworkSpec(
            2,
            [BathSpec(1.0), BathSpec(1.0)],
            [beam_splitter(1.0, 0, 1), two_mode_squeeze(0.5, 0, 1)],
        )
        state = steady_covariance(
            build_state_space(spec), InputMoments.vacuum(2)
        )
        quad = state.quadrature_matrix()
        assert np.linalg.eigvalsh(quad).min() > -1e-12
        for mode in range(2):
            block = state.mode_block(mode)
            assert np.linalg.det(block) >= 0.25 - 1e-10

    def test_unstable_network_rejected(self):
        spec = NetworkSpec(
            1, [BathSpec(1.0)], [degenerate_parametric(2.0, 0)]
        )
        with pytest.raises(StabilityError):
            steady_covariance(build_state_space(spec), InputMoments.vacuum(1))

    def test_quadrature_matrix_vacuum(self):
        state = single_mode_state()
        assert np.abs(state.quadrature_matrix() - 0.5 * np.eye(2)).max() < 1e-12


class TestQuadratureExtraction:
    def test_nan_covariance_rejected_by_hermiticity_guard(self):
        v = np.array([[0.6, 0.0], [0.0, 0.6]], dtype=complex)
        v[0, 1] = complex(0.0, np.nan)
        with pytest.raises(NumericsError):
            CovarianceState(v, 1).quadrature_matrix()

    def test_leak_at_unit_scale_rejected(self):
        # the leak is judged against max(1, ||v||_max): 2e-9 at unit scale fails
        v = np.array([[0.6, 2e-9j], [2e-9j, 0.6]])
        with pytest.raises(NumericsError):
            CovarianceState(v, 1).quadrature_matrix()

    def test_real_anomalous_moment(self):
        # mode block diag(0.3, 0.9): nu = 0.6, mu = -0.3
        state = CovarianceState(
            np.array([[0.6, -0.3], [-0.3, 0.6]], dtype=complex), 1
        )
        assert abs(quadrature_variance(state, 0, 0.0) - 0.3) < 1e-14
        assert abs(quadrature_variance(state, 0, math.pi / 2) - 0.9) < 1e-14
        assert abs(quadrature_variance(state, 0, math.pi / 4) - 0.6) < 1e-14
        best = min_quadrature_variance(state, 0)
        assert abs(best.theta - 0.0) < 1e-12
        assert abs(best.value - 0.3) < 1e-14

    def test_imaginary_anomalous_moment(self):
        # quadrature block [[0.6, 0.3], [0.3, 0.6]]: mu = 0.3i
        state = CovarianceState(
            np.array([[0.6, 0.3j], [-0.3j, 0.6]], dtype=complex), 1
        )
        best = min_quadrature_variance(state, 0)
        assert abs(best.theta - 3.0 * math.pi / 4.0) < 1e-12
        assert abs(best.value - 0.3) < 1e-14

    def test_roundoff_anomalous_moment_reports_angle_zero(self):
        # a passive thermal mode: mu is roundoff, so it carries no angle
        state = CovarianceState(
            np.array([[0.7, -1e-30 + 1e-30j], [-1e-30 - 1e-30j, 0.7]], dtype=complex), 1
        )
        best = min_quadrature_variance(state, 0)
        assert best.theta == 0.0
        assert best.value == 0.7 - abs(complex(-1e-30, 1e-30))

    def test_squeezed_mode_keeps_its_angle(self):
        # |mu| = 1e-6 nu is far above solver accuracy
        mu = 1e-6j
        state = CovarianceState(np.array([[1.0, mu], [-mu, 1.0]]), 1)
        best = min_quadrature_variance(state, 0)
        assert abs(best.theta - 3.0 * math.pi / 4.0) < 1e-12
        assert best.value == 1.0 - 1e-6

    def test_minimum_beats_angle_grid(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            nu = rng.uniform(0.5, 2.0)
            mu = rng.uniform(-0.4, 0.4) + 1j * rng.uniform(-0.4, 0.4)
            v = np.array([[nu, mu], [np.conj(mu), nu]])
            state = CovarianceState(v, 1)
            best = min_quadrature_variance(state, 0)
            grid = min(
                quadrature_variance(state, 0, t)
                for t in np.linspace(0.0, math.pi, 64, endpoint=False)
            )
            assert best.value <= grid + 1e-12
            assert 0.0 <= best.theta < math.pi
            assert abs(best.value - (nu - abs(mu))) < 1e-12

    def test_squeezed_mode_drops_below_vacuum(self):
        spec = NetworkSpec(
            2,
            [BathSpec(1.0), BathSpec(1.0)],
            [beam_splitter(1.0, 0, 1), two_mode_squeeze(0.5, 0, 1)],
        )
        state = steady_covariance(
            build_state_space(spec), InputMoments.vacuum(2)
        )
        best = min_quadrature_variance(state, 1)
        assert best.value < 0.5


class TestVarianceDecomposition:
    def test_matches_direct_variance_for_exchange(self):
        ss, inputs = bs_system()
        budget = compute_budget(ss)
        state = steady_covariance(ss, inputs)
        for theta in (0.0, 0.7):
            parts = variance_decomposition(ss, budget, inputs, theta=theta)
            for mode in range(2):
                direct = quadrature_variance(state, mode, theta)
                assert abs(parts[mode] - direct) < 1e-12

    def test_decoupled_modes_keep_their_inputs(self):
        spec = NetworkSpec(2, [BathSpec(1.0), BathSpec(2.0)])
        ss = build_state_space(spec)
        parts = variance_decomposition(
            ss, compute_budget(ss), InputMoments.thermal([0.0, 2.0])
        )
        assert np.allclose(parts, [0.5, 2.5], atol=1e-12)

    def test_hyperbolic_frame_recovers_squeezer_variances(self):
        spec = NetworkSpec(
            2,
            [BathSpec(1.0), BathSpec(1.0)],
            [beam_splitter(1.0, 0, 1), two_mode_squeeze(0.5, 0, 1)],
        )
        ss = build_state_space(spec)
        state = steady_covariance(ss, InputMoments.vacuum(2))

        xi = hyperbolic_frame(0.5, 1.0)[1]
        rotated = transform_network(
            spec,
            MomentTransform.rotation(2, 1, math.pi / 2).compose(
                MomentTransform.bogoliubov(2, 1, xi)
            ),
        )
        ss_rot = build_state_space(rotated)
        inputs = InputMoments.from_baths(rotated)
        budget = compute_budget(ss_rot)
        for theta in (0.0, 0.4, 1.1):
            parts = variance_decomposition(ss_rot, budget, inputs, theta=theta)
            direct = quadrature_variance(state, 0, theta)
            assert abs(parts[0] - direct) < 1e-10

    def test_rejects_complex_passive_drift_with_anomalous_inputs(self):
        spec = NetworkSpec(
            2,
            [BathSpec(1.0), BathSpec(1.0)],
            [beam_splitter(1.0, 0, 1), two_mode_squeeze(0.5, 0, 1)],
        )
        xi = hyperbolic_frame(0.5, 1.0)[1]
        frame = transform_network(spec, MomentTransform.bogoliubov(2, 1, xi))
        ss = build_state_space(frame)
        with pytest.raises(ApplicabilityError):
            variance_decomposition(
                ss, compute_budget(ss), InputMoments.from_baths(frame)
            )

    def test_rejects_nonpassive_network(self):
        spec = NetworkSpec(
            2,
            [BathSpec(1.0), BathSpec(1.0)],
            [beam_splitter(1.0, 0, 1), two_mode_squeeze(0.5, 0, 1)],
        )
        ss = build_state_space(spec)
        with pytest.raises(ApplicabilityError):
            variance_decomposition(
                ss, compute_budget(ss), InputMoments.vacuum(2)
            )
