import math

import numpy as np
import pytest

from bosonet.budget import compute_budget
from bosonet.errors import (
    ApplicabilityError,
    DimensionError,
    NumericsError,
    StabilityError,
    ValidationError,
)
from bosonet.network import (
    BathSpec,
    InputMoments,
    MomentTransform,
    NetworkSpec,
    StateSpace,
    beam_splitter,
    build_state_space,
    build_state_spaces,
    degenerate_parametric,
    detuning,
    hyperbolic_frame,
    mirrored,
    two_mode_squeeze,
)
from bosonet.steady import (
    CovarianceState,
    min_quadrature_variance,
    min_variances,
    quadrature_variance,
    quadrature_variances,
    steady_covariance,
    thermal_covariance,
    variance_decomposition,
)
from bosonet.scenarios import TwoModeParams, two_mode_network
from bosonet.suites import random_network


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


class TestDoubledStructureGuard:
    @staticmethod
    def near_marginal(gamma):
        """Two modes damped at gamma under couplings of size ~40: the solve's
        forward error grows as ||A|| / min|Re lambda|, i.e. as 1 / gamma."""
        spec = TestDoubledStructureGuard.spec(gamma)
        return build_state_space(spec), InputMoments.from_baths(spec)

    @staticmethod
    def spec(gamma):
        return NetworkSpec(
            2,
            [BathSpec(gamma, 0.087), BathSpec(gamma, 0.0)],
            [
                beam_splitter(-25.5 + 29.3j, 0, 1),
                two_mode_squeeze(9.37 + 36.6j, 0, 1),
                detuning(-5.02, 0),
                detuning(-0.204, 1),
            ],
        )

    def test_accurate_solve_is_accepted(self):
        state = steady_covariance(*self.near_marginal(1e-6))
        assert abs(min_quadrature_variance(state, 1).value - 0.13707) < 1e-4

    @pytest.mark.parametrize("gamma", [1e-10, 1e-12])
    def test_swamped_solve_is_refused(self, gamma):
        # at 1e-12 the unguarded solve reports a negative variance (-0.069)
        with pytest.raises(NumericsError, match="doubled structure") as err:
            steady_covariance(*self.near_marginal(gamma))
        assert err.value.estimate > 1e-6


class TestBonaFideGuard:
    """V + sigma/2 = <xi xi^H> is positive semidefinite for a physical state."""

    @staticmethod
    def least_eigenvalue(state):
        n = state.n_modes
        sig = np.diag(np.concatenate([np.ones(n), -np.ones(n)]))
        return float(np.linalg.eigvalsh(state.v + 0.5 * sig)[0])

    def test_vacuum_sits_on_the_edge(self):
        # V = 1/2: V + sigma/2 = diag(1, 0), V - sigma/2 would be diag(0, 1)
        state = single_mode_state()
        assert self.least_eigenvalue(state) == 0.0
        assert np.array_equal(state.v + 0.5 * np.diag([1.0, -1.0]), np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("r", [0.3, 1.0, 2.0])
    def test_pure_squeezed_state_sits_on_the_edge(self, r):
        # a squeezed-vacuum input n = sinh^2 r, m = sinh r cosh r passes
        # to the output of a lone damped mode unchanged
        n, m = math.sinh(r) ** 2, math.sinh(r) * math.cosh(r)
        ss = build_state_space(NetworkSpec(1, [BathSpec(1.0)]))
        state = steady_covariance(ss, InputMoments(np.array([n]), np.array([m])))
        assert min_quadrature_variance(state, 0).value == pytest.approx(
            0.5 * math.exp(-2.0 * r), rel=1e-9
        )
        assert abs(self.least_eigenvalue(state)) <= 1e-12 * max(1.0, n)

    def test_squeezed_pair_output_is_bona_fide(self):
        spec = NetworkSpec(
            2,
            [BathSpec(1.0), BathSpec(1.0)],
            [beam_splitter(1.0, 0, 1), two_mode_squeeze(0.5, 0, 1)],
        )
        state = steady_covariance(build_state_space(spec), InputMoments.vacuum(2))
        assert self.least_eigenvalue(state) > 0.0

    def test_input_beyond_the_thermal_bound_is_refused(self):
        ss = build_state_space(NetworkSpec(1, [BathSpec(1.0)]))
        with pytest.warns(UserWarning, match="physicality bound"):
            inputs = InputMoments(np.array([0.0]), np.array([0.3]))
        with pytest.raises(NumericsError, match="uncertainty relation") as err:
            steady_covariance(ss, inputs)
        # V + sigma/2 = [[1, 0.3], [0.3, 0]]: least eigenvalue 1/2 - sqrt(0.34)
        assert err.value.estimate == pytest.approx(0.5 - math.sqrt(0.34), abs=1e-12)


class TestQuadratureExtraction:
    def test_nan_covariance_rejected_by_hermiticity_guard(self):
        v = np.array([[0.6, 0.0], [0.0, 0.6]], dtype=complex)
        v[0, 1] = complex(0.0, np.nan)
        with pytest.raises(NumericsError):
            CovarianceState(v, 1).quadrature_matrix()

    def test_leak_at_unit_scale_rejected(self):
        # the leak is judged against the structure limit of steady_covariance,
        # 1e-6 max(1, ||v||_max): 2e-6 at unit scale fails, 5e-7 answers
        v = np.array([[0.6, 2e-6j], [2e-6j, 0.6]])
        with pytest.raises(NumericsError):
            CovarianceState(v, 1).quadrature_matrix()
        v = np.array([[0.6, 5e-7j], [5e-7j, 0.6]])
        vq = CovarianceState(v, 1).quadrature_matrix()
        assert np.abs(vq - 0.6 * np.eye(2)).max() < 1e-15

    @pytest.mark.parametrize("g_script, xi", [(50.0, 4.5), (50.0, 6.0), (5.0, 7.0)])
    def test_strong_squeezing_reads_the_quadrature_matrix(self, g_script, xi):
        # vacuum at gamma = 1: V's mirror-odd part, and so the leak, is
        # 1.7e-9 to 6.1e-8 of ||V||_max here, which a 1e-9 leak limit
        # refused; the real part is the mirror-mean read of mode_block
        spec = two_mode_network(TwoModeParams(
            g_plus=g_script * math.sinh(xi), g_minus=g_script * math.cosh(xi),
            gamma1=1.0, gamma2=1.0,
        ))
        state = steady_covariance(build_state_space(spec), InputMoments.from_baths(spec))
        vq = state.quadrature_matrix()
        scale = max(1.0, float(np.abs(state.v).max()))
        assert scale > 1e3
        for mode in range(2):
            block = vq[np.ix_([mode, mode + 2], [mode, mode + 2])]
            gap = np.linalg.eigvalsh(block) - np.linalg.eigvalsh(state.mode_block(mode))
            assert np.abs(gap).max() <= 1e-10 * scale

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


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_quadrature_variances_reject_non_finite_angles(theta):
    state = single_mode_state(occupancy=1.0)
    with pytest.raises(ValidationError, match="angle must be finite"):
        quadrature_variance(state, 0, theta)
    with pytest.raises(ValidationError, match="angle must be finite"):
        quadrature_variances(state, 0, [0.0, theta])


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
        gauge = MomentTransform.rotation(2, 1, math.pi / 2).compose(
            MomentTransform.bogoliubov(2, 1, xi)
        )
        ss_rot = gauge.apply_to_state_space(ss)
        inputs = gauge.apply_to_inputs(InputMoments.vacuum(2))
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
        frame = MomentTransform.bogoliubov(2, 1, xi)
        ss = frame.apply_to_state_space(build_state_space(spec))
        with pytest.raises(ApplicabilityError):
            variance_decomposition(
                ss, compute_budget(ss), frame.apply_to_inputs(InputMoments.vacuum(2))
            )

    def test_nan_imaginary_drift_part_is_not_real(self):
        # NaN > limit is False: a guard in that form let this drift through
        # and returned [0.6625, 0.6875]
        ss = build_state_space(
            NetworkSpec(2, [BathSpec(1.0), BathSpec(1.0)], [beam_splitter(0.5j, 0, 1)])
        )
        budget = compute_budget(ss)
        drift = ss.drift.copy()
        drift[0, 1] = drift[0, 1].real + 1j * math.nan
        bad = StateSpace(drift=drift, input=ss.input, n_modes=2)
        with pytest.raises(ApplicabilityError, match="drift is real"):
            variance_decomposition(bad, budget, InputMoments([0.1, 0.2], [0.05, 0.0]))

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, theta):
        ss, inputs = bs_system()
        with pytest.raises(ValidationError, match="angle must be finite"):
            variance_decomposition(ss, compute_budget(ss), inputs, theta=theta)

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


class TestStackedStates:
    """A stack of drifts, or one drift with many channel sets, is one solve
    whose members equal the single-point states and pass the same guards."""

    SPECS = [
        NetworkSpec(2, [BathSpec(1.0), BathSpec(1.0)], [beam_splitter(g, 0, 1)])
        for g in (0.1, 0.5, 2.0)
    ]

    def test_stack_of_drifts_equals_members(self):
        ss = build_state_spaces(self.SPECS)
        inputs = InputMoments.thermal([[0.0, 2.0], [1.0, 0.5], [3.0, 0.0]])
        stacked = steady_covariance(ss, inputs)
        for k, spec in enumerate(self.SPECS):
            single = steady_covariance(
                build_state_space(spec), InputMoments.thermal(inputs.occupancy[k])
            )
            np.testing.assert_array_equal(stacked.v[k], single.v)
            for mode in (0, 1):
                assert min_variances(stacked, mode)[k] == min_quadrature_variance(single, mode).value
            np.testing.assert_array_equal(
                stacked.quadrature_matrix()[k], single.quadrature_matrix()
            )

    def test_one_drift_with_many_channel_sets(self):
        ss, _ = bs_system()
        inputs = InputMoments.thermal([[0.0, 2.0], [1.0, 0.5]])
        stacked = steady_covariance(ss, inputs)
        assert stacked.v.shape == (2, 4, 4)
        for k in range(2):
            single = steady_covariance(ss, InputMoments.thermal(inputs.occupancy[k]))
            np.testing.assert_array_equal(stacked.v[k], single.v)

    def test_stack_of_drifts_shares_one_channel_set(self):
        ss = build_state_spaces(self.SPECS)
        stacked = steady_covariance(ss, InputMoments.thermal([0.5, 1.0]))
        assert stacked.v.shape == (3, 4, 4)

    def test_guard_sees_the_one_bad_member(self):
        # the accurate member first, the swamped one second
        bad, inputs = TestDoubledStructureGuard.near_marginal(1e-12)
        ss = build_state_spaces([
            TestDoubledStructureGuard.spec(1e-6), TestDoubledStructureGuard.spec(1e-12)
        ])
        np.testing.assert_array_equal(ss.drift[1], bad.drift)
        with pytest.raises(NumericsError, match="doubled structure"):
            steady_covariance(ss, inputs)

    def test_stacked_variance_decomposition_equals_members(self):
        ss = build_state_spaces(self.SPECS)
        inputs = InputMoments.thermal([[0.0, 2.0], [1.0, 0.5], [3.0, 0.0]])
        budgets = compute_budget(ss)
        split = variance_decomposition(ss, budgets, inputs, theta=0.3)
        for k, spec in enumerate(self.SPECS):
            single = build_state_space(spec)
            expected = variance_decomposition(
                single, compute_budget(single), InputMoments.thermal(inputs.occupancy[k]), 0.3
            )
            np.testing.assert_array_equal(split[k], expected)

    def test_quadrature_variances_of_a_stack_equal_the_loop(self):
        # the angle scan the steady_physics suite makes, on squeezed states
        specs = [
            NetworkSpec(2, [BathSpec(1.0), BathSpec(g1)], [beam_splitter(1.0, 0, 1),
                        two_mode_squeeze(g, 0, 1)])
            for g, g1 in ((0.2, 1.0), (0.4, 0.5), (0.1, 3.0))
        ]
        ss = build_state_spaces(specs)
        stacked = steady_covariance(ss, InputMoments.thermal([[0.0, 2.0], [1.0, 0.5], [3.0, 0.0]]))
        angles = np.linspace(0.0, math.pi, 64, endpoint=False)
        for mode in (0, 1):
            grid = quadrature_variances(stacked, mode, angles)
            blocks = stacked.mode_block(mode)
            assert grid.shape == (3, 64) and blocks.shape == (3, 2, 2)
            for k in range(3):
                single = CovarianceState(v=stacked.v[k], n_modes=2)
                assert blocks[k].tobytes() == single.mode_block(mode).tobytes()
                loop = [
                    (c * c * b[0, 0] + s * s * b[1, 1] + 2 * s * c * b[0, 1])
                    for b in [single.mode_block(mode)]
                    for c, s in ((math.cos(t), math.sin(t)) for t in angles)
                ]
                assert grid[k].tolist() == [float(v) for v in loop]
                assert grid[k].tolist() == [quadrature_variance(single, mode, t) for t in angles]


class TestMirrorOddError:
    """The exact V is its own mirror Sigma_x conj(V) Sigma_x. Every per-mode
    observable reads the mean of an entry and its mirror, so a mirror-odd
    error E = -Sigma_x conj(E) Sigma_x, which is not physical, drops out."""

    ANGLES = (0.0, 0.4, 2.0)

    @staticmethod
    def bent(state, rng):
        f = rng.normal(size=state.v.shape) + 1j * rng.normal(size=state.v.shape)
        odd = f - mirrored(f)
        odd *= 1e-6 / np.abs(odd).max()
        return CovarianceState(v=state.v + odd, n_modes=state.n_modes)

    def states_by_size(self):
        rng = np.random.default_rng(11)
        by_size = {}
        for draw in range(24):
            spec = random_network(rng, max_modes=3, nonpassive=draw % 2 == 1)
            by_size.setdefault(spec.n_modes, []).append(spec)
        assert sorted(by_size) == [1, 2, 3]
        for n, specs in sorted(by_size.items()):
            occupancy = rng.uniform(0.0, 2.0, size=(len(specs), n))
            yield steady_covariance(build_state_spaces(specs), InputMoments.thermal(occupancy)), rng

    def test_single_states_ignore_it(self):
        for stack, rng in self.states_by_size():
            for v in stack.v:
                state = CovarianceState(v=v, n_modes=stack.n_modes)
                bent = self.bent(state, rng)
                tol = 1e-15 * max(1.0, np.abs(v).max())
                for mode in range(state.n_modes):
                    assert abs(bent.nu(mode) - state.nu(mode)) <= tol
                    assert abs(bent.mu(mode) - state.mu(mode)) <= tol
                    assert np.abs(bent.mode_block(mode) - state.mode_block(mode)).max() <= tol
                    assert abs(min_variances(bent, mode) - min_variances(state, mode)) <= tol
                    got = quadrature_variances(bent, mode, self.ANGLES)
                    assert np.abs(got - quadrature_variances(state, mode, self.ANGLES)).max() <= tol
                    best, quiet = min_quadrature_variance(bent, mode), min_quadrature_variance(state, mode)
                    assert abs(best.value - quiet.value) <= tol
                    # the angle moves by the mu error over |mu|
                    assert abs(best.theta - quiet.theta) * abs(state.mu(mode)) <= tol

    def test_stacks_ignore_it(self):
        for stack, rng in self.states_by_size():
            bent = self.bent(stack, rng)
            tol = 1e-15 * np.maximum(1.0, np.abs(stack.v).max(axis=(-2, -1)))
            for mode in range(stack.n_modes):
                gaps = [
                    np.abs(bent.mode_block(mode) - stack.mode_block(mode)).max(axis=(-2, -1)),
                    np.abs(min_variances(bent, mode) - min_variances(stack, mode)),
                    np.abs(
                        quadrature_variances(bent, mode, self.ANGLES)
                        - quadrature_variances(stack, mode, self.ANGLES)
                    ).max(axis=-1),
                ]
                for gap in gaps:
                    assert np.all(gap <= tol)


class TestThermalCovariance:
    """Thermal inputs read V off the channel kernels of the drift, with the
    guards of steady_covariance."""

    def test_a_stack_of_rows_on_one_drift(self):
        ss, _ = bs_system()
        rows = InputMoments.thermal([[0.0, 2.0], [1.0, 0.5], [3.0, 0.0]])
        stacked = thermal_covariance(ss, rows)
        assert stacked.v.shape == (3, 4, 4)
        for k in range(3):
            inputs = InputMoments.thermal(rows.occupancy[k])
            single = thermal_covariance(ss, inputs)
            assert stacked.v[k].tobytes() == single.v.tobytes()
            direct = steady_covariance(ss, inputs).v
            assert np.abs(single.v - direct).max() <= 1e-14 * np.abs(direct).max()

    def test_a_stack_of_drifts(self):
        specs = TestStackedStates.SPECS
        ss = build_state_spaces(specs)
        rows = InputMoments.thermal([[0.0, 2.0], [1.0, 0.5], [3.0, 0.0]])
        stacked = thermal_covariance(ss, rows)
        for k, spec in enumerate(specs):
            single = thermal_covariance(
                build_state_space(spec), InputMoments.thermal(rows.occupancy[k])
            )
            assert stacked.v[k].tobytes() == single.v.tobytes()
        # one row serves every drift
        shared = thermal_covariance(ss, InputMoments.thermal([0.5, 1.0]))
        assert shared.v.shape == (3, 4, 4)

    def test_the_kernels_are_solved_once(self, monkeypatch):
        ss, _ = bs_system()
        solved = []
        real = ss._lyapunov.solve

        def recording(q):
            solved.append(np.shape(q))
            return real(q)

        monkeypatch.setattr(ss._lyapunov, "solve", recording)
        for rows in ([0.0, 2.0], [[1.0, 0.5], [3.0, 0.0]]):
            thermal_covariance(ss, InputMoments.thermal(rows))
        # one Hermitian source per channel, whatever the rows
        assert solved == [(2, 4, 4)]
        assert not ss._thermal_kernels.flags.writeable

    def test_the_marginal_network_is_refused_as_by_the_solve(self):
        for gamma in (1e-6, 1e-8):
            ss, inputs = TestDoubledStructureGuard.near_marginal(gamma)
            v = thermal_covariance(ss, inputs).v
            direct = steady_covariance(ss, inputs).v
            assert np.abs(v - direct).max() <= 1e-12 * np.abs(direct).max()
        for gamma in (1e-10, 1e-12):
            ss, inputs = TestDoubledStructureGuard.near_marginal(gamma)
            with pytest.raises(NumericsError, match="doubled structure") as contracted:
                thermal_covariance(ss, inputs)
            with pytest.raises(NumericsError) as solved:
                steady_covariance(ss, inputs)
            assert contracted.value.estimate > 1e-6
            assert contracted.value.estimate == pytest.approx(solved.value.estimate, rel=1e-6)

    def test_the_first_failing_row_raises_its_own_error(self):
        # accurate, swamped at 1e-12, swamped at 1e-10: the 1e-12 row raises
        specs = [TestDoubledStructureGuard.spec(g) for g in (1e-6, 1e-12, 1e-10)]
        rows = InputMoments.thermal([[0.087, 0.0]] * 3)
        errors = []
        for spec in specs[1:]:
            with pytest.raises(NumericsError) as alone:
                thermal_covariance(build_state_space(spec), InputMoments.from_baths(spec))
            errors.append(alone.value)
        assert errors[0].estimate != errors[1].estimate
        with pytest.raises(NumericsError) as stacked:
            thermal_covariance(build_state_spaces(specs), rows)
        assert str(stacked.value) == str(errors[0])
        assert stacked.value.estimate == errors[0].estimate

    def test_inputs_it_does_not_take(self):
        ss, _ = bs_system()
        with pytest.raises(ApplicabilityError, match="thermal inputs only"):
            thermal_covariance(ss, InputMoments(np.array([1.0, 0.0]), np.array([0.5, 0.0])))
        with pytest.raises(DimensionError, match="3 input channels for 2 modes"):
            thermal_covariance(ss, InputMoments.thermal([0.0, 0.0, 0.0]))
        stack = build_state_spaces(TestStackedStates.SPECS)
        with pytest.raises(DimensionError, match="occupancy rows"):
            thermal_covariance(stack, InputMoments.thermal([[0.0, 1.0], [1.0, 0.0]]))


class TestForwardErrorBound:
    """||E||_2 <= ||R||_2 ||P||_2 for the error E of a solved V, where R =
    A V + V A^H + Q is its residual and P solves A P + P A^H + I = 0
    (Hewer and Kenney, SIAM J. Control Optim. 26, 321 (1988)). A mode's
    least variance is a minimum over unit-vector forms of V, so its error
    is at most ||E||_2."""

    @pytest.mark.parametrize("xi", [3.0, 4.5, 5.0, 6.0])
    def test_the_bound_covers_each_modes_variance_error(self, xi):
        # fig1's family at equal damping gamma = 1 with vacuum inputs, G = 50:
        # each mode's least variance is (G^2 (1 + e^(-2 xi)) + 1/2) / (4 G^2 + 1)
        g_script = 50.0
        spec = two_mode_network(TwoModeParams(
            g_plus=g_script * math.sinh(xi), g_minus=g_script * math.cosh(xi),
            gamma1=1.0, gamma2=1.0,
        ))
        ss, inputs = build_state_space(spec), InputMoments.from_baths(spec)
        state = steady_covariance(ss, inputs)
        a, v = ss.drift, state.v
        q = ss.input @ inputs.noise_matrix() @ ss.input.conj().T
        residual = a @ v + v @ a.conj().T + q
        p = ss._lyapunov.solve(np.eye(4, dtype=complex))
        bound = np.linalg.norm(residual, 2) * np.linalg.norm(p, 2)
        g2 = g_script * g_script
        exact = (g2 * (1.0 + math.exp(-2.0 * xi)) + 0.5) / (4.0 * g2 + 1.0)
        for mode in (0, 1):
            error = abs(float(min_variances(state, mode)) - exact)
            assert bound >= error
