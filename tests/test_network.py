import dataclasses
import json
import math

import numpy as np
import pytest

from bosonet.errors import DimensionError, FrameError, NumericsError, ValidationError
from bosonet.network import (
    COUPLING_KINDS,
    DOUBLED_ORDERING,
    BathSpec,
    CouplingTerm,
    InputMoments,
    MomentTransform,
    NetworkSpec,
    beam_splitter,
    build_state_space,
    check_physical_realizability,
    degenerate_parametric,
    detuning,
    hyperbolic_frame,
    is_passive,
    metric,
    network_from_json,
    network_to_json,
    spec_from_state_space,
    transform_network,
    two_mode_squeeze,
)


def single_mode(gamma=1.0):
    return NetworkSpec(1, [BathSpec(gamma)])


def bs_pair(g=0.5, gamma1=1.0, gamma2=1.0):
    return NetworkSpec(
        2, [BathSpec(gamma1), BathSpec(gamma2)], [beam_splitter(g, 0, 1)]
    )


def squeezer_pair(g_minus=1.0, g_plus=0.5, gamma1=1.0, gamma2=1.0):
    return NetworkSpec(
        2,
        [BathSpec(gamma1), BathSpec(gamma2)],
        [beam_splitter(g_minus, 0, 1), two_mode_squeeze(g_plus, 0, 1)],
    )


def hyperbolic(spec, mode, xi):
    """The network in the frame alpha = cosh(xi) a + sinh(xi) adag on one mode."""
    return transform_network(spec, MomentTransform.bogoliubov(spec.n_modes, mode, xi))


def squeezer_frame(g_minus=1.0, g_plus=0.5):
    """squeezer_pair in the hyperbolic frame of mode 1 that makes it passive."""
    xi = hyperbolic_frame(g_plus, g_minus)[1]
    return hyperbolic(squeezer_pair(g_minus, g_plus), 1, xi)


class TestValidation:
    def test_bath_gamma_positive(self):
        with pytest.raises(ValidationError):
            BathSpec(0.0)
        with pytest.raises(ValidationError):
            BathSpec(-1.0)

    def test_bath_occupancy_nonnegative(self):
        with pytest.raises(ValidationError):
            BathSpec(1.0, occupancy=-0.1)

    def test_coupling_mode_indices(self):
        with pytest.raises(ValidationError):
            beam_splitter(0.5, 1, 1)
        with pytest.raises(ValidationError, match="references mode 2"):
            NetworkSpec(2, [BathSpec(1.0)] * 2, [beam_splitter(0.5, 0, 2)])

    def test_bath_count_must_match_modes(self):
        with pytest.raises(ValidationError):
            NetworkSpec(2, [BathSpec(1.0)])

    def test_detuning_must_be_real(self):
        with pytest.raises(ValidationError):
            detuning(1.0 + 0.5j, 0)

    def test_spec_holds_modes_baths_and_couplings_only(self):
        assert [f.name for f in dataclasses.fields(NetworkSpec)] == [
            "n_modes",
            "baths",
            "couplings",
        ]

    def test_nan_amplitude_is_refused_before_a_frame_is_derived(self):
        # the refusal names the amplitude, not a failed frame round trip
        with pytest.raises(ValidationError, match="beam_splitter amplitude"):
            spec = NetworkSpec(
                2,
                [BathSpec(1.0), BathSpec(1.0)],
                [beam_splitter(complex(1.0, math.nan), 0, 1), two_mode_squeeze(0.5, 0, 1)],
            )
            hyperbolic(spec, 1, hyperbolic_frame(0.5, 1.0)[1])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["gamma", "occupancy", "anomalous"])
    def test_non_finite_bath_field_is_named(self, field, value):
        kwargs = {"gamma": 1.0, field: value}
        with pytest.raises(ValidationError, match=f"bath {field} must be finite"):
            BathSpec(**kwargs)

    @pytest.mark.parametrize("amplitude", [complex(1.0, math.nan), math.inf, -math.inf])
    @pytest.mark.parametrize("kind", COUPLING_KINDS)
    def test_non_finite_amplitude_is_named(self, kind, amplitude):
        modes = (0, 1) if kind in ("beam_splitter", "two_mode_squeeze") else (0,)
        with pytest.raises(ValidationError, match=f"{kind} amplitude must be finite"):
            CouplingTerm(kind, amplitude, modes)


class TestPhysicalityWarnings:
    def test_bath_anomalous_above_thermal_bound_warns(self):
        with pytest.warns(UserWarning, match="exceeds the thermal physicality bound"):
            BathSpec(1.0, occupancy=0.0, anomalous=0.5)

    def test_bath_within_bound_is_silent(self):
        import warnings

        n = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            BathSpec(1.0, occupancy=n, anomalous=math.sqrt(n * (n + 1)))

    def test_input_moments_warns_with_channel_index(self):
        with pytest.warns(UserWarning, match="input channel 1"):
            InputMoments(
                occupancy=np.array([0.0, 0.0]), anomalous=np.array([0.0, 0.3j])
            )

    @pytest.mark.parametrize("n", [1e200, 1e306])
    def test_large_occupancies_emit_no_warning(self, n):
        # the bound sqrt(n (n+1)) must not overflow on the way
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            InputMoments.thermal([n, n])
            BathSpec(1.0, occupancy=n)


class TestDrift:
    def test_single_damped_mode(self):
        ss = build_state_space(single_mode())
        assert ss.drift.shape == (2, 2)
        assert np.allclose(ss.drift, -0.5 * np.eye(2))
        assert np.allclose(ss.input, np.eye(2))
        assert DOUBLED_ORDERING == "a[0..N-1], adag[0..N-1]"

    def test_beam_splitter_annihilation_block(self):
        ss = build_state_space(bs_pair(g=0.5))
        expected = np.array([[-0.5, -0.5j], [-0.5j, -0.5]])
        assert np.abs(ss.drift[:2, :2] - expected).max() < 1e-14
        assert np.abs(ss.drift[:2, 2:]).max() == 0.0

    def test_beam_splitter_phase_conjugated_on_swap(self):
        g = 0.4 * np.exp(0.7j)
        ss = build_state_space(
            NetworkSpec(2, [BathSpec(1.0)] * 2, [beam_splitter(g, 0, 1)])
        )
        assert abs(ss.drift[0, 1] - (-1j) * g) < 1e-14
        assert abs(ss.drift[1, 0] - (-1j) * np.conj(g)) < 1e-14

    def test_two_mode_squeeze_mixing_block(self):
        big_g = 0.3 * np.exp(0.2j)
        ss = build_state_space(
            NetworkSpec(2, [BathSpec(1.0)] * 2, [two_mode_squeeze(big_g, 0, 1)])
        )
        mix = ss.drift[:2, 2:]
        assert abs(mix[0, 1] - (-1j) * big_g) < 1e-14
        assert abs(mix[1, 0] - (-1j) * big_g) < 1e-14
        assert np.abs(np.diag(mix)).max() == 0.0

    def test_detuning_on_diagonal(self):
        ss = build_state_space(
            NetworkSpec(1, [BathSpec(2.0)], [detuning(0.7, 0)])
        )
        assert abs(ss.drift[0, 0] - (-1.0 - 0.7j)) < 1e-14

    def test_degenerate_parametric_entry(self):
        lam = 0.25 * np.exp(0.3j)
        ss = build_state_space(
            NetworkSpec(1, [BathSpec(1.0)], [degenerate_parametric(lam, 0)])
        )
        assert abs(ss.drift[0, 1] - (-2j) * np.conj(lam)) < 1e-14

    def test_conjugation_symmetry_is_exact(self):
        spec = NetworkSpec(
            3,
            [BathSpec(1.0), BathSpec(2.0), BathSpec(0.5)],
            [
                beam_splitter(0.5 * np.exp(1.1j), 0, 1),
                two_mode_squeeze(0.3 * np.exp(-0.4j), 1, 2),
                degenerate_parametric(0.1j, 0),
                detuning(-0.2, 2),
            ],
        )
        ss = build_state_space(spec)
        n = spec.n_modes
        assert np.array_equal(ss.drift[n:, n:], ss.drift[:n, :n].conj())
        assert np.array_equal(ss.drift[n:, :n], ss.drift[:n, n:].conj())

    def test_input_matrix_is_sqrt_gamma(self):
        ss = build_state_space(
            NetworkSpec(2, [BathSpec(4.0), BathSpec(1.0)])
        )
        assert np.allclose(ss.input, np.diag([2.0, 1.0, 2.0, 1.0]))
        assert np.allclose(ss.gammas, [4.0, 1.0])

    def test_metric(self):
        assert np.array_equal(metric(2), np.diag([1.0, 1.0, -1.0, -1.0]))
        # the state space holds no constants: the metric comes from n_modes
        ss = build_state_space(bs_pair())
        assert [f.name for f in dataclasses.fields(ss)] == ["drift", "input", "n_modes"]


class TestRealizability:
    def test_built_networks_pass(self):
        for spec in (single_mode(), bs_pair(), squeezer_pair()):
            report = check_physical_realizability(build_state_space(spec))
            assert report.passed
            assert report.residual < 1e-12

    def test_zeroed_input_fails_by_largest_rate(self):
        ss = build_state_space(bs_pair(gamma1=4.0, gamma2=1.0))
        broken = dataclasses.replace(ss, input=np.zeros_like(ss.input))
        report = check_physical_realizability(broken)
        assert not report.passed
        assert abs(report.residual - 4.0) < 1e-12

    def test_scaled_input_entry_fails(self):
        ss = build_state_space(single_mode())
        bad = ss.input.copy()
        bad[0, 0] *= 1.1
        report = check_physical_realizability(dataclasses.replace(ss, input=bad))
        assert not report.passed
        assert abs(report.residual - 0.21) < 1e-12

    @pytest.mark.parametrize("gammas", [(1e5, 1.37e5), (7e6, 9.6e6)])
    def test_large_rates_are_judged_against_the_operands(self, gammas):
        # the residual is roundoff of sqrt(gamma)^2 - gamma, so it grows
        # with the rates; the limit grows with them
        spec = bs_pair(g=0.5, gamma1=gammas[0], gamma2=gammas[1])
        report = check_physical_realizability(build_state_space(spec))
        assert report.residual > report.tol
        assert report.passed
        assert report.tol == 1e-12

    def test_small_defect_at_unit_scale_fails(self):
        ss = build_state_space(bs_pair())
        drift = ss.drift.copy()
        drift[0, 0] += 1e-11
        report = check_physical_realizability(dataclasses.replace(ss, drift=drift))
        assert not report.passed
        assert abs(report.residual - 2e-11) < 1e-15

    def test_nan_drift_fails(self):
        ss = build_state_space(bs_pair())
        drift = ss.drift.copy()
        drift[0, 1] = math.nan
        assert not check_physical_realizability(dataclasses.replace(ss, drift=drift)).passed


class TestPassivity:
    def test_beam_splitter_network_is_passive(self):
        assert is_passive(bs_pair(g=0.5 * np.exp(2.0j)))

    def test_squeezing_terms_are_not(self):
        assert not is_passive(squeezer_pair())
        assert not is_passive(
            NetworkSpec(1, [BathSpec(1.0)], [degenerate_parametric(0.1, 0)])
        )

    def test_detuning_stays_passive(self):
        assert is_passive(NetworkSpec(1, [BathSpec(1.0)], [detuning(0.5, 0)]))

    def test_zero_amplitude_squeezing_terms_are_passive(self):
        assert is_passive(squeezer_pair(g_minus=1.0, g_plus=0.0))
        assert is_passive(
            NetworkSpec(1, [BathSpec(1.0)], [degenerate_parametric(0.0, 0)])
        )


class TestJsonRoundTrip:
    def test_round_trip_preserves_drift(self):
        spec = NetworkSpec(
            2,
            [BathSpec(1.0, occupancy=0.2), BathSpec(2.0)],
            [beam_splitter(0.5 * np.exp(0.3j), 0, 1), detuning(0.1, 0)],
        )
        restored = network_from_json(network_to_json(spec))
        assert np.array_equal(
            build_state_space(restored).drift, build_state_space(spec).drift
        )
        assert restored.baths[0].occupancy == 0.2
        # document is plain JSON
        json.dumps(network_to_json(spec))

    def test_unknown_key_rejected_with_path(self):
        doc = network_to_json(single_mode())
        doc["baths"][0]["temp"] = 1.0
        with pytest.raises(ValidationError, match="baths\\[0\\]"):
            network_from_json(doc)

    def test_missing_key_rejected(self):
        doc = network_to_json(single_mode())
        del doc["baths"][0]["m_re"]
        with pytest.raises(ValidationError, match="baths\\[0\\]"):
            network_from_json(doc)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_number_rejected(self, value):
        doc = network_to_json(single_mode())
        doc["baths"][0]["n"] = value
        with pytest.raises(ValidationError, match="must be finite"):
            network_from_json(doc)

    def test_unknown_coupling_kind_rejected(self):
        doc = network_to_json(bs_pair())
        doc["couplings"][0]["kind"] = "tritter"
        with pytest.raises(ValidationError, match="unknown coupling kind"):
            network_from_json(doc)


class TestInputMoments:
    def test_vacuum_and_thermal(self):
        v = InputMoments.vacuum(2)
        assert np.array_equal(v.occupancy, np.zeros(2))
        t = InputMoments.thermal([0.5, 2.0])
        assert np.array_equal(t.occupancy, [0.5, 2.0])
        assert np.array_equal(t.anomalous, np.zeros(2))

    def test_from_baths_reads_moments(self):
        spec = NetworkSpec(
            1, [BathSpec(1.0, occupancy=2.0, anomalous=0.5 + 0.5j)]
        )
        m = InputMoments.from_baths(spec)
        assert m.occupancy[0] == 2.0
        assert m.anomalous[0] == 0.5 + 0.5j

    def test_noise_matrix_vacuum(self):
        n_sym = InputMoments.vacuum(1).noise_matrix()
        assert np.allclose(n_sym, np.diag([0.5, 0.5]))

    def test_noise_matrix_thermal_blocks(self):
        m = InputMoments(occupancy=np.array([1.0]), anomalous=np.array([0.0]))
        assert np.allclose(m.noise_matrix(), np.diag([1.5, 1.5]))

    def test_cross_terms_are_judged_against_the_moment_scale(self):
        # a mixer turns an occupancy gap of 2e-9 into cross correlators of
        # 1e-9: refused at unit scale, roundoff next to occupancies of 1e6
        mixer = MomentTransform.mixer(2, 0, 1)
        with pytest.raises(NumericsError, match="cross-channel correlators"):
            mixer.apply_to_inputs(InputMoments.thermal([1.0, 1.0 + 2e-9]))
        large = mixer.apply_to_inputs(InputMoments.thermal([1e6, 1e6 + 2e-9]))
        assert large.occupancy.shape == large.anomalous.shape == (2,)
        assert np.abs(large.occupancy - 1e6).max() <= 2e-9

    @staticmethod
    def _patched_noise(monkeypatch, normal, anomalous):
        """Make every InputMoments report the doubled noise matrix of the
        given correlators, which no symplectic frame change produces."""
        n = normal.shape[0]
        half = 0.5 * np.eye(n)
        noise = np.block([[half + normal.T, anomalous], [anomalous.conj(), half + normal]])
        monkeypatch.setattr(InputMoments, "noise_matrix", lambda self: noise)

    def test_imaginary_diagonal_is_judged_against_the_moment_scale(self, monkeypatch):
        identity = MomentTransform(np.eye(4))
        zero = np.zeros((2, 2), dtype=complex)
        self._patched_noise(monkeypatch, np.diag([1.0, 1.0 + 2e-9j]), zero)
        with pytest.raises(ValidationError, match="diagonal must be real"):
            identity.apply_to_inputs(InputMoments.vacuum(2))
        self._patched_noise(monkeypatch, np.diag([1e6, 1e6 + 2e-9j]), zero)
        m = identity.apply_to_inputs(InputMoments.vacuum(2))
        assert np.array_equal(m.occupancy, [1e6, 1e6])

    @pytest.mark.parametrize(
        "where", ["imag_diagonal", "normal_cross", "anomalous_cross"]
    )
    def test_nan_correlator_is_refused(self, monkeypatch, where):
        normal, anomalous = np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)
        if where == "imag_diagonal":
            normal[1, 1] = complex(1.0, math.nan)
        elif where == "normal_cross":
            normal[0, 1] = normal[1, 0] = math.nan
        else:
            anomalous[0, 1] = anomalous[1, 0] = math.nan
        self._patched_noise(monkeypatch, normal, anomalous)
        with pytest.raises(ValidationError, match="finite"):
            MomentTransform(np.eye(4)).apply_to_inputs(InputMoments.vacuum(2))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["occupancy", "anomalous"])
    def test_non_finite_moment_is_named(self, field, value):
        moments = {"occupancy": np.ones(2), "anomalous": np.zeros(2, dtype=complex)}
        moments[field][1] = value
        with pytest.raises(ValidationError, match=f"input {field} must be finite"):
            InputMoments(**moments)

    def test_noise_matrix_anomalous_off_diagonal(self):
        m = InputMoments.from_baths(
            NetworkSpec(1, [BathSpec(1.0, occupancy=1.0, anomalous=0.4 + 0.3j)])
        )
        n_sym = m.noise_matrix()
        assert abs(n_sym[0, 1] - (0.4 + 0.3j)) < 1e-15
        assert abs(n_sym[1, 0] - (0.4 - 0.3j)) < 1e-15


class TestMomentTransform:
    def test_metric_preservation_enforced(self):
        with pytest.raises(ValidationError):
            MomentTransform(2.0 * np.eye(2))

    def test_conjugation_structure_enforced(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = 0.1
        with pytest.raises(ValidationError):
            MomentTransform(m)

    def test_bogoliubov_preserves_metric(self):
        t = MomentTransform.bogoliubov(2, 1, 0.8)
        sig = metric(2)
        assert np.abs(t.matrix @ sig @ t.matrix.conj().T - sig).max() < 1e-12

    def test_compose_with_inverse_is_identity(self):
        # apply_to_drift forms T A T^-1 with T^-1 = sigma T^H sigma
        t = MomentTransform.two_mode_bogoliubov(3, 0, 2, 0.6)
        assert np.abs(t.apply_to_drift(np.eye(6)) - np.eye(6)).max() < 1e-12

    @pytest.mark.parametrize(
        "build",
        [
            lambda: MomentTransform.bogoliubov(2, 2, 0.3),
            lambda: MomentTransform.rotation(2, -1, 0.3),
            lambda: MomentTransform.two_mode_bogoliubov(2, 0, 2, 0.3),
            lambda: MomentTransform.mixer(2, -1, 0),
        ],
    )
    def test_mode_out_of_range_is_refused(self, build):
        with pytest.raises(DimensionError, match="out of range"):
            build()

    def test_nan_input_moments_are_refused(self):
        with pytest.raises(ValidationError, match="finite"):
            InputMoments(np.ones(2), np.array([math.nan, 0.0]))
        # finite moments that overflow in the new frame are refused there,
        # and no floating-point warning escapes on the way
        with pytest.raises(ValidationError, match="input moments must be finite"):
            MomentTransform.bogoliubov(2, 0, 1.0).apply_to_inputs(
                InputMoments.thermal([1e308, 1e308])
            )

    @pytest.mark.parametrize("n", [1.0, 1e4, 1e6, 1e8])
    def test_equal_occupancies_survive_a_mixer(self, n):
        moments = MomentTransform.mixer(2, 0, 1).apply_to_inputs(
            InputMoments.thermal([n, n])
        )
        assert np.abs(moments.occupancy - n).max() <= 1e-12 * n
        assert np.array_equal(moments.anomalous, np.zeros(2))

    def test_rotation_acts_only_on_its_mode(self):
        t = MomentTransform.rotation(2, 0, 0.7)
        assert t.matrix[1, 1] == 1.0
        assert abs(t.matrix[0, 0] - np.exp(0.7j)) < 1e-15


class TestBogoliubovFrame:
    def test_no_squeeze_is_identity_frame(self):
        spec = bs_pair(g=0.8)
        xi = hyperbolic_frame(0.0, 0.8)[1]
        assert xi == 0.0
        t = MomentTransform.bogoliubov(2, 1, xi)
        assert np.abs(t.matrix - np.eye(4)).max() < 1e-12
        assert np.array_equal(
            build_state_space(transform_network(spec, t)).drift,
            build_state_space(spec).drift,
        )

    def test_hyperbolic_rotation_of_squeezer(self):
        frame = squeezer_frame(1.0, 0.5)
        assert is_passive(frame)
        amps = [c.amplitude for c in frame.couplings if c.kind == "beam_splitter"]
        assert len(amps) == 1
        assert abs(abs(amps[0]) - math.sqrt(0.75)) < 1e-12

    def test_vacuum_bath_gains_moments(self):
        b = squeezer_frame(1.0, 0.5).baths[1]
        xi = math.atanh(0.5)
        assert abs(b.gamma - 1.0) < 1e-15
        assert abs(b.occupancy - math.sinh(xi) ** 2) < 1e-12
        assert abs(b.occupancy - 1.0 / 3.0) < 1e-12
        assert abs(b.anomalous - math.sinh(xi) * math.cosh(xi)) < 1e-12
        assert abs(b.anomalous - 2.0 / 3.0) < 1e-12

    def test_untouched_bath_unchanged(self):
        frame = squeezer_frame(1.0, 0.5)
        assert frame.baths[0].occupancy == 0.0
        assert frame.baths[0].anomalous == 0.0

    def test_equal_amplitudes_have_no_frame(self):
        with pytest.raises(FrameError):
            squeezer_frame(g_minus=0.5, g_plus=0.5)
        with pytest.raises(FrameError):
            squeezer_frame(g_minus=0.5, g_plus=1.0)

    def test_explicit_xi_composes_additively(self):
        spec = squeezer_pair(1.0, 0.5)
        two = hyperbolic(hyperbolic(spec, 1, 0.2), 1, 0.3)
        direct = hyperbolic(spec, 1, 0.5)
        d_two = build_state_space(two).drift
        d_direct = build_state_space(direct).drift
        assert np.abs(d_two - d_direct).max() < 1e-12

    def test_rotation_makes_frame_drift_real(self):
        # a quarter turn of the frame mode makes the beam-splitter block real
        rotated = transform_network(
            squeezer_frame(1.0, 0.5), MomentTransform.rotation(2, 1, math.pi / 2)
        )
        drift = build_state_space(rotated).drift
        assert np.abs(drift.imag).max() < 1e-12


class TestSpecFromStateSpace:
    def test_reads_back_every_coupling_kind(self):
        spec = NetworkSpec(
            3,
            [BathSpec(1.0), BathSpec(2.0), BathSpec(0.5)],
            [
                beam_splitter(0.4 - 0.2j, 0, 1),
                two_mode_squeeze(0.1 + 0.3j, 1, 2),
                detuning(-0.7, 2),
                degenerate_parametric(0.05 - 0.02j, 0),
            ],
        )
        drift = build_state_space(spec).drift
        restored = spec_from_state_space(drift, spec.baths)
        assert sorted((c.kind, c.modes, c.amplitude) for c in restored.couplings) == (
            sorted((c.kind, c.modes, c.amplitude) for c in spec.couplings)
        )
        assert np.array_equal(build_state_space(restored).drift, drift)

    def test_merges_terms_on_one_slot_and_drops_cancelled_ones(self):
        spec = NetworkSpec(
            2,
            [BathSpec(1.0), BathSpec(1.0)],
            [
                beam_splitter(0.3, 0, 1),
                beam_splitter(0.2j, 1, 0),
                detuning(0.5, 1),
                detuning(-0.5, 1),
            ],
        )
        restored = spec_from_state_space(build_state_space(spec).drift, spec.baths)
        assert [(c.kind, c.modes) for c in restored.couplings] == [
            ("beam_splitter", (0, 1))
        ]
        assert abs(restored.couplings[0].amplitude - (0.3 - 0.2j)) < 1e-15

    def test_damping_that_does_not_match_the_baths_is_refused(self):
        drift = build_state_space(bs_pair(gamma1=1.0, gamma2=2.0)).drift
        with pytest.raises(FrameError, match="round-trip defect"):
            spec_from_state_space(drift, (BathSpec(1.0), BathSpec(1.0)))

    def test_non_hamiltonian_mixing_is_refused(self):
        drift = build_state_space(bs_pair()).drift
        drift[0, 3] += 0.1  # antisymmetric a <- adag block has no coupling term
        drift[1, 2] -= 0.1
        drift[2, 1] += 0.1
        drift[3, 0] -= 0.1
        with pytest.raises(FrameError):
            spec_from_state_space(drift, bs_pair().baths)

    def test_nan_drift_is_refused(self):
        drift = build_state_space(bs_pair()).drift
        drift[0, 1] = np.nan
        with pytest.raises(FrameError):
            spec_from_state_space(drift, bs_pair().baths)

    def test_shape_must_fit_the_baths(self):
        with pytest.raises(DimensionError):
            spec_from_state_space(np.eye(4), (BathSpec(1.0),))


class TestTransformNetwork:
    def test_mode_count_must_match(self):
        with pytest.raises(DimensionError):
            transform_network(bs_pair(), MomentTransform(np.eye(6)))

    def test_unequal_dampings_cannot_be_mixed(self):
        spec = bs_pair(gamma1=1.0, gamma2=2.0)
        with pytest.raises(FrameError):
            transform_network(spec, MomentTransform.two_mode_bogoliubov(2, 0, 1, 0.3))
        with pytest.raises(FrameError):
            transform_network(spec, MomentTransform.mixer(2, 0, 1))

    def test_cross_correlated_frame_inputs_are_refused(self):
        # equal dampings, but hyperbolic mixing of two vacua correlates them
        with pytest.raises(NumericsError, match="cross-channel"):
            transform_network(
                bs_pair(), MomentTransform.two_mode_bogoliubov(2, 0, 1, 0.3)
            )

    def test_unequal_large_occupancies_are_refused(self):
        spec = NetworkSpec(2, [BathSpec(1.0, 1e6), BathSpec(1.0, 2e6)])
        with pytest.raises(NumericsError, match="cross-channel"):
            transform_network(spec, MomentTransform.mixer(2, 0, 1))

    def test_composed_transform_equals_successive_frames(self):
        spec = squeezer_pair(1.0, 0.5)
        xi = math.atanh(0.5)
        stepwise = transform_network(
            hyperbolic(spec, 1, xi), MomentTransform.rotation(2, 1, math.pi / 2)
        )
        composed = transform_network(
            spec,
            MomentTransform.rotation(2, 1, math.pi / 2).compose(
                MomentTransform.bogoliubov(2, 1, xi)
            ),
        )
        assert np.abs(
            build_state_space(composed).drift - build_state_space(stepwise).drift
        ).max() < 1e-12
        for a, b in zip(composed.baths, stepwise.baths):
            assert abs(a.occupancy - b.occupancy) < 1e-12
            assert abs(a.anomalous - b.anomalous) < 1e-12
