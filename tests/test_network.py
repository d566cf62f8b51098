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
    StateSpace,
    beam_splitter,
    build_state_space,
    build_state_spaces,
    check_physical_realizability,
    degenerate_parametric,
    detuning,
    hyperbolic_frame,
    is_passive,
    metric,
    mirror_defect,
    mirrored,
    network_from_json,
    network_to_json,
    passive_state_space,
    two_mode_squeeze,
)
from bosonet.suites import random_network


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


def per_spec_state_spaces(specs):
    """The stacked (drift, input) of the per-spec build that the family
    builder replaced: one spec at a time, the dampings first, then each
    coupling in spec order. The reference for the builder's bits."""
    n = specs[0].n_modes
    ann = np.zeros((len(specs), n, n), dtype=complex)
    mix = np.zeros((len(specs), n, n), dtype=complex)
    for spec, a, m in zip(specs, ann, mix):
        for i, b in enumerate(spec.baths):
            a[i, i] -= 0.5 * b.gamma
        for c in spec.couplings:
            if c.kind == "beam_splitter":
                i, j = c.modes
                a[i, j] += -1j * c.amplitude
                a[j, i] += -1j * c.amplitude.conjugate()
            elif c.kind == "two_mode_squeeze":
                i, j = c.modes
                m[i, j] += -1j * c.amplitude
                m[j, i] += -1j * c.amplitude
            elif c.kind == "detuning":
                (i,) = c.modes
                a[i, i] += -1j * c.amplitude.real
            else:
                (i,) = c.modes
                m[i, i] += -2j * c.amplitude.conjugate()
    drift = np.concatenate(
        [np.concatenate([ann, mix], axis=2), np.concatenate([mix.conj(), ann.conj()], axis=2)],
        axis=1,
    )
    root = np.sqrt([spec.gammas for spec in specs])
    inp = np.zeros((len(specs), 2 * n, 2 * n), dtype=complex)
    inp[:, np.eye(2 * n, dtype=bool)] = np.concatenate([root, root], axis=1)
    return drift, inp


def assert_per_spec_bits(ss, specs):
    """ss holds the bits of the per-spec build of specs."""
    drift, inp = per_spec_state_spaces(specs)
    assert ss.n_modes == specs[0].n_modes
    assert ss.drift.tobytes() == drift.tobytes()
    assert ss.input.tobytes() == inp.tobytes()


def hyperbolic(ss, mode, xi):
    """The dynamics in the frame alpha = cosh(xi) a + sinh(xi) adag on one mode."""
    return MomentTransform.bogoliubov(ss.n_modes, mode, xi).apply_to_state_space(ss)


def squeezer_frame(g_minus=1.0, g_plus=0.5):
    """squeezer_pair in the hyperbolic frame of mode 1 that makes it passive."""
    xi = hyperbolic_frame(g_plus, g_minus)[1]
    return hyperbolic(build_state_space(squeezer_pair(g_minus, g_plus)), 1, xi)


def vacuum_in_squeezer_frame(g_minus=1.0, g_plus=0.5):
    """Vacuum inputs of squeezer_pair mapped into the frame of squeezer_frame."""
    xi = hyperbolic_frame(g_plus, g_minus)[1]
    return MomentTransform.bogoliubov(2, 1, xi).apply_to_inputs(InputMoments.vacuum(2))


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
            hyperbolic(build_state_space(spec), 1, hyperbolic_frame(0.5, 1.0)[1])

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


class TestMirror:
    def test_built_matrices_are_their_own_mirror(self):
        ss = build_state_spaces([squeezer_pair(), squeezer_pair(0.3, 0.2, gamma2=2.0)])
        for m in (ss.drift, ss.input):
            assert np.array_equal(mirrored(m), m)
            assert np.array_equal(mirror_defect(m), [0.0, 0.0])

    def test_defect_is_the_largest_lower_block_mismatch(self):
        # each lower block against the conjugate of the upper block it
        # mirrors, the comparison the checks wrote out by hand before
        rng = np.random.default_rng(11)
        for n in (1, 2, 3):
            shape = (40, 2 * n, 2 * n)
            m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            near = mirrored(m) + m + 1e-13 * rng.normal(size=shape)
            for stack in (m, near):
                blocks = np.maximum(
                    np.abs(stack[:, n:, n:] - stack[:, :n, :n].conj()).max(axis=(-2, -1)),
                    np.abs(stack[:, n:, :n] - stack[:, :n, n:].conj()).max(axis=(-2, -1)),
                )
                assert mirror_defect(stack).tobytes() == blocks.tobytes()

    def test_non_finite_entry_gives_a_nan_defect(self):
        ss = build_state_spaces([squeezer_pair(), squeezer_pair()])
        drift = ss.drift.copy()
        drift[1, 0, 0] = drift[1, 2, 2] = np.nan  # mirror images of each other
        defect = mirror_defect(drift)
        assert defect[0] == 0.0 and np.isnan(defect[1])


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

    @pytest.mark.parametrize("count", [4, 3], ids=["P=2N", "P!=2N"])
    def test_a_stack_gets_the_report_of_each_member(self, count):
        # four two-mode draws: a transpose of the whole stack reported
        # residual 4.02 and failed; three raised a broadcasting ValueError
        rng = np.random.default_rng(3)
        specs = [random_network(rng, max_modes=2) for _ in range(12)]
        specs = [spec for spec in specs if spec.n_modes == 2][:count]
        assert len(specs) == count
        ss = build_state_spaces(specs)
        assert ss.drift.shape == (count, 4, 4)
        reports = check_physical_realizability(ss)
        assert reports == [check_physical_realizability(member) for member in ss.members()]
        assert all(report.passed for report in reports)
        # a broken member fails alone
        inputs = ss.input.copy()
        inputs[1, 0, 0] *= 1.1
        reports = check_physical_realizability(dataclasses.replace(ss, input=inputs))
        assert [report.passed for report in reports] == [k != 1 for k in range(count)]


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

    def test_non_string_coupling_kind_is_named(self):
        doc = network_to_json(bs_pair())
        doc["couplings"][0]["kind"] = 5
        with pytest.raises(
            ValidationError, match=r"^couplings\[0\]: kind must be a string, got 5$"
        ):
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

    def test_thermal_stack_from_lists_and_arrays(self):
        rows = [[0.5, 2.0, 0.0], [1.0, 0.25, 3.0]]
        for given in (rows, np.array(rows), [np.array(row) for row in rows]):
            t = InputMoments.thermal(given)
            assert t.occupancy.shape == t.anomalous.shape == (2, 3)
            assert t.occupancy.tobytes() == np.array(rows).tobytes()
            assert t.anomalous.tobytes() == np.zeros((2, 3), dtype=complex).tobytes()

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

    @pytest.mark.parametrize("xi", [8.0, 15.0])
    def test_metric_roundoff_is_judged_against_the_transform_size(self, xi):
        # the residual is ~eps cosh^2 xi, far above an absolute 1e-10
        t = MomentTransform.bogoliubov(2, 1, xi)
        assert t.matrix[1, 1] == math.cosh(xi)

    def test_small_metric_defect_at_unit_scale_fails(self):
        m = MomentTransform.bogoliubov(2, 1, 0.5).matrix.copy()
        m[0, 0] += 1e-9
        m[2, 2] += 1e-9
        with pytest.raises(ValidationError, match="commutator metric"):
            MomentTransform(m)

    def test_compose_with_inverse_is_identity(self):
        # apply_to_state_space forms T A T^-1 with T^-1 = sigma T^H sigma, so
        # equal damping on every mode, A = -gamma/2, is left as it is
        t = MomentTransform.two_mode_bogoliubov(3, 0, 2, 0.6)
        ss = build_state_space(NetworkSpec(3, [BathSpec(2.0)] * 3))
        assert np.abs(t.apply_to_state_space(ss).drift + np.eye(6)).max() < 1e-12

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
        ss = build_state_space(bs_pair(g=0.8))
        xi = hyperbolic_frame(0.0, 0.8)[1]
        assert xi == 0.0
        t = MomentTransform.bogoliubov(2, 1, xi)
        assert np.abs(t.matrix - np.eye(4)).max() < 1e-12
        assert np.array_equal(t.apply_to_state_space(ss).drift, ss.drift)

    def test_hyperbolic_rotation_of_squeezer(self):
        frame = squeezer_frame(1.0, 0.5)
        assert passive_state_space(frame)
        # the one coupling left is a beam splitter of rate sqrt(0.75)
        assert abs(abs(frame.drift[0, 1]) - math.sqrt(0.75)) < 1e-12
        assert np.array_equal(frame.drift[:2, 2:], np.zeros((2, 2)))

    def test_vacuum_bath_gains_moments(self):
        moments = vacuum_in_squeezer_frame(1.0, 0.5)
        xi = math.atanh(0.5)
        assert np.array_equal(squeezer_frame(1.0, 0.5).gammas, [1.0, 1.0])
        assert abs(moments.occupancy[1] - math.sinh(xi) ** 2) < 1e-12
        assert abs(moments.occupancy[1] - 1.0 / 3.0) < 1e-12
        assert abs(moments.anomalous[1] - math.sinh(xi) * math.cosh(xi)) < 1e-12
        assert abs(moments.anomalous[1] - 2.0 / 3.0) < 1e-12

    def test_untouched_bath_unchanged(self):
        moments = vacuum_in_squeezer_frame(1.0, 0.5)
        assert moments.occupancy[0] == 0.0
        assert moments.anomalous[0] == 0.0

    def test_equal_amplitudes_have_no_frame(self):
        with pytest.raises(FrameError):
            squeezer_frame(g_minus=0.5, g_plus=0.5)
        with pytest.raises(FrameError):
            squeezer_frame(g_minus=0.5, g_plus=1.0)

    def test_decoupled_pair_has_the_identity_frame(self):
        assert hyperbolic_frame(0.0, 0.0) == (0.0, 0.0)
        assert hyperbolic_frame(-0.0, 0.0) == (0.0, 0.0)
        with pytest.raises(FrameError):
            hyperbolic_frame(math.nan, 0.0)

    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e200, 1e-200])
    def test_frame_rate_does_not_square_the_amplitudes(self, scale):
        # sqrt(g_minus^2 - g_plus^2) overflowed above about 1.3e154
        g_script, xi = hyperbolic_frame(0.5 * scale, scale)
        assert abs(g_script - math.sqrt(0.75) * scale) <= 1e-15 * scale
        assert abs(xi - math.atanh(0.5)) <= 1e-15
        assert hyperbolic_frame(-0.5 * scale, scale) == (g_script, -xi)

    def test_explicit_xi_composes_additively(self):
        ss = build_state_space(squeezer_pair(1.0, 0.5))
        two = hyperbolic(hyperbolic(ss, 1, 0.2), 1, 0.3)
        direct = hyperbolic(ss, 1, 0.5)
        assert np.abs(two.drift - direct.drift).max() < 1e-12

    def test_rotation_makes_frame_drift_real(self):
        # a quarter turn of the frame mode makes the beam-splitter block real
        rotated = MomentTransform.rotation(2, 1, math.pi / 2).apply_to_state_space(
            squeezer_frame(1.0, 0.5)
        )
        assert np.abs(rotated.drift.imag).max() < 1e-12

    @pytest.mark.parametrize("g_script", [0.5, 1.0, 5.0, 50.0])
    def test_strong_squeezing_frame_is_passive(self, g_script):
        # at xi = 6, T A T^-1 carries roundoff mixing terms of about
        # cosh^2(xi) eps, which the cutoff, scaled by ||T||_max^2, drops
        xi = 6.0
        ss = build_state_space(
            squeezer_pair(g_script * math.cosh(xi), g_script * math.sinh(xi))
        )
        assert passive_state_space(hyperbolic(ss, 1, xi))


class TestSpecFromStateSpace:
    """The projection of apply_to_state_space onto the one-bath-per-mode
    form that build_state_space writes."""

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
        ss = build_state_space(spec)
        frame = MomentTransform(np.eye(6)).apply_to_state_space(ss)
        assert np.array_equal(frame.drift, ss.drift)
        assert frame.input is ss.input

    def test_merges_terms_on_one_slot_and_drops_cancelled_ones(self):
        baths = [BathSpec(1.0), BathSpec(1.0)]
        spec = NetworkSpec(
            2,
            baths,
            [
                beam_splitter(0.3, 0, 1),
                beam_splitter(0.2j, 1, 0),
                detuning(0.5, 1),
                detuning(-0.5, 1),
            ],
        )
        ss = build_state_space(spec)
        noisy = ss.drift.copy()
        noisy[0, 0] += 1e-13j  # detuning roundoff below the cutoff
        noisy[0, 3] += 1e-13  # and mixing roundoff
        ss = StateSpace(drift=noisy, input=ss.input, n_modes=2)
        frame = MomentTransform(np.eye(4)).apply_to_state_space(ss)
        merged = build_state_space(NetworkSpec(2, baths, [beam_splitter(0.3 - 0.2j, 0, 1)]))
        assert np.abs(frame.drift - merged.drift).max() < 1e-15
        assert passive_state_space(frame)

    def test_damping_that_does_not_match_the_baths_is_refused(self):
        ss = build_state_space(bs_pair(gamma1=1.0, gamma2=2.0))
        with pytest.raises(FrameError, match="round-trip defect"):
            MomentTransform.mixer(2, 0, 1).apply_to_state_space(ss)

    def test_non_hamiltonian_mixing_is_refused(self):
        ss = build_state_space(bs_pair())
        drift = ss.drift.copy()
        drift[0, 3] += 0.1  # antisymmetric a <- adag block has no coupling term
        drift[1, 2] -= 0.1
        drift[2, 1] += 0.1
        drift[3, 0] -= 0.1
        with pytest.raises(FrameError):
            MomentTransform(np.eye(4)).apply_to_state_space(
                StateSpace(drift=drift, input=ss.input, n_modes=2)
            )

    def test_nan_drift_is_refused(self):
        ss = build_state_space(bs_pair())
        drift = ss.drift.copy()
        drift[0, 1] = np.nan
        with pytest.raises(FrameError):
            MomentTransform(np.eye(4)).apply_to_state_space(
                StateSpace(drift=drift, input=ss.input, n_modes=2)
            )

    def test_shape_must_fit_the_baths(self):
        with pytest.raises(DimensionError):
            MomentTransform(np.eye(4)).apply_to_state_space(
                build_state_space(single_mode())
            )


class TestTransformNetwork:
    """A frame change maps the state space and the input moments apart."""

    def test_mode_count_must_match(self):
        with pytest.raises(DimensionError):
            MomentTransform(np.eye(6)).apply_to_state_space(build_state_space(bs_pair()))

    def test_unequal_dampings_cannot_be_mixed(self):
        ss = build_state_space(bs_pair(gamma1=1.0, gamma2=2.0))
        with pytest.raises(FrameError):
            MomentTransform.two_mode_bogoliubov(2, 0, 1, 0.3).apply_to_state_space(ss)
        with pytest.raises(FrameError):
            MomentTransform.mixer(2, 0, 1).apply_to_state_space(ss)

    def test_cross_correlated_frame_inputs_are_refused(self):
        # equal dampings, but hyperbolic mixing of two vacua correlates them
        t = MomentTransform.two_mode_bogoliubov(2, 0, 1, 0.3)
        t.apply_to_state_space(build_state_space(bs_pair()))
        with pytest.raises(NumericsError, match="cross-channel"):
            t.apply_to_inputs(InputMoments.vacuum(2))

    def test_unequal_large_occupancies_are_refused(self):
        with pytest.raises(NumericsError, match="cross-channel"):
            MomentTransform.mixer(2, 0, 1).apply_to_inputs(
                InputMoments.thermal([1e6, 2e6])
            )

    def test_composed_transform_equals_successive_frames(self):
        ss = build_state_space(squeezer_pair(1.0, 0.5))
        vacuum = InputMoments.vacuum(2)
        xi = math.atanh(0.5)
        frame = MomentTransform.bogoliubov(2, 1, xi)
        turn = MomentTransform.rotation(2, 1, math.pi / 2)
        composed = turn.compose(frame)
        stepwise = turn.apply_to_state_space(frame.apply_to_state_space(ss))
        assert np.abs(
            composed.apply_to_state_space(ss).drift - stepwise.drift
        ).max() < 1e-12
        a = composed.apply_to_inputs(vacuum)
        b = turn.apply_to_inputs(frame.apply_to_inputs(vacuum))
        assert np.abs(a.occupancy - b.occupancy).max() < 1e-12
        assert np.abs(a.anomalous - b.anomalous).max() < 1e-12


class TestFamilyBuilder:
    """build_state_spaces is one family build, with the bits of the
    per-spec build."""

    @staticmethod
    def draws(seed, nonpassive):
        from bosonet.suites import random_network

        rng = np.random.default_rng(seed)
        return [random_network(rng, nonpassive=nonpassive) for _ in range(60)]

    @pytest.mark.parametrize("nonpassive", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_draws_of_each_mode_count(self, seed, nonpassive):
        specs = self.draws(seed, nonpassive)
        counts = sorted({spec.n_modes for spec in specs})
        assert counts == [1, 2, 3, 4, 5]
        for n in counts:
            group = [spec for spec in specs if spec.n_modes == n]
            assert_per_spec_bits(build_state_spaces(group), group)
            for spec in group[:3]:
                assert_per_spec_bits(build_state_spaces([spec]), [spec])

    def test_terms_sharing_an_entry_keep_their_order(self):
        # (1 + 1e-16) + 1e-16 rounds to 1, and (1e-16 + 1e-16) + 1 does not
        small, large = [1e-16, 1e-16], [1.0]
        baths = [BathSpec(1.0), BathSpec(0.3)]
        specs = [
            NetworkSpec(2, baths, [beam_splitter(g, 0, 1) for g in small + large]
                        + [detuning(d, 0) for d in small + large]),
            NetworkSpec(2, baths, [beam_splitter(g, 0, 1) for g in large + small]
                        + [detuning(d, 0) for d in large + small]),
            bs_pair(),
            NetworkSpec(2, [BathSpec(0.5), BathSpec(4.0)]),
        ]
        ss = build_state_spaces(specs)
        assert_per_spec_bits(ss, specs)
        assert ss.drift[0, 0, 1] != ss.drift[1, 0, 1]
        assert ss.drift[0, 0, 0] != ss.drift[1, 0, 0]

    def test_zero_amplitudes_leave_the_bits_of_absent_terms(self):
        zero = NetworkSpec(2, [BathSpec(1.0), BathSpec(2.0)], [
            beam_splitter(0.0, 0, 1), two_mode_squeeze(0.0, 0, 1),
            detuning(-0.0, 1), degenerate_parametric(0.0, 0),
        ])
        bare = NetworkSpec(2, [BathSpec(1.0), BathSpec(2.0)])
        assert build_state_spaces([zero]).drift.tobytes() == (
            build_state_spaces([bare]).drift.tobytes()
        )
        assert passive_state_space(build_state_spaces([zero]))


class TestStacks:
    """Stacked state spaces, channel sets and transforms equal their members."""

    SPECS = [
        squeezer_pair(1.0, 0.5),
        bs_pair(0.3, gamma1=2.0),
        NetworkSpec(
            2,
            [BathSpec(1.0), BathSpec(3.0)],
            [detuning(0.4, 0), degenerate_parametric(0.1 + 0.2j, 1)],
        ),
    ]

    def test_build_state_spaces_equals_per_spec_builds(self):
        stacked = build_state_spaces(self.SPECS)
        assert stacked.drift.shape == stacked.input.shape == (3, 4, 4)
        for k, spec in enumerate(self.SPECS):
            single = build_state_space(spec)
            np.testing.assert_array_equal(stacked.drift[k], single.drift)
            np.testing.assert_array_equal(stacked.input[k], single.input)
            np.testing.assert_array_equal(stacked.gammas[k], single.gammas)
        assert not passive_state_space(stacked)
        assert passive_state_space(build_state_spaces([bs_pair(), bs_pair(0.7)]))

    def test_mode_counts_must_agree(self):
        with pytest.raises(DimensionError):
            build_state_spaces([single_mode(), bs_pair()])

    def test_stacked_channel_sets(self):
        occupancy = [[0.0, 1.5], [2.0, 0.25]]
        anomalous = [[0.0, 0.5j], [0.1, 0.0]]
        stacked = InputMoments(occupancy, anomalous)
        assert stacked.n_channels == 2
        for k in range(2):
            single = InputMoments(occupancy[k], anomalous[k])
            np.testing.assert_array_equal(stacked.noise_matrix()[k], single.noise_matrix())
        with pytest.raises(ValidationError):
            InputMoments([[0.0, 1.0], [np.nan, 1.0]], np.zeros((2, 2)))
        with pytest.raises(DimensionError):
            InputMoments(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))

    def test_each_unphysical_channel_warns(self):
        with pytest.warns(UserWarning, match="input channel 1") as record:
            InputMoments([[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.5]])
        assert len(record) == 1

    def test_stacked_transform_equals_its_members(self):
        xis = [0.0, 0.3, 1.1]
        stacked = MomentTransform.rotation(2, 1, math.pi / 2).compose(
            MomentTransform.bogoliubov(2, 1, xis)
        )
        ss = build_state_spaces([squeezer_pair(1.0, g_plus) for g_plus in (0.0, 0.2, 0.6)])
        inputs = InputMoments([[0.0, 0.5], [1.0, 0.0], [0.2, 0.2]], np.zeros((3, 2)))
        frames = stacked.apply_to_state_space(ss)
        mapped = stacked.apply_to_inputs(inputs)
        for k, xi in enumerate(xis):
            single = MomentTransform.rotation(2, 1, math.pi / 2).compose(
                MomentTransform.bogoliubov(2, 1, xi)
            )
            np.testing.assert_array_equal(stacked.matrix[k], single.matrix)
            member = StateSpace(drift=ss.drift[k], input=ss.input[k], n_modes=2)
            np.testing.assert_array_equal(
                frames.drift[k], single.apply_to_state_space(member).drift
            )
            moments = single.apply_to_inputs(InputMoments(inputs.occupancy[k], inputs.anomalous[k]))
            np.testing.assert_array_equal(mapped.occupancy[k], moments.occupancy)
            np.testing.assert_array_equal(mapped.anomalous[k], moments.anomalous)
        for xi in (0.2, [0.1, 0.5]):
            two = MomentTransform.two_mode_bogoliubov(3, 1, 2, xi)
            assert two.matrix.shape == np.shape(xi) + (6, 6)

    def test_every_member_of_a_stacked_transform_is_validated(self):
        good = MomentTransform.bogoliubov(1, 0, 0.5).matrix
        bad = good.copy()
        bad[0, 0] *= 1.01
        with pytest.raises(ValidationError):
            MomentTransform(np.stack([good, bad]))

    def test_first_member_without_a_frame_raises(self):
        # mixing channels of unequal damping leaves the second member no frame
        ss = build_state_spaces([bs_pair(), bs_pair(gamma2=2.0)])
        with pytest.raises(FrameError, match="round-trip defect"):
            MomentTransform.mixer(2, 0, 1).apply_to_state_space(ss)


class TestOverflowingFrames:
    def test_bogoliubov_past_cosh_range(self):
        from bosonet.errors import NumericsError
        from bosonet.network import MomentTransform

        for build in (
            lambda xi: MomentTransform.bogoliubov(2, 1, xi),
            lambda xi: MomentTransform.two_mode_bogoliubov(3, 1, 2, xi),
        ):
            with pytest.raises(NumericsError, match="xi = 711 overflow"):
                build(711.0)
            with pytest.raises(NumericsError, match="xi = 711 overflow"):
                build([0.5, 711.0])
            single, stack = build(0.7), build([0.3, 0.7])
            assert single.matrix.tobytes() == stack.matrix[1].tobytes()

    def test_metric_check_past_float_range(self):
        # cosh 400 is a float, but the metric check squares it: inf <= 1e-10
        # inf would pass, so the overflow is refused (RuntimeWarnings are
        # errors in this suite, so none may be printed on the way)
        for build in (
            lambda: MomentTransform.bogoliubov(2, 1, 400.0),
            lambda: MomentTransform.two_mode_bogoliubov(3, 1, 2, [0.5, 400.0]),
        ):
            with pytest.raises(NumericsError, match="up to 2.61e\\+173 overflow the commutator"):
                build()
        # each factor passes at xi = 354, their product (xi = 708) does not
        half = MomentTransform.bogoliubov(1, 0, 354.0)
        with pytest.raises(NumericsError, match="overflow the commutator metric check"):
            half.compose(half)

    def test_non_finite_entries_are_refused(self):
        for bad in (math.inf, math.nan):
            m = np.eye(2, dtype=complex)
            m[0, 0] = bad
            with pytest.raises(ValidationError, match="entries must be finite"):
                MomentTransform(m)

    def test_frame_drift_past_float_range(self):
        t = MomentTransform.two_mode_bogoliubov(2, 0, 1, 5.0)
        huge = NetworkSpec(2, [BathSpec(1.0)] * 2, [beam_splitter(1e306, 0, 1)])
        with pytest.raises(NumericsError, match="T A T\\^-1 overflows"):
            t.apply_to_state_space(build_state_space(huge))
        with pytest.raises(NumericsError, match="T A T\\^-1 overflows"):
            t.apply_to_state_space(build_state_spaces([bs_pair(), huge]))


class TestStateSpaceMembers:
    def test_members_are_the_one_drift_state_spaces(self):
        from bosonet.network import build_state_spaces

        specs = [
            NetworkSpec(2, (BathSpec(1.0), BathSpec(g)), (beam_splitter(0.5, 0, 1),))
            for g in (0.5, 2.0)
        ]
        members = build_state_spaces(specs).members()
        assert len(members) == 2
        for member, spec in zip(members, specs):
            single = build_state_space(spec)
            assert member.n_modes == 2
            assert member.drift.tobytes() == single.drift.tobytes()
            assert member.input.tobytes() == single.input.tobytes()

    def test_a_single_state_space_has_no_members(self):
        from bosonet.errors import DimensionError

        single = build_state_space(
            NetworkSpec(2, (BathSpec(1.0), BathSpec(0.5)), (beam_splitter(0.5, 0, 1),))
        )
        with pytest.raises(DimensionError, match="stack of drifts"):
            single.members()
