import math

import numpy as np
import pytest

from bosonet.errors import DimensionError, NumericsError, StabilityError, ValidationError
from bosonet.linalg import (
    TOL,
    eigenvalues,
    golden_section_max,
    golden_section_min,
    hermitian_defect,
    integrate_spectrum,
    is_stable,
    require_stable,
    solve_lyapunov,
)

# doubled drift of a single damped mode with a marginal parametric drive:
# one quadrature relaxes at rate gamma + eta, the other not at all
MARGINAL_DRIFT = np.array([[-0.5, 0.5], [0.5, -0.5]])

# two-mode squeezer with no beam-splitter part, gamma1 = gamma2 = 1:
# eigenvalue real parts -gamma/2 +- g_plus
UNSTABLE_DRIFT = np.array(
    [
        [-0.5, 0.0, 0.0, -1.0j],
        [0.0, -0.5, -1.0j, 0.0],
        [0.0, 1.0j, -0.5, 0.0],
        [1.0j, 0.0, 0.0, -0.5],
    ]
)


class TestEigenvalues:
    def test_scaled_identity(self):
        spectrum = eigenvalues(-0.5 * np.eye(2))
        assert np.allclose(spectrum, [-0.5, -0.5])

    def test_marginal_parametric_mode(self):
        spectrum = eigenvalues(MARGINAL_DRIFT)
        assert abs(spectrum[0].real) < 1e-10
        assert abs(spectrum[1] - (-1.0)) < 1e-10

    def test_unstable_squeezer_real_parts(self):
        reals = sorted(eigenvalues(UNSTABLE_DRIFT).real)
        assert np.allclose(reals, [-1.5, -1.5, 0.5, 0.5], atol=1e-10)

    def test_sorted_by_descending_real_part(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        reals = eigenvalues(m).real
        assert np.all(np.diff(reals) <= 1e-12)

    def test_multiplicity_preserved(self):
        assert len(eigenvalues(np.diag([-1.0, -1.0, -2.0]))) == 3

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            eigenvalues(np.zeros((2, 3)))


class TestIsStable:
    def test_damped_identity(self):
        assert is_stable(-0.5 * np.eye(2))

    def test_zero_matrix_is_marginal(self):
        assert not is_stable(np.zeros((2, 2)))

    def test_unstable_squeezer(self):
        assert not is_stable(UNSTABLE_DRIFT)

    def test_margin(self):
        assert is_stable(-0.5 * np.eye(2), margin=0.4)
        assert not is_stable(-0.5 * np.eye(2), margin=0.6)

    def test_require_stable_names_eigenvalue(self):
        with pytest.raises(StabilityError) as err:
            require_stable(UNSTABLE_DRIFT, context="test drift")
        assert err.value.eigenvalue is not None
        assert err.value.eigenvalue.real >= 0.0


class TestSolveLyapunov:
    def test_decoupled_identity(self):
        w = solve_lyapunov(-0.5 * np.eye(2), np.eye(2))
        assert np.allclose(w, np.eye(2), atol=1e-12)

    def test_beam_splitter_closed_form(self):
        a = np.array([[-0.5, -0.5j], [-0.5j, -0.5]])
        q = np.diag([0.0, 1.0])
        w = solve_lyapunov(a, q)
        expected = np.array([[0.25, -0.25j], [0.25j, 0.75]])
        assert np.abs(w - expected).max() < 1e-12

    def test_diagonal_case(self):
        w = solve_lyapunov(np.diag([-1.0, -2.0]), np.diag([2.0, 4.0]))
        assert np.allclose(w, np.eye(2), atol=1e-12)

    def test_unstable_rejected_with_eigenvalue(self):
        with pytest.raises(StabilityError) as err:
            solve_lyapunov(np.eye(2), np.eye(2))
        assert err.value.eigenvalue is not None

    def test_non_hermitian_q_rejected(self):
        with pytest.raises(ValidationError):
            solve_lyapunov(-np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_nan_q_rejected(self):
        q = np.eye(2)
        q[0, 0] = np.nan
        with pytest.raises(ValidationError):
            solve_lyapunov(-np.eye(2), q)

    def test_residual_is_judged_against_operand_size(self):
        # a strongly non-normal drift in a random basis: W reaches 1e6, so
        # an accurate solve leaves a raw residual far above 1e-10
        rng = np.random.default_rng(1)
        u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        j = np.diag([-0.5, -0.5, -1.0, -1.0]).astype(complex)
        j[0, 1] = j[2, 3] = 1e3
        a = u @ j @ u.conj().T
        q = np.eye(4)
        w = solve_lyapunov(a, q)
        residual = np.abs(a @ w + w @ a.conj().T + q).max()
        assert residual > 1e-10
        assert residual <= 1e-15 * 2.0 * np.abs(a).max() * np.abs(w).max()

    def test_residual_and_hermiticity_on_random_stable_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            dim = int(rng.integers(1, 11))
            raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            shift = max(eigenvalues(raw).real.max(), 0.0) + 0.5
            a = raw - shift * np.eye(dim)
            h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            q = h + h.conj().T
            w = solve_lyapunov(a, q)
            residual = np.abs(a @ w + w @ a.conj().T + q).max()
            assert residual <= 1e-10 * max(1.0, np.abs(q).max())
            assert hermitian_defect(w) < 1e-12 * max(1.0, np.abs(w).max())

    def test_linearity(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4)) - 3.0 * np.eye(4)
        h1 = rng.normal(size=(4, 4))
        h2 = rng.normal(size=(4, 4))
        q1 = h1 + h1.T
        q2 = h2 + h2.T
        combined = solve_lyapunov(a, q1 + q2)
        separate = solve_lyapunov(a, q1) + solve_lyapunov(a, q2)
        assert np.abs(combined - separate).max() < 1e-10


class TestIntegrateSpectrum:
    def test_lorentzian_normalization(self):
        value = integrate_spectrum(lambda w: 1.0 / (0.25 + w * w))
        assert abs(value - 1.0) < TOL.quadrature_abs

    def test_zero_integrand(self):
        assert integrate_spectrum(lambda w: np.zeros_like(w)) == 0.0

    def test_matrix_valued_entrywise(self):
        def f(w):
            out = np.zeros((w.size, 2, 2))
            out[:, 0, 0] = 1.0 / (0.25 + w * w)
            out[:, 1, 1] = 1.0 / (4.0 + w * w)
            return out

        value = integrate_spectrum(f)
        assert abs(value[0, 0] - 1.0) < 1e-8
        assert abs(value[1, 1] - 0.25) < 1e-8
        assert abs(value[0, 1]) < 1e-12

    def test_narrow_displaced_resonance_with_breakpoints(self):
        # half-width 0.05 centered at omega = 40; closed form 1/(2h)
        h = 0.05
        value = integrate_spectrum(
            lambda w: 1.0 / (h * h + (w - 40.0) ** 2),
            breakpoints=[40.0 - 3 * h, 40.0 - h, 40.0, 40.0 + h, 40.0 + 3 * h],
        )
        assert abs(value - 1.0 / (2.0 * h)) < 1e-6

    def test_nonconvergence_carries_estimate(self):
        with pytest.raises(NumericsError) as err:
            integrate_spectrum(
                lambda w: 1.0 / (0.25 + w * w), abs_tol=1e-15, max_panels=8
            )
        assert err.value.estimate is not None


class TestGoldenSection:
    def test_max_of_concave_quadratic(self):
        x, fx = golden_section_max(lambda t: -(t - 1.3) ** 2 + 2.0, 0.0, 3.0)
        assert abs(x - 1.3) < 1e-5
        assert abs(fx - 2.0) < 1e-10

    def test_min_of_convex_quadratic(self):
        x, fx = golden_section_min(lambda t: (t + 0.4) ** 2 - 1.0, -2.0, 2.0)
        assert abs(x + 0.4) < 1e-5
        assert abs(fx + 1.0) < 1e-10
