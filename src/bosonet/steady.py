"""Steady-state second moments and quadrature variances.

The stationary covariance in the doubled basis solves A V + V A^H +
D N D^H = 0 with N the symmetrized input noise matrix. Quadrature
variances for X(theta) = (a exp(-i theta) + adag exp(i theta)) / sqrt 2
follow from the per-mode normal and anomalous second moments; the
minimizing angle has the closed form used below.

variance_decomposition splits a mode's variance over input channels
using the commutator-budget shares. That split is exact for thermal
inputs into passive networks, and for anomalous inputs only when the
doubled drift is real (then the phase-sensitive transfer collapses onto
the same shares); outside those regimes it refuses rather than
approximates.

steady_covariance, min_variances, quadrature_variances,
CovarianceState.mode_block, CovarianceState.quadrature_matrix and
variance_decomposition also take stacks (see ``network``): every guard
runs for every member, and the first failing one raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ApplicabilityError, DimensionError, NumericsError, ValidationError
from .linalg import LYAPUNOV_RESIDUAL_TOL, first_failure, solve_lyapunov
from .network import InputMoments, StateSpace, mirror_defect, metric, passive_state_space
from .budget import CommutatorBudget

_HERMITICITY_LEAK = 1e-9
# Largest doubled-structure defect of a steady covariance, relative to
# max(1, ||V||_max). Measured: at most 1.7e-9 in the tests (two modes at
# xi = 5, G = 50) and 1.2e-13 in the benchmark, against 2e-4 for a
# near-marginal two-mode drift at damping 1e-10 whose variances are 1.3% off.
_STRUCTURE_LIMIT = 1e-6
# Largest violation of the uncertainty relation V + sigma/2 >= 0, relative
# to max(1, ||V||_max), that a steady covariance may show as roundoff.
# Measured: at most 6.8e-16 in the tests and 1.2e-16 in the benchmark.
_BONA_FIDE_LIMIT = 1e-9


@dataclass(frozen=True, eq=False)
class CovarianceState:
    """Stationary symmetrized covariance in the doubled basis; ``v`` may be
    a stack (P, 2N, 2N), which nu and mu do not take."""

    v: np.ndarray
    n_modes: int

    def nu(self, mode: int) -> float:
        """Symmetrized number moment <{a, adag}>/2 of one mode."""
        self._check(mode)
        return float(self.v[mode, mode].real)

    def mu(self, mode: int) -> complex:
        """Anomalous moment <a a> of one mode."""
        self._check(mode)
        return complex(self.v[mode, self.n_modes + mode])

    def mode_block(self, mode: int) -> np.ndarray:
        """2x2 (X, Y) covariance of one mode at theta = 0 (of each member
        of a stack, shape (P, 2, 2))."""
        self._check(mode)
        # [()] makes numpy scalars of a single state's 0-d entries
        nu = self.v[..., mode, mode].real[()]
        mu = self.v[..., mode, self.n_modes + mode][()]
        block = np.empty(np.shape(nu) + (2, 2))
        block[..., 0, 0], block[..., 1, 1] = nu + mu.real, nu - mu.real
        block[..., 0, 1] = block[..., 1, 0] = mu.imag
        return block

    def quadrature_matrix(self) -> np.ndarray:
        """Full 2N x 2N real covariance in the (X_1..X_N, Y_1..Y_N) basis;
        the imaginary leak must stay within 1e-9 max(1, ||v||_max), as
        roundoff grows with the occupancies (NaN fails)."""
        n = self.n_modes
        eye = np.eye(n)
        u = np.block([[eye, eye], [-1j * eye, 1j * eye]]) / math.sqrt(2.0)
        vq = u @ self.v @ u.conj().T
        leak = np.abs(vq.imag).max(axis=(-2, -1))
        scale = np.maximum(1.0, np.abs(self.v).max(axis=(-2, -1)))
        failed = first_failure(leak <= _HERMITICITY_LEAK * scale)
        if failed is not None:
            raise NumericsError(
                "quadrature covariance picked up an imaginary part",
                estimate=float(leak.flat[failed]),
            )
        return vq.real

    def _check(self, mode: int) -> None:
        if not 0 <= mode < self.n_modes:
            raise DimensionError(f"mode {mode} out of range for {self.n_modes} modes")


def steady_covariance(ss: StateSpace, inputs: InputMoments) -> CovarianceState:
    """Solve the stationary Lyapunov equation for the given inputs.

    The exact solution has the doubled structure V[n:, n:] = conj V[:n, :n]
    and V[n:, :n] = conj V[:n, n:], which the solve does not impose. A
    defect above ``_STRUCTURE_LIMIT`` max(1, ||V||_max) means the forward
    error of an ill-conditioned drift has swamped the answer, and raises
    NumericsError with the relative defect as estimate (NaN fails). V is
    never symmetrized to hide it.

    A physical state also obeys the uncertainty relation: <xi xi^H> =
    V + sigma/2 is positive semidefinite (its least eigenvalue is 0 for
    vacuum and for pure squeezed states). A least eigenvalue below
    -``_BONA_FIDE_LIMIT`` max(1, ||V||_max) raises NumericsError with that
    eigenvalue as estimate: the inputs break the thermal bound
    |m|^2 <= n (n+1), or the solve lost the answer.
    """
    if inputs.n_channels != ss.n_modes:
        raise DimensionError(
            f"{inputs.n_channels} input channels for {ss.n_modes} modes"
        )
    q = ss.input @ inputs.noise_matrix() @ ss.input.conj().swapaxes(-2, -1)
    if ss.drift.ndim == 3:  # a stack of drifts takes one source each
        q = np.broadcast_to(q, ss.drift.shape)
    v = solve_lyapunov(ss.drift, q)
    n = ss.n_modes
    scale = np.maximum(1.0, np.abs(v).max(axis=(-2, -1)))
    defect = mirror_defect(v) / scale
    failed = first_failure(defect <= _STRUCTURE_LIMIT)
    if failed is not None:
        worst = float(defect.flat[failed])
        raise NumericsError(
            f"steady covariance breaks the doubled structure by {worst:.3e} "
            f"(limit {_STRUCTURE_LIMIT:.0e}); the drift is too ill-conditioned",
            estimate=worst,
        )
    lowest = np.linalg.eigvalsh(v + 0.5 * metric(n))[..., 0]
    failed = first_failure(lowest >= -_BONA_FIDE_LIMIT * scale)
    if failed is not None:
        worst = float(lowest.flat[failed])
        raise NumericsError(
            f"steady covariance violates the uncertainty relation: least "
            f"eigenvalue of V + sigma/2 is {worst:.3e}",
            estimate=worst,
        )
    return CovarianceState(v=v, n_modes=ss.n_modes)


@dataclass(frozen=True)
class QuadratureVariance:
    mode: int
    theta: float
    value: float


def quadrature_variance(state: CovarianceState, mode: int, theta: float) -> float:
    """Variance of X_mode(theta) from the mode's 2x2 quadrature block:
    the one-angle call of quadrature_variances."""
    return float(quadrature_variances(state, mode, [theta])[0])


def _require_finite_angle(theta) -> None:
    if not math.isfinite(theta):
        raise ValidationError(f"quadrature angle must be finite, got {theta}")


def quadrature_variances(state: CovarianceState, mode: int, thetas) -> np.ndarray:
    """quadrature_variance at each angle of ``thetas``, shape (...,
    len(thetas)) for a state or a stack of them, with the cosines and
    sines from the math module. A non-finite angle raises
    ValidationError."""
    for theta in thetas:
        _require_finite_angle(theta)
    block = state.mode_block(mode)[..., None]
    c = np.array([math.cos(theta) for theta in thetas])
    s = np.array([math.sin(theta) for theta in thetas])
    return c * c * block[..., 0, 0, :] + s * s * block[..., 1, 1, :] + 2 * s * c * block[..., 0, 1, :]


def min_variances(state: CovarianceState, mode: int) -> np.ndarray:
    """nu - |mu|, the least variance over angle of one mode's quadrature
    (see min_quadrature_variance), for a state or each state of a stack."""
    state._check(mode)
    mu = state.v[..., mode, state.n_modes + mode]
    # np.hypot has the bits of abs() of a Python complex
    return state.v[..., mode, mode].real - np.hypot(mu.real, mu.imag)


def min_quadrature_variance(state: CovarianceState, mode: int) -> QuadratureVariance:
    """The quietest quadrature of one mode.

    The variance over angle is nu + |mu| cos(2 theta + arg mu), so the
    minimum nu - |mu| sits where the cosine hits -1; the angle is
    reported in [0, pi). A mode whose |mu| is at most
    ``LYAPUNOV_RESIDUAL_TOL * nu`` is phase-insensitive to solver
    accuracy, and its angle is reported as 0 rather than read from the
    phase of roundoff.
    """
    nu = state.nu(mode)
    mu = state.mu(mode)
    if abs(mu) <= LYAPUNOV_RESIDUAL_TOL * nu:
        theta = 0.0
    else:
        theta = 0.5 * math.atan2(-mu.imag, -mu.real) % math.pi
    return QuadratureVariance(
        mode=mode, theta=float(theta), value=float(min_variances(state, mode))
    )


def variance_decomposition(
    ss: StateSpace,
    budget: CommutatorBudget,
    inputs: InputMoments,
    theta: float = 0.0,
) -> np.ndarray:
    """All mode variances at one angle as I-weighted input sums.

    Returns the array of Delta X_i(theta)^2 computed as
    sum_j I_ij (n_j + 1/2 + Re(m_j exp(-2 i theta))), which must match
    the covariance route when it applies (one row per member of a stack).

    Exactness requires either a passive network with thermal inputs, or
    a real doubled drift when anomalous inputs are present; a drift with
    a NaN imaginary part counts as not real. A non-finite ``theta``
    raises ValidationError.
    """
    if inputs.n_channels != ss.n_modes:
        raise DimensionError("input moments do not match the network size")
    _require_finite_angle(theta)
    anomalous_present = np.abs(inputs.anomalous).max(axis=-1, initial=0.0) > 1e-14
    if not passive_state_space(ss):
        raise ApplicabilityError(
            "the channel split holds for passive networks only; re-express the "
            "dynamics in a frame where the drift is passive first"
        )
    drift_imag = np.abs(ss.drift.imag).max(axis=(-2, -1))
    drift_scale = np.maximum(1.0, np.abs(ss.drift).max(axis=(-2, -1)))
    if np.any(anomalous_present & ~(drift_imag <= 1e-12 * drift_scale)):  # NaN fails
        raise ApplicabilityError(
            "anomalous inputs split exactly only when the drift is real; "
            "rotate the mode phases into that gauge first"
        )
    noise = (
        inputs.occupancy
        + 0.5
        + (inputs.anomalous * np.exp(-2j * theta)).real
    )
    return (budget.transfer @ noise[..., None])[..., 0]
