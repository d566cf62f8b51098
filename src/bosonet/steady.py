"""Steady-state second moments and quadrature variances.

The stationary covariance in the doubled basis solves A V + V A^H +
D N D^H = 0 with N the symmetrized input noise matrix. Quadrature
variances for X(theta) = (a exp(-i theta) + adag exp(i theta)) / sqrt 2
follow from the per-mode normal and anomalous second moments; the
minimizing angle has the closed form used below.

The exact V is its own mirror Sigma_x conj(V) Sigma_x, but the solve
does not impose that. Every per-mode observable (nu, mu, mode_block,
min_variances, quadrature_variances, min_quadrature_variance) comes from
one read, CovarianceState._moments, which takes the mean of each entry
and its mirror: the doubled quadratic form that defines a quadrature
variance, from which the mirror-odd part of V's forward error drops out.
V itself is kept as solved.

With thermal inputs V is linear in the occupancies: V = sum_j (n_j +
1/2) S_j, where the channel kernel S_j solves the Lyapunov equation of
the Hermitian source D (e_j e_j^H + e_{N+j} e_{N+j}^H) D^H and depends
on the drift alone. thermal_covariance reads V that way: the N kernels
are solved, with their residual checks, once per state space, which
keeps them (StateSpace._thermal_kernels) for every later read, and each
occupancy row only sums them. That is how a Duan grid (scenarios._duan)
reads V, for the rows of one scheme or a stack of schemes. Each source
is its own mirror, as V's is, so the summed V's mirror defect still
witnesses the solve's error, and every row passes the structure and
bona-fide guards of steady_covariance (one helper, _guarded_state, runs
them for both) and, when read, the imaginary-leak guard of
quadrature_matrix. The residual check runs per kernel, not per row.

variance_decomposition splits a mode's variance over input channels
using the commutator-budget shares. That split is exact for thermal
inputs into passive networks, and for anomalous inputs only when the
doubled drift is real (then the phase-sensitive transfer collapses onto
the same shares); outside those regimes it refuses rather than
approximates.

steady_covariance, thermal_covariance, min_variances,
quadrature_variances, CovarianceState.mode_block,
CovarianceState.quadrature_matrix and variance_decomposition also take
stacks (see ``network``): every guard runs for every member, and the
first failing one raises. CovarianceState.nu, CovarianceState.mu,
min_quadrature_variance and quadrature_variance read one state and
refuse a stack with DimensionError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ApplicabilityError, DimensionError, NumericsError, ValidationError
from .linalg import LYAPUNOV_RESIDUAL_TOL, first_failure
from .network import InputMoments, StateSpace, mirror_defect, metric, passive_state_space
from .budget import CommutatorBudget

# Largest doubled-structure defect of a steady covariance, relative to
# max(1, ||V||_max). Measured: at most 7.5e-7 in the tests (the fig1 sweep
# at xi = 7.5, G = 15.8), 6.1e-8 where they check the closed form (xi = 7,
# G = 5) and 1.2e-13 in the benchmark, against 2e-4 for a near-marginal
# two-mode drift at damping 1e-10 whose variances are 1.3% off. It also
# bounds the imaginary leak of quadrature_matrix, which is the image of
# that defect.
_STRUCTURE_LIMIT = 1e-6
# Largest violation of the uncertainty relation V + sigma/2 >= 0, relative
# to max(1, ||V||_max), that a steady covariance may show as roundoff.
# Measured: at most 6.8e-16 in the tests and 1.2e-16 in the benchmark.
_BONA_FIDE_LIMIT = 1e-9


@dataclass(frozen=True, eq=False)
class CovarianceState:
    """Stationary symmetrized covariance in the doubled basis; ``v`` may be
    a stack (P, 2N, 2N), which nu and mu refuse with DimensionError (as
    do min_quadrature_variance and quadrature_variance). ``v`` is kept as
    solved; each per-mode read is the mirror mean of _moments."""

    v: np.ndarray
    n_modes: int

    def nu(self, mode: int) -> float:
        """Symmetrized number moment <{a, adag}>/2 of one mode."""
        return float(_single(self._moments(mode)[0], "nu"))

    def mu(self, mode: int) -> complex:
        """Anomalous moment <a a> of one mode."""
        return complex(_single(self._moments(mode)[1], "mu"))

    def mode_block(self, mode: int) -> np.ndarray:
        """2x2 (X, Y) covariance of one mode at theta = 0 (of each member
        of a stack, shape (P, 2, 2))."""
        nu, mu = self._moments(mode)
        block = np.empty(np.shape(nu) + (2, 2))
        block[..., 0, 0], block[..., 1, 1] = nu + mu.real, nu - mu.real
        block[..., 0, 1] = block[..., 1, 0] = mu.imag
        return block

    def quadrature_matrix(self) -> np.ndarray:
        """Full 2N x 2N real covariance in the (X_1..X_N, Y_1..Y_N) basis.

        With u the quadrature map, conj(u V u^H) = u M(V) u^H for the
        mirror M(V) = Sigma_x conj(V) Sigma_x, so the real part returned
        is u [(V + M(V)) / 2] u^H, the mirror-mean read of _moments, and
        the imaginary leak is the image of V's mirror-odd part, at most
        its defect. The leak must therefore stay within the structure
        limit of steady_covariance, _STRUCTURE_LIMIT max(1, ||v||_max)
        (NaN fails): every state that steady_covariance accepts answers."""
        n = self.n_modes
        eye = np.eye(n)
        u = np.block([[eye, eye], [-1j * eye, 1j * eye]]) / math.sqrt(2.0)
        vq = u @ self.v @ u.conj().T
        leak = np.abs(vq.imag).max(axis=(-2, -1))
        scale = np.maximum(1.0, np.abs(self.v).max(axis=(-2, -1)))
        failed = first_failure(leak <= _STRUCTURE_LIMIT * scale)
        if failed is not None:
            raise NumericsError(
                "quadrature covariance picked up an imaginary part",
                estimate=float(leak.flat[failed]),
            )
        return vq.real

    def _moments(self, mode: int) -> tuple[np.ndarray, np.ndarray]:
        """(nu, mu) of one mode, numpy scalars for a state or arrays (P,)
        for a stack: the only read of V per mode. Each is the mean of an
        entry and its mirror, nu = Re(V[j, j] + V[N+j, N+j]) / 2 and
        mu = (V[j, N+j] + conj V[N+j, j]) / 2, so the mirror-odd part of
        V's forward error, which is not physical, drops out exactly as it
        does from the doubled form u V u^H on (X_j, Y_j)."""
        if not 0 <= mode < self.n_modes:
            raise DimensionError(f"mode {mode} out of range for {self.n_modes} modes")
        j, k = mode, self.n_modes + mode
        # [()] makes numpy scalars of a single state's 0-d entries
        nu = 0.5 * (self.v[..., j, j].real + self.v[..., k, k].real)[()]
        mu = 0.5 * (self.v[..., j, k] + self.v[..., k, j].conj())[()]
        return nu, mu


def _single(value, reader: str):
    """The ``value`` that ``reader`` read off one state: the one check of
    nu, mu, min_quadrature_variance and quadrature_variance. A value read
    off a stack of states (an array) raises DimensionError."""
    if value.ndim:
        raise DimensionError(
            f"{reader} reads one state, not a stack of {value.size}; "
            "min_variances, quadrature_variances and mode_block take stacks"
        )
    return value


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
    return _guarded_state(ss._lyapunov.solve(q), ss.n_modes)


def thermal_covariance(ss: StateSpace, inputs: InputMoments) -> CovarianceState:
    """steady_covariance for thermal inputs, read off the channel kernels.

    With no anomalous moments V = sum_j (n_j + 1/2) S_j, where S_j solves
    the Lyapunov equation of the Hermitian source
    D (e_j e_j^H + e_{N+j} e_{N+j}^H) D^H and depends on the drift alone
    (StateSpace._thermal_kernels: N sources, solved and residual-checked
    once per state space and kept). A state space of one drift serves a
    stack of P occupancy rows (P, N); a stack of P drifts takes one row,
    or one row per drift. Each V is summed channel by channel, so a row
    has the bits of its lone call, and it passes the structure and
    bona-fide guards of steady_covariance (the first failing row raises
    its own error). It agrees with steady_covariance's solve to roundoff.
    Anomalous inputs raise ApplicabilityError.
    """
    if inputs.n_channels != ss.n_modes:
        raise DimensionError(
            f"{inputs.n_channels} input channels for {ss.n_modes} modes"
        )
    if np.any(inputs.anomalous):
        raise ApplicabilityError("the channel kernels take thermal inputs only")
    try:
        np.broadcast_shapes(inputs.occupancy.shape[:-1], ss.drift.shape[:-2])
    except ValueError:
        raise DimensionError(
            f"{inputs.occupancy.shape[:-1]} occupancy rows for drifts of shape "
            f"{ss.drift.shape}"
        ) from None
    kernels = ss._thermal_kernels
    weights = inputs.occupancy + 0.5
    v = weights[..., 0, None, None] * kernels[..., 0, :, :]
    for j in range(1, ss.n_modes):
        v = v + weights[..., j, None, None] * kernels[..., j, :, :]
    return _guarded_state(v, ss.n_modes)


def _guarded_state(v: np.ndarray, n_modes: int) -> CovarianceState:
    """The state of the steady covariance v (or a stack of them) once it
    passes the structure and bona-fide guards of steady_covariance, each
    over every member; the first failing member of a guard raises."""
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
    lowest = np.linalg.eigvalsh(v + 0.5 * metric(n_modes))[..., 0]
    failed = first_failure(lowest >= -_BONA_FIDE_LIMIT * scale)
    if failed is not None:
        worst = float(lowest.flat[failed])
        raise NumericsError(
            f"steady covariance violates the uncertainty relation: least "
            f"eigenvalue of V + sigma/2 is {worst:.3e}",
            estimate=worst,
        )
    return CovarianceState(v=v, n_modes=n_modes)


@dataclass(frozen=True)
class QuadratureVariance:
    mode: int
    theta: float
    value: float


def quadrature_variance(state: CovarianceState, mode: int, theta: float) -> float:
    """Variance of X_mode(theta) from the mode's 2x2 quadrature block:
    the one-angle call of quadrature_variances."""
    return float(_single(quadrature_variances(state, mode, [theta])[..., 0], "quadrature_variance"))


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
    nu, mu = state._moments(mode)
    # np.hypot has the bits of abs() of a Python complex
    return nu - np.hypot(mu.real, mu.imag)


def min_quadrature_variance(state: CovarianceState, mode: int) -> QuadratureVariance:
    """The quietest quadrature of one mode.

    The variance over angle is nu + |mu| cos(2 theta + arg mu), so the
    minimum nu - |mu| sits where the cosine hits -1; the angle is
    reported in [0, pi). A mode whose |mu| is at most
    ``LYAPUNOV_RESIDUAL_TOL * nu`` is phase-insensitive to solver
    accuracy, and its angle is reported as 0 rather than read from the
    phase of roundoff.
    """
    nu, mu = state._moments(mode)
    nu, mu = float(_single(nu, "min_quadrature_variance")), complex(mu)
    if abs(mu) <= LYAPUNOV_RESIDUAL_TOL * nu:
        theta = 0.0
    else:
        theta = 0.5 * math.atan2(-mu.imag, -mu.real) % math.pi
    return QuadratureVariance(mode=mode, theta=float(theta), value=nu - abs(mu))


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
