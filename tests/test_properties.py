"""Property tests of the frame-change path, of passivity, of the
commutator budget and of the thermal channel kernels over random network
draws, and of the spectral route over random Lorentzians."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bosonet.budget import budget_via_spectrum, compute_budget, verify_sum_rules
from bosonet.errors import FrameError, NumericsError
from bosonet.network import (
    BathSpec,
    InputMoments,
    MomentTransform,
    NetworkSpec,
    build_state_space,
    degenerate_parametric,
    detuning,
    is_passive,
    passive_state_space,
)
from bosonet.scenarios import three_mode_budget
from bosonet.steady import min_quadrature_variance, steady_covariance, thermal_covariance
from bosonet.suites import random_network, random_three_mode

PROPERTY_SETTINGS = settings(
    max_examples=60, deadline=None, derandomize=True, database=None
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def draw_network(seed, nonpassive):
    rng = np.random.default_rng(seed)
    return random_network(rng, max_modes=4, nonpassive=nonpassive)


def physical_covariance(spec):
    return steady_covariance(build_state_space(spec), InputMoments.from_baths(spec)).v


@PROPERTY_SETTINGS
@given(seed=seeds, nonpassive=st.booleans())
def test_identity_transform_returns_the_built_drift(seed, nonpassive):
    # the projection onto the one-bath-per-mode form leaves a built drift
    # bit for bit as it is
    spec = draw_network(seed, nonpassive)
    ss = build_state_space(spec)
    identity = MomentTransform(np.eye(2 * spec.n_modes))
    assert np.array_equal(identity.apply_to_state_space(ss).drift, ss.drift)


@PROPERTY_SETTINGS
@given(
    seed=seeds,
    nonpassive=st.booleans(),
    mode_pick=st.integers(min_value=0, max_value=3),
    xi=st.floats(min_value=-1.5, max_value=1.5),
    phi=st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_frame_covariance_is_the_congruence_of_the_physical_one(
    seed, nonpassive, mode_pick, xi, phi
):
    spec = draw_network(seed, nonpassive)
    mode = mode_pick % spec.n_modes
    v = physical_covariance(spec)
    t_frame = MomentTransform.bogoliubov(spec.n_modes, mode, xi)
    t_rot = MomentTransform.rotation(spec.n_modes, mode, phi)
    frame_ss = t_frame.apply_to_state_space(build_state_space(spec))
    frame_inputs = t_frame.apply_to_inputs(InputMoments.from_baths(spec))
    rotated = t_rot.apply_to_state_space(frame_ss)
    inputs = t_rot.apply_to_inputs(frame_inputs)
    t = t_rot.compose(t_frame).matrix
    expected = t @ v @ t.conj().T
    got = steady_covariance(rotated, inputs).v
    scale = max(1.0, float(np.abs(expected).max()))
    assert np.abs(got - expected).max() <= 1e-9 * scale


@PROPERTY_SETTINGS
@given(
    seed=seeds,
    nonpassive=st.booleans(),
    xi=st.floats(min_value=0.05, max_value=1.5),
)
def test_hyperbolic_mixing_across_unequal_dampings_is_refused(seed, nonpassive, xi):
    spec = draw_network(seed, nonpassive)
    assume(spec.n_modes >= 2)
    gammas = spec.gammas
    assume(abs(gammas[0] - gammas[1]) > 1e-3 * max(gammas[0], gammas[1]))
    transform = MomentTransform.two_mode_bogoliubov(spec.n_modes, 0, 1, xi)
    with pytest.raises(FrameError):
        transform.apply_to_state_space(build_state_space(spec))


@PROPERTY_SETTINGS
@given(seed=seeds, nonpassive=st.booleans(), mode_pick=st.integers(min_value=0, max_value=3))
def test_passivity_of_a_spec_is_passivity_of_its_drift(seed, nonpassive, mode_pick):
    spec = draw_network(seed, nonpassive)
    # a parametric term of zero amplitude leaves the drift unchanged
    padded = dataclasses.replace(
        spec,
        couplings=spec.couplings
        + (degenerate_parametric(0.0, mode_pick % spec.n_modes),),
    )
    for network in (spec, padded):
        assert is_passive(network) == passive_state_space(build_state_space(network))
    assert is_passive(padded) == is_passive(spec)


@PROPERTY_SETTINGS
@given(seed=seeds, nonpassive=st.booleans())
def test_budget_obeys_its_sum_rules(seed, nonpassive):
    ss = build_state_space(draw_network(seed, nonpassive))
    assert verify_sum_rules(compute_budget(ss)).passed


@PROPERTY_SETTINGS
@given(seed=seeds, nonpassive=st.booleans())
def test_time_and_frequency_domain_budgets_agree(seed, nonpassive):
    ss = build_state_space(draw_network(seed, nonpassive))
    direct = compute_budget(ss).per_channel_w
    spectral = budget_via_spectrum(ss, abs_tol=1e-7).per_channel_w
    assert np.abs(direct - spectral).max() <= 1e-6


@PROPERTY_SETTINGS
@given(seed=seeds, nonpassive=st.booleans())
def test_the_budget_bounds_the_noise_of_the_quietest_pair(seed, nonpassive):
    # With thermal inputs of occupancies n_j, the pair u = X_theta and
    # v = X_theta+pi/2 of a mode at its least-variance angle obeys
    # Var(u) Var(v) >= (sum_j (n_j + 1/2) |w_j|)^2, where w_j =
    # c_u^T (q W_j q^H) c_v is channel j's share of the pair's commutator
    # (q maps the doubled basis to the quadratures), with equality for a
    # passive network, whose noise is its budget.
    rng = np.random.default_rng(seed)
    spec = random_network(rng, max_modes=4, nonpassive=nonpassive)
    n = spec.n_modes
    occupancies = rng.exponential(2.0, size=n)
    ss = build_state_space(spec)
    state = steady_covariance(ss, InputMoments.thermal(occupancies))
    eye = np.eye(n)
    q = np.block([[eye, eye], [-1j * eye, 1j * eye]]) / math.sqrt(2.0)
    shares = q @ compute_budget(ss).per_channel_w @ q.conj().T
    vq = state.quadrature_matrix()
    for mode in range(n):
        theta = min_quadrature_variance(state, mode).theta
        c_u, c_v = np.zeros(2 * n), np.zeros(2 * n)
        c_u[[mode, n + mode]] = math.cos(theta), math.sin(theta)
        c_v[[mode, n + mode]] = -math.sin(theta), math.cos(theta)
        w = c_u @ shares @ c_v
        # the pair is conjugate: its shares sum to i
        assert abs(abs(w.sum()) - 1.0) <= 1e-12
        product = (c_u @ vq @ c_u) * (c_v @ vq @ c_v)
        floor = np.sum((occupancies + 0.5) * np.abs(w)) ** 2
        assert product >= floor * (1.0 - 1e-12)
        if not nonpassive:
            assert abs(product - floor) <= 1e-12 * floor


@PROPERTY_SETTINGS
@given(seed=seeds, nonpassive=st.booleans())
def test_the_channel_kernels_give_the_steady_covariance(seed, nonpassive):
    # V = sum_j (n_j + 1/2) S_j with the kernels of the drift alone, for a
    # stack of occupancy rows on one drift as for one row
    rng = np.random.default_rng(seed)
    spec = random_network(rng, max_modes=4, nonpassive=nonpassive)
    rows = rng.exponential(2.0, size=(3, spec.n_modes))
    ss = build_state_space(spec)
    contracted = thermal_covariance(ss, InputMoments.thermal(rows)).v
    direct = steady_covariance(ss, InputMoments.thermal(rows)).v
    scale = np.maximum(1.0, np.abs(direct).max(axis=(-2, -1)))
    assert np.all(np.abs(contracted - direct).max(axis=(-2, -1)) <= 1e-12 * scale)


@PROPERTY_SETTINGS
@given(seed=seeds)
def test_the_kernels_split_the_duan_sum_by_channel(seed):
    # On the pair (X_Sigma, P_Delta) of the three-mode scheme, channel j's
    # Duan weight d_j = c_u^T S_j c_u + c_v^T S_j c_v (S_j its kernel in the
    # quadrature basis) is the budget's: d_0 = eta_e e^(-2 xi) for the
    # cavity, and d_1 + d_2 = mechanical for the two mechanical channels.
    p = random_three_mode(np.random.default_rng(seed))
    budget = three_mode_budget(p)
    eye = np.eye(3)
    q = np.block([[eye, eye], [-1j * eye, 1j * eye]]) / math.sqrt(2.0)
    kernels = (q @ budget.physical._thermal_kernels @ q.conj().T).real
    r = 1.0 / math.sqrt(2.0)
    c_u = np.array([0.0, r, r, 0.0, 0.0, 0.0])  # X_Sigma
    c_v = np.array([0.0, 0.0, 0.0, 0.0, r, -r])  # P_Delta
    d = kernels @ c_u @ c_u + kernels @ c_v @ c_v
    cavity = budget.eta_e * math.exp(-2.0 * p.xi)
    assert abs(d[0] - cavity) <= 1e-12 * cavity
    assert abs(d[1] + d[2] - budget.mechanical) <= 1e-12 * budget.mechanical


@PROPERTY_SETTINGS
@given(
    log_gamma=st.floats(min_value=-12.0, max_value=0.0),
    detuned=st.floats(min_value=-3000.0, max_value=3000.0),
)
def test_lorentzian_is_within_tolerance_or_refused(log_gamma, detuned):
    # a single mode damped at gamma and detuned: the spectral route
    # returns within abs_tol of the Lyapunov route or raises NumericsError
    spec = NetworkSpec(1, [BathSpec(10.0**log_gamma)], [detuning(detuned, 0)])
    ss = build_state_space(spec)
    abs_tol = 1e-7
    try:
        spectral = budget_via_spectrum(ss, abs_tol=abs_tol).per_channel_w
    except NumericsError:
        return
    assert np.abs(spectral - compute_budget(ss).per_channel_w).max() <= abs_tol
