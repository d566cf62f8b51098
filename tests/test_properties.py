"""Property tests of the frame-change path and of passivity over random
network draws."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bosonet.errors import FrameError
from bosonet.network import (
    InputMoments,
    MomentTransform,
    build_state_space,
    degenerate_parametric,
    is_passive,
    passive_state_space,
    spec_from_state_space,
    transform_network,
)
from bosonet.steady import steady_covariance
from bosonet.suites import random_network

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
def test_spec_from_state_space_round_trips_the_builder(seed, nonpassive):
    spec = draw_network(seed, nonpassive)
    drift = build_state_space(spec).drift
    restored = spec_from_state_space(drift, spec.baths)
    scale = max(1.0, float(np.abs(drift).max()))
    assert np.abs(build_state_space(restored).drift - drift).max() <= 1e-12 * scale
    assert restored.baths == spec.baths


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
    rotated = transform_network(transform_network(spec, t_frame), t_rot)
    t = t_rot.compose(t_frame).matrix
    expected = t @ v @ t.conj().T
    got = physical_covariance(rotated)
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
        transform_network(spec, transform)


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
