"""Verdicts and work of the seeded verification suites."""

import math

import numpy as np
import pytest

from bosonet import budget as budget_module
from bosonet import suites
from bosonet.budget import (
    budget_via_spectrum,
    compute_budget,
    two_mode_ix_bound,
    verify_reciprocity,
    verify_sum_rules,
)
from bosonet.errors import StabilityError
from bosonet.network import (
    BathSpec,
    CouplingTerm,
    InputMoments,
    NetworkSpec,
    beam_splitter,
    build_state_space,
    check_physical_realizability,
    degenerate_parametric,
    passive_state_space,
)
from bosonet.scenarios import duan_quantity
from bosonet.steady import (
    min_quadrature_variance,
    quadrature_variance,
    steady_covariance,
    variance_decomposition,
)
from bosonet.suites import (
    DEFAULT_SEED,
    SUITES,
    _batched,
    random_three_mode,
    suite_boundary_flip,
    suite_duan_routes,
    suite_ix_bound,
    suite_reciprocity,
    suite_route_agreement,
    suite_steady_physics,
    suite_sum_rules,
)


def suite_rng(suite):
    # the generator run_all hands the suite at the default seed
    return np.random.default_rng([DEFAULT_SEED, SUITES.index(suite)])


def test_verdicts_are_python_bools():
    # a failing slack check compares numpy floats; json needs a Python bool
    for tol in (1e-300, -1.0):
        result = suite_ix_bound(suite_rng(suite_ix_bound), tol)
        assert type(result.passed) is bool
    assert result.passed is False


def test_boundary_flip_computes_one_frame_budget_per_draw(monkeypatch):
    calls = []
    real_budget = suites.three_mode_budget

    def counting(p):
        calls.append(p)
        return real_budget(p)

    monkeypatch.setattr(suites, "three_mode_budget", counting)
    result = suite_boundary_flip(suite_rng(suite_boundary_flip))
    assert result.passed is True
    assert result.stats["count"] == 10
    assert len(calls) == 10


# ---------------------------------------------------------------------------
# The batched suites against the per-draw loops they replaced. Each copy
# below evaluates one draw at a time with the one-point calls, exactly as
# the suite did before its draws were batched by mode count.


def per_draw_sum_rules(rng):
    max_completeness = max_pr = max_gamma = 0.0
    min_eig = math.inf
    for _ in range(100):
        ss = build_state_space(suites.random_network(rng))
        pr = check_physical_realizability(ss)
        max_pr = max(max_pr, pr.residual)
        rules = verify_sum_rules(compute_budget(ss))
        max_completeness = max(max_completeness, rules.completeness_residual)
        max_gamma = max(max_gamma, max(rules.gamma_rule_residuals))
        min_eig = min(min_eig, min(rules.positivity_min_eigs))
    return {
        "count": 100,
        "max_completeness_residual": max_completeness,
        "max_pr_residual": max_pr,
        "max_gamma_rule_residual": max_gamma,
        "min_k_eigenvalue": min_eig,
    }


def per_draw_reciprocity(rng):
    worst = 0.0
    for _ in range(40):
        g1, g2 = rng.uniform(0.1, 10.0, size=2)
        amp = rng.uniform(0.0, 2.0) * np.exp(2j * math.pi * rng.uniform())
        spec = NetworkSpec(
            2, (BathSpec(float(g1)), BathSpec(float(g2))),
            (beam_splitter(complex(amp), 0, 1),),
        )
        report = verify_reciprocity(compute_budget(build_state_space(spec)))
        worst = max(worst, report.max_residual)
    for _ in range(40):
        spec = suites.random_network(rng)
        real = tuple(CouplingTerm(c.kind, abs(c.amplitude), c.modes) for c in spec.couplings)
        spec = NetworkSpec(spec.n_modes, spec.baths, real)
        report = verify_reciprocity(compute_budget(build_state_space(spec)))
        worst = max(worst, report.max_residual)
    return {"count": 80, "max_residual": worst}


def per_draw_ix_bound(rng):
    min_slack = min_diag = math.inf
    couplings = np.concatenate([[0.0], np.geomspace(0.01, 100.0, 9)])
    for gamma1 in np.geomspace(0.01, 100.0, 9):
        for g in couplings:
            phase = np.exp(2j * math.pi * rng.uniform())
            terms = (beam_splitter(g * phase, 0, 1),) if g else ()
            spec = NetworkSpec(2, (BathSpec(float(gamma1)), BathSpec(1.0)), terms)
            report = two_mode_ix_bound(compute_budget(build_state_space(spec)))
            min_slack = min(min_slack, report.slack)
            min_diag = min(min_diag, report.diagonal_sum)
    return {"count": 90, "min_slack": min_slack, "min_diagonal_sum": min_diag}


def per_draw_duan_routes(rng):
    worst = 0.0
    for _ in range(50):
        result = duan_quantity(random_three_mode(rng))
        worst = max(worst, abs(result.direct - result.budget))
    decoupled = duan_quantity(
        suites.ThreeModeParams(g_script=0.0, omega=1.0, kappa=1.0, gamma_m=0.01)
    )
    return {
        "count": 50,
        "max_route_diff": worst,
        "decoupled_gap": abs(decoupled.direct - 1.0),
    }


def per_draw_steady_physics(rng):
    min_cov_eig = min_heisenberg = math.inf
    max_split_diff = max_minimality_gap = 0.0
    angles = np.linspace(0.0, math.pi, 8, endpoint=False)
    for k in range(50):
        spec = suites.random_network(rng, nonpassive=(k % 3 == 2))
        ss = build_state_space(spec)
        inputs = InputMoments.thermal(rng.uniform(0.0, 3.0, size=spec.n_modes))
        cov = steady_covariance(ss, inputs)
        vq = cov.quadrature_matrix()
        min_cov_eig = min(min_cov_eig, float(np.linalg.eigvalsh(vq).min()))
        for mode in range(spec.n_modes):
            min_heisenberg = min(min_heisenberg, float(np.linalg.det(cov.mode_block(mode))))
            best = min_quadrature_variance(cov, mode)
            grid_min = min(
                quadrature_variance(cov, mode, t)
                for t in np.linspace(0.0, math.pi, 64, endpoint=False)
            )
            max_minimality_gap = max(max_minimality_gap, best.value - grid_min)
        if passive_state_space(ss):
            budget = compute_budget(ss)
            for theta in angles:
                split = variance_decomposition(ss, budget, inputs, theta=theta)
                direct = np.array(
                    [quadrature_variance(cov, mode, theta) for mode in range(spec.n_modes)]
                )
                max_split_diff = max(max_split_diff, float(np.abs(split - direct).max()))
    return {
        "count": 50,
        "min_covariance_eigenvalue": min_cov_eig,
        "min_heisenberg_product": min_heisenberg,
        "max_minimality_gap": max_minimality_gap,
        "max_decomposition_diff": max_split_diff,
    }


PER_DRAW = [
    (suite_sum_rules, per_draw_sum_rules),
    (suite_reciprocity, per_draw_reciprocity),
    (suite_ix_bound, per_draw_ix_bound),
    (suite_duan_routes, per_draw_duan_routes),
    (suite_steady_physics, per_draw_steady_physics),
]


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1, 2])
@pytest.mark.parametrize("suite, per_draw", PER_DRAW, ids=lambda x: x.__name__)
def test_batched_suite_has_the_bits_of_the_per_draw_loop(suite, per_draw, seed):
    index = SUITES.index(suite)
    stats = suite(np.random.default_rng([seed, index])).stats
    expected = per_draw(np.random.default_rng([seed, index]))
    # repr shows every bit of a float, and the sign of a zero
    assert repr(stats) == repr(expected)


def per_draw_route_agreement(rng):
    worst = 0.0
    active = 0
    for k in range(100):
        ss = build_state_space(suites.random_network(rng, nonpassive=k % 3 == 2))
        active += 0 if passive_state_space(ss) else 1
        direct = compute_budget(ss)
        spectral = budget_via_spectrum(ss, abs_tol=1e-7)
        worst = max(
            worst, float(np.abs(direct.per_channel_w - spectral.per_channel_w).max())
        )
    return {"count": 100, "nonpassive_count": active, "max_entry_diff": worst}


def test_route_agreement_has_the_bits_of_the_per_draw_loop():
    # the quadrature dominates this suite, so one seed, not three
    stats = suite_route_agreement(suite_rng(suite_route_agreement)).stats
    expected = per_draw_route_agreement(suite_rng(suite_route_agreement))
    assert repr(stats) == repr(expected)


def test_route_agreement_integrates_one_half_line(monkeypatch):
    # the two-sided plan took 54,915 kernel frequencies at the default
    # seed, the five-edge half-line plan 27,825, the pole-graded one from
    # 8 uniform panels 12,330, and from 2 uniform panels 8,295 at plan
    # parameter 2 and 6,210 at 3
    nodes = []
    real = budget_module.integrate_spectra

    def counting(f, abs_tol, poles):
        return real(lambda members, w: nodes.append(w.size) or f(members, w), abs_tol, poles)

    monkeypatch.setattr(budget_module, "integrate_spectra", counting)
    suite_route_agreement(suite_rng(suite_route_agreement))
    assert 0 < sum(nodes) <= 6_500


def unstable(n_modes, amplitude):
    # a parametric drive well above the damping: eigenvalue -1/2 + 2|amplitude|
    return NetworkSpec(
        n_modes, (BathSpec(1.0),) * n_modes, (degenerate_parametric(amplitude, 0),)
    )


@pytest.mark.parametrize(
    "suite, per_draw",
    [
        (suite_sum_rules, per_draw_sum_rules),
        (suite_route_agreement, per_draw_route_agreement),
        (suite_steady_physics, per_draw_steady_physics),
    ],
    ids=lambda x: x.__name__,
)
def test_failing_draw_raises_as_in_the_per_draw_loop(monkeypatch, suite, per_draw):
    # draw 40 fails in the group of draw 0's mode count, which is solved
    # first; draw 20 fails earlier, in another group. The per-draw loop
    # stops at draw 20, and so must the batches.
    real = suites.random_network
    drawn = []

    def drawing(rng, *args, **kwargs):
        spec = real(rng, *args, **kwargs)
        drawn.append(spec.n_modes)
        first = drawn[0]
        if len(drawn) == 21:
            return unstable(first % 5 + 1, 2.0)
        if len(drawn) == 41:
            return unstable(first, 3.0)
        return spec

    monkeypatch.setattr(suites, "random_network", drawing)
    index = SUITES.index(suite)
    with pytest.raises(StabilityError) as batched:
        suite(np.random.default_rng([DEFAULT_SEED, index]))
    drawn.clear()
    with pytest.raises(StabilityError) as looped:
        per_draw(np.random.default_rng([DEFAULT_SEED, index]))
    assert str(batched.value) == str(looped.value)
    assert batched.value.eigenvalue == looped.value.eigenvalue == pytest.approx(3.5)


def test_batches_fall_back_to_draw_order():
    # draws of two sizes; solving draw 4 raises, as does draw 3 alone, so
    # the consumer sees draws 1 and 2 and then the error of draw 3
    def solve(group):
        for draw in group:
            if draw == 4 or (draw == 3 and len(group) == 1):
                raise StabilityError(f"draw {draw}")
        return [10 * draw for draw in group]

    seen = []
    with pytest.raises(StabilityError, match="draw 3"):
        for draw, result in _batched([1, 2, 3, 4], solve, size=lambda d: d % 2):
            seen.append((draw, result))
    assert seen == [(1, 10), (2, 20)]
    assert list(_batched([1, 2, 3], solve, size=lambda d: d % 2)) == [
        (1, 10), (2, 20), (3, 30)
    ]
