"""Seeded verification suites behind the ``verify`` command.

Each suite draws reproducible random cases, exercises one family of
identities or bounds, and reports residual statistics. The generator
for random networks follows a documented construction (uniform damping
in [0.1, 10], beam-splitter graph with edge probability 0.5, amplitudes
uniform in [0, 2] with random phases) so that any failure can be
replayed from the seed alone.

Suites that check residuals accept a tolerance override; setting it
below the achievable precision (say 1e-15) demonstrates the residual
floors. Suites with boolean or ratio semantics (boundary_flip, g_opt,
determinism) ignore the override.

Suites draw all of their cases first, in the order of a per-draw loop,
and then evaluate the draws in batches, one stack per mode count (see
_batched); every per-draw check still runs on every draw, in draw
order, and a batch that raises is replayed draw by draw
(linalg.batch_or_each). sum_rules checks each group's stacked budget in
one verify_sum_rules call, and route_agreement solves both of its routes
per group: one stacked budget solve and one lockstep quadrature
(linalg.integrate_spectra). boundary_flip draws as it goes (its
rejection step needs each line before the next draw), so it stays per
draw. The g_opt searches run in lockstep, one stack of all ten per step
(optimal_couplings).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import (
    BathSpec,
    CouplingTerm,
    InputMoments,
    NetworkSpec,
    StateSpace,
    beam_splitter,
    build_state_space,
    build_state_spaces,
    check_physical_realizability,
    degenerate_parametric,
    detuning,
    passive_drifts,
    two_mode_squeeze,
)
from .linalg import batch_or_each, is_stable
from .budget import (
    budget_via_spectrum,
    compute_budget,
    compute_budgets,
    two_mode_ix_bound,
    verify_reciprocity,
    verify_sum_rules,
)
from .steady import (
    min_variances,
    quadrature_variances,
    steady_covariance,
    variance_decomposition,
)
from .scenarios import (
    ParametricParams,
    ThreeModeParams,
    duan_quantities,
    duan_quantity,
    fig1_point,
    fig1_rows,
    fig2_point,
    fig3_rows,
    optimal_couplings,
    parametric_optimum,
    parametric_variance_checks,
    separability_boundary,
    three_mode_budget,
)

DEFAULT_SEED = 20260815


@dataclass(frozen=True)
class SuiteResult:
    """One suite's verdict (a Python bool, whatever the checks return)
    and its statistics."""

    name: str
    passed: bool
    stats: dict

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.passed))


def random_network(
    rng: np.random.Generator, max_modes: int = 5, nonpassive: bool = False
) -> NetworkSpec:
    """Documented reproducible network draw.

    Passive draws are unconditionally stable. Non-passive draws add
    squeeze, parametric, and detuning terms, halving the active
    amplitudes until the drift is stable with margin 0.05.
    """
    n = int(rng.integers(1, max_modes + 1))
    gammas = rng.uniform(0.1, 10.0, size=n)
    baths = tuple(BathSpec(float(g)) for g in gammas)
    couplings = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.uniform() < 0.5:
                amp = rng.uniform(0.0, 2.0) * np.exp(2j * math.pi * rng.uniform())
                couplings.append(beam_splitter(complex(amp), i, j))
    if not nonpassive:
        return NetworkSpec(n_modes=n, baths=baths, couplings=tuple(couplings))

    extras = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.uniform() < 0.4:
                amp = rng.uniform(0.0, 1.0) * np.exp(2j * math.pi * rng.uniform())
                extras.append(two_mode_squeeze(complex(amp), i, j))
    for i in range(n):
        if rng.uniform() < 0.3:
            amp = rng.uniform(0.0, 0.5) * np.exp(2j * math.pi * rng.uniform())
            extras.append(degenerate_parametric(complex(amp), i))
        if rng.uniform() < 0.3:
            couplings.append(detuning(float(rng.uniform(-1.0, 1.0)), i))
    scale = 1.0
    while scale > 1e-6:
        scaled = [
            CouplingTerm(e.kind, e.amplitude * scale, e.modes) for e in extras
        ]
        spec = NetworkSpec(
            n_modes=n, baths=baths, couplings=tuple(couplings) + tuple(scaled)
        )
        if is_stable(build_state_space(spec).drift, margin=0.05):
            return spec
        scale *= 0.5
    return NetworkSpec(n_modes=n, baths=baths, couplings=tuple(couplings))


def random_three_mode(rng: np.random.Generator) -> ThreeModeParams:
    return ThreeModeParams(
        g_script=float(rng.uniform(0.1, 3.0)),
        omega=float(rng.uniform(0.1, 3.0)),
        kappa=float(rng.uniform(0.5, 5.0)),
        gamma_m=float(rng.uniform(0.005, 0.5)),
        xi=float(rng.uniform(0.0, 1.2)),
        n_o=float(rng.uniform(0.0, 2.0)),
        n_m=float(rng.uniform(0.0, 2.0)),
    )


def _batched(draws, solve, size=lambda draw: draw.n_modes):
    """(draw, result) for every draw, in draw order.

    ``solve(group)`` evaluates a group of draws as one batch and returns
    one result per draw; the draws are grouped by ``size`` (the mode
    count, as a stack holds one shape). If a group raises, the draws are
    evaluated one at a time, in draw order, as the caller consumes them
    (batch_or_each): the first failing draw then raises its own error,
    after the checks of the draws before it, as in a per-draw loop.
    """

    def grouped(items) -> list:
        groups: dict = {}
        for index, item in enumerate(items):
            groups.setdefault(size(item), []).append(index)
        results = [None] * len(items)
        for indices in groups.values():
            for index, result in zip(indices, solve([items[i] for i in indices])):
                results[index] = result
        return results

    return zip(draws, batch_or_each(draws, grouped, lambda draw: solve([draw])[0]))


def _budgets(specs: list[NetworkSpec]) -> list:
    """The budget of each network of one mode count, from one stacked
    build and one stacked budget solve."""
    return compute_budgets(build_state_spaces(specs))


def _sum_rule_checks(specs: list[NetworkSpec]) -> list:
    """(realizability report, sum-rule report) of each network of one mode
    count, from one stacked build, one stacked budget solve and one
    stacked sum-rule check."""
    ss = build_state_spaces(specs)
    reports = verify_sum_rules(compute_budget(ss))
    return [
        (check_physical_realizability(member), rules)
        for member, rules in zip(ss.members(), reports)
    ]


def suite_sum_rules(rng: np.random.Generator, tol: float | None = None) -> SuiteResult:
    """Completeness and damping sum rules on random passive networks."""
    tol = 1e-9 if tol is None else tol
    count = 100
    max_completeness = max_pr = max_gamma = 0.0
    min_eig = math.inf
    pr_passed = True
    specs = [random_network(rng) for _ in range(count)]
    for _, (pr, rules) in _batched(specs, _sum_rule_checks):
        max_pr = max(max_pr, pr.residual)
        pr_passed = pr_passed and pr.passed
        max_completeness = max(max_completeness, rules.completeness_residual)
        max_gamma = max(max_gamma, max(rules.gamma_rule_residuals))
        min_eig = min(min_eig, min(rules.positivity_min_eigs))
    passed = (
        max_completeness < tol
        and pr_passed
        and max_gamma < tol
        and min_eig >= -1e-10
    )
    return SuiteResult(
        name="sum_rules",
        passed=passed,
        stats={
            "count": count,
            "max_completeness_residual": max_completeness,
            "max_pr_residual": max_pr,
            "max_gamma_rule_residual": max_gamma,
            "min_k_eigenvalue": min_eig,
        },
    )


def _route_checks(specs: list[NetworkSpec]) -> list:
    """(non-passive, largest entry difference of the two routes' kernels)
    of each network of one mode count, from one stacked build, one stacked
    budget solve and one lockstep quadrature."""
    ss = build_state_spaces(specs)
    direct = compute_budget(ss)
    spectral = budget_via_spectrum(ss, abs_tol=1e-7)
    diffs = np.abs(direct.per_channel_w - spectral.per_channel_w).max(axis=(1, 2, 3))
    return list(zip((~passive_drifts(ss)).tolist(), diffs.tolist()))


def suite_route_agreement(
    rng: np.random.Generator, tol: float | None = None
) -> SuiteResult:
    """Time-domain vs frequency-domain budgets, every third draw active.
    Both routes solve one stack per mode count."""
    tol = 1e-6 if tol is None else tol
    count = 100
    worst = 0.0
    active = 0
    specs = [random_network(rng, nonpassive=k % 3 == 2) for k in range(count)]
    for _, (nonpassive, diff) in _batched(specs, _route_checks):
        active += 1 if nonpassive else 0
        worst = max(worst, diff)
    return SuiteResult(
        name="route_agreement",
        passed=worst < tol,
        stats={"count": count, "nonpassive_count": active, "max_entry_diff": worst},
    )


def suite_reciprocity(
    rng: np.random.Generator, tol: float | None = None
) -> SuiteResult:
    """Share detailed balance: any phases at N=2, real couplings beyond."""
    tol = 1e-10 if tol is None else tol
    worst = 0.0
    count = 0
    specs = []
    for _ in range(40):
        g1, g2 = rng.uniform(0.1, 10.0, size=2)
        amp = rng.uniform(0.0, 2.0) * np.exp(2j * math.pi * rng.uniform())
        specs.append(
            NetworkSpec(
                n_modes=2,
                baths=(BathSpec(float(g1)), BathSpec(float(g2))),
                couplings=(beam_splitter(complex(amp), 0, 1),),
            )
        )
    for _ in range(40):
        spec = random_network(rng)
        real_couplings = tuple(
            CouplingTerm(c.kind, abs(c.amplitude), c.modes) for c in spec.couplings
        )
        specs.append(NetworkSpec(spec.n_modes, spec.baths, real_couplings))
    for _, budget in _batched(specs, _budgets):
        report = verify_reciprocity(budget)
        worst = max(worst, report.max_residual)
        count += 1
    return SuiteResult(
        name="reciprocity",
        passed=worst < tol,
        stats={"count": count, "max_residual": worst},
    )


def suite_ix_bound(rng: np.random.Generator, tol: float | None = None) -> SuiteResult:
    """Two-mode exchange bound over coupling and damping-ratio sweeps."""
    tol = 1e-10 if tol is None else tol
    min_slack = math.inf
    min_diag = math.inf
    count = 0
    couplings = np.concatenate([[0.0], np.geomspace(0.01, 100.0, 9)])
    specs = []
    for gamma1 in np.geomspace(0.01, 100.0, 9):
        for g in couplings:
            phase = np.exp(2j * math.pi * rng.uniform())
            terms = (beam_splitter(g * phase, 0, 1),) if g else ()
            specs.append(
                NetworkSpec(
                    n_modes=2,
                    baths=(BathSpec(float(gamma1)), BathSpec(1.0)),
                    couplings=terms,
                )
            )
    for _, budget in _batched(specs, _budgets):
        report = two_mode_ix_bound(budget)
        min_slack = min(min_slack, report.slack)
        min_diag = min(min_diag, report.diagonal_sum)
        count += 1
    passed = min_slack >= -tol and min_diag >= 1.0 - tol
    return SuiteResult(
        name="ix_bound",
        passed=passed,
        stats={"count": count, "min_slack": min_slack, "min_diagonal_sum": min_diag},
    )


def suite_two_mode_bound(
    rng: np.random.Generator, tol: float | None = None
) -> SuiteResult:
    """Normalized minimal-variance sums stay above 1 on a (g, xi) grid,
    one fig1 batch per occupancy pair."""
    tol = 1e-9 if tol is None else tol
    min_slack = math.inf
    count = 0
    # g_script the outer loop, xi the inner
    g_script, xi = np.meshgrid(
        np.geomspace(0.1, 50.0, 20), np.linspace(0.0, 1.5, 20), indexing="ij"
    )
    for n1, n2 in ((0.0, 0.0), (0.3, 1.7)):
        # rows are (g_script, xi, gamma1, gamma2, norm_var1, norm_var2, sum)
        for row in fig1_rows(g_script, xi, 1.0, 1.0, n1, n2):
            min_slack = min(min_slack, row[6] - 1.0)
            count += 1
    return SuiteResult(
        name="two_mode_bound",
        passed=min_slack >= -tol,
        stats={"count": count, "min_slack": min_slack},
    )


def suite_parametric(
    rng: np.random.Generator, tol: float | None = None
) -> SuiteResult:
    """Quadrature floors, pair-sum bounds, and the closed-form optimum."""
    tol = 1e-9 if tol is None else tol
    pairs = ((1.0, 1.0), (4.0, 1.0), (0.5, 2.0), (10.0, 0.3))
    min_slack = math.inf
    max_opt_gap = 0.0
    count = 0
    for gamma1, gamma2 in pairs:
        opt = parametric_optimum(gamma1, gamma2)
        max_opt_gap = max(max_opt_gap, abs(opt.numeric_min_value - opt.min_value))
        total = gamma1 + gamma2
        grid = [
            ParametricParams(
                g_plus=0.0,
                g_minus=3.0,
                gamma1=gamma1,
                gamma2=gamma2,
                eta1=+0.5 * de,
                eta2=-0.5 * de,
            )
            for de in np.linspace(-0.98 * total, 0.98 * total, 21)
        ]
        for report in parametric_variance_checks(grid):
            min_slack = min(min_slack, report.min_slack)
            count += 1
    passed = min_slack >= -tol and max_opt_gap <= tol
    return SuiteResult(
        name="parametric",
        passed=passed,
        stats={
            "count": count,
            "min_slack": min_slack,
            "max_optimum_gap": max_opt_gap,
        },
    )


def suite_duan_routes(
    rng: np.random.Generator, tol: float | None = None
) -> SuiteResult:
    """Direct vs budget Duan values on random three-mode parameters, as
    one batch."""
    tol = 1e-8 if tol is None else tol
    count = 50
    worst = 0.0
    params = [random_three_mode(rng) for _ in range(count)]
    for _, result in _batched(params, duan_quantities, size=lambda p: 3):
        worst = max(worst, abs(result.direct - result.budget))
    decoupled = duan_quantity(
        ThreeModeParams(g_script=0.0, omega=1.0, kappa=1.0, gamma_m=0.01)
    )
    base_gap = abs(decoupled.direct - 1.0)
    passed = worst <= tol and base_gap <= 1e-10
    return SuiteResult(
        name="duan_routes",
        passed=passed,
        stats={"count": count, "max_route_diff": worst, "decoupled_gap": base_gap},
    )


def suite_boundary_flip(
    rng: np.random.Generator, tol: float | None = None
) -> SuiteResult:
    """Entanglement verdict flips across the separability line; one frame
    budget per draw serves the line and both displaced points."""
    del tol  # boolean semantics
    count = 10
    flips = 0
    min_margin = math.inf
    done = 0
    while done < count:
        params = ThreeModeParams(
            g_script=float(rng.uniform(0.3, 2.5)),
            omega=float(rng.uniform(0.3, 2.0)),
            kappa=float(rng.uniform(0.5, 3.0)),
            gamma_m=float(rng.uniform(0.005, 0.1)),
            xi=float(rng.uniform(0.2, 1.0)),
        )
        budget = three_mode_budget(params)
        line = separability_boundary(params, budget)
        if line.eta_e < 0.1:
            continue
        done += 1
        u = float(rng.uniform(0.2, 0.7))
        n_o = u * line.n_o_intercept
        n_m = line.n_m_at(n_o)
        norm = math.hypot(line.slope, 1.0)
        # keep both displaced points inside the physical quadrant
        offset = min(
            0.05 * math.hypot(line.n_o_intercept, line.n_m_intercept),
            0.9 * n_m * norm,
            0.9 * n_o * norm / max(-line.slope, 1e-12),
        )
        # rows are (n_o, n_m, direct, budget, entangled)
        step_o, step_m = offset * line.slope / norm, offset / norm
        below, above = fig3_rows(
            params, budget, [n_o + step_o, n_o - step_o], [n_m - step_m, n_m + step_m]
        )
        if below[4] and not above[4]:
            flips += 1
        min_margin = min(min_margin, 1.0 - below[2], above[2] - 1.0)
    return SuiteResult(
        name="boundary_flip",
        passed=flips == count,
        stats={"count": count, "flips": flips, "min_verdict_margin": min_margin},
    )


def suite_g_opt(rng: np.random.Generator, tol: float | None = None) -> SuiteResult:
    """Approximate optimal coupling stays within 1% of the numeric max."""
    del tol  # ratio semantics
    min_ratio = math.inf
    points = [
        (kappa, 1.0, gm_ratio * kappa, 0.0)
        for kappa in (0.1, 0.3, 1.0, 3.0, 10.0)
        for gm_ratio in (1e-3, 1e-2)
    ]
    for result in optimal_couplings(points):
        min_ratio = min(min_ratio, result.eta_e_formula / result.eta_e_numeric)
    return SuiteResult(
        name="g_opt",
        passed=min_ratio >= 0.99,
        stats={"count": len(points), "min_eta_ratio": min_ratio},
    )


# Angles of the minimality scan and of the passive split check.
_SCAN_ANGLES = np.linspace(0.0, math.pi, 64, endpoint=False)
_SPLIT_ANGLES = np.linspace(0.0, math.pi, 8, endpoint=False)


def _steady_checks(draws: list) -> list[tuple]:
    """The checks of suite_steady_physics on draws (spec, occupancies) of
    one mode count, as one batch: one stacked steady solve, and one
    stacked budget solve for the passive draws. Per draw: the least
    covariance eigenvalue, each mode's Heisenberg product and minimality
    gap against the 64-angle scan, and for a passive draw the largest
    split difference over the 8 angles (None otherwise)."""
    ss = build_state_spaces([spec for spec, _ in draws])
    inputs = InputMoments.thermal([occupancy for _, occupancy in draws])
    cov = steady_covariance(ss, inputs)
    cov_eigs = np.linalg.eigvalsh(cov.quadrature_matrix()).min(axis=-1)
    modes = range(ss.n_modes)
    heisenberg = np.stack([np.linalg.det(cov.mode_block(m)) for m in modes], axis=-1)
    gaps = np.stack(
        [
            min_variances(cov, m) - quadrature_variances(cov, m, _SCAN_ANGLES).min(axis=-1)
            for m in modes
        ],
        axis=-1,
    )
    splits = [None] * len(draws)
    passive = passive_drifts(ss)
    if passive.any():
        sub = StateSpace(drift=ss.drift[passive], input=ss.input[passive], n_modes=ss.n_modes)
        sub_inputs = InputMoments.thermal(inputs.occupancy[passive])
        budget = compute_budget(sub)
        split = np.stack(
            [
                variance_decomposition(sub, budget, sub_inputs, theta=theta)
                for theta in _SPLIT_ANGLES
            ],
            axis=-1,
        )
        direct = np.stack(
            [quadrature_variances(cov, m, _SPLIT_ANGLES)[passive] for m in modes], axis=-2
        )
        diffs = np.abs(split - direct).max(axis=(-2, -1))
        for index, diff in zip(np.flatnonzero(passive), diffs.tolist()):
            splits[index] = diff
    return list(zip(cov_eigs.tolist(), heisenberg.tolist(), gaps.tolist(), splits))


def suite_steady_physics(
    rng: np.random.Generator, tol: float | None = None
) -> SuiteResult:
    """Covariance positivity, Heisenberg floors, and the passive split."""
    tol = 1e-10 if tol is None else tol
    count = 50
    min_cov_eig = math.inf
    min_heisenberg = math.inf
    max_split_diff = 0.0
    max_minimality_gap = 0.0
    draws = []
    for k in range(count):
        spec = random_network(rng, nonpassive=(k % 3 == 2))
        draws.append((spec, rng.uniform(0.0, 3.0, size=spec.n_modes)))
    checks = _batched(draws, _steady_checks, size=lambda draw: draw[0].n_modes)
    for _, (cov_eig, heisenberg, gaps, split) in checks:
        min_cov_eig = min(min_cov_eig, cov_eig)
        for product, gap in zip(heisenberg, gaps):
            min_heisenberg = min(min_heisenberg, product)
            max_minimality_gap = max(max_minimality_gap, gap)
        if split is not None:
            max_split_diff = max(max_split_diff, split)
    passed = (
        min_cov_eig >= -1e-10
        and min_heisenberg >= 0.25 - 1e-10
        and max_minimality_gap <= 1e-12
        and max_split_diff <= tol
    )
    return SuiteResult(
        name="steady_physics",
        passed=passed,
        stats={
            "count": count,
            "min_covariance_eigenvalue": min_cov_eig,
            "min_heisenberg_product": min_heisenberg,
            "max_minimality_gap": max_minimality_gap,
            "max_decomposition_diff": max_split_diff,
        },
    )


def suite_determinism(
    rng: np.random.Generator, tol: float | None = None
) -> SuiteResult:
    """Same seed, same draws; repeated evaluations bit-identical."""
    del tol
    seed = int(rng.integers(0, 2**31))
    first = random_network(np.random.default_rng(seed), nonpassive=True)
    second = random_network(np.random.default_rng(seed), nonpassive=True)
    same_spec = np.array_equal(
        build_state_space(first).drift, build_state_space(second).drift
    )
    rows_a = [fig1_point(2.0, 0.5, 1.0, 1.0), fig2_point(1.5, 4.0, 1.0, 3.0)]
    rows_b = [fig1_point(2.0, 0.5, 1.0, 1.0), fig2_point(1.5, 4.0, 1.0, 3.0)]
    same_rows = rows_a == rows_b
    return SuiteResult(
        name="determinism",
        passed=bool(same_spec and same_rows),
        stats={"spec_repeatable": bool(same_spec), "rows_repeatable": bool(same_rows)},
    )


SUITES = (
    suite_sum_rules,
    suite_route_agreement,
    suite_reciprocity,
    suite_ix_bound,
    suite_two_mode_bound,
    suite_parametric,
    suite_duan_routes,
    suite_boundary_flip,
    suite_g_opt,
    suite_steady_physics,
    suite_determinism,
)


def run_all(
    seed: int = DEFAULT_SEED, tol: float | None = None
) -> tuple[list[SuiteResult], bool]:
    """Run every suite with per-suite seeded generators.

    The optional tolerance overrides the headline residual thresholds
    of the residual-style suites; boolean/ratio suites ignore it.
    """
    results = []
    for index, suite in enumerate(SUITES):
        rng = np.random.default_rng([int(seed), index])
        results.append(suite(rng, tol))
    return results, all(r.passed for r in results)
