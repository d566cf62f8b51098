"""Stable linear bosonic networks: commutator budgets, steady-state
variances, squeezing bounds, and separability boundaries.

The core layers (errors, linalg, network, budget, steady) are imported
with the package. The scenario layer (the fig1, fig2 and three-mode
scenarios) is imported on first access of one of its names through the
package, and the suites layer only by ``bosonet.suites`` or ``verify``.
"""

from .errors import (
    ApplicabilityError,
    BosonetError,
    DimensionError,
    FrameError,
    NumericsError,
    StabilityError,
    ValidationError,
)
from .linalg import (
    eigenvalues,
    golden_sections_max,
    hermitian_defect,
    integrate_spectra,
    integrate_spectrum,
    is_stable,
    require_stable,
    solve_lyapunov,
)
from .network import (
    COUPLING_KINDS,
    BathSpec,
    CouplingTerm,
    InputMoments,
    MomentTransform,
    NetworkSpec,
    RealizabilityReport,
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
    moments_from_json,
    network_from_json,
    network_to_json,
    passive_drifts,
    passive_state_space,
    two_mode_squeeze,
)
from .budget import (
    CommutatorBudget,
    IxBoundReport,
    ReciprocityReport,
    SumRuleReport,
    budget_report,
    budget_via_spectrum,
    compute_budget,
    compute_budgets,
    two_mode_ix_bound,
    verify_reciprocity,
    verify_sum_rules,
)
from .steady import (
    CovarianceState,
    QuadratureVariance,
    min_quadrature_variance,
    min_variances,
    quadrature_variance,
    quadrature_variances,
    steady_covariance,
    thermal_covariance,
    variance_decomposition,
)

__version__ = "0.1.0"

# The scenario layer loads on first use: ``analyze`` never needs it, and
# without a bytecode cache compiling it is a large share of a fresh start.
# Each name is looked up in bosonet.scenarios on every access and never
# stored here, so a name replaced there (by a test or a tracer) is what
# bosonet.X returns.
_SCENARIO_NAMES = frozenset({
    "FIG1_HEADER",
    "FIG2_HEADER",
    "FIG3_HEADER",
    "BoundaryLine",
    "DuanResult",
    "OptimalCoupling",
    "PairedVarianceReport",
    "ParametricOptimum",
    "ParametricParams",
    "QuadratureBlock",
    "SqueezingPowerResult",
    "ThreeModeBudget",
    "ThreeModeParams",
    "TwoModeParams",
    "boundary_line",
    "duan_quantities",
    "duan_quantity",
    "fig1_point",
    "fig1_rows",
    "fig2_point",
    "fig2_rows",
    "fig3_rows",
    "optimal_coupling",
    "optimal_couplings",
    "parametric_blocks",
    "parametric_bound",
    "parametric_network",
    "parametric_optimum",
    "parametric_variance_check",
    "parametric_variance_checks",
    "separability_boundary",
    "squeezing_powers",
    "three_mode_budget",
    "three_mode_budgets",
    "three_mode_physical_network",
    "three_mode_transform",
    "two_mode_network",
    "two_mode_squeezing_power",
})
# a star import still brings every public name, the scenario names too
__all__ = sorted(n for n in globals() if not n.startswith("_")) + sorted(_SCENARIO_NAMES)


def __getattr__(name):
    if name in _SCENARIO_NAMES:
        from . import scenarios

        return getattr(scenarios, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _SCENARIO_NAMES)
