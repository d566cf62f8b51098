"""Three worked setups built on the budget and steady-state machinery.

Two-mode dissipative squeezing: a beam-splitter/squeeze pair (G-, G+)
between two damped modes, analyzed both directly and through the
hyperbolic frame where the interaction is a pure beam splitter.

Parametric augmentation: single-mode parametric terms split the
dynamics into two quadrature pairs, (X1, Y2) and (X2, Y1), that evolve
as independent classical-looking 2x2 systems with shifted dampings;
the per-quadrature floors and the paired sum bound follow.

Three-mode sum/difference scheme: a cavity driving two mechanical
modes through matched beam-splitter/squeeze pairs with opposite
detunings; in the collective hyperbolic frame the cavity talks only to
the Sigma mode, and the commutator budget yields the Duan quantity and
the separability boundary in the (n_o, n_m) plane.

Grids are batches. squeezing_powers, parametric_variance_checks,
three_mode_budgets, duan_quantities, fig1_rows, fig2_rows and fig3_rows
evaluate every point of a grid with stacked arrays through one Lyapunov
solve per stage, and every check runs at every point; the first failing
point raises. Each per-point function (two_mode_squeezing_power,
parametric_variance_check, three_mode_budget, duan_quantity, fig1_point,
fig2_point) is the one-point call of its array form, so a grid row has
the bits of its point. Every three-mode frame budget, of a grid or of a
coupling search step, comes from one prepared stack of schemes
(_Schemes), built once from the columns no coupling changes and
evaluated at g_script.

A grid is a family of coefficient columns, not a list of records.
fig1_rows, fig2_rows, fig3_rows and the optimal_couplings search build
no parameter record or network per point, and the functions that take
records read their fields in one pass. Each column is checked once with
its record field's check (_check_columns), and the first invalid point
in row order raises its record's error. The drifts come from
network.family_state_space, given the coupling slots of the setup
(_TWO_MODE_SLOTS, _THREE_MODE_SLOTS) and amplitude columns formed with
the arithmetic of the per-point network; the networks of single points
(two_mode_network, parametric_network, three_mode_physical_network)
use the same slots and amplitudes, so a family's drift has their bytes.
The fig2 quadrature blocks come from the same columns.

three_mode_budgets returns one stacked ThreeModeBudget, and the Duan
values of a stack of schemes or of one scheme's occupancy columns come,
as value columns, from one evaluation of that record (_duan), whose
physical state space keeps the thermal channel kernels the direct route
sums (steady's thermal_covariance). fig3_rows zips its rows from those
columns and broadcasts its occupancies as fig1_rows and fig2_rows do.
optimal_couplings runs its coupling searches in lockstep, reading eta_e
off one stacked frame budget of the couplings every search is handed
per golden-section call (a lone search is handed the tree of its next
three steps), and optimal_coupling is its one-point call; a lone search
that fails raises at once, without the replay a batch of searches takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Sequence

import numpy as np

from .errors import (
    ApplicabilityError,
    DimensionError,
    NumericsError,
    StabilityError,
    ValidationError,
)
from .linalg import batch_or_each, first_failure, golden_sections_max, solve_lyapunov
from .network import (
    BathSpec,
    CouplingTerm,
    InputMoments,
    MomentTransform,
    NetworkSpec,
    StateSpace,
    cosh_sinh,
    family_state_space,
    hyperbolic_frame,
)
from .budget import compute_budget, verify_sum_rules
from .steady import (
    min_variances,
    steady_covariance,
    thermal_covariance,
    variance_decomposition,
)

ROUTE_AGREEMENT_TOL = 1e-10
DUAN_AGREEMENT_TOL = 1e-8


def _finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")
    return value


def _positive(name: str, value: float) -> float:
    value = _finite(name, value)
    if not value > 0:
        raise ValidationError(f"{name} must be positive, got {value}")
    return value


def _nonnegative(name: str, value: float) -> float:
    value = _finite(name, value)
    if not value >= 0:
        raise ValidationError(f"{name} must be nonnegative, got {value}")
    return value


# each field check, as the test that a column (P,) passes it point by point
_PASSES = {
    _finite: np.isfinite,
    _positive: lambda column: np.isfinite(column) & (column > 0),
    _nonnegative: lambda column: np.isfinite(column) & (column >= 0),
}


def _grid_columns(*columns) -> list[np.ndarray]:
    """The float columns (P,) of a grid given per parameter as a number or
    a sequence: sequences broadcast against each other and numbers repeat."""
    arrays = np.broadcast_arrays(*(np.asarray(column, dtype=float) for column in columns))
    return [array.ravel() for array in arrays]


def _columns(records: Sequence, fields) -> np.ndarray:
    """The named fields of the records, read in one pass, as an array
    (F, P) of float columns."""
    get = attrgetter(*fields)
    rows = [get(record) for record in records]
    return np.array(rows, dtype=float).reshape(len(records), len(fields)).T


def _check_columns(checks: dict, columns: Sequence[np.ndarray], before=None) -> None:
    """Check the columns (P,) of a grid as P records check their fields:
    ``checks`` maps each field name, in field order, to its check, and
    ``columns`` holds one column per field. Each column is tested once;
    the first failing point, in row order, raises its check's error for
    its first failing field, after ``before(k)`` of that point k, if given."""
    passed = np.logical_and.reduce(
        [_PASSES[check](column) for check, column in zip(checks.values(), columns)]
    )
    k = first_failure(passed)
    if k is not None:
        if before is not None:
            before(k)
        for (name, check), column in zip(checks.items(), columns):
            check(name, column[k])


def _check_fields(record, checks: dict) -> None:
    """Replace each named field of a frozen record by ``check(name, value)``."""
    for name, check in checks.items():
        object.__setattr__(record, name, check(name, getattr(record, name)))


def _network(slots, amplitudes, baths) -> NetworkSpec:
    """One point of a family (family_state_space) as a network: a coupling
    per slot (kind, modes) of nonzero amplitude, in slot order."""
    return NetworkSpec(
        n_modes=len(baths),
        baths=tuple(baths),
        couplings=tuple(
            CouplingTerm(kind, amplitude, modes)
            for (kind, modes), amplitude in zip(slots, amplitudes)
            if amplitude
        ),
    )


# The coupling slots of the three setups. The network of one point and
# the family of a grid take the same slots and amplitude arithmetic, so
# their drifts have the same bytes.
_TWO_MODE_SLOTS = (("beam_splitter", (0, 1)), ("two_mode_squeeze", (0, 1)))
_PARAMETRIC_SLOTS = _TWO_MODE_SLOTS + (
    ("degenerate_parametric", (0,)),
    ("degenerate_parametric", (1,)),
)
_THREE_MODE_SLOTS = (
    ("beam_splitter", (0, 1)),
    ("two_mode_squeeze", (0, 1)),
    ("beam_splitter", (0, 2)),
    ("two_mode_squeeze", (0, 2)),
    ("detuning", (1,)),
    ("detuning", (2,)),
)


def _three_mode_amplitudes(g_script, omega, cosh, sinh) -> tuple:
    """The matched pair g_script (cosh, sinh) / sqrt2 on each mechanical
    mode, with cosh and sinh of xi from cosh_sinh, and the detunings
    +-omega / 2."""
    g_minus = g_script * cosh / math.sqrt(2.0)
    g_plus = g_script * sinh / math.sqrt(2.0)
    return g_minus, g_plus, g_minus, g_plus, 0.5 * omega, -0.5 * omega


def _cosh_sinh_columns(xi: np.ndarray) -> np.ndarray:
    """cosh_sinh of each xi (P,), as the columns (2, P) of cosh and sinh;
    inf where they overflow, at the points where cosh_sinh raises."""
    pairs = []
    for x in xi.tolist():
        try:
            pairs.append(cosh_sinh(x))
        except NumericsError:
            pairs.append((math.inf, math.inf))
    return np.array(pairs, dtype=float).reshape(-1, 2).T


# The fields of each parameter record, in field order, with their checks;
# the array forms check their columns with the same table.
_TWO_MODE_FIELDS = dict(
    g_plus=_nonnegative, g_minus=_nonnegative, gamma1=_positive, gamma2=_positive,
    n1=_nonnegative, n2=_nonnegative,
)
_PARAMETRIC_FIELDS = dict(
    g_plus=_nonnegative, g_minus=_nonnegative, gamma1=_positive, gamma2=_positive,
    eta1=_finite, eta2=_finite, n1=_nonnegative, n2=_nonnegative,
)
_THREE_MODE_FIELDS = dict(
    g_script=_nonnegative, omega=_finite, kappa=_positive, gamma_m=_positive,
    xi=_nonnegative, n_o=_nonnegative, n_m=_nonnegative,
)


@dataclass(frozen=True)
class TwoModeParams:
    """Beam-splitter/squeeze pair between two thermally driven modes."""

    g_plus: float
    g_minus: float
    gamma1: float
    gamma2: float
    n1: float = 0.0
    n2: float = 0.0

    def __post_init__(self):
        _check_fields(self, _TWO_MODE_FIELDS)

    @property
    def g_script(self) -> float:
        """Effective beam-splitter rate sqrt(g_minus^2 - g_plus^2)."""
        return hyperbolic_frame(self.g_plus, self.g_minus)[0]

    @property
    def xi(self) -> float:
        """Frame parameter arctanh(g_plus / g_minus)."""
        return hyperbolic_frame(self.g_plus, self.g_minus)[1]


@dataclass(frozen=True)
class ParametricParams:
    """Two-mode pair augmented with single-mode parametric rates."""

    g_plus: float
    g_minus: float
    gamma1: float
    gamma2: float
    eta1: float = 0.0
    eta2: float = 0.0
    n1: float = 0.0
    n2: float = 0.0

    def __post_init__(self):
        _check_fields(self, _PARAMETRIC_FIELDS)

    @property
    def delta_eta(self) -> float:
        return self.eta1 - self.eta2


@dataclass(frozen=True)
class ThreeModeParams:
    """Cavity plus two equally damped mechanical modes.

    g_script and xi parameterize the matched coupling pair on each
    mechanical mode (amplitudes g_script cosh xi / sqrt2 and
    g_script sinh xi / sqrt2); omega is the detuning split (+omega/2 on
    the first mechanical mode, -omega/2 on the second).
    """

    g_script: float
    omega: float
    kappa: float
    gamma_m: float
    xi: float = 0.0
    n_o: float = 0.0
    n_m: float = 0.0

    def __post_init__(self):
        _check_fields(self, _THREE_MODE_FIELDS)

    @classmethod
    def from_sidebands(
        cls,
        g_plus: float,
        g_minus: float,
        omega: float,
        kappa: float,
        gamma_m: float,
        n_o: float = 0.0,
        n_m: float = 0.0,
    ) -> "ThreeModeParams":
        """Build from the raw sideband rates of the coupling pair."""
        g_script, xi = hyperbolic_frame(
            _nonnegative("g_plus", g_plus), _nonnegative("g_minus", g_minus)
        )
        return cls(
            g_script=g_script,
            omega=omega,
            kappa=kappa,
            gamma_m=gamma_m,
            xi=xi,
            n_o=n_o,
            n_m=n_m,
        )


def two_mode_network(p: TwoModeParams | ParametricParams) -> NetworkSpec:
    """The physical two-mode network with thermal baths."""
    return _network(
        _TWO_MODE_SLOTS,
        (p.g_minus, p.g_plus),
        (BathSpec(p.gamma1, p.n1), BathSpec(p.gamma2, p.n2)),
    )


def parametric_network(p: ParametricParams) -> NetworkSpec:
    """Two-mode network plus the single-mode parametric terms.

    A parametric rate eta softening the X decay to (gamma - eta)/2
    corresponds to the Hamiltonian coefficient -i eta / 4 in the
    degenerate-parametric convention used by the builder.
    """
    return _network(
        _PARAMETRIC_SLOTS,
        (p.g_minus, p.g_plus, -0.25j * p.eta1, -0.25j * p.eta2),
        (BathSpec(p.gamma1, p.n1), BathSpec(p.gamma2, p.n2)),
    )


@dataclass(frozen=True, eq=False)
class QuadratureBlock:
    """One closed 2x2 quadrature pair: drift, noise power, labels."""

    drift: np.ndarray
    noise: np.ndarray
    labels: tuple[str, str]


def parametric_blocks(p) -> tuple[QuadratureBlock, QuadratureBlock]:
    """The two commuting quadrature pairs (X1, Y2) and (X2, Y1).

    Each pair evolves independently: the parametric terms shift the
    damping of X_i to (gamma_i - eta_i) and of Y_i to (gamma_i + eta_i),
    while the couplings enter as g_diff and -g_sum off-diagonals. The
    noise powers keep the physical gamma_i (the parametric term is
    Hamiltonian and does not touch the input ports).

    ``p`` is one ParametricParams, or a sequence of them for stacked
    blocks of shape (P, 2, 2).
    """
    single = isinstance(p, ParametricParams)
    blocks = _quadrature_blocks(*_columns([p] if single else list(p), _PARAMETRIC_FIELDS))
    if single:
        return tuple(replace(b, drift=b.drift[0], noise=b.noise[0]) for b in blocks)
    return blocks


def _quadrature_blocks(
    g_plus, g_minus, gamma1, gamma2, eta1, eta2, n1, n2
) -> tuple[QuadratureBlock, QuadratureBlock]:
    """parametric_blocks of the columns (P,) of ParametricParams' fields."""
    gs, gd = g_minus + g_plus, g_minus - g_plus
    v1, v2 = n1 + 0.5, n2 + 0.5

    def block(decay_x, decay_y, noise_x, noise_y, labels) -> QuadratureBlock:
        drift = np.empty((len(gs), 2, 2))
        drift[:, 0, 0], drift[:, 0, 1] = -decay_x / 2.0, gd
        drift[:, 1, 0], drift[:, 1, 1] = -gs, -decay_y / 2.0
        noise = np.zeros((len(gs), 2, 2))
        noise[:, 0, 0], noise[:, 1, 1] = noise_x, noise_y
        return QuadratureBlock(drift=drift, noise=noise, labels=labels)

    return (
        block(gamma1 - eta1, gamma2 + eta2, gamma1 * v1, gamma2 * v2, ("X1", "Y2")),
        block(gamma2 - eta2, gamma1 + eta1, gamma2 * v2, gamma1 * v1, ("X2", "Y1")),
    )


@dataclass(frozen=True)
class SqueezingPowerResult:
    """Normalized minimal variances of the two physical modes.

    norm_var_i = min over theta of the steady variance of mode i's
    quadrature, divided by its own input variance n_i + 1/2. The sum is
    bounded below by 1. alpha_normalized_variance is the hyperbolic
    frame's collective-mode ratio, normalized to the minimal input
    quadrature variance (n_2 + 1/2) exp(-2 xi) of that frame.

    With equal damping gamma the quadratures split into the independent
    pairs (X1, Y2) and (X2, Y1), and with G = g_script and
    v_i = n_i + 1/2 the result has the closed form

        norm_var1 = [2 G^2 (v1 + v2 e^(-2 xi)) + gamma^2 v1] / ((4 G^2 + gamma^2) v1)
        norm_var2 = [2 G^2 (v2 + v1 e^(-2 xi)) + gamma^2 v2] / ((4 G^2 + gamma^2) v2).

    For n1 = n2 the sum is
    1 + e^(-2 xi) 4 G^2 / (4 G^2 + gamma^2) + gamma^2 / (4 G^2 + gamma^2).
    At fixed xi it tends to 1 + e^(-2 xi) as G / gamma grows, so the
    bound 1 is reached only as G / gamma and xi grow together. Measured
    against it at gamma = 1 with vacuum inputs, norm_var1 is within 1e-10
    and the sum within 1.1e-10 at G in {0.5, 1, 5, 50} for xi up to 6,
    and at xi = 7 for G <= 5. Past that the solve's forward error shows:
    G = 50 at xi = 7 breaks the doubled structure of V (defect 2.1e-6
    against the 1e-6 limit) and is refused.
    """

    norm_var1: float
    norm_var2: float
    sum: float
    slack: float
    alpha_normalized_variance: float


def two_mode_squeezing_power(p: TwoModeParams) -> SqueezingPowerResult:
    """Minimal normalized variances via two independent routes.

    The direct route solves the physical steady state and minimizes
    each mode's variance over angle. The frame route moves to the
    hyperbolic frame (pure beam splitter, anomalous inputs), rotates to
    the gauge with a real drift, and reassembles mode 1's variance from
    the commutator shares. Both must agree on the first mode to 1e-10;
    disagreement means a solver or bookkeeping defect. The direct route
    reads each mode through the mirror mean of V (see ``steady``), which
    drops the mirror-odd part of the solve's forward error; read from one
    entry, that part alone splits the routes by up to 3e-6 at xi >= 4.5.

    For equal damping the result matches the closed form stated on
    SqueezingPowerResult: the sum tends to 1 + e^(-2 xi) at strong
    coupling and fixed xi, and approaches the bound 1 only as G / gamma
    and xi grow together. This is the one-point call of squeezing_powers.
    """
    return squeezing_powers([p])[0]


def squeezing_powers(ps: Sequence[TwoModeParams]) -> list[SqueezingPowerResult]:
    """two_mode_squeezing_power at every point of a grid, as one batch.

    The physical drifts, their frames T A T^-1 (one T per point, as xi
    varies) and the frame budgets are stacks, each solved in one call;
    both routes and their agreement check run at every point, and the
    first failing point raises.
    """
    if not ps:
        return []
    norm_var1, norm_var2, alpha_ratio = _squeezing(*_columns(ps, _TWO_MODE_FIELDS))
    total = norm_var1 + norm_var2
    return [
        SqueezingPowerResult(
            norm_var1=a, norm_var2=b, sum=t, slack=slack, alpha_normalized_variance=r
        )
        for a, b, t, slack, r in zip(
            norm_var1.tolist(), norm_var2.tolist(), total.tolist(),
            (total - 1.0).tolist(), alpha_ratio.tolist(),
        )
    ]


def _squeezing(g_plus, g_minus, gamma1, gamma2, n1, n2) -> tuple[np.ndarray, ...]:
    """(norm_var1, norm_var2, alpha_normalized_variance) of squeezing_powers
    at the valid columns (P,) of TwoModeParams' fields, P >= 1."""
    xis = [hyperbolic_frame(gp, gm)[1] for gp, gm in zip(g_plus.tolist(), g_minus.tolist())]
    ss = family_state_space(
        _TWO_MODE_SLOTS, (g_minus, g_plus), np.stack([gamma1, gamma2], axis=-1)
    )
    occupancy = np.stack([n1, n2], axis=-1)
    inputs = InputMoments(occupancy, np.zeros(occupancy.shape, dtype=complex))
    cov = steady_covariance(ss, inputs)
    v1, v2 = n1 + 0.5, n2 + 0.5
    norm_var1 = min_variances(cov, 0) / v1
    norm_var2 = min_variances(cov, 1) / v2

    # hyperbolic frame on mode 1, then a quarter turn to the real gauge
    gauge = MomentTransform.rotation(2, 1, math.pi / 2.0).compose(
        MomentTransform.bogoliubov(2, 1, xis)
    )
    gss = gauge.apply_to_state_space(ss)
    gbudget = compute_budget(gss)
    ginputs = gauge.apply_to_inputs(inputs)
    # the frame channel's anomalous part is negative real in this gauge,
    # so theta = 0 is the quiet angle for both modes
    split = variance_decomposition(gss, gbudget, ginputs, theta=0.0)
    gap = np.abs(split[:, 0] / v1 - norm_var1)
    failed = first_failure(gap <= ROUTE_AGREEMENT_TOL)
    if failed is not None:
        raise NumericsError(
            "direct and frame routes disagree on the mode-1 variance",
            estimate=float(gap[failed]),
        )
    alpha_ratio = split[:, 1] / (v2 * np.array([math.exp(-2.0 * xi) for xi in xis]))
    return norm_var1, norm_var2, alpha_ratio


def _pair_bound(gamma1, gamma2, de):
    """(S^2 - d*de) / (S^2 - de^2) with S = gamma1 + gamma2 and
    d = gamma1 - gamma2; |de| >= S is the stability boundary. Numbers or
    arrays of one shape. The first point on or past the boundary raises
    StabilityError, and the first whose S^2 overflows NumericsError; if
    none does, the first whose bound is not finite raises NumericsError."""
    s = gamma1 + gamma2
    d = gamma1 - gamma2
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        s_squared = s * s
        denominator = s_squared - de * de
        k = first_failure(np.isfinite(s_squared) & (denominator > 0))
        if k is None:
            bound = (s_squared - d * de) / denominator
            k = first_failure(np.isfinite(bound))
            if k is None:
                return bound
    s_k = np.ravel(s)[k]
    if np.isfinite(np.ravel(s_squared)[k]) and not np.ravel(denominator)[k] > 0:
        raise StabilityError(
            f"|eta1 - eta2| = {abs(np.ravel(de)[k]):g} reaches the stability "
            f"boundary gamma1 + gamma2 = {s_k:g}"
        )
    raise NumericsError(f"the pair bound overflows a float at gamma1 + gamma2 = {s_k:g}")


def parametric_bound(p: ParametricParams) -> float:
    """Paired-sum lower bound with parametric rate splitting.

    Evaluates (S^2 - d*de) / (S^2 - de^2) with S = gamma1 + gamma2,
    d = gamma1 - gamma2, de = eta1 - eta2. This equals the sum of the
    per-quadrature floors of the {Y1, Y2} pair; the {X1, X2} pair obeys
    the same expression with de negated.
    """
    return _pair_bound(p.gamma1, p.gamma2, p.delta_eta)


@dataclass(frozen=True)
class ParametricOptimum:
    delta_eta_star: float
    min_value: float
    numeric_min_value: float


def parametric_optimum(gamma1: float, gamma2: float) -> ParametricOptimum:
    """Closed-form optimal rate split, cross-checked numerically.

    The bound is minimized at
    delta_eta = (gamma1 + gamma2)(sqrt g1 - sqrt g2)/(sqrt g1 + sqrt g2)
    with value 1/2 + sqrt(gamma1 gamma2)/(gamma1 + gamma2). A golden
    section minimization over the stability interval must reproduce the
    value to 1e-9.
    """
    gamma1 = _positive("gamma1", gamma1)
    gamma2 = _positive("gamma2", gamma2)
    s = gamma1 + gamma2
    r1, r2 = math.sqrt(gamma1), math.sqrt(gamma2)
    star = s * (r1 - r2) / (r1 + r2)
    value = 0.5 + r1 * r2 / s
    edge = s * (1.0 - 1e-9)
    # the minimum is the maximum of the negated bound, from one search
    _, (neg_value,) = golden_sections_max(
        lambda des: (-_pair_bound(gamma1, gamma2, np.array(des))).tolist(),
        [-edge], [edge], rel_tol=1e-12,
    )
    numeric_value = -neg_value
    if not abs(numeric_value - value) <= 1e-9:
        raise NumericsError(
            "numeric minimization disagrees with the closed-form optimum",
            estimate=abs(numeric_value - value),
        )
    return ParametricOptimum(
        delta_eta_star=star,
        min_value=value,
        numeric_min_value=numeric_value,
    )


@dataclass(frozen=True)
class PairedVarianceReport:
    """Steady quadrature ratios against their parametric floors.

    ratio_x1 and ratio_y1 are mode 1's variances over n1 + 1/2; min_slack
    is the least margin over the four quadrature floors and two pair bounds.
    """

    ratio_x1: float
    ratio_y1: float
    sum_x: float
    sum_y: float
    sum_x_bound: float
    sum_y_bound: float
    min_slack: float


def parametric_variance_check(p: ParametricParams) -> PairedVarianceReport:
    """Solve both quadrature pairs and compare against the floors.

    The (X1, Y2) pair shares the shifted total damping S - de and the
    (X2, Y1) pair shares S + de, so the per-quadrature floors read
    gamma_i / (S -+ de) and the pair sums are bounded by the expression
    of parametric_bound at +-de. This is the one-point call of
    parametric_variance_checks.
    """
    return parametric_variance_checks([p])[0]


def parametric_variance_checks(
    ps: Sequence[ParametricParams],
) -> list[PairedVarianceReport]:
    """parametric_variance_check at every point of a grid: each quadrature
    pair is one stacked solve, and the first unstable point raises."""
    if not ps:
        return []
    columns = _paired_variances(*_columns(ps, _PARAMETRIC_FIELDS))
    return [PairedVarianceReport(*row) for row in zip(*(c.tolist() for c in columns))]


def _paired_variances(
    g_plus, g_minus, gamma1, gamma2, eta1, eta2, n1, n2
) -> tuple[np.ndarray, ...]:
    """The fields of parametric_variance_checks' reports, as columns (P,),
    at the valid columns (P,) of ParametricParams' fields, P >= 1."""
    variances = {}
    blocks = _quadrature_blocks(g_plus, g_minus, gamma1, gamma2, eta1, eta2, n1, n2)
    for block in blocks:
        try:
            w = solve_lyapunov(block.drift, block.noise.astype(complex))
        except StabilityError as exc:
            raise StabilityError(
                f"quadrature block {block.labels}: {exc}", eigenvalue=exc.eigenvalue
            ) from exc
        variances[block.labels[0]] = w[:, 0, 0].real
        variances[block.labels[1]] = w[:, 1, 1].real
    v1, v2 = n1 + 0.5, n2 + 0.5
    x1, y1 = variances["X1"] / v1, variances["Y1"] / v1
    x2, y2 = variances["X2"] / v2, variances["Y2"] / v2
    s = gamma1 + gamma2
    de = eta1 - eta2
    sum_x, sum_y = x1 + x2, y1 + y2
    sum_x_bound = _pair_bound(gamma1, gamma2, -de)
    sum_y_bound = _pair_bound(gamma1, gamma2, de)
    min_slack = np.min([
        x1 - gamma1 / (s - de),
        y1 - gamma1 / (s + de),
        x2 - gamma2 / (s + de),
        y2 - gamma2 / (s - de),
        sum_x - sum_x_bound,
        sum_y - sum_y_bound,
    ], axis=0)
    return x1, y1, sum_x, sum_y, sum_x_bound, sum_y_bound, min_slack


def three_mode_physical_network(p: ThreeModeParams) -> NetworkSpec:
    """Cavity (mode 0) driving two detuned mechanical modes (1, 2)."""
    cosh, sinh = cosh_sinh(p.xi)
    return _network(
        _THREE_MODE_SLOTS,
        _three_mode_amplitudes(p.g_script, p.omega, cosh, sinh),
        (
            BathSpec(p.kappa, p.n_o),
            BathSpec(p.gamma_m, p.n_m),
            BathSpec(p.gamma_m, p.n_m),
        ),
    )


def three_mode_transform(xi: float) -> MomentTransform:
    """Physical (a1, a2, a3) to frame (a1, alpha_Sigma, alpha_Delta).

    Cross-hyperbolic mixing of the two mechanical modes followed by
    their sum/difference combination; one exact symplectic map.
    """
    return MomentTransform.mixer(3, 1, 2).compose(
        MomentTransform.two_mode_bogoliubov(3, 1, 2, xi)
    )


@dataclass(frozen=True, eq=False)
class ThreeModeBudget:
    """The occupancy-independent part of the three-mode scheme.

    transfer is the frame-channel transfer matrix I, ordered (cavity,
    Sigma, Delta); eta_e and mechanical are its two figures of merit
    (see three_mode_budget); physical is the physical-frame state space
    the frame was derived from. The record of P schemes
    (three_mode_budgets) carries the leading axis: transfer (P, 3, 3),
    eta_e and mechanical (P,), and the stacked state space.
    """

    transfer: np.ndarray
    eta_e: float | np.ndarray
    mechanical: float | np.ndarray
    physical: StateSpace


def three_mode_budget(p: ThreeModeParams) -> ThreeModeBudget:
    """Commutator shares in the collective frame, plus eta_e and its complement.

    The frame drift is the exact symplectic transform of the physical
    one: two plain beam splitters, the cavity exchanging with Sigma at
    g_script and Sigma with Delta at omega / 2. The shares need no bath
    moments, so none are mapped.

    eta_e = I[1,0] + I[2,0] is the part of the cavity channel's
    commutator that reaches the mechanical pair, and mechanical =
    I[1,1] + I[1,2] + I[2,1] + I[2,2] is what the mechanical channels
    keep there. The frame network is passive, so the damping rule makes
    eta_e equal to (kappa / gamma_m)(1 - I[0,0]) and completeness of rows
    1 and 2 makes mechanical equal to 2 - eta_e. Both are formed as plain
    sums of shares, without those cancellations, so they keep full
    relative accuracy at high mechanical Q (checked down to
    gamma_m / kappa = 1e-12).

    This is the one-point call of three_mode_budgets.
    """
    stack = three_mode_budgets([p])
    (physical,) = stack.physical.members()
    return ThreeModeBudget(
        transfer=stack.transfer[0],
        eta_e=float(stack.eta_e[0]),
        mechanical=float(stack.mechanical[0]),
        physical=physical,
    )


def three_mode_budgets(ps: Sequence[ThreeModeParams]) -> ThreeModeBudget:
    """three_mode_budget of P schemes, as one stacked record.

    The schemes are prepared once (_Schemes: the frame transform of their
    xi, cosh and sinh of xi, the dampings) and evaluated once at their
    g_script, as a coupling search evaluates them at every step. The
    physical drifts, their frames and the frame budgets are stacks, each
    solved in one call; the sum rules are checked at every point, and the
    first failing point raises. An empty sequence raises DimensionError.
    """
    if not ps:
        raise DimensionError("three_mode_budgets needs at least one scheme")
    g_script, omega, kappa, gamma_m, xi = _columns(
        ps, ("g_script", "omega", "kappa", "gamma_m", "xi")
    )
    return _Schemes(omega, kappa, gamma_m, xi).budgets(g_script)


class _Schemes:
    """P three-mode schemes prepared for their coupling g_script: the one
    source of every three-mode frame budget, of a grid or of a coupling
    search step.

    Built from the valid columns (P,) of omega, kappa, gamma_m and xi, it
    holds what no coupling changes: the frame transform of xi
    (three_mode_transform, which keeps its inverse and size), the
    _cosh_sinh_columns of xi, and the dampings (P, 3). ``budgets`` forms
    what depends on g_script: the physical drifts, their frames, the
    budget solve and the sum rules of the whole stack, with every check
    of each, so a search step has the bits and the refusals of a budget
    built from scratch.
    """

    def __init__(self, omega, kappa, gamma_m, xi):
        self.omega = omega
        self.frame = three_mode_transform(xi.tolist())
        self.cosh, self.sinh = _cosh_sinh_columns(xi)
        self.gammas = np.stack([kappa, gamma_m, gamma_m], axis=-1)
        for held in (self.omega, self.cosh, self.sinh, self.gammas):
            held.flags.writeable = False
        # the held columns and the frame of k stacks of the schemes, by k
        self._stacks = {1: (self.omega, self.cosh, self.sinh, self.gammas, self.frame)}

    def _stack(self, k: int) -> tuple:
        """The held columns tiled k times, and the frame of k stacks: the
        held one for one scheme, where it broadcasts, else the tiled one;
        formed once per k and kept, read-only."""
        if k not in self._stacks:
            omega, cosh, sinh = (np.tile(held, k) for held in (self.omega, self.cosh, self.sinh))
            gammas = np.tile(self.gammas, (k, 1))
            for held in (omega, cosh, sinh, gammas):
                held.flags.writeable = False
            frame = (
                self.frame if len(self.omega) == 1
                else MomentTransform(np.tile(self.frame.matrix, (k, 1, 1)))
            )
            self._stacks[k] = (omega, cosh, sinh, gammas, frame)
        return self._stacks[k]

    def budgets(self, g_script) -> ThreeModeBudget:
        """The stacked ThreeModeBudget at the couplings g_script (k P,):
        k stacks of the P schemes, coupling j P + i on scheme i (_stack)."""
        omega, cosh, sinh, gammas, frame = self._stack(len(g_script) // len(self.omega))
        physical = family_state_space(
            _THREE_MODE_SLOTS, _three_mode_amplitudes(g_script, omega, cosh, sinh), gammas
        )
        stack = compute_budget(frame.apply_to_state_space(physical))
        failed = next((rules for rules in verify_sum_rules(stack) if not rules.passed), None)
        if failed is not None:
            worst = max(failed.completeness_residual, failed.metric_residual)
            raise NumericsError("budget sum rules failed in the frame", estimate=worst)
        shares = stack.transfer
        return ThreeModeBudget(
            transfer=shares,
            eta_e=shares[:, 1, 0] + shares[:, 2, 0],
            mechanical=shares[:, 1, 1] + shares[:, 1, 2] + shares[:, 2, 1] + shares[:, 2, 2],
            physical=physical,
        )


@dataclass(frozen=True)
class DuanResult:
    direct: float
    budget: float
    entangled: bool
    pairing: str


def _collective_variances(vq: np.ndarray, weights: dict[int, float]) -> np.ndarray:
    """vec^T vq vec for each quadrature covariance of a stack (P, 2N, 2N)."""
    vec = np.zeros(vq.shape[-1])
    for index, weight in weights.items():
        vec[index] = weight
    # each slice a (1, 2N) by (2N, 1) product: numpy takes the dot product
    # of vec @ vq @ vec there, so a stack member has the bits of one point
    rows = (vec @ vq)[..., None, :]
    return (rows @ vec[:, None])[..., 0, 0]


def duan_quantity(p: ThreeModeParams) -> DuanResult:
    """Duan sum for the mechanical pair, via two routes.

    Direct: steady covariance in the physical frame; the collective
    quadratures X_Sigma = (X2 + X3)/sqrt2 and P_Delta = (Y2 - Y3)/sqrt2
    (or the conjugate pairing, whichever is quieter) are read off the
    quadrature covariance. Budget: the frame transfer matrix weights
    the mechanical and optical occupancies, with the optical term
    carrying exp(-2 xi). Values below 1 certify entanglement. This is
    the one-point call of duan_quantities.
    """
    return duan_quantities([p])[0]


def duan_quantities(ps: Sequence[ThreeModeParams]) -> list[DuanResult]:
    """duan_quantity at every point, as one batch: one stacked frame
    budget (three_mode_budgets) and one stacked solve of the channel
    kernels of the physical drifts (thermal_covariance), with every point
    checked against its own budget."""
    if not ps:
        return []
    xi, n_o, n_m = _columns(ps, ("xi", "n_o", "n_m"))
    direct, budget, quiet = _duan(three_mode_budgets(ps), xi, n_o, n_m)
    return [
        DuanResult(
            direct=value,
            budget=total,
            entangled=value < 1.0,
            pairing="x_sigma_p_delta" if first else "p_sigma_x_delta",
        )
        for value, total, first in zip(direct.tolist(), budget.tolist(), quiet.tolist())
    ]


def _duan(budget: ThreeModeBudget, xi, n_o: np.ndarray, n_m: np.ndarray) -> tuple:
    """The columns (P,) of the direct Duan value, the budget value and
    whether (X_Sigma, P_Delta) is the quieter pairing, at the occupancy
    columns n_o and n_m (P,), which are valid occupancies. ``budget`` is
    one scheme's, whose drift then serves every point, or a stack of P,
    point i with member i; ``xi`` is that scheme's or one per point. The
    direct route reads V off the thermal channel kernels of the physical
    drift (thermal_covariance), which the state space keeps, so the
    batches of one grid solve them once. Every point keeps its checks,
    the steady state's guards and the 1e-8 agreement of the direct route
    with the budget included; the first failing point raises."""
    inputs = InputMoments.thermal(np.stack([n_o, n_m, n_m], axis=-1))
    vq = thermal_covariance(budget.physical, inputs).quadrature_matrix()
    r = 1.0 / math.sqrt(2.0)
    # quadrature ordering (X1, X2, X3, Y1, Y2, Y3)
    x_sigma = _collective_variances(vq, {1: r, 2: r})
    p_delta = _collective_variances(vq, {4: r, 5: -r})
    p_sigma = _collective_variances(vq, {4: r, 5: r})
    x_delta = _collective_variances(vq, {1: r, 2: -r})
    first = x_sigma + p_delta
    second = p_sigma + x_delta
    quiet = first <= second
    direct = np.where(quiet, first, second)
    decay = np.array([math.exp(-2.0 * x) for x in np.ravel(xi)])
    budget_value = budget.mechanical * (n_m + 0.5) + budget.eta_e * (n_o + 0.5) * decay
    gap = np.abs(budget_value - direct)
    failed = first_failure(gap <= DUAN_AGREEMENT_TOL)
    if failed is not None:
        raise NumericsError(
            "direct and budget routes disagree on the Duan quantity",
            estimate=float(gap[failed]),
        )
    return direct, budget_value, quiet


@dataclass(frozen=True)
class BoundaryLine:
    """Separability line n_m = slope * (n_o - n_o_intercept)."""

    slope: float
    n_o_intercept: float
    n_m_intercept: float
    eta_e: float
    xi: float
    degenerate: bool

    def n_m_at(self, n_o: float) -> float:
        return self.slope * (n_o - self.n_o_intercept)


def _line(eta_e: float, mechanical: float, xi: float) -> BoundaryLine:
    """The boundary in the (n_o, n_m) plane from the cavity share eta_e
    and the mechanical share sum: the Duan budget
    mechanical (n_m + 1/2) + eta_e (n_o + 1/2) e^(-2 xi) equals 1 on it.
    An xi whose e^(2 xi) overflows (above about 354.9) raises
    NumericsError.
    """
    xi = _nonnegative("xi", xi)
    if not (0.0 <= eta_e < math.inf and 0.0 < mechanical < math.inf):
        raise ApplicabilityError(
            "the boundary line needs eta_e >= 0 and a positive mechanical "
            f"share sum, got eta_e = {eta_e:g} and {mechanical:g}"
        )
    slope = -eta_e * math.exp(-2.0 * xi) / mechanical
    try:
        n_o_intercept = 0.5 * (math.exp(2.0 * xi) - 1.0)
    except OverflowError as exc:  # e^(2 xi) beyond the float range
        raise NumericsError(f"xi = {xi:g} overflows the n_o intercept e^(2 xi)") from exc
    n_m_intercept = eta_e * (1.0 - math.exp(-2.0 * xi)) / (2.0 * mechanical)
    return BoundaryLine(
        slope=slope,
        n_o_intercept=n_o_intercept,
        n_m_intercept=n_m_intercept,
        eta_e=eta_e,
        xi=xi,
        degenerate=(n_o_intercept == 0.0 and n_m_intercept == 0.0),
    )


def boundary_line(eta_e: float, xi: float) -> BoundaryLine:
    """Closed-form boundary in the (n_o, n_m) occupancy plane.

    The case mechanical = 2 - eta_e of a passive scheme, so valid for
    eta_e in [0, 2); at xi = 0 both intercepts vanish and the boundary
    degenerates to the origin. The scheme's own line,
    separability_boundary, takes the mechanical share sum from the
    budget instead, because 2 - eta_e cancels at high mechanical Q.
    """
    return _line(eta_e, 2.0 - eta_e, xi)


def separability_boundary(p: ThreeModeParams, budget: ThreeModeBudget) -> BoundaryLine:
    """Boundary line of the scheme from its budget, three_mode_budget(p)
    (occupancies ignored)."""
    return _line(budget.eta_e, budget.mechanical, p.xi)


# the fields of an optimal_couplings point, with their checks
_SEARCH_FIELDS = dict(kappa=_positive, omega=_positive, gamma_m=_positive, xi=_nonnegative)


@dataclass(frozen=True)
class OptimalCoupling:
    g_formula: float
    g_numeric: float
    eta_e_formula: float
    eta_e_numeric: float


def optimal_coupling(
    kappa: float, omega: float, gamma_m: float, xi: float = 0.0
) -> OptimalCoupling:
    """Coupling that maximizes eta_e, formula versus numeric argmax.

    The closed form g^2 = (omega/2) sqrt(kappa^2 + 4 omega^2) is an
    approximation; the numeric route maximizes eta_e(g) by golden
    section (the frame network is passive, hence stable at every g, so
    the bracket is free to span several times the formula scale).
    ``g_numeric`` is accurate only to the search's rel_tol of 1e-6: the
    maximum is flat, so roundoff-level changes in eta_e move the argmax
    by about that much, and its digits beyond the sixth carry no meaning.
    This is the one-point call of optimal_couplings: a lone search looks
    three steps ahead (golden_sections_max), so each stacked frame budget
    holds the seven couplings its next three steps may visit, and the
    search visits the points, and has the bits, of the scalar loop.
    """
    return optimal_couplings([(kappa, omega, gamma_m, xi)])[0]


def optimal_couplings(
    points: Sequence[tuple[float, float, float, float]],
) -> list[OptimalCoupling]:
    """optimal_coupling at every point (kappa, omega, gamma_m, xi).

    The golden sections run in lockstep (golden_sections_max): each call
    evaluates k couplings of every search, stopped searches included, as
    one stacked frame budget of k P members (k = 7 for one search, the
    tree of its next three steps; 3 for two; 1, one step, from three on);
    the formula couplings take one more stacked budget. The schemes are
    prepared once per call (_Schemes: the frame transform of xi with its
    inverse and size, cosh and sinh of xi, the dampings, tiled for the k
    stacks), and a call forms only what depends on the coupling: the
    physical drifts, their frames, the budget solve and the sum rules,
    with every check of each. Each search visits the points it would
    visit alone, so its result has the same bits. If a batch of several
    searches raises, the searches are re-run one at a time, in order
    (batch_or_each), so the first failing point raises its own error; a
    lone search raises its error at once, without a second run.
    """
    if len(points) == 1:
        return _coupling_searches(points)
    return list(
        batch_or_each(points, _coupling_searches, lambda point: _coupling_searches([point])[0])
    )


def _coupling_searches(points) -> list[OptimalCoupling]:
    """optimal_couplings as one batch."""
    columns = np.array(points, dtype=float).reshape(len(points), 4).T
    _check_columns(_SEARCH_FIELDS, columns)
    if not len(points):
        return []
    kappa, omega, gamma_m, xi = columns
    # only g_script changes along a search: every step evaluates one
    # prepared stack of schemes
    schemes = _Schemes(omega, kappa, gamma_m, xi)

    def etas_at(gs) -> list[float]:
        # k stacks of the P schemes, coupling j P + i on scheme i
        return schemes.budgets(np.array(gs, dtype=float)).eta_e.tolist()

    g_formulas = [
        math.sqrt(0.5 * w * math.hypot(k, 2.0 * w))
        for k, w in zip(kappa.tolist(), omega.tolist())
    ]
    his = [
        8.0 * max(g, w, k) for g, k, w in zip(g_formulas, kappa.tolist(), omega.tolist())
    ]
    g_numerics, eta_numerics = golden_sections_max(
        etas_at, [0.0] * len(points), his, rel_tol=1e-6
    )
    eta_formulas = etas_at(g_formulas)
    return [
        OptimalCoupling(
            g_formula=g_formula,
            g_numeric=g_numeric,
            eta_e_formula=eta_formula,
            eta_e_numeric=eta_numeric,
        )
        for g_formula, g_numeric, eta_formula, eta_numeric in zip(
            g_formulas, g_numerics, eta_formulas, eta_numerics
        )
    ]


FIG1_HEADER = ("g_script", "xi", "gamma1", "gamma2", "norm_var1", "norm_var2", "sum")
FIG2_HEADER = ("delta_eta", "gamma1", "gamma2", "bound", "direct_sum")
FIG3_HEADER = ("n_o", "n_m", "duan_direct", "duan_budget", "entangled")


def fig1_point(
    g_script: float,
    xi: float,
    gamma1: float,
    gamma2: float,
    n1: float = 0.0,
    n2: float = 0.0,
) -> tuple:
    """One squeezing-power row keyed by (g_script, xi); the one-point call
    of fig1_rows."""
    return fig1_rows(g_script, xi, gamma1, gamma2, n1, n2)[0]


def fig1_rows(g_script, xi, gamma1, gamma2, n1=0.0, n2=0.0) -> list[tuple]:
    """fig1_point over a grid, as one batch (squeezing_powers). Each
    argument is a number or a sequence; sequences broadcast against each
    other and numbers repeat, so one swept parameter gives its rows in
    order. The point (g_script, xi, ...) is the TwoModeParams with
    g_plus = g_script sinh xi and g_minus = g_script cosh xi, and the
    first invalid point, in row order, raises as its record would."""
    g, x, a, b, c, d = _grid_columns(g_script, xi, gamma1, gamma2, n1, n2)
    cosh, sinh = _cosh_sinh_columns(x)
    columns = (g * sinh, g * cosh, a, b, c, d)
    _check_columns(_TWO_MODE_FIELDS, columns, before=lambda k: cosh_sinh(float(x[k])))
    if not g.size:
        return []
    norm_var1, norm_var2, _ = _squeezing(*columns)
    total = norm_var1 + norm_var2
    return list(zip(
        g.tolist(), x.tolist(), a.tolist(), b.tolist(),
        norm_var1.tolist(), norm_var2.tolist(), total.tolist(),
    ))


def fig2_point(
    delta_eta: float,
    gamma1: float,
    gamma2: float,
    g_minus: float,
    g_plus: float = 0.0,
    n1: float = 0.0,
    n2: float = 0.0,
) -> tuple:
    """One parametric-bound row; the rate split is symmetric, +-de/2. The
    one-point call of fig2_rows."""
    return fig2_rows(delta_eta, gamma1, gamma2, g_minus, g_plus, n1, n2)[0]


def fig2_rows(
    delta_eta, gamma1, gamma2, g_minus, g_plus=0.0, n1=0.0, n2=0.0
) -> list[tuple]:
    """fig2_point over a grid, as one batch (parametric_variance_checks);
    arguments broadcast as in fig1_rows. The point is the ParametricParams
    with eta1 = +delta_eta / 2 and eta2 = -delta_eta / 2, and the first
    invalid point, in row order, raises as its record would."""
    de, a, b, gm, gp, c, d = _grid_columns(
        delta_eta, gamma1, gamma2, g_minus, g_plus, n1, n2
    )
    columns = (gp, gm, a, b, 0.5 * de, -0.5 * de, c, d)
    _check_columns(_PARAMETRIC_FIELDS, columns)
    if not de.size:
        return []
    _, _, _, sum_y, _, sum_y_bound, _ = _paired_variances(*columns)
    return list(zip(
        de.tolist(), a.tolist(), b.tolist(), sum_y_bound.tolist(), sum_y.tolist()
    ))


def fig3_rows(p: ThreeModeParams, budget: ThreeModeBudget, n_o, n_m) -> list[tuple]:
    """Duan-plane rows at the occupancies (n_o, n_m); each is a number or
    a sequence, broadcast as in fig1_rows. The first negative or
    non-finite occupancy, in row order, raises ValidationError.

    ``budget`` is three_mode_budget(p). Its shares and physical state
    space depend on the scheme only, never on (n_o, n_m), so they serve
    every row, and the rows are one batch: one read of the thermal
    channel kernels of the physical drift, solved once for every batch
    of the grid, each row checked against the budget.
    """
    n_os, n_ms = _grid_columns(n_o, n_m)
    _check_columns(dict(n_o=_nonnegative, n_m=_nonnegative), (n_os, n_ms))
    if not n_os.size:
        return []
    direct, total, _ = _duan(budget, p.xi, n_os, n_ms)
    return list(zip(
        n_os.tolist(), n_ms.tolist(), direct.tolist(), total.tolist(), (direct < 1.0).tolist()
    ))
