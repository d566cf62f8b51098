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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ApplicabilityError,
    NumericsError,
    StabilityError,
    ValidationError,
)
from .linalg import golden_section_max, golden_section_min, solve_lyapunov
from .network import (
    BathSpec,
    InputMoments,
    MomentTransform,
    NetworkSpec,
    StateSpace,
    beam_splitter,
    build_state_space,
    degenerate_parametric,
    detuning,
    hyperbolic_frame,
    two_mode_squeeze,
)
from .budget import compute_budget, verify_sum_rules
from .steady import min_quadrature_variance, steady_covariance, variance_decomposition

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


def _check_fields(record, **checks) -> None:
    """Replace each named field of a frozen record by ``check(name, value)``."""
    for name, check in checks.items():
        object.__setattr__(record, name, check(name, getattr(record, name)))


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
        _check_fields(
            self, g_plus=_nonnegative, g_minus=_nonnegative, gamma1=_positive,
            gamma2=_positive, n1=_nonnegative, n2=_nonnegative,
        )

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
        _check_fields(
            self, g_plus=_nonnegative, g_minus=_nonnegative, gamma1=_positive,
            gamma2=_positive, eta1=_finite, eta2=_finite, n1=_nonnegative,
            n2=_nonnegative,
        )

    @property
    def delta_eta(self) -> float:
        return self.eta1 - self.eta2

    @property
    def g_sum(self) -> float:
        return self.g_minus + self.g_plus

    @property
    def g_diff(self) -> float:
        return self.g_minus - self.g_plus


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
        _check_fields(
            self, g_script=_nonnegative, omega=_finite, kappa=_positive,
            gamma_m=_positive, xi=_nonnegative, n_o=_nonnegative, n_m=_nonnegative,
        )

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
    couplings = []
    if p.g_minus:
        couplings.append(beam_splitter(p.g_minus, 0, 1))
    if p.g_plus:
        couplings.append(two_mode_squeeze(p.g_plus, 0, 1))
    return NetworkSpec(
        n_modes=2,
        baths=(BathSpec(p.gamma1, p.n1), BathSpec(p.gamma2, p.n2)),
        couplings=tuple(couplings),
    )


def parametric_network(p: ParametricParams) -> NetworkSpec:
    """Two-mode network plus the single-mode parametric terms.

    A parametric rate eta softening the X decay to (gamma - eta)/2
    corresponds to the Hamiltonian coefficient -i eta / 4 in the
    degenerate-parametric convention used by the builder.
    """
    base = two_mode_network(p)
    couplings = list(base.couplings)
    if p.eta1:
        couplings.append(degenerate_parametric(-0.25j * p.eta1, 0))
    if p.eta2:
        couplings.append(degenerate_parametric(-0.25j * p.eta2, 1))
    return NetworkSpec(n_modes=2, baths=base.baths, couplings=tuple(couplings))


@dataclass(frozen=True, eq=False)
class QuadratureBlock:
    """One closed 2x2 quadrature pair: drift, noise power, labels."""

    drift: np.ndarray
    noise: np.ndarray
    labels: tuple[str, str]


def parametric_blocks(p: ParametricParams) -> tuple[QuadratureBlock, QuadratureBlock]:
    """The two commuting quadrature pairs (X1, Y2) and (X2, Y1).

    Each pair evolves independently: the parametric terms shift the
    damping of X_i to (gamma_i - eta_i) and of Y_i to (gamma_i + eta_i),
    while the couplings enter as g_diff and -g_sum off-diagonals. The
    noise powers keep the physical gamma_i (the parametric term is
    Hamiltonian and does not touch the input ports).
    """
    gs, gd = p.g_sum, p.g_diff
    v1, v2 = p.n1 + 0.5, p.n2 + 0.5
    a1 = np.array(
        [
            [-(p.gamma1 - p.eta1) / 2.0, gd],
            [-gs, -(p.gamma2 + p.eta2) / 2.0],
        ]
    )
    q1 = np.diag([p.gamma1 * v1, p.gamma2 * v2])
    a2 = np.array(
        [
            [-(p.gamma2 - p.eta2) / 2.0, gd],
            [-gs, -(p.gamma1 + p.eta1) / 2.0],
        ]
    )
    q2 = np.diag([p.gamma2 * v2, p.gamma1 * v1])
    return (
        QuadratureBlock(drift=a1, noise=q1, labels=("X1", "Y2")),
        QuadratureBlock(drift=a2, noise=q2, labels=("X2", "Y1")),
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
    bound 1 is reached only as G / gamma and xi grow together.
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
    disagreement means a solver or bookkeeping defect.

    For equal damping the result matches the closed form stated on
    SqueezingPowerResult: the sum tends to 1 + e^(-2 xi) at strong
    coupling and fixed xi, and approaches the bound 1 only as G / gamma
    and xi grow together.
    """
    xi = p.xi
    spec = two_mode_network(p)
    ss = build_state_space(spec)
    inputs = InputMoments.from_baths(spec)
    cov = steady_covariance(ss, inputs)
    v1, v2 = p.n1 + 0.5, p.n2 + 0.5
    norm_var1 = min_quadrature_variance(cov, 0).value / v1
    norm_var2 = min_quadrature_variance(cov, 1).value / v2

    # hyperbolic frame on mode 1, then a quarter turn to the real gauge
    gauge = MomentTransform.rotation(2, 1, math.pi / 2.0).compose(
        MomentTransform.bogoliubov(2, 1, xi)
    )
    gss = gauge.apply_to_state_space(ss)
    gbudget = compute_budget(gss)
    ginputs = gauge.apply_to_inputs(inputs)
    # the frame channel's anomalous part is negative real in this gauge,
    # so theta = 0 is the quiet angle for both modes
    split = variance_decomposition(gss, gbudget, ginputs, theta=0.0)
    frame_var1 = float(split[0]) / v1
    if not abs(frame_var1 - norm_var1) <= ROUTE_AGREEMENT_TOL:
        raise NumericsError(
            "direct and frame routes disagree on the mode-1 variance",
            estimate=abs(frame_var1 - norm_var1),
        )
    alpha_ratio = float(split[1]) / (v2 * math.exp(-2.0 * xi))

    total = norm_var1 + norm_var2
    return SqueezingPowerResult(
        norm_var1=norm_var1,
        norm_var2=norm_var2,
        sum=total,
        slack=total - 1.0,
        alpha_normalized_variance=alpha_ratio,
    )


def _pair_bound(gamma1: float, gamma2: float, de: float) -> float:
    """(S^2 - d*de) / (S^2 - de^2) with S = gamma1 + gamma2 and
    d = gamma1 - gamma2; |de| >= S is the stability boundary."""
    s = gamma1 + gamma2
    d = gamma1 - gamma2
    denominator = s * s - de * de
    if denominator <= 0:
        raise StabilityError(
            f"|eta1 - eta2| = {abs(de):g} reaches the stability boundary "
            f"gamma1 + gamma2 = {s:g}"
        )
    return (s * s - d * de) / denominator


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
    _, numeric_value = golden_section_min(
        lambda de: _pair_bound(gamma1, gamma2, de), -edge, edge, rel_tol=1e-12
    )
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
    of parametric_bound at +-de.
    """
    variances = {}
    for block in parametric_blocks(p):
        try:
            w = solve_lyapunov(block.drift, block.noise.astype(complex))
        except StabilityError as exc:
            raise StabilityError(
                f"quadrature block {block.labels}: {exc}", eigenvalue=exc.eigenvalue
            ) from exc
        variances[block.labels[0]] = float(w[0, 0].real)
        variances[block.labels[1]] = float(w[1, 1].real)
    v1, v2 = p.n1 + 0.5, p.n2 + 0.5
    x1, y1 = variances["X1"] / v1, variances["Y1"] / v1
    x2, y2 = variances["X2"] / v2, variances["Y2"] / v2
    s = p.gamma1 + p.gamma2
    de = p.delta_eta
    sum_x, sum_y = x1 + x2, y1 + y2
    sum_x_bound = _pair_bound(p.gamma1, p.gamma2, -de)
    sum_y_bound = _pair_bound(p.gamma1, p.gamma2, de)
    slacks = (
        x1 - p.gamma1 / (s - de),
        y1 - p.gamma1 / (s + de),
        x2 - p.gamma2 / (s + de),
        y2 - p.gamma2 / (s - de),
        sum_x - sum_x_bound,
        sum_y - sum_y_bound,
    )
    return PairedVarianceReport(
        ratio_x1=x1,
        ratio_y1=y1,
        sum_x=sum_x,
        sum_y=sum_y,
        sum_x_bound=sum_x_bound,
        sum_y_bound=sum_y_bound,
        min_slack=float(min(slacks)),
    )


def three_mode_physical_network(p: ThreeModeParams) -> NetworkSpec:
    """Cavity (mode 0) driving two detuned mechanical modes (1, 2)."""
    g_minus = p.g_script * math.cosh(p.xi) / math.sqrt(2.0)
    g_plus = p.g_script * math.sinh(p.xi) / math.sqrt(2.0)
    couplings = []
    for mech in (1, 2):
        if g_minus:
            couplings.append(beam_splitter(g_minus, 0, mech))
        if g_plus:
            couplings.append(two_mode_squeeze(g_plus, 0, mech))
    if p.omega:
        couplings.append(detuning(+0.5 * p.omega, 1))
        couplings.append(detuning(-0.5 * p.omega, 2))
    return NetworkSpec(
        n_modes=3,
        baths=(
            BathSpec(p.kappa, p.n_o),
            BathSpec(p.gamma_m, p.n_m),
            BathSpec(p.gamma_m, p.n_m),
        ),
        couplings=tuple(couplings),
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
    the frame was derived from.
    """

    transfer: np.ndarray
    eta_e: float
    mechanical: float
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
    """
    physical = build_state_space(three_mode_physical_network(p))
    ss = three_mode_transform(p.xi).apply_to_state_space(physical)
    budget = compute_budget(ss)
    rules = verify_sum_rules(budget)
    if not rules.passed:
        worst = max(rules.completeness_residual, rules.metric_residual)
        raise NumericsError("budget sum rules failed in the frame", estimate=worst)
    shares = budget.transfer
    return ThreeModeBudget(
        transfer=shares,
        eta_e=float(shares[1, 0] + shares[2, 0]),
        mechanical=float(shares[1, 1] + shares[1, 2] + shares[2, 1] + shares[2, 2]),
        physical=physical,
    )


@dataclass(frozen=True)
class DuanResult:
    direct: float
    budget: float
    entangled: bool
    pairing: str


def _collective_variance(vq: np.ndarray, weights: dict[int, float]) -> float:
    vec = np.zeros(vq.shape[0])
    for index, weight in weights.items():
        vec[index] = weight
    return float(vec @ vq @ vec)


def duan_quantity(p: ThreeModeParams) -> DuanResult:
    """Duan sum for the mechanical pair, via two routes.

    Direct: steady covariance in the physical frame; the collective
    quadratures X_Sigma = (X2 + X3)/sqrt2 and P_Delta = (Y2 - Y3)/sqrt2
    (or the conjugate pairing, whichever is quieter) are read off the
    quadrature covariance. Budget: the frame transfer matrix weights
    the mechanical and optical occupancies, with the optical term
    carrying exp(-2 xi). Values below 1 certify entanglement.
    """
    return _duan(p, three_mode_budget(p))


def _duan(p: ThreeModeParams, budget: ThreeModeBudget) -> DuanResult:
    """duan_quantity with the scheme's budget already computed.

    The budget and the physical state space it carries depend on the
    scheme only, never on (n_o, n_m), so one budget serves every
    occupancy of a grid; each point builds only its thermal inputs.
    """
    inputs = InputMoments.thermal((p.n_o, p.n_m, p.n_m))
    cov = steady_covariance(budget.physical, inputs)
    vq = cov.quadrature_matrix()
    r = 1.0 / math.sqrt(2.0)
    # quadrature ordering (X1, X2, X3, Y1, Y2, Y3)
    x_sigma = _collective_variance(vq, {1: r, 2: r})
    p_delta = _collective_variance(vq, {4: r, 5: -r})
    p_sigma = _collective_variance(vq, {4: r, 5: r})
    x_delta = _collective_variance(vq, {1: r, 2: -r})
    first = x_sigma + p_delta
    second = p_sigma + x_delta
    if first <= second:
        direct, pairing = first, "x_sigma_p_delta"
    else:
        direct, pairing = second, "p_sigma_x_delta"

    budget_value = budget.mechanical * (p.n_m + 0.5) + budget.eta_e * (
        p.n_o + 0.5
    ) * math.exp(-2.0 * p.xi)
    if not abs(budget_value - direct) <= DUAN_AGREEMENT_TOL:
        raise NumericsError(
            "direct and budget routes disagree on the Duan quantity",
            estimate=abs(budget_value - direct),
        )
    return DuanResult(
        direct=direct,
        budget=budget_value,
        entangled=direct < 1.0,
        pairing=pairing,
    )


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
    """
    xi = _nonnegative("xi", xi)
    if not (0.0 <= eta_e < math.inf and 0.0 < mechanical < math.inf):
        raise ApplicabilityError(
            "the boundary line needs eta_e >= 0 and a positive mechanical "
            f"share sum, got eta_e = {eta_e:g} and {mechanical:g}"
        )
    slope = -eta_e * math.exp(-2.0 * xi) / mechanical
    n_o_intercept = 0.5 * (math.exp(2.0 * xi) - 1.0)
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
    """
    kappa = _positive("kappa", kappa)
    omega = _positive("omega", omega)
    gamma_m = _positive("gamma_m", gamma_m)
    g_formula = math.sqrt(0.5 * omega * math.hypot(kappa, 2.0 * omega))

    def eta_at(g: float) -> float:
        params = ThreeModeParams(
            g_script=g, omega=omega, kappa=kappa, gamma_m=gamma_m, xi=xi
        )
        return three_mode_budget(params).eta_e

    hi = 8.0 * max(g_formula, omega, kappa)
    g_numeric, eta_numeric = golden_section_max(eta_at, 0.0, hi, rel_tol=1e-6)
    return OptimalCoupling(
        g_formula=g_formula,
        g_numeric=g_numeric,
        eta_e_formula=eta_at(g_formula),
        eta_e_numeric=eta_numeric,
    )


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
    """One squeezing-power row keyed by (g_script, xi)."""
    params = TwoModeParams(
        g_plus=g_script * math.sinh(xi),
        g_minus=g_script * math.cosh(xi),
        gamma1=gamma1,
        gamma2=gamma2,
        n1=n1,
        n2=n2,
    )
    result = two_mode_squeezing_power(params)
    return (
        g_script,
        xi,
        gamma1,
        gamma2,
        result.norm_var1,
        result.norm_var2,
        result.sum,
    )


def fig2_point(
    delta_eta: float,
    gamma1: float,
    gamma2: float,
    g_minus: float,
    g_plus: float = 0.0,
    n1: float = 0.0,
    n2: float = 0.0,
) -> tuple:
    """One parametric-bound row; the rate split is symmetric, +-de/2."""
    params = ParametricParams(
        g_plus=g_plus,
        g_minus=g_minus,
        gamma1=gamma1,
        gamma2=gamma2,
        eta1=+0.5 * delta_eta,
        eta2=-0.5 * delta_eta,
        n1=n1,
        n2=n2,
    )
    report = parametric_variance_check(params)
    return (delta_eta, gamma1, gamma2, report.sum_y_bound, report.sum_y)


def fig3_rows(
    p: ThreeModeParams, budget: ThreeModeBudget, n_os, n_ms
) -> list[tuple]:
    """Duan-plane rows over the grid n_os x n_ms, n_o the outer loop.

    ``budget`` is three_mode_budget(p). Its shares and physical state
    space serve every row; each row builds its thermal inputs, solves
    its steady state and checks its direct route against the budget.
    """
    rows = []
    for n_o in n_os:
        for n_m in n_ms:
            result = _duan(replace(p, n_o=n_o, n_m=n_m), budget)
            rows.append((n_o, n_m, result.direct, result.budget, result.entangled))
    return rows
