"""Per-channel commutator accounting for stable networks.

Each input channel's vacuum fluctuations are tracked through the
network by a channel-resolved Lyapunov equation; the annihilation-sector
blocks K_i sum to the identity (the output modes stay canonical), and
their diagonals say what fraction of each mode's commutator each
channel supplies. A frequency-domain route computes the same objects by
integrating the resolvent, which gives an independent cross-check of
the time-domain solve.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ApplicabilityError, DimensionError, NumericsError, ValidationError
from .linalg import (
    QUADRATURE_ABS_TOL,
    first_failure,
    integrate_spectra,
    require_abs_tol,
    # not called here: bench/selftest.py finds the tracer's wrapper of
    # solve_lyapunov under this name, as an import into another layer
    solve_lyapunov,  # noqa: F401
)
from .network import StateSpace, mirror_defect, mirrored, metric, passive_drifts

_IMAG_LEAK_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class CommutatorBudget:
    """Channel-resolved commutator shares.

    per_channel_w[i] is the full doubled-space solution for channel i,
    per_channel_k[i] its annihilation block K_i, and transfer[i, j] =
    (K_j)_{ii} is the share of mode i's commutator supplied by channel
    j. Rows of ``transfer`` sum to one for a stable network. A stack of
    budgets (from a stacked state space) has a leading axis on every
    array. member_passive says which members come from passive drifts
    (0-d for a single budget), and ``passive`` holds iff all of them do.
    verify_sum_rules takes a single budget or a stack; the other checks
    below take single budgets and refuse a stack with DimensionError.
    """

    per_channel_w: np.ndarray
    per_channel_k: np.ndarray
    transfer: np.ndarray
    gammas: np.ndarray
    member_passive: np.ndarray

    @property
    def passive(self) -> bool:
        return bool(np.all(self.member_passive))

    @property
    def n_modes(self) -> int:
        return int(self.transfer.shape[-1])


def _budget_from_kernels(
    ws: np.ndarray, gammas: np.ndarray, member_passive: np.ndarray
) -> CommutatorBudget:
    n = gammas.shape[-1]
    ks = ws[..., :n, :n]
    # diagonals[..., j, i] = (K_j)_{ii}
    diagonals = np.diagonal(ks, axis1=-2, axis2=-1)
    leaks = np.abs(diagonals.imag).max(axis=-1, initial=0.0)
    failed = first_failure(leaks <= _IMAG_LEAK_TOL)
    if failed is not None:
        raise NumericsError(
            "commutator shares picked up an imaginary part",
            estimate=float(leaks.flat[failed]),
        )
    return CommutatorBudget(
        per_channel_w=ws,
        per_channel_k=ks,
        transfer=np.ascontiguousarray(diagonals.real.swapaxes(-2, -1)),
        gammas=gammas,
        member_passive=member_passive,
    )


def compute_budget(ss: StateSpace) -> CommutatorBudget:
    """Solve one Lyapunov equation per input channel.

    Channel i feeds the signed vacuum source gamma_i (e_i e_i^H -
    e_{N+i} e_{N+i}^H); the solution's annihilation block is that
    channel's contribution to the commutator matrix. All N sources go
    to the state space's Lyapunov operator as one stack, which checks
    stability once and keeps the drift's factors for its other solves.
    A stacked state space (see ``network``) gives a stack of budgets in
    one solve: every array gains the leading axis, and member_passive
    holds each drift's passivity.
    """
    n = ss.n_modes
    gammas = np.broadcast_to(ss.gammas, ss.drift.shape[:-2] + (n,))
    modes = np.arange(n)
    sources = np.zeros(gammas.shape + (2 * n, 2 * n), dtype=complex)
    sources[..., modes, modes, modes] = gammas
    sources[..., modes, n + modes, n + modes] = -gammas
    ws = ss._lyapunov.solve(sources)
    return _budget_from_kernels(ws, gammas, passive_drifts(ss))


def compute_budgets(ss: StateSpace) -> list[CommutatorBudget]:
    """compute_budget of every member of a stacked state space, from one
    stacked solve. Member i has the bits of compute_budget of drift i
    alone, and its ``passive`` is that of its own drift. DimensionError
    for a single state space."""
    ss.members()  # refuses a single state space
    stack = compute_budget(ss)
    return [
        CommutatorBudget(
            per_channel_w=w,
            per_channel_k=k,
            transfer=t,
            gammas=g,
            member_passive=np.asarray(passive),
        )
        for w, k, t, g, passive in zip(
            stack.per_channel_w, stack.per_channel_k, stack.transfer,
            stack.gammas, stack.member_passive,
        )
    ]


def budget_via_spectrum(
    ss: StateSpace, abs_tol: float = QUADRATURE_ABS_TOL
) -> CommutatorBudget:
    """Frequency-domain route: integrate the resolvent over the half-line.

    Computes (1/2pi) int T(w) S_j T(w)^H dw with T = (-iw - A)^{-1} D
    and S_j the channel-j signed vacuum source, for every channel in one
    batched pass. The doubled drift and input are conjugation-symmetric,
    A = Sigma_x conj(A) Sigma_x and D = Sigma_x conj(D) Sigma_x, so the
    kernel obeys K_j(-w) = -Sigma_x conj(K_j(w)) Sigma_x: the half-line
    w >= 0 is integrated, at abs_tol / 2 per entry, and the result is
    W_j = I_j - Sigma_x conj(I_j) Sigma_x, whose error per entry is the
    sum of two such estimates (a quadrature that cannot converge raises
    NumericsError naming abs_tol / 2). A state space that is not
    exactly conjugation-symmetric (only a hand-made one can be) raises
    ValidationError before any panel is evaluated. The drift eigenvalues
    are the kernel's poles, so they grade the starting panels and narrow
    resonances are not stepped over; a resonance too narrow for the
    frequency map raises NumericsError (see integrate_spectrum).

    Every state space goes through integrate_spectra, a single one as a
    stack of one member. A stacked state space (see ``network``) gives a
    stack of budgets, as compute_budget does: its members are integrated
    in lockstep, and member i has the bits of budget_via_spectrum of
    drift i alone. Every drift is checked for stability, in order,
    before any panel is evaluated, by the state space's Lyapunov
    operator: after compute_budget of the same state space the poles
    are the spectra of that solve's factors.
    """
    require_abs_tol(abs_tol)
    for name, m in (("drift", ss.drift), ("input", ss.input)):
        if not np.all(mirror_defect(m) == 0):  # NaN fails
            raise ValidationError(
                f"the {name} matrix is not conjugation-symmetric "
                "(Sigma_x conj(M) Sigma_x != M), so the spectral route cannot "
                "mirror its half-line integral"
            )
    n = ss.n_modes
    drifts = ss.drift.reshape((-1, 2 * n, 2 * n))
    inputs = np.broadcast_to(ss.input, ss.drift.shape).reshape(drifts.shape)
    spectra = ss._lyapunov.stable_spectra()
    eye = np.eye(2 * n, dtype=complex)

    def kernel(members: np.ndarray, omegas: np.ndarray) -> np.ndarray:
        t = np.linalg.solve(
            -1j * omegas[:, None, None] * eye - drifts[members], inputs[members]
        )
        # channel j: x[:, j] holds T's columns j and N + j, and its kernel
        # col_j col_j^H - col_{N+j} col_{N+j}^H is one signed product
        x = t.reshape(len(omegas), 2 * n, 2, n).transpose(0, 3, 1, 2)
        # x views T: deleting t and rebinding x free T before the product
        # allocates the kernel
        del t
        signed, x = x * [1.0, -1.0], x.conj()
        return signed @ x.swapaxes(-2, -1)

    half_line = integrate_spectra(kernel, 0.5 * abs_tol, spectra)
    half_line = half_line.reshape(ss.drift.shape[:-2] + half_line.shape[1:])
    ws = half_line - mirrored(half_line)
    gammas = np.broadcast_to(ss.gammas, ss.drift.shape[:-2] + (n,))
    return _budget_from_kernels(ws, gammas, passive_drifts(ss))


@dataclass(frozen=True)
class SumRuleReport:
    completeness_residual: float
    metric_residual: float
    gamma_rule_residuals: tuple[float, ...] | None
    positivity_min_eigs: tuple[float, ...] | None
    passed: bool


SUM_RULE_TOL = 1e-9
POSITIVITY_FLOOR = -1e-10
RECIPROCITY_TOL = 1e-10


@functools.lru_cache(maxsize=8)
def _sum_rule_targets(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only identity and commutator metric that the completeness
    and metric rules of n modes compare against."""
    targets = np.eye(n), metric(n)
    for target in targets:
        target.flags.writeable = False
    return targets


def verify_sum_rules(budget: CommutatorBudget) -> SumRuleReport | list[SumRuleReport]:
    """Check the exact identities the channel decomposition must satisfy.

    Completeness: sum_j K_j = I. Metric: sum_j W_j reproduces the full
    commutator metric. For passive networks two more hold: the damping
    rule sum_j gamma_j (K_i)_{jj} = gamma_i, and positivity of each K_i.
    The residuals pass within SUM_RULE_TOL and the smallest eigenvalue
    of each K_i at or above POSITIVITY_FLOOR; a NaN residual fails.

    A stacked budget gives one report per member, in order, from one
    vectorized pass; a member's damping rule and positivity are checked
    iff that member is passive. A single budget's report is the
    one-member case.
    """
    n = budget.n_modes
    ks = budget.per_channel_k.reshape((-1, n) + budget.per_channel_k.shape[-2:])
    ws = budget.per_channel_w.reshape((-1, n) + budget.per_channel_w.shape[-2:])
    identity, sigma = _sum_rule_targets(n)
    completeness = np.abs(ks.sum(axis=1) - identity).max(axis=(-2, -1))
    metric_residual = np.abs(ws.sum(axis=1) - sigma).max(axis=(-2, -1))
    passed = (completeness <= SUM_RULE_TOL) & (metric_residual <= SUM_RULE_TOL)
    gamma_rows = [None] * len(ks)
    min_eigs = [None] * len(ks)
    rows = np.flatnonzero(budget.member_passive)
    if rows.size:
        gammas = budget.gammas.reshape(-1, n)[rows]
        transfer = budget.transfer.reshape(-1, n, n)[rows]
        # transfer[j, i] = (K_i)_{jj}, so channel i's rule reads along column i
        residuals = np.abs((gammas[:, None, :] @ transfer)[:, 0] - gammas)
        eigs = np.linalg.eigvalsh(ks[rows]).min(axis=-1)
        passed[rows] &= np.all(residuals <= SUM_RULE_TOL, axis=-1) & np.all(
            eigs >= POSITIVITY_FLOOR, axis=-1
        )
        for row, g, e in zip(rows.tolist(), residuals.tolist(), eigs.tolist()):
            gamma_rows[row], min_eigs[row] = tuple(g), tuple(e)
    reports = [
        SumRuleReport(
            completeness_residual=c,
            metric_residual=m,
            gamma_rule_residuals=g,
            positivity_min_eigs=e,
            passed=ok,
        )
        for c, m, g, e, ok in zip(
            completeness.tolist(), metric_residual.tolist(), gamma_rows, min_eigs,
            passed.tolist(),
        )
    ]
    return reports if budget.transfer.ndim == 3 else reports[0]


@dataclass(frozen=True)
class ReciprocityReport:
    residuals: np.ndarray
    max_residual: float
    passed: bool


def _require_single(budget: CommutatorBudget, check: str) -> None:
    """Refuse a stack of budgets for a check that takes one budget."""
    if budget.transfer.ndim != 2:
        raise DimensionError(
            f"{check} takes a single budget, got a stack of shape "
            f"{budget.transfer.shape[:-2]}: split it with compute_budgets"
        )


def verify_reciprocity(budget: CommutatorBudget) -> ReciprocityReport:
    """Check detailed balance of shares: gamma_j I_ji = gamma_i I_ij, to
    RECIPROCITY_TOL.

    Holds for any two-mode passive network and for larger passive
    networks with real coupling amplitudes; with complex loops the flux
    pattern can be chiral and the check is expected to fail.
    """
    _require_single(budget, "verify_reciprocity")
    g = budget.gammas
    # entry (i, j) compares gamma_i I_ij with gamma_j I_ji
    flux = g[:, None] * budget.transfer
    residuals = np.abs(flux - flux.T)
    worst = float(residuals.max())
    return ReciprocityReport(
        residuals=residuals, max_residual=worst, passed=worst <= RECIPROCITY_TOL
    )


@dataclass(frozen=True)
class IxBoundReport:
    i_x: float
    i_x_reverse: float
    bound: float
    slack: float
    diagonal_sum: float
    diagonal_slack: float
    passed: bool


def two_mode_ix_bound(budget: CommutatorBudget) -> IxBoundReport:
    """Exchange-fraction bound for passive two-mode networks.

    The normalized cross share i_x = I_12 / gamma_2 (per unit source
    rate) never exceeds 1 / (gamma_1 + gamma_2); the reverse direction
    obeys the same bound by reciprocity. Equivalently the diagonal
    shares satisfy I_11 + I_22 >= 1.
    """
    _require_single(budget, "two_mode_ix_bound")
    if budget.n_modes != 2:
        raise ApplicabilityError("the exchange bound is a two-mode statement")
    if not budget.passive:
        raise ApplicabilityError("the exchange bound needs a passive network")
    g1, g2 = budget.gammas
    i_x = float(budget.transfer[0, 1]) / g2
    i_x_rev = float(budget.transfer[1, 0]) / g1
    bound = 1.0 / (g1 + g2)
    slack = bound - max(i_x, i_x_rev)
    diagonal_sum = float(budget.transfer[0, 0] + budget.transfer[1, 1])
    diagonal_slack = diagonal_sum - 1.0
    return IxBoundReport(
        i_x=i_x,
        i_x_reverse=i_x_rev,
        bound=bound,
        slack=slack,
        diagonal_sum=diagonal_sum,
        diagonal_slack=diagonal_slack,
        passed=slack >= -1e-12 and diagonal_slack >= -1e-12,
    )


def budget_report(budget: CommutatorBudget) -> dict:
    """JSON-ready summary of a single budget and its identity checks."""
    _require_single(budget, "budget_report")
    rules = verify_sum_rules(budget)
    recip = verify_reciprocity(budget)
    return {
        "I": [[float(x) for x in row] for row in budget.transfer],
        "sum_rule_residual": rules.completeness_residual,
        "metric_residual": rules.metric_residual,
        "gamma_rule_residuals": (
            list(rules.gamma_rule_residuals)
            if rules.gamma_rule_residuals is not None
            else None
        ),
        "reciprocity_residuals": [[float(x) for x in row] for row in recip.residuals],
        "positivity_min_eigs": (
            list(rules.positivity_min_eigs)
            if rules.positivity_min_eigs is not None
            else None
        ),
        "passive": budget.passive,
    }
