"""Dense complex linear algebra for small stable systems.

Everything operates on plain numpy arrays of dimension order ten:
spectra for stability tests, Lyapunov solves, adaptive Gauss-Kronrod
quadrature over the nonnegative frequency axis, and a golden-section
optimizer that runs bracketed searches in lockstep and hands a few
searches the points of their next steps in one call. The solver defaults
are the module constants below; guards on derived quantities (imaginary
leaks, route agreement) keep their own constants in the modules that
own them.

``solve_lyapunov`` documents its two routes: from four modes up, one
batched eigendecomposition of the whole stack of drifts, and the exact
Kronecker system below and wherever the eigen route fails its residual
check. The Kronecker route takes stability from the Gershgorin bound of
the drift's Hermitian part where that bound certifies it (every passive
drift with positive dampings), and from the spectrum otherwise; it
assembles each system by index. ``LyapunovOperator`` is the one place
that factors a drift and tests it for stability, by one rule
(_stable_spectra): it keeps that certificate, the spectra and the eigen
factors of a drift or a stack, formed on first use, for every solve on
it (``solve``, and ``adjoint`` for a^H L + L a + c = 0).
``solve_lyapunov`` is its one-shot call, and each StateSpace holds the
operator of its drift. ``integrate_spectra`` plans and refines all
members of a lockstep quadrature on flat arrays of their panels. None
of these steps changes a value: each drift and each member keeps the
bits of its lone call.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import BosonetError, DimensionError, NumericsError, StabilityError, ValidationError

MAX_SPECTRUM_DIM = 64
# Smallest drift dimension (four modes) that solve_lyapunov solves by
# eigendecomposition; below it every source takes the Kronecker solve.
_EIGEN_MIN_DIM = 8
# A drift is certified stable when the Gershgorin bound of a + a^H lies
# below -_CERTIFY_MARGIN n ||a||_max (see _uncertified). The bound's own
# rounding is about (n + 1) eps n ||a||_max at most. The spectrum that
# eigvals computes is exact for some a + E, and twice its real parts
# exceed the exact bound by at most 2 ||E||_2, so 128 eps leaves
# 63 eps n ||a||_max for that backward error at MAX_SPECTRUM_DIM, and
# more below it: a certified drift is one eigvals finds stable.
_CERTIFY_MARGIN = 128.0 * np.finfo(float).eps
# Relative residual every Lyapunov solve must reach (see _residual_check).
LYAPUNOV_RESIDUAL_TOL = 1e-10
# Relative anti-Hermitian part a Lyapunov source may carry.
HERMITICITY_TOL = 1e-12
# Default absolute error per entry of integrate_spectrum, and its panel cap.
QUADRATURE_ABS_TOL = 1e-8
QUADRATURE_MAX_PANELS = 8192
# Most frequencies one integrand call of integrate_spectra receives (16
# panels of 15 nodes). At 240 the route check alone peaks below verify's
# two-mode bound suite, and verify's peak RSS stays within 0.2 MB of the
# per-draw quadrature's; at 480 it rose by 2.4 MB.
QUADRATURE_BATCH_NODES = 240
# Least half-width of a pole in the mapped coordinate t, in float spacings
# at its t (see require_resolved_poles). Measured on single-mode
# Lorentzians at abs_tol 1e-7: below 1e4 spacings the quadrature failed to
# converge or returned errors of 4e-7 up to 0.97 with no error raised.
POLE_MIN_SPACINGS = 1e4
# Least Bernstein-ellipse parameter of every starting panel of
# integrate_spectrum about every pole (see _panel_plans). On the 100 draws
# of verify's route check, from 8 uniform panels, 1.5 to 3 gave 12,150 to
# 12,360 frequencies; from 2, 1.5, 2, 2.5 and 3 give 9,285, 8,295, 7,380
# and 6,210. At 3 the route check's largest gap between the two budget
# routes stays below 6.4e-14 on verify seeds 1-5 and the default, against
# its 1e-7 tolerance.
_PLAN_RHO = 3.0


def first_failure(passed) -> int | None:
    """Flat index of the first False verdict of a guard evaluated over a
    stack (a NaN comparison is False, so NaN fails), or None if all pass."""
    failed = np.flatnonzero(~np.asarray(passed))
    return int(failed[0]) if failed.size else None


def batch_or_each(items: Sequence, batch: Callable, one: Callable) -> Iterable:
    """``batch(items)``, the results of the items evaluated as one batch;
    if that raises a package error, ``one(item)`` for each item instead,
    lazily and in order, so the first failing item raises its own error
    after the items before it have been evaluated."""
    try:
        return batch(items)
    except BosonetError:
        return map(one, items)


def _as_square(m, stack: bool = False) -> np.ndarray:
    """A square matrix, or with ``stack`` also a stack (P, n, n) of them."""
    a = np.asarray(m, dtype=complex)
    if a.ndim not in ((2, 3) if stack else (2,)) or a.shape[-2] != a.shape[-1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return a


def hermitian_defect(m) -> float:
    """Max-norm distance of a square matrix from its own adjoint."""
    a = _as_square(m)
    return float(np.abs(a - a.conj().T).max(initial=0.0))


def _as_drift(m, stack: bool = False) -> np.ndarray:
    """A square matrix (or with ``stack`` a stack of them) no larger than
    MAX_SPECTRUM_DIM."""
    a = _as_square(m, stack)
    if a.shape[-1] > MAX_SPECTRUM_DIM:
        raise DimensionError(
            f"spectrum limited to dimension {MAX_SPECTRUM_DIM}, got {a.shape[-1]}"
        )
    return a


def _require_finite(drifts: np.ndarray, first: int = 0) -> None:
    """Refuse a drift (n, n), or a stack (P, n, n) of drifts numbered from
    ``first``, that holds a NaN or Inf: NumericsError naming the first
    such drift and entry."""
    if np.isfinite(drifts).all():
        return
    bad = np.argwhere(~np.isfinite(drifts))[0]
    which = f"drift {first + int(bad[0])}" if drifts.ndim == 3 else "the drift"
    raise NumericsError(
        f"{which} has the non-finite entry {drifts[tuple(bad)]} at "
        f"({int(bad[-2])}, {int(bad[-1])})"
    )


def _spectra(a: np.ndarray) -> np.ndarray:
    """Unsorted spectra of a matrix or a stack of matrices; a non-finite
    entry is refused before any iteration (see _require_finite)."""
    _require_finite(a)
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"eigenvalue iteration did not converge: {exc}") from exc


def eigenvalues(m) -> np.ndarray:
    """Spectrum of a square matrix, sorted by real part, descending.

    Ties in the real part are broken by descending imaginary part so
    the ordering is deterministic. Multiplicities are preserved.
    """
    return _sort_spectrum(_spectra(_as_drift(m)))


def _sort_spectrum(vals: np.ndarray) -> np.ndarray:
    """A spectrum, or each row of a stack of them, in eigenvalues' order."""
    return np.take_along_axis(vals, np.lexsort((-vals.imag, -vals.real)), axis=-1)


def is_stable(m, margin: float = 0.0) -> bool:
    """True iff every eigenvalue of ``m`` has real part below ``-margin``."""
    if not margin >= 0:  # NaN fails
        raise ValidationError(f"stability margin must be nonnegative, got {margin}")
    return bool(eigenvalues(m)[0].real < -margin)


def require_stable(m, context: str = "drift") -> np.ndarray:
    """Return the spectrum of ``m``, raising if it is not strictly stable."""
    vals = eigenvalues(m)
    _raise_if_unstable(vals[0], context)
    return vals


def _raise_if_unstable(top: complex, context: str) -> None:
    if top.real >= 0:
        raise StabilityError(
            f"{context} is not strictly stable: eigenvalue "
            f"{top.real:+.6g}{top.imag:+.6g}j has nonnegative real part",
            eigenvalue=complex(top),
        )


def _stable_spectra(drifts: np.ndarray, checked=None, first: int = 0) -> np.ndarray:
    """The stability rule of a stack (P, n, n) of drifts numbered from
    ``first``: the unsorted spectra, from one batched call, of the drifts
    the mask ``checked`` (P,) marks (default all; the others are known to
    be stable). The first failing drift raises: a marked unstable one its
    StabilityError, a non-finite one the NumericsError of _require_finite
    only if no drift before it is unstable."""
    bad = first_failure(np.isfinite(drifts).all(axis=(-2, -1)))
    spectra = _spectra(drifts[:bad] if checked is None else drifts[:bad][checked[:bad]])
    unstable = first_failure(spectra.real.max(axis=-1) < 0)
    if unstable is not None:
        _raise_if_unstable(_sort_spectrum(spectra[unstable])[0], "drift")
    _require_finite(drifts, first)
    return spectra


def _uncertified(drifts: np.ndarray) -> np.ndarray:
    """Which drifts of a stack (P, n, n) the Hermitian-part bound leaves
    uncertified (a bool mask (P,)).

    Every eigenvalue of a has real part at most the largest eigenvalue
    of (a + a^H) / 2 (Bendixson), and that is at most the largest
    Gershgorin row bound h_ii + sum_{j != i} |h_ij| of h = a + a^H, over
    two. A bound below -_CERTIFY_MARGIN n ||a||_max proves the drift
    stable, with room for the bound's rounding and for that of eigvals:
    a certified drift is one whose spectrum eigvals would also find
    stable. For a passive drift h = -diag(gamma), so every positive
    damping certifies. NaN or Inf leaves a drift uncertified.
    """
    p, n = drifts.shape[:2]
    h = drifts + drifts.conj().swapaxes(-2, -1)
    rows = np.abs(h)
    # h_ii = 2 Re a_ii is real and exact
    rows.reshape(p, n * n)[:, :: n + 1] = h.real.reshape(p, n * n)[:, :: n + 1]
    bound = rows.sum(axis=-1).max(axis=-1)
    amax = np.abs(drifts).reshape(p, n * n).max(axis=-1)
    return ~(bound < amax * (-_CERTIFY_MARGIN * n))


class LyapunovOperator:
    """A drift (n, n) or a stack of P drifts (P, n, n), factored once for
    every Lyapunov solve on it: ``solve`` (a W + W a^H + q = 0, the
    routine of solve_lyapunov) and ``adjoint`` (a^H L + L a + c = 0).

    It keeps what each solve_lyapunov call recomputes, each formed on
    first use: the mask of the drifts the Hermitian-part bound leaves
    uncertified, the verdict of the stability test that stable_spectra
    and both routes share (_require_stable), the spectra, and from
    dimension _EIGEN_MIN_DIM up the factors of every drift,
    a = V diag(lam) V^-1 with V^-1, from one batched ``eig`` and one
    batched ``inv`` (each drift alone where the stacked factorization
    fails). Nothing is formed that a call does not need: below
    _EIGEN_MIN_DIM a certified drift never takes a spectrum, and no
    Kronecker system is kept. ``spectra`` reads the spectra, from the
    factors where there are factors. Every value has the bits of the
    one-shot calls it replaces.

    A StateSpace holds the operator of its drift (StateSpace._lyapunov),
    so the budget, the covariance and the spectrum of one state space
    share it. Not exported by the package; the drifts must not change
    while it is in use.
    """

    def __init__(self, a):
        am = _as_drift(a, stack=True)
        self._a = am
        self.shape = am.shape
        # canonical stack (P, n, n); math.prod, as an empty stack cannot
        # be reshaped with -1
        self.drifts = am.reshape((math.prod(am.shape[:-2]),) + am.shape[-2:])
        self._uncertified = None
        self._stable = False
        self._vals = None
        self._factors = None

    @property
    def uncertified(self) -> np.ndarray:
        """The mask (P,) of the drifts the Hermitian-part bound leaves
        uncertified (see _uncertified)."""
        if self._uncertified is None:
            self._uncertified = _uncertified(self.drifts)
        return self._uncertified

    def spectra(self) -> np.ndarray:
        """The spectra (P, n) of the drifts, each row sorted as eigenvalues
        sorts it. From dimension _EIGEN_MIN_DIM up they are the factors'
        eigenvalues (factoring the drifts if no solve has), which have the
        bits of eigvals; below, and if a drift's factorization fails, they
        come from eigvals. Stability is not tested; a non-finite drift
        raises the NumericsError that eigenvalues raises."""
        if self._vals is None and self.shape[-1] >= _EIGEN_MIN_DIM:
            self._factored()
        if self._vals is None:
            self._vals = _spectra(self._a).reshape(self.drifts.shape[:-1])
        return _sort_spectrum(self._vals)

    def stable_spectra(self) -> np.ndarray:
        """spectra() of drifts that pass the stability test of the solves
        (_require_stable): the first failing drift raises, an unstable one
        its StabilityError and a non-finite one its NumericsError."""
        if self.shape[-1] >= _EIGEN_MIN_DIM:
            self._factored()
        self._require_stable(every=True)
        return self.spectra()

    def _require_stable(self, p=None, every=False) -> None:
        """The stability test of stable_spectra and of both solve routes,
        of every drift or of drift ``p`` alone, by the rule of
        _stable_spectra on the whole stack. A drift takes no spectrum if
        the one held for it (its factors', or spectra()'s) is stable, or
        if none is and the Hermitian-part bound certifies it; with
        ``every`` and none held, every drift takes one, kept as the
        spectra. The verdict of the whole stack is formed once."""
        if self._stable:
            return
        rows = slice(None) if p is None else slice(p, p + 1)
        held = self._vals if self._factors is None else self._factors[0]
        if held is None and every:
            self._vals = _stable_spectra(self.drifts)
        else:
            if held is None:
                checked = self.uncertified[rows]
            else:  # an unstable drift raises with the spectrum it takes
                top = held[rows].real.max(axis=-1)
                checked = top >= 0
                if np.isnan(top).any():  # a drift that did not factor
                    checked |= np.isnan(top) & self.uncertified[rows]
            if checked.any():
                _stable_spectra(self.drifts[rows], checked, rows.start or 0)
        if p is None:
            self._stable = True

    def solve(self, q) -> np.ndarray:
        """solve_lyapunov(a, q) with this operator's drifts a: the same
        shapes, routes, guards and refusals, in the same order, and the
        same bits."""
        sources, qmaxes = self._sources(q)
        return self._route(self.drifts, self._factored, sources, qmaxes).reshape(np.shape(q))

    def adjoint(self, c) -> np.ndarray:
        """Solve a^H L + L a + c = 0, the adjoint equation, with the same
        factors: the eigenvectors of a^H are V^-H, with inverse V^H and
        eigenvalues conj lam. It is the Lyapunov equation of the drift
        a^H, with the shapes, guards and fallbacks of ``solve``; its
        Kronecker route solves the system of a^H. For W = solve(q) and
        L = adjoint(c), <L, q> = <c, W>."""

        def factors():
            vals, v, vinv, ok = self._factored()
            return vals.conj(), vinv.conj().swapaxes(-2, -1), v.conj().swapaxes(-2, -1), ok

        sources, qmaxes = self._sources(c)
        drifts = self.drifts.conj().swapaxes(-2, -1)
        return self._route(drifts, factors, sources, qmaxes).reshape(np.shape(c))

    def _sources(self, q) -> tuple[np.ndarray, np.ndarray]:
        """The sources as the canonical stack (P, k, n, n), with their
        ||q||_max (P, k); each must be Hermitian within HERMITICITY_TOL."""
        qs = np.asarray(q, dtype=complex)
        lead = self.shape[:-2]
        if (
            qs.ndim - len(lead) not in (2, 3)
            or qs.shape[: len(lead)] != lead
            or qs.shape[-2:] != self.shape[-2:]
        ):
            raise DimensionError(f"shape mismatch: a is {self.shape}, q is {qs.shape}")
        if not qs.size:  # no drift, a drift of dimension 0, or no source
            raise DimensionError(f"nothing to solve: a is {self.shape}, q is {qs.shape}")
        sources = qs.reshape(self.drifts.shape[:1] + (-1,) + self.shape[-2:])
        qmaxes = np.abs(sources).max(axis=(-2, -1), initial=0.0)
        defects = np.abs(sources - sources.conj().swapaxes(-2, -1)).max(
            axis=(-2, -1), initial=0.0
        )
        if not np.all(defects <= HERMITICITY_TOL * np.maximum(1.0, qmaxes)):
            raise ValidationError("q must be Hermitian within tolerance")
        return sources, qmaxes

    def _factored(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The factors (lam (P, n), V, V^-1, ok (P,)), formed once; the
        spectra are kept with them when every drift factored."""
        if self._factors is None:
            self._factors = self._factor(self.drifts)
            if self._factors[3].all():
                self._vals = self._factors[0]
        return self._factors

    @staticmethod
    def _factor(drifts) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(lam, V, V^-1, ok) of a stack of drifts from one batched eig and
        one batched inv. If that fails, each drift is factored alone; ok
        marks the drifts whose own factorization succeeded, and the
        others hold NaN."""
        try:
            vals, v = np.linalg.eig(drifts)
            return vals, v, np.linalg.inv(v), np.ones(len(drifts), dtype=bool)
        except np.linalg.LinAlgError:
            if len(drifts) > 1:
                parts = [LyapunovOperator._factor(drifts[p : p + 1]) for p in range(len(drifts))]
                return tuple(np.concatenate(x) for x in zip(*parts))
            v = np.full(drifts.shape, np.nan, dtype=complex)
            return v[..., 0], v, v, np.zeros(1, dtype=bool)

    def _route(self, drifts, factors, sources, qmaxes) -> np.ndarray:
        """The solutions (P, k, n, n) of the sources of ``drifts`` (this
        operator's drifts or their adjoints), whose factors ``factors()``
        gives.

        Below _EIGEN_MIN_DIM every source takes its drift's Kronecker
        solve, after the stability test. From it up, the factored drifts
        are solved as one stack by the refined eigen route, and then the
        drifts are walked in order: a drift whose factorization failed,
        or that is unstable, takes the stability test alone (an unstable
        one raises the error of its own spectrum, for the adjoint too);
        every source of an unfactored drift, and each source that fails
        its residual check, takes its drift's Kronecker solve. A stack
        raises the error of its first failing drift or source."""
        if self.shape[-1] < _EIGEN_MIN_DIM:
            self._require_stable()
            return _kronecker_solves(drifts, sources, qmaxes)
        vals, v, vinv, ok = factors()
        if ok.all():
            ws = _eigen_solve(drifts, (vals, v, vinv), sources)
        else:
            ws = np.zeros(sources.shape, dtype=complex)
            if ok.any():
                ws[ok] = _eigen_solve(drifts[ok], (vals[ok], v[ok], vinv[ok]), sources[ok])
        with np.errstate(all="ignore"):
            passed = _residual_check(drifts, ws, sources, qmaxes)[0]
        unstable = vals.real.max(axis=-1) >= 0  # NaN, for an unfactored drift, is not
        for p in np.flatnonzero(~ok | unstable | ~passed.all(axis=-1)):
            if not ok[p] or unstable[p]:
                self._require_stable(p)
            redo = np.flatnonzero(~passed[p]) if ok[p] else slice(None)
            ws[p, redo] = _kronecker_solves(drifts[p], sources[p, redo], qmaxes[p, redo])
        return ws


def solve_lyapunov(a, q) -> np.ndarray:
    """Solve a W + W a^H + q = 0 for Hermitian q and strictly stable a.

    ``a`` is one drift of shape (n, n) or a stack of P drifts (P, n, n).
    One drift takes one source (n, n) or a stack of k sources (k, n, n);
    a stack of drifts takes one source per drift (P, n, n) or k per
    drift (P, k, n, n). The result has the shape of ``q``.

    This is the one-shot call of LyapunovOperator(a).solve(q). The
    budget, covariance and spectral routes of a StateSpace solve with the
    operator the state space holds instead, so a drift that ``analyze``
    or ``verify`` solves more than once is certified, factored and given
    its spectrum once.

    Drifts of dimension 8 and above (four or more modes) are solved from
    one eigendecomposition a = V diag(lam) V^-1 shared by every source of
    that drift, W = V [(-V^-1 q V^-H) / (lam_i + conj lam_j)] V^H,
    followed by one refinement step that solves for the residual with
    the same factors. A stack takes one batched ``eig`` and one batched
    ``inv``, its solves and residual checks run as stacked products, and
    then its drifts are walked in order: an unstable drift raises, and
    its failing sources take the Kronecker solve. If the stacked
    factorization fails, each drift is factored alone. Each drift's
    result has the bits of its lone call. Smaller drifts, and every
    source whose eigen solution fails the residual check (near an
    exceptional point V is ill-conditioned) or whose factorization
    fails, take the Kronecker-vectorized linear system, which is exact
    up to roundoff at these dimensions: one batched solve serves every
    drift of the stack and all of its sources. The split at dimension 8
    keeps the two- and three-mode scenarios on the Kronecker solve. Each
    result is symmetrized. Every drift is tested for stability and every
    solution passes the residual check of ``_residual_check``; both
    guards fail on NaN, and in a stack the first failing drift or source
    raises.

    On the Kronecker route a drift's stability comes from the Gershgorin
    bound of its Hermitian part (a + a^H) / 2 where that bound proves it,
    which it does for every passive drift with positive dampings, and
    from its spectrum otherwise; each system is assembled by index from
    the entries of a and conj a. Neither step changes a value of W or
    which error a failing stack raises.

    Raises:
        DimensionError: if ``a`` exceeds ``MAX_SPECTRUM_DIM``, the
            shapes do not match, or either is empty (an empty stack, a
            drift of dimension 0 or no source).
        StabilityError: if ``a`` has an eigenvalue with nonnegative
            real part (the offending eigenvalue is attached).
        ValidationError: if a source is not Hermitian within tolerance.
        NumericsError: if the linear system is singular or the residual
            check fails.
    """
    return LyapunovOperator(a).solve(q)


def _residual_check(am, ws, qs, qmaxes):
    """The accuracy check of every solve: a W + W a^H + q must be within
    LYAPUNOV_RESIDUAL_TOL of 2 ||a||_max ||W||_max + ||q||_max, the size of
    the terms it cancels. ``am`` is (..., n, n), ``ws`` and ``qs`` are
    (..., k, n, n) and ``qmaxes`` (..., k). Returns (passed, residual,
    scale), each (..., k); NaN fails."""
    drift = am[..., None, :, :]
    residual = np.abs(drift @ ws + ws @ drift.conj().swapaxes(-2, -1) + qs).max(
        axis=(-2, -1)
    )
    amax = np.abs(am).max(axis=(-2, -1))[..., None]
    scale = 2.0 * amax * np.abs(ws).max(axis=(-2, -1)) + qmaxes
    return residual <= LYAPUNOV_RESIDUAL_TOL * scale, residual, scale


def _raise_first_residual_failure(passed, residual, scale) -> None:
    failed = first_failure(passed)
    if failed is not None:
        worst, size = float(residual.flat[failed]), float(scale.flat[failed])
        raise NumericsError(
            f"Lyapunov residual {worst:.3e} exceeds "
            f"{LYAPUNOV_RESIDUAL_TOL:.1e} * {size:.3g}",
            estimate=worst,
        )


def _eigen_solve(drifts, factors, sources) -> np.ndarray:
    """The refined eigen-route solutions of a stack of drifts (P, n, n)
    and their sources (P, k, n, n), with the drifts' factors (lam (P, n),
    V, V^-1). The eigenvalues decide stability: the solutions of an
    unstable drift mean nothing."""
    vals, v, vinv = factors
    # every drift's factors, broadcast over its sources
    v, vinv, am = v[:, None], vinv[:, None], drifts[:, None]
    vh, vinv_h, ah = (m.conj().swapaxes(-2, -1) for m in (v, vinv, am))
    neg_denom = -(vals[:, None, :, None] + vals.conj()[:, None, None, :])
    # in place where a fresh array would only be divided, added to or
    # scaled: the same operations in the same order, fewer stack-sized
    # temporaries (each new one grows the heap)
    with np.errstate(all="ignore"):
        x = vinv @ sources @ vinv_h
        x /= neg_denom
        ws = v @ x @ vh
        # the residual a W + W a^H + q, solved with the same factors
        x = am @ ws
        x += ws @ ah
        x += sources
        x = vinv @ x @ vinv_h
        x /= neg_denom
        ws += v @ x @ vh
        ws += ws.conj().swapaxes(-2, -1)
        ws *= 0.5
        return ws


def _kronecker_solves(am, sources, qmaxes) -> np.ndarray:
    """Every source through its drift's Kronecker-vectorized system,
    residual-checked. ``am`` is one drift (n, n) or a stack (..., n, n),
    ``sources`` (..., k, n, n) and ``qmaxes`` (..., k): one batched solve
    factors each drift's system once for all of its sources."""
    n = am.shape[-1]
    system = _kronecker_system(am)
    # column k holds source k stacked column by column (Fortran order)
    rhs = (-sources).swapaxes(-2, -1).reshape(sources.shape[:-2] + (n * n,))
    try:
        vecs = np.linalg.solve(system, rhs.swapaxes(-2, -1))
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"singular Lyapunov system: {exc}") from exc
    ws = vecs.swapaxes(-2, -1).reshape(sources.shape).swapaxes(-2, -1)
    ws = 0.5 * (ws + ws.conj().swapaxes(-2, -1))
    _raise_first_residual_failure(*_residual_check(am, ws, sources, qmaxes))
    return ws


def _kronecker_system(am: np.ndarray) -> np.ndarray:
    """kron(eye, a) + kron(conj a, eye) of a drift (n, n) or of each of a
    stack (..., n, n), scattered into zeros at _kronecker_indices: every
    entry has the value of the two products summed (on the diagonal,
    a_qq + conj a_pp in that order), and only the signs of exact zeros
    can differ."""
    n = am.shape[-1]
    lead, n2 = am.shape[:-2], n * n
    source, kron_a, kron_conj = _kronecker_indices(n)
    system = np.zeros(lead + (n2 * n2,), dtype=complex)
    off = am.reshape(lead + (n2,))[..., source]
    system[..., kron_a] = off
    system[..., kron_conj] = off.conj()
    d = np.diagonal(am, axis1=-2, axis2=-1)
    system[..., :: n2 + 1] = (d[..., None, :] + d.conj()[..., :, None]).reshape(lead + (n2,))
    return system.reshape(lead + (n2, n2))


@functools.lru_cache(maxsize=8)
def _kronecker_indices(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices of the off-diagonal entries a_yz (y != z) in the
    drift, and of where kron(eye, a) and kron(conj a, eye) put them in
    the flattened n^2 x n^2 system: kron(eye, a) holds a_yz at row
    (x, y), column (x, z), and kron(conj a, eye) holds conj a_yz at row
    (y, x), column (z, x), for every x. Built from the n^2 (n - 1)
    triples (x, y, z), never from an n^4 mask, as the eigen route's
    fallback reaches n = MAX_SPECTRUM_DIM."""
    x, y, z = np.indices((n, n, n)).reshape(3, -1)
    off = y != z
    x, y, z = x[off], y[off], z[off]
    n2 = n * n
    indices = (y * n + z, (x * n + y) * n2 + x * n + z, (y * n + x) * n2 + z * n + x)
    for index in indices:
        index.flags.writeable = False
    return indices


# 15-point Kronrod extension of the 7-point Gauss rule, nodes ascending.
_GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_GK_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
# Embedded Gauss-7 weights, zero at Kronrod-only nodes.
_G7_WEIGHTS = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0,
    0.381830050505119, 0.0, 0.279705391489277, 0.0,
    0.129484966168870, 0.0,
])


# Rows: the Kronrod weights, and their difference from the embedded
# Gauss weights, whose contraction is a panel's error estimate.
_GK_RULES = np.stack([_GK_WEIGHTS, _GK_WEIGHTS - _G7_WEIGHTS])


def require_abs_tol(abs_tol: float) -> None:
    """Refuse a quadrature tolerance that is not positive and finite."""
    if not 0.0 < abs_tol < math.inf:  # NaN fails
        raise ValidationError(f"abs_tol must be positive and finite, got {abs_tol}")


def _omega_to_t(omega):
    # inverse of omega = t / (1 - t^2) on (-1, 1), written without the
    # cancellation of (-1 + sqrt(1 + 4 omega^2)) / (2 omega) at small
    # omega; elementwise on an array
    return 2.0 * omega / (1.0 + np.hypot(1.0, 2.0 * omega))


def require_resolved_poles(poles: Iterable[complex]) -> None:
    """Refuse poles narrower than integrate_spectrum's frequency map resolves.

    A pole lambda peaks at omega = -Im lambda with half-width |Re lambda|.
    At t, the map omega = t/(1-t^2) shrinks that half-width to |Re lambda|
    (1-t^2)^2/(1+t^2). Below POLE_MIN_SPACINGS float spacings at t, the
    panels around the pole hold too few representable nodes: the Kronrod
    and Gauss sums agree on a wrong value, and the error estimate reports
    convergence. The first such pole, in order, raises NumericsError; so
    does a NaN or Inf pole.
    """
    poles = np.asarray(list(poles), dtype=complex)
    half_width, spacing = _pole_widths(poles)
    bad = first_failure(half_width >= POLE_MIN_SPACINGS * spacing)  # NaN fails
    if bad is not None:
        raise NumericsError(
            f"resonance at omega = {-poles[bad].imag:.6g} with half-width "
            f"{abs(poles[bad].real):.3g} is narrower than the frequency map "
            f"resolves ({half_width[bad] / spacing[bad]:.3g} float spacings "
            f"in t, need {POLE_MIN_SPACINGS:g})"
        )


def _pole_widths(poles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The half-width of every pole at its t, and the float spacing at
    that t (see require_resolved_poles); NaN for a NaN or Inf pole."""
    with np.errstate(all="ignore"):
        t = np.abs(_omega_to_t(-poles.imag))
        return np.abs(poles.real) * (1.0 - t * t) ** 2 / (1.0 + t * t), np.spacing(t)


def _pole_preimages(poles: np.ndarray) -> np.ndarray:
    """Both preimages t and -1/t, under omega = t/(1-t^2), of the complex
    frequency omega0 = -Im lambda + i|Re lambda| of every pole lambda of a
    row (m,) or a stack (..., m): (..., 2m), the m preimages t, then the
    m preimages -1/t.

    The preimages are the roots of omega0 t^2 + t - omega0 = 0. For
    |omega0| <= 1/2 they are 2 omega0/(1 + s) and -(1 + s)/(2 omega0) with
    s = sqrt(1 + 4 omega0^2), whose real part is nonnegative, so 1 + s
    does not cancel. Above, they are 1/(u + r) and 1/(u - r) with
    u = 1/(2 omega0) and r = sqrt(1 + u^2), so 4 omega0^2 cannot overflow.
    A root at infinity (omega0 near 0) comes out infinite or NaN, and
    the ellipse test reads it as far from every panel.
    """
    omega = -poles.imag + 1j * np.abs(poles.real)
    small = np.abs(omega) <= 0.5
    with np.errstate(all="ignore"):
        z = 2.0 * omega
        one_plus_s = 1.0 + np.sqrt(1.0 + z * z)
        u = 0.5 / omega
        r = np.sqrt(1.0 + u * u)
        return np.concatenate(
            [np.where(small, z / one_plus_s, 1.0 / (u + r)),
             np.where(small, -one_plus_s / z, 1.0 / (u - r))],
            axis=-1,
        )


def _panel_plans(poles: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The starting panels of every member of a stack (P, m) of poles, as
    flat arrays (lo, hi, owner) in t sorted by owner, then lo: each
    member's panels tile [0, 1).

    Each member's 2 uniform panels are halved until no pole preimage of
    that member lies inside the Bernstein ellipse of parameter _PLAN_RHO
    around any of its panels: the ellipse with foci lo and hi whose sum
    of focal distances is (rho + 1/rho) (hi - lo) / 2. Outside it the
    mapped integrand is analytic, so the Gauss-Kronrod error estimate of
    the panel can be trusted (Trefethen, SIAM Review 50, 67 (2008)). Both
    preimages count, because the map is two-to-one: a narrow pole at
    omega = -700 also sits just beyond t = 1, next to the panels that
    hold omega -> +infinity. A member whose plan exceeds
    QUADRATURE_MAX_PANELS raises NumericsError.

    Outside the ellipses the estimate holds whatever the panel width, so
    a smooth stretch needs no floor of uniform panels: the refinement
    splits it only where its own estimate asks.

    All members are halved together, one depth level per pass, and only
    the panels made in the last pass are tested again: a panel that was
    clear stays clear. Each member gets the panels it would get alone.
    """
    points = _pole_preimages(poles)
    focal_sum = 0.5 * (_PLAN_RHO + 1.0 / _PLAN_RHO)
    members = len(poles)
    lo = 0.5 * (np.arange(2 * members) % 2)
    hi = lo + 0.5
    owner = np.repeat(np.arange(members), 2)
    fresh = np.arange(len(lo))
    while True:
        a, b, near_of = lo[fresh], hi[fresh], points[owner[fresh]]
        focal = np.abs(near_of - a[:, None]) + np.abs(near_of - b[:, None])
        # a NaN distance (a root at infinity) compares False: not near
        near = fresh[(focal < focal_sum * (b - a)[:, None]).any(axis=1)]
        if not near.size:
            return lo, hi, owner
        # no member can pass the cap while all of them together stay below it
        if len(lo) + len(near) > QUADRATURE_MAX_PANELS and (
            np.bincount(owner, minlength=members) + np.bincount(owner[near], minlength=members)
            > QUADRATURE_MAX_PANELS
        ).any():
            raise NumericsError(
                f"the poles need more than {QUADRATURE_MAX_PANELS} starting panels"
            )
        # each near panel becomes (lo, mid), (mid, hi) in its place
        pieces = np.ones(len(lo), dtype=int)
        pieces[near] = 2
        first = near + np.arange(len(near))
        mid = 0.5 * (lo[near] + hi[near])
        lo, hi, owner = (np.repeat(x, pieces) for x in (lo, hi, owner))
        hi[first], lo[first + 1] = mid, mid
        fresh = np.repeat(first, 2)
        fresh[1::2] += 1


def _gk_panels(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray):
    """Evaluate the mapped integrand on a batch of panels.

    Returns (kronrod values, per-panel entrywise error estimates). The
    node axis is contracted once, by the rules scaled with each panel's
    Jacobian, so no weighted copy of the values is made. A non-finite
    integrand value raises NumericsError.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    t = mid[:, None] + half[:, None] * _GK_NODES[None, :]
    omega = t / (1.0 - t * t)
    jac = (1.0 + t * t) / (1.0 - t * t) ** 2
    flat = np.asarray(f(omega.reshape(-1)))
    if flat.shape[0] != omega.size:
        raise NumericsError(
            "integrand must be vectorized over its frequency argument"
        )
    rules = _GK_RULES * (jac * half[:, None])[:, None, :]
    with np.errstate(all="ignore"):  # a non-finite value is refused below
        sums = rules @ flat.reshape(t.shape + (-1,))
    if not np.isfinite(sums).all():
        values = flat.reshape(omega.size, -1)
        bad = np.argwhere(~np.isfinite(values))
        raise NumericsError(
            f"integrand value {values[tuple(bad[0])]} at omega = "
            f"{float(omega.flat[bad[0][0]])!r} is not finite"
            if bad.size
            else "a panel sum of finite integrand values overflows"
        )
    shape = (len(lo),) + flat.shape[1:]
    return sums[:, 0].reshape(shape), np.abs(sums[:, 1]).reshape(shape)


def integrate_spectrum(
    f: Callable[[np.ndarray], np.ndarray],
    abs_tol: float = QUADRATURE_ABS_TOL,
    poles: Iterable[complex] = (),
) -> np.ndarray:
    """Adaptive quadrature of (1/2pi) * integral of f over omega >= 0.

    ``f`` must accept a 1-d array of frequencies and return an array
    whose leading axis matches it; trailing axes (matrix entries) are
    integrated entrywise. Every frequency passed to ``f`` is positive.
    The half-line is mapped to [0, 1) through omega = t/(1-t^2), so
    Lorentzian tails need no manual cutoff, and a Gauss-Kronrod 7/15
    pair is refined from the starting panels until the estimated
    absolute error is at most ``abs_tol`` per entry, over at most
    ``QUADRATURE_MAX_PANELS`` panels. A caller who wants the whole real
    line integrates f(omega) + f(-omega).

    ``poles`` are the eigenvalues lambda whose resonances f carries: a
    pole peaks at omega = -Im lambda with half-width |Re lambda| (a
    conjugation-closed spectrum holds the poles of f(omega) and of
    f(-omega) alike). The starting panels are the 2 uniform panels in
    t, halved until every pole lies outside each panel's Bernstein
    ellipse (see _panel_plans); without poles a feature much narrower
    than those panels can escape the error estimate entirely.
    ``abs_tol`` must be positive and finite, and so must every pole
    (else ValidationError); a pole narrower than the map resolves
    raises NumericsError (see require_resolved_poles). All three are
    refused before any panel is evaluated. A non-finite integrand value
    raises NumericsError at the first panel batch that holds one.

    This is the one-member call of integrate_spectra: ``f`` receives at
    most QUADRATURE_BATCH_NODES frequencies per call.
    """
    poles = np.asarray(list(poles), dtype=complex).reshape(1, -1)
    return integrate_spectra(lambda members, omegas: f(omegas), abs_tol, poles)[0]


def integrate_spectra(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    abs_tol: float,
    poles: np.ndarray,
) -> np.ndarray:
    """integrate_spectrum of P integrands in lockstep: a stack (P, ...) of
    the half-line integrals.

    ``f(members, omegas)`` evaluates member ``members[k]`` at frequency
    ``omegas[k]`` and returns an array whose leading axis matches them;
    every member has the same trailing shape. ``poles`` is a stack
    (P, m), one row of poles per member. Each member keeps its own
    pole-graded plan, refinement rule, panel cap and error estimate, and
    its result has the bits of integrate_spectrum of that member alone.
    Each round evaluates the new panels of every member still refining
    together, at most QUADRATURE_BATCH_NODES frequencies per call of
    ``f``, so a stack costs one call per batch, not one per member.

    The members are planned and refined on flat arrays of all their
    panels, each tagged with its owner and kept in owner order: each
    member's kept panels, then its new ones, as in a lone call. Each
    round forms every member's Kronrod and error sums left to right,
    with one vectorized add per position in the members' panel lists,
    and splits, caps and retires members with array operations, so a
    round costs numpy calls per position, not per member.

    The refusals of integrate_spectrum come before any panel is
    evaluated, member by member in order, so the first member that would
    refuse alone raises its error. A member that cannot converge raises
    NumericsError in the round it reaches the panel cap, and a
    non-finite integrand value in the batch that holds it.
    """
    require_abs_tol(abs_tol)
    stack = np.asarray(poles, dtype=complex)
    if stack.ndim != 2 or not len(stack):
        raise DimensionError(
            f"poles must be a stack (P, m) of P >= 1 members, got shape {stack.shape}"
        )
    lo, hi, owner = _starting_panels(stack)
    raw_tol = abs_tol * 2.0 * math.pi
    per_batch = max(1, QUADRATURE_BATCH_NODES // len(_GK_NODES))
    kept = results = None
    # flat arrays over every live member's panels, sorted by owner; lo, hi
    # and owner start each round as its new panels
    while len(lo):
        # in bounded batches; each batch is copied into the round's
        # arrays, so its sums do not outlive it
        for start in range(0, len(lo), per_batch):
            batch = slice(start, start + per_batch)
            nodes_of = np.repeat(owner[batch], len(_GK_NODES))
            v, e = _gk_panels(lambda omegas: f(nodes_of, omegas), lo[batch], hi[batch])
            if not start:
                vals = np.empty((len(lo),) + v.shape[1:], v.dtype)
                errs = np.empty((len(lo),) + e.shape[1:], e.dtype)
            vals[batch], errs[batch] = v, e
        del v, e
        if kept is not None:
            # each member's kept panels, then its new ones, as in a lone call
            order = np.argsort(np.concatenate([kept[2], owner]), kind="stable")
            lo, hi, owner, vals, errs = (
                np.concatenate([old, new])[order]
                for old, new in zip(kept, (lo, hi, owner, vals, errs))
            )
        counts = np.bincount(owner)
        counts = counts[counts > 0]
        starts = np.cumsum(counts) - counts
        segment = np.repeat(np.arange(len(starts)), counts)
        total_err = _segment_sums(errs, starts, counts).reshape(len(starts), -1).max(axis=1)
        converged = total_err <= raw_tol
        if converged.any():
            if results is None:
                results = np.empty((len(stack),) + vals.shape[1:], vals.dtype)
            results[owner[starts[converged]]] = (
                _segment_sums(vals, starts[converged], counts[converged]) / (2.0 * math.pi)
            )
        # every member still refining splits a panel: were none of its L
        # panels above raw_tol / 2L, its total would be below raw_tol
        worst = errs.reshape(len(errs), -1).max(axis=1)
        split = worst > raw_tol / (2.0 * counts[segment])
        grown = counts + np.add.reduceat(split, starts, dtype=int)
        capped = first_failure(converged | (grown <= QUADRATURE_MAX_PANELS))
        if capped is not None:
            raise NumericsError(
                f"quadrature did not converge below {abs_tol:.1e} within "
                f"{QUADRATURE_MAX_PANELS} panels",
                estimate=float(total_err[capped]) / (2.0 * math.pi),
            )
        # each split panel becomes (lo, mid), (mid, hi), after the kept ones
        live = ~converged[segment]
        keep, split = live & ~split, live & split
        kept = lo[keep], hi[keep], owner[keep], vals[keep], errs[keep]
        mid = 0.5 * (lo[split] + hi[split])
        lo, hi = (
            np.stack(pair, axis=1).reshape(-1) for pair in ((lo[split], mid), (mid, hi[split]))
        )
        owner = np.repeat(owner[split], 2)
        # the kept panels hold copies, so the round's arrays can go
        del vals, errs

    return results


def _segment_sums(x: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The sum of every segment x[start : start + count] of a flat array,
    added left to right from zero, as Python's sum adds one member's
    panels. Longest segments first, the ones still adding at a position
    are a prefix: one gather into a reused buffer and one add in place
    per position, until one segment is left, whose other terms one
    cumsum adds in order."""
    order = np.argsort(-counts, kind="stable")
    starts, counts = starts[order], counts[order]
    total = np.zeros((len(starts),) + x.shape[1:], x.dtype)
    buf = np.empty_like(total)
    for j in range(counts[0]):
        k = np.count_nonzero(counts > j)
        if k == 1:
            rest = x[starts[0] + j : starts[0] + counts[0]]
            total[0] = np.cumsum(np.concatenate([total[0][None], rest]), axis=0)[-1]
            break
        np.take(x, starts[:k] + j, axis=0, out=buf[:k])
        total[:k] += buf[:k]
    sums = np.empty_like(total)
    sums[order] = total
    return sums


def _starting_panels(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The starting panels of every member of a stack (P, m) of poles,
    flat (see _panel_plans), after the refusals of integrate_spectrum:
    the first member that would refuse alone raises its own error."""
    half_width, spacing = _pole_widths(stack)
    accepted = (np.isfinite(stack) & (half_width >= POLE_MIN_SPACINGS * spacing)).all(axis=1)
    refused = first_failure(accepted)
    if refused is not None:
        # the members before it can refuse only by the panel cap, whose
        # error names no member
        _panel_plans(stack[:refused])
        poles = stack[refused]
        bad = poles[~np.isfinite(poles)]
        if bad.size:
            raise ValidationError(f"poles must be finite, got {bad[0]}")
        require_resolved_poles(poles)
    return _panel_plans(stack)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_MAX_ITER = 400
# Most points one call of golden_sections_max hands its objective while its
# m searches look ahead: each looks d steps ahead, 2^d - 1 points, for the
# largest d with m (2^d - 1) <= _SEARCH_STACK. On optimal_coupling's frame
# budgets (6x6 drifts, one BLAS thread, a 2-core shared Xeon host, medians
# of 40 interleaved runs), one search took 27.5, 18.6, 17.2 and 18.4 ms at
# d = 1, 2, 3 and 4; verify's ten searches took 49.4 ms at d = 1 and
# 51.5 ms at d = 2, as ten 36x36 solves per step are bound by arithmetic.
_SEARCH_STACK = 8


def _golden_stopped(bracket: tuple, rel_tol: float) -> bool:
    """Whether the bracket (a, b, ...) of a search is narrower than its
    stop width, rel_tol max(1, |a|, |b|)."""
    a, b = bracket[0], bracket[1]
    return b - a <= rel_tol * max(1.0, abs(a), abs(b))


def _golden_step(a: float, b: float, c: float, d: float, left: bool) -> tuple:
    """One golden-section step of the bracket (a, b) with the probes
    c < d: it keeps the side of the left probe if ``left``, else that of
    the right one. Returns the new (a, b, c, d) and the new probe."""
    if left:
        b, d = d, c
        c = b - _INV_PHI * (b - a)
        return a, b, c, d, c
    a, c = c, d
    d = a + _INV_PHI * (b - a)
    return a, b, c, d, d


def _golden_tree(bracket: tuple, left: bool, depth: int) -> list[tuple]:
    """Every step that the next ``depth`` steps of a search may take from
    ``bracket`` (a, b, c, d), as _golden_step gives them, 2^depth - 1 in
    all: the first goes left as ``left`` says, and each later one either
    way. They are listed level by level, so the children of node j are
    nodes 2j + 1 (left) and 2j + 2."""
    level = [_golden_step(*bracket, left)]
    tree = list(level)
    for _ in range(depth - 1):
        level = [_golden_step(*node[:4], side) for node in level for side in (True, False)]
        tree.extend(level)
    return tree


def golden_sections_max(
    fn: Callable[[list[float]], Sequence[float]],
    lo: Sequence[float],
    hi: Sequence[float],
    rel_tol: float = 1e-6,
) -> tuple[list[float], list[float]]:
    """Bracketed golden-section maximization of unimodal functions, one
    search per bracket (lo[i], hi[i]), in lockstep.

    ``fn(xs)`` gets k points of each of the m searches, point j of search
    i at xs[j m + i], and returns one value per point. Each search shrinks
    its bracket until the width falls below ``rel_tol`` relative to the
    bracket magnitude, or for at most _GOLDEN_MAX_ITER steps, and then
    stops; a stopped search is handed again the last point it was handed,
    and those values are ignored.

    A step's new point depends only on which probe won the last
    comparison, so the next d steps of a search can reach 2^d - 1 points,
    all known in advance. Every call hands each search that tree
    (_golden_tree), for the largest d with m (2^d - 1) <= _SEARCH_STACK,
    and the search walks its real path through it: one search looks 3
    steps ahead, two look 2, and from three searches on each call is one
    step, one point per search. Searches that look ahead take their two
    first probes in one call. If a call that looks ahead raises a package
    error, every search is where that call found it, and they all finish
    one step per call, so an error comes only from a point that a search
    visits. A search's bookkeeping is plain float arithmetic, so it visits
    the points it would visit run alone, in the same order, and its
    result has the same bits. Returns the lists (argmax, max value).
    Every bracket must be finite with hi > lo (else ValidationError), and
    ``fn`` must return one value per point (else DimensionError).
    """
    lo, hi = [float(x) for x in lo], [float(x) for x in hi]
    if len(lo) != len(hi) or not all(
        x < y and math.isfinite(y - x) for x, y in zip(lo, hi)
    ):  # NaN fails
        raise ValidationError("golden-section brackets must be finite with hi > lo")
    m = len(lo)
    # each search's bracket and probes (a, b, c, d), the values at c and
    # d, and the last point it was handed
    brackets = [(x, y, y - _INV_PHI * (y - x), x + _INV_PHI * (y - x)) for x, y in zip(lo, hi)]
    fc: list = [None] * m
    fd: list = [None] * m
    handed = [bracket[3] for bracket in brackets]
    live = list(range(m))
    steps = 0

    def call(points: list[list[float]]) -> list[list[float]]:
        """The values of the same number of points of every search, from
        one call of fn."""
        xs = [x for level in zip(*points) for x in level]
        values = list(fn(xs))
        if len(values) != len(xs):
            raise DimensionError(
                f"the objective returned {len(values)} values for {len(xs)} points"
            )
        handed[:] = [search[-1] for search in points]
        return [values[i::m] for i in range(m)]

    def advance(depth: int) -> None:
        """Run every search to its end, looking ``depth`` steps ahead."""
        nonlocal live, steps
        if m and fc[0] is None:
            if depth > 1:
                fc[:], fd[:] = zip(*call([list(bracket[2:]) for bracket in brackets]))
            else:
                fc[:] = [v for v, in call([[bracket[2]] for bracket in brackets])]
                fd[:] = [v for v, in call([[bracket[3]] for bracket in brackets])]
        while steps < _GOLDEN_MAX_ITER:
            live = [i for i in live if not _golden_stopped(brackets[i], rel_tol)]
            if not live:
                return
            k = min(depth, _GOLDEN_MAX_ITER - steps)
            trees = {i: _golden_tree(brackets[i], fc[i] > fd[i], k) for i in live}
            values = call([
                [node[4] for node in trees[i]] if i in trees else [handed[i]] * (2**k - 1)
                for i in range(m)
            ])
            for i in live:
                # the root is the step the tree was built for; each later
                # step goes to the child its comparison picks, unless the
                # search stops (the next round's filter checks after the last)
                node = 0
                while True:
                    brackets[i] = trees[i][node][:4]
                    if fc[i] > fd[i]:
                        fd[i], fc[i] = fc[i], values[i][node]
                    else:
                        fc[i], fd[i] = fd[i], values[i][node]
                    node = 2 * node + 1 + (not fc[i] > fd[i])
                    if node >= len(trees[i]) or _golden_stopped(brackets[i], rel_tol):
                        break
            steps += k

    depth = 1
    while 0 < m * (2 ** (depth + 1) - 1) <= _SEARCH_STACK:
        depth += 1
    if depth == 1:
        advance(1)
    else:
        # batch_or_each: after a lookahead call that raises, the searches
        # go on from where it found them, one step per call
        list(batch_or_each([depth], lambda depths: [advance(depths[0])], lambda _: advance(1)))
    x = [0.5 * (bracket[0] + bracket[1]) for bracket in brackets]
    return x, [v for v, in call([[point] for point in x])]
