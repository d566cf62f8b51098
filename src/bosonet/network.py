"""Declarative bosonic network descriptions and their state-space form.

A network is a set of damped modes, each tied to exactly one input
channel, plus bilinear couplings. Dynamics are expressed in the doubled
basis [a_1..a_N, adag_1..adag_N]: the drift matrix carries the
conjugation symmetry [[P, Q], [conj Q, conj P]] and the input matrix is
diag(sqrt gamma) on both sectors, so preservation of the canonical
commutators holds by construction and is re-checkable as a residual.

Frame changes (hyperbolic mode mixing, mode rotations) are represented
by exact symplectic transforms; the drift and the input moments are
both mapped through them rather than through per-coupling formulas.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, FrameError, NumericsError, ValidationError
from .linalg import TOL

COUPLING_KINDS = (
    "beam_splitter",
    "two_mode_squeeze",
    "detuning",
    "degenerate_parametric",
)
_TWO_MODE_KINDS = ("beam_splitter", "two_mode_squeeze")

DOUBLED_ORDERING = "a[0..N-1], adag[0..N-1]"

# |m| <= sqrt(n (n+1)) for a stationary physical bath; engineered frame
# inputs may exceed it, so violations only warn.
_PHYSICALITY_SLACK = 1e-9


def _warn_if_unphysical(occupancy: float, anomalous: complex, context: str) -> None:
    # the product of roots cannot overflow where n (n+1) would
    bound = math.sqrt(occupancy) * math.sqrt(occupancy + 1.0)
    if abs(anomalous) > bound + _PHYSICALITY_SLACK:
        warnings.warn(
            f"{context}: |m| = {abs(anomalous):.6g} exceeds the thermal "
            f"physicality bound sqrt(n(n+1)) = {bound:.6g}; treating as an "
            "engineered input",
            stacklevel=3,
        )


@dataclass(frozen=True)
class BathSpec:
    """One mode's input channel: damping rate and stationary moments.

    gamma is the damping rate, occupancy the thermal quantum number n,
    and anomalous the stationary <a_in a_in> correlator amplitude m.
    """

    gamma: float
    occupancy: float = 0.0
    anomalous: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "occupancy", float(self.occupancy))
        object.__setattr__(self, "anomalous", complex(self.anomalous))
        for name in ("gamma", "occupancy", "anomalous"):
            value = getattr(self, name)
            if not cmath.isfinite(value):
                raise ValidationError(f"bath {name} must be finite, got {value}")
        if not self.gamma > 0:
            raise ValidationError(f"bath gamma must be positive, got {self.gamma}")
        if self.occupancy < 0:
            raise ValidationError(
                f"bath occupancy must be nonnegative, got {self.occupancy}"
            )
        _warn_if_unphysical(self.occupancy, self.anomalous, "bath moments")


@dataclass(frozen=True)
class CouplingTerm:
    """A bilinear Hamiltonian term.

    kind selects the operator content: beam_splitter is
    g adag_i a_j + h.c., two_mode_squeeze is G adag_i adag_j + h.c.,
    detuning is Delta adag_i a_i (real Delta), and
    degenerate_parametric is lam a_i^2 + conj(lam) adag_i^2.
    """

    kind: str
    amplitude: complex
    modes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        object.__setattr__(self, "modes", tuple(int(i) for i in self.modes))
        if self.kind not in COUPLING_KINDS:
            raise ValidationError(
                f"unknown coupling kind {self.kind!r}; expected one of "
                f"{COUPLING_KINDS}"
            )
        arity = 2 if self.kind in _TWO_MODE_KINDS else 1
        if len(self.modes) != arity:
            raise ValidationError(
                f"{self.kind} takes {arity} mode index(es), got {self.modes}"
            )
        if arity == 2 and self.modes[0] == self.modes[1]:
            raise ValidationError(f"{self.kind} needs two distinct modes")
        if any(i < 0 for i in self.modes):
            raise ValidationError(f"mode indices must be nonnegative: {self.modes}")
        if not cmath.isfinite(self.amplitude):
            raise ValidationError(
                f"{self.kind} amplitude must be finite, got {self.amplitude}"
            )
        if self.kind == "detuning" and self.amplitude.imag != 0.0:
            raise ValidationError("detuning amplitude must be real")


def beam_splitter(amplitude, i, j) -> CouplingTerm:
    return CouplingTerm("beam_splitter", amplitude, (i, j))


def two_mode_squeeze(amplitude, i, j) -> CouplingTerm:
    return CouplingTerm("two_mode_squeeze", amplitude, (i, j))


def detuning(amplitude, i) -> CouplingTerm:
    return CouplingTerm("detuning", amplitude, (i,))


def degenerate_parametric(amplitude, i) -> CouplingTerm:
    return CouplingTerm("degenerate_parametric", amplitude, (i,))


@dataclass(frozen=True)
class NetworkSpec:
    """Declarative network: modes, one bath per mode, couplings."""

    n_modes: int
    baths: tuple[BathSpec, ...]
    couplings: tuple[CouplingTerm, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "baths", tuple(self.baths))
        object.__setattr__(self, "couplings", tuple(self.couplings))
        if self.n_modes < 1:
            raise ValidationError("a network needs at least one mode")
        if len(self.baths) != self.n_modes:
            raise ValidationError(
                f"need exactly one bath per mode: {self.n_modes} modes, "
                f"{len(self.baths)} baths"
            )
        for c in self.couplings:
            if any(i >= self.n_modes for i in c.modes):
                raise ValidationError(
                    f"coupling {c.kind} references mode {max(c.modes)} but the "
                    f"network has {self.n_modes} modes"
                )

    @property
    def gammas(self) -> np.ndarray:
        return np.array([b.gamma for b in self.baths])


def network_to_json(spec: NetworkSpec) -> dict:
    """Serialize to the documented JSON layout (0-based mode indices)."""
    return {
        "modes": spec.n_modes,
        "baths": [
            {
                "gamma": b.gamma,
                "n": b.occupancy,
                "m_re": b.anomalous.real,
                "m_im": b.anomalous.imag,
            }
            for b in spec.baths
        ],
        "couplings": [
            {
                "kind": c.kind,
                "amp_re": c.amplitude.real,
                "amp_im": c.amplitude.imag,
                "modes": list(c.modes),
            }
            for c in spec.couplings
        ],
    }


def _require_keys(obj: dict, keys: Sequence[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: expected an object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ValidationError(f"{where}: missing key(s) {missing}")
    unknown = [k for k in obj if k not in keys]
    if unknown:
        raise ValidationError(f"{where}: unknown key(s) {unknown}")


def _number(obj: dict, key: str, where: str) -> float:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValidationError(f"{where}: {key} must be a number, got {v!r}")
    if not math.isfinite(v):
        raise ValidationError(f"{where}: {key} must be finite, got {v!r}")
    return float(v)


def network_from_json(doc: dict) -> NetworkSpec:
    """Parse the documented JSON layout, reporting the offending field."""
    _require_keys(doc, ("modes", "baths", "couplings"), "network spec")
    modes = doc["modes"]
    if isinstance(modes, bool) or not isinstance(modes, int):
        raise ValidationError(f"network spec: modes must be an integer, got {modes!r}")
    if not isinstance(doc["baths"], list) or not isinstance(doc["couplings"], list):
        raise ValidationError("network spec: baths and couplings must be arrays")
    baths = []
    for k, b in enumerate(doc["baths"]):
        where = f"baths[{k}]"
        _require_keys(b, ("gamma", "n", "m_re", "m_im"), where)
        baths.append(
            BathSpec(
                gamma=_number(b, "gamma", where),
                occupancy=_number(b, "n", where),
                anomalous=complex(_number(b, "m_re", where), _number(b, "m_im", where)),
            )
        )
    couplings = []
    for k, c in enumerate(doc["couplings"]):
        where = f"couplings[{k}]"
        _require_keys(c, ("kind", "amp_re", "amp_im", "modes"), where)
        idx = c["modes"]
        if not isinstance(idx, list) or not all(
            isinstance(i, int) and not isinstance(i, bool) for i in idx
        ):
            raise ValidationError(f"{where}: modes must be an array of integers")
        couplings.append(
            CouplingTerm(
                kind=c["kind"] if isinstance(c["kind"], str) else "",
                amplitude=complex(
                    _number(c, "amp_re", where), _number(c, "amp_im", where)
                ),
                modes=tuple(idx),
            )
        )
    return NetworkSpec(n_modes=modes, baths=tuple(baths), couplings=tuple(couplings))


def moments_from_json(doc: dict, n_modes: int) -> InputMoments:
    """Parse an inputs document (one channel per mode), naming the bad field."""
    _require_keys(doc, ("channels",), "inputs")
    channels = doc["channels"]
    if not isinstance(channels, list):
        raise ValidationError("inputs: 'channels' must be an array")
    if len(channels) != n_modes:
        raise ValidationError(f"inputs: expected {n_modes} channels, got {len(channels)}")
    occupancy, anomalous = [], []
    for k, channel in enumerate(channels):
        where = f"inputs: channels[{k}]"
        _require_keys(channel, ("n", "m_re", "m_im"), where)
        occupancy.append(_number(channel, "n", where))
        anomalous.append(
            complex(_number(channel, "m_re", where), _number(channel, "m_im", where))
        )
    return InputMoments(np.array(occupancy), np.array(anomalous))


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Doubled-space drift and input matrices, ordered as DOUBLED_ORDERING;
    the commutator metric is metric(n_modes)."""

    drift: np.ndarray
    input: np.ndarray
    n_modes: int

    @property
    def gammas(self) -> np.ndarray:
        d = np.diag(self.input).real[: self.n_modes]
        return d * d


def metric(n_modes: int) -> np.ndarray:
    """The commutator metric diag(I_N, -I_N)."""
    return np.diag(np.concatenate([np.ones(n_modes), -np.ones(n_modes)]))


def _doubled(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The conjugation-symmetric doubled matrix [[p, q], [conj q, conj p]]."""
    n = p.shape[0]
    out = np.empty((2 * n, 2 * n), dtype=complex)
    out[:n, :n], out[:n, n:] = p, q
    out[n:, :n], out[n:, n:] = q.conj(), p.conj()
    return out


def build_state_space(spec: NetworkSpec) -> StateSpace:
    """Assemble the Heisenberg-Langevin drift and input matrices.

    Hamiltonian terms enter the annihilation sector as -i times their
    coefficient; the creation sector follows from conjugation symmetry.
    """
    n = spec.n_modes
    ann = np.zeros((n, n), dtype=complex)  # a <- a
    mix = np.zeros((n, n), dtype=complex)  # a <- adag
    for i, b in enumerate(spec.baths):
        ann[i, i] -= 0.5 * b.gamma
    for c in spec.couplings:
        if c.kind == "beam_splitter":
            i, j = c.modes
            ann[i, j] += -1j * c.amplitude
            ann[j, i] += -1j * c.amplitude.conjugate()
        elif c.kind == "two_mode_squeeze":
            i, j = c.modes
            mix[i, j] += -1j * c.amplitude
            mix[j, i] += -1j * c.amplitude
        elif c.kind == "detuning":
            (i,) = c.modes
            ann[i, i] += -1j * c.amplitude.real
        else:  # degenerate_parametric
            (i,) = c.modes
            mix[i, i] += -2j * c.amplitude.conjugate()
    drift = _doubled(ann, mix)
    root = np.sqrt(spec.gammas)
    inp = np.diag(np.concatenate([root, root])).astype(complex)
    return StateSpace(drift=drift, input=inp, n_modes=n)


def passive_state_space(ss: StateSpace) -> bool:
    """True iff the drift has no annihilation/creation mixing block (the
    one definition of passivity)."""
    n = ss.n_modes
    return bool(np.all(ss.drift[:n, n:] == 0))


def is_passive(spec: NetworkSpec) -> bool:
    """``passive_state_space`` of the network's drift; squeeze or
    parametric terms of zero amplitude leave it passive."""
    return passive_state_space(build_state_space(spec))


@dataclass(frozen=True)
class RealizabilityReport:
    residual: float
    tol: float
    passed: bool


def check_physical_realizability(ss: StateSpace) -> RealizabilityReport:
    """Residual of the commutator-preservation identity.

    Evaluates A sigma + sigma A^H + D sigma D^H, which vanishes exactly
    when the dynamics preserves canonical commutation relations. The
    residual is roundoff of the operands, so it passes within
    TOL.realizability * max(1, ||A||_max, ||D||_max^2); the report's tol
    is TOL.realizability. A NaN residual fails.
    """
    sig = metric(ss.n_modes)
    r = ss.drift @ sig + sig @ ss.drift.conj().T + ss.input @ sig @ ss.input.conj().T
    residual = float(np.abs(r).max())
    tol = TOL.realizability
    d_max = float(np.abs(ss.input).max())
    scale = max(1.0, float(np.abs(ss.drift).max()), d_max * d_max)
    return RealizabilityReport(
        residual=residual, tol=tol, passed=residual <= tol * scale
    )


def _moment_scale(*moments: np.ndarray) -> float:
    """max(1, largest |entry|) for relative guards; non-finite entries raise."""
    tops = [float(np.abs(m).max(initial=0.0)) for m in moments]
    if not all(math.isfinite(top) for top in tops):
        raise ValidationError("input moments must be finite")
    return max(1.0, *tops)


@dataclass(frozen=True, eq=False)
class InputMoments:
    """Stationary white-noise second moments, one set per input channel.

    occupancy[j] is <adag_j,in a_j,in>, anomalous[j] is <a_j,in a_j,in>.
    Each mode has its own bath, so channels are uncorrelated.
    """

    occupancy: np.ndarray
    anomalous: np.ndarray

    def __post_init__(self):
        occ = np.atleast_1d(np.asarray(self.occupancy, dtype=float)).copy()
        ano = np.atleast_1d(np.asarray(self.anomalous, dtype=complex)).copy()
        if occ.shape != ano.shape or occ.ndim != 1:
            raise DimensionError(
                "occupancy and anomalous must be 1-d and the same length"
            )
        for name, values in (("occupancy", occ), ("anomalous", ano)):
            if not np.all(np.isfinite(values)):
                raise ValidationError(f"input {name} must be finite")
        if not np.all(occ >= -1e-9):
            raise ValidationError("channel occupancies must be nonnegative")
        occ = np.maximum(occ, 0.0)
        object.__setattr__(self, "occupancy", occ)
        object.__setattr__(self, "anomalous", ano)
        for j in range(occ.shape[0]):
            _warn_if_unphysical(occ[j], ano[j], f"input channel {j}")

    @classmethod
    def vacuum(cls, n_channels: int) -> "InputMoments":
        return cls(np.zeros(n_channels), np.zeros(n_channels, dtype=complex))

    @classmethod
    def thermal(cls, occupancies: Iterable[float]) -> "InputMoments":
        occ = np.asarray(list(occupancies), dtype=float)
        return cls(occ, np.zeros_like(occ, dtype=complex))

    @classmethod
    def from_baths(cls, spec: NetworkSpec) -> "InputMoments":
        return cls(
            np.array([b.occupancy for b in spec.baths]),
            np.array([b.anomalous for b in spec.baths]),
        )

    @property
    def n_channels(self) -> int:
        return int(self.occupancy.shape[0])

    def noise_matrix(self) -> np.ndarray:
        """Symmetrized doubled-basis noise moment matrix.

        The vacuum contribution is 1/2 per quadrature, so this feeds the
        steady-state Lyapunov equation directly.
        """
        normal = 0.5 * np.eye(self.n_channels) + np.diag(self.occupancy)
        return _doubled(normal, np.diag(self.anomalous))


def _frame_blocks(n_modes: int, *modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Identity P and zero Q blocks for a transform acting on ``modes``."""
    if not all(0 <= m < n_modes for m in modes):
        raise DimensionError(f"mode(s) {modes} out of range for {n_modes} modes")
    return np.eye(n_modes, dtype=complex), np.zeros((n_modes, n_modes), dtype=complex)


@dataclass(frozen=True, eq=False)
class MomentTransform:
    """A change of frame xi' = matrix @ xi in the doubled basis.

    The matrix must respect the doubled conjugation structure and
    preserve the commutator metric (symplectic condition), which is
    validated at construction. Input moments are mapped through the
    matrix congruence, never through per-case formulas.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
            raise DimensionError("transform matrix must be square of even dimension")
        object.__setattr__(self, "matrix", m)
        n = m.shape[0] // 2
        structure = max(
            float(np.abs(m[n:, n:] - m[:n, :n].conj()).max(initial=0.0)),
            float(np.abs(m[n:, :n] - m[:n, n:].conj()).max(initial=0.0)),
        )
        if not structure <= 1e-12:
            raise ValidationError("transform breaks the doubled conjugation structure")
        sig = metric(n)
        if not float(np.abs(m @ sig @ m.conj().T - sig).max()) <= 1e-10:
            raise ValidationError("transform does not preserve the commutator metric")

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2

    @classmethod
    def bogoliubov(cls, n_modes: int, mode: int, xi: float) -> "MomentTransform":
        """alpha = cosh(xi) a + sinh(xi) adag on one mode."""
        p, q = _frame_blocks(n_modes, mode)
        p[mode, mode] = math.cosh(xi)
        q[mode, mode] = math.sinh(xi)
        return cls(_doubled(p, q))

    @classmethod
    def two_mode_bogoliubov(
        cls, n_modes: int, mode_a: int, mode_b: int, xi: float
    ) -> "MomentTransform":
        """alpha_a = cosh(xi) a_a + sinh(xi) adag_b, and b <-> a."""
        if mode_a == mode_b:
            raise ValidationError("two-mode hyperbolic mixing needs distinct modes")
        p, q = _frame_blocks(n_modes, mode_a, mode_b)
        p[mode_a, mode_a] = math.cosh(xi)
        p[mode_b, mode_b] = math.cosh(xi)
        q[mode_a, mode_b] = math.sinh(xi)
        q[mode_b, mode_a] = math.sinh(xi)
        return cls(_doubled(p, q))

    @classmethod
    def mixer(cls, n_modes: int, mode_a: int, mode_b: int) -> "MomentTransform":
        """Sum/difference mixing: a' = (a+b)/sqrt2, b' = (a-b)/sqrt2."""
        if mode_a == mode_b:
            raise ValidationError("mixing needs distinct modes")
        p, q = _frame_blocks(n_modes, mode_a, mode_b)
        r = 1.0 / math.sqrt(2.0)
        p[mode_a, mode_a] = r
        p[mode_a, mode_b] = r
        p[mode_b, mode_a] = r
        p[mode_b, mode_b] = -r
        return cls(_doubled(p, q))

    @classmethod
    def rotation(cls, n_modes: int, mode: int, phi: float) -> "MomentTransform":
        """xi'_mode = exp(i phi) xi_mode."""
        p, q = _frame_blocks(n_modes, mode)
        p[mode, mode] = cmath.exp(1j * phi)
        return cls(_doubled(p, q))

    def compose(self, inner: "MomentTransform") -> "MomentTransform":
        """The transform applying ``inner`` first, then this one."""
        return MomentTransform(self.matrix @ inner.matrix)

    def apply_to_drift(self, drift: np.ndarray) -> np.ndarray:
        # T is symplectic, so T^-1 = sigma T^H sigma exactly
        sig = metric(self.n_modes)
        return self.matrix @ drift @ (sig @ self.matrix.conj().T @ sig)

    def apply_to_inputs(self, inputs: InputMoments) -> InputMoments:
        """Map input moments into the new frame, one set per channel.

        Valid when the transform only mixes channels of equal damping
        (then the input matrix commutes with the transform and the new
        frame keeps the standard one-bath-per-mode form). The doubled
        structure of the result is checked to 1e-10 of max(1, its
        largest entry), so thermal occupancies of 1e6 and more pass.
        Against max(1, largest correlator), the normal diagonal must be
        real to 1e-9 (else ValidationError) and every cross-channel
        correlator at most 1e-14 (else NumericsError). Non-finite
        moments raise ValidationError.
        """
        n = self.n_modes
        if inputs.n_channels != n:
            raise DimensionError("input moments do not match the transform size")
        with np.errstate(all="ignore"):  # overflow is refused just below
            out = self.matrix @ inputs.noise_matrix() @ self.matrix.conj().T
        out_scale = _moment_scale(out)
        cn = out[n:, n:] - 0.5 * np.eye(n)
        cm = out[:n, n:]
        checks = max(
            float(np.abs(out[:n, :n] - (0.5 * np.eye(n) + cn.T)).max()),
            float(np.abs(out[n:, :n] - cm.conj()).max()),
            float(np.abs(cm - cm.T).max()),
        )
        if not checks <= 1e-10 * out_scale:
            raise NumericsError(
                "transformed noise matrix lost its doubled structure",
                estimate=checks,
            )
        scale = _moment_scale(cn, cm)
        occ, ano = np.diag(cn), np.diag(cm)
        if not float(np.abs(occ.imag).max(initial=0.0)) <= 1e-9 * scale:
            raise ValidationError("normal correlator diagonal must be real")
        cross = max(
            float(np.abs(cn - np.diag(occ)).max(initial=0.0)),
            float(np.abs(cm - np.diag(ano)).max(initial=0.0)),
        )
        if not cross <= 1e-14 * scale:
            raise NumericsError(
                "frame change produced cross-channel correlators", estimate=cross
            )
        return InputMoments(occ.real, ano)


def spec_from_state_space(drift: np.ndarray, baths: Sequence[BathSpec]) -> NetworkSpec:
    """Read the couplings back from a doubled-space drift.

    The inverse of build_state_space for the given baths: detuning and
    parametric terms come from the diagonals of the P (a <- a) and
    Q (a <- adag) blocks, beam-splitter and squeeze terms from their
    i < j entries. Entries at or below 1e-12 max(1, ||drift||_max) are
    dropped. The drift is rebuilt from the result, and a round-trip
    defect above 1e-10 of that scale raises FrameError: the drift has
    no one-bath-per-mode form with these dampings.
    """
    baths = tuple(baths)
    n = len(baths)
    d = np.asarray(drift, dtype=complex)
    if d.shape != (2 * n, 2 * n):
        raise DimensionError(f"drift of shape {d.shape} does not fit {n} baths")
    scale = max(1.0, float(np.abs(d).max(initial=0.0)))
    cutoff = 1e-12 * scale
    ann, mix = d[:n, :n], d[:n, n:]
    couplings = []
    for i, j in zip(*np.triu_indices(n, 1)):
        if abs(ann[i, j]) > cutoff:
            couplings.append(beam_splitter(1j * ann[i, j], i, j))
        if abs(mix[i, j]) > cutoff:
            couplings.append(two_mode_squeeze(1j * mix[i, j], i, j))
    for i in range(n):
        if abs(ann[i, i].imag) > cutoff:
            couplings.append(detuning(-ann[i, i].imag, i))
        if abs(mix[i, i]) > cutoff:
            couplings.append(degenerate_parametric((0.5j * mix[i, i]).conjugate(), i))
    spec = NetworkSpec(n_modes=n, baths=baths, couplings=couplings)
    defect = float(np.abs(build_state_space(spec).drift - d).max())
    if not defect <= 1e-10 * scale:
        raise FrameError(
            f"drift has no one-bath-per-mode form (round-trip defect {defect:.3e})"
        )
    return spec


def transform_network(spec: NetworkSpec, transform: MomentTransform) -> NetworkSpec:
    """Re-express a network in the frame xi' = T xi of ``transform``.

    The drift is conjugated, T A T^-1, and read back into couplings by
    spec_from_state_space; the bath moments go through the same
    congruence (apply_to_inputs). The new frame keeps one bath per mode
    only when T mixes channels of equal damping: otherwise the drift
    does not round-trip and FrameError is raised, ahead of any
    cross-correlator refusal.
    """
    if transform.n_modes != spec.n_modes:
        raise DimensionError("transform and network differ in their mode count")
    drift = transform.apply_to_drift(build_state_space(spec).drift)
    frame = spec_from_state_space(drift, spec.baths)
    moments = transform.apply_to_inputs(InputMoments.from_baths(spec))
    baths = tuple(
        BathSpec(b.gamma, moments.occupancy[i], moments.anomalous[i])
        for i, b in enumerate(spec.baths)
    )
    return replace(frame, baths=baths)


def hyperbolic_frame(g_plus: float, g_minus: float) -> tuple[float, float]:
    """(g_script, xi) that make a beam splitter g_minus plus a squeeze
    g_plus on one pair a pure beam splitter of rate g_script in the frame
    alpha = cosh(xi) a + sinh(xi) adag. FrameError unless
    |g_plus| < |g_minus| (NaN fails)."""
    if not abs(g_plus) < abs(g_minus):
        raise FrameError(
            f"no hyperbolic frame: g_plus = {g_plus:g} must be below "
            f"g_minus = {g_minus:g}"
        )
    return math.sqrt(g_minus**2 - g_plus**2), math.atanh(g_plus / g_minus)
