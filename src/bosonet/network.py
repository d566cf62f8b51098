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

Grids are evaluated as stacks: a ``StateSpace`` may hold P drifts and
input matrices of shape (P, 2N, 2N), ``InputMoments`` P channel sets of
shape (P, N), and a ``MomentTransform`` P matrices. Every check then
runs for every member of the stack, and the first failing one raises.
A stack of networks of one structure is built from coefficient columns
by family_state_space (coupling slots, one amplitude column per slot,
the dampings), the one holder of the coupling kinds' entry rules;
build_state_spaces gathers the columns of its specs and calls it.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, FrameError, NumericsError, ValidationError
from .linalg import LyapunovOperator, first_failure

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
REALIZABILITY_TOL = 1e-12


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
        if not isinstance(c["kind"], str):
            raise ValidationError(f"{where}: kind must be a string, got {c['kind']!r}")
        couplings.append(
            CouplingTerm(
                kind=c["kind"],
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
    the commutator metric is metric(n_modes). Either matrix may be a
    stack (P, 2N, 2N); gammas then has shape (P, N).

    The budget, the steady covariance and the spectral route of a state
    space solve with the Lyapunov operator it holds (``_lyapunov``,
    formed on first use), so its drift is factored once for all of them;
    the drift must not change after. It also holds the thermal channel
    kernels of its drift (``_thermal_kernels``), which steady's
    thermal_covariance contracts for any occupancies."""

    drift: np.ndarray
    input: np.ndarray
    n_modes: int

    @functools.cached_property
    def _lyapunov(self) -> LyapunovOperator:
        return LyapunovOperator(self.drift)

    @functools.cached_property
    def _thermal_kernels(self) -> np.ndarray:
        """S_j solving A S_j + S_j A^H + D (e_j e_j^H + e_{N+j} e_{N+j}^H) D^H
        = 0 for each channel j, shape (N, 2N, 2N), or (P, N, 2N, 2N) for a
        stack: one Hermitian source per channel on ``_lyapunov``, formed
        on first use and kept, read-only. The source is its own mirror, so
        each S_j keeps the mirror defect as a witness of the solve."""
        n = self.n_modes
        cols = self.input.swapaxes(-2, -1)  # row k is the column d_k of D
        a, b = cols[..., :n, :, None], cols[..., n:, :, None]
        sources = a * a.conj().swapaxes(-2, -1) + b * b.conj().swapaxes(-2, -1)
        lead = np.broadcast_shapes(self.drift.shape[:-2], sources.shape[:-3])
        kernels = self._lyapunov.solve(np.broadcast_to(sources, lead + sources.shape[-3:]))
        kernels.flags.writeable = False
        return kernels

    @property
    def gammas(self) -> np.ndarray:
        d = np.diagonal(self.input, axis1=-2, axis2=-1).real[..., : self.n_modes]
        return d * d

    def members(self) -> list["StateSpace"]:
        """The one-drift state spaces of a stack, in order."""
        if self.drift.ndim != 3:
            raise DimensionError(
                f"members() needs a stack of drifts (P, 2N, 2N), not shape {self.drift.shape}"
            )
        inputs = np.broadcast_to(self.input, self.drift.shape)
        return [
            StateSpace(drift=a, input=d, n_modes=self.n_modes)
            for a, d in zip(self.drift, inputs)
        ]


def metric(n_modes: int) -> np.ndarray:
    """The commutator metric diag(I_N, -I_N)."""
    return np.diag(np.concatenate([np.ones(n_modes), -np.ones(n_modes)]))


def _doubled(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The conjugation-symmetric doubled matrix [[p, q], [conj q, conj p]]
    (of each pair of blocks, for stacks)."""
    n = p.shape[-1]
    lead = np.broadcast_shapes(p.shape, q.shape)[:-2]
    out = np.empty(lead + (2 * n, 2 * n), dtype=complex)
    out[..., :n, :n], out[..., :n, n:] = p, q
    out[..., n:, :n], out[..., n:, n:] = q.conj(), p.conj()
    return out


def mirrored(m: np.ndarray) -> np.ndarray:
    """Sigma_x conj(m) Sigma_x, with Sigma_x the swap of the a and a^dagger
    blocks, of each doubled matrix (..., 2N, 2N). A matrix of the doubled
    conjugation structure (see _doubled) is its own mirror."""
    half = m.shape[-1] // 2
    return np.roll(m.conj(), (half, half), axis=(-2, -1))


def mirror_defect(m: np.ndarray) -> np.ndarray:
    """max |m - mirrored(m)| of each doubled matrix (..., 2N, 2N); NaN
    where m has a non-finite entry."""
    return np.abs(m - mirrored(m)).max(axis=(-2, -1), initial=0.0)


def build_state_space(spec: NetworkSpec) -> StateSpace:
    """Assemble the Heisenberg-Langevin drift and input matrices.

    Hamiltonian terms enter the annihilation sector as -i times their
    coefficient; the creation sector follows from conjugation symmetry.
    This is the one-spec call of build_state_spaces.
    """
    ss = build_state_spaces([spec])
    return StateSpace(drift=ss.drift[0], input=ss.input[0], n_modes=ss.n_modes)


def build_state_spaces(specs: Sequence[NetworkSpec]) -> StateSpace:
    """build_state_space of every spec of a grid (one mode count), as one
    stacked state space of P drifts and input matrices.

    The specs are one family (family_state_space) whose slots are the
    (position k, kind, modes) of their couplings, sorted: the k-th
    coupling of a spec fills its slot among those of position k, and the
    specs without that coupling give the slot amplitude 0, which adds
    exact zeros. Each spec's terms therefore enter in its own order."""
    counts = {spec.n_modes for spec in specs}
    if len(counts) != 1:
        raise DimensionError(f"cannot stack networks of mode counts {sorted(counts)}")
    cells = [
        ((k, c.kind, c.modes), row, c.amplitude)
        for row, spec in enumerate(specs)
        for k, c in enumerate(spec.couplings)
    ]
    slots = sorted({slot for slot, _, _ in cells})
    index = {slot: s for s, slot in enumerate(slots)}
    amplitudes = np.zeros((len(slots), len(specs)), dtype=complex)
    if cells:
        keys, rows, values = zip(*cells)
        amplitudes[[index[key] for key in keys], rows] = values
    return family_state_space(
        tuple(slot[1:] for slot in slots),
        amplitudes,
        [[b.gamma for b in spec.baths] for spec in specs],
    )


# the factors of the four terms of an amplitude (family_state_space)
_TERM_FACTORS = np.array([-1j, -1j, -1j, -2j])[:, None, None]


@functools.lru_cache(maxsize=32)
def _scatter_table(structure: tuple) -> tuple[np.ndarray, ...] | None:
    """The adds of family_state_space for one structure: the read-only
    index arrays (block, row, column, term, slot), in slot order, or None
    for a structure without slots. Block 0 is a <- a and block 1 a <- adag;
    term 0 is -1j times the amplitude, 1 its conjugate, 2 its real part,
    and 3 -2j times the conjugate."""
    adds = []
    for s, (kind, modes) in enumerate(structure):
        if kind == "beam_splitter":
            i, j = modes
            adds += [(0, i, j, 0, s), (0, j, i, 1, s)]
        elif kind == "two_mode_squeeze":
            i, j = modes
            adds += [(1, i, j, 0, s), (1, j, i, 0, s)]
        elif kind == "detuning":
            (i,) = modes
            adds.append((0, i, i, 2, s))
        else:  # degenerate_parametric
            (i,) = modes
            adds.append((1, i, i, 3, s))
    if not adds:
        return None
    table = tuple(np.array(column) for column in zip(*adds))
    for column in table:
        column.flags.writeable = False
    return table


def family_state_space(
    structure: Sequence[tuple[str, tuple[int, ...]]],
    amplitudes: Sequence[np.ndarray],
    gammas: np.ndarray,
) -> StateSpace:
    """The stacked state space of P networks of one structure.

    ``structure`` lists the coupling slots (kind, modes) as tuples, in
    spec order; ``amplitudes`` holds one amplitude column (P,) per slot,
    and ``gammas`` is the (P, N) damping array. The damping enters first,
    then every slot in order, each amplitude as -1j times it (the
    Hamiltonian coefficient; a detuning takes its real part, and a
    degenerate parametric term -2j times its conjugate), summed into the
    annihilation (a <- a) and mixing (a <- adag) blocks as the terms of
    one spec are. A zero amplitude adds exact zeros, so a slot of zero
    amplitude leaves the bytes of a network without that term. This
    builder is the one place that holds the entry rules of the coupling
    kinds; the index table of a structure's adds is built once and kept.
    """
    gammas = np.asarray(gammas, dtype=float)
    count, n = gammas.shape
    amplitude = np.asarray(amplitudes, dtype=complex).reshape(len(structure), count)
    # the terms a slot adds, by _scatter_table's term index
    conj = amplitude.conj()
    values = _TERM_FACTORS * np.array([amplitude, conj, amplitude.real, conj])
    # the blocks a <- a (0) and a <- adag (1), the stack axis last
    blocks = np.zeros((2, n, n, count), dtype=complex)
    blocks.reshape(2, n * n, count)[0, :: n + 1] -= 0.5 * gammas.T
    table = _scatter_table(tuple(structure))
    if table is not None:
        block, row, column, term, slot = table
        # unbuffered: the adds to one entry are summed in the order given
        np.add.at(blocks, (block, row, column), values[term, slot])
    stacked = blocks.transpose(0, 3, 1, 2)
    root = np.sqrt(gammas)
    inp = np.zeros((count, 2 * n, 2 * n), dtype=complex)
    inp.reshape(count, 4 * n * n)[:, :: 2 * n + 1] = np.concatenate([root, root], axis=1)
    return StateSpace(drift=_doubled(stacked[0], stacked[1]), input=inp, n_modes=n)


def passive_drifts(ss: StateSpace) -> np.ndarray:
    """For each drift, whether it has no annihilation/creation mixing
    block (the one definition of passivity): a boolean array of the
    stack's leading shape, 0-d for a single drift."""
    n = ss.n_modes
    return np.all(ss.drift[..., :n, n:] == 0, axis=(-2, -1))


def passive_state_space(ss: StateSpace) -> bool:
    """True iff the drift is passive (see passive_drifts); for a stack,
    iff every drift is."""
    return bool(np.all(passive_drifts(ss)))


def is_passive(spec: NetworkSpec) -> bool:
    """``passive_state_space`` of the network's drift; squeeze or
    parametric terms of zero amplitude leave it passive."""
    return passive_state_space(build_state_space(spec))


@dataclass(frozen=True)
class RealizabilityReport:
    residual: float
    tol: float
    passed: bool


def check_physical_realizability(
    ss: StateSpace,
) -> RealizabilityReport | list[RealizabilityReport]:
    """Residual of the commutator-preservation identity.

    Evaluates A sigma + sigma A^H + D sigma D^H, which vanishes exactly
    when the dynamics preserves canonical commutation relations. The
    residual is roundoff of the operands, so it passes within
    REALIZABILITY_TOL * max(1, ||A||_max, ||D||_max^2); the report's tol
    is REALIZABILITY_TOL. A NaN residual fails.

    A stacked state space gives one report per member, in order, from
    one vectorized pass, each with the bits of that member's own call; a
    single state space's report is the one-member case.
    """
    sig = metric(ss.n_modes)
    drift_h = ss.drift.conj().swapaxes(-2, -1)
    input_h = ss.input.conj().swapaxes(-2, -1)
    r = ss.drift @ sig + sig @ drift_h + ss.input @ sig @ input_h
    residual = np.abs(r).max(axis=(-2, -1))
    d_max = np.abs(ss.input).max(axis=(-2, -1))
    scale = np.maximum(np.maximum(1.0, np.abs(ss.drift).max(axis=(-2, -1))), d_max * d_max)
    passed = residual <= REALIZABILITY_TOL * scale
    reports = [
        RealizabilityReport(residual=value, tol=REALIZABILITY_TOL, passed=ok)
        for value, ok in zip(residual.ravel().tolist(), passed.ravel().tolist())
    ]
    return reports if residual.ndim else reports[0]


def _moment_scale(*moments: np.ndarray) -> np.ndarray:
    """max(1, largest |entry|) of the matrices (..., n, n) of each member
    of a stack, for relative guards; non-finite entries raise."""
    tops = [np.abs(m).max(axis=(-2, -1), initial=0.0) for m in moments]
    if not all(np.all(np.isfinite(top)) for top in tops):
        raise ValidationError("input moments must be finite")
    return np.maximum(1.0, np.maximum.reduce(tops))


@dataclass(frozen=True, eq=False)
class InputMoments:
    """Stationary white-noise second moments, one set per input channel.

    occupancy[j] is <adag_j,in a_j,in>, anomalous[j] is <a_j,in a_j,in>.
    Each mode has its own bath, so channels are uncorrelated. A stack of
    P channel sets has arrays of shape (P, N).
    """

    occupancy: np.ndarray
    anomalous: np.ndarray

    def __post_init__(self):
        occ = np.atleast_1d(np.asarray(self.occupancy, dtype=float)).copy()
        ano = np.atleast_1d(np.asarray(self.anomalous, dtype=complex)).copy()
        if occ.shape != ano.shape or occ.ndim not in (1, 2):
            raise DimensionError(
                "occupancy and anomalous must be 1-d (or a 2-d stack) and the "
                "same shape"
            )
        for name, values in (("occupancy", occ), ("anomalous", ano)):
            if not np.all(np.isfinite(values)):
                raise ValidationError(f"input {name} must be finite")
        if not np.all(occ >= -1e-9):
            raise ValidationError("channel occupancies must be nonnegative")
        occ = np.maximum(occ, 0.0)
        object.__setattr__(self, "occupancy", occ)
        object.__setattr__(self, "anomalous", ano)
        # the test of _warn_if_unphysical, vectorized (np.hypot is abs)
        bound = np.sqrt(occ) * np.sqrt(occ + 1.0)
        beyond = np.hypot(ano.real, ano.imag) > bound + _PHYSICALITY_SLACK
        for index in zip(*np.nonzero(beyond)):
            _warn_if_unphysical(
                float(occ[index]), complex(ano[index]), f"input channel {index[-1]}"
            )

    @classmethod
    def vacuum(cls, n_channels: int) -> "InputMoments":
        return cls(np.zeros(n_channels), np.zeros(n_channels, dtype=complex))

    @classmethod
    def thermal(cls, occupancies: Sequence | np.ndarray) -> "InputMoments":
        """Thermal channels of the occupancies (N,), or a stack (P, N), with
        no anomalous moments."""
        occ = np.asarray(occupancies, dtype=float)
        return cls(occ, np.zeros_like(occ, dtype=complex))

    @classmethod
    def from_baths(cls, spec: NetworkSpec) -> "InputMoments":
        return cls(
            np.array([b.occupancy for b in spec.baths]),
            np.array([b.anomalous for b in spec.baths]),
        )

    @property
    def n_channels(self) -> int:
        return int(self.occupancy.shape[-1])

    def noise_matrix(self) -> np.ndarray:
        """Symmetrized doubled-basis noise moment matrix (one per member
        of a stack).

        The vacuum contribution is 1/2 per quadrature, so this feeds the
        steady-state Lyapunov equation directly.
        """
        diagonal = np.eye(self.n_channels, dtype=bool)
        lead = self.occupancy.shape[:-1]
        normal = np.zeros(lead + diagonal.shape)
        normal[..., diagonal] = 0.5 + self.occupancy
        anomalous = np.zeros(lead + diagonal.shape, dtype=complex)
        anomalous[..., diagonal] = self.anomalous
        return _doubled(normal, anomalous)


def _frame_blocks(
    n_modes: int, *modes: int, parameter=None
) -> tuple[np.ndarray, np.ndarray]:
    """Identity P and zero Q blocks for a transform acting on ``modes``,
    one pair per value when ``parameter`` is a sequence."""
    if not all(0 <= m < n_modes for m in modes):
        raise DimensionError(f"mode(s) {modes} out of range for {n_modes} modes")
    shape = np.shape(parameter) + (n_modes, n_modes)
    return (
        np.broadcast_to(np.eye(n_modes, dtype=complex), shape).copy(),
        np.zeros(shape, dtype=complex),
    )


def _each(fn, parameter):
    """fn of one parameter, or the array of fn over a sequence of them;
    the math module evaluates every value, so a stack member has the bits
    of the single transform."""
    if np.ndim(parameter) == 0:
        return fn(parameter)
    return np.array([fn(value) for value in parameter])


def cosh_sinh(xi: float) -> tuple[float, float]:
    """(cosh xi, sinh xi) from the math module. NumericsError where they
    overflow a float (|xi| above about 710): no such frame is
    representable."""
    try:
        return math.cosh(xi), math.sinh(xi)
    except OverflowError:
        raise NumericsError(
            f"cosh and sinh of the frame parameter xi = {xi:g} overflow a float"
        ) from None


@functools.lru_cache(maxsize=8)
def _lower_masks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only masks (n, n) of the entries on and below the diagonal
    and of those below it: np.triu(m, 1) and np.triu(m) zero them."""
    masks = np.tri(n, k=0, dtype=bool), np.tri(n, k=-1, dtype=bool)
    for mask in masks:
        mask.flags.writeable = False
    return masks


@dataclass(frozen=True, eq=False)
class MomentTransform:
    """A change of frame xi' = matrix @ xi in the doubled basis.

    The matrix must respect the doubled conjugation structure and
    preserve the commutator metric (symplectic condition), which is
    validated at construction. Input moments are mapped through the
    matrix congruence, never through per-case formulas. A stack of
    matrices (P, 2N, 2N) is P transforms, each validated; the
    constructors with a parameter build one from a sequence of values,
    and ``compose`` broadcasts a single transform against a stack.
    Non-finite entries raise ValidationError; entries so large that the
    metric check overflows (cosh xi above about 1.3e154) raise
    NumericsError.
    """

    matrix: np.ndarray

    def __post_init__(self):
        # a read-only view: no write through the transform can undo the
        # checks below or leave its kept inverse stale
        m = np.asarray(self.matrix, dtype=complex).view()
        m.flags.writeable = False
        if m.ndim not in (2, 3) or m.shape[-2] != m.shape[-1] or m.shape[-1] % 2:
            raise DimensionError("transform matrix must be square of even dimension")
        object.__setattr__(self, "matrix", m)
        n = m.shape[-1] // 2
        if not np.isfinite(m).all():
            raise ValidationError("transform entries must be finite")
        sig = metric(n)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            structure = mirror_defect(m)
            residual = np.abs(m @ sig @ m.conj().swapaxes(-2, -1) - sig).max(axis=(-2, -1))
            size = np.maximum(1.0, np.abs(m).max(axis=(-2, -1))) ** 2
        if not np.all(structure <= 1e-12):
            raise ValidationError("transform breaks the doubled conjugation structure")
        # the residual is roundoff of products of entries, so it is judged
        # against the transform's size; NaN fails, and so does a residual or
        # size that overflows, as inf <= 1e-10 * inf would pass
        overflow = first_failure(np.isfinite(residual) & np.isfinite(size))
        if overflow is not None:
            raise NumericsError(
                "transform entries up to "
                f"{np.abs(m).max(axis=(-2, -1)).flat[overflow]:.3g} overflow the "
                "commutator metric check"
            )
        if not np.all(residual <= 1e-10 * size):
            raise ValidationError("transform does not preserve the commutator metric")
        # the size the metric check judged by, which apply_to_state_space
        # scales its defect check with
        size = np.asarray(size)
        size.flags.writeable = False
        object.__setattr__(self, "_size", size)

    @functools.cached_property
    def _inverse(self) -> np.ndarray:
        """T^-1 = sigma T^H sigma (T is symplectic), read-only; formed on
        the first apply_to_state_space and kept."""
        sig = metric(self.n_modes)
        inverse = sig @ self.matrix.conj().swapaxes(-2, -1) @ sig
        inverse.flags.writeable = False
        return inverse

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[-1] // 2

    @classmethod
    def bogoliubov(cls, n_modes: int, mode: int, xi) -> "MomentTransform":
        """alpha = cosh(xi) a + sinh(xi) adag on one mode."""
        p, q = _frame_blocks(n_modes, mode, parameter=xi)
        pairs = np.asarray(_each(cosh_sinh, xi))
        p[..., mode, mode], q[..., mode, mode] = pairs[..., 0], pairs[..., 1]
        return cls(_doubled(p, q))

    @classmethod
    def two_mode_bogoliubov(
        cls, n_modes: int, mode_a: int, mode_b: int, xi
    ) -> "MomentTransform":
        """alpha_a = cosh(xi) a_a + sinh(xi) adag_b, and b <-> a."""
        if mode_a == mode_b:
            raise ValidationError("two-mode hyperbolic mixing needs distinct modes")
        p, q = _frame_blocks(n_modes, mode_a, mode_b, parameter=xi)
        pairs = np.asarray(_each(cosh_sinh, xi))
        cosh, sinh = pairs[..., 0], pairs[..., 1]
        p[..., mode_a, mode_a] = cosh
        p[..., mode_b, mode_b] = cosh
        q[..., mode_a, mode_b] = sinh
        q[..., mode_b, mode_a] = sinh
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
    def rotation(cls, n_modes: int, mode: int, phi) -> "MomentTransform":
        """xi'_mode = exp(i phi) xi_mode."""
        p, q = _frame_blocks(n_modes, mode, parameter=phi)
        p[..., mode, mode] = _each(lambda angle: cmath.exp(1j * angle), phi)
        return cls(_doubled(p, q))

    def compose(self, inner: "MomentTransform") -> "MomentTransform":
        """The transform applying ``inner`` first, then this one."""
        with np.errstate(over="ignore", invalid="ignore"):  # refused on construction
            product = self.matrix @ inner.matrix
        return MomentTransform(product)

    def apply_to_state_space(self, ss: StateSpace) -> StateSpace:
        """Re-express the dynamics in the frame xi' = T xi of this transform.

        Forms T A T^-1 (T^-1 = sigma T^H sigma, as T is symplectic) and
        projects it onto the one-bath-per-mode form of build_state_space:
        entries at or below 1e-12 of the scale are set to zero, the upper
        triangle of the a <- a block P sets its lower triangle to -conj of
        it, the a <- adag block Q is made symmetric from its upper
        triangle, and the real diagonal stays the -gamma/2 of ``ss``. The
        scale is max(1, ||T A T^-1||_max) max(1, ||T||_max^2), since the
        roundoff of the product grows with the transform's size. A
        projection defect above 1e-10 of the scale (NaN included) raises
        FrameError: the new drift has no form with these dampings, as
        after mixing channels of unequal damping. A finite drift whose
        scale overflows raises NumericsError. The input matrix is kept,
        which the defect condition makes exact.

        ||T||_max^2 comes from the construction's metric check, T^-1 is
        formed on the first call and kept, and the triangle masks are kept
        per mode count, so a call forms only what depends on A: the
        product, its projection and the checks, which run at every call.
        """
        n = self.n_modes
        if ss.n_modes != n:
            raise DimensionError("transform and state space differ in their mode count")
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            drift = self.matrix @ ss.drift @ self._inverse
            scale = np.maximum(1.0, np.abs(drift).max(axis=(-2, -1))) * self._size
        # a finite drift whose product overflows is refused here; a
        # non-finite drift fails the defect check below
        finite_input = np.isfinite(ss.drift).all(axis=(-2, -1))
        overflow = first_failure(np.isfinite(scale) | ~finite_input)
        if overflow is not None:
            raise NumericsError(
                f"frame drift T A T^-1 overflows (scale {scale.flat[overflow]:.3g})"
            )
        cutoff = 1e-12 * scale[..., None, None]
        kept = np.where(np.abs(drift[..., :n, :]) > cutoff, drift[..., :n, :], 0.0)
        shifts = np.diagonal(drift, axis1=-2, axis2=-1)[..., :n].imag
        shifts = np.where(np.abs(shifts) > cutoff[..., 0], shifts, 0.0)
        # np.triu(m, 1) and np.triu(m), with the masks they zero
        on_and_below, below = _lower_masks(n)
        upper = np.where(on_and_below, 0j, kept[..., :n])
        mix = np.where(below, 0j, kept[..., n:])
        p = upper - upper.conj().swapaxes(-2, -1)
        diagonal = np.diag_indices(n)
        p[(...,) + diagonal] = (
            np.diagonal(ss.drift, axis1=-2, axis2=-1)[..., :n].real + 1j * shifts
        )
        frame = _doubled(p, mix + np.where(on_and_below, 0j, mix).swapaxes(-2, -1))
        defect = np.abs(frame - drift).max(axis=(-2, -1))
        failed = first_failure(defect <= 1e-10 * scale)
        if failed is not None:
            raise FrameError(
                "drift has no one-bath-per-mode form (round-trip defect "
                f"{defect.flat[failed]:.3e})"
            )
        return StateSpace(drift=frame, input=ss.input, n_modes=n)

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
            out = self.matrix @ inputs.noise_matrix() @ self.matrix.conj().swapaxes(-2, -1)
        out_scale = _moment_scale(out)
        eye = np.eye(n)
        cn = out[..., n:, n:] - 0.5 * eye
        cm = out[..., :n, n:]
        checks = np.maximum.reduce([
            np.abs(out[..., :n, :n] - (0.5 * eye + cn.swapaxes(-2, -1))).max(axis=(-2, -1)),
            np.abs(out[..., n:, :n] - cm.conj()).max(axis=(-2, -1)),
            np.abs(cm - cm.swapaxes(-2, -1)).max(axis=(-2, -1)),
        ])
        failed = first_failure(checks <= 1e-10 * out_scale)
        if failed is not None:
            raise NumericsError(
                "transformed noise matrix lost its doubled structure",
                estimate=float(checks.flat[failed]),
            )
        scale = _moment_scale(cn, cm)
        occ = np.diagonal(cn, axis1=-2, axis2=-1)
        ano = np.diagonal(cm, axis1=-2, axis2=-1)
        if not np.all(np.abs(occ.imag).max(axis=-1, initial=0.0) <= 1e-9 * scale):
            raise ValidationError("normal correlator diagonal must be real")
        off = ~np.eye(n, dtype=bool)
        cross = np.maximum(
            np.abs(cn[..., off]).max(axis=-1, initial=0.0),
            np.abs(cm[..., off]).max(axis=-1, initial=0.0),
        )
        failed = first_failure(cross <= 1e-14 * scale)
        if failed is not None:
            raise NumericsError(
                "frame change produced cross-channel correlators",
                estimate=float(cross.flat[failed]),
            )
        return InputMoments(occ.real, ano)


def hyperbolic_frame(g_plus: float, g_minus: float) -> tuple[float, float]:
    """(g_script, xi) that make a beam splitter g_minus plus a squeeze
    g_plus on one pair a pure beam splitter of rate g_script in the frame
    alpha = cosh(xi) a + sinh(xi) adag. A decoupled pair (both zero) has
    the identity frame (0, 0); otherwise FrameError unless
    |g_plus| < |g_minus| (NaN fails)."""
    if g_plus == 0 and g_minus == 0:
        return 0.0, 0.0
    if not abs(g_plus) < abs(g_minus):
        raise FrameError(
            f"no hyperbolic frame: g_plus = {g_plus:g} must be below "
            f"g_minus = {g_minus:g}"
        )
    # |g_minus| sqrt(1 - r^2), without squaring g_minus, which overflows
    # above about 1e154
    r = g_plus / g_minus
    return abs(g_minus) * math.sqrt((1.0 - r) * (1.0 + r)), math.atanh(r)
