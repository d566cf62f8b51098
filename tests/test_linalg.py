import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bosonet import linalg
from bosonet.budget import budget_via_spectrum, compute_budget
from bosonet.errors import DimensionError, NumericsError, StabilityError, ValidationError
from bosonet.network import (
    CouplingTerm,
    MomentTransform,
    NetworkSpec,
    StateSpace,
    build_state_space,
    build_state_spaces,
    family_state_space,
)
from bosonet.suites import DEFAULT_SEED, SUITES, random_network, suite_route_agreement
from bosonet.linalg import (
    QUADRATURE_ABS_TOL,
    batch_or_each,
    eigenvalues,
    golden_sections_max,
    hermitian_defect,
    integrate_spectrum,
    is_stable,
    require_stable,
    solve_lyapunov,
)

# doubled drift of a single damped mode with a marginal parametric drive:
# one quadrature relaxes at rate gamma + eta, the other not at all
MARGINAL_DRIFT = np.array([[-0.5, 0.5], [0.5, -0.5]])

# two-mode squeezer with no beam-splitter part, gamma1 = gamma2 = 1:
# eigenvalue real parts -gamma/2 +- g_plus
UNSTABLE_DRIFT = np.array(
    [
        [-0.5, 0.0, 0.0, -1.0j],
        [0.0, -0.5, -1.0j, 0.0],
        [0.0, 1.0j, -0.5, 0.0],
        [1.0j, 0.0, 0.0, -0.5],
    ]
)


class TestEigenvalues:
    def test_scaled_identity(self):
        spectrum = eigenvalues(-0.5 * np.eye(2))
        assert np.allclose(spectrum, [-0.5, -0.5])

    def test_marginal_parametric_mode(self):
        spectrum = eigenvalues(MARGINAL_DRIFT)
        assert abs(spectrum[0].real) < 1e-10
        assert abs(spectrum[1] - (-1.0)) < 1e-10

    def test_unstable_squeezer_real_parts(self):
        reals = sorted(eigenvalues(UNSTABLE_DRIFT).real)
        assert np.allclose(reals, [-1.5, -1.5, 0.5, 0.5], atol=1e-10)

    def test_sorted_by_descending_real_part(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        reals = eigenvalues(m).real
        assert np.all(np.diff(reals) <= 1e-12)

    def test_multiplicity_preserved(self):
        assert len(eigenvalues(np.diag([-1.0, -1.0, -2.0]))) == 3

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            eigenvalues(np.zeros((2, 3)))


class TestIsStable:
    def test_damped_identity(self):
        assert is_stable(-0.5 * np.eye(2))

    def test_zero_matrix_is_marginal(self):
        assert not is_stable(np.zeros((2, 2)))

    def test_unstable_squeezer(self):
        assert not is_stable(UNSTABLE_DRIFT)

    def test_margin(self):
        assert is_stable(-0.5 * np.eye(2), margin=0.4)
        assert not is_stable(-0.5 * np.eye(2), margin=0.6)

    @pytest.mark.parametrize("margin", [math.nan, -0.1])
    def test_margin_must_be_a_nonnegative_number(self, margin):
        with pytest.raises(ValidationError, match="stability margin"):
            is_stable(-0.5 * np.eye(2), margin=margin)

    def test_require_stable_names_eigenvalue(self):
        with pytest.raises(StabilityError) as err:
            require_stable(UNSTABLE_DRIFT, context="test drift")
        assert err.value.eigenvalue is not None
        assert err.value.eigenvalue.real >= 0.0

    def test_stacked_spectra_have_the_bits_of_one_drift_calls(self):
        rng = np.random.default_rng(11)
        by_size = {}
        for k in range(40):
            drift = build_state_space(random_network(rng, nonpassive=k % 3 == 2)).drift
            by_size.setdefault(len(drift), []).append(drift)
        assert len(by_size) > 1
        for drifts in by_size.values():
            spectra = linalg.LyapunovOperator(np.array(drifts)).stable_spectra()
            assert spectra.shape == (len(drifts), len(drifts[0]))
            for row, drift in zip(spectra, drifts):
                assert np.array_equal(row, require_stable(drift))

    def test_stacked_spectra_raise_at_the_first_unstable_drift(self):
        stack = np.array([-np.eye(4), UNSTABLE_DRIFT, UNSTABLE_DRIFT - 0.25 * np.eye(4)])
        with pytest.raises(StabilityError) as err:
            linalg.LyapunovOperator(stack).stable_spectra()
        with pytest.raises(StabilityError) as alone:
            require_stable(UNSTABLE_DRIFT)
        assert err.value.eigenvalue == alone.value.eigenvalue
        assert str(err.value) == str(alone.value)


class TestSolveLyapunov:
    def test_decoupled_identity(self):
        w = solve_lyapunov(-0.5 * np.eye(2), np.eye(2))
        assert np.allclose(w, np.eye(2), atol=1e-12)

    def test_beam_splitter_closed_form(self):
        a = np.array([[-0.5, -0.5j], [-0.5j, -0.5]])
        q = np.diag([0.0, 1.0])
        w = solve_lyapunov(a, q)
        expected = np.array([[0.25, -0.25j], [0.25j, 0.75]])
        assert np.abs(w - expected).max() < 1e-12

    def test_diagonal_case(self):
        w = solve_lyapunov(np.diag([-1.0, -2.0]), np.diag([2.0, 4.0]))
        assert np.allclose(w, np.eye(2), atol=1e-12)

    def test_unstable_rejected_with_eigenvalue(self):
        with pytest.raises(StabilityError) as err:
            solve_lyapunov(np.eye(2), np.eye(2))
        assert err.value.eigenvalue is not None

    def test_non_hermitian_q_rejected(self):
        with pytest.raises(ValidationError):
            solve_lyapunov(-np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_nan_q_rejected(self):
        q = np.eye(2)
        q[0, 0] = np.nan
        with pytest.raises(ValidationError):
            solve_lyapunov(-np.eye(2), q)

    def test_residual_is_judged_against_operand_size(self):
        # a strongly non-normal drift in a random basis: W reaches 1e6, so
        # an accurate solve leaves a raw residual far above 1e-10
        rng = np.random.default_rng(1)
        u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        j = np.diag([-0.5, -0.5, -1.0, -1.0]).astype(complex)
        j[0, 1] = j[2, 3] = 1e3
        a = u @ j @ u.conj().T
        q = np.eye(4)
        w = solve_lyapunov(a, q)
        residual = np.abs(a @ w + w @ a.conj().T + q).max()
        assert residual > 1e-10
        assert residual <= 1e-15 * 2.0 * np.abs(a).max() * np.abs(w).max()

    def test_residual_and_hermiticity_on_random_stable_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            dim = int(rng.integers(1, 11))
            raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            shift = max(eigenvalues(raw).real.max(), 0.0) + 0.5
            a = raw - shift * np.eye(dim)
            h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            q = h + h.conj().T
            w = solve_lyapunov(a, q)
            residual = np.abs(a @ w + w @ a.conj().T + q).max()
            assert residual <= 1e-10 * max(1.0, np.abs(q).max())
            assert hermitian_defect(w) < 1e-12 * max(1.0, np.abs(w).max())

    def test_linearity(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4)) - 3.0 * np.eye(4)
        h1 = rng.normal(size=(4, 4))
        h2 = rng.normal(size=(4, 4))
        q1 = h1 + h1.T
        q2 = h2 + h2.T
        combined = solve_lyapunov(a, q1 + q2)
        separate = solve_lyapunov(a, q1) + solve_lyapunov(a, q2)
        assert np.abs(combined - separate).max() < 1e-10


def kronecker_lyapunov(a, q):
    """The Kronecker-vectorized solve, written out independently."""
    n = a.shape[0]
    eye = np.eye(n)
    system = np.kron(eye, a) + np.kron(a.conj(), eye)
    w = np.linalg.solve(system, -q.reshape(-1, order="F")).reshape((n, n), order="F")
    return 0.5 * (w + w.conj().T)


def embedded_exceptional_drift(g):
    """Doubled drift of four modes: the gamma = (2, 1) pair with beam
    splitter g (exceptional at g = 0.25) plus a decoupled damped pair."""
    block = np.diag([-1.0, -0.5, -0.7, -0.3]).astype(complex)
    block[0, 1] = block[1, 0] = -1j * g
    drift = np.zeros((8, 8), dtype=complex)
    drift[:4, :4] = block
    drift[4:, 4:] = block.conj()
    return drift


EXCEPTIONAL_SOURCE = np.diag([2.0, 1.0, 1.4, 0.6, -2.0, -1.0, -1.4, -0.6]).astype(complex)


def random_stable(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return raw - (max(eigenvalues(raw).real.max(), 0.0) + 0.5) * np.eye(dim)


def random_hermitian(rng, dim, k=None):
    shape = (dim, dim) if k is None else (k, dim, dim)
    h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return h + np.swapaxes(h, -1, -2).conj()


class TestLyapunovEngine:
    def spy_on_fallback(self, monkeypatch):
        """Record the number of sources each Kronecker fallback solves."""
        calls = []
        kronecker = linalg._kronecker_solves

        def spy(am, sources, qmaxes):
            calls.append(len(sources))
            return kronecker(am, sources, qmaxes)

        monkeypatch.setattr(linalg, "_kronecker_solves", spy)
        return calls

    def test_exceptional_point_falls_back_to_kronecker(self, monkeypatch):
        calls = self.spy_on_fallback(monkeypatch)
        a = embedded_exceptional_drift(0.25)
        w = solve_lyapunov(a, EXCEPTIONAL_SOURCE)
        assert calls == [1]
        assert np.abs(w - kronecker_lyapunov(a, EXCEPTIONAL_SOURCE)).max() <= 1e-12

    def test_approach_to_exceptional_point(self):
        # the refinement step is what holds the eigen route to 1e-12 here:
        # unrefined, k = 8 passed the residual check with an error of 2.6e-10
        for k in range(2, 15):
            a = embedded_exceptional_drift(0.25 + 10.0**-k)
            w = solve_lyapunov(a, EXCEPTIONAL_SOURCE)
            ref = kronecker_lyapunov(a, EXCEPTIONAL_SOURCE)
            assert np.abs(w - ref).max() <= 1e-12, k

    def test_inaccurate_eigen_route_sends_every_source_to_kronecker(self, monkeypatch):
        calls = self.spy_on_fallback(monkeypatch)
        eigen = linalg._eigen_solve

        def inaccurate(drifts, factors, sources):
            return eigen(drifts, factors, sources) + 1e-6

        monkeypatch.setattr(linalg, "_eigen_solve", inaccurate)
        rng = np.random.default_rng(10)
        a = random_stable(rng, 8)
        qs = random_hermitian(rng, 8, k=3)
        ws = solve_lyapunov(a, qs)
        assert calls == [3]
        for q, w in zip(qs, ws):
            assert np.abs(w - kronecker_lyapunov(a, q)).max() <= 1e-12

    def test_failed_factorization_sends_every_source_to_kronecker(self, monkeypatch):
        calls = self.spy_on_fallback(monkeypatch)

        def singular(m):
            raise np.linalg.LinAlgError("made singular")

        monkeypatch.setattr(np.linalg, "inv", singular)
        rng = np.random.default_rng(12)
        a = random_stable(rng, 8)
        qs = random_hermitian(rng, 8, k=3)
        ws = solve_lyapunov(a, qs)
        assert calls == [3]
        for q, w in zip(qs, ws):
            assert np.abs(w - kronecker_lyapunov(a, q)).max() <= 1e-12
        # the stability test moves to the drift's spectrum, before any solve
        unstable = np.zeros((8, 8), dtype=complex)
        unstable[:4, :4] = UNSTABLE_DRIFT
        unstable[4:, 4:] = -np.eye(4)
        with pytest.raises(StabilityError) as err:
            solve_lyapunov(unstable, np.eye(8))
        assert abs(err.value.eigenvalue - 0.5) < 1e-10
        assert calls == [3]

    def test_drift_above_the_dimension_cap_rejected(self):
        dim = linalg.MAX_SPECTRUM_DIM + 2
        with pytest.raises(DimensionError, match="spectrum limited"):
            solve_lyapunov(-np.eye(dim), np.eye(dim))

    def test_eigen_route_runs_away_from_exceptional_points(self, monkeypatch):
        calls = self.spy_on_fallback(monkeypatch)
        solve_lyapunov(embedded_exceptional_drift(0.5), EXCEPTIONAL_SOURCE)
        assert calls == []

    def test_stacked_sources_equal_per_source_calls(self):
        rng = np.random.default_rng(8)
        for dim in (4, 6, 8, 12):
            a = random_stable(rng, dim)
            qs = random_hermitian(rng, dim, k=3)
            stacked = solve_lyapunov(a, qs)
            assert stacked.shape == qs.shape
            for q, w in zip(qs, stacked):
                np.testing.assert_array_equal(w, solve_lyapunov(a, q))

    def test_small_dimensions_are_the_kronecker_solve(self):
        rng = np.random.default_rng(9)
        for dim in (2, 4, 6):
            for _ in range(5):
                a = random_stable(rng, dim)
                q = random_hermitian(rng, dim)
                np.testing.assert_array_equal(solve_lyapunov(a, q), kronecker_lyapunov(a, q))

    def test_unstable_drift_raises_on_eigen_route(self):
        a = np.zeros((8, 8), dtype=complex)
        a[:4, :4] = UNSTABLE_DRIFT
        a[4:, 4:] = -np.eye(4)
        with pytest.raises(StabilityError) as err:
            solve_lyapunov(a, np.eye(8))
        assert abs(err.value.eigenvalue - 0.5) < 1e-10

    def test_one_non_hermitian_source_rejects_the_stack(self):
        qs = np.stack([np.eye(8), np.eye(8)]).astype(complex)
        qs[1, 0, 1] = 1.0
        with pytest.raises(ValidationError):
            solve_lyapunov(-np.eye(8), qs)

    def test_stack_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            solve_lyapunov(-np.eye(8), np.zeros((2, 6, 6)))
        with pytest.raises(DimensionError):
            solve_lyapunov(-np.eye(8), np.zeros((2, 2, 8, 8)))


class TestStackedDrifts:
    """A stack of drifts is one call: every drift and source keeps its checks."""

    @pytest.mark.parametrize("dim", [2, 4, 6, 8])
    def test_stack_equals_per_drift_calls(self, dim):
        rng = np.random.default_rng(20 + dim)
        drifts = np.stack([random_stable(rng, dim) for _ in range(5)])
        one = random_hermitian(rng, dim, k=5)
        several = np.stack([random_hermitian(rng, dim, k=3) for _ in range(5)])
        stacked = solve_lyapunov(drifts, one)
        assert stacked.shape == one.shape
        for a, q, w in zip(drifts, one, stacked):
            np.testing.assert_array_equal(w, solve_lyapunov(a, q))
        stacked = solve_lyapunov(drifts, several)
        assert stacked.shape == several.shape
        for a, qs, ws in zip(drifts, several, stacked):
            np.testing.assert_array_equal(ws, solve_lyapunov(a, qs))

    def test_stack_is_one_solve_and_one_spectrum(self, monkeypatch):
        calls = {"solve": 0, "eigvals": 0}
        real_solve, real_eigvals = np.linalg.solve, np.linalg.eigvals

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        rng = np.random.default_rng(30)
        drifts = np.stack([random_stable(rng, 4) for _ in range(6)])
        one_each, seven = random_hermitian(rng, 4, k=6), random_hermitian(rng, 4, k=7)
        monkeypatch.setattr(np.linalg, "solve", counting("solve", real_solve))
        monkeypatch.setattr(np.linalg, "eigvals", counting("eigvals", real_eigvals))
        solve_lyapunov(drifts, one_each)
        assert calls == {"solve": 1, "eigvals": 1}
        # one drift factors its Kronecker system once for all its sources
        solve_lyapunov(drifts[0], seven)
        assert calls == {"solve": 2, "eigvals": 2}

    def test_first_unstable_drift_raises(self):
        stable = -np.eye(4, dtype=complex)
        drifts = np.stack([stable, UNSTABLE_DRIFT, stable])
        with pytest.raises(StabilityError) as err:
            solve_lyapunov(drifts, np.broadcast_to(np.eye(4), (3, 4, 4)))
        assert abs(err.value.eigenvalue - 0.5) < 1e-10

    def test_each_source_is_checked(self):
        qs = np.stack([np.eye(2), np.eye(2)]).astype(complex)
        qs[1, 0, 1] = 1.0
        with pytest.raises(ValidationError):
            solve_lyapunov(np.stack([-np.eye(2), -np.eye(2)]), qs)
        qs[1, 0, 1] = 0.0
        qs[1, 1, 1] = np.nan
        with pytest.raises(ValidationError):
            solve_lyapunov(np.stack([-np.eye(2), -np.eye(2)]), qs)

    def test_stack_shapes_must_match(self):
        drifts = np.stack([-np.eye(2), -np.eye(2)])
        with pytest.raises(DimensionError):
            solve_lyapunov(drifts, np.eye(2))
        with pytest.raises(DimensionError):
            solve_lyapunov(drifts, np.zeros((3, 2, 2)))
        with pytest.raises(DimensionError):
            solve_lyapunov(drifts, np.zeros((2, 1, 1, 2, 2)))
        with pytest.raises(DimensionError):
            solve_lyapunov(np.zeros((2, 2, 3)), np.zeros((2, 2, 3)))

    @pytest.mark.parametrize(
        "a_shape, q_shape",
        [
            ((0, 2, 2), (0, 2, 2)),  # an empty stack of drifts
            ((0, 2, 2), (0, 3, 2, 2)),
            ((0, 0), (0, 0)),  # a drift of dimension 0
            ((3, 0, 0), (3, 0, 0)),
            ((2, 2), (0, 2, 2)),  # no source
        ],
    )
    def test_empty_shapes_raise_dimension_error(self, a_shape, q_shape):
        with pytest.raises(DimensionError, match="nothing to solve"):
            solve_lyapunov(np.zeros(a_shape), np.zeros(q_shape))

    def test_residual_is_checked_for_every_member(self, monkeypatch):
        real_solve = np.linalg.solve

        def corrupt_second(a, b):
            x = real_solve(a, b)
            x[1] += 1e-3
            return x

        monkeypatch.setattr(np.linalg, "solve", corrupt_second)
        drifts = np.stack([-np.eye(2), -np.eye(2), -np.eye(2)]).astype(complex)
        with pytest.raises(NumericsError, match="Lyapunov residual"):
            solve_lyapunov(drifts, np.broadcast_to(np.eye(2), (3, 2, 2)))

    @pytest.mark.parametrize("dim", [8, 10])
    def test_eigen_stack_is_one_eig_and_one_inv(self, dim, monkeypatch):
        calls = {"eig": 0, "inv": 0}
        real = {name: getattr(np.linalg, name) for name in calls}

        def counting(name):
            def wrapper(m):
                calls[name] += 1
                return real[name](m)
            return wrapper

        rng = np.random.default_rng(50 + dim)
        drifts = np.stack([random_stable(rng, dim) for _ in range(6)])
        sources = np.stack([random_hermitian(rng, dim, k=3) for _ in range(6)])
        for name in calls:
            monkeypatch.setattr(np.linalg, name, counting(name))
        stacked = solve_lyapunov(drifts, sources)
        assert calls == {"eig": 1, "inv": 1}
        for a, qs, ws in zip(drifts, sources, stacked):
            np.testing.assert_array_equal(ws, solve_lyapunov(a, qs))

    def test_an_exceptional_member_keeps_the_bits_of_its_lone_call(self, monkeypatch):
        redone = []
        kronecker = linalg._kronecker_solves

        def spy(am, sources, qmaxes):
            redone.append(len(sources))
            return kronecker(am, sources, qmaxes)

        monkeypatch.setattr(linalg, "_kronecker_solves", spy)
        rng = np.random.default_rng(60)
        drifts = np.stack([
            random_stable(rng, 8), embedded_exceptional_drift(0.25), random_stable(rng, 8),
        ])
        sources = np.stack([
            random_hermitian(rng, 8, k=2),
            np.stack([EXCEPTIONAL_SOURCE, np.eye(8, dtype=complex)]),
            random_hermitian(rng, 8, k=2),
        ])
        stacked = solve_lyapunov(drifts, sources)
        assert redone == [2]  # both sources of the exceptional drift
        for a, qs, ws in zip(drifts, sources, stacked):
            np.testing.assert_array_equal(ws, solve_lyapunov(a, qs))
        assert redone == [2, 2]

    def test_first_failing_member_raises_on_the_eigen_route(self):
        rng = np.random.default_rng(70)
        stable = random_stable(rng, 8)
        unstable = np.zeros((8, 8), dtype=complex)
        unstable[:4, :4] = UNSTABLE_DRIFT
        unstable[4:, 4:] = -np.eye(4)
        broken = stable.copy()
        broken[3, 5] = np.nan
        with pytest.raises(StabilityError) as alone:
            solve_lyapunov(unstable, np.eye(8))
        sources = np.broadcast_to(np.eye(8, dtype=complex), (3, 8, 8))
        with pytest.raises(StabilityError) as err:
            solve_lyapunov(np.stack([stable, unstable, broken]), sources)
        assert str(err.value) == str(alone.value)
        assert err.value.eigenvalue == alone.value.eigenvalue
        named = r"drift 0 has the non-finite entry \(nan\+0j\) at \(3, 5\)"
        with pytest.raises(NumericsError, match=named):
            solve_lyapunov(np.stack([broken, unstable]), sources[:2])

    def test_a_failed_stacked_factorization_falls_back_drift_by_drift(self, monkeypatch):
        rng = np.random.default_rng(80)
        drifts = np.stack([random_stable(rng, 8) for _ in range(4)])
        drifts[2] = embedded_exceptional_drift(0.25)
        sources = np.stack([random_hermitian(rng, 8, k=2) for _ in range(4)])
        sources[2, 0] = EXCEPTIONAL_SOURCE
        expected = solve_lyapunov(drifts, sources)
        sizes = []
        real_eig = np.linalg.eig

        def stacks_fail(m):
            sizes.append(len(m))
            if len(m) > 1:
                raise np.linalg.LinAlgError("made to fail on stacks")
            return real_eig(m)

        monkeypatch.setattr(np.linalg, "eig", stacks_fail)
        np.testing.assert_array_equal(solve_lyapunov(drifts, sources), expected)
        assert sizes == [4, 1, 1, 1, 1]

    @pytest.mark.parametrize("dim", [4, 8])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_non_finite_drift_names_its_index_and_entry(self, dim, bad):
        # no eigenvalue iteration ran: the message says what is wrong
        broken = -np.eye(dim, dtype=complex)
        broken[1, 2] = bad
        entry = f"non-finite entry {complex(bad, 0.0)} at (1, 2)"
        with pytest.raises(NumericsError) as err:
            eigenvalues(broken)
        assert str(err.value) == f"the drift has the {entry}"
        with pytest.raises(NumericsError) as err:
            solve_lyapunov(broken, np.eye(dim))
        assert str(err.value) == f"drift 0 has the {entry}"
        stack = np.stack([-np.eye(dim), -2.0 * np.eye(dim), broken])
        for attempt in (
            lambda: solve_lyapunov(stack, np.broadcast_to(np.eye(dim), stack.shape)),
            lambda: linalg.LyapunovOperator(stack).stable_spectra(),
        ):
            with pytest.raises(NumericsError) as err:
                attempt()
            assert str(err.value) == f"drift 2 has the {entry}"


def spy_on_spectra(monkeypatch):
    """Record every stack of drifts whose spectra linalg computes."""
    seen = []
    spectra = linalg._spectra

    def spy(a):
        seen.append(np.array(a))
        return spectra(a)

    monkeypatch.setattr(linalg, "_spectra", spy)
    return seen


def strong_coupling(spec, factor):
    """The network with every coupling amplitude scaled by ``factor``."""
    couplings = tuple(
        CouplingTerm(c.kind, c.amplitude * factor, c.modes) for c in spec.couplings
    )
    return NetworkSpec(n_modes=spec.n_modes, baths=spec.baths, couplings=couplings)


def fig1_frame_state_space(points=40, xi=0.7, gammas=(0.8, 1.3)):
    """The stacked hyperbolic-frame state space of a fig1 sweep over
    g_script, built as the sweep builds it: the physical drifts, then the
    frame rotation(2, 1, pi/2) o bogoliubov(2, 1, xi)."""
    g = np.geomspace(0.5, 50.0, points)
    slots = (("beam_splitter", (0, 1)), ("two_mode_squeeze", (0, 1)))
    physical = family_state_space(
        slots, (g * math.cosh(xi), g * math.sinh(xi)), np.tile(gammas, (points, 1))
    )
    frame = MomentTransform.rotation(2, 1, math.pi / 2.0).compose(
        MomentTransform.bogoliubov(2, 1, [xi] * points)
    )
    return frame.apply_to_state_space(physical)


def stacked_state_space(specs):
    """One stacked state space of specs of one mode count."""
    spaces = [build_state_space(spec) for spec in specs]
    return StateSpace(
        drift=np.stack([ss.drift for ss in spaces]),
        input=np.stack([ss.input for ss in spaces]),
        n_modes=specs[0].n_modes,
    )


DRIFT_KINDS = ("passive", "nonpassive", "strong", "dense_stable", "dense_unstable")


def drawn_drift(seed, kind):
    """A drift of one of DRIFT_KINDS: random_network draws (strong ones
    with couplings 10 to 1e4 times their draw, so g >> gamma), or dense
    complex matrices shifted left of or just short of stability."""
    rng = np.random.default_rng(seed)
    if kind in ("passive", "nonpassive", "strong"):
        spec = random_network(rng, max_modes=6, nonpassive=kind == "nonpassive")
        if kind == "strong":
            spec = strong_coupling(spec, 10.0 ** rng.uniform(1.0, 4.0))
        return build_state_space(spec).drift
    dim = int(rng.integers(1, 13))
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    top = np.linalg.eigvals(raw).real.max()
    if kind == "dense_stable":
        # from just left of the axis to well inside the Gershgorin bound
        shift = top + 10.0 ** rng.uniform(-3.0, 1.5)
    else:
        shift = top - 10.0 ** rng.uniform(-3.0, 0.0)
    return raw - shift * np.eye(dim)


def certified(drift):
    return not linalg._uncertified(np.asarray(drift, dtype=complex)[None])[0]


class TestStabilityCertificate:
    """Drifts that the Hermitian part proves stable skip their spectrum;
    every verdict and error is the spectrum's."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), kind=st.sampled_from(DRIFT_KINDS))
    def test_a_certified_drift_has_a_stable_spectrum(self, seed, kind):
        drift = drawn_drift(seed, kind)
        if kind in ("passive", "strong"):
            assert certified(drift)
        if certified(drift):
            assert np.linalg.eigvals(drift).real.max() < 0
        if kind == "dense_unstable":
            assert not certified(drift)
        if kind == "dense_unstable" and len(drift) < linalg._EIGEN_MIN_DIM:
            # the Kronecker route's error is the spectrum's (the eigen
            # route reads its own eig)
            with pytest.raises(StabilityError) as alone:
                require_stable(drift)
            stack = np.stack([-np.eye(len(drift)), drift, -2.0 * np.eye(len(drift))])
            with pytest.raises(StabilityError) as err:
                solve_lyapunov(stack, np.broadcast_to(np.eye(len(drift)), stack.shape))
            assert str(err.value) == str(alone.value)
            assert err.value.eigenvalue == alone.value.eigenvalue

    def test_the_bound_certifies_each_kind_somewhere(self):
        # the property above is not vacuous: every kind has certified draws,
        # and the dense stable ones also have uncertified draws
        verdicts = {
            kind: {certified(drawn_drift(seed, kind)) for seed in range(40)}
            for kind in DRIFT_KINDS
        }
        assert verdicts["passive"] == verdicts["strong"] == {True}
        assert verdicts["nonpassive"] == verdicts["dense_stable"] == {True, False}
        assert verdicts["dense_unstable"] == {False}

    def test_an_unstable_drift_after_certified_ones_raises_its_own_error(self, monkeypatch):
        seen = spy_on_spectra(monkeypatch)
        passive = [build_state_space(random_network(np.random.default_rng(k), max_modes=2)) for k in range(30)]
        passive = [ss.drift for ss in passive if ss.n_modes == 2][:3]
        stack = np.stack(passive + [UNSTABLE_DRIFT, UNSTABLE_DRIFT - 0.25 * np.eye(4)])
        with pytest.raises(StabilityError) as alone:
            require_stable(UNSTABLE_DRIFT)
        seen.clear()
        with pytest.raises(StabilityError) as err:
            solve_lyapunov(stack, np.broadcast_to(np.eye(4), stack.shape))
        assert str(err.value) == str(alone.value)
        assert err.value.eigenvalue == alone.value.eigenvalue
        # only the two uncertified members took a spectrum, in stack order
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], stack[3:])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_non_finite_drift_raises_as_its_spectrum_does(self, bad):
        # on every stability path (the Kronecker route at n = 4, the eigen
        # route at n = 8 and the operator's stable_spectra at both) the first
        # failing drift of a stack raises: a non-finite drift only if no
        # drift before it is unstable
        for n in (4, 8):
            stable = -np.eye(n, dtype=complex)
            broken, unstable = stable.copy(), stable.copy()
            broken[1, 2] = bad
            unstable[:4, :4] = UNSTABLE_DRIFT
            assert not certified(broken)
            with pytest.raises(NumericsError) as alone:
                eigenvalues(broken)
            with pytest.raises(StabilityError) as unstable_alone:
                require_stable(unstable)
            checks = (
                lambda stack: solve_lyapunov(stack, np.broadcast_to(np.eye(n), stack.shape)),
                lambda stack: linalg.LyapunovOperator(stack).stable_spectra(),
            )
            for check in checks:
                for stack, index in (
                    (np.stack([stable, broken]), 1),
                    (np.stack([broken, unstable]), 0),
                ):
                    with pytest.raises(NumericsError) as err:
                        check(stack)
                    # the same entry, named with its drift's index in the stack
                    assert str(err.value) == str(alone.value).replace("the drift", f"drift {index}")
                with pytest.raises(StabilityError) as err:
                    check(np.stack([stable, unstable, broken]))
                assert str(err.value) == str(unstable_alone.value)

    def test_passive_stacks_take_no_spectrum(self, monkeypatch):
        seen = spy_on_spectra(monkeypatch)
        frame = fig1_frame_state_space()
        budget = compute_budget(frame)
        assert budget.passive
        rng = np.random.default_rng(4)
        by_size = {}
        for _ in range(60):
            spec = random_network(rng, max_modes=3)
            by_size.setdefault(spec.n_modes, []).append(spec)
        assert sorted(by_size) == [1, 2, 3]
        for specs in by_size.values():
            compute_budget(stacked_state_space(specs))
        assert seen == []

    def test_a_mixed_stack_takes_the_spectra_of_its_uncertified_members(self, monkeypatch):
        seen = spy_on_spectra(monkeypatch)
        rng = np.random.default_rng(6)
        specs = []
        while len(specs) < 12:
            spec = random_network(rng, max_modes=3, nonpassive=len(specs) % 3 == 1)
            if spec.n_modes == 3:
                specs.append(spec)
        ss = stacked_state_space(specs)
        drifts = ss.drift
        # an independent Gershgorin bound of each Hermitian part
        h = drifts + drifts.conj().swapaxes(-2, -1)
        rows = [
            max(h[k, i, i].real + sum(abs(h[k, i, j]) for j in range(6) if j != i) for i in range(6))
            for k in range(len(drifts))
        ]
        expected = [k for k, bound in enumerate(rows) if bound >= 0]
        assert 0 < len(expected) < len(drifts)
        assert all(bound < -1e-3 for k, bound in enumerate(rows) if k not in expected)
        seen.clear()  # the draws test their own stability
        budget = compute_budget(ss)
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], drifts[expected])
        # the same budgets as one drift at a time
        for k, spec in enumerate(specs):
            np.testing.assert_array_equal(
                budget.per_channel_w[k], compute_budget(build_state_space(spec)).per_channel_w
            )

    @pytest.mark.parametrize("modes", [2, 4])
    @pytest.mark.parametrize("nonpassive", [False, True])
    def test_the_budget_and_its_spectral_route_share_the_spectra(
        self, modes, nonpassive, monkeypatch
    ):
        # compute_budget then budget_via_spectrum on one stacked state
        # space: below 2N = 8 the budget takes one spectrum of its
        # uncertified members (none if every member is certified) and the
        # spectral route one of the whole stack; at 2N = 8 the factors of
        # the budget's solve serve both, and no spectrum is taken
        seen = spy_on_spectra(monkeypatch)
        rng = np.random.default_rng(18)
        specs = []
        while len(specs) < 4:
            spec = random_network(rng, max_modes=modes, nonpassive=nonpassive and len(specs) % 2 == 1)
            if spec.n_modes == modes:
                specs.append(spec)
        ss = build_state_spaces(specs)
        uncertified = [k for k, drift in enumerate(ss.drift) if not certified(drift)]
        assert bool(uncertified) == nonpassive
        seen.clear()
        compute_budget(ss)
        budget_stage = list(seen)
        seen.clear()
        budget_via_spectrum(ss, abs_tol=1e-7)
        if 2 * modes >= linalg._EIGEN_MIN_DIM:
            assert budget_stage == seen == []
            return
        assert len(budget_stage) == (1 if uncertified else 0)
        if uncertified:
            np.testing.assert_array_equal(budget_stage[0], ss.drift[uncertified])
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], ss.drift)


def exceptional_pair_drift():
    """The doubled drift of the two-mode exceptional point (gamma = (2, 1),
    beam splitter 0.25)."""
    return embedded_exceptional_drift(0.25)[:4, :4]


class TestLyapunovOperator:
    """One operator per drift: every solve, spectrum and subset has the
    bits of the one-shot calls, and the factors are formed once."""

    @staticmethod
    def spy_on(monkeypatch, name):
        """Count the calls of np.linalg.``name``, by the stack size passed."""
        sizes = []
        real = getattr(np.linalg, name)

        def spy(m):
            sizes.append(len(m))
            return real(m)

        monkeypatch.setattr(np.linalg, name, spy)
        return sizes

    @pytest.mark.parametrize("dim", [2, 4, 6, 8, 16])
    def test_solves_have_the_bits_of_one_shot_calls(self, dim, monkeypatch):
        rng = np.random.default_rng(90 + dim)
        drifts = np.stack([random_stable(rng, dim) for _ in range(4)])
        sources = np.stack([random_hermitian(rng, dim, k=2) for _ in range(4)])
        if dim == 4:
            drifts[1] = exceptional_pair_drift()
        if dim == 8:
            drifts[1] = embedded_exceptional_drift(0.25)
            sources[1, 0] = EXCEPTIONAL_SOURCE
        redone = []
        kronecker = linalg._kronecker_solves

        def spy(am, sources, qmaxes):
            redone.append(len(sources))
            return kronecker(am, sources, qmaxes)

        monkeypatch.setattr(linalg, "_kronecker_solves", spy)
        eigs = self.spy_on(monkeypatch, "eig")
        op = linalg.LyapunovOperator(drifts)
        spectra = op.spectra()
        first = op.solve(sources)
        again = op.solve(sources[:, ::-1])
        mask = np.array([True, False, True, True])
        subset = op[mask].solve(sources[mask])
        # one stacked factorization served the spectra, both solves and
        # the subset; the exceptional source took its Kronecker redo
        assert eigs == ([4] if dim >= 8 else [])
        if dim == 8:
            assert redone[:2] == [2, 2]
        for p in range(4):
            np.testing.assert_array_equal(spectra[p], eigenvalues(drifts[p]))
            np.testing.assert_array_equal(first[p], solve_lyapunov(drifts[p], sources[p]))
            np.testing.assert_array_equal(again[p], solve_lyapunov(drifts[p], sources[p, ::-1]))
        np.testing.assert_array_equal(subset, first[mask])

    def test_a_failed_stacked_eig_is_factored_once_drift_by_drift(self, monkeypatch):
        rng = np.random.default_rng(81)
        drifts = np.stack([random_stable(rng, 8) for _ in range(3)])
        sources = np.stack([random_hermitian(rng, 8, k=2) for _ in range(3)])
        expected = solve_lyapunov(drifts, sources)
        sizes = []
        real_eig = np.linalg.eig

        def stacks_fail(m):
            sizes.append(len(m))
            if len(m) > 1:
                raise np.linalg.LinAlgError("made to fail on stacks")
            return real_eig(m)

        monkeypatch.setattr(np.linalg, "eig", stacks_fail)
        op = linalg.LyapunovOperator(drifts)
        np.testing.assert_array_equal(op.solve(sources), expected)
        np.testing.assert_array_equal(op.solve(sources), expected)
        assert sizes == [3, 1, 1, 1]

    @pytest.mark.parametrize("dim", [4, 8])
    def test_the_first_failing_drift_raises(self, dim):
        stable, unstable, broken = (-np.eye(dim, dtype=complex) for _ in range(3))
        unstable[:4, :4] = UNSTABLE_DRIFT
        broken[1, 2] = math.nan
        with pytest.raises(StabilityError) as alone:
            require_stable(unstable)
        drifts = np.stack([stable, unstable, broken])
        op = linalg.LyapunovOperator(drifts)
        sources = np.broadcast_to(np.eye(dim, dtype=complex), (3, dim, dim))
        # the spectra before any solve, each solve, and the spectra after
        for call in (
            linalg.LyapunovOperator(drifts).stable_spectra,
            lambda: op.solve(sources),
            lambda: op.adjoint(sources),
            lambda: op.solve(sources),
            op.stable_spectra,
        ):
            with pytest.raises(StabilityError) as err:
                call()
            assert str(err.value) == str(alone.value)

    @pytest.mark.parametrize("nonpassive", [False, True])
    def test_adjoint_duality_on_networks(self, nonpassive):
        # A W + W A^H + Q = 0 and A^H L + L A + C = 0 give <L, Q> = <C, W>
        rng = np.random.default_rng(7 + nonpassive)
        dims = set()
        for _ in range(40):
            a = build_state_space(random_network(rng, max_modes=8, nonpassive=nonpassive)).drift
            q, c = random_hermitian(rng, len(a)), random_hermitian(rng, len(a))
            op = linalg.LyapunovOperator(a)
            w, l = op.solve(q), op.adjoint(c)
            lhs, rhs = np.vdot(l, q), np.vdot(c, w)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))
            dims.add(len(a))
        assert min(dims) < linalg._EIGEN_MIN_DIM <= max(dims)

    @pytest.mark.parametrize("dim", [2, 4, 6, 8, 16])
    def test_adjoint_solves_the_equation_of_the_adjoint_drift(self, dim):
        rng = np.random.default_rng(30 + dim)
        drifts = np.stack([random_stable(rng, dim) for _ in range(3)])
        cs = np.stack([random_hermitian(rng, dim, k=2) for _ in range(3)])
        op = linalg.LyapunovOperator(drifts)
        ls = op.adjoint(cs)
        for a, c, l in zip(drifts, cs, ls):
            direct = solve_lyapunov(a.conj().T, c)
            assert np.abs(l - direct).max() <= 1e-12 * max(1.0, np.abs(direct).max())
            # and its duality with solve
            q = random_hermitian(rng, dim)
            w = solve_lyapunov(a, q)
            for lk, ck in zip(l, c):
                lhs, rhs = np.vdot(lk, q), np.vdot(ck, w)
                assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))

    def test_a_state_space_factors_its_drift_once(self, monkeypatch):
        # its budget, its spectral route's poles and the budget of some of
        # its members share one stacked factorization, with the bits of
        # state spaces that share nothing
        rng = np.random.default_rng(5)
        specs = []
        while len(specs) < 4:
            spec = random_network(rng, max_modes=4, nonpassive=len(specs) % 2 == 1)
            if spec.n_modes == 4:
                specs.append(spec)
        mask = np.array([True, False, False, True])
        apart = build_state_spaces(specs)
        expected = (
            compute_budget(apart).per_channel_w,
            budget_via_spectrum(build_state_spaces(specs), abs_tol=1e-7).per_channel_w,
            compute_budget(StateSpace(apart.drift[mask], apart.input[mask], 4)).per_channel_w,
        )
        eigs = self.spy_on(monkeypatch, "eig")
        ss = build_state_spaces(specs)
        shared = (
            compute_budget(ss).per_channel_w,
            budget_via_spectrum(ss, abs_tol=1e-7).per_channel_w,
            compute_budget(ss._select(mask)).per_channel_w,
        )
        assert eigs == [4]
        for got, want in zip(shared, expected):
            np.testing.assert_array_equal(got, want)

    def test_a_certified_stack_takes_no_spectrum(self, monkeypatch):
        seen = spy_on_spectra(monkeypatch)
        frame = fig1_frame_state_space()
        op = linalg.LyapunovOperator(frame.drift)
        op.solve(np.broadcast_to(np.eye(4), frame.drift.shape))
        op.adjoint(np.broadcast_to(np.eye(4), frame.drift.shape))
        assert seen == []
        assert not op.uncertified.any()


class TestKroneckerAssembly:
    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_the_indexed_system_is_the_kronecker_sum(self, dim):
        rng = np.random.default_rng(40 + dim)
        drifts = [random_stable(rng, dim) for _ in range(4)]
        if dim == 4:
            drifts.append(exceptional_pair_drift())
        eye = np.eye(dim)
        expected = [np.kron(eye, a) + np.kron(a.conj(), eye) for a in drifts]
        for a, system in zip(drifts, expected):
            np.testing.assert_array_equal(linalg._kronecker_system(a), system)
        np.testing.assert_array_equal(linalg._kronecker_system(np.stack(drifts)), np.stack(expected))

    def test_no_index_array_has_n4_entries(self, monkeypatch):
        # the eigen route's fallback at dimension 8, forced by a failed
        # factorization, assembles its system from n^2 (n - 1) triples
        def singular(m):
            raise np.linalg.LinAlgError("made singular")

        monkeypatch.setattr(np.linalg, "inv", singular)
        linalg._kronecker_indices.cache_clear()
        rng = np.random.default_rng(44)
        a = random_stable(rng, 8)
        qs = random_hermitian(rng, 8, k=2)
        ws = solve_lyapunov(a, qs)
        for q, w in zip(qs, ws):
            np.testing.assert_array_equal(w, kronecker_lyapunov(a, q))
        assert linalg._kronecker_indices.cache_info().currsize == 1
        for index in linalg._kronecker_indices(8):
            assert index.size == 8 * 8 * 7


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), nonpassive=st.booleans())
def test_engine_matches_scipy_on_random_networks(seed, nonpassive):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    spec = random_network(np.random.default_rng(seed), max_modes=8, nonpassive=nonpassive)
    assume(spec.n_modes >= 4)
    ss = build_state_space(spec)
    budget = compute_budget(ss)
    n = spec.n_modes
    for i, w in enumerate(budget.per_channel_w):
        q = np.zeros((2 * n, 2 * n))
        q[i, i], q[n + i, n + i] = ss.gammas[i], -ss.gammas[i]
        ref = scipy_linalg.solve_continuous_lyapunov(ss.drift, -q)
        assert np.abs(w - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())


def einsum_gk_panels(f, lo, hi):
    """Reference panel evaluation: a Jacobian-weighted copy of the values,
    then one einsum per rule and the estimate |K15 - G7|."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    t = mid[:, None] + half[:, None] * linalg._GK_NODES[None, :]
    omega = t / (1.0 - t * t)
    jac = (1.0 + t * t) / (1.0 - t * t) ** 2
    flat = np.asarray(f(omega.reshape(-1)))
    tail = flat.shape[1:]
    vals = flat.reshape(t.shape + tail) * jac.reshape(t.shape + (1,) * len(tail))
    scale = half.reshape((-1,) + (1,) * len(tail))
    k15 = np.einsum("pk...,k->p...", vals, linalg._GK_WEIGHTS) * scale
    g7 = np.einsum("pk...,k->p...", vals, linalg._G7_WEIGHTS) * scale
    return k15, np.abs(k15 - g7)


def two_lorentzians(w):
    out = np.zeros((w.size, 2, 2))
    out[:, 0, 0] = 1.0 / (0.25 + w * w)
    out[:, 1, 1] = 1.0 / (4.0 + w * w)
    return out


def matrix_with_narrow_entry(w):
    out = two_lorentzians(w).astype(complex)
    out[:, 0, 1] = 1j / (1.0 + w * w)
    out[:, 1, 1] = 1.0 / (0.01 + (w - 3.0) ** 2)
    return out


NARROW_H = 0.05


def narrow_resonance(w):
    return 1.0 / (NARROW_H * NARROW_H + (w - 40.0) ** 2)


def folded(f):
    """The integrand f(omega) + f(-omega) whose half-line integral is the
    whole-line integral of f."""
    return lambda w: f(w) + f(-w)


# the eigenvalue whose resonance narrow_resonance carries: peak at
# omega = -Im lambda = 40, half-width |Re lambda| = NARROW_H
NARROW_POLE = complex(-NARROW_H, -40.0)

# integrands that refine past the first panel set, with their options
REFINING = {
    "narrow_with_pole": (folded(narrow_resonance), {"poles": [NARROW_POLE]}),
    "narrow_without_poles": (folded(narrow_resonance), {}),
    "matrix_with_narrow_entry": (folded(matrix_with_narrow_entry), {}),
}


class TestIntegrateSpectrum:
    def test_lorentzian_normalization(self):
        value = integrate_spectrum(folded(lambda w: 1.0 / (0.25 + w * w)))
        assert abs(value - 1.0) < QUADRATURE_ABS_TOL

    def test_half_line_of_a_lorentzian(self):
        # (1/2pi) int_0^inf dw / (1/4 + w^2) = 1/2: the domain is omega >= 0
        value = integrate_spectrum(lambda w: 1.0 / (0.25 + w * w))
        assert abs(value - 0.5) < QUADRATURE_ABS_TOL

    def test_every_node_is_positive(self):
        nodes = []

        def f(w):
            nodes.append(w)
            return narrow_resonance(w) + narrow_resonance(-w)

        # poles on both sides of zero and at zero itself
        poles = [NARROW_POLE, NARROW_POLE.conjugate(), -1e-9, complex(-0.5, 1e-9)]
        integrate_spectrum(f, poles=poles)
        assert len(nodes) > 1
        assert min(float(w.min()) for w in nodes) > 0.0

    def test_zero_integrand(self):
        assert integrate_spectrum(lambda w: np.zeros_like(w)) == 0.0

    def test_matrix_valued_entrywise(self):
        value = integrate_spectrum(folded(two_lorentzians))
        assert abs(value[0, 0] - 1.0) < 1e-8
        assert abs(value[1, 1] - 0.25) < 1e-8
        assert abs(value[0, 1]) < 1e-12

    def test_narrow_displaced_resonance_with_its_pole(self):
        # half-width 0.05 centered at omega = 40; closed form 1/(2h)
        f, options = REFINING["narrow_with_pole"]
        value = integrate_spectrum(f, **options)
        assert abs(value - 1.0 / (2.0 * NARROW_H)) < 1e-6

    @pytest.mark.parametrize("name", sorted(REFINING))
    def test_contraction_matches_einsum_reference(self, name, monkeypatch):
        f, options = REFINING[name]
        lo = np.linspace(-1.0, 1.0, 65)[:-1]
        hi = lo + 2.0 / 64
        k15, errs = linalg._gk_panels(f, lo, hi)
        ref_k15, ref_errs = einsum_gk_panels(f, lo, hi)
        scale = np.abs(ref_k15).max()
        assert np.abs(k15 - ref_k15).max() <= 1e-14 * scale
        # the reference estimate is a difference of two sums, so its
        # roundoff is relative to the sums, not to itself
        assert np.abs(errs - ref_errs).max() <= 1e-14 * scale

        def run(panels):
            evals = []
            monkeypatch.setattr(linalg, "_gk_panels", panels)
            value = integrate_spectrum(lambda w: evals.append(w.size) or f(w), **options)
            return value, evals

        value, evals = run(linalg._gk_panels)
        ref_value, ref_evals = run(einsum_gk_panels)
        assert len(evals) > 1  # refined past the first panel set
        assert evals == ref_evals  # the same panel plan
        assert np.abs(value - ref_value).max() <= 1e-14 * np.abs(ref_value).max()

    @pytest.mark.parametrize("abs_tol", [math.nan, 0.0, -1e-8, math.inf])
    def test_tolerance_must_be_positive_and_finite(self, abs_tol):
        calls = []

        def f(w):
            calls.append(w.size)
            return 1.0 / (0.25 + w * w)

        with pytest.raises(ValidationError, match="abs_tol"):
            integrate_spectrum(f, abs_tol=abs_tol)
        assert calls == []  # refused before any panel is evaluated

    @pytest.mark.parametrize(
        "bad",
        [math.nan, math.inf, -math.inf, complex(-1.0, math.inf), complex(math.nan, 3.0)],
    )
    def test_poles_must_be_finite(self, bad):
        calls = []

        def f(w):
            calls.append(w.size)
            return 1.0 / (0.25 + w * w)

        with pytest.raises(ValidationError, match="poles must be finite"):
            integrate_spectrum(f, poles=[NARROW_POLE, bad, -0.5])
        assert calls == []  # refused before any panel is evaluated

    def test_unresolvable_pole_is_refused_before_any_panel(self):
        calls = []

        def f(w):
            calls.append(w.size)
            return 1.0 / (0.25 + w * w)

        with pytest.raises(NumericsError, match="narrower than the frequency map"):
            integrate_spectrum(f, poles=[-0.5, complex(-1e-12, -1000.0)])
        assert calls == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_non_finite_integrand_stops_at_first_batch(self, bad):
        calls = []

        def f(w):
            calls.append(w.size)
            out = (1.0 / (0.25 + w * w)).astype(complex)
            out[w.size // 2] = bad
            return out

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError, match="is not finite"):
                integrate_spectrum(f)
        assert sum(calls) < 1000

    def test_overflowing_panel_sum_is_refused(self):
        with pytest.raises(NumericsError, match="overflows"):
            integrate_spectrum(lambda w: np.full(w.shape, 1e307))

    def test_nonconvergence_carries_estimate(self, monkeypatch):
        monkeypatch.setattr(linalg, "QUADRATURE_MAX_PANELS", 8)
        with pytest.raises(NumericsError) as err:
            integrate_spectrum(lambda w: 1.0 / (0.25 + w * w), abs_tol=1e-15)
        assert err.value.estimate is not None


def exact_omega(t):
    """omega = t/(1-t^2) of a float t, as an exact rational."""
    t = Fraction(t)
    return t / (1 - t * t)


def preimages_by_roots(poles):
    """Both roots of omega0 t^2 + t - omega0 = 0 for every pole, by
    np.roots, independently of linalg._pole_preimages."""
    roots = []
    for pole in poles:
        omega = complex(-pole.imag, abs(pole.real))
        roots.extend(np.roots([omega, 1.0, -omega]))
    return np.array(roots)


def bernstein_rho(points, lo, hi):
    """The Bernstein-ellipse parameter of every point (columns) about
    every panel (rows): rho = |u + sqrt(u^2 - 1)| on the branch >= 1."""
    u = (points[None, :] - 0.5 * (lo + hi)[:, None]) / (0.5 * (hi - lo))[:, None]
    s = np.sqrt(u * u - 1.0)
    return np.maximum(np.abs(u + s), np.abs(u - s))


def lorentzian_pair(h, c):
    """The eigenvalues of a single mode of half-width h detuned by c."""
    return [complex(-h, -c), complex(-h, c)]


PLAN_POLES = {
    "none": [],
    "narrow-40": [NARROW_POLE],
    "wide": lorentzian_pair(1.0, 0.3),
    "narrow-at-zero": lorentzian_pair(1e-12, 0.0),
    "high-700": lorentzian_pair(5e-6, 700.0),
    "high-3000": lorentzian_pair(1.6e-4, 3000.0),
    "two-scales": lorentzian_pair(1e-6, 5.0) + lorentzian_pair(0.7, 0.0),
    "draw": list(
        eigenvalues(build_state_space(random_network(np.random.default_rng(3))).drift)
    ),
}


def reference_panel_plan(poles):
    """One member's starting panels as integrate_spectrum planned them
    member by member: the preimages of that member's poles alone, and
    the halving loop over its edges, every panel tested every pass."""
    omega = -poles.imag + 1j * np.abs(poles.real)
    small = np.abs(omega) <= 0.5
    with np.errstate(all="ignore"):
        z = 2.0 * omega[small]
        one_plus_s = 1.0 + np.sqrt(1.0 + z * z)
        u = 0.5 / omega[~small]
        r = np.sqrt(1.0 + u * u)
        points = np.concatenate([z / one_plus_s, -one_plus_s / z, 1.0 / (u + r), 1.0 / (u - r)])
    focal_sum = 0.5 * (linalg._PLAN_RHO + 1.0 / linalg._PLAN_RHO)
    edges = np.linspace(0.0, 1.0, 3)
    while True:
        lo, hi = edges[:-1], edges[1:]
        focal = np.abs(points[None, :] - lo[:, None]) + np.abs(points[None, :] - hi[:, None])
        near = np.flatnonzero((focal < focal_sum * (hi - lo)[:, None]).any(axis=1))
        if not near.size:
            return lo, hi
        edges = np.insert(edges, near + 1, 0.5 * (lo[near] + hi[near]))


def route_check_spectra():
    """The drift spectra of verify's route check at its default seed, one
    stack (P, 2N) per mode count."""
    rng = np.random.default_rng([DEFAULT_SEED, SUITES.index(suite_route_agreement)])
    by_size = {}
    for k in range(100):
        drift = build_state_space(random_network(rng, nonpassive=k % 3 == 2)).drift
        by_size.setdefault(len(drift), []).append(drift)
    return [
        linalg.LyapunovOperator(np.array(drifts)).stable_spectra()
        for _, drifts in sorted(by_size.items())
    ]


def narrow_pole_stacks():
    """Stacks of random poles, wide and narrow (half-widths 1e-7 to 1),
    at centres from 0 to 3000, some members without a narrow pole."""
    rng = np.random.default_rng(90)
    stacks = []
    for members, pairs in ((1, 1), (5, 2), (9, 3)):
        stack = []
        for _ in range(members):
            half_widths = 10.0 ** rng.uniform(-7.0, 0.0, size=pairs)
            far = 10.0 ** rng.uniform(-2.0, 3.5, size=pairs)
            centres = np.where(rng.random(pairs) < 0.2, 0.0, far)
            stack.append(sum((lorentzian_pair(h, c) for h, c in zip(half_widths, centres)), []))
        stacks.append(np.array(stack))
    return stacks


class TestPanelPlan:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("exponent", range(-12, 13))
    def test_omega_to_t_round_trips(self, exponent, sign):
        # the exact image of t lies within 4 float spacings of t (the map
        # is increasing); at |omega| <= 1 the float image is within 4 ulps
        omega = sign * 10.0**exponent
        t = linalg._omega_to_t(omega)
        assert abs(t) < 1.0
        step = 4 * np.spacing(abs(t))
        assert exact_omega(t - step) <= Fraction(omega) <= exact_omega(t + step)
        if abs(omega) <= 1.0:
            assert abs(t / (1.0 - t * t) - omega) <= 4 * np.spacing(abs(omega))

    def test_omega_to_t_at_zero_and_below_the_old_cancellation(self):
        assert linalg._omega_to_t(0.0) == 0.0
        # (-1 + sqrt(1 + 4 omega^2)) / (2 omega) gave 1.11e-8 and 0.0 here
        assert linalg._omega_to_t(1e-8) == 1e-8
        assert linalg._omega_to_t(1e-9) == 1e-9

    @pytest.mark.parametrize("name", sorted(PLAN_POLES))
    def test_preimages_are_both_roots_of_the_map(self, name):
        poles = np.array(PLAN_POLES[name], dtype=complex)
        got = linalg._pole_preimages(poles)
        ref = preimages_by_roots(poles)
        assert got.shape == ref.shape
        for root in ref:
            assert np.abs(got - root).min() <= 1e-13 * max(1.0, abs(root))

    def test_preimages_at_the_extremes(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = linalg._pole_preimages(np.array([complex(-1e300, -1e200)]))
        # omega0 = 1e200 + 1e300 i: 4 omega0^2 would overflow
        assert np.all(np.isfinite(got))
        assert np.abs(got[0] * got[1] + 1.0) < 1e-14
        # omega0 = i/2 is the branch point: a double root at t = i, which
        # np.roots resolves only to about sqrt(eps)
        assert np.array_equal(linalg._pole_preimages(np.array([-0.5 + 0j])), [1j, 1j])

    @pytest.mark.parametrize("name", sorted(PLAN_POLES))
    def test_starting_panels_tile_the_unit_interval_in_order(self, name):
        lo, hi = linalg._panel_plans(np.array(PLAN_POLES[name], dtype=complex)[None])[:2]
        assert lo[0] == 0.0 and hi[-1] == 1.0
        assert np.array_equal(hi[:-1], lo[1:])
        assert np.all(hi > lo)
        if name == "none":
            assert np.array_equal(lo, [0.0, 0.5]) and np.array_equal(hi, [0.5, 1.0])

    @pytest.mark.parametrize("name", sorted(PLAN_POLES))
    def test_no_panel_has_a_pole_preimage_inside_its_ellipse(self, name):
        points = preimages_by_roots(PLAN_POLES[name])
        lo, hi = linalg._panel_plans(np.array(PLAN_POLES[name], dtype=complex)[None])[:2]
        if points.size:
            assert bernstein_rho(points, lo, hi).min() >= linalg._PLAN_RHO * (1 - 1e-12)
        # and no panel was split without need: the parent of every split
        # panel (every panel narrower than the uniform start) held a
        # preimage inside its ellipse
        width = hi - lo
        split = width < 0.5
        parent_lo = np.floor(lo[split] / (2 * width[split])) * (2 * width[split])
        parent_hi = parent_lo + 2 * width[split]
        if split.any():
            rho = bernstein_rho(points, parent_lo, parent_hi)
            assert np.all(rho.min(axis=1) < linalg._PLAN_RHO)

    def assert_stacked_plans_are_per_member_plans(self, stack):
        lo, hi, owner = linalg._panel_plans(stack)
        assert np.all(np.diff(owner) >= 0)
        for m, poles in enumerate(stack):
            ref_lo, ref_hi = reference_panel_plan(poles)
            np.testing.assert_array_equal(lo[owner == m], ref_lo)
            np.testing.assert_array_equal(hi[owner == m], ref_hi)
        return len(lo)

    def test_stacked_plans_of_the_route_check_are_its_per_member_plans(self):
        stacks = route_check_spectra()
        assert sum(len(stack) for stack in stacks) == 100
        for stack in stacks:
            self.assert_stacked_plans_are_per_member_plans(stack)

    def test_stacked_plans_of_narrow_poles_are_their_per_member_plans(self):
        sizes = [self.assert_stacked_plans_are_per_member_plans(s) for s in narrow_pole_stacks()]
        assert max(sizes) > 100  # the narrow poles grade their members deeply

    def test_narrow_poles_grade_the_panels_toward_them(self):
        lo, hi = linalg._panel_plans(np.array(PLAN_POLES["high-700"])[None])[:2]
        t = linalg._omega_to_t(700.0)
        nearest = np.argmin(np.abs(0.5 * (lo + hi) - t))
        assert hi[nearest] - lo[nearest] < 1e-9
        assert len(lo) < 200

    def test_plan_above_the_panel_cap_is_refused_before_any_panel(self, monkeypatch):
        size = len(linalg._panel_plans(np.array([NARROW_POLE])[None])[0])
        assert size > 2  # the pole splits the uniform start
        monkeypatch.setattr(linalg, "QUADRATURE_MAX_PANELS", size - 1)
        calls = []

        def f(w):
            calls.append(w.size)
            return narrow_resonance(w)

        with pytest.raises(NumericsError, match="starting panels"):
            integrate_spectrum(f, poles=[NARROW_POLE])
        assert calls == []

    @pytest.mark.parametrize("centre", [0.0, 0.07, 3.3, 40.0, 700.0, 3000.0])
    @pytest.mark.parametrize("half_width", [1e-9, 1e-6, 1e-3, 1.0])
    def test_lorentzians_are_within_tolerance_or_refused(self, half_width, centre):
        # h/(h^2 + (omega -+ c)^2) over the half-line: exactly 1/2
        def f(w):
            return half_width * (
                1.0 / (half_width**2 + (w - centre) ** 2)
                + 1.0 / (half_width**2 + (w + centre) ** 2)
            )

        abs_tol = 1e-8
        try:
            value = integrate_spectrum(
                f, abs_tol=abs_tol, poles=lorentzian_pair(half_width, centre)
            )
        except NumericsError:
            assert half_width < 1e-3  # wide poles converge
            return
        assert abs(value - 0.5) <= abs_tol


def lorentzian(half_width, centre):
    """h/(h^2 + (omega -+ c)^2) folded onto the half-line, whose integral
    is exactly 1/2."""
    h = half_width
    return lambda w: h * (
        1.0 / (h * h + (w - centre) ** 2) + 1.0 / (h * h + (w + centre) ** 2)
    )


# members of one lockstep quadrature with their poles: the wide ones
# converge on their starting panels, the narrow ones refine for more rounds
SPECTRA = [
    (lorentzian(1.0, 0.3), lorentzian_pair(1.0, 0.3)),
    (lorentzian(0.05, 40.0), lorentzian_pair(0.05, 40.0)),
    (lorentzian(1e-3, 3.3), lorentzian_pair(1e-3, 3.3)),
    (lorentzian(0.5, 0.0), lorentzian_pair(0.5, 0.0)),
    (lorentzian(1e-3, 700.0), lorentzian_pair(1e-3, 700.0)),
]


def members_of(functions, sizes=None):
    """One integrand f(members, omegas) that evaluates every member's own
    function at its own frequencies, recording each call's size."""

    def f(members, omegas):
        if sizes is not None:
            sizes.append(omegas.size)
        out = np.empty(omegas.shape)
        for m, fn in enumerate(functions):
            at = members == m
            out[at] = fn(omegas[at])
        return out

    return f


class TestIntegrateSpectra:
    def test_each_member_has_the_bits_of_its_lone_call(self, monkeypatch):
        functions, poles = zip(*SPECTRA)
        stacked = linalg.integrate_spectra(members_of(functions), 1e-8, np.array(poles))
        assert stacked.shape == (len(SPECTRA),)
        for m, (fn, pole) in enumerate(SPECTRA):
            value = integrate_spectrum(fn, 1e-8, pole)
            assert np.array_equal(stacked[m], value)
            assert abs(value - 0.5) <= 1e-8
        # with no batch bound each round is one call: the members converge
        # after different numbers of rounds
        monkeypatch.setattr(linalg, "QUADRATURE_BATCH_NODES", 10**9)
        rounds = []
        for fn, pole in SPECTRA:
            calls = []
            integrate_spectrum(lambda w: calls.append(w.size) or fn(w), 1e-8, pole)
            rounds.append(len(calls))
        assert len(set(rounds)) > 1, rounds

    def test_members_are_evaluated_together(self):
        functions, poles = zip(*SPECTRA)
        sizes = []
        linalg.integrate_spectra(members_of(functions, sizes), 1e-8, np.array(poles))
        lone = []
        for fn, pole in SPECTRA:
            integrate_spectrum(lambda w: lone.append(w.size) or fn(w), 1e-8, pole)
        assert sum(sizes) == sum(lone)  # the same panels
        assert len(sizes) < len(lone)  # in fewer calls
        assert max(sizes) == linalg.QUADRATURE_BATCH_NODES

    def test_matrix_valued_members(self):
        functions = [
            folded(matrix_with_narrow_entry),
            lambda w: 2.0 * folded(matrix_with_narrow_entry)(w),
        ]
        poles = np.array([[complex(-0.1, -3.0), complex(-0.1, 3.0)]] * 2)

        def f(members, omegas):
            out = np.empty((omegas.size, 2, 2), dtype=complex)
            for m, fn in enumerate(functions):
                out[members == m] = fn(omegas[members == m])
            return out

        stacked = linalg.integrate_spectra(f, 1e-8, poles)
        assert stacked.shape == (2, 2, 2)
        for m, fn in enumerate(functions):
            assert np.array_equal(stacked[m], integrate_spectrum(fn, 1e-8, poles[m]))

    @pytest.mark.parametrize("bound", [15, 45, 240])
    def test_no_call_exceeds_the_batch_bound(self, bound, monkeypatch):
        monkeypatch.setattr(linalg, "QUADRATURE_BATCH_NODES", bound)
        functions, poles = zip(*SPECTRA)
        sizes = []
        stacked = linalg.integrate_spectra(members_of(functions, sizes), 1e-8, np.array(poles))
        assert max(sizes) == bound
        lone = [integrate_spectrum(fn, 1e-8, pole) for fn, pole in SPECTRA]
        assert np.array_equal(stacked, lone)

    def test_refusals_come_member_by_member_before_any_panel(self):
        sizes = []
        f = members_of([lorentzian(1.0, 0.0)] * 3, sizes)
        unresolved = complex(-1e-12, -1000.0)
        with pytest.raises(NumericsError, match="narrower than the frequency map"):
            linalg.integrate_spectra(f, 1e-8, [[-0.5, -0.5], [-0.5, unresolved], [math.nan, -0.5]])
        with pytest.raises(ValidationError, match="poles must be finite"):
            linalg.integrate_spectra(f, 1e-8, [[-0.5, -0.5], [math.nan, -0.5], [-0.5, unresolved]])
        with pytest.raises(ValidationError, match="abs_tol"):
            linalg.integrate_spectra(f, math.nan, [[-0.5]])
        assert sizes == []

    def test_a_member_over_the_cap_refuses_before_a_later_non_finite_one(self, monkeypatch):
        size = len(linalg._panel_plans(np.array([NARROW_POLE, NARROW_POLE])[None])[0])
        monkeypatch.setattr(linalg, "QUADRATURE_MAX_PANELS", size - 1)
        sizes = []
        f = members_of([narrow_resonance, lorentzian(1.0, 0.0)], sizes)
        with pytest.raises(NumericsError, match="starting panels"):
            linalg.integrate_spectra(f, 1e-8, [[NARROW_POLE, NARROW_POLE], [math.nan, -0.5]])
        # and the other way round, the non-finite member raises its own error
        with pytest.raises(ValidationError, match="poles must be finite"):
            linalg.integrate_spectra(f, 1e-8, [[math.nan, -0.5], [NARROW_POLE, NARROW_POLE]])
        assert sizes == []

    @pytest.mark.parametrize("poles", [[-0.5, -1.0], np.zeros((0, 2)), np.zeros((1, 2, 2))])
    def test_poles_must_be_a_stack_of_members(self, poles):
        with pytest.raises(DimensionError, match="stack"):
            linalg.integrate_spectra(members_of([]), 1e-8, poles)

    def test_a_member_that_cannot_converge_raises(self, monkeypatch):
        monkeypatch.setattr(linalg, "QUADRATURE_MAX_PANELS", 8)
        f = members_of([lorentzian(1.0, 0.0), lorentzian(0.5, 0.0)])
        with pytest.raises(NumericsError, match="did not converge") as err:
            linalg.integrate_spectra(f, 1e-15, [[], []])
        assert err.value.estimate > 1e-15


class TestBatchOrEach:
    def test_a_batch_that_succeeds_is_returned(self):
        assert batch_or_each([1, 2], lambda items: [0, 0], None) == [0, 0]

    def test_a_failed_batch_is_replayed_lazily_in_order(self):
        evaluated = []

        def one(item):
            evaluated.append(item)
            if item == 2:
                raise StabilityError(f"item {item}")
            return 10 * item

        def failing(items):
            raise NumericsError("batch")

        results = batch_or_each([1, 2, 3], failing, one)
        assert evaluated == []
        assert next(results) == 10
        with pytest.raises(StabilityError, match="item 2"):
            next(results)
        assert evaluated == [1, 2]

    def test_other_errors_are_not_replayed(self):
        def failing(items):
            raise ZeroDivisionError

        with pytest.raises(ZeroDivisionError):
            batch_or_each([1], failing, lambda item: item)


def one_search(fn, lo, hi, rel_tol=1e-6):
    """golden_sections_max with one bracket, for a scalar objective."""
    (x,), (fx,) = golden_sections_max(lambda xs: [fn(x) for x in xs], [lo], [hi], rel_tol)
    return x, fx


class TestGoldenSection:
    def test_max_of_concave_quadratic(self):
        x, fx = one_search(lambda t: -(t - 1.3) ** 2 + 2.0, 0.0, 3.0)
        assert abs(x - 1.3) < 1e-5
        assert abs(fx - 2.0) < 1e-10

    def test_min_of_convex_quadratic(self):
        # a minimum is the maximum of the negated function
        x, neg = one_search(lambda t: -((t + 0.4) ** 2 - 1.0), -2.0, 2.0)
        assert abs(x + 0.4) < 1e-5
        assert abs(-neg + 1.0) < 1e-10


def scalar_golden_max(fn, lo, hi, rel_tol=1e-6):
    """The scalar golden-section loop that golden_sections_max replaced,
    kept here as the reference for its bits."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(400):
        if b - a <= rel_tol * max(1.0, abs(a), abs(b)):
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    x = 0.5 * (a + b)
    return x, fn(x)


class TestLockstepGoldenSection:
    # brackets of widths 1e-4 to 1e4 stop after different step counts
    BRACKETS = [(0.0, 3.0), (-2.0, 1e4), (0.5, 0.5001), (-7.0, -1.0), (10.0, 40.0)]
    FNS = [
        lambda t: -(t - 1.3) ** 2 + 2.0,
        lambda t: -abs(t - 517.25),
        lambda t: math.sin(1e4 * t),
        lambda t: t * math.exp(t),
        lambda t: -math.cosh(t - 31.0),
    ]

    def scalar_visits(self, fn, lo, hi, rel_tol=1e-6):
        visits = []

        def objective(x):
            visits.append(x)
            return fn(x)

        return scalar_golden_max(objective, lo, hi, rel_tol), visits

    def assert_lockstep_is_each_scalar_loop(self, fns, brackets, rel_tol=1e-6):
        """Run the searches in lockstep and check each against the scalar
        loop: it visits the same points in the same order, with the same
        bits, each call's along one path from the root of the tree the
        search was handed there (the children of point j are points 2j + 1
        and 2j + 2); every other point it is handed gets the value inf,
        which must be ignored, and after it stops it is handed only points
        it was handed before."""
        alone = [self.scalar_visits(fn, lo, hi, rel_tol) for fn, (lo, hi) in zip(fns, brackets)]
        # the scalar loop's visits: two probes, one per step, the midpoint
        last_step = [len(visits) - 1 for _, visits in alone]
        pending = [list(visits) for _, visits in alone]
        m = len(fns)
        handed = [[] for _ in fns]
        sizes = []

        def objective(xs):
            sizes.append(len(xs))
            values = [math.inf] * len(xs)
            for i in range(m):
                points = xs[i::m]
                if len(pending[i]) == 1 and points != pending[i]:  # stopped
                    assert all(point in handed[i] for point in points)
                node = 0
                while node < len(points) and pending[i] and points[node] == pending[i][0]:
                    values[node * m + i] = fns[i](pending[i].pop(0))
                    node = next(
                        (child for child in (2 * node + 1, 2 * node + 2)
                         if child < len(points) and pending[i][:1] == [points[child]]),
                        len(points),
                    )
                handed[i].extend(points)
            return values

        lo, hi = zip(*brackets)
        xs, values = golden_sections_max(objective, lo, hi, rel_tol)
        assert pending == [[] for _ in fns]
        # m searches look d steps ahead, 2^d - 1 points each, at most 8 in all
        depth = {1: 3, 2: 2}.get(m, 1)
        steps = max(last_step) - 2
        probes = [2 * m] if depth > 1 else [m, m]
        rounds = [m * (2 ** min(depth, 400 - s) - 1) for s in range(0, steps, depth)]
        assert sizes == probes + rounds + [m]
        for i, (x, fx) in enumerate(r for r, _ in alone):
            assert xs[i] == x
            assert values[i] == fx or (math.isnan(values[i]) and math.isnan(fx))
        return last_step

    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-12])
    def test_each_search_has_the_bits_and_path_of_the_scalar_loop(self, rel_tol):
        last_step = self.assert_lockstep_is_each_scalar_loop(self.FNS, self.BRACKETS, rel_tol)
        assert len(set(last_step)) > 1  # the searches stop after different step counts

    def test_flat_and_nan_objectives(self):
        fns = [lambda t: 1.0, lambda t: math.nan, lambda t: 0.0 if t < 0.3 else math.nan]
        self.assert_lockstep_is_each_scalar_loop(fns, [(0.0, 1.0), (-1.0, 2.0), (0.0, 1.0)])

    def test_step_cap(self):
        # a negative tolerance never stops a search, so the cap ends it
        last_step = self.assert_lockstep_is_each_scalar_loop(
            self.FNS[:2], self.BRACKETS[:2], -1.0
        )
        assert last_step == [2 + 400, 2 + 400]

    def test_one_search_calls_are_the_scalar_loop(self):
        for fn, (lo, hi) in zip(self.FNS, self.BRACKETS):
            assert one_search(fn, lo, hi) == scalar_golden_max(fn, lo, hi)
            # the search for a minimum, as parametric_optimum runs it
            neg = scalar_golden_max(lambda t: -fn(t), lo, hi, 1e-12)
            assert one_search(lambda t: -fn(t), lo, hi, 1e-12) == neg

    @pytest.mark.parametrize(
        "lo, hi",
        [(1.0, 1.0), (2.0, 1.0), (math.nan, 1.0), (0.0, math.inf), (-1e308, 1e308)],
    )
    def test_bad_brackets_are_refused(self, lo, hi):
        with pytest.raises(ValidationError, match="brackets must be finite"):
            one_search(lambda t: t, lo, hi)
        with pytest.raises(ValidationError, match="brackets must be finite"):
            golden_sections_max(lambda xs: xs, [0.0, lo], [1.0, hi])

    def test_no_searches(self):
        assert golden_sections_max(lambda xs: [], [], []) == ([], [])

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-12])
    def test_lookahead_searches_have_the_bits_and_path_of_the_scalar_loop(self, m, rel_tol):
        # one search looks 3 steps ahead, two look 2, and three look 1
        for start in range(len(self.FNS)):
            group = [(start + j) % len(self.FNS) for j in range(m)]
            self.assert_lockstep_is_each_scalar_loop(
                [self.FNS[j] for j in group], [self.BRACKETS[j] for j in group], rel_tol
            )

    @pytest.mark.parametrize("m", [1, 2])
    def test_flat_and_nan_objectives_with_lookahead(self, m):
        fns = [lambda t: 1.0, lambda t: math.nan, lambda t: 0.0 if t < 0.3 else math.nan]
        brackets = [(0.0, 1.0), (-1.0, 2.0), (0.0, 1.0)]
        for start in range(len(fns)):
            group = [(start + j) % len(fns) for j in range(m)]
            self.assert_lockstep_is_each_scalar_loop(
                [fns[j] for j in group], [brackets[j] for j in group]
            )

    def test_a_search_stops_inside_a_tree(self):
        # 31 steps: the last tree of 3 steps is left after its first
        (last_step,) = self.assert_lockstep_is_each_scalar_loop(
            self.FNS[:1], self.BRACKETS[:1]
        )
        assert (last_step - 2) % 3 == 1
        # and the two searches of a pair stop after different step counts
        steps = self.assert_lockstep_is_each_scalar_loop(self.FNS[:2], self.BRACKETS[:2])
        assert len(set(steps)) > 1

    def test_step_cap_inside_a_tree(self):
        # 400 steps, 3 at a time: the 134th tree is cut to the one step the
        # cap leaves
        last_step = self.assert_lockstep_is_each_scalar_loop(
            self.FNS[:1], self.BRACKETS[:1], -1.0
        )
        assert last_step == [2 + 400]

    def objective_and_visits(self, fn, lo, hi):
        """A recording objective of one search, and the scalar loop's
        visits."""
        handed = []

        def objective(xs):
            handed.append(list(xs))
            return [fn(x) for x in xs]

        _, visits = self.scalar_visits(fn, lo, hi)
        return objective, handed, visits

    @pytest.mark.parametrize("which", [0, 5, -1])
    def test_an_error_off_the_path_is_not_raised(self, which):
        # the objective raises at one point of a branch not taken: that call
        # is made again without lookahead, and the search ends as the scalar
        # loop does
        fn, (lo, hi) = self.FNS[0], self.BRACKETS[0]
        objective, handed, visits = self.objective_and_visits(fn, lo, hi)
        golden_sections_max(objective, [lo], [hi])
        off_path = [x for call in handed for x in call if x not in visits]
        assert len(off_path) > 20
        bad = off_path[which]
        failed = []

        def failing(xs):
            if bad in xs:
                failed.append((len(handed), len(xs)))
                raise NumericsError(f"made to fail at {bad!r}")
            return objective(xs)

        handed.clear()
        x, fx = scalar_golden_max(fn, lo, hi)
        assert golden_sections_max(failing, [lo], [hi]) == ([x], [fx])
        # the lookahead call failed once; from there on every call is one
        # point, each a point the scalar loop visits
        ((at, size),) = failed
        assert size == 7 and len(handed) - at > 1
        assert all(len(call) == 1 and call[0] in visits for call in handed[at:])

    def test_an_error_off_every_path_is_not_raised(self):
        # every point off the scalar loop's path raises, and the first tree
        # holds such points: the search finishes without lookahead
        for fn, (lo, hi) in zip(self.FNS, self.BRACKETS):
            _, visits = self.scalar_visits(fn, lo, hi)

            def strict(xs):
                if any(x not in visits for x in xs):
                    raise NumericsError("off the path")
                return [fn(x) for x in xs]

            (x,), (fx,) = golden_sections_max(strict, [lo], [hi])
            assert (x, fx) == scalar_golden_max(fn, lo, hi)

    @pytest.mark.parametrize("which", [0, 1, 5, -2, -1])
    def test_an_error_on_the_path_is_the_scalar_loops(self, which):
        fn, (lo, hi) = self.FNS[1], self.BRACKETS[1]
        _, visits = self.scalar_visits(fn, lo, hi)
        bad = visits[which]

        def failing(x):
            if x == bad:
                raise NumericsError(f"made to fail at {x!r}")
            return fn(x)

        with pytest.raises(NumericsError) as scalar:
            scalar_golden_max(failing, lo, hi)
        with pytest.raises(NumericsError) as lockstep:
            one_search(failing, lo, hi)
        assert str(lockstep.value) == str(scalar.value) == f"made to fail at {bad!r}"

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_a_result_of_the_wrong_length_is_refused(self, m):
        # a lookahead call that fails is made again one point per search,
        # and that call raises
        lo, hi = [0.0] * m, [1.0] * m
        with pytest.raises(DimensionError, match=f"returned {m + 1} values for {m} points$"):
            golden_sections_max(lambda xs: list(xs) + [99.0], lo, hi)
        with pytest.raises(DimensionError, match=f"returned {m - 1} values for {m} points$"):
            golden_sections_max(lambda xs: list(xs)[:-1], lo, hi)
