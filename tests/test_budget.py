import math
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from bosonet import budget as budget_module
from bosonet import linalg
from bosonet.budget import (
    budget_report,
    budget_via_spectrum,
    compute_budget,
    compute_budgets,
    POSITIVITY_FLOOR,
    SUM_RULE_TOL,
    SumRuleReport,
    two_mode_ix_bound,
    verify_reciprocity,
    verify_sum_rules,
)
from bosonet.errors import (
    ApplicabilityError,
    BosonetError,
    DimensionError,
    NumericsError,
    StabilityError,
    ValidationError,
)
from bosonet.linalg import QUADRATURE_ABS_TOL
from bosonet.network import (
    BathSpec,
    NetworkSpec,
    beam_splitter,
    build_state_space,
    build_state_spaces,
    detuning,
    metric,
    mirrored,
    StateSpace,
    two_mode_squeeze,
)
from bosonet.suites import random_network


def exchange_pair(g=0.5, gamma1=1.0, gamma2=1.0):
    return build_state_space(
        NetworkSpec(
            2, [BathSpec(gamma1), BathSpec(gamma2)], [beam_splitter(g, 0, 1)]
        )
    )


def squeezer_pair(g_minus=1.0, g_plus=0.5, gamma1=1.0, gamma2=1.0):
    return build_state_space(
        NetworkSpec(
            2,
            [BathSpec(gamma1), BathSpec(gamma2)],
            [beam_splitter(g_minus, 0, 1), two_mode_squeeze(g_plus, 0, 1)],
        )
    )


def five_mode_draw():
    ss = build_state_space(random_network(np.random.default_rng(0), nonpassive=True))
    assert ss.n_modes == 5
    return ss


def exchange_transfer(g, gamma1, gamma2):
    """Closed-form channel transfer for a lossy two-mode exchange coupling."""
    s = gamma1 + gamma2
    d = gamma1 * gamma2 + 4.0 * abs(g) ** 2
    cross = 4.0 * abs(g) ** 2 / (s * d)
    return np.array(
        [
            [1.0 - gamma2 * cross, gamma2 * cross],
            [gamma1 * cross, 1.0 - gamma1 * cross],
        ]
    )


class TestComputeBudget:
    def test_members_of_a_stack_have_their_own_budgets(self):
        from bosonet.budget import compute_budgets

        specs = [
            NetworkSpec(2, [BathSpec(1.0), BathSpec(2.0)], [beam_splitter(0.3, 0, 1)]),
            NetworkSpec(2, [BathSpec(1.0), BathSpec(2.0)], [two_mode_squeeze(0.2, 0, 1)]),
        ]
        members = compute_budgets(build_state_spaces(specs))
        assert [m.passive for m in members] == [True, False]
        for member, spec in zip(members, specs):
            single = compute_budget(build_state_space(spec))
            for name in ("per_channel_w", "per_channel_k", "transfer", "gammas"):
                assert getattr(member, name).tobytes() == getattr(single, name).tobytes()
            assert member.passive == single.passive

    def test_budgets_of_a_single_state_space_are_refused(self):
        from bosonet.budget import compute_budgets
        from bosonet.errors import DimensionError

        spec = NetworkSpec(2, [BathSpec(1.0), BathSpec(2.0)], [beam_splitter(0.3, 0, 1)])
        with pytest.raises(DimensionError, match="stack of drifts"):
            compute_budgets(build_state_space(spec))

    def test_stacked_state_spaces_give_their_budgets(self):
        specs = [
            NetworkSpec(2, [BathSpec(g1), BathSpec(1.0)], [beam_splitter(g, 0, 1)])
            for g1, g in ((1.0, 0.2), (2.5, 0.7), (0.3, 1.5))
        ]
        stacked = compute_budget(build_state_spaces(specs))
        assert stacked.transfer.shape == (3, 2, 2)
        assert stacked.passive
        for k, spec in enumerate(specs):
            single = compute_budget(build_state_space(spec))
            np.testing.assert_array_equal(stacked.per_channel_w[k], single.per_channel_w)
            np.testing.assert_array_equal(stacked.transfer[k], single.transfer)
            np.testing.assert_array_equal(stacked.gammas[k], single.gammas)

    def test_single_mode_owns_its_commutator(self):
        budget = compute_budget(
            build_state_space(NetworkSpec(1, [BathSpec(2.0)]))
        )
        assert np.allclose(budget.transfer, [[1.0]])
        assert np.allclose(budget.per_channel_k[0], [[1.0]])
        assert budget.passive

    def test_balanced_exchange_kernels(self):
        budget = compute_budget(exchange_pair(g=0.5))
        expected_k2 = np.array([[0.25, -0.25j], [0.25j, 0.75]])
        assert np.abs(budget.per_channel_k[1] - expected_k2).max() < 1e-12
        assert np.abs(budget.transfer - 0.25 - 0.5 * np.eye(2)).max() < 1e-12

    def test_completeness_is_a_resolution_of_identity(self):
        for ss in (exchange_pair(0.7, 2.0, 0.3), squeezer_pair()):
            budget = compute_budget(ss)
            total = budget.per_channel_k.sum(axis=0)
            assert np.abs(total - np.eye(ss.n_modes)).max() < 1e-11

    def test_closed_form_cross_transfer(self):
        gs = [0.1, 0.5, 1.0, 3.0, 10.0]
        pairs = [(1.0, 1.0), (4.0, 1.0), (0.2, 5.0), (2.0, 2.0), (1.0, 0.1)]
        for g, (gamma1, gamma2) in zip(gs, pairs):
            for phase in (0.0, 0.9):
                ss = exchange_pair(g * np.exp(1j * phase), gamma1, gamma2)
                budget = compute_budget(ss)
                expected = exchange_transfer(g, gamma1, gamma2)
                assert np.abs(budget.transfer - expected).max() < 1e-12

    def test_balanced_point_is_exactly_one_quarter(self):
        budget = compute_budget(exchange_pair(0.5, 1.0, 1.0))
        assert abs(budget.transfer[0, 1] - 0.25) < 1e-14

    def test_strong_coupling_approaches_half(self):
        budget = compute_budget(exchange_pair(50.0, 1.0, 1.0))
        assert abs(budget.transfer[0, 1] - 0.49995000499950005) < 1e-13

    def test_kernels_hermitian(self):
        budget = compute_budget(squeezer_pair(1.0, 0.5, 2.0, 0.7))
        for k in budget.per_channel_k:
            assert np.abs(k - k.conj().T).max() < 1e-12

    def test_nonpassive_kernel_can_be_indefinite(self):
        budget = compute_budget(squeezer_pair(1.0, 0.9, 1.0, 1.0))
        min_eig = min(
            np.linalg.eigvalsh(k).min() for k in budget.per_channel_k
        )
        assert min_eig < -0.1


    def test_unstable_four_mode_network_raises(self):
        spec = NetworkSpec(
            4,
            [BathSpec(1.0)] * 4,
            [two_mode_squeeze(2.0, 0, 1), beam_splitter(0.3, 1, 2), beam_splitter(0.3, 2, 3)],
        )
        with pytest.raises(StabilityError) as err:
            compute_budget(build_state_space(spec))
        assert err.value.eigenvalue.real >= 0.0

    def test_nan_share_rejected_by_imaginary_leak_guard(self):
        ws = np.zeros((1, 2, 2), dtype=complex)
        ws[0, 0, 0] = complex(1.0, np.nan)
        with pytest.raises(NumericsError):
            budget_module._budget_from_kernels(ws, np.array([1.0]), True)

    def test_runtime_does_not_import_scipy(self):
        # the package promises a numpy-only runtime; scipy is a test oracle
        script = textwrap.dedent(
            """
            import sys
            import numpy as np
            from bosonet import BathSpec, NetworkSpec, beam_splitter, build_state_space, compute_budget
            spec = NetworkSpec(
                8, [BathSpec(1.0 + k) for k in range(8)],
                [beam_splitter(0.5, k, k + 1) for k in range(7)],
            )
            budget = compute_budget(build_state_space(spec))
            assert np.abs(budget.transfer.sum(axis=1) - 1.0).max() < 1e-12
            assert "scipy" not in sys.modules, sorted(m for m in sys.modules if "scipy" in m)
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr


class TestSpectralRoute:
    def test_single_mode(self):
        ss = build_state_space(NetworkSpec(1, [BathSpec(1.0)]))
        budget = budget_via_spectrum(ss)
        assert np.abs(budget.transfer - [[1.0]]).max() < 1e-7

    def test_matches_lyapunov_route_passive(self):
        ss = exchange_pair(0.7, 2.0, 0.3)
        direct = compute_budget(ss)
        spectral = budget_via_spectrum(ss)
        assert np.abs(direct.per_channel_w - spectral.per_channel_w).max() < 1e-6

    def test_matches_lyapunov_route_nonpassive(self):
        ss = squeezer_pair(1.0, 0.5)
        direct = compute_budget(ss)
        spectral = budget_via_spectrum(ss)
        assert np.abs(direct.per_channel_w - spectral.per_channel_w).max() < 1e-6
        total = spectral.per_channel_k.sum(axis=0)
        assert np.abs(total - np.eye(2)).max() < 1e-6

    @pytest.mark.parametrize("abs_tol", [float("nan"), 0.0, -1e-8])
    def test_tolerance_is_checked_up_front(self, abs_tol):
        with pytest.raises(ValidationError, match="abs_tol"):
            budget_via_spectrum(exchange_pair(0.7, 2.0, 0.3), abs_tol=abs_tol)

    def test_detuned_network_needs_displaced_panels(self):
        ss = build_state_space(
            NetworkSpec(
                2,
                [BathSpec(0.2), BathSpec(0.2)],
                [beam_splitter(0.4, 0, 1), detuning(30.0, 0), detuning(30.0, 1)],
            )
        )
        direct = compute_budget(ss)
        spectral = budget_via_spectrum(ss)
        assert np.abs(direct.transfer - spectral.transfer).max() < 1e-6


    @pytest.mark.parametrize(
        "gamma, detuned", [(1e-12, -123.4), (1e-12, 1000.0), (1e-10, 1000.0)]
    )
    def test_unresolvable_resonance_is_refused(self, gamma, detuned, monkeypatch):
        # the exact W00 is 1; the quadrature used to return 0.27, 0.029 and
        # 1.51 here with no error, its panel around the pole one ulp wide
        ss = build_state_space(NetworkSpec(1, [BathSpec(gamma)], [detuning(detuned, 0)]))
        seen = capture_integrand(monkeypatch)
        with pytest.raises(NumericsError, match="narrower than the frequency map"):
            budget_via_spectrum(ss)
        assert seen["nodes"] == []  # refused before any panel

    @pytest.mark.parametrize("gamma, detuned", [(1e-12, 0.0), (1e-6, 5.0), (1e-4, 31.0)])
    def test_resolvable_narrow_resonance_converges(self, gamma, detuned):
        ss = build_state_space(NetworkSpec(1, [BathSpec(gamma)], [detuning(detuned, 0)]))
        assert abs(budget_via_spectrum(ss).per_channel_w[0][0, 0] - 1.0) < 1e-8

    def test_high_q_three_mode_frame_is_not_refused(self):
        from bosonet.scenarios import (
            ThreeModeParams,
            three_mode_physical_network,
            three_mode_transform,
        )

        p = ThreeModeParams(g_script=1.0, omega=1.0, kappa=1.0, gamma_m=1e-6, xi=0.5)
        physical = build_state_space(three_mode_physical_network(p))
        ss = three_mode_transform(p.xi).apply_to_state_space(physical)
        spectral = budget_via_spectrum(ss)
        assert np.abs(spectral.per_channel_w - compute_budget(ss).per_channel_w).max() < 1e-12

    def test_matches_lyapunov_route_at_exceptional_point(self):
        # g = |gamma1 - gamma2| / 4: the two drift eigenvalues coalesce
        ss = exchange_pair(0.25, 2.0, 1.0)
        direct = compute_budget(ss)
        spectral = budget_via_spectrum(ss)
        assert np.abs(direct.per_channel_w - spectral.per_channel_w).max() < 1e-9

    def test_kernel_is_the_signed_outer_products(self, monkeypatch):
        ss = five_mode_draw()
        n = ss.n_modes
        kernels = []

        def capture(f, abs_tol, poles):
            kernels.append(first_member(f))
            return linalg.integrate_spectra(f, abs_tol, poles)

        monkeypatch.setattr(budget_module, "integrate_spectra", capture)
        budget_via_spectrum(ss)
        omegas = np.array([-12.0, -0.7, 0.0, 0.2, 3.0])
        got = kernels[0](omegas)
        assert got.shape == (omegas.size, n, 2 * n, 2 * n)
        for k, omega in enumerate(omegas):
            t = np.linalg.solve(-1j * omega * np.eye(2 * n) - ss.drift, ss.input)
            scale = np.abs(t).max() ** 2
            for j in range(n):
                ref = np.outer(t[:, j], t[:, j].conj()) - np.outer(
                    t[:, n + j], t[:, n + j].conj()
                )
                assert np.abs(got[k, j] - ref).max() <= 1e-14 * scale

    def test_peak_memory_is_one_kernel_batch(self, monkeypatch):
        # no (F, 2N, 2N, 2N) outer tensor and no weighted copy of the
        # kernel values: the peak stays below two (F, N, 2N, 2N) arrays
        ss = five_mode_draw()
        n = ss.n_modes
        evals = []

        def counting(f, abs_tol, poles):
            return linalg.integrate_spectra(
                lambda members, w: evals.append(w.size) or f(members, w), abs_tol, poles
            )

        monkeypatch.setattr(budget_module, "integrate_spectra", counting)
        budget_via_spectrum(ss)
        evals.clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            budget_via_spectrum(ss)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        kernel_bytes = sum(evals) * n * (2 * n) ** 2 * 16
        assert peak < 2 * kernel_bytes


def five_mode_stack():
    """Eight five-mode draws, active and passive in turn, as one stacked
    state space: enough panels to fill the quadrature's batches."""
    specs = [
        random_network(np.random.default_rng(seed), nonpassive=k % 2 == 0)
        for k, seed in enumerate((0, 2, 3, 7, 13, 15, 18, 20))
    ]
    assert {spec.n_modes for spec in specs} == {5}
    return build_state_spaces(specs)


def two_mode_stack():
    """Two-mode networks that refine for different numbers of rounds: a
    detuned pair whose poles sit far out, an exceptional point and an
    active pair."""
    members = [
        build_state_space(
            NetworkSpec(
                2,
                [BathSpec(0.2), BathSpec(0.2)],
                [beam_splitter(0.4, 0, 1), detuning(30.0, 0), detuning(30.0, 1)],
            )
        ),
        exchange_pair(0.25, 2.0, 1.0),
        squeezer_pair(1.0, 0.5),
    ]
    return StateSpace(
        drift=np.stack([m.drift for m in members]),
        input=np.stack([m.input for m in members]),
        n_modes=2,
    )


class TestStackedSpectralRoute:
    @pytest.mark.parametrize("build", [five_mode_stack, two_mode_stack])
    def test_members_have_the_bits_of_one_drift_calls(self, build, monkeypatch):
        ss = build()
        stack = budget_via_spectrum(ss, abs_tol=1e-7)
        for i, member in enumerate(ss.members()):
            one = budget_via_spectrum(member, abs_tol=1e-7)
            assert np.array_equal(stack.per_channel_w[i], one.per_channel_w)
            assert np.array_equal(stack.transfer[i], one.transfer)
            assert np.array_equal(stack.gammas[i], one.gammas)
            assert stack.member_passive[i] == one.passive
        # with no batch bound each round is one kernel call: the members
        # converge after different numbers of rounds (at abs_tol 1e-7 the
        # starting plan alone converges every member)
        monkeypatch.setattr(linalg, "QUADRATURE_BATCH_NODES", 10**9)
        rounds = []
        for member in ss.members():
            seen = capture_integrand(monkeypatch)
            budget_via_spectrum(member, abs_tol=QUADRATURE_ABS_TOL)
            rounds.append(len(seen["nodes"]))
        assert len(set(rounds)) > 1, rounds

    def test_stack_goes_through_the_lockstep_quadrature(self, monkeypatch):
        calls = []
        real = linalg.integrate_spectra

        def counting(f, abs_tol, poles):
            calls.append(np.shape(poles))
            return real(f, abs_tol, poles)

        monkeypatch.setattr(budget_module, "integrate_spectra", counting)
        budget_via_spectrum(five_mode_stack())
        assert calls == [(8, 10)]

    def test_no_integrand_call_exceeds_the_batch_bound(self, monkeypatch):
        sizes = []
        gk_panels = linalg._gk_panels

        def recorded(f, lo, hi):
            return gk_panels(lambda w: sizes.append(w.size) or f(w), lo, hi)

        monkeypatch.setattr(linalg, "_gk_panels", recorded)
        budget_via_spectrum(five_mode_stack())
        assert max(sizes) == linalg.QUADRATURE_BATCH_NODES
        assert len(sizes) > 2

    def test_peak_memory_is_one_bounded_batch(self):
        # one bounded batch of kernel values and the members' panel values,
        # not the kernel values of every frequency of the stack
        ss = five_mode_stack()
        n = ss.n_modes
        budget_via_spectrum(ss)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            budget_via_spectrum(ss)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        batch_bytes = linalg.QUADRATURE_BATCH_NODES * n * (2 * n) ** 2 * 16
        assert peak < 2 * batch_bytes

    def test_first_unstable_member_raises_before_any_panel(self, monkeypatch):
        ss = two_mode_stack()
        drift = ss.drift.copy()
        # the second and third members are pushed past marginal stability
        drift[1] += 3.0 * np.eye(4)
        drift[2] += 5.0 * np.eye(4)
        sizes = []
        gk_panels = linalg._gk_panels
        monkeypatch.setattr(
            linalg, "_gk_panels", lambda f, lo, hi: sizes.append(len(lo)) or gk_panels(f, lo, hi)
        )
        broken = StateSpace(drift=drift, input=ss.input, n_modes=2)
        with pytest.raises(StabilityError) as err:
            budget_via_spectrum(broken)
        top = max(np.linalg.eigvals(drift[1]), key=lambda z: z.real)
        assert err.value.eigenvalue == pytest.approx(top, abs=1e-6)
        assert sizes == []


def swap_blocks(n_modes):
    """Sigma_x, the permutation that swaps the a and a^dagger blocks."""
    eye = np.eye(n_modes)
    zero = np.zeros((n_modes, n_modes))
    return np.block([[zero, eye], [eye, zero]])


def first_member(f):
    """The integrand f(members, omegas) of integrate_spectra as a function
    of the frequencies alone, evaluated for member 0."""
    return lambda omegas: f(np.zeros(len(omegas), dtype=int), omegas)


def capture_integrand(monkeypatch):
    """Record every integrand budget_via_spectrum hands the quadrature, as
    a one-member function of the frequencies, with its options (member
    0's poles), and every frequency the quadrature passes it."""
    seen = {"integrands": [], "nodes": []}

    def capture(f, abs_tol, poles):
        seen["integrands"].append((first_member(f), {"abs_tol": abs_tol, "poles": poles[0]}))

        def recorded(members, w):
            seen["nodes"].append(w.copy())
            return f(members, w)

        return linalg.integrate_spectra(recorded, abs_tol, poles)

    monkeypatch.setattr(budget_module, "integrate_spectra", capture)
    return seen


class TestHalfLineRoute:
    @pytest.mark.parametrize("seed", range(6))
    def test_kernel_mirror_identity(self, seed, monkeypatch):
        # K_j(-w) = -Sigma_x conj(K_j(w)) Sigma_x on non-passive draws
        spec = random_network(np.random.default_rng(seed), nonpassive=True)
        ss = build_state_space(spec)
        seen = capture_integrand(monkeypatch)
        budget_via_spectrum(ss)
        kernel = seen["integrands"][0][0]
        sx = swap_blocks(ss.n_modes)
        omegas = np.array([1e-3, 0.05, 0.7, 3.0, 12.0, 400.0])
        positive, negative = kernel(omegas), kernel(-omegas)
        mirrored = -(sx @ positive.conj() @ sx)
        scale = np.abs(positive).max(axis=(1, 2, 3))
        assert np.all(
            np.abs(negative - mirrored).max(axis=(1, 2, 3)) <= 1e-14 * scale
        )

    @pytest.mark.parametrize(
        "ss", [five_mode_draw(), squeezer_pair(1.0, 0.5)], ids=["draw", "pair"]
    )
    def test_every_node_is_positive(self, ss, monkeypatch):
        seen = capture_integrand(monkeypatch)
        budget_via_spectrum(ss)
        assert seen["nodes"]
        assert min(float(w.min()) for w in seen["nodes"]) > 0.0

    def test_drift_spectrum_is_passed_as_the_poles(self, monkeypatch):
        ss = five_mode_draw()
        seen = capture_integrand(monkeypatch)
        budget_via_spectrum(ss)
        poles = seen["integrands"][0][1]["poles"]
        assert np.array_equal(
            np.sort_complex(poles), np.sort_complex(np.linalg.eigvals(ss.drift))
        )

    def test_half_line_is_integrated_at_half_the_tolerance(self, monkeypatch):
        seen = capture_integrand(monkeypatch)
        budget_via_spectrum(exchange_pair(0.7, 2.0, 0.3), abs_tol=1e-7)
        assert seen["integrands"][0][1]["abs_tol"] == 0.5e-7

    @pytest.mark.parametrize("which", ["drift", "input"])
    def test_non_symmetric_state_space_is_refused_before_any_panel(
        self, which, monkeypatch
    ):
        ss = squeezer_pair(1.0, 0.5)
        drift, inp = ss.drift.copy(), ss.input.copy()
        if which == "drift":
            drift[0, 1] += 1e-3  # its mirror entry conj(drift[2, 3]) is unchanged
        else:
            inp[2, 2] *= 1.5  # the a^dagger rate of mode 0 differs from its a rate
        seen = capture_integrand(monkeypatch)
        broken = StateSpace(drift=drift, input=inp, n_modes=2)
        with pytest.raises(ValidationError, match=f"{which} matrix is not conjugation"):
            budget_via_spectrum(broken)
        assert seen["integrands"] == []


    @pytest.mark.parametrize("which", ["drift", "input"])
    def test_non_finite_state_space_is_refused_before_any_panel(self, which, monkeypatch):
        ss = squeezer_pair(1.0, 0.5)
        matrices = {"drift": ss.drift.copy(), "input": ss.input.copy()}
        # entries that are each other's mirror images, so only NaN breaks it
        matrices[which][0, 0] = matrices[which][2, 2] = np.nan
        seen = capture_integrand(monkeypatch)
        broken = StateSpace(n_modes=2, **matrices)
        with pytest.raises(ValidationError, match=f"{which} matrix is not conjugation"):
            budget_via_spectrum(broken)
        assert seen["integrands"] == []


def five_edge_integrate(f, abs_tol, spectrum):
    """The half-line quadrature that the pole-graded plan replaced, kept
    here as the reference: 8 uniform panels in t plus edges at the
    centre, +-width and +-3 width of every eigenvalue (folded to
    |omega|), the same panels, refinement rule and panel cap, after the
    same up-front refusal of unresolvable poles."""
    linalg.require_resolved_poles(spectrum)
    edges = set(np.linspace(0.0, 1.0, 9))
    for lam in spectrum:
        center, width = -lam.imag, max(abs(lam.real), 1e-6)
        for k in (-3, -1, 0, 1, 3):
            t = linalg._omega_to_t(abs(center + k * width))
            edges.add(min(t, 1.0 - 1e-12))
    grid = np.array(sorted(edges))
    keep = np.diff(grid) > 1e-15
    lo, hi = grid[:-1][keep], grid[1:][keep]
    vals, errs = linalg._gk_panels(f, lo, hi)
    raw_tol = abs_tol * 2.0 * math.pi
    while True:
        total_err = float(np.max(sum(errs)))
        if total_err <= raw_tol:
            break
        worst = errs.reshape(len(lo), -1).max(axis=1)
        split = worst > raw_tol / (2.0 * len(lo))
        if not split.any():
            split[np.argmax(worst)] = True
        if len(lo) + int(split.sum()) > linalg.QUADRATURE_MAX_PANELS:
            raise NumericsError("quadrature did not converge")
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.stack([lo[split], mid], axis=1).reshape(-1)
        new_hi = np.stack([mid, hi[split]], axis=1).reshape(-1)
        new_vals, new_errs = linalg._gk_panels(f, new_lo, new_hi)
        lo = np.concatenate([lo[~split], new_lo])
        hi = np.concatenate([hi[~split], new_hi])
        vals = np.concatenate([vals[~split], new_vals])
        errs = np.concatenate([errs[~split], new_errs])
    return sum(vals) / (2.0 * math.pi)


def route_errors(ss, abs_tol, monkeypatch):
    """The entrywise error against compute_budget of the pole-graded
    route and of the five-edge reference (on the same kernel, at the
    same abs_tol / 2 per half-line entry), or the error each raised."""
    seen = capture_integrand(monkeypatch)
    direct = compute_budget(ss).per_channel_w

    def error(route):
        try:
            return float(np.abs(route() - direct).max())
        except BosonetError as exc:
            return exc

    def reference():
        kernel, options = seen["integrands"][0]
        half = five_edge_integrate(kernel, options["abs_tol"], options["poles"])
        return half - mirrored(half)

    one = error(lambda: budget_via_spectrum(ss, abs_tol).per_channel_w)
    if not seen["integrands"]:
        return one, one  # refused before the quadrature, as the reference is
    return one, error(reference)


def lorentzian(gamma, detuned):
    couplings = [detuning(detuned, 0)] if detuned else []
    return build_state_space(NetworkSpec(1, [BathSpec(gamma)], couplings))


def frame_state_space(gamma_m):
    from bosonet.scenarios import (
        ThreeModeParams,
        three_mode_physical_network,
        three_mode_transform,
    )

    p = ThreeModeParams(g_script=1.0, omega=1.0, kappa=1.0, gamma_m=gamma_m, xi=0.5)
    physical = build_state_space(three_mode_physical_network(p))
    return three_mode_transform(p.xi).apply_to_state_space(physical)


# the centres of three of the 8 initial panels in t, and detunings off them
PANEL_CENTRES = [t / (1.0 - t * t) for t in (1 / 16, 7 / 16, 15 / 16)]
STRESS = {
    **{
        f"lorentzian-{gamma:g}-{detuned:.4g}": (lorentzian, gamma, detuned)
        for gamma in (1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)
        for detuned in [0.0, 0.07, 3.3, 123.4] + PANEL_CENTRES
    },
    # narrow off-centre poles: the five-edge plan missed abs_tol with no
    # error at 3000 (by 5.1e-7) and 1388 (1.0e-6), the two-sided one at
    # 700 (2.9e-7); "lorentzian-1e-12-0" above was also missed (1.04e-7)
    **{
        f"lorentzian-{gamma:g}-{detuned:.4g}": (lorentzian, gamma, detuned)
        for gamma, detuned in (
            (1e-5, 700.0), (3.2e-4, 3000.0), (2.6e-5, 1388.0), (1e-9, -2.047)
        )
    },
    "exceptional-point": (exchange_pair, 0.25, 2.0, 1.0),
    "frame-1e-4": (frame_state_space, 1e-4),
    "frame-1e-6": (frame_state_space, 1e-6),
    "frame-1e-8": (frame_state_space, 1e-8),
}


@pytest.mark.parametrize("name", sorted(STRESS))
def test_pole_graded_route_is_never_silently_worse(name, monkeypatch):
    # Each route either refuses (NumericsError) or returns W. The
    # pole-graded route must be within abs_tol whenever it returns, and
    # may refuse only where the five-edge reference refused or missed
    # abs_tol.
    build, *args = STRESS[name]
    abs_tol = 1e-7
    one, two = route_errors(build(*args), abs_tol, monkeypatch)
    if isinstance(one, BosonetError):
        assert isinstance(one, NumericsError)
        assert isinstance(two, BosonetError) or two > abs_tol
    else:
        assert one <= abs_tol


class TestSumRules:
    def test_passive_network_passes_everything(self):
        report = verify_sum_rules(compute_budget(exchange_pair(0.5)))
        assert report.passed
        assert report.completeness_residual < 1e-10
        assert report.metric_residual < 1e-12
        assert max(report.gamma_rule_residuals) < 1e-10
        assert min(report.positivity_min_eigs) > -1e-10

    def test_gamma_rule_with_unequal_rates(self):
        budget = compute_budget(exchange_pair(1.0, 4.0, 1.0))
        report = verify_sum_rules(budget)
        assert report.passed
        fixed_point = budget.gammas @ budget.transfer
        assert np.abs(fixed_point - budget.gammas).max() < 1e-10

    def test_nonpassive_skips_passive_only_checks(self):
        report = verify_sum_rules(compute_budget(squeezer_pair()))
        assert report.gamma_rule_residuals is None
        assert report.positivity_min_eigs is None
        assert report.passed
        assert report.completeness_residual < 1e-10

    def test_metric_residual_uses_doubled_identity(self):
        ss = squeezer_pair(1.0, 0.5, 2.0, 0.7)
        report = verify_sum_rules(compute_budget(ss))
        assert report.metric_residual < 1e-10
        assert metric(ss.n_modes).shape == ss.drift.shape


def scalar_sum_rules(budget):
    """The single-budget sum-rule check that the stacked one replaced,
    kept here as the reference for its bits."""
    n = budget.n_modes
    completeness = float(np.abs(budget.per_channel_k.sum(axis=0) - np.eye(n)).max())
    metric_residual = float(np.abs(budget.per_channel_w.sum(axis=0) - metric(n)).max())
    gamma_rows = min_eigs = None
    ok = completeness <= SUM_RULE_TOL and metric_residual <= SUM_RULE_TOL
    if budget.passive:
        weighted = budget.gammas @ budget.transfer
        gamma_rows = tuple(float(abs(weighted[i] - budget.gammas[i])) for i in range(n))
        min_eigs = tuple(
            float(np.linalg.eigvalsh(budget.per_channel_k[i]).min()) for i in range(n)
        )
        ok = ok and max(gamma_rows) <= SUM_RULE_TOL and min(min_eigs) >= POSITIVITY_FLOOR
    return SumRuleReport(completeness, metric_residual, gamma_rows, min_eigs, ok)


class TestStackedSumRules:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stack_reports_are_the_member_reports(self, seed):
        rng = np.random.default_rng(seed)
        groups = {}
        for k in range(120):
            spec = random_network(rng, nonpassive=(k % 2 == 1))
            groups.setdefault(spec.n_modes, []).append(spec)
        for specs in groups.values():
            ss = build_state_spaces(specs)
            stack = compute_budget(ss)
            members = compute_budgets(ss)
            flags = [m.passive for m in members]
            assert any(flags) and not all(flags)  # a mixed stack
            assert stack.passive is False
            reports = verify_sum_rules(stack)
            assert reports == [verify_sum_rules(m) for m in members]
            assert reports == [scalar_sum_rules(m) for m in members]
            for report, passive in zip(reports, flags):
                assert (report.gamma_rule_residuals is None) == (not passive)
                assert report.passed

    def test_stack_of_passive_members_is_passive(self):
        ss = build_state_spaces([
            NetworkSpec(2, [BathSpec(1.0), BathSpec(g)], [beam_splitter(0.5, 0, 1)])
            for g in (1.0, 2.0, 3.0)
        ])
        stack = compute_budget(ss)
        assert stack.passive is True
        assert stack.member_passive.tolist() == [True, True, True]
        assert all(r.positivity_min_eigs is not None for r in verify_sum_rules(stack))

    def test_each_member_is_judged_on_its_own(self):
        baths = [BathSpec(1.0), BathSpec(1.0)]
        ss = build_state_spaces([
            NetworkSpec(2, baths, [beam_splitter(0.5, 0, 1)]),
            NetworkSpec(2, baths, [beam_splitter(1.0, 0, 1), two_mode_squeeze(0.5, 0, 1)]),
            NetworkSpec(2, baths, [beam_splitter(1.0, 0, 1)]),
        ])
        stack = compute_budget(ss)
        assert stack.member_passive.tolist() == [True, False, True]
        # push the last member's completeness off by 1e-6
        k = stack.per_channel_k.copy()
        k[2, 0, 0, 0] += 1e-6
        broken = budget_module.CommutatorBudget(
            per_channel_w=stack.per_channel_w, per_channel_k=k,
            transfer=stack.transfer, gammas=stack.gammas,
            member_passive=stack.member_passive,
        )
        assert [r.passed for r in verify_sum_rules(broken)] == [True, True, False]

    def test_nan_gamma_residual_fails(self):
        # a NaN in the last residual: max() over the old tuple returned the
        # first entry and passed
        budget = compute_budget(exchange_pair(0.5))
        transfer = budget.transfer.copy()
        transfer[0, 1] = np.nan
        broken = budget_module.CommutatorBudget(
            per_channel_w=budget.per_channel_w, per_channel_k=budget.per_channel_k,
            transfer=transfer, gammas=budget.gammas,
            member_passive=budget.member_passive,
        )
        report = verify_sum_rules(broken)
        assert report.gamma_rule_residuals[0] < 1e-12
        assert np.isnan(report.gamma_rule_residuals[1])
        assert not report.passed


def passive_pair_specs():
    """Two passive two-mode networks: their stacked budget has P = N = 2,
    so a single-budget check could read its leading axis as a mode."""
    return [
        NetworkSpec(2, [BathSpec(1.0), BathSpec(2.0)], [beam_splitter(0.7, 0, 1)]),
        NetworkSpec(2, [BathSpec(1.5), BathSpec(0.5)], [beam_splitter(0.3j, 0, 1)]),
    ]


def passive_pair_stack():
    return compute_budget(build_state_spaces(passive_pair_specs()))


class TestReciprocity:
    def test_a_stacked_budget_is_refused(self):
        with pytest.raises(DimensionError, match="verify_reciprocity.*compute_budgets"):
            verify_reciprocity(passive_pair_stack())
        # each member alone is reciprocal
        for member in compute_budgets(build_state_spaces(passive_pair_specs())):
            assert verify_reciprocity(member).max_residual < 1e-15

    def test_balanced_exchange_fluxes(self):
        budget = compute_budget(exchange_pair(0.5))
        report = verify_reciprocity(budget)
        assert report.passed
        flux = budget.gammas[:, None] * budget.transfer
        assert abs(flux[0, 1] - 0.25) < 1e-12
        assert abs(flux[1, 0] - 0.25) < 1e-12

    def test_two_mode_reciprocal_for_any_phase(self):
        budget = compute_budget(exchange_pair(0.8 * np.exp(1.3j), 3.0, 0.4))
        report = verify_reciprocity(budget)
        assert report.passed
        assert report.max_residual < 1e-10

    def test_single_mode_vacuous(self):
        budget = compute_budget(
            build_state_space(NetworkSpec(1, [BathSpec(1.0)]))
        )
        report = verify_reciprocity(budget)
        assert report.passed
        assert report.max_residual == 0.0

    def test_residual_matrix_antisymmetric_structure(self):
        spec = NetworkSpec(
            3,
            [BathSpec(1.0), BathSpec(2.0), BathSpec(0.5)],
            [
                beam_splitter(0.5, 0, 1),
                beam_splitter(0.3, 1, 2),
                beam_splitter(0.2, 0, 2),
            ],
        )
        report = verify_reciprocity(compute_budget(build_state_space(spec)))
        assert report.passed
        assert np.abs(report.residuals - report.residuals.T).max() < 1e-15


class TestIxBound:
    def test_balanced_point(self):
        report = two_mode_ix_bound(compute_budget(exchange_pair(0.5)))
        assert abs(report.i_x - 0.25) < 1e-12
        assert abs(report.i_x_reverse - 0.25) < 1e-12
        assert abs(report.bound - 0.5) < 1e-15
        assert abs(report.diagonal_sum - 1.5) < 1e-12
        assert report.slack > 0.0
        assert report.diagonal_slack >= -1e-12
        assert report.passed

    def test_strong_coupling_slack_is_small_but_positive(self):
        report = two_mode_ix_bound(compute_budget(exchange_pair(50.0)))
        assert abs(report.slack - 4.99950005e-5) < 1e-12
        assert report.passed

    def test_decoupled_modes(self):
        report = two_mode_ix_bound(compute_budget(exchange_pair(0.0)))
        assert report.i_x == 0.0
        assert abs(report.diagonal_sum - 2.0) < 1e-12
        assert report.passed

    def test_rejects_wrong_mode_count(self):
        budget = compute_budget(
            build_state_space(NetworkSpec(1, [BathSpec(1.0)]))
        )
        with pytest.raises(ApplicabilityError):
            two_mode_ix_bound(budget)

    def test_rejects_nonpassive(self):
        with pytest.raises(ApplicabilityError):
            two_mode_ix_bound(compute_budget(squeezer_pair()))

    def test_a_stacked_budget_is_refused(self):
        with pytest.raises(DimensionError, match="two_mode_ix_bound.*compute_budgets"):
            two_mode_ix_bound(passive_pair_stack())


class TestBudgetReport:
    def test_key_set_and_json_safety(self):
        import json

        report = budget_report(compute_budget(exchange_pair(0.5)))
        assert set(report) == {
            "I",
            "sum_rule_residual",
            "metric_residual",
            "gamma_rule_residuals",
            "reciprocity_residuals",
            "positivity_min_eigs",
            "passive",
        }
        json.dumps(report)
        assert report["passive"] is True
        assert report["I"][0][1] == pytest.approx(0.25, abs=1e-12)

    def test_nonpassive_report_has_nulls(self):
        report = budget_report(compute_budget(squeezer_pair()))
        assert report["gamma_rule_residuals"] is None
        assert report["positivity_min_eigs"] is None
        assert report["passive"] is False

    def test_a_stacked_budget_is_refused(self):
        with pytest.raises(DimensionError, match="budget_report.*compute_budgets"):
            budget_report(passive_pair_stack())
