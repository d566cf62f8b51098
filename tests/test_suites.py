"""Verdicts and work of the seeded verification suites."""

import numpy as np

from bosonet import suites
from bosonet.suites import DEFAULT_SEED, SUITES, suite_boundary_flip, suite_ix_bound


def suite_rng(suite):
    # the generator run_all hands the suite at the default seed
    return np.random.default_rng([DEFAULT_SEED, SUITES.index(suite)])


def test_verdicts_are_python_bools():
    # a failing slack check compares numpy floats; json needs a Python bool
    for tol in (1e-300, -1.0):
        result = suite_ix_bound(suite_rng(suite_ix_bound), tol)
        assert type(result.passed) is bool
    assert result.passed is False


def test_boundary_flip_computes_one_frame_budget_per_draw(monkeypatch):
    calls = []
    real_budget = suites.three_mode_budget

    def counting(p):
        calls.append(p)
        return real_budget(p)

    monkeypatch.setattr(suites, "three_mode_budget", counting)
    result = suite_boundary_flip(suite_rng(suite_boundary_flip))
    assert result.passed is True
    assert result.stats["count"] == 10
    assert len(calls) == 10
