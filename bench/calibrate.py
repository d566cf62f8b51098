"""A fixed calibration kernel that tracks the speed of the host.

The host's speed drifts: passes of the same commands in one run switched
between about 1.1 s and 2.2 s for stretches of 10 to 30 s, with CPU time
tracking wall time. ``run.py`` times this kernel before a pass's first
command and after each command, and scales the pass's times by
``REFERENCE_S`` over the mean of those times, so a timing reads as seconds
on a host where the kernel takes ``REFERENCE_S``. The kernel uses numpy
alone, never ``bosonet``, so a change to the library moves the scaled
times fully.

Its work mirrors the workloads' mix: many 16-dimensional Kronecker solves
and 4x4 spectra (per-call overhead, as in the grids), a few
144-dimensional solves, three 512-dimensional solves (cache-sized LAPACK
calls, as in the ``analyze`` ladder), and a pure-Python loop.
"""

from __future__ import annotations

import time

import numpy as np

# seconds the kernel took on the host the benchmark was sized on when
# that host was in its fast state
REFERENCE_S = 0.04

_ROUNDS = 3
_RNG = np.random.default_rng(20261017)
_EYE4, _EYE12 = np.eye(4), np.eye(12)
_SMALL = [_RNG.standard_normal((4, 4)) - 3.0 * _EYE4 for _ in range(48)]
_MEDIUM = [_RNG.standard_normal((12, 12)) - 5.0 * _EYE12 for _ in range(3)]
_LARGE = _RNG.standard_normal((512, 512)) + 30.0 * np.eye(512)
_RHS16, _RHS144, _RHS512 = np.ones(16), np.ones(144), np.ones(512)


def _kernel() -> float:
    acc = 0.0
    for a in _SMALL * _ROUNDS:
        k = np.kron(a, _EYE4) + np.kron(_EYE4, a)
        acc += np.linalg.solve(k, _RHS16)[0] + np.linalg.eigvals(a).real.sum()
    for a in _MEDIUM * _ROUNDS:
        k = np.kron(a, _EYE12) + np.kron(_EYE12, a)
        acc += np.linalg.solve(k, _RHS144)[0]
    for _ in range(_ROUNDS):
        acc += np.linalg.solve(_LARGE, _RHS512)[0]
    s = 0
    for i in range(30000 * _ROUNDS):
        s += i * i % 7
    return acc + s


def calibrate() -> float:
    """Wall seconds of one run of the kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start
