"""Outside-in tracing of the library's public functions.

``Tracer.install`` wraps every public function of the layer modules and
puts the wrapper under every name a ``bosonet`` module holds for the
function, including re-exports in ``bosonet/__init__``, imports in
``cli`` and other layers, and tuples such as ``suites.SUITES``: callers
bind those names at import, so patching the defining module alone
would miss them. ``uninstall`` puts every original back.

Each wrapper records a span: its duration is added to the function's
busy time and to the parent span's child time, and busy minus child
time is the function's self time. Spans are folded into a per-name
table as they close, so memory stays flat over a long run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from types import FunctionType

LAYERS = ("linalg", "network", "budget", "steady", "scenarios", "suites")


def span_name(module: str, attr: str) -> str:
    if module == "suites" and attr.startswith("suite_"):
        return "suites." + attr[len("suite_"):]
    return f"{module}.{attr}"


def lyapunov_bucket(dim: int) -> str:
    if dim <= 6:
        return "dim_le6"
    if dim >= 16:
        return "dim_ge16"
    return "dim_8to14"


class Tracer:
    def __init__(self):
        self.table: dict[str, list] = {}  # name -> [calls, busy_s, self_s]
        self.counters: dict[str, int] = {}
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------
    def _close(self, name: str, duration: float, child: float) -> None:
        if self._stack:
            self._stack[-1][0] += duration
        rec = self.table.get(name)
        if rec is None:
            rec = self.table[name] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - child

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            self._close(name, duration, frame[0])

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def take(self) -> tuple[dict, dict]:
        """Return and reset the spans and counters gathered so far."""
        table, counters = self.table, self.counters
        self.table, self.counters = {}, {}
        return table, counters

    # -- wrappers ----------------------------------------------------
    def _wrap(self, name: str, fn):
        # The first parameter is read (solve_lyapunov's matrix) or swapped
        # for a counting wrapper (the integrand, the objective), whether it
        # is passed by position or by keyword.
        first = next(iter(inspect.signature(fn).parameters))

        def split(args, kwargs):
            return (args[0], args[1:], kwargs) if args else (kwargs.pop(first), args, kwargs)

        if name == "linalg.solve_lyapunov":
            def wrapper(*args, **kwargs):
                a, rest, kw = split(args, dict(kwargs))
                dim = len(a)
                self.count("linalg.solve_lyapunov.computed_bytes", 16 * dim**4)
                return self.call(f"{name}.{lyapunov_bucket(dim)}", fn, a, *rest, **kw)
        elif name == "linalg.integrate_spectrum":
            def wrapper(*args, **kwargs):
                f, rest, kw = split(args, dict(kwargs))

                def integrand(omegas):
                    self.count("linalg.integrate_spectrum.freq_evals", len(omegas))
                    return f(omegas)
                return self.call(name, fn, integrand, *rest, **kw)
        elif name == "linalg.golden_section_max":
            def wrapper(*args, **kwargs):
                objective, rest, kw = split(args, dict(kwargs))

                def counted(x):
                    self.count("linalg.golden_section_max.fn_evals", 1)
                    return objective(x)
                return self.call(name, fn, counted, *rest, **kw)
        else:
            def wrapper(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)
        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"bosonet.{layer}")
            for attr, obj in vars(module).items():
                if (
                    isinstance(obj, FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    wrappers[obj] = self._wrap(span_name(layer, attr), obj)
        try:
            for modname, module in list(sys.modules.items()):
                if modname != "bosonet" and not modname.startswith("bosonet."):
                    continue
                for attr, value in list(vars(module).items()):
                    if isinstance(value, FunctionType) and value in wrappers:
                        replacement = wrappers[value]
                    elif isinstance(value, tuple) and any(
                        isinstance(v, FunctionType) and v in wrappers for v in value
                    ):
                        replacement = tuple(
                            wrappers.get(v, v) if isinstance(v, FunctionType) else v
                            for v in value
                        )
                    else:
                        continue
                    self._patched.append((module, attr, value))
                    setattr(module, attr, replacement)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)
