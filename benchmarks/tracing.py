"""Spans around the package's public functions, recorded from outside.

The tracer replaces a public function by a wrapper in every `localtemp`
module that holds it, records one span per call (name, start, end, parent
span, operation id, optional note), and puts the originals back on exit.
Nothing under `src/` changes. Spans stay in memory; `summarize` turns them
into per-layer numbers at the end of a pass.

Self time is a span's duration minus the time its child spans cover. Calls
are single-threaded, so children never overlap.
"""
from __future__ import annotations

import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# (module, attribute path, span name). The span name is the layer metric's
# prefix; `module.attr` must be the function's defining place.
TARGETS = (
    ("localtemp.cli", "main", "cli.main"),
    ("localtemp.cli", "build_parser", "cli.build_parser"),
    ("localtemp.specfun", "integrate", "specfun.integrate"),
    ("localtemp.harmonic", "nmin", "harmonic.nmin"),
    ("localtemp.harmonic", "mean_energy_reduced", "harmonic.mean_energy_reduced"),
    ("localtemp.ising", "nmin", "ising.nmin"),
    ("localtemp.ising", "mean_energy_per_site", "ising.mean_energy_per_site"),
    ("localtemp.ising", "linearity_bound", "ising.linearity_bound"),
    ("localtemp.ising", "ground_energy_per_site", "ising.ground_energy_per_site"),
    ("localtemp.canonical", "build_report", "canonical.build_report"),
    ("localtemp.canonical", "rho_diag", "canonical.rho_diag"),
    ("localtemp.oracle", "build_hamiltonian", "oracle.build_hamiltonian"),
    ("localtemp.oracle", "DenseThermalSystem.solve", "oracle.DenseThermalSystem.solve"),
    ("localtemp.oracle", "product_basis", "oracle.product_basis"),
    ("localtemp.oracle", "w_a_distribution", "oracle.w_a_distribution"),
    ("localtemp.oracle", "product_statistics", "oracle.product_statistics"),
    ("localtemp.oracle", "rho_product_diag", "oracle.rho_product_diag"),
)

_CASE_TOL = 1e-12


def is_gapless(model) -> bool:
    """Whether the Ising dispersion closes on [0, pi] (README coupling table)."""
    k, l_ = model.k_param, model.l_param
    if abs(l_) <= _CASE_TOL:
        return abs(k) >= 1.0 - _CASE_TOL
    return abs(abs(k) - 1.0) <= _CASE_TOL


def _array_bytes(result) -> int:
    """Bytes of the distinct arrays handed back across an oracle boundary,
    computed from their shapes (temporaries inside the call are not seen)."""
    arrays = {}

    def visit(obj, depth: int) -> None:
        if isinstance(obj, np.ndarray):
            arrays[id(obj)] = obj.nbytes
        elif depth < 2 and isinstance(obj, (tuple, list)):
            for item in obj:
                visit(item, depth + 1)
        elif depth == 0 and hasattr(obj, "__dict__"):
            for item in vars(obj).values():
                visit(item, depth + 1)

    visit(result, 0)
    return sum(arrays.values())


_ARRAY_RESULTS = {
    "oracle.build_hamiltonian",
    "oracle.DenseThermalSystem.solve",
    "oracle.product_basis",
    "oracle.rho_product_diag",
}


def _note_for(span_name: str):
    if span_name == "ising.mean_energy_per_site":
        return lambda args, kwargs, result: is_gapless(
            args[1] if len(args) > 1 else kwargs["model"])
    if span_name in _ARRAY_RESULTS:
        return lambda args, kwargs, result: _array_bytes(result)
    return None


class Tracer:
    """Context manager that installs the wrappers and collects spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op, note]
        self._stack: list[int] = []
        self.op = -1
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, note = self.spans, self._stack, _note_for(name)
        count_evals = name == "specfun.integrate"

        def traced(*args, **kwargs):
            if count_evals:  # integrate(f, a, b, ...): count calls of f
                f, evals = args[0], [0]

                def counted(x):
                    evals[0] += 1
                    return f(x)

                args = (counted,) + args[1:]
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                if count_evals:
                    span[5] = evals[0]
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in sys.modules.items()
                   if key == "localtemp" or key.startswith("localtemp.")]
        for module_name, path, span_name in TARGETS:
            owner = sys.modules.get(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                continue  # the layer no longer exists; its metrics read 0
            if parents:  # a method: replace the class attribute only
                raw = owner.__dict__[attr]
                wrapper = self._wrap(span_name, getattr(owner, attr))
                setattr(owner, attr, staticmethod(wrapper))
                self._restore.append((owner, attr, raw))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def summarize(spans: list[list]) -> dict[str, LayerStats]:
    """Calls, inclusive time and self time per span name."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _op, _note in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, LayerStats] = defaultdict(LayerStats)
    for i, (name, start, end, _parent, _op, _note) in enumerate(spans):
        s = stats[name]
        s.calls += 1
        s.total_s += end - start
        s.self_s += end - start - child_time[i]
    return stats


def calls_under(spans: list[list], name: str, parent_name: str) -> int:
    """Number of `name` spans whose direct parent span is `parent_name`."""
    return sum(
        1 for s in spans if s[0] == name and s[3] >= 0 and spans[s[3]][0] == parent_name
    )
