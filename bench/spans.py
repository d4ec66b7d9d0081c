"""In-memory spans around cohstat's public functions, recorded from outside.

:func:`install` rebinds every module-level alias of each traced function
(``fock`` and ``spin`` import ``matrix_exponential`` by name, ``cli``
imports ``pv_measure`` names) and the traced methods on their classes to a
wrapper that records a span: name, parent span, start, end, and the bytes
of the returned arrays.  The program itself is not instrumented.  Spans of
one CLI call are folded into per-name totals when the call returns.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time

import numpy as np

# (span name, owner, attribute); the owner is a module or a class inside one.
TRACED = (
    ("linops.matrix_exponential", "cohstat.linops", "matrix_exponential"),
    ("linops.hermitian_eigendecomposition", "cohstat.linops", "hermitian_eigendecomposition"),
    ("fock.build_ladder", "cohstat.fock", "build_ladder"),
    ("fock.bch_check", "cohstat.fock", "bch_check"),
    ("fock.displacement_translation_check", "cohstat.fock", "displacement_translation_check"),
    ("fock.coherent_amplitudes", "cohstat.fock", "coherent_amplitudes"),
    ("fock.coherent_closed_form", "cohstat.fock", "coherent_closed_form"),
    ("fock.poisson_pmf", "cohstat.fock", "poisson_pmf"),
    ("spin.build_spin_rep", "cohstat.spin", "build_spin_rep"),
    ("spin.coherent_amplitudes", "cohstat.spin", "coherent_amplitudes"),
    ("spin.gauss_decomposition_check", "cohstat.spin", "gauss_decomposition_check"),
    ("spin.binomial_pmf", "cohstat.spin", "binomial_pmf"),
    ("inference.quadrature", "cohstat.inference", "plane_quadrature"),
    ("inference.quadrature", "cohstat.inference", "sphere_quadrature"),
    ("inference.infer_via_pov", "cohstat.inference", "infer_via_pov"),
    ("inference.amplitude_at", "cohstat.inference:FockCoherentFamily", "amplitude_at"),
    ("inference.amplitude_at", "cohstat.inference:SpinCoherentFamily", "amplitude_at"),
    ("inference.resolution_of_identity_check", "cohstat.inference", "resolution_of_identity_check"),
    ("inference.analytic_posterior", "cohstat.inference", "analytic_poisson_posterior"),
    ("inference.analytic_posterior", "cohstat.inference", "analytic_binomial_posterior"),
    ("inference.credible_interval", "cohstat.inference", "credible_interval"),
    ("pv_measure.VectorState", "cohstat.pv_measure:VectorState", "__init__"),
    ("pv_measure.born_probabilities", "cohstat.pv_measure", "born_probabilities"),
    ("cli.main", "cohstat.cli", "main"),
)

_AMPLITUDE_TABLES = ("fock.coherent_amplitudes", "spin.coherent_amplitudes")


@dataclasses.dataclass(slots=True)
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    nbytes: int = 0
    nodes: int = 0


@dataclasses.dataclass
class Totals:
    calls: int = 0
    self_s: float = 0.0
    nbytes: int = 0
    nodes: int = 0


def result_nbytes(value) -> int:
    """Bytes of the arrays in a returned value (arrays, dataclasses of arrays, tuples)."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(result_nbytes(item) for item in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return sum(result_nbytes(getattr(value, f.name)) for f in dataclasses.fields(value))
    return 0


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append(span.end - span.start - covered)
    return result


class Tracer:
    """Spans of the current call, plus per-name totals of the calls folded so far."""

    def __init__(self):
        self.spans: list[Span] = []
        self.totals: dict[str, Totals] = {}
        self.useful_bytes = 0
        self.computed_bytes = 0
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_ids, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, open_ids[-1] if open_ids else None, 0.0)
            open_ids.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                open_ids.pop()
            span.nbytes = result_nbytes(result)
            if hasattr(result, "angle_nodes"):
                span.nodes = result.principal_nodes.size * result.angle_nodes.size
            return result

        return traced

    def fold(self) -> None:
        """Add the recorded spans to the totals and forget them."""
        table_bytes: dict[int, int] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            totals = self.totals.setdefault(span.name, Totals())
            totals.calls += 1
            totals.self_s += own
            totals.nbytes += span.nbytes
            totals.nodes += span.nodes
            if span.name in _AMPLITUDE_TABLES and span.parent is not None:
                table_bytes[span.parent] = table_bytes.get(span.parent, 0) + span.nbytes
        for index, span in enumerate(self.spans):
            if span.name == "inference.amplitude_at":
                # without an amplitude-table child the span computed only what it returned
                self.useful_bytes += span.nbytes
                self.computed_bytes += table_bytes.get(index, span.nbytes)
        self.spans.clear()


def install(tracer: Tracer):
    """Wrap every traced function and method; returns a callable that undoes it."""
    modules = [m for name, m in list(sys.modules.items()) if name == "cohstat" or name.startswith("cohstat.")]
    undo = []
    for name, owner_path, attribute in TRACED:
        module_name, _, class_name = owner_path.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
            targets = [owner]
        else:
            targets = modules
        original = vars(owner)[attribute]
        wrapper = tracer.wrap(name, original)
        for target in targets:
            for alias, value in list(vars(target).items()):
                if value is original:
                    undo.append((target, alias, original))
                    setattr(target, alias, wrapper)

    def uninstall():
        for target, alias, original in reversed(undo):
            setattr(target, alias, original)

    return uninstall
