"""Per-layer timing spans recorded from outside boselab.

``Tracer`` replaces every public function of the boselab layers with a
wrapper that records a span (layer, function, parent span, duration), in
the defining module and in every boselab module that imported the name
directly (``cli``, ``probes`` and ``approx`` do).  Spans stay in memory;
``layer_metrics`` reduces them to the per-layer numbers, and ``write``
saves them once the traced call is over.  Leaving the ``with`` block puts
every original function back.

A layer's self time is the time its spans cover minus the time covered by
their child spans.  Spans nest through one stack, so trace one thread only;
the benchmark runs every scenario with ``threads=1``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

LAYERS = ("lattice", "fock", "model", "evolve", "probes", "bounds", "approx", "cli")

MARK = "_scenariobench_span"

_PROJECTORS = {
    "fock.site_projector",
    "fock.region_total_projector",
    "fock.truncation_projector",
    "fock.number_operator",
}
_DENSE = {"evolve.heisenberg", "evolve.dense_expm", "evolve.interaction_picture_unitary"}
_STEPS = {"approx.local_step_unitary", "approx.quench_step_unitary"}


@dataclass
class Span:
    layer: str
    name: str
    parent: int | None
    start: float
    seconds: float = 0.0
    child_seconds: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def qualname(self) -> str:
        return f"{self.layer}.{self.name}"


def _public_functions(module) -> dict[str, object]:
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module.__name__
    }


class Tracer:
    """Context manager that records spans around every public boselab function."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _install(self) -> None:
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"boselab.{layer}")
            for name, fn in _public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        for modname, module in list(sys.modules.items()):
            if modname != "boselab" and not modname.startswith("boselab."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def _restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack
        qualname = f"{layer}.{name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(layer, name, stack[-1] if stack else None, time.perf_counter())
            spans.append(span)
            stack.append(len(spans) - 1)
            wants_report = kwargs.get("return_report", False)
            if qualname == "evolve.evolve_state":
                # the report is computed either way; ask for it to count steps
                kwargs["return_report"] = True
            try:
                result = fn(*args, **kwargs)
            finally:
                span.seconds = time.perf_counter() - span.start
                stack.pop()
                if span.parent is not None:
                    spans[span.parent].child_seconds += span.seconds
            return _observe(qualname, span, result, wants_report)

        setattr(traced, MARK, True)
        return traced

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines; objects kept for metrics are left out."""
        with Path(path).open("w") as fh:
            for span in self.spans:
                record = {
                    "layer": span.layer,
                    "name": span.name,
                    "parent": span.parent,
                    "start": span.start,
                    "seconds": span.seconds,
                    "self_seconds": span.seconds - span.child_seconds,
                    **{k: v for k, v in span.extra.items() if k != "basis"},
                }
                fh.write(json.dumps(record) + "\n")


def _observe(qualname: str, span: Span, result, wants_report: bool):
    """Copy the counts a metric needs from a traced function's result."""
    if qualname == "evolve.evolve_state":
        state, report = result
        span.extra["krylov_steps"] = report.steps if report.method == "krylov" else 0
        return result if wants_report else state
    if qualname == "fock.enumerate_basis":
        span.extra["dim"] = result.dim
        span.extra["basis"] = result
    elif qualname == "model.assemble_hamiltonian":
        span.extra["nnz"] = int(result.matrix.nnz)
    elif qualname in _DENSE:
        span.extra["dim"] = result.dim
    elif qualname == "approx.run_quench":
        span.extra["cost_states"] = int(result[1].cost_states)
    return result


def basis_bytes(basis) -> int:
    """Bytes held by a FockBasis: its arrays plus its containers and their items.

    Walks the dataclass fields, so it keeps working when the basis layout
    changes; the lattice is shared with the model and is not counted.
    """
    total = 0
    for name in type(basis).__dataclass_fields__:
        value = getattr(basis, name)
        if name == "lattice":
            continue
        if hasattr(value, "nbytes"):
            total += int(value.nbytes)
        elif isinstance(value, dict):
            total += sys.getsizeof(value) + sum(
                sys.getsizeof(k) + sys.getsizeof(v) for k, v in value.items()
            )
        elif isinstance(value, (list, tuple)):
            total += sys.getsizeof(value) + sum(sys.getsizeof(v) for v in value)
    return total


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced scenario call, as name -> (value, unit)."""

    def pick(names):
        return [s for s in spans if s.qualname in names]

    def covered(names) -> float:
        # outermost spans only, so a function that calls itself counts once
        return sum(
            s.seconds
            for s in spans
            if s.qualname in names
            and (s.parent is None or spans[s.parent].qualname not in names)
        )

    def layer_seconds(layer: str) -> float:
        return sum(
            s.seconds
            for s in spans
            if s.layer == layer and (s.parent is None or spans[s.parent].layer != layer)
        )

    def self_seconds(layer: str) -> float:
        return sum(s.seconds - s.child_seconds for s in spans if s.layer == layer)

    def extra(names, key: str) -> list:
        return [s.extra[key] for s in pick(names) if key in s.extra]

    bases = extra({"fock.enumerate_basis"}, "basis")
    return {
        "fock.enumerate_s": (covered({"fock.enumerate_basis"}), "s"),
        "fock.dim": (max(extra({"fock.enumerate_basis"}, "dim"), default=0), "count"),
        "fock.basis_bytes": (max(map(basis_bytes, bases), default=0), "B"),
        "fock.projector_s": (covered(_PROJECTORS), "s"),
        "model.assemble_calls": (len(pick({"model.assemble_hamiltonian"})), "count"),
        "model.assemble_s": (covered({"model.assemble_hamiltonian"}), "s"),
        "model.nnz": (max(extra({"model.assemble_hamiltonian"}, "nnz"), default=0), "count"),
        "model.local_operator_calls": (len(pick({"model.local_operator"})), "count"),
        "model.local_operator_s": (covered({"model.local_operator"}), "s"),
        "evolve.state_calls": (len(pick({"evolve.evolve_state"})), "count"),
        "evolve.state_s": (covered({"evolve.evolve_state"}), "s"),
        "evolve.krylov_steps": (sum(extra({"evolve.evolve_state"}, "krylov_steps")), "count"),
        "evolve.dense_calls": (len(pick(_DENSE)), "count"),
        "evolve.dense_s": (covered(_DENSE), "s"),
        "evolve.dense_dim_max": (max(extra(_DENSE, "dim"), default=0), "count"),
        "evolve.norm_s": (covered({"evolve.spectral_norm"}), "s"),
        "probes.self_s": (self_seconds("probes"), "s"),
        "probes.heisenberg_apply_calls": (len(pick({"probes.heisenberg_apply"})), "count"),
        "probes.ground_state_s": (covered({"probes.ground_state"}), "s"),
        "approx.steps": (len(pick(_STEPS)), "count"),
        "approx.step_build_s": (covered(_STEPS), "s"),
        "approx.self_s": (self_seconds("approx"), "s"),
        "approx.cost_states": (sum(extra({"approx.run_quench"}, "cost_states")), "count"),
        "cli.self_s": (self_seconds("cli"), "s"),
        "cli.emit_s": (covered({"cli.emit_report"}), "s"),
        "lattice.s": (layer_seconds("lattice"), "s"),
        "bounds.calls": (sum(1 for s in spans if s.layer == "bounds"), "count"),
        "bounds.s": (layer_seconds("bounds"), "s"),
    }
