"""Per-layer spans, recorded from outside the program.

:class:`LayerTracer` wraps each layer's public entry points at their
module boundary (a ``setattr`` on the module, class or registry object
the caller looks the name up on) and restores them on exit. Nothing
under ``src/`` is edited. Every wrapped call is one span; spans nest
through a stack, so each layer's *self* time excludes the layer spans
it encloses (``api.spec.build`` excludes ``graphs.build``, for
example). The engines' own ``repro.obs`` recorder is enabled alongside
for the round-loop phases and counters.

A target that no longer exists (code moved by a later change) is
skipped and listed in :attr:`LayerTracer.missing`, so the benchmark
keeps running and the affected metrics read 0.
"""

from __future__ import annotations

import importlib
from time import perf_counter_ns

#: (layer name, module, attribute path). The attribute path is looked
#: up from the module; its last component is what gets replaced.
TARGETS = (
    ("api.spec.build", "repro.api.spec", "build_prepared_trial"),
    ("graphs.build", "repro.registry", "GRAPHS.build"),
    ("problems.build", "repro.registry", "PROBLEMS.build"),
    ("algorithms.build_processes", "repro.algorithms.base", "AlgorithmSpec.build_processes"),
    ("core.bankpath.init", "repro.core.bankpath", "build_bank_kernel"),
    ("core.bankpath.init", "repro.core.bankpath", "BankRadioNetworkEngine.__init__"),
    ("core.bankpath.run", "repro.core.bankpath", "run_bank_batch"),
    ("core.engine.init", "repro.analysis.runner", "create_engine"),
    ("mac.oracle", "repro.mac.oracle", "simulate_oracle"),
)

#: The workloads' problem classes; their ``make_observer`` is wrapped
#: as ``problems.observer`` (each subclass defines its own).
OBSERVER_MODULES = (
    ("repro.problems.local_broadcast", "LocalBroadcastProblem"),
    ("repro.problems.multi_message", "MultiMessageProblem"),
)

LAYERS = (
    "api.spec.build",
    "graphs.build",
    "problems.build",
    "problems.observer",
    "algorithms.build_processes",
    "core.bankpath.init",
    "core.bankpath.run",
    "core.engine.init",
    "core.engine.run",
    "mac.oracle",
)

_ABSENT = object()


class LayerTracer:
    """Span accounting plus the install/restore of the wrappers.

    Use as a context manager around the work to trace; totals
    accumulate across every ``with`` block until :meth:`reset`.
    """

    def __init__(self) -> None:
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.outer_ns = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.outer_ns = 0

    # -- span accounting ------------------------------------------------
    def wrap(self, layer: str, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0)
            started = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - started
                children = stack.pop()
                self.self_ns[layer] += elapsed - children
                self.calls[layer] += 1
                if stack:
                    stack[-1] += elapsed
                else:
                    self.outer_ns += elapsed

        return traced

    def _engine_factory(self, create_engine):
        """``create_engine`` whose engines' ``run`` is a span too."""
        wrapped = self.wrap("core.engine.init", create_engine)

        def factory(*args, **kwargs):
            engine = wrapped(*args, **kwargs)
            engine.run = self.wrap("core.engine.run", engine.run)
            return engine

        return factory

    # -- install / restore ----------------------------------------------
    def _replace(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, vars(owner).get(name, _ABSENT)))
        setattr(owner, name, value)

    def __enter__(self) -> "LayerTracer":
        for layer, module_name, path in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *parents, name = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            if layer == "core.engine.init":
                self._replace(owner, name, self._engine_factory(original))
            else:
                self._replace(owner, name, self.wrap(layer, original))
        for module_name, class_name in OBSERVER_MODULES:
            try:
                cls = getattr(importlib.import_module(module_name), class_name)
                original = vars(cls)["make_observer"]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{class_name}.make_observer")
                continue
            self._replace(cls, "make_observer", self.wrap("problems.observer", original))
        self.missing = sorted(set(self.missing))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            if original is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
