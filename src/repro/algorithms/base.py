"""Shared algorithm plumbing: specs, factories, and integer-log helpers.

An :class:`AlgorithmSpec` bundles a named process factory with
metadata. Factories receive a :class:`~repro.core.process.ProcessContext`
(node id, ``n``, ``Δ``, private RNG) and return the node's process —
so the *roles* of an experiment (which node is the global source, which
nodes form the local broadcast set ``B``) are baked into the spec by
the experiment code, never discovered from the topology by the process
itself (processes must not see the graph; Section 2 makes the
node-to-process assignment adversarial and unknown).

The spec also exposes :meth:`AlgorithmSpec.build_processes` and an
engine-ready :class:`~repro.adversaries.base.AlgorithmInfo` whose
``blueprint`` lets *oblivious* adversaries pre-simulate the algorithm
(Lemma 4.4's isolated broadcast functions need exactly this handle).

Builders whose protocol has a bank kernel also attach a
:class:`LaneRecipe`: the fast engine builds its lanes from the recipe
and the trial seed, and only the reference engine ever instantiates
the per-node processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping, Optional, Sequence

from repro.adversaries.base import AlgorithmInfo
from repro.core.errors import SpecError
from repro.core.process import Process, ProcessContext
from repro.core.rng import LazyRng

__all__ = [
    "AlgorithmSpec",
    "LaneRecipe",
    "ProcessFactory",
    "log2_ceil",
    "clamp_probability",
    "spec_source",
    "spec_broadcasters",
]

ProcessFactory = Callable[[ProcessContext], Process]


def log2_ceil(value: int) -> int:
    """``max(1, ⌈log2(value)⌉)`` — the paper's ``log n`` as an integer.

    The paper assumes ``n`` is a power of two and ``log`` is base 2;
    for other sizes we round up, and we floor the result at 1 so that
    probability ladders like ``{1/2, …, 2^{-log n}}`` are never empty.
    """
    if value < 1:
        raise ValueError(f"log2_ceil needs a positive value, got {value}")
    return max(1, math.ceil(math.log2(value))) if value > 1 else 1


def clamp_probability(p: float) -> float:
    """Clamp a computed probability into ``[0, 1]`` (guards float drift)."""
    return min(1.0, max(0.0, p))


@dataclass(frozen=True)
class LaneRecipe:
    """How a bank kernel builds this algorithm's lanes without processes.

    ``factory`` is the spec's ``functools.partial`` over the process
    class, for ``n`` nodes. ``kernel`` is the struct-of-arrays kernel
    class that mirrors that process, defined beside it in the same
    module; :func:`~repro.core.bankpath.build_bank_kernel` builds it
    with the partial's keyword arguments (roles, payload, schedule
    constants) as its :attr:`params`. Defaults a process resolves from
    its :class:`~repro.core.process.ProcessContext` (``n``, ``Δ``, the
    node's private stream) the kernel resolves from the trial's network
    and seed in exactly the same way.
    """

    factory: partial
    n: int
    kernel: type

    @property
    def params(self) -> Mapping[str, object]:
        """The keyword arguments the factory applies to every node."""
        return self.factory.keywords


@dataclass(frozen=True)
class AlgorithmSpec:
    """A named, role-bound algorithm ready to instantiate per node.

    Attributes
    ----------
    name:
        Human-readable identifier used in tables and traces.
    factory:
        Builds the node process for a given context.
    metadata:
        Free-form description (constants used, problem roles) surfaced
        to adversaries via :class:`AlgorithmInfo` — adversaries know
        "the algorithm being executed" in every model variant.
    lane:
        The bank-kernel recipe (see :meth:`kernel_lane`), or ``None``:
        specs without one (built by :func:`make_spec` or by third
        parties) run on the reference engine.
    """

    name: str
    factory: ProcessFactory
    metadata: dict = field(default_factory=dict)
    lane: Optional[LaneRecipe] = None

    def kernel_lane(self) -> Optional[LaneRecipe]:
        """The lane recipe, while it still describes :attr:`factory`.

        A copy with another factory (``dataclasses.replace``) may build
        other processes than the recipe mirrors, so it runs on the
        reference engine.
        """
        lane = self.lane
        return lane if lane is not None and lane.factory is self.factory else None

    def build_processes(
        self,
        n: int,
        max_degree: int,
        *,
        seed: int,
        rng_label: object = "process",
    ) -> list[Process]:
        """Instantiate one process per node with derived private RNGs.

        The per-node streams are lazy (:class:`~repro.core.rng.LazyRng`):
        derivation and Mersenne Twister seeding happen only for nodes
        that actually draw, with draws bit-identical to eager streams.
        Only the reference engine calls this; a kernel lane builds its
        state from the spec's :class:`LaneRecipe` instead, and derives
        any private stream it needs under the same ``(seed,
        (rng_label, node_id))`` labels.
        """
        factory = self.factory
        processes = []
        append = processes.append
        for node_id in range(n):
            append(
                factory(
                    ProcessContext(
                        node_id, n, max_degree, LazyRng(seed, (rng_label, node_id))
                    )
                )
            )
        return processes

    def build_process(self, ctx: ProcessContext) -> Process:
        """Instantiate the process for one explicit context (sub-simulations)."""
        return self.factory(ctx)

    def info(self) -> AlgorithmInfo:
        """Engine-ready algorithm description (handed to the adversary)."""
        return AlgorithmInfo(name=self.name, metadata=dict(self.metadata), blueprint=self.factory)


def role_set(nodes: Sequence[int]) -> frozenset[int]:
    """Normalize a role collection (source set / broadcaster set ``B``)."""
    return frozenset(int(u) for u in nodes)


def make_spec(
    name: str,
    factory: ProcessFactory,
    *,
    metadata: Optional[dict] = None,
) -> AlgorithmSpec:
    """Convenience constructor mirroring :class:`AlgorithmSpec`."""
    return AlgorithmSpec(name=name, factory=factory, metadata=metadata or {})


# ----------------------------------------------------------------------
# Role resolution for registered (ScenarioSpec-facing) factories
# ----------------------------------------------------------------------
def spec_source(ctx, source: Optional[int] = None) -> int:
    """A global algorithm's source: explicit param, else the problem's."""
    if source is not None:
        return int(source)
    problem_source = getattr(getattr(ctx, "problem", None), "source", None)
    if problem_source is None:
        raise SpecError(
            "global algorithm needs a source: pass params.source or pair it "
            "with a global-broadcast problem"
        )
    return int(problem_source)


def spec_broadcasters(ctx, broadcasters=None) -> frozenset[int]:
    """A local algorithm's set ``B``: explicit param, else the problem's."""
    if broadcasters is not None:
        return frozenset(int(b) for b in broadcasters)
    problem_b = getattr(getattr(ctx, "problem", None), "broadcasters", None)
    if problem_b is None:
        raise SpecError(
            "local algorithm needs broadcasters: pass params.broadcasters or "
            "pair it with a local-broadcast problem"
        )
    return frozenset(problem_b)
