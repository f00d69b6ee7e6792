"""Degenerate (non-adaptive, non-random) link processes.

These pin the dual graph model to its endpoints and are the reference
points of Figure 1's last row:

* :class:`NoFlakyLinks` — no unreliable edge ever fires: the execution
  is exactly the static protocol model on ``G``.
* :class:`AllFlakyLinks` — every unreliable edge always fires: the
  static protocol model on ``G'``.
* :class:`FixedFlakyLinks` — an arbitrary fixed subset, held for the
  whole execution.
* :class:`AlternatingLinks` — deterministically alternates between two
  topologies on a fixed period (the simplest "dynamic" adversary; good
  for tests that need link churn without randomness).

All are oblivious: their behavior is a function of the round index
alone.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.adversaries.base import (
    AdversaryClass,
    AlgorithmInfo,
    LinkProcess,
    ObliviousView,
    RoundTopology,
)
from repro.graphs.dual_graph import DualGraph, Edge

__all__ = ["NoFlakyLinks", "AllFlakyLinks", "FixedFlakyLinks", "AlternatingLinks"]


class NoFlakyLinks(LinkProcess):
    """Static protocol model on ``G``: the adversary withholds every flaky edge."""

    adversary_class = AdversaryClass.OBLIVIOUS

    def start(self, network: DualGraph, algorithm: AlgorithmInfo, rng) -> None:
        super().start(network, algorithm, rng)
        self._topology = RoundTopology.reliable_only(network)

    def choose_topology(self, view: ObliviousView) -> RoundTopology:
        return self._topology

    def next_boundary(self, round_index: int) -> Optional[int]:
        return None  # one cached topology, forever


class AllFlakyLinks(LinkProcess):
    """Static protocol model on ``G'``: every flaky edge fires every round."""

    adversary_class = AdversaryClass.OBLIVIOUS

    def start(self, network: DualGraph, algorithm: AlgorithmInfo, rng) -> None:
        super().start(network, algorithm, rng)
        self._topology = RoundTopology.all_links(network)

    def choose_topology(self, view: ObliviousView) -> RoundTopology:
        return self._topology

    def next_boundary(self, round_index: int) -> Optional[int]:
        return None  # one cached topology, forever


class FixedFlakyLinks(LinkProcess):
    """A fixed flaky-edge subset, constant across the execution."""

    adversary_class = AdversaryClass.OBLIVIOUS

    def __init__(self, flaky_edges: Iterable[Edge]) -> None:
        self._edges = list(flaky_edges)

    def start(self, network: DualGraph, algorithm: AlgorithmInfo, rng) -> None:
        super().start(network, algorithm, rng)
        self._topology = RoundTopology.from_flaky_edges(
            network, self._edges, label="fixed-subset"
        )

    def choose_topology(self, view: ObliviousView) -> RoundTopology:
        return self._topology

    def next_boundary(self, round_index: int) -> Optional[int]:
        return None  # one cached topology, forever


class AlternatingLinks(LinkProcess):
    """Deterministic rotation through a cycle of topologies.

    ``phase_lengths[i]`` rounds of ``topologies[i]``, then the next,
    wrapping around. With two entries this is a square-wave link
    pattern; the default alternates all-on / all-off every round.
    """

    adversary_class = AdversaryClass.OBLIVIOUS

    def __init__(self, phase_lengths: Sequence[int] = (1, 1)) -> None:
        if not phase_lengths or any(p < 1 for p in phase_lengths):
            raise ValueError("phase_lengths must be positive")
        self._phase_lengths = list(phase_lengths)

    def start(self, network: DualGraph, algorithm: AlgorithmInfo, rng) -> None:
        super().start(network, algorithm, rng)
        self._topologies = [
            RoundTopology.all_links(network),
            RoundTopology.reliable_only(network),
        ]
        self._period = sum(self._phase_lengths)

    def choose_topology(self, view: ObliviousView) -> RoundTopology:
        offset = view.round_index % self._period
        for i, length in enumerate(self._phase_lengths):
            if offset < length:
                return self._topologies[i % len(self._topologies)]
            offset -= length
        return self._topologies[0]  # pragma: no cover - unreachable

    def next_boundary(self, round_index: int) -> Optional[int]:
        # Pure cycle over precomputed topologies: the masks next change
        # at the end of the phase containing this round.
        offset = round_index % self._period
        for length in self._phase_lengths:
            if offset < length:
                return round_index + (length - offset)
            offset -= length
        return round_index + 1  # pragma: no cover - unreachable


# ----------------------------------------------------------------------
# Declarative ScenarioSpec registrations
# ----------------------------------------------------------------------
from repro.registry import register_adversary  # noqa: E402


@register_adversary("none")
def _spec_none(ctx) -> NoFlakyLinks:
    return NoFlakyLinks()


@register_adversary("all")
def _spec_all(ctx) -> AllFlakyLinks:
    return AllFlakyLinks()


@register_adversary("alternating")
def _spec_alternating(ctx, *, phase_lengths=(1, 1)) -> AlternatingLinks:
    return AlternatingLinks(tuple(int(p) for p in phase_lengths))


@register_adversary("fixed-flaky")
def _spec_fixed_flaky(ctx, *, edges) -> FixedFlakyLinks:
    return FixedFlakyLinks([(int(u), int(v)) for u, v in edges])
