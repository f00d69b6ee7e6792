"""Structured oblivious interference: cut jammers and moving fades.

Two oblivious adversaries that are *adversarial in structure* (they
target a cut or sweep a region) while remaining execution-independent:

* :class:`PeriodicCutJammer` — alternates between "all flaky links on"
  and "cut severed" on a fixed duty cycle. Against an algorithm whose
  broadcast probabilities are *predictable by the clock* this realizes
  the dense/sparse attack pattern; against permuted decay it is just
  noise — which is precisely the separation the Section 4 upper bounds
  claim.
* :class:`MovingRegionFade` — a disc of radius ``fade_radius`` sweeps
  across the embedding; nodes inside it lose their flaky edges
  (node-level fade). Models a moving interference source / weather
  cell over a geographic deployment.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.adversaries.base import (
    AdversaryClass,
    AlgorithmInfo,
    LinkProcess,
    ObliviousView,
    RoundTopology,
)
from repro.core.errors import AdversaryUsageError
from repro.graphs.dual_graph import DualGraph

__all__ = ["PeriodicCutJammer", "MovingRegionFade"]


class PeriodicCutJammer(LinkProcess):
    """Square-wave between full ``G'`` and a severed cut.

    Parameters
    ----------
    side_mask:
        Bitmask of one side of the cut to sever during "sparse" phases.
    period:
        Length of the full cycle in rounds.
    dense_rounds:
        How many rounds per cycle run with all links on; the remaining
        ``period - dense_rounds`` rounds sever the cut.
    phase_offset:
        Shifts the cycle start (lets sweeps decorrelate the jammer from
        algorithm phase boundaries).
    """

    adversary_class = AdversaryClass.OBLIVIOUS

    def __init__(self, side_mask: int, period: int, dense_rounds: int, *, phase_offset: int = 0) -> None:
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        if not 0 <= dense_rounds <= period:
            raise ValueError("dense_rounds must lie in [0, period]")
        self.side_mask = side_mask
        self.period = period
        self.dense_rounds = dense_rounds
        self.phase_offset = phase_offset

    def start(self, network: DualGraph, algorithm: AlgorithmInfo, rng) -> None:
        super().start(network, algorithm, rng)
        self._dense = RoundTopology.all_links(network)
        self._sparse = RoundTopology.without_cut(network, self.side_mask, label="jam-cut")

    def choose_topology(self, view: ObliviousView) -> RoundTopology:
        offset = (view.round_index + self.phase_offset) % self.period
        return self._dense if offset < self.dense_rounds else self._sparse

    def next_boundary(self, round_index: int) -> Optional[int]:
        # Pure square wave over two precomputed topologies.
        if self.dense_rounds in (0, self.period):
            return None  # degenerate duty cycle: one topology forever
        offset = (round_index + self.phase_offset) % self.period
        if offset < self.dense_rounds:
            return round_index + (self.dense_rounds - offset)
        return round_index + (self.period - offset)


class MovingRegionFade(LinkProcess):
    """A fading disc sweeping left-to-right across an embedded graph.

    The disc's center moves ``speed`` units per round along the x-axis,
    wrapping around the bounding box; nodes within ``fade_radius`` of
    the center are faded (lose all flaky edges) that round. Requires an
    embedded network (geographic graphs).
    """

    adversary_class = AdversaryClass.OBLIVIOUS

    def __init__(self, fade_radius: float = 1.5, speed: float = 0.25) -> None:
        if fade_radius < 0:
            raise ValueError("fade_radius must be non-negative")
        if speed <= 0:
            raise ValueError("speed must be positive")
        self.fade_radius = fade_radius
        self.speed = speed

    def start(self, network: DualGraph, algorithm: AlgorithmInfo, rng) -> None:
        super().start(network, algorithm, rng)
        if network.embedding is None:
            raise AdversaryUsageError("MovingRegionFade requires an embedded network")
        xs = [p[0] for p in network.embedding]
        ys = [p[1] for p in network.embedding]
        self._x_min, self._x_max = min(xs), max(xs)
        self._y_mid = (min(ys) + max(ys)) / 2.0
        self._span = max(self._x_max - self._x_min, 1e-9) + 2 * self.fade_radius

    def choose_topology(self, view: ObliviousView) -> RoundTopology:
        cx = self._x_min - self.fade_radius + (view.round_index * self.speed) % self._span
        y_mid, radius = self._y_mid, self.fade_radius
        active = np.array(
            [math.hypot(x - cx, y - y_mid) > radius for x, y in self.network.embedding],
            dtype=bool,
        )
        return RoundTopology.from_active_flaky_nodes(self.network, active, label="moving-fade")

    def next_boundary(self, round_index: int) -> Optional[int]:
        # The disc moves every round: a fresh mask every call.
        return round_index + 1


# ----------------------------------------------------------------------
# Declarative ScenarioSpec registrations
# ----------------------------------------------------------------------
from repro.registry import cut_mask_for, register_adversary  # noqa: E402


@register_adversary("cut-jammer")
def _spec_cut_jammer(
    ctx, *, period: int, dense_rounds: int, side="first-half", phase_offset: int = 0
) -> PeriodicCutJammer:
    return PeriodicCutJammer(
        cut_mask_for(ctx, side),
        int(period),
        int(dense_rounds),
        phase_offset=int(phase_offset),
    )


@register_adversary("moving-fade")
def _spec_moving_fade(
    ctx, *, fade_radius: float = 1.5, speed: float = 0.25
) -> MovingRegionFade:
    return MovingRegionFade(fade_radius=float(fade_radius), speed=float(speed))
