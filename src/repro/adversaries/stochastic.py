"""Stochastic (nature-like) oblivious link processes.

The paper motivates the dual graph model with real-network measurements
— "changes to the environment, interference from unrelated protocols
... and even shifting weather conditions" — and cites the β-factor
study of link *burstiness* [18]. These link processes model that
environmental behavior:

* :class:`BernoulliEdgeLinks` — each flaky edge fires independently
  each round with probability ``p_up`` (the memoryless baseline the
  paper dismisses as too benign — included as exactly that baseline).
* :class:`GilbertElliottEdgeLinks` — each flaky edge follows a two-state
  Gilbert–Elliott Markov chain (good ↔ bad), producing the correlated
  bursts observed in [18].
* :class:`BernoulliNodeFade` / :class:`GilbertElliottNodeFade` — the
  same processes at node granularity: a faded node loses *all* its
  flaky edges at once (a node walking behind a wall), which also keeps
  per-round cost ``O(n)`` on dense graphs.

All are oblivious: their state evolves from a private RNG fixed at
``start`` and the round clock, never from the execution. (Lazy
evaluation is an implementation detail — behavior is a deterministic
function of ``(seed, round)``, which is exactly the "decides everything
upfront" entitlement.)

**Stream contract.** Each process draws one uniform per element (node,
or flaky edge in sorted order) per round, and the Markov chains one
per element at ``start`` for their initial state; a degenerate
``p_up`` draws nothing. The draws come from the adversary's own
MT19937 stream — the ``random.Random`` handed to ``start`` — continued
as a NumPy generator (:func:`~repro.core.rng.numpy_continuation`), so
one ``random(m)`` call per round yields exactly the ``m`` successive
``random()`` values a per-element loop over that ``random.Random``
would, and states are kept as boolean vectors.
"""

from __future__ import annotations

import random
from itertools import compress

import numpy as np

from repro.adversaries.base import (
    AdversaryClass,
    AlgorithmInfo,
    LinkProcess,
    ObliviousView,
    RoundTopology,
)
from repro.core.rng import numpy_continuation
from repro.graphs.dual_graph import DualGraph, Edge

__all__ = [
    "BernoulliEdgeLinks",
    "GilbertElliottEdgeLinks",
    "BernoulliNodeFade",
    "GilbertElliottNodeFade",
]


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


class _StochasticLinkProcess(LinkProcess):
    """An oblivious link process drawing under the stream contract above."""

    adversary_class = AdversaryClass.OBLIVIOUS

    def start(self, network: DualGraph, algorithm: AlgorithmInfo, rng: random.Random) -> None:
        super().start(network, algorithm, rng)
        self._uniforms = numpy_continuation(rng).random


class BernoulliEdgeLinks(_StochasticLinkProcess):
    """Independent per-edge, per-round link availability.

    Cost is ``O(|E' \\ E|)`` per round; intended for sparse flaky sets
    (geographic grey zones, not complete-bipartite lower-bound graphs —
    use the node-fade variants there).
    """

    def __init__(self, p_up: float) -> None:
        _check_probability("p_up", p_up)
        self.p_up = p_up

    def start(self, network: DualGraph, algorithm: AlgorithmInfo, rng: random.Random) -> None:
        super().start(network, algorithm, rng)
        self._flaky_edges: list[Edge] = sorted(network.flaky_edges())
        self._all = RoundTopology.all_links(network)
        self._none = RoundTopology.reliable_only(network)

    def choose_topology(self, view: ObliviousView) -> RoundTopology:
        if self.p_up >= 1.0:
            return self._all
        if self.p_up <= 0.0:
            return self._none
        up = self._uniforms(len(self._flaky_edges)) < self.p_up
        active = compress(self._flaky_edges, up.tolist())
        return RoundTopology.from_flaky_edges(self.network, active, label="bernoulli-edges")

    def next_boundary(self, round_index: int) -> int | None:
        if self.p_up >= 1.0 or self.p_up <= 0.0:
            return None  # degenerate coin: one cached topology, no draws
        return round_index + 1  # fresh per-edge draws every round


class GilbertElliottEdgeLinks(_StochasticLinkProcess):
    """Per-edge two-state Markov (Gilbert–Elliott) bursty links.

    Each flaky edge is *good* (up) or *bad* (down); per round a good
    edge breaks with ``p_fail`` and a bad edge heals with ``p_recover``.
    The stationary up-fraction is ``p_recover / (p_fail + p_recover)``
    and mean burst lengths are ``1/p_fail`` (up) and ``1/p_recover``
    (down) — fit these to the β-factor traces you want to mimic.
    """

    def __init__(self, p_fail: float, p_recover: float, *, start_up_fraction: float | None = None) -> None:
        _check_probability("p_fail", p_fail)
        _check_probability("p_recover", p_recover)
        self.p_fail = p_fail
        self.p_recover = p_recover
        self.start_up_fraction = start_up_fraction

    def start(self, network: DualGraph, algorithm: AlgorithmInfo, rng: random.Random) -> None:
        super().start(network, algorithm, rng)
        self._flaky_edges = sorted(network.flaky_edges())
        if self.start_up_fraction is None:
            denom = self.p_fail + self.p_recover
            up_frac = 1.0 if denom == 0 else self.p_recover / denom
        else:
            up_frac = self.start_up_fraction
        self._up = self._uniforms(len(self._flaky_edges)) < up_frac

    def choose_topology(self, view: ObliviousView) -> RoundTopology:
        # An up edge stays up unless its draw is below p_fail; a down
        # edge comes up iff its draw is below p_recover.
        draws = self._uniforms(len(self._flaky_edges))
        self._up = np.where(self._up, draws >= self.p_fail, draws < self.p_recover)
        active = compress(self._flaky_edges, self._up.tolist())
        return RoundTopology.from_flaky_edges(self.network, active, label="gilbert-elliott-edges")

    def next_boundary(self, round_index: int) -> int | None:
        return round_index + 1  # the Markov chain steps (and draws) every round


class BernoulliNodeFade(_StochasticLinkProcess):
    """Node-level memoryless fading: ``O(n)`` per round on any graph.

    Each node is independently *clear* with probability ``p_clear``
    each round; a flaky edge fires iff both endpoints are clear.
    """

    def __init__(self, p_clear: float) -> None:
        _check_probability("p_clear", p_clear)
        self.p_clear = p_clear

    def choose_topology(self, view: ObliviousView) -> RoundTopology:
        clear = self._uniforms(self.network.n) < self.p_clear
        return RoundTopology.from_active_flaky_nodes(
            self.network, clear, label="bernoulli-node-fade"
        )

    def next_boundary(self, round_index: int) -> int | None:
        return round_index + 1  # one RNG draw per node every round


class GilbertElliottNodeFade(_StochasticLinkProcess):
    """Node-level bursty fading (two-state Markov per node).

    A clear node fades with ``p_fail`` per round; a faded node clears
    with ``p_recover``. Flaky edges require both endpoints clear. This
    is the recommended "realistic environment" adversary for large
    graphs: correlated bursts, linear per-round cost.
    """

    def __init__(self, p_fail: float, p_recover: float, *, start_clear_fraction: float | None = None) -> None:
        _check_probability("p_fail", p_fail)
        _check_probability("p_recover", p_recover)
        self.p_fail = p_fail
        self.p_recover = p_recover
        self.start_clear_fraction = start_clear_fraction

    def start(self, network: DualGraph, algorithm: AlgorithmInfo, rng: random.Random) -> None:
        super().start(network, algorithm, rng)
        if self.start_clear_fraction is None:
            denom = self.p_fail + self.p_recover
            clear_frac = 1.0 if denom == 0 else self.p_recover / denom
        else:
            clear_frac = self.start_clear_fraction
        self._clear = self._uniforms(network.n) < clear_frac

    def choose_topology(self, view: ObliviousView) -> RoundTopology:
        # A clear node stays clear unless its draw is below p_fail; a
        # faded node clears iff its draw is below p_recover.
        draws = self._uniforms(self.network.n)
        self._clear = np.where(self._clear, draws >= self.p_fail, draws < self.p_recover)
        return RoundTopology.from_active_flaky_nodes(
            self.network, self._clear, label="gilbert-elliott-node-fade"
        )

    def next_boundary(self, round_index: int) -> int | None:
        return round_index + 1  # the per-node Markov chains step every round


# ----------------------------------------------------------------------
# Declarative ScenarioSpec registrations
# ----------------------------------------------------------------------
from repro.registry import register_adversary  # noqa: E402


@register_adversary("bernoulli-edge")
def _spec_bernoulli_edge(ctx, *, p_up: float) -> BernoulliEdgeLinks:
    return BernoulliEdgeLinks(float(p_up))


@register_adversary("ge-edge")
def _spec_ge_edge(
    ctx, *, p_fail: float, p_recover: float, start_up_fraction=None
) -> GilbertElliottEdgeLinks:
    return GilbertElliottEdgeLinks(
        float(p_fail),
        float(p_recover),
        start_up_fraction=None if start_up_fraction is None else float(start_up_fraction),
    )


@register_adversary("bernoulli-node-fade")
def _spec_bernoulli_node_fade(ctx, *, p_clear: float) -> BernoulliNodeFade:
    return BernoulliNodeFade(float(p_clear))


@register_adversary("ge-fade")
def _spec_ge_fade(
    ctx, *, p_fail: float, p_recover: float, start_clear_fraction=None
) -> GilbertElliottNodeFade:
    return GilbertElliottNodeFade(
        float(p_fail),
        float(p_recover),
        start_clear_fraction=(
            None if start_clear_fraction is None else float(start_clear_fraction)
        ),
    )
