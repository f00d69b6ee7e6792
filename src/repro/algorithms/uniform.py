"""Uniform-probability local broadcast: the naive randomized baseline.

Every broadcaster transmits with a fixed probability ``p`` each round
(default ``1/(Δ+1)``). In the static model this solves local broadcast
in ``O(Δ log n)`` expected rounds — a ``Δ/ (log n log Δ)`` factor worse
than decay, which is why the experiment tables include it: it separates
"any randomization" from decay's *ladder*, and in the oblivious rows it
provides a schedule-predictable victim whose constant rate the
dense/sparse attackers classify perfectly (its expected transmitter
count is the same every round).

Each process's fast-engine bank kernel sits beside it
(``_UniformLocalBankKernel``, ``_UniformGlobalBankKernel``).
"""

from __future__ import annotations

from functools import partial
from typing import AbstractSet, Mapping, Optional, Sequence

import numpy as np

from repro.algorithms.base import (
    AlgorithmSpec,
    LaneRecipe,
    clamp_probability,
    spec_broadcasters,
    spec_source,
)
from repro.core.bankpath import SingleMessageKernel
from repro.core.messages import Message, MessageKind
from repro.core.process import Process, ProcessContext, RoundPlan
from repro.core.trace import Delivery
from repro.registry import register_algorithm

__all__ = [
    "UniformLocalProcess",
    "make_uniform_local_broadcast",
    "UniformGlobalProcess",
    "make_uniform_global_broadcast",
]


class UniformLocalProcess(Process):
    """Broadcaster transmitting at a constant Bernoulli rate."""

    def __init__(
        self,
        ctx: ProcessContext,
        *,
        broadcasters: AbstractSet[int],
        probability: Optional[float] = None,
        payload: object = "m",
    ) -> None:
        super().__init__(ctx)
        self.is_broadcaster = ctx.node_id in broadcasters
        self.probability = (
            clamp_probability(probability)
            if probability is not None
            else 1.0 / (ctx.max_degree + 1)
        )
        self.message: Optional[Message] = None
        if self.is_broadcaster:
            self.message = Message(
                MessageKind.DATA, origin=ctx.node_id, payload=payload
            )

    def next_state_change(self, round_index: int):
        return None  # constant rate forever, in both roles

    def plan(self, round_index: int) -> RoundPlan:
        if not self.is_broadcaster:
            return RoundPlan.silence()
        return RoundPlan(probability=self.probability, message=self.message)


class UniformGlobalProcess(Process):
    """Global broadcast at a constant per-node rate.

    The source announces in round 0; every informed node then transmits
    with fixed probability ``p``. This family is the *best response* to
    the dense/sparse adversaries, which makes it the right victim for
    measuring the lower-bound rows' shapes:

    * against the **online adaptive** attacker (threshold ``τ`` on
      ``E[|X| | S]``), the optimal rate rides just under the threshold
      (``p ≈ τ/|informed|``), crossing the secret bridge in
      ``Θ(n/τ) = Θ(n / log n)`` rounds — matching the Theorem 3.1 cell;
    * against the **offline adaptive** solo blocker, riding the
      threshold is useless (a solo transmission is what's needed) and
      the optimum falls to ``p ≈ 1/|informed|``, crossing in ``Θ(n)``
      rounds — matching the [11] cell.

    ``rate`` may be a float or a callable ``n ↦ p`` evaluated at
    construction.
    """

    def __init__(
        self,
        ctx: ProcessContext,
        *,
        source: int,
        probability: float,
        payload: object = "m",
    ) -> None:
        super().__init__(ctx)
        self.source = source
        self.probability = clamp_probability(probability)
        self.message: Optional[Message] = None
        if ctx.node_id == source:
            self.message = Message(MessageKind.DATA, origin=source, payload=payload)

    #: Only "first data reception" mutates state; idle feedback is
    #: skippable.
    idle_feedback_noop = True

    @property
    def informed(self) -> bool:
        return self.message is not None

    def next_state_change(self, round_index: int):
        if round_index == 0 and self.message is not None and self.node_id == self.source:
            return 1  # the round-0 announcement gives way to the constant rate
        return None  # constant rate (or silence) until feedback intervenes

    def plan(self, round_index: int) -> RoundPlan:
        if self.message is None:
            return RoundPlan.silence()
        if round_index == 0 and self.node_id == self.source:
            return RoundPlan.certain(self.message)
        return RoundPlan(probability=self.probability, message=self.message)

    def on_feedback(self, round_index: int, sent: bool, received: Optional[Message]) -> None:
        if self.message is None and received is not None and received.is_data():
            self.message = received


class _UniformLocalBankKernel(SingleMessageKernel):
    """All trials of a constant-rate local bank, as arrays.

    Mirrors :class:`UniformLocalProcess`:
    broadcasters transmit at the fixed rate forever; no feedback.
    """

    def __init__(self, lanes: Sequence[Mapping], seeds, networks: Sequence) -> None:
        super().__init__(lanes, networks)
        self.rate = np.array(
            [[clamp_probability(lane["probability"])] for lane in lanes], dtype=np.float64
        )
        self.broadcaster, self.messages = self._broadcasters(lanes)
        self._bcount = self.broadcaster.sum(axis=1)

    def probabilities(self, r: int) -> np.ndarray:
        """(T, n) transmission probabilities for round ``r`` (cached)."""
        if r == self._r:
            return self._probs
        self._r = r
        self._probs = np.where(self.broadcaster, self.rate, 0.0)
        self._counts = self._bcount
        self._rungs = self.rate[:, 0]
        return self._probs

    def message_for(self, t: int, u: int) -> Message:
        """Broadcasters carry per-node messages (origin = own id)."""
        return self.messages[t][u]

    def next_active_round(self, t: int, r: int) -> Optional[int]:
        if int(self._bcount[t]) and float(self.rate[t, 0]) > 0.0:
            return r + 1  # a live rate is a coin flip every round
        return None


class _UniformGlobalBankKernel(SingleMessageKernel):
    """All trials of a constant-rate global bank, as arrays.

    Mirrors :class:`UniformGlobalProcess`:
    the source announces in round 0; informed nodes then relay at the
    fixed rate, adopting on first data reception.
    """

    def __init__(self, lanes: Sequence[Mapping], seeds, networks: Sequence) -> None:
        super().__init__(lanes, networks)
        self._sources(lanes)
        self.rate = np.array(
            [[clamp_probability(lane["probability"])] for lane in lanes], dtype=np.float64
        )
        self.informed = np.zeros((self.trials, self.n), dtype=bool)
        self.informed[np.arange(self.trials), self.source] = True

    def probabilities(self, r: int) -> np.ndarray:
        """(T, n) transmission probabilities for round ``r`` (cached)."""
        if r == self._r:
            return self._probs
        self._r = r
        if r == 0:
            self._probs = self._announcement_round(self.source)
            return self._probs
        self._probs = np.where(self.informed, self.rate, 0.0)
        self._counts = self.informed.sum(axis=1)
        self._rungs = self.rate[:, 0]
        return self._probs

    def message_for(self, t: int, u: int) -> Message:
        """Every transmitter relays the trial's canonical message."""
        return self.message[t]

    def apply_feedback(self, t: int, r: int, deliveries: Sequence[Delivery]) -> None:
        """First data reception adopts the message."""
        informed = self.informed
        for delivery in deliveries:
            u = delivery.receiver
            if not informed[t, u] and delivery.message.is_data():
                informed[t, u] = True

    def next_active_round(self, t: int, r: int) -> Optional[int]:
        if r == 0 or float(self.rate[t, 0]) > 0.0:
            # The round-1 case is conservative for a zero rate, but a
            # zero-rate global relay is a degenerate config not worth a
            # special case here.
            return r + 1
        return None


def make_uniform_global_broadcast(
    n: int,
    source: int,
    *,
    probability: float,
    payload: object = "m",
) -> AlgorithmSpec:
    """Spec for constant-rate global broadcast (see
    :class:`UniformGlobalProcess` for how to choose ``probability``)."""
    if not 0 <= source < n:
        raise ValueError(f"source {source} outside [0, {n})")

    factory = partial(
        UniformGlobalProcess, source=source, probability=probability, payload=payload
    )

    return AlgorithmSpec(
        name=f"uniform-global(p={probability:.4g})",
        factory=factory,
        metadata={
            "family": "uniform",
            "problem": "global-broadcast",
            "source": source,
            "probability": probability,
        },
        lane=LaneRecipe(factory, n, _UniformGlobalBankKernel),
    )


def make_uniform_local_broadcast(
    n: int,
    broadcasters: AbstractSet[int],
    max_degree: int,
    *,
    probability: Optional[float] = None,
    payload: object = "m",
) -> AlgorithmSpec:
    """Spec for the constant-rate local broadcast baseline."""
    broadcaster_set = frozenset(broadcasters)
    for b in broadcaster_set:
        if not 0 <= b < n:
            raise ValueError(f"broadcaster {b} outside [0, {n})")
    resolved = probability if probability is not None else 1.0 / (max_degree + 1)

    factory = partial(
        UniformLocalProcess,
        broadcasters=broadcaster_set,
        probability=resolved,
        payload=payload,
    )

    return AlgorithmSpec(
        name=f"uniform-local(p={resolved:.4f})",
        factory=factory,
        metadata={
            "family": "uniform",
            "problem": "local-broadcast",
            "broadcasters": sorted(broadcaster_set),
            "probability": resolved,
        },
        lane=LaneRecipe(factory, n, _UniformLocalBankKernel),
    )


@register_algorithm("uniform-global")
def _spec_uniform_global(
    ctx, *, probability: float, source: Optional[int] = None, payload: object = "m"
) -> AlgorithmSpec:
    return make_uniform_global_broadcast(
        ctx.graph.n, spec_source(ctx, source), probability=float(probability), payload=payload
    )


@register_algorithm("uniform-local")
def _spec_uniform_local(
    ctx,
    *,
    broadcasters=None,
    probability: Optional[float] = None,
    payload: object = "m",
) -> AlgorithmSpec:
    return make_uniform_local_broadcast(
        ctx.graph.n,
        spec_broadcasters(ctx, broadcasters),
        ctx.graph.max_degree,
        probability=None if probability is None else float(probability),
        payload=payload,
    )
