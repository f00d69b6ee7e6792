"""Static-model local broadcast: the ``O(log n log Δ)`` algorithm of [8].

Figure 1's last row cites [2, 8] for ``Θ(log n log Δ)`` local broadcast
with no dynamic links: "a slight tweak to the strategy of [2] provides
a local broadcast solution" — every node holding a message cycles the
decay ladder sized to the *neighborhood* bound ``Δ`` rather than ``n``
(a receiver can have at most ``Δ`` broadcasting neighbors), repeated
``O(log n)`` times for the high-probability union bound.

All broadcasters share the public phase clock from round 0, so — like
plain decay — the schedule is clock-predictable, which is exactly why
this algorithm inherits the lower bounds in the adversarial rows and
why it serves as the "strong static baseline" victim for the dense/
sparse attackers in E4/E6/E8. ``_StaticDecayBankKernel``, beside the
process, is its fast-engine bank kernel.
"""

from __future__ import annotations

from functools import partial
from typing import AbstractSet, Mapping, Optional, Sequence

import numpy as np

from repro.algorithms.base import (
    AlgorithmSpec,
    LaneRecipe,
    log2_ceil,
    spec_broadcasters,
)
from repro.algorithms.decay import decay_ladder, decay_probability
from repro.core.bankpath import SingleMessageKernel
from repro.core.messages import Message, MessageKind
from repro.core.process import Process, ProcessContext, RoundPlan
from repro.registry import register_algorithm

__all__ = ["StaticLocalDecayProcess", "make_static_local_broadcast"]


class StaticLocalDecayProcess(Process):
    """One node of [8]-style local broadcast.

    Nodes in the broadcast set ``B`` transmit with the ladder
    probability ``2^{-(r mod phase_length)-1}`` every round; everyone
    else listens. ``phase_length`` defaults to ``log2_ceil(Δ + 1)``
    so the ladder reaches ``~1/Δ``.
    """

    def __init__(
        self,
        ctx: ProcessContext,
        *,
        broadcasters: AbstractSet[int],
        payload: object = "m",
        phase_length: Optional[int] = None,
    ) -> None:
        super().__init__(ctx)
        self.is_broadcaster = ctx.node_id in broadcasters
        self.phase_length = phase_length or log2_ceil(ctx.max_degree + 1)
        self.message: Optional[Message] = None
        if self.is_broadcaster:
            self.message = Message(
                MessageKind.DATA, origin=ctx.node_id, payload=payload
            )

    def next_state_change(self, round_index: int):
        if not self.is_broadcaster:
            return None  # listeners listen forever
        if self.phase_length == 1:
            return None  # degenerate ladder: constant probability 1/2
        return round_index + 1  # a new ladder rung every round

    def plan(self, round_index: int) -> RoundPlan:
        if not self.is_broadcaster:
            return RoundPlan.silence()
        j = round_index % self.phase_length
        return RoundPlan(
            probability=decay_probability(j, self.phase_length), message=self.message
        )


class _StaticDecayBankKernel(SingleMessageKernel):
    """All trials of an [8]-style static local decay bank, as arrays.

    Mirrors :class:`StaticLocalDecayProcess`:
    broadcasters ride the public ladder ``2^{-(r mod L)-1}`` from round
    0 forever; there is no feedback at all, so the whole kernel is one
    masked ladder broadcast per round.
    """

    def __init__(self, lanes: Sequence[Mapping], seeds, networks: Sequence) -> None:
        super().__init__(lanes, networks)
        self.phase = np.array([[lane["phase_length"]] for lane in lanes], dtype=np.int64)
        self.broadcaster, self.messages = self._broadcasters(lanes)
        self._bcount = self.broadcaster.sum(axis=1)

    def probabilities(self, r: int) -> np.ndarray:
        """(T, n) transmission probabilities for round ``r`` (cached)."""
        if r == self._r:
            return self._probs
        self._r = r
        rung = decay_ladder(r, self.phase)  # (T, 1): the public ladder
        self._probs = np.where(self.broadcaster, rung, 0.0)
        self._counts = self._bcount
        self._rungs = rung[:, 0]
        return self._probs

    def message_for(self, t: int, u: int) -> Message:
        """Broadcasters carry per-node messages (origin = own id)."""
        return self.messages[t][u]

    def next_active_round(self, t: int, r: int) -> Optional[int]:
        # Broadcasters ride the public ladder every round, forever.
        return r + 1 if int(self._bcount[t]) else None


def make_static_local_broadcast(
    n: int,
    broadcasters: AbstractSet[int],
    max_degree: int,
    *,
    payload: object = "m",
    phase_length: Optional[int] = None,
) -> AlgorithmSpec:
    """Spec for [8]-style local broadcast with broadcaster set ``B``."""
    broadcaster_set = frozenset(broadcasters)
    for b in broadcaster_set:
        if not 0 <= b < n:
            raise ValueError(f"broadcaster {b} outside [0, {n})")
    resolved_phase = phase_length or log2_ceil(max_degree + 1)

    # ``partial`` instead of a closure: the factory runs once per node
    # and the C-level call shaves a Python frame off each construction.
    factory = partial(
        StaticLocalDecayProcess,
        broadcasters=broadcaster_set,
        payload=payload,
        phase_length=resolved_phase,
    )

    return AlgorithmSpec(
        name=f"static-local-decay(|B|={len(broadcaster_set)})",
        factory=factory,
        metadata={
            "family": "decay",
            "problem": "local-broadcast",
            "broadcasters": sorted(broadcaster_set),
            "phase_length": resolved_phase,
            "schedule": "public",
        },
        lane=LaneRecipe(factory, n, _StaticDecayBankKernel),
    )


@register_algorithm("static-local-decay")
def _spec_static_local_decay(
    ctx,
    *,
    broadcasters=None,
    ladder_delta: Optional[int] = None,
    payload: object = "m",
    phase_length: Optional[int] = None,
) -> AlgorithmSpec:
    """[8]-style local decay; ``ladder_delta`` overrides the Δ the
    probability ladder descends to (``1`` gives the E2b "ladderless"
    ablation), defaulting to the built graph's max degree."""
    delta = ctx.graph.max_degree if ladder_delta is None else int(ladder_delta)
    return make_static_local_broadcast(
        ctx.graph.n,
        spec_broadcasters(ctx, broadcasters),
        delta,
        payload=payload,
        phase_length=phase_length,
    )
