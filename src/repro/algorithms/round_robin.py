"""Round robin broadcasting: the adversary-proof baselines.

The paper's footnotes give the robust upper bounds that bracket the
adversarial rows of Figure 1:

* footnote 4: "Local broadcast can always be solved in O(n) rounds
  using round robin broadcasting on the n node ids."
* footnote 5: "We can always solve broadcast among 2β nodes in (2β)²
  rounds by doing round robin broadcast 2β times."

Round robin is immune to *every* link process: when node ``u`` is the
only transmitter in the whole network, no adversarial edge choice can
create a collision at any listener, so ``u``'s reliable neighbors all
receive. The price is paying ``n`` rounds per progress step — which on
the constant-diameter dual clique exactly meets the ``Ω(n)`` offline
adaptive lower bound, closing that Figure-1 cell from above.

Slot permutations: by default node ``u`` owns slot ``u``, but on
topologies where node ids happen to be sorted along the broadcast
direction (lines, lines of cliques) the identity schedule luckily
rides the id order and finishes global broadcast in a single sweep.
The worst case the ``O(nD)`` bound describes needs ids decorrelated
from the topology, so experiment scenarios pass ``slot_seed`` to draw
a uniform slot permutation per trial (the guarantee "one solo slot per
sweep per node" is permutation-invariant).

Each process's fast-engine bank kernel sits beside it
(``_RoundRobinLocalBankKernel``, ``_RoundRobinGlobalBankKernel``).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from functools import partial
from typing import AbstractSet, Mapping, Optional, Sequence

import numpy as np

from repro.algorithms.base import (
    AlgorithmSpec,
    LaneRecipe,
    spec_broadcasters,
    spec_source,
)
from repro.core.bankpath import SingleMessageKernel
from repro.core.messages import Message, MessageKind
from repro.core.process import Process, ProcessContext, RoundPlan
from repro.core.trace import Delivery
from repro.registry import register_algorithm

__all__ = [
    "RoundRobinLocalProcess",
    "RoundRobinGlobalProcess",
    "make_round_robin_local_broadcast",
    "make_round_robin_global_broadcast",
]


def _slot_table(n: int, slot_seed: Optional[int]) -> Optional[Sequence[int]]:
    """Slot assignment: ``slots[u]`` is node ``u``'s slot. None = identity."""
    if slot_seed is None:
        return None
    slots = list(range(n))
    random.Random(slot_seed).shuffle(slots)
    return slots


class RoundRobinLocalProcess(Process):
    """Local broadcast by id schedule: node ``u`` transmits iff ``r ≡ u (mod n)``.

    Every broadcaster gets one guaranteed-solo round per ``n``-round
    sweep, so the problem is solved within ``n`` rounds under any link
    process — deterministically, not just w.h.p.
    """

    def __init__(
        self,
        ctx: ProcessContext,
        *,
        broadcasters: AbstractSet[int],
        payload: object = "m",
        slots: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(ctx)
        self.is_broadcaster = ctx.node_id in broadcasters
        self.slot = slots[ctx.node_id] if slots is not None else ctx.node_id
        self.message: Optional[Message] = None
        if self.is_broadcaster:
            self.message = Message(
                MessageKind.DATA, origin=ctx.node_id, payload=payload
            )

    def next_state_change(self, round_index: int):
        # The plan is a pure function of ``r mod n``: silence until the
        # slot round, one certain transmission, silence again.
        if not self.is_broadcaster:
            return None
        if self.ctx.n == 1:
            return None  # every round is the slot round
        delta = (self.slot - round_index) % self.ctx.n
        return round_index + (delta if delta else 1)

    def plan(self, round_index: int) -> RoundPlan:
        if self.is_broadcaster and round_index % self.ctx.n == self.slot:
            return RoundPlan.certain(self.message)
        return RoundPlan.silence()


class RoundRobinGlobalProcess(Process):
    """Global broadcast by repeated round robin sweeps: ``O(n · D)`` rounds.

    Informed nodes transmit in their id slot; each ``n``-round sweep
    advances the informed frontier by at least one ``G`` hop under any
    link process, so ``D`` sweeps complete the broadcast.
    """

    def __init__(
        self,
        ctx: ProcessContext,
        *,
        source: int,
        payload: object = "m",
        slots: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(ctx)
        self.source = source
        self.slot = slots[ctx.node_id] if slots is not None else ctx.node_id
        self.message: Optional[Message] = None
        if ctx.node_id == source:
            self.message = Message(MessageKind.DATA, origin=source, payload=payload)

    #: The only transition is message adoption on reception; idle
    #: feedback is skippable.
    idle_feedback_noop = True

    @property
    def informed(self) -> bool:
        return self.message is not None

    def next_state_change(self, round_index: int):
        if self.message is None:
            return None  # adoption arrives via feedback
        if self.ctx.n == 1:
            return None  # every round is the slot round
        delta = (self.slot - round_index) % self.ctx.n
        return round_index + (delta if delta else 1)

    def plan(self, round_index: int) -> RoundPlan:
        if self.message is not None and round_index % self.ctx.n == self.slot:
            return RoundPlan.certain(self.message)
        return RoundPlan.silence()

    def on_feedback(self, round_index: int, sent: bool, received: Optional[Message]) -> None:
        if self.message is None and received is not None and received.is_data():
            self.message = received


class _RoundRobinBankKernel(SingleMessageKernel):
    """Shared state of the round-robin kernels: the slot tables.

    Slots are a permutation of ``0 .. n-1`` (:func:`_slot_table`), so
    exactly one node owns slot ``r mod n`` in each lane. The kernel keeps
    the inverse table ``node_at[t, s]`` (the node of lane ``t`` whose
    slot is ``s``) and fills round ``r`` from its column ``r mod n``: one
    cell per lane, in a (T, n) batch that stays zero elsewhere. Every
    live probability is the certain 1.0, so ``_rungs`` is fixed.
    """

    def __init__(self, lanes: Sequence[Mapping], networks: Sequence) -> None:
        super().__init__(lanes, networks)
        self.slots = _slot_rows(lanes, self.n)
        self.node_at = np.argsort(self.slots, axis=1)
        self._lanes = np.arange(self.trials)
        self._lit = self.node_at[:, 0]
        self._probs = np.zeros((self.trials, self.n))
        self._rungs = np.ones(self.trials)

    def _fill(self, r: int, sending: np.ndarray) -> np.ndarray:
        """Round ``r``'s batch: the slot owner transmits iff ``sending``.

        Rewrites the batch in place: the previous round's cells go back
        to 0 and each lane's slot owner gets its flag, O(T) per round.
        """
        self._r = r
        lanes = self._lanes
        owner = self.node_at[:, r % self.n]
        on = sending[lanes, owner]
        probs = self._probs
        probs[lanes, self._lit] = 0.0
        probs[lanes, owner] = on
        self._lit = owner
        self._counts = on.astype(np.int64)
        return probs


class _RoundRobinLocalBankKernel(_RoundRobinBankKernel):
    """All trials of a footnote-4 round-robin local bank, as arrays.

    Mirrors :class:`RoundRobinLocalProcess`:
    broadcaster ``u`` transmits (certainly) iff ``r ≡ slots[u] (mod n)``.
    Roles and slots never change, so each lane's broadcaster slots are
    sorted once and the skip horizon is one bisection.
    """

    def __init__(self, lanes: Sequence[Mapping], seeds, networks: Sequence) -> None:
        super().__init__(lanes, networks)
        self.role, self.messages = self._broadcasters(lanes)
        self._fire = [
            np.sort(slots[role]).tolist() for slots, role in zip(self.slots, self.role)
        ]

    def probabilities(self, r: int) -> np.ndarray:
        """(T, n) transmission probabilities for round ``r`` (cached)."""
        if r == self._r:
            return self._probs
        return self._fill(r, self.role)

    def message_for(self, t: int, u: int) -> Message:
        """Broadcasters carry per-node messages (origin = own id)."""
        return self.messages[t][u]

    def next_active_round(self, t: int, r: int) -> Optional[int]:
        """First round > ``r`` whose slot is a broadcaster's.

        Bisects lane ``t``'s sorted broadcaster slots for the first one
        at or after ``(r + 1) mod n``, wrapping to the smallest.
        """
        fire = self._fire[t]
        if not fire:
            return None
        n = self.n
        nxt = r + 1
        offset = nxt % n
        i = bisect_left(fire, offset)
        return nxt + (fire[i] - offset if i < len(fire) else fire[0] + n - offset)


class _RoundRobinGlobalBankKernel(_RoundRobinBankKernel):
    """All trials of a footnote-5 round-robin global bank, as arrays.

    Mirrors :class:`RoundRobinGlobalProcess`:
    informed nodes transmit (certainly) in their slot and adopt the
    message on first data reception.
    """

    def __init__(self, lanes: Sequence[Mapping], seeds, networks: Sequence) -> None:
        super().__init__(lanes, networks)
        self._sources(lanes)
        self.informed = np.zeros((self.trials, self.n), dtype=bool)
        self.informed[self._lanes, self.source] = True

    def probabilities(self, r: int) -> np.ndarray:
        """(T, n) transmission probabilities for round ``r`` (cached)."""
        if r == self._r:
            return self._probs
        return self._fill(r, self.informed)

    def message_for(self, t: int, u: int) -> Message:
        """Every transmitter relays the trial's canonical message."""
        return self.message[t]

    def apply_feedback(self, t: int, r: int, deliveries: Sequence[Delivery]) -> None:
        """First data reception adopts the message (slot is unchanged)."""
        informed = self.informed
        for delivery in deliveries:
            u = delivery.receiver
            if not informed[t, u] and delivery.message.is_data():
                informed[t, u] = True

    def next_active_round(self, t: int, r: int) -> Optional[int]:
        slots = self.slots[t][self.informed[t]]
        if slots.size == 0:
            return None
        if self.n == 1:
            return r + 1
        # A slot firing at ``r`` itself maps a full cycle forward.
        return r + 1 + int(((slots - (r + 1)) % self.n).min())


def _slot_rows(lanes: Sequence[Mapping], n: int) -> np.ndarray:
    """(T, n) slot table: each lane's ``slots``, or the identity."""
    return np.array(
        [np.arange(n) if lane["slots"] is None else lane["slots"] for lane in lanes],
        dtype=np.int64,
    )


def make_round_robin_local_broadcast(
    n: int,
    broadcasters: AbstractSet[int],
    *,
    payload: object = "m",
    slot_seed: Optional[int] = None,
) -> AlgorithmSpec:
    """Spec for the footnote-4 ``O(n)`` local broadcast baseline."""
    broadcaster_set = frozenset(broadcasters)
    for b in broadcaster_set:
        if not 0 <= b < n:
            raise ValueError(f"broadcaster {b} outside [0, {n})")
    slots = _slot_table(n, slot_seed)

    # ``partial`` instead of a closure: one C-level call per node.
    factory = partial(
        RoundRobinLocalProcess,
        broadcasters=broadcaster_set,
        payload=payload,
        slots=slots,
    )

    return AlgorithmSpec(
        name=f"round-robin-local(|B|={len(broadcaster_set)})",
        factory=factory,
        metadata={
            "family": "round-robin",
            "problem": "local-broadcast",
            "broadcasters": sorted(broadcaster_set),
            "deterministic": True,
        },
        lane=LaneRecipe(factory, n, _RoundRobinLocalBankKernel),
    )


def make_round_robin_global_broadcast(
    n: int,
    source: int,
    *,
    payload: object = "m",
    slot_seed: Optional[int] = None,
) -> AlgorithmSpec:
    """Spec for the footnote-5 ``O(nD)`` global broadcast baseline."""
    if not 0 <= source < n:
        raise ValueError(f"source {source} outside [0, {n})")
    slots = _slot_table(n, slot_seed)

    factory = partial(RoundRobinGlobalProcess, source=source, payload=payload, slots=slots)

    return AlgorithmSpec(
        name=f"round-robin-global(n={n})",
        factory=factory,
        metadata={
            "family": "round-robin",
            "problem": "global-broadcast",
            "source": source,
            "deterministic": True,
        },
        lane=LaneRecipe(factory, n, _RoundRobinGlobalBankKernel),
    )


@register_algorithm("round-robin-global")
def _spec_round_robin_global(
    ctx,
    *,
    source: Optional[int] = None,
    payload: object = "m",
    random_slots: bool = False,
    slot_seed: Optional[int] = None,
) -> AlgorithmSpec:
    """Footnote-5 baseline; ``random_slots`` draws a per-trial slot
    permutation from the ``"slots"`` stream (the label the chain-graph
    scenarios use so the identity schedule never luckily matches)."""
    if slot_seed is None and random_slots:
        slot_seed = ctx.derive("slots")
    return make_round_robin_global_broadcast(
        ctx.graph.n, spec_source(ctx, source), payload=payload, slot_seed=slot_seed
    )


@register_algorithm("round-robin-local")
def _spec_round_robin_local(
    ctx,
    *,
    broadcasters=None,
    payload: object = "m",
    random_slots: bool = False,
    slot_seed: Optional[int] = None,
) -> AlgorithmSpec:
    if slot_seed is None and random_slots:
        slot_seed = ctx.derive("slots")
    return make_round_robin_local_broadcast(
        ctx.graph.n,
        spec_broadcasters(ctx, broadcasters),
        payload=payload,
        slot_seed=slot_seed,
    )
