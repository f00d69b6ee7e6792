"""Classic decay and the Bar-Yehuda–Goldreich–Itai global broadcast [2].

The decay subroutine has every participating node cycle — in lockstep —
through the probability ladder ``1/2, 1/4, …, 2/n, 1/n`` (``log n``
rounds per phase). For any receiver, one rung of the ladder matches the
number of transmitting neighbors, and in that round the receiver gets a
message with constant probability. Repeating phases yields the classic
``O(D log n + log² n)`` global broadcast in the static protocol model.

The schedule is *public and deterministic*: round ``r`` of a phase uses
probability ``2^{-(r mod log n) - 1}`` no matter what. That is its
fatal weakness in the dual graph model — an oblivious adversary can
compute the expected transmitter count of every future round from the
algorithm description alone (see
:mod:`repro.adversaries.schedule_attack`) — and the reason Section 4.1
replaces it with *permuted* decay.

Processes here:

* :class:`PlainDecayGlobalProcess` — BGI global broadcast: the source
  announces in round 0; every informed node joins the ladder at the
  next phase boundary.
* ``_PlainDecayBankKernel`` — the same protocol for a whole seed bank
  as struct-of-arrays lanes, the fast engine's kernel, named in the
  spec's lane recipe.
* :func:`decay_probability` — the ladder itself, shared with tests and
  attack predictors.
"""

from __future__ import annotations

from functools import partial
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.algorithms.base import AlgorithmSpec, LaneRecipe, log2_ceil, spec_source
from repro.core.bankpath import NEVER, SingleMessageKernel
from repro.core.messages import Message, MessageKind
from repro.core.process import Process, ProcessContext, RoundPlan
from repro.core.trace import Delivery
from repro.registry import register_algorithm

__all__ = [
    "decay_probability",
    "decay_ladder",
    "PlainDecayGlobalProcess",
    "make_plain_decay_global_broadcast",
]


def decay_probability(round_in_phase: int, phase_length: int) -> float:
    """The decay ladder: probability ``2^{-(j+1)}`` at phase round ``j``.

    ``j = 0`` gives ``1/2``; ``j = phase_length - 1`` gives
    ``2^{-phase_length}`` (``= 1/n`` when ``phase_length = log n``).
    """
    if not 0 <= round_in_phase < phase_length:
        raise ValueError(
            f"round_in_phase {round_in_phase} outside [0, {phase_length})"
        )
    return 2.0 ** (-(round_in_phase + 1))


def decay_ladder(round_index, phase_length):
    """Vectorized ladder: ``decay_probability(r mod L, L)``, broadcast.

    ``round_index`` and ``phase_length`` may be scalars or integer
    arrays (numpy broadcasting applies; ``np.mod`` keeps the result
    non-negative for negative round offsets, matching Python's ``%``).
    The rungs are exact powers of two via ``np.ldexp``, bit-identical
    to the scalar :func:`decay_probability` — the single-message bank
    kernels rely on this to share one rung across every lane per round.
    """
    return np.ldexp(1.0, -np.mod(round_index, phase_length) - 1)


class PlainDecayGlobalProcess(Process):
    """One node of the BGI broadcast algorithm.

    Lifecycle: the source transmits the payload in round 0 with
    probability 1 and then behaves like any informed node. A node that
    first receives the message in round ``r`` waits for the next phase
    boundary (``r' ≡ 0 mod phase_length``) and from then on transmits
    with the ladder probability every round, for ``active_phases``
    phases (``None`` = until the engine stops it; the classic analysis
    needs ``Θ(log n)`` phases per node, and running longer never hurts
    progress — it only spends energy).
    """

    def __init__(
        self,
        ctx: ProcessContext,
        *,
        source: int,
        payload: object = "m",
        phase_length: Optional[int] = None,
        active_phases: Optional[int] = None,
    ) -> None:
        super().__init__(ctx)
        self.source = source
        self.phase_length = phase_length or log2_ceil(ctx.n)
        self.active_phases = active_phases
        self.message: Optional[Message] = None
        self.participate_from: Optional[int] = None
        self._active_until: Optional[int] = None
        if ctx.node_id == source:
            self.message = Message(MessageKind.DATA, origin=source, payload=payload)
            self.participate_from = 1  # decays start after the announcement
            self._refresh_active_until()

    #: The state machine reacts only to data receptions, so idle-listen
    #: feedback is skippable.
    idle_feedback_noop = True

    @property
    def informed(self) -> bool:
        """Whether this node holds the broadcast message."""
        return self.message is not None

    def _refresh_active_until(self) -> None:
        """Set the round the participation window ends (``None`` = open-ended)."""
        if self.active_phases is None:
            self._active_until = None
        else:
            self._active_until = (
                self.participate_from + self.active_phases * self.phase_length
            )

    def next_state_change(self, round_index: int):
        # The plan rides the ladder: it changes every round while the
        # node is active, so only the silent stretches (uninformed /
        # waiting / window-ended) are stable.
        if self.message is None:
            return None  # adoption arrives via feedback
        if round_index == 0 and self.node_id == self.source:
            return 1
        start = self.participate_from
        if start is None:
            return None
        if round_index < start:
            return start
        until = self._active_until
        if until is not None and round_index >= until:
            return None  # the window ended; silent for good
        return round_index + 1  # active ladder: a new rung every round

    def plan(self, round_index: int) -> RoundPlan:
        if self.message is None:
            return RoundPlan.silence()
        if round_index == 0 and self.node_id == self.source:
            return RoundPlan.certain(self.message)
        start = self.participate_from
        if start is None or round_index < start:
            return RoundPlan.silence()
        until = self._active_until
        if until is not None and round_index >= until:
            return RoundPlan.silence()
        j = (round_index - start) % self.phase_length
        return RoundPlan(probability=decay_probability(j, self.phase_length), message=self.message)

    def on_feedback(self, round_index: int, sent: bool, received: Optional[Message]) -> None:
        if self.message is None and received is not None and received.is_data():
            self.message = received
            # Join at the next phase boundary relative to the global
            # clock offset used by everyone (source joined at round 1).
            rounds_since_epoch = round_index + 1 - 1  # next round, minus epoch offset 1
            remainder = rounds_since_epoch % self.phase_length
            wait = 0 if remainder == 0 else self.phase_length - remainder
            self.participate_from = round_index + 1 + wait
            self._refresh_active_until()


class _PlainDecayBankKernel(SingleMessageKernel):
    """All trials of a BGI plain-decay bank, as arrays.

    Mirrors :class:`PlainDecayGlobalProcess`:
    ``start[t, u]`` is the node's ``participate_from`` (every join lies
    on a phase boundary — ``start ≡ 1 mod L`` — so one ladder rung
    ``2^{-((r-1) mod L)-1}`` serves the whole active set of a lane),
    ``end[t, u]`` is the first round after its finite ``active_phases``
    window (``_active_until``), ``NEVER`` marks uninformed nodes
    and open windows, and adoption computes the next boundary exactly
    like ``on_feedback``.
    """

    def __init__(self, lanes: Sequence[Mapping], seeds, networks: Sequence) -> None:
        super().__init__(lanes, networks)
        self._sources(lanes)
        self.phase = np.array([[lane["phase_length"]] for lane in lanes], dtype=np.int64)
        self.window = [
            None if lane["active_phases"] is None
            else lane["active_phases"] * lane["phase_length"]
            for lane in lanes
        ]
        self.start = np.full((self.trials, self.n), NEVER, dtype=np.int64)
        self.end = np.full((self.trials, self.n), NEVER, dtype=np.int64)
        # The source's decays start after its round-0 announcement.
        self.start[np.arange(self.trials), self.source] = 1
        for t, window in enumerate(self.window):
            if window is not None:
                self.end[t, self.source[t]] = 1 + window

    def probabilities(self, r: int) -> np.ndarray:
        """(T, n) transmission probabilities for round ``r`` (cached)."""
        if r == self._r:
            return self._probs
        self._r = r
        if r == 0:
            self._probs = self._announcement_round(self.source)
            return self._probs
        active = (self.start <= r) & (r < self.end)
        rung = decay_ladder(r - 1, self.phase)  # (T, 1): shared rung
        self._probs = np.where(active, rung, 0.0)
        self._counts = active.sum(axis=1)
        self._rungs = rung[:, 0]
        return self._probs

    def message_for(self, t: int, u: int) -> Message:
        """Every transmitter relays the trial's canonical message."""
        return self.message[t]

    def apply_feedback(self, t: int, r: int, deliveries: Sequence[Delivery]) -> None:
        """First data reception adopts; join at the next phase boundary."""
        start = self.start
        phase = int(self.phase[t, 0])
        for delivery in deliveries:
            u = delivery.receiver
            if start[t, u] != NEVER or not delivery.message.is_data():
                continue
            # Same arithmetic as on_feedback: the next round r+1, pushed
            # to the boundary of the global phase clock (epoch offset 1).
            remainder = r % phase
            wait = 0 if remainder == 0 else phase - remainder
            start[t, u] = r + 1 + wait
            if self.window[t] is not None:
                self.end[t, u] = start[t, u] + self.window[t]

    def next_active_round(self, t: int, r: int) -> Optional[int]:
        # Each node's first round > r inside its window [start, end):
        # an active participant rides the ladder every round, a waiting
        # one wakes at its phase boundary, a closed window never again.
        first = np.maximum(self.start[t], r + 1)
        first = first[first < self.end[t]]
        if first.size == 0:
            return None  # only a delivery can wake the lane
        return int(first.min())


def make_plain_decay_global_broadcast(
    n: int,
    source: int,
    *,
    payload: object = "m",
    phase_length: Optional[int] = None,
    active_phases: Optional[int] = None,
) -> AlgorithmSpec:
    """Spec for BGI plain-decay global broadcast from ``source``.

    ``phase_length`` defaults to ``log2_ceil(n)``; all nodes share the
    same global phase clock (offset by the round-0 announcement), which
    is what makes the ladder position a pure function of the round
    index — the predictability the oblivious schedule attack exploits.
    """
    if not 0 <= source < n:
        raise ValueError(f"source {source} outside [0, {n})")
    resolved_phase = phase_length or log2_ceil(n)

    factory = partial(
        PlainDecayGlobalProcess,
        source=source,
        payload=payload,
        phase_length=resolved_phase,
        active_phases=active_phases,
    )

    return AlgorithmSpec(
        name=f"plain-decay-global(n={n})",
        factory=factory,
        metadata={
            "family": "decay",
            "problem": "global-broadcast",
            "source": source,
            "phase_length": resolved_phase,
            "schedule": "public",
        },
        lane=LaneRecipe(factory, n, _PlainDecayBankKernel),
    )


@register_algorithm("plain-decay")
def _spec_plain_decay(
    ctx,
    *,
    source: Optional[int] = None,
    payload: object = "m",
    phase_length: Optional[int] = None,
    active_phases: Optional[int] = None,
) -> AlgorithmSpec:
    return make_plain_decay_global_broadcast(
        ctx.graph.n,
        spec_source(ctx, source),
        payload=payload,
        phase_length=phase_length,
        active_phases=active_phases,
    )
