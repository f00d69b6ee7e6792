"""MAC-level multi-message protocols: GKLN queueing and simple back-off.

Two dissemination strategies for the multi-message broadcast problem,
both executed as ordinary :class:`~repro.core.process.Process` state
machines on the radio engines (the *simulated* MAC realization — see
:mod:`repro.mac.simulated`):

* :class:`GklnMultiMessageProcess` (``"gkln-multi-message"``) — the
  GKLN Basic Multi-Message Broadcast discipline: relay every newly
  learned message exactly once, FIFO, one ``bcast`` at a time; a
  bcast occupies one MAC **ack window** (``f_ack`` rounds of decay
  ladder contention resolution), and the next queued message starts
  when the previous window's local acknowledgment fires. Its oracle
  counterpart serializes service slots the same way
  (``mac_discipline: "queued"``).
* :class:`BackoffMultiMessageProcess` (``"backoff-multi-message"``) —
  the Gilbert–Lynch–Newport–Pajak style *simple back-off*: no ack
  pacing at all; every node holding messages transmits each round with
  a back-off probability (fixed, or halving per quiet epoch) and
  rotates deterministically through its whole knowledge set. All
  messages share the channel concurrently
  (``mac_discipline: "concurrent"``).

Both processes keep their transition rule a pure function of
``(feedback history, round index)``: time-driven transitions (window
expiry, back-off epochs) are *derived* lazily by an idempotent
``_advance(r)`` normalization instead of being pushed by per-round
feedback, which is what licenses ``idle_feedback_noop``
(``tests/test_engine_equivalence.py`` holds both protocols to
full-trace identity across engines). Each process's bank kernel, the
fast engine's struct-of-arrays copy of it, sits below it
(``_GklnBankKernel``, ``_BackoffBankKernel``, on a shared
``_MultiMessageKernelBase``); the spec builders name it in the lane
recipe.
"""

from __future__ import annotations

import math
from collections import deque
from functools import partial
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.algorithms.base import AlgorithmSpec, LaneRecipe, clamp_probability, log2_ceil
from repro.algorithms.decay import decay_ladder
from repro.core.messages import Message, MessageKind
from repro.core.process import Process, ProcessContext, RoundPlan
from repro.core.trace import Delivery
from repro.mac.base import MessageAssignment, spec_messages
from repro.mac.simulated import SimulatedMACLayer
from repro.registry import register_algorithm

__all__ = [
    "GklnMultiMessageProcess",
    "BackoffMultiMessageProcess",
    "make_gkln_multi_message",
    "make_backoff_multi_message",
]


def _initial_messages(ctx: ProcessContext, assignment: MessageAssignment) -> list[Message]:
    """The messages this node originates, as fresh DATA messages."""
    return [
        Message(
            MessageKind.DATA,
            origin=ctx.node_id,
            payload=assignment.payload(index),
            tag=index,
        )
        for index in assignment.indices_at(ctx.node_id)
    ]


def gkln_persist_rate(
    window: int, rungs: int, persist_probability: Optional[float], max_degree: int
) -> float:
    """A GKLN node's background duty cycle; validates the ack window."""
    if window < 1 or rungs < 1:
        raise ValueError(f"need window ≥ 1 and rungs ≥ 1, got {window}, {rungs}")
    return clamp_probability(
        persist_probability
        if persist_probability is not None
        else 1.0 / (2.0 * (max_degree + 1))
    )


def backoff_rates(
    probability: Optional[float], regime: str, backoff_window: int, n: int, max_degree: int
) -> tuple[float, float]:
    """A back-off node's (base, floor) rates; validates the regime."""
    if regime not in ("fixed", "exponential"):
        raise ValueError(f"unknown back-off regime {regime!r}")
    if backoff_window < 1:
        raise ValueError(f"backoff_window must be ≥ 1, got {backoff_window}")
    if probability is not None:
        base = clamp_probability(float(probability))
    elif regime == "fixed":
        base = 1.0 / (max_degree + 1)
    else:
        base = 0.5
    return base, 1.0 / (2.0 * n)


class GklnMultiMessageProcess(Process):
    """One node of the GKLN queued multi-message discipline.

    State: the set of known message payloads, a FIFO of messages not
    yet acknowledged, and the round the head's ack window opened.
    Window expiry (the local MAC acknowledgment) is time-driven, so
    :meth:`_advance` folds any number of elapsed windows into the
    queue before every state read — idempotent, monotone in ``r``, and
    therefore safe to call from ``plan``/``next_state_change`` on
    both engines.

    The abstract MAC contract acks a ``bcast`` only once every
    ``G``-neighbor holds it; the simulated realization's time-based
    ack is *optimistic* — a window can elapse without reaching a faded
    neighbor, and a one-shot relay would then strand the message
    forever. The realization therefore keeps acknowledged messages
    available at a low background duty cycle
    (``persist_probability``, default ``1/(2(Δ+1))``): once the queue
    drains, the node rotates through everything it knows at that rate,
    which restores the layer's eventual-delivery guarantee without
    materially changing the ack-paced completion times the ``M*``
    experiments measure.
    """

    idle_feedback_noop = True

    def __init__(
        self,
        ctx: ProcessContext,
        *,
        assignment: MessageAssignment,
        window: int,
        rungs: int,
        persist_probability: Optional[float] = None,
    ) -> None:
        super().__init__(ctx)
        self.persist_probability = gkln_persist_rate(
            window, rungs, persist_probability, ctx.max_degree
        )
        self.assignment = assignment
        self.window = window
        self.rungs = rungs
        self._queue: deque[Message] = deque(_initial_messages(ctx, assignment))
        self._known = {message.payload for message in self._queue}
        self._all_known: list[Message] = list(self._queue)
        self._head_start: Optional[int] = 0 if self._queue else None
        self._plans: dict[tuple[float, int], RoundPlan] = {}

    def _plan(self, probability: float, message: Message) -> RoundPlan:
        """Plans are immutable, so each is built and validated once;
        known messages are never dropped, so their ids stay valid keys."""
        key = (probability, id(message))
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = RoundPlan(probability=probability, message=message)
        return plan

    def _advance(self, round_index: int) -> None:
        """Fold elapsed ack windows: every full window pops its head."""
        start = self._head_start
        if start is None:
            return
        while self._queue and start + self.window <= round_index:
            self._queue.popleft()
            start += self.window
        self._head_start = start if self._queue else None

    def _background(self, round_index: int) -> Optional[Message]:
        """The persistence rotation's message for this round, if any."""
        if not self._all_known or self.persist_probability <= 0.0:
            return None
        return self._all_known[(round_index + self.node_id) % len(self._all_known)]

    def plan(self, round_index: int) -> RoundPlan:
        self._advance(round_index)
        start = self._head_start
        if start is None:
            message = self._background(round_index)
            if message is None:
                return RoundPlan.silence()
            return self._plan(self.persist_probability, message)
        slot = round_index - start
        return self._plan(2.0 ** (-(slot % self.rungs) - 1), self._queue[0])

    def next_state_change(self, round_index: int) -> Optional[int]:
        # Same shape as the expiry: serving and persisting plans move
        # every round (ladder slot / rotation index); an empty node
        # stays silent until reception.
        self._advance(round_index)
        if self._head_start is not None or self._all_known:
            return round_index + 1
        return None

    def on_feedback(self, round_index: int, sent: bool, received: Optional[Message]) -> None:
        self._advance(round_index)
        if received is None or not received.is_data():
            return
        if self.assignment.index_of(received.payload) is None:
            return
        if received.payload in self._known:
            return
        self._known.add(received.payload)
        self._queue.append(received)
        self._all_known.append(received)
        if self._head_start is None:
            # The queue was idle: the new message's window opens next round.
            self._head_start = round_index + 1

    def describe_state(self) -> str:
        return (
            f"gkln(node={self.node_id}, known={len(self._known)}, "
            f"pending={len(self._queue)})"
        )


class BackoffMultiMessageProcess(Process):
    """One node of the simple back-off multi-message protocol.

    Every node holding at least one message transmits each round with
    the regime's probability, rotating deterministically through its
    knowledge list (offset by its node id so neighbors holding the
    same set do not always push the same message). ``"fixed"`` uses a
    constant rate; ``"exponential"`` halves the rate every
    ``backoff_window`` rounds without new knowledge — GLNP's back-off
    shape — and resets on every fresh reception.
    """

    idle_feedback_noop = True

    def __init__(
        self,
        ctx: ProcessContext,
        *,
        assignment: MessageAssignment,
        probability: Optional[float],
        regime: str,
        backoff_window: int,
    ) -> None:
        super().__init__(ctx)
        self.base_probability, self.min_probability = backoff_rates(
            probability, regime, backoff_window, ctx.n, ctx.max_degree
        )
        self.assignment = assignment
        self.regime = regime
        self.backoff_window = backoff_window
        self._known: list[Message] = _initial_messages(ctx, assignment)
        self._known_payloads = {message.payload for message in self._known}
        self._last_new = 0  # round of the most recent knowledge gain

    def _probability(self, round_index: int) -> float:
        if self.regime == "fixed":
            return self.base_probability
        epoch = max(0, round_index - self._last_new) // self.backoff_window
        return max(self.min_probability, self.base_probability * 2.0 ** (-epoch))

    def _current(self, round_index: int) -> Message:
        return self._known[(round_index + self.node_id) % len(self._known)]

    def plan(self, round_index: int) -> RoundPlan:
        if not self._known:
            return RoundPlan.silence()
        return RoundPlan(
            probability=self._probability(round_index),
            message=self._current(round_index),
        )

    def next_state_change(self, round_index: int) -> Optional[int]:
        return round_index + 1 if self._known else None

    def on_feedback(self, round_index: int, sent: bool, received: Optional[Message]) -> None:
        if received is None or not received.is_data():
            return
        if self.assignment.index_of(received.payload) is None:
            return
        if received.payload in self._known_payloads:
            return
        self._known_payloads.add(received.payload)
        self._known.append(received)
        # New knowledge resets the back-off clock from the next round.
        self._last_new = round_index + 1

    def describe_state(self) -> str:
        return f"backoff(node={self.node_id}, known={len(self._known)})"


# ----------------------------------------------------------------------
# Bank kernels: the processes above as struct-of-arrays lanes
# ----------------------------------------------------------------------
class _MultiMessageKernelBase:
    """Shared struct-of-arrays state for the multi-message kernels.

    Layout (``T`` trials × ``n`` nodes × ``k`` messages):

    * ``known[t][u]`` — a Python int bitmask, as in
      :class:`~repro.core.knowledge.KnowledgeVector`: bit ``i`` set iff
      node ``u`` of lane ``t`` holds message ``i`` (any ``k``).
    * ``order[t][u]`` — a Python list, the append-order log of message
      indices; both protocols rotate/queue over their knowledge in
      append order.
    * ``klen``   — (T, n) int64 length of that log, kept as an array
      because the vectorized :meth:`probabilities` read it.
    * ``messages[t][i]`` — the canonical :class:`Message` object for
      message ``i`` of trial ``t``, minted here exactly as its source
      process mints it, so deliveries compare equal to the reference
      engine's.

    Feedback and :meth:`message_for` touch one node at a time, so they
    work on the Python side and build no numpy scalars; feedback writes
    ``klen`` once per delivering round, for the nodes that learned.

    The bank steps its lanes one after another through one (T, n)
    batch per round, which holds because :meth:`probabilities` is
    cached per round (the first lane due at ``r`` computes every
    lane's row, folding elapsed ack windows once; the others read the
    cache) and ``apply_feedback(t, ...)`` writes only lane ``t``'s
    state, never the cached batch: a lane that steps after its
    bank-mates' feedback still reads the row its own state produced.
    """

    #: The MAC protocols are never provably silent (a node that knows
    #: anything keeps a nonzero duty cycle), so the kernels answer no
    #: skip horizon — lanes run with round skipping disabled.
    supports_skip = False

    def __init__(self, lanes: Sequence[Mapping], networks: Sequence) -> None:
        self.trials = len(lanes)
        self.n = networks[0].n
        self.assignments = [lane["assignment"] for lane in lanes]
        self.k = max(assignment.k for assignment in self.assignments)
        self.known: list[list[int]] = [[0] * self.n for _ in range(self.trials)]
        self.order: list[list[list[int]]] = [
            [[] for _ in range(self.n)] for _ in range(self.trials)
        ]
        self.klen = np.zeros((self.trials, self.n), dtype=np.int64)
        self.messages: list[list[Optional[Message]]] = [
            [None] * self.k for _ in range(self.trials)
        ]
        # Canonical objects let feedback resolve a delivery's message
        # index by identity instead of payload inspection; the
        # ``messages`` lists pin the objects, so ids stay unique.
        self._index_by_id: dict[int, int] = {}
        self._r = -1
        self._probs: Optional[np.ndarray] = None
        # Each source starts out knowing its own messages, logged in
        # ascending index order like the process's initial queue.
        for t, assignment in enumerate(self.assignments):
            for index, source in enumerate(assignment.sources):
                message = Message(
                    MessageKind.DATA,
                    origin=source,
                    payload=assignment.payload(index),
                    tag=index,
                )
                self.messages[t][index] = message
                self._index_by_id[id(message)] = index
                self.known[t][source] |= 1 << index
                self.order[t][source].append(index)
        self.klen[:] = [[len(log) for log in logs] for logs in self.order]

    def _learn(self, t: int, deliveries: Sequence[Delivery]) -> list[int]:
        """Log each delivery's message at its receiver; the learners.

        Returns the receivers that learned a new message, in delivery
        order (a round delivers to each receiver at most once), and
        brings their ``klen`` entries up to date.
        """
        known = self.known[t]
        order = self.order[t]
        index_by_id = self._index_by_id
        learned: list[int] = []
        for u, _, message in deliveries:
            # Kernel lanes mint every transmitted message through
            # :meth:`message_for`, so deliveries carry the canonical
            # objects and resolve by identity; payload inspection keeps
            # parity for any non-canonical (but valid) message object.
            index = index_by_id.get(id(message))
            if index is None:
                if not message.is_data():
                    continue
                index = self.assignments[t].index_of(message.payload)
                if index is None:
                    continue
            mask = known[u]
            if mask >> index & 1:
                continue
            known[u] = mask | 1 << index
            order[u].append(index)
            learned.append(u)
        if learned:
            self.klen[t, learned] = [len(order[u]) for u in learned]
        return learned

    def expected_exact(self, t: int, r: int) -> float:
        """The round's expected transmitter count: the reference
        engine's ``math.fsum`` of lane ``t``'s row, which is correctly
        rounded and hence independent of summation order."""
        return math.fsum(self.probabilities(r)[t].tolist())

    def certain(self, t: int) -> bool:
        """Never claimed: the ack-window fold gives no O(1) answer, so
        the coin stage always draws."""
        return False


class _GklnBankKernel(_MultiMessageKernelBase):
    """All trials of a GKLN queued-discipline bank, as arrays.

    Mirrors :class:`GklnMultiMessageProcess`
    exactly: the pending FIFO is the suffix ``order[qhead:klen]`` of the
    append-order log (relay-once means every learned message is queued
    exactly once, in learn order), ``head_start`` is the round the
    head's ack window opened (−1 = idle), and elapsed windows are folded
    by one vectorized division instead of a per-node ``while`` loop.
    """

    def __init__(self, lanes: Sequence[Mapping], seeds, networks: Sequence) -> None:
        super().__init__(lanes, networks)
        self.window = np.array([[lane["window"]] for lane in lanes], dtype=np.int64)
        self.rungs = np.array([[lane["rungs"]] for lane in lanes], dtype=np.int64)
        self.persist = np.array(
            [
                [
                    gkln_persist_rate(
                        lane["window"],
                        lane["rungs"],
                        lane["persist_probability"],
                        network.max_degree,
                    )
                ]
                for lane, network in zip(lanes, networks)
            ],
            dtype=np.float64,
        )
        # Every initial message is queued; a node holding any opens its
        # head's ack window in round 0.
        self.qhead = np.zeros((self.trials, self.n), dtype=np.int64)
        self.head_start = np.where(self.klen > 0, 0, -1)

    def probabilities(self, r: int) -> np.ndarray:
        """(T, n) transmission probabilities for round ``r`` (cached)."""
        if r == self._r:
            return self._probs
        self._r = r
        head_start, qhead, klen = self.head_start, self.qhead, self.klen
        # Fold elapsed ack windows: every full window pops one head.
        started = head_start >= 0
        pops = np.where(
            started,
            np.minimum((r - head_start) // self.window, klen - qhead),
            0,
        )
        np.maximum(pops, 0, out=pops)
        qhead += pops
        head_start += pops * self.window
        head_start[started & (qhead >= klen)] = -1
        serving = head_start >= 0
        # Serving nodes climb the decay ladder (exact powers of two, so
        # ldexp matches the process's ``2.0 ** (-slot % rungs - 1)``
        # bit-for-bit); idle nodes with knowledge persist at the
        # background duty cycle; everyone else is silent.
        ladder = decay_ladder(r - head_start, self.rungs)
        background = np.where((klen > 0) & (self.persist > 0.0), self.persist, 0.0)
        self._probs = np.where(serving, ladder, background)
        return self._probs

    def message_for(self, t: int, u: int) -> Message:
        """The message lane ``t``'s node ``u`` transmitted this round."""
        log = self.order[t][u]
        if self.head_start.item(t, u) >= 0:
            index = log[self.qhead.item(t, u)]
        else:
            index = log[(self._r + u) % len(log)]
        return self.messages[t][index]

    def apply_feedback(self, t: int, r: int, deliveries: Sequence[Delivery]) -> None:
        """Sparse reception feedback (idle/transmit feedback are no-ops)."""
        learned = self._learn(t, deliveries)
        if learned:
            # A learner whose queue was idle opens its window next round.
            head_start = self.head_start[t]
            idle = np.array(learned)
            idle = idle[head_start[idle] < 0]
            head_start[idle] = r + 1


class _BackoffBankKernel(_MultiMessageKernelBase):
    """All trials of a simple back-off bank, as arrays.

    Mirrors :class:`BackoffMultiMessageProcess`:
    nodes holding messages transmit at the regime's rate (fixed, or
    halving per quiet ``backoff_window`` — again exact powers of two via
    ``ldexp``) and rotate through their knowledge log offset by node id.
    """

    def __init__(self, lanes: Sequence[Mapping], seeds, networks: Sequence) -> None:
        super().__init__(lanes, networks)
        rates = [
            backoff_rates(
                lane["probability"],
                lane["regime"],
                lane["backoff_window"],
                self.n,
                network.max_degree,
            )
            for lane, network in zip(lanes, networks)
        ]
        self.exponential = np.array([[lane["regime"] == "exponential"] for lane in lanes])
        self.backoff_window = np.array(
            [[lane["backoff_window"]] for lane in lanes], dtype=np.int64
        )
        self.base = np.array([[base] for base, _ in rates], dtype=np.float64)
        self.floor = np.array([[floor] for _, floor in rates], dtype=np.float64)
        self.last_new = np.zeros((self.trials, self.n), dtype=np.int64)

    def probabilities(self, r: int) -> np.ndarray:
        """(T, n) transmission probabilities for round ``r`` (cached)."""
        if r == self._r:
            return self._probs
        self._r = r
        epoch = np.maximum(0, r - self.last_new) // self.backoff_window
        backed = np.maximum(self.floor, self.base * np.ldexp(1.0, -epoch))
        rate = np.where(self.exponential, backed, self.base)
        self._probs = np.where(self.klen > 0, rate, 0.0)
        return self._probs

    def message_for(self, t: int, u: int) -> Message:
        """The message lane ``t``'s node ``u`` transmitted this round."""
        log = self.order[t][u]
        return self.messages[t][log[(self._r + u) % len(log)]]

    def apply_feedback(self, t: int, r: int, deliveries: Sequence[Delivery]) -> None:
        """Sparse reception feedback (idle/transmit feedback are no-ops)."""
        learned = self._learn(t, deliveries)
        if learned:
            # New knowledge resets the back-off clock from next round.
            self.last_new[t, learned] = r + 1


# ----------------------------------------------------------------------
# Spec builders
# ----------------------------------------------------------------------
def make_gkln_multi_message(
    n: int,
    max_degree: int,
    assignment: MessageAssignment,
    mac: SimulatedMACLayer,
    *,
    window: Optional[int] = None,
    persist_probability: Optional[float] = None,
) -> AlgorithmSpec:
    """Spec for the GKLN queued protocol over a simulated MAC layer."""
    rungs = (
        mac.ladder_rungs(max_degree)
        if hasattr(mac, "ladder_rungs")
        else log2_ceil(max_degree + 1)
    )
    resolved_window = window if window is not None else mac.f_ack(n, max_degree)

    factory = partial(
        GklnMultiMessageProcess,
        assignment=assignment,
        window=resolved_window,
        rungs=rungs,
        persist_probability=persist_probability,
    )

    return AlgorithmSpec(
        name=f"gkln-multi-message(k={assignment.k}, W={resolved_window})",
        factory=factory,
        metadata={
            "family": "mac-multi-message",
            "problem": "multi-message",
            "mac_discipline": "queued",
            "k": assignment.k,
            "sources": sorted(assignment.sources),
            "ack_window": resolved_window,
            "rungs": rungs,
        },
        lane=LaneRecipe(factory, n, _GklnBankKernel),
    )


def make_backoff_multi_message(
    n: int,
    assignment: MessageAssignment,
    *,
    probability: Optional[float] = None,
    regime: str = "fixed",
    backoff_window: Optional[int] = None,
) -> AlgorithmSpec:
    """Spec for the simple back-off protocol (no ack pacing)."""
    resolved_window = backoff_window if backoff_window is not None else log2_ceil(n)

    factory = partial(
        BackoffMultiMessageProcess,
        assignment=assignment,
        probability=probability,
        regime=regime,
        backoff_window=resolved_window,
    )

    label = regime if probability is None else f"{regime}, p={probability:g}"
    return AlgorithmSpec(
        name=f"backoff-multi-message(k={assignment.k}, {label})",
        factory=factory,
        metadata={
            "family": "mac-multi-message",
            "problem": "multi-message",
            "mac_discipline": "concurrent",
            "k": assignment.k,
            "sources": sorted(assignment.sources),
            "regime": regime,
            "backoff_window": resolved_window,
        },
        lane=LaneRecipe(factory, n, _BackoffBankKernel),
    )


def _context_mac(ctx) -> SimulatedMACLayer:
    """The spec's MAC layer, defaulting to the simulated realization.

    Oracle-mode MACs are accepted too: their guarantee functions size
    the ack window identically, and when the trial actually runs in
    oracle mode the per-node processes built here are never invoked.
    """
    return ctx.mac if ctx.mac is not None else SimulatedMACLayer()


@register_algorithm("gkln-multi-message")
def _spec_gkln_multi_message(
    ctx,
    *,
    ack_window: Optional[int] = None,
    persist_probability: Optional[float] = None,
) -> AlgorithmSpec:
    return make_gkln_multi_message(
        ctx.graph.n,
        ctx.graph.max_degree,
        spec_messages(ctx),
        _context_mac(ctx),
        window=None if ack_window is None else int(ack_window),
        persist_probability=(
            None if persist_probability is None else float(persist_probability)
        ),
    )


@register_algorithm("backoff-multi-message")
def _spec_backoff_multi_message(
    ctx,
    *,
    probability: Optional[float] = None,
    regime: str = "fixed",
    backoff_window: Optional[int] = None,
) -> AlgorithmSpec:
    return make_backoff_multi_message(
        ctx.graph.n,
        spec_messages(ctx),
        probability=None if probability is None else float(probability),
        regime=str(regime),
        backoff_window=None if backoff_window is None else int(backoff_window),
    )
