"""Trial batching for the fast engine: struct-of-arrays protocol kernels
and the bank scheduler.

The fast engine (:class:`~repro.core.fastpath.BitsetRadioNetworkEngine`,
``engine="bank"``) batches *across nodes* within one trial; this module
batches *across trials*: an entire seed bank of independent executions
advances in shared bank rounds, and the per-round numpy work — Bernoulli
comparisons and transmit-mask packing — runs once for the lanes due in
a round instead of once per trial.

Three layers cooperate:

1. **Per-trial lanes.** Each trial owns one fast engine, built with the
   bank's shared kernel and its lane index. A standalone engine holds
   a kernel of its own (a bank of one) and runs the shared per-trial
   skip loop; the cross-trial wins need the batch entry points below.
   A bank that no kernel serves never reaches this module:
   :func:`~repro.core.engine.resolve_engine_choice` routes its trials
   to the reference engine.
2. **Vectorized protocol kernels.** Two families replace the per-node
   Python state machines with struct-of-arrays state. A kernel is
   looked up by the :class:`~repro.algorithms.base.LaneRecipe` the
   bank's specs carry (:func:`bank_kernel_class`) and built from those
   recipes and the trial seeds (:func:`build_bank_kernel`) where the
   bank runs: no per-node process exists on this path.

   * the **multi-message MAC protocols**
     (:class:`~repro.algorithms.multi_message.GklnMultiMessageProcess`,
     :class:`~repro.algorithms.multi_message.BackoffMultiMessageProcess`)
     keep knowledge as one int bitmask per (trial, node) — any message
     count — with append-order message logs, ack windows and back-off
     epochs folded by vectorized index arithmetic;
   * the **single-message decay family** (plain decay, permuted decay,
     static local decay, round robin, uniform) keeps (trials × nodes)
     informed/participation state (with per-node window ends for
     finite ``active_phases`` / ``epochs_per_node``) and shares one
     ``np.ldexp`` probability ladder (or schedule rung) across every
     lane per round — one scalar probability per lane per round covers
     the whole active set, which also makes the expected-transmitter
     sum exact in O(1).

   The kernels reproduce the reference engine's plans bit-for-bit
   (probabilities are exact powers of two via ``ldexp``; message
   identity is canonical), which ``tests/test_engine_equivalence.py``
   holds to full-trace identity.
3. **The bank scheduler.** :func:`run_bank_batch` runs each lane on
   its own clock. A bank round is the earliest round any lane is due
   at; its transmission coins are drawn as a (due lanes × nodes)
   batch — one ``Generator.random(out=row)`` per lane against the same
   per-trial ``("engine", "coins")`` stream the other engines consume,
   so per-trial draw order is untouched — then compared and bit-packed
   in one shot. Lanes whose stop condition fires (or whose per-lane
   ``max_rounds`` cap elapses — caps may differ across lanes) retire
   from the bank: their RNGs stop drawing, exactly like a serial run
   ending. After each round a lane asks its own skip horizon, the hook
   a standalone ``run()`` asks (for the single-message kernels,
   :meth:`next_active_round`), emits the provably silent span at once
   and parks until the horizon, so it executes exactly the rounds its
   solo run executes. The span goes through one
   :meth:`~repro.core.engine.RadioNetworkEngine._emit_quiet_span`
   when every observer on the lane accepts the batched quiet-span
   hook, and degrades to per-round records otherwise.

Every adversary class is served. Adaptive adversaries see their typed
views built from the lane's probability row and transmitter mask, both
drawn before stage 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter_ns
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.adversaries.base import AdversaryClass
from repro.algorithms.base import AlgorithmSpec, clamp_probability, log2_ceil
from repro.algorithms.decay import PlainDecayGlobalProcess, decay_ladder
from repro.algorithms.global_broadcast import ObliviousGlobalBroadcastProcess
from repro.algorithms.local_static import StaticLocalDecayProcess
from repro.algorithms.multi_message import (
    BackoffMultiMessageProcess,
    GklnMultiMessageProcess,
    backoff_rates,
    gkln_persist_rate,
)
from repro.algorithms.round_robin import RoundRobinGlobalProcess, RoundRobinLocalProcess
from repro.algorithms.uniform import UniformGlobalProcess, UniformLocalProcess
from repro.core.bits import BitStream
from repro.core.engine import ExecutionResult, StopCondition
from repro.core.fastpath import BitsetRadioNetworkEngine
from repro.core.messages import Message, MessageKind
from repro.core.rng import spawn_rng
from repro.core.trace import Delivery
from repro.obs.recorder import inc as _obs_inc
from repro.obs.recorder import recorder as _obs_recorder

__all__ = [
    "BankLane",
    "bank_kernel_class",
    "build_bank_kernel",
    "run_bank_batch",
]

#: Sentinel round index for per-node state that is not scheduled to
#: change ("uninformed", "never joins"): far beyond any execution while
#: comfortably inside int64 arithmetic.
_NEVER = 1 << 62

# ----------------------------------------------------------------------
# Vectorized protocol kernels: multi-message MAC family
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


class _GklnBankKernel(_MultiMessageKernelBase):
    """All trials of a GKLN queued-discipline bank, as arrays.

    Mirrors :class:`~repro.algorithms.multi_message.GklnMultiMessageProcess`
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

    Mirrors :class:`~repro.algorithms.multi_message.BackoffMultiMessageProcess`:
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
# Vectorized protocol kernels: single-message decay family
# ----------------------------------------------------------------------
class _SingleMessageKernelBase:
    """Shared scaffolding for the single-message decay-family kernels.

    These protocols share one structural property the kernels exploit:
    in any given round, every transmitting node of a lane declares the
    *same* probability (a ladder rung, a schedule rung, a constant
    rate, or the certain 1.0 of a slot/announcement). Each kernel's
    :meth:`probabilities` therefore fills, per lane:

    * ``_counts[t]`` — how many nodes hold the live probability;
    * ``_rungs[t]``  — that probability.

    which makes :meth:`expected_exact` O(1): ``count × p`` is the
    *correctly rounded* value of the real sum of ``count`` copies of
    ``p`` (``count`` is exactly representable, and ``fsum`` rounds the
    same real number once), so it is bit-identical to the reference
    engine's fsum — the licence round skipping needs.

    :meth:`probabilities` must be a *pure* function of the
    feedback-driven state and ``r``: computing any other round in
    between leaves round ``r``'s rows, ``_counts`` and ``_rungs``
    unchanged. The bank scheduler relies on it — it computes every
    lane's row each bank round, including lanes parked past that round.

    State changes ride deliveries only (the mirrored processes'
    idle/transmit feedback are no-ops), so the kernels also answer
    :meth:`next_active_round`, the fast engine's skip horizon:
    ``supports_skip`` stays True and lanes keep
    event-driven skipping, compounding with the struct-of-arrays plan
    stage.
    """

    supports_skip = True

    def __init__(self, lanes: Sequence[Mapping], networks: Sequence) -> None:
        self.trials = len(lanes)
        self.n = networks[0].n
        self._r = -1
        self._probs: Optional[np.ndarray] = None
        self._counts: Optional[np.ndarray] = None
        self._rungs: Optional[np.ndarray] = None

    def _sources(self, lanes: Sequence[Mapping]) -> None:
        """Global protocols: each lane's source and the message it mints."""
        self.source = np.array([lane["source"] for lane in lanes], dtype=np.int64)
        self.message = [
            Message(MessageKind.DATA, origin=lane["source"], payload=lane["payload"])
            for lane in lanes
        ]

    def _broadcasters(self, lanes: Sequence[Mapping]) -> tuple[np.ndarray, list]:
        """Local protocols: the (T, n) broadcaster mask and, per lane, the
        message each broadcaster mints (origin = own id)."""
        role = np.zeros((self.trials, self.n), dtype=bool)
        messages = []
        for t, lane in enumerate(lanes):
            members = sorted(lane["broadcasters"])
            role[t, members] = True
            messages.append(
                {
                    u: Message(MessageKind.DATA, origin=u, payload=lane["payload"])
                    for u in members
                }
            )
        return role, messages

    def expected_exact(self, t: int, r: int) -> float:
        """The round's expected transmitter count, bit-identical to fsum."""
        if r != self._r:
            self.probabilities(r)
        count = int(self._counts[t])
        if not count:
            return 0.0
        return count * float(self._rungs[t])

    def apply_feedback(self, t: int, r: int, deliveries: Sequence[Delivery]) -> None:
        """Reception feedback; the static schedules have none."""

    def next_active_round(self, t: int, r: int) -> Optional[int]:
        """First round > ``r`` on which lane ``t`` could transmit.

        The kernels' only skip horizon: every round in ``(r, result)``
        has zero transmission probability for every node of the lane,
        assuming no deliveries land in between (which is vacuous —
        all-silent rounds deliver nothing). ``None`` means the lane
        never transmits again without a delivery. The promise holds
        whatever round ``r`` itself did, so a skip loop may go straight
        from one slot round to the next. The default promises nothing
        beyond the next round, disabling the fast-forward for kernels
        that don't override it.
        """
        return r + 1

    def _announcement_round(self, source: np.ndarray) -> np.ndarray:
        """Round-0 probabilities: the certain source announcement."""
        probs = np.zeros((self.trials, self.n))
        probs[np.arange(self.trials), source] = 1.0
        self._counts = np.ones(self.trials, dtype=np.int64)
        self._rungs = np.ones(self.trials)
        return probs


class _PlainDecayBankKernel(_SingleMessageKernelBase):
    """All trials of a BGI plain-decay bank, as arrays.

    Mirrors :class:`~repro.algorithms.decay.PlainDecayGlobalProcess`:
    ``start[t, u]`` is the node's ``participate_from`` (every join lies
    on a phase boundary — ``start ≡ 1 mod L`` — so one ladder rung
    ``2^{-((r-1) mod L)-1}`` serves the whole active set of a lane),
    ``end[t, u]`` is the first round after its finite ``active_phases``
    window (``_active_until``), ``_NEVER`` marks uninformed nodes
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
        self.start = np.full((self.trials, self.n), _NEVER, dtype=np.int64)
        self.end = np.full((self.trials, self.n), _NEVER, dtype=np.int64)
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
            if start[t, u] != _NEVER or not delivery.message.is_data():
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


class _PermutedDecayBankKernel(_SingleMessageKernelBase):
    """All trials of a Section-4.1 permuted-decay bank, as arrays.

    Mirrors :class:`~repro.algorithms.global_broadcast.ObliviousGlobalBroadcastProcess`:
    ``join_epoch[t, u]`` is the first epoch node ``u`` participates in
    (``_NEVER`` = uninformed; the source never joins — its role ends
    with the announcement) and ``end_epoch[t, u]`` the first epoch after
    a finite ``epochs_per_node`` budget (``_NEVER`` = open-ended).
    Lemma 4.2's sharing structure does the rest:
    all active nodes of a lane read the same chunk of ``S`` for the same
    epoch, so the round's rung is one schedule lookup per lane.
    """

    def __init__(self, lanes: Sequence[Mapping], seeds, networks: Sequence) -> None:
        super().__init__(lanes, networks)
        self.source = np.array([lane["source"] for lane in lanes], dtype=np.int64)
        self.schedule = [lane["schedule"] for lane in lanes]
        self.num_chunks = 2 * log2_ceil(self.n)
        self.epoch_len = [schedule.rounds_per_call for schedule in self.schedule]
        self.budget = [lane["epochs_per_node"] for lane in lanes]
        # The source's ⟨m', S⟩: S is drawn from the private stream that
        # build_processes would hand node ``source``, so its bits match.
        self.message = [
            Message(
                MessageKind.DATA,
                origin=lane["source"],
                payload=lane["payload"],
                shared_bits=BitStream.random(
                    spawn_rng(seed, "process", lane["source"]),
                    lane["schedule"].bits_per_call * self.num_chunks,
                ),
            )
            for lane, seed in zip(lanes, seeds)
        ]
        self.shared = [message.shared_bits for message in self.message]
        self.join_epoch = np.full((self.trials, self.n), _NEVER, dtype=np.int64)
        self.end_epoch = np.full((self.trials, self.n), _NEVER, dtype=np.int64)

    def probabilities(self, r: int) -> np.ndarray:
        """(T, n) transmission probabilities for round ``r`` (cached)."""
        if r == self._r:
            return self._probs
        self._r = r
        if r == 0:
            self._probs = self._announcement_round(self.source)
            return self._probs
        probs = np.empty((self.trials, self.n))
        counts = np.empty(self.trials, dtype=np.int64)
        rungs = np.empty(self.trials)
        for t in range(self.trials):
            epoch, round_in_epoch = divmod(r, self.epoch_len[t])
            schedule = self.schedule[t]
            chunk_offset = (epoch % self.num_chunks) * schedule.bits_per_call
            # One schedule lookup serves the lane's whole active set —
            # the same call plan() makes, so the float is identical.
            p = schedule.probability(self.shared[t], chunk_offset, round_in_epoch)
            active = (self.join_epoch[t] <= epoch) & (epoch < self.end_epoch[t])
            np.multiply(active, p, out=probs[t])
            counts[t] = active.sum()
            rungs[t] = p
        self._probs = probs
        self._counts = counts
        self._rungs = rungs
        return probs

    def message_for(self, t: int, u: int) -> Message:
        """Every transmitter relays the trial's canonical ⟨m', S⟩."""
        return self.message[t]

    def apply_feedback(self, t: int, r: int, deliveries: Sequence[Delivery]) -> None:
        """First ⟨m', S⟩ reception adopts; join at the next epoch boundary."""
        join = self.join_epoch
        source = int(self.source[t])
        epoch_len = self.epoch_len[t]
        for delivery in deliveries:
            u = delivery.receiver
            if u == source or join[t, u] != _NEVER:
                continue
            message = delivery.message
            if not message.is_data() or message.shared_bits is None:
                continue
            # First epoch boundary strictly after this round.
            join[t, u] = (r + 1 + epoch_len - 1) // epoch_len
            if self.budget[t] is not None:
                self.end_epoch[t, u] = join[t, u] + self.budget[t]

    def next_active_round(self, t: int, r: int) -> Optional[int]:
        # Each relay's first round > r inside its epochs [join, end).
        # The source's role ends with the round-0 announcement, so with
        # no relay left only a delivery can wake the lane.
        joins = self.join_epoch[t]
        joined = joins != _NEVER
        epoch_len = self.epoch_len[t]
        first = np.maximum(joins[joined] * epoch_len, r + 1)
        first = first[first // epoch_len < self.end_epoch[t][joined]]
        if first.size == 0:
            return None
        return int(first.min())


class _StaticDecayBankKernel(_SingleMessageKernelBase):
    """All trials of an [8]-style static local decay bank, as arrays.

    Mirrors :class:`~repro.algorithms.local_static.StaticLocalDecayProcess`:
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


class _RoundRobinLocalBankKernel(_SingleMessageKernelBase):
    """All trials of a footnote-4 round-robin local bank, as arrays.

    Mirrors :class:`~repro.algorithms.round_robin.RoundRobinLocalProcess`:
    broadcaster ``u`` transmits (certainly) iff ``r ≡ slots[u] (mod n)``;
    roles and slots never change, so the plan is one equality compare.
    """

    def __init__(self, lanes: Sequence[Mapping], seeds, networks: Sequence) -> None:
        super().__init__(lanes, networks)
        self.slots = _slot_rows(lanes, self.n)
        self.role, self.messages = self._broadcasters(lanes)

    def probabilities(self, r: int) -> np.ndarray:
        """(T, n) transmission probabilities for round ``r`` (cached)."""
        if r == self._r:
            return self._probs
        self._r = r
        certain = self.role & (self.slots == r % self.n)
        self._probs = certain.astype(np.float64)
        self._counts = certain.sum(axis=1)
        self._rungs = np.ones(self.trials)
        return self._probs

    def message_for(self, t: int, u: int) -> Message:
        """Broadcasters carry per-node messages (origin = own id)."""
        return self.messages[t][u]

    def next_active_round(self, t: int, r: int) -> Optional[int]:
        return _next_slot_round_after(self.slots[t][self.role[t]], r, self.n)


class _RoundRobinGlobalBankKernel(_SingleMessageKernelBase):
    """All trials of a footnote-5 round-robin global bank, as arrays.

    Mirrors :class:`~repro.algorithms.round_robin.RoundRobinGlobalProcess`:
    informed nodes transmit (certainly) in their slot and adopt the
    message on first data reception.
    """

    def __init__(self, lanes: Sequence[Mapping], seeds, networks: Sequence) -> None:
        super().__init__(lanes, networks)
        self._sources(lanes)
        self.slots = _slot_rows(lanes, self.n)
        self.informed = np.zeros((self.trials, self.n), dtype=bool)
        self.informed[np.arange(self.trials), self.source] = True

    def probabilities(self, r: int) -> np.ndarray:
        """(T, n) transmission probabilities for round ``r`` (cached)."""
        if r == self._r:
            return self._probs
        self._r = r
        certain = self.informed & (self.slots == r % self.n)
        self._probs = certain.astype(np.float64)
        self._counts = certain.sum(axis=1)
        self._rungs = np.ones(self.trials)
        return self._probs

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
        return _next_slot_round_after(self.slots[t][self.informed[t]], r, self.n)


def _slot_rows(lanes: Sequence[Mapping], n: int) -> np.ndarray:
    """(T, n) slot table: each lane's ``slots``, or the identity."""
    return np.array(
        [np.arange(n) if lane["slots"] is None else lane["slots"] for lane in lanes],
        dtype=np.int64,
    )


def _next_slot_round_after(slots: np.ndarray, r: int, n: int) -> Optional[int]:
    """First round *strictly* after ``r`` on which any of ``slots`` fires.

    A slot firing at ``r`` itself maps a full cycle forward: the skip
    horizon asks "when does the *next* slot land?", possibly while
    standing on one.
    """
    if slots.size == 0:
        return None
    if n == 1:
        return r + 1
    return r + 1 + int(((slots - (r + 1)) % n).min())


class _UniformLocalBankKernel(_SingleMessageKernelBase):
    """All trials of a constant-rate local bank, as arrays.

    Mirrors :class:`~repro.algorithms.uniform.UniformLocalProcess`:
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


class _UniformGlobalBankKernel(_SingleMessageKernelBase):
    """All trials of a constant-rate global bank, as arrays.

    Mirrors :class:`~repro.algorithms.uniform.UniformGlobalProcess`:
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


#: Kernels by the process class a :class:`LaneRecipe`'s factory builds.
_KERNELS = {
    GklnMultiMessageProcess: _GklnBankKernel,
    BackoffMultiMessageProcess: _BackoffBankKernel,
    PlainDecayGlobalProcess: _PlainDecayBankKernel,
    ObliviousGlobalBroadcastProcess: _PermutedDecayBankKernel,
    StaticLocalDecayProcess: _StaticDecayBankKernel,
    RoundRobinLocalProcess: _RoundRobinLocalBankKernel,
    RoundRobinGlobalProcess: _RoundRobinGlobalBankKernel,
    UniformLocalProcess: _UniformLocalBankKernel,
    UniformGlobalProcess: _UniformGlobalBankKernel,
}


def bank_kernel_class(algorithms: Sequence[AlgorithmSpec], networks: Sequence):
    """The kernel class that serves this bank, or ``None``.

    Lane ``t`` runs ``algorithms[t]`` on ``networks[t]``. The class is
    the one kept for the process class that every spec's
    :meth:`~repro.algorithms.base.AlgorithmSpec.kernel_lane` recipe
    builds. A bank with a spec that has no recipe, recipes over
    different classes or over a class without a kernel, or a recipe
    built for another node count gets ``None``, and
    :func:`~repro.core.engine.resolve_engine_choice` routes the trials
    to the reference engine. The lookup builds nothing.
    """
    if not algorithms:
        return None
    n = networks[0].n
    recipes = [spec.kernel_lane() for spec in algorithms]
    classes = {recipe and recipe.factory.func for recipe in recipes}
    kernel = _KERNELS.get(classes.pop()) if len(classes) == 1 else None
    if kernel is None or any(
        recipe.n != n or network.n != n for recipe, network in zip(recipes, networks)
    ):
        return None
    return kernel


def build_bank_kernel(
    algorithms: Sequence[AlgorithmSpec], seeds: Sequence[int], networks: Sequence
):
    """A vectorized protocol kernel for this bank, or ``None``.

    Lane ``t`` runs ``algorithms[t]`` with trial seed ``seeds[t]`` on
    ``networks[t]``. The kernel is :func:`bank_kernel_class`'s, built
    from the specs' recipes alone: no per-node process is constructed.
    Each kernel built counts one ``bank.kernel.hit``.
    """
    kernel = bank_kernel_class(algorithms, networks)
    if kernel is None:
        return None
    _obs_inc("bank.kernel.hit")
    return kernel([spec.kernel_lane().params for spec in algorithms], seeds, networks)


# ----------------------------------------------------------------------
# The bank scheduler
# ----------------------------------------------------------------------
@dataclass
class BankLane:
    """One trial riding the bank: engine, stop condition, round cap.

    ``max_rounds`` (``None`` = the batch-wide cap) lets trials with
    heterogeneous round budgets share one bank: a lane retires at its
    own cap while the rest keep running.
    """

    engine: BitsetRadioNetworkEngine
    stop: Optional[StopCondition] = None
    max_rounds: Optional[int] = None


def run_bank_batch(
    lanes: Sequence[BankLane], *, max_rounds: int
) -> list[ExecutionResult]:
    """Run a bank of single-trial lanes, each on its own round clock.

    Per-lane results are identical to running each engine's ``run()``
    separately — the batch changes *where* the numpy work happens, not
    what any trial observes:

    * coins: one ``Generator.random(out=row)`` per lane per round (the
      lane's own per-trial stream, same draw count as a serial run),
      then one (active × n) comparison + ``packbits`` for the bank;
    * plans: kernel-backed lanes share one (T, n) probability batch,
      and skip-capable kernels answer the expected-transmitter sum in
      O(1) (bit-identical to fsum) instead of an O(n) reduction;
    * reception: each lane's engine resolves its own round with
      :meth:`~repro.core.fastpath.BitsetRadioNetworkEngine._resolve`,
      the word rule over the topology's word rows (the bigint scan
      past ``n = 2048``), exactly as its standalone run does.

    Lanes whose stop condition fires — or whose per-lane ``max_rounds``
    cap elapses — retire immediately: they stop drawing coins and stop
    observing rounds, exactly like a serial execution that ended, while
    the surviving lanes run on.

    Each bank round is the earliest round any surviving lane is due at,
    and only the lanes due at it run. Without skipping every lane is due
    every round. When every lane was built with ``skip=True``, a lane
    that just ran round ``r`` asks its own
    :meth:`~repro.core.fastpath.BitsetRadioNetworkEngine._skip_horizon`
    ``h`` (clamped to its cap) — the hook a standalone ``run()`` asks —
    emits ``[r + 1, h)`` at once and is next due at ``h``, so it executes
    exactly the rounds its standalone run executes. A lane whose
    observers all accept the batched quiet-span hook emits the span
    through one
    :meth:`~repro.core.engine.RadioNetworkEngine._emit_quiet_span`
    (one RNG jump-ahead, one observer call); any other lane emits round
    by round through ``_emit_quiet_rounds``, exactly as ``run()`` does,
    so its records and coin stream stay bit-identical to its standalone
    run.
    """
    if max_rounds < 0:
        raise ValueError(f"max_rounds must be non-negative, got {max_rounds}")
    results: list[Optional[ExecutionResult]] = [None] * len(lanes)
    active: list[int] = []
    caps: list[int] = []
    for i, lane in enumerate(lanes):
        lane.engine._ensure_started()
        caps.append(
            max_rounds if lane.max_rounds is None else min(lane.max_rounds, max_rounds)
        )
        if lane.stop is not None and lane.stop():
            results[i] = ExecutionResult(rounds=0, solved=True, solve_round=-1)
        elif caps[i] <= 0:
            results[i] = ExecutionResult(rounds=caps[i], solved=False, solve_round=None)
        else:
            active.append(i)
    if not lanes:
        return []
    # Tracing: each lane accumulates its own phase spans/counters and
    # emits its own trial record on retirement, exactly as a standalone
    # run() would. Batched stages (the coin comparison and packbits)
    # are timed once and credited evenly across the lanes they served.
    rec = _obs_recorder()
    traced = rec is not None
    if traced:
        for lane in lanes:
            lane.engine._trace_begin(rec)

    def _credit(phase: str, ns: int, members: Sequence[int]) -> None:
        share = ns // len(members)
        for i in members:
            lanes[i].engine._phase_ns[phase] += share
    n = lanes[0].engine.network.n
    nbytes = (n + 7) // 8
    bank_skip = all(lane.engine.skip for lane in lanes)
    # Batched quiet-span emission is engaged per lane, and only when
    # every observer on that lane accepts the span hook; lanes carrying
    # a per-round consumer (e.g. a TraceCollector) keep materializing
    # each quiet round's record.
    # Adaptive link processes read the retained history, which batched
    # spans do not append to, so their lanes emit round by round too.
    span_ok = [
        lane.engine.link_process.adversary_class is AdversaryClass.OBLIVIOUS
        and all(
            callable(getattr(observer, "on_round_batch", None))
            for observer in lane.engine.observers
        )
        for lane in lanes
    ]
    coin_buffer = np.empty((len(lanes), n), dtype=np.float64)
    prob_buffer = np.empty((len(lanes), n), dtype=np.float64)
    # Each lane runs on its own clock: ``due[i]`` is the next round
    # lane i executes. A bank round is the earliest due round, and only
    # the lanes due at it run; a lane parked past it (fast-forwarded
    # over a provably silent span) sits it out. Without skipping every
    # lane is due every round, so the no-skip path reuses ``active``.
    due = [0] * len(lanes)
    while active:
        r = min(due[i] for i in active)
        running = [i for i in active if due[i] == r] if bank_skip else active
        m = len(running)
        coins = coin_buffer[:m]
        probs = prob_buffer[:m]

        # Stages 1–2, batched: per-lane plans and per-trial coin rows,
        # one comparison + packbits for the whole bank.
        for j, i in enumerate(running):
            engine = lanes[i].engine
            if traced:
                ta = perf_counter_ns()
            np.copyto(probs[j], engine._plan_probs(r))
            if traced:
                tb = perf_counter_ns()
            engine._coin_rng.random(out=coins[j])
            if traced:
                ph = engine._phase_ns
                ph["plan"] += tb - ta
                ph["coins"] += perf_counter_ns() - tb
        if traced:
            t0 = perf_counter_ns()
        transmit = coins < probs
        packed = np.packbits(transmit, axis=1, bitorder="little").tobytes()
        masks = [
            int.from_bytes(packed[j * nbytes : (j + 1) * nbytes], "little")
            for j in range(m)
        ]
        if traced:
            _credit("coins", perf_counter_ns() - t0, running)

        # Stages 3–4 per lane: adaptive views read the lane's
        # probability row and mask, and reception is the engine's own
        # stage 4, so a lane resolves exactly as its standalone run.
        topologies = []
        lane_deliveries = []
        for j, i in enumerate(running):
            engine = lanes[i].engine
            if traced:
                ta = perf_counter_ns()
            topology = engine._choose_topology(r, probs[j], masks[j])
            if traced:
                tb = perf_counter_ns()
            deliveries = engine._resolve(transmit[j], masks[j], topology)
            if traced:
                ph = engine._phase_ns
                ph["adversary"] += tb - ta
                ph["reception"] += perf_counter_ns() - tb
            topologies.append(topology)
            lane_deliveries.append(deliveries)

        # Stages 5–6 per lane, on the topology and deliveries above.
        # The expected-transmitter sum goes through each engine's
        # _expected_exact — bit-identical to fsum, O(1) for the
        # single-message kernels instead of an O(n) per-lane pass.
        if traced:
            t0 = perf_counter_ns()
        expecteds = [
            lanes[i].engine._expected_exact(probs[j]) for j, i in enumerate(running)
        ]
        if traced:
            _credit("plan", perf_counter_ns() - t0, running)
        for j, i in enumerate(running):
            lane = lanes[i]
            engine = lane.engine
            record = engine._finish_round(
                r,
                probs[j],
                transmit[j],
                masks[j],
                expecteds[j],
                topology=topologies[j],
                deliveries=lane_deliveries[j],
            )
            if lane.stop is not None and lane.stop():
                results[i] = ExecutionResult(
                    rounds=r + 1, solved=True, solve_round=record.round_index
                )
                continue
            # Parking: the lane asks its own skip horizon — the hook its
            # standalone run() asks — and emits the silent span at once.
            h = r + 1
            if bank_skip:
                if traced:
                    ts = perf_counter_ns()
                h = engine._skip_horizon(record, caps[i])
                if span_ok[i]:
                    # Batch-capable observers are span-invariant over
                    # all-silent rounds, so the stop condition (a
                    # function of observer state) cannot fire mid-span:
                    # one call covers the whole span.
                    if h > r + 1:
                        engine._emit_quiet_span(r + 1, h)
                else:
                    solved = engine._emit_quiet_rounds(r + 1, h, lane.stop)
                    if solved is not None:
                        results[i] = ExecutionResult(
                            rounds=solved + 1, solved=True, solve_round=solved
                        )
                if traced:
                    engine._phase_ns["skip"] += perf_counter_ns() - ts
            if results[i] is None and h >= caps[i]:
                results[i] = ExecutionResult(rounds=caps[i], solved=False, solve_round=None)
            due[i] = h
        active = [i for i in active if results[i] is None]
    if traced:
        for lane, result in zip(lanes, results):
            lane.engine._trace = None
            if result is not None:
                lane.engine._trace_end(rec, result)
    return results
