"""Section 4.1: global broadcast against an oblivious adversary.

The algorithm is [2] with decay swapped for *permuted* decay:

    "The source, provided message m', creates a new message
    m = ⟨m', S⟩, where S is a collection of 32 log² n log log n bits
    generated with uniform and independent randomness after the
    execution begins. In the first round, the source broadcasts m to
    its neighbors. At this point, the source's role in the broadcast is
    finished. For every other node u, on first receiving a message
    ⟨m', S⟩ in round r, it waits until the first round r' ≥ r, where
    r' mod 16 log n = 0, and then calls permuted-decay(m, 16, s),
    2 log n times in a row, where each time s includes
    16 log n log log n new bits from S."

Implementation notes (see DESIGN.md §5.4): epochs are aligned to the
global clock (``epoch = round // (γ log n)``), and the bit chunk for
epoch ``e`` is chunk ``e mod 2 log n`` of ``S``. This keeps every
simultaneous caller on the *same* bits — the precondition of
Lemma 4.2 — regardless of when each node joined, and reuses chunks
cyclically for executions longer than ``2 log n`` epochs (harmless
against an oblivious adversary whose schedule was fixed before ``S``
was drawn).

Also provided: :class:`UncoordinatedDecayGlobalProcess`, the A2
ablation — identical shape, but every node draws its rung *privately*
each round. Without the shared bits, a receiver's neighbors spread
across rungs and the per-round solo probability collapses for large
neighborhoods; the bench shows the coordination is what buys the
``O(D log n + log² n)`` bound.

``_PermutedDecayBankKernel``, beside the process, is its fast-engine
kernel: Lemma 4.2's shared bits make the round's rung one schedule
lookup per lane.
"""

from __future__ import annotations

from functools import partial
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.algorithms.base import AlgorithmSpec, LaneRecipe, log2_ceil, spec_source
from repro.algorithms.permuted_decay import PermutedDecaySchedule
from repro.core.bankpath import NEVER, SingleMessageKernel
from repro.core.bits import BitStream
from repro.core.messages import Message, MessageKind
from repro.core.process import Process, ProcessContext, RoundPlan
from repro.core.rng import spawn_rng
from repro.core.trace import Delivery
from repro.registry import register_algorithm

__all__ = [
    "ObliviousGlobalBroadcastProcess",
    "UncoordinatedDecayGlobalProcess",
    "make_oblivious_global_broadcast",
    "make_uncoordinated_decay_global_broadcast",
]


class ObliviousGlobalBroadcastProcess(Process):
    """One node of the Section 4.1 global broadcast algorithm.

    Parameters
    ----------
    ctx:
        Node context.
    source:
        The designated source node id.
    payload:
        The application payload ``m'``.
    gamma:
        The ``γ`` of permuted decay (paper: 16).
    epochs_per_node:
        How many permuted-decay calls an informed node makes (paper:
        ``2 log n``); ``None`` keeps calling until the engine stops,
        which only helps completion and is the default for experiment
        runs that measure rounds-to-solve.
    num_chunks:
        Number of distinct bit chunks in ``S`` (paper: ``2 log n``).
    """

    def __init__(
        self,
        ctx: ProcessContext,
        *,
        source: int,
        payload: object = "m",
        gamma: int = 16,
        epochs_per_node: Optional[int] = None,
        num_chunks: Optional[int] = None,
        schedule: Optional[PermutedDecaySchedule] = None,
    ) -> None:
        super().__init__(ctx)
        self.source = source
        # An immutable schedule can be shared by all n processes of a
        # run (the factory passes one); building it per node is only
        # the fallback for direct construction.
        self.schedule = schedule or PermutedDecaySchedule(
            num_probabilities=log2_ceil(ctx.n), gamma=gamma
        )
        self.num_chunks = num_chunks or 2 * log2_ceil(ctx.n)
        self.epochs_per_node = epochs_per_node
        # Constructor-derived skip-horizon inputs, precomputed once.
        self._epoch_len = self.schedule.rounds_per_call
        self._is_source = ctx.node_id == source
        self.message: Optional[Message] = None
        self.join_epoch: Optional[int] = None
        if ctx.node_id == source:
            total_bits = self.schedule.bits_per_call * self.num_chunks
            shared = BitStream.random(ctx.rng, total_bits)
            self.message = Message(
                MessageKind.DATA, origin=source, payload=payload, shared_bits=shared
            )

    #: State only changes on first reception of ⟨m', S⟩; idle
    #: feedback is safe to skip.
    idle_feedback_noop = True

    @property
    def informed(self) -> bool:
        return self.message is not None

    @property
    def epoch_length(self) -> int:
        """Rounds per epoch: the paper's ``16 log n``."""
        return self.schedule.rounds_per_call

    def next_state_change(self, round_index: int):
        # The rung changes every round of an active epoch; only the
        # silent stretches are flat.
        if self._is_source:
            return 1 if round_index == 0 else None
        join = self.join_epoch
        if join is None:
            return None  # adoption arrives via feedback
        if round_index < join * self._epoch_len:
            return join * self._epoch_len
        if self.epochs_per_node is not None:
            end = (join + self.epochs_per_node) * self._epoch_len
            if round_index >= end:
                return None  # budget exhausted; silent for good
        return round_index + 1  # active permuted decay: new rung each round

    def plan(self, round_index: int) -> RoundPlan:
        if self.node_id == self.source:
            if round_index == 0:
                return RoundPlan.certain(self.message)
            return RoundPlan.silence()  # "the source's role ... is finished"
        if self.message is None or self.join_epoch is None:
            return RoundPlan.silence()
        epoch, round_in_epoch = divmod(round_index, self.epoch_length)
        if epoch < self.join_epoch:
            return RoundPlan.silence()
        if self.epochs_per_node is not None and epoch >= self.join_epoch + self.epochs_per_node:
            return RoundPlan.silence()
        shared = self.message.shared_bits
        chunk_offset = (epoch % self.num_chunks) * self.schedule.bits_per_call
        probability = self.schedule.probability(shared, chunk_offset, round_in_epoch)
        return RoundPlan(probability=probability, message=self.message)

    def on_feedback(self, round_index: int, sent: bool, received: Optional[Message]) -> None:
        if self.message is None and received is not None and received.is_data():
            if received.shared_bits is None:
                return  # not a ⟨m', S⟩ message of this algorithm
            self.message = received
            # Wait for the first epoch boundary strictly after this round.
            self.join_epoch = (round_index + 1 + self.epoch_length - 1) // self.epoch_length


class _PermutedDecayBankKernel(SingleMessageKernel):
    """All trials of a Section-4.1 permuted-decay bank, as arrays.

    Mirrors :class:`ObliviousGlobalBroadcastProcess`:
    ``join_epoch[t, u]`` is the first epoch node ``u`` participates in
    (``NEVER`` = uninformed; the source never joins — its role ends
    with the announcement) and ``end_epoch[t, u]`` the first epoch after
    a finite ``epochs_per_node`` budget (``NEVER`` = open-ended).
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
        self.join_epoch = np.full((self.trials, self.n), NEVER, dtype=np.int64)
        self.end_epoch = np.full((self.trials, self.n), NEVER, dtype=np.int64)

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
            if u == source or join[t, u] != NEVER:
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
        joined = joins != NEVER
        epoch_len = self.epoch_len[t]
        first = np.maximum(joins[joined] * epoch_len, r + 1)
        first = first[first // epoch_len < self.end_epoch[t][joined]]
        if first.size == 0:
            return None
        return int(first.min())


class UncoordinatedDecayGlobalProcess(Process):
    """Ablation: permuted decay without the shared bits.

    Identical ladder and epoch structure, but each node draws its rung
    privately per round. The declared plan probability is the node's
    realized ``2^{-i}`` for the round (drawn in the previous feedback,
    i.e. start-of-round state — keeping the plan contract honest).
    """

    def __init__(
        self,
        ctx: ProcessContext,
        *,
        source: int,
        payload: object = "m",
        gamma: int = 16,
    ) -> None:
        super().__init__(ctx)
        self.source = source
        self.num_probabilities = log2_ceil(ctx.n)
        self.gamma = gamma
        self._is_source = ctx.node_id == source
        self.message: Optional[Message] = None
        self.joined = False
        self._next_rung = 1 + ctx.rng.randrange(self.num_probabilities)
        if ctx.node_id == source:
            self.message = Message(MessageKind.DATA, origin=source, payload=payload)

    @property
    def informed(self) -> bool:
        return self.message is not None

    def next_state_change(self, round_index: int):
        # Absent feedback the committed rung stays put, so the plan is
        # clock-stable — but idle_feedback_noop is False (every feedback
        # call redraws the next rung from the node's RNG), so the engine
        # never actually elides a round for this class.
        if self._is_source:
            return 1 if round_index == 0 else None
        return None

    def plan(self, round_index: int) -> RoundPlan:
        if self.node_id == self.source:
            if round_index == 0:
                return RoundPlan.certain(self.message)
            return RoundPlan.silence()
        if self.message is None or not self.joined:
            return RoundPlan.silence()
        return RoundPlan(
            probability=2.0 ** (-self._next_rung), message=self.message
        )

    def on_feedback(self, round_index: int, sent: bool, received: Optional[Message]) -> None:
        self._next_rung = 1 + self.ctx.rng.randrange(self.num_probabilities)
        if self.message is None and received is not None and received.is_data():
            self.message = received
            self.joined = True
        elif self.message is not None and self.node_id != self.source:
            self.joined = True


def make_oblivious_global_broadcast(
    n: int,
    source: int,
    *,
    payload: object = "m",
    gamma: int = 4,
    epochs_per_node: Optional[int] = None,
    paper_constants: bool = False,
) -> AlgorithmSpec:
    """Spec for the Section 4.1 algorithm.

    ``gamma`` defaults to 4 for laptop-scale sweeps; pass
    ``paper_constants=True`` for the paper's ``γ = 16`` and
    ``2 log n`` epochs per node (see DESIGN.md §5.7).
    """
    if not 0 <= source < n:
        raise ValueError(f"source {source} outside [0, {n})")
    if paper_constants:
        gamma = 16
        epochs_per_node = 2 * log2_ceil(n)
    shared_schedule = PermutedDecaySchedule(
        num_probabilities=log2_ceil(n), gamma=gamma
    )

    factory = partial(
        ObliviousGlobalBroadcastProcess,
        source=source,
        payload=payload,
        gamma=gamma,
        epochs_per_node=epochs_per_node,
        schedule=shared_schedule,
    )

    return AlgorithmSpec(
        name=f"permuted-decay-global(n={n},γ={gamma})",
        factory=factory,
        metadata={
            "family": "permuted-decay",
            "problem": "global-broadcast",
            "source": source,
            "gamma": gamma,
            "epochs_per_node": epochs_per_node,
            "schedule": "hidden (post-start shared bits)",
        },
        lane=LaneRecipe(factory, n, _PermutedDecayBankKernel),
    )


def make_uncoordinated_decay_global_broadcast(
    n: int,
    source: int,
    *,
    payload: object = "m",
    gamma: int = 4,
) -> AlgorithmSpec:
    """Spec for the uncoordinated ablation variant (A2)."""
    if not 0 <= source < n:
        raise ValueError(f"source {source} outside [0, {n})")

    def factory(ctx):
        return UncoordinatedDecayGlobalProcess(
            ctx, source=source, payload=payload, gamma=gamma
        )

    return AlgorithmSpec(
        name=f"uncoordinated-decay-global(n={n})",
        factory=factory,
        metadata={
            "family": "uncoordinated-decay",
            "problem": "global-broadcast",
            "source": source,
            "schedule": "private per-node rungs",
        },
    )


@register_algorithm("permuted-decay")
def _spec_permuted_decay(
    ctx,
    *,
    source: Optional[int] = None,
    payload: object = "m",
    gamma: int = 4,
    epochs_per_node: Optional[int] = None,
    paper_constants: bool = False,
) -> AlgorithmSpec:
    return make_oblivious_global_broadcast(
        ctx.graph.n,
        spec_source(ctx, source),
        payload=payload,
        gamma=int(gamma),
        epochs_per_node=epochs_per_node,
        paper_constants=bool(paper_constants),
    )


@register_algorithm("uncoordinated-decay")
def _spec_uncoordinated_decay(
    ctx,
    *,
    source: Optional[int] = None,
    payload: object = "m",
    gamma: int = 4,
) -> AlgorithmSpec:
    return make_uncoordinated_decay_global_broadcast(
        ctx.graph.n, spec_source(ctx, source), payload=payload, gamma=int(gamma)
    )
