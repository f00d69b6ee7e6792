"""The fast engine: a vectorized, seed-for-seed identical engine.

:class:`BitsetRadioNetworkEngine` (``engine="bank"``, alias
``"bitset"``) executes exactly the round pipeline of
:class:`~repro.core.engine.RadioNetworkEngine` — same plans, same
coins, same reception rule, same records — but batches each stage in
numpy or word-parallel bitsets where it can. It runs only with a
vectorized protocol kernel, the one the algorithm spec's lane recipe
names, built by :func:`repro.core.bankpath.build_bank_kernel`; it
holds no per-node processes;
:func:`~repro.core.engine.resolve_engine_choice` routes a trial whose
spec no kernel serves to the reference engine instead.

One round is one :meth:`~BitsetRadioNetworkEngine.step`, the engine's
only round body; a standalone run and every bank lane go through it.

1. **Plans** come from the kernel's per-round probability batch, which
   the lanes of a bank share, each engine reading its own lane's row.
2. **Coins** come from :func:`repro.core.rng.transmission_coins` — the
   same helper, against the same ``("engine", "coins")`` child stream,
   that the reference engine consumes, so coin alignment is shared by
   construction rather than re-proved. When the kernel says in O(1)
   that the lane's row is ``certain`` (all 0s and 1s: a slot round, an
   announcement, a silent lane), the coins are already fixed, so the
   helper advances the stream by the ``n`` uniforms instead of drawing
   them; the reference engine always draws, so the equivalence matrix
   compares the advance against real draws.
3. **Reception** is the paper's own rule, ``popcount(transmitters &
   mask[u]) == 1`` for a listener ``u``, in one of two forms: up to
   ``_WORD_RULE_MAX_N`` nodes over the topology's uint64 word rows for
   every listener at once (the word rule), and past that as a bigint
   scan restricted to the union of the transmitters' neighborhoods.
4. **Feedback** goes to the kernel, and only for rounds that delivered
   something: kernel protocols change state on receptions alone.

**Round skipping**: the one run loop,
:func:`repro.core.bankpath.run_bank_batch` (``run()`` is a bank of
one), asks one hook, :meth:`BitsetRadioNetworkEngine._skip_horizon`,
after every executed round, so a standalone run skips exactly what its
bank lane skips. A skip-capable kernel answers it from
``next_active_round``.

Every adversary class is served. Adaptive views carry only the
per-node probability vector, the public history window and (offline)
the realized transmitter mask — the vector and the mask are what
stages 1–2 already produced, so stage 3 hands them over as the
reference engine's typed views. Equivalence across the full registered
component matrix is enforced by ``tests/test_engine_equivalence.py``.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Sequence

import numpy as np

from repro.adversaries.base import (
    AdversaryClass,
    LinkProcess,
    ObliviousView,
)
from repro.core import rng as rng_mod
from repro.core.engine import RadioNetworkEngine
from repro.core.messages import Message
from repro.core.trace import Delivery, RoundRecord

__all__ = ["BitsetRadioNetworkEngine"]

#: Up to this node count reception is the word rule over the round
#: topology's word rows: Θ(n²/64) word operations for all listeners at
#: once. Past it the bigint scan over the transmitters' neighborhoods
#: wins on the sparse graphs that large cells run (ring n = 10⁴ with
#: one transmitter: 10 µs against 75 µs).
_WORD_RULE_MAX_N = 2048


class BitsetRadioNetworkEngine(RadioNetworkEngine):
    """The fast engine, seed-for-seed identical to the reference one.

    Public behavior matches :class:`~repro.core.engine.RadioNetworkEngine`;
    construction takes the required ``kernel`` and its ``lane`` index
    in place of the per-node processes: a kernel that
    :func:`~repro.core.bankpath.build_bank_kernel` built for the trial
    alone (a bank of one, ``lane=0``), or for a whole seed bank whose
    lanes share it. The kernel supplies plans, messages and feedback;
    every other stage is the reference pipeline, batched.
    """

    engine_name = "bank"

    #: Kernel lanes hold no per-node processes.
    processes: Sequence = ()

    def __init__(
        self, network, link_process: LinkProcess, *, kernel, lane: int = 0, **options
    ) -> None:
        # ``options``: the reference engine's keywords (seed, observers, ...).
        self._init_execution(network, link_process, **options)
        self._kernel = kernel
        self._lane = lane
        if not kernel.supports_skip:
            # The multi-message kernels answer no skip horizon — those
            # protocols are never provably silent (a node that knows
            # anything keeps a nonzero duty cycle). The single-message
            # kernels answer the probe themselves and keep skipping on.
            self.skip = False

    # ------------------------------------------------------------------
    # Round execution (same pipeline as the reference engine, batched)
    # ------------------------------------------------------------------
    # ``step`` is the one round body: a standalone run and every lane
    # of a bank (:func:`repro.core.bankpath.run_bank_batch`) execute a
    # round through it. Lanes of one bank step one after another; they
    # share the kernel's per-round probability batch and feed back into
    # their own lane's state only.
    def step(self) -> RoundRecord:
        """Execute exactly one round and return its record."""
        self._ensure_started()
        r = self._round
        ph = self._phase_ns if self._trace is not None else None
        if ph is not None:
            t0 = perf_counter_ns()

        # 1. Plans, as this lane's row of the kernel's probability
        # batch, and their exact sum (bit-identical to the reference
        # engine's fsum, so the skip hook's ``expected == 0.0`` test
        # stays exact).
        kernel = self._kernel
        probs = kernel.probabilities(r)[self._lane]
        expected = kernel.expected_exact(self._lane, r)
        if ph is not None:
            t1 = perf_counter_ns()
            ph["plan"] += t1 - t0
            t0 = t1

        # 2. Vectorized Bernoulli coins — the shared coin stream. A row
        # of 0s and 1s fixes the coins: the stream only advances.
        transmit, transmitter_mask = rng_mod.transmission_coins(
            self._coin_rng, probs, kernel.certain(self._lane)
        )
        if ph is not None:
            t1 = perf_counter_ns()
            ph["coins"] += t1 - t0
            t0 = t1

        # 3. The adversary fixes the round topology.
        topology = self._choose_topology(r, probs, transmitter_mask)
        if ph is not None:
            t1 = perf_counter_ns()
            ph["adversary"] += t1 - t0
            t0 = t1

        # 4. Reception: the word rule, or the bigint scan past its cap.
        deliveries = self._resolve(transmit, transmitter_mask, topology)
        if ph is not None:
            t1 = perf_counter_ns()
            ph["reception"] += t1 - t0
            t0 = t1

        # 5. Feedback: kernel protocols change state on receptions only.
        if deliveries:
            kernel.apply_feedback(self._lane, r, deliveries)
        if ph is not None:
            t1 = perf_counter_ns()
            ph["feedback"] += t1 - t0
            t0 = t1

        # 6. Record keeping — identical to the reference engine.
        return self._close_round(
            r, transmitter_mask, deliveries, expected, t0 if ph is not None else 0
        )

    def _message_for(self, u: int) -> Message:
        """The message transmitter ``u`` put on the air this round."""
        return self._kernel.message_for(self._lane, u)

    def _choose_topology(self, r: int, probs: np.ndarray, transmitter_mask: int):
        """Stage 3: the adversary picks the topology through its typed view.

        Oblivious adversaries see the clock only; adaptive ones get the
        reference engine's view built from this round's ``probs`` row
        and ``transmitter_mask``.
        """
        link_process = self.link_process
        if link_process.adversary_class is AdversaryClass.OBLIVIOUS:
            view = ObliviousView(round_index=r)
        else:
            view = self._build_view(r, probs.tolist(), transmitter_mask)
        topology = link_process.choose_topology(view)
        if self.validate_topologies:
            topology.validate(self.network)
        return topology

    def _resolve(
        self, transmit: np.ndarray, transmitter_mask: int, topology
    ) -> list[Delivery]:
        """Stage 4: exactly-one-transmitting-neighbor reception.

        Up to ``_WORD_RULE_MAX_N`` nodes this is the word rule: with the
        transmitter set ``X`` as words, listener ``u`` hears a message
        iff ``bitwise_count(rows[u] & X)`` sums to 1 over the words and
        ``u`` is not transmitting. The one set bit then names the
        sender: ``64·w + bitwise_count(word − 1)`` for its word ``w``.
        Past the cap it is the bigint candidate scan. Traced runs count
        each resolved round as ``reception.words`` or ``reception.scan``.
        """
        if not transmitter_mask:
            return []
        if self.network.n > _WORD_RULE_MAX_N:
            return self._resolve_candidates(transmitter_mask, topology.masks)
        if self._trace is not None:
            counts = self._trace_counts
            counts["reception.words"] = counts.get("reception.words", 0) + 1
        rows = topology.rows
        words = rows.shape[1]
        x = np.frombuffer(transmitter_mask.to_bytes(8 * words, "little"), dtype="<u8")
        heard = rows & x
        if words == 1:
            heard = heard[:, 0]
            solo = np.bitwise_count(heard) == 1
        else:
            # Row totals as one float32 matvec over the word counts:
            # exact (at most 2048), and BLAS beats a reduction over a
            # short inner axis.
            totals = np.bitwise_count(heard) @ np.ones(words, dtype=np.float32)
            solo = totals == 1
        receivers = (solo & ~transmit).nonzero()[0]
        if receivers.size == 0:
            return []
        if words == 1:
            senders = np.bitwise_count(heard[receivers] - np.uint64(1))
        else:
            solo_words = heard[receivers]
            column = solo_words.argmax(axis=1)  # the row's one nonzero word
            word = solo_words[np.arange(receivers.size), column]
            senders = 64 * column + np.bitwise_count(word - np.uint64(1))
        senders = senders.tolist()
        # A sender's message is the same for all its listeners: look it
        # up once per sender, not once per delivery.
        message_for = self._message_for
        messages = {sender: message_for(sender) for sender in set(senders)}
        return list(
            map(Delivery, receivers.tolist(), senders, map(messages.__getitem__, senders))
        )

    # ------------------------------------------------------------------
    # Round skipping
    # ------------------------------------------------------------------
    def _skip_horizon(self, record: RoundRecord, limit: int) -> int:
        """First round in ``(r, limit]`` at which anything may change.

        A skip-capable kernel answers from its struct-of-arrays state,
        whatever round ``r`` did: its ``next_active_round`` promises
        every round before it silent (state changes ride deliveries
        only, and silent rounds deliver nothing), so the span from one
        slot round to the next is skipped without executing a probe
        round in between. The kernel answer is clamped to the
        adversary's ``next_boundary``; when that boundary or ``limit``
        already allows no span, the kernel is not asked. Only engines
        whose kernel ``supports_skip`` keep ``skip`` on, so only they
        are asked.
        """
        r = record.round_index
        h = limit
        boundary = self.link_process.next_boundary(r)
        if boundary is not None and boundary < h:
            h = boundary
        if h <= r + 1:
            return r + 1
        nxt = self._kernel.next_active_round(self._lane, r)
        return max(h if nxt is None else min(nxt, h), r + 1)

    # ------------------------------------------------------------------
    # Reception helpers
    # ------------------------------------------------------------------
    def _resolve_candidates(
        self, transmitter_mask: int, masks: Sequence[int]
    ) -> list[Delivery]:
        """The paper's bitset rule over candidate listeners only.

        A listener can receive only if some transmitter neighbors it,
        so the scan covers the union of the transmitters' neighborhoods
        instead of all ``n`` nodes — the word-parallel
        ``popcount(X & mask[u]) == 1`` test then picks out solo
        receptions exactly as the reference loop does. Traced runs
        count each scanned round as ``reception.scan``.
        """
        if self._trace is not None:
            counts = self._trace_counts
            counts["reception.scan"] = counts.get("reception.scan", 0) + 1
        reach = 0
        t = transmitter_mask
        while t:
            low = t & -t
            reach |= masks[low.bit_length() - 1]
            t ^= low
        candidates = reach & ~transmitter_mask
        deliveries: list[Delivery] = []
        message_for = self._message_for
        while candidates:
            low = candidates & -candidates
            u = low.bit_length() - 1
            candidates ^= low
            neighbors_transmitting = transmitter_mask & masks[u]
            if neighbors_transmitting and not (
                neighbors_transmitting & (neighbors_transmitting - 1)
            ):
                sender = neighbors_transmitting.bit_length() - 1
                deliveries.append(Delivery(u, sender, message_for(sender)))
        return deliveries
