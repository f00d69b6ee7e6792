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

One round is one :meth:`~repro.core.engine.RadioNetworkEngine.step`,
the only round body of both engines; a standalone run and every bank
lane go through it. This engine supplies three of its stages:

1. **Plans** (:meth:`~BitsetRadioNetworkEngine._plan`) come from the
   kernel's per-round probability batch, which the lanes of a bank
   share, each engine reading its own lane's row. When the kernel says
   in O(1) that the row is ``certain`` (all 0s and 1s: a slot round,
   an announcement, a silent lane), the coins are already fixed, so
   the shared :func:`repro.core.rng.transmission_coins` advances the
   stream by the ``n`` uniforms instead of drawing them; the reference
   engine always draws, so the equivalence matrix compares the advance
   against real draws.
2. **Reception** (:meth:`~BitsetRadioNetworkEngine._resolve`) is the
   paper's own rule, ``popcount(transmitters & mask[u]) == 1`` for a
   listener ``u``, in one of two forms: up to ``_WORD_RULE_MAX_N``
   nodes over the topology's uint64 word rows for every listener at
   once (the word rule), and past that as a bigint scan restricted to
   the union of the transmitters' neighborhoods.
3. **Feedback** (:meth:`~BitsetRadioNetworkEngine._feedback`) goes to
   the kernel, and only for rounds that delivered something: kernel
   protocols change state on receptions alone.

The coins, the adversary's typed view and the record keeping are the
round body's own, the same for both engines.

**Round skipping**: the one run loop,
:func:`repro.core.bankpath.run_bank_batch` (``run()`` is a bank of
one), asks one hook, :meth:`BitsetRadioNetworkEngine._skip_horizon`,
after every executed round, so a standalone run skips exactly what its
bank lane skips. A skip-capable kernel answers it from
``next_active_round``.

Every adversary class is served: the round body builds the adaptive
views from this engine's probability row and transmitter mask.
Equivalence across the full registered component matrix is enforced by
``tests/test_engine_equivalence.py``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.adversaries.base import LinkProcess
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
    every other stage is the reference engine's round body.
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
    # Round stages (the round body is the reference engine's ``step``)
    # ------------------------------------------------------------------
    # Lanes of one bank step one after another; they share the kernel's
    # per-round probability batch and feed back into their own lane's
    # state only.
    def _plan(self, r: int) -> tuple[np.ndarray, float, bool]:
        """Stage 1: this lane's row of the kernel's probability batch.

        Its exact sum is bit-identical to the reference engine's fsum,
        so the skip hook's ``expected == 0.0`` test stays exact. A row
        the kernel knows in O(1) to be all 0s and 1s is ``certain``:
        the coin stage then only advances the stream.
        """
        kernel = self._kernel
        lane = self._lane
        probs = kernel.probabilities(r)[lane]
        return probs, kernel.expected_exact(lane, r), kernel.certain(lane)

    def _feedback(
        self, r: int, transmitter_mask: int, deliveries: Sequence[Delivery]
    ) -> None:
        """Stage 5: kernel protocols change state on receptions only."""
        if deliveries:
            self._kernel.apply_feedback(self._lane, r, deliveries)

    def _message_for(self, u: int) -> Message:
        """The message transmitter ``u`` put on the air this round."""
        return self._kernel.message_for(self._lane, u)

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
