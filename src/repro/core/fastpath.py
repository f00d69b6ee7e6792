"""The fast engine: a vectorized, seed-for-seed identical engine.

:class:`BitsetRadioNetworkEngine` (``engine="bank"``, alias
``"bitset"``) executes exactly the round pipeline of
:class:`~repro.core.engine.RadioNetworkEngine` — same plans, same
coins, same reception rule, same records — but batches each stage in
numpy or word-parallel bitsets where it can. It runs only with a
vectorized protocol kernel of :mod:`repro.core.bankpath`, built from
the algorithm spec's lane recipe, and holds no per-node processes;
:func:`~repro.core.engine.resolve_engine_choice` routes a trial whose
spec no kernel serves to the reference engine instead.

1. **Plans** come from the kernel (shared across lanes by the bank
   scheduler, each engine reading its own lane's row).
2. **Coins** come from :func:`repro.core.rng.transmission_coins` — the
   same helper, against the same ``("engine", "coins")`` child stream,
   that the reference engine consumes, so coin alignment is shared by
   construction rather than re-proved.
3. **Reception** is resolved either by two BLAS matvecs against a
   cached dense 0/1 neighbor matrix (static round topologies — the
   common case for oblivious adversaries) or — past ``_MATRIX_MAX_N``
   nodes, or for adversaries that churn fresh topologies every round —
   by the paper's own bitset rule ``popcount(transmitters & mask[u]) ==
   1`` restricted to the union of the transmitters' neighborhoods.
4. **Feedback** goes to the kernel, and only for rounds that delivered
   something: kernel protocols change state on receptions alone.

**Round skipping** asks one hook, :meth:`BitsetRadioNetworkEngine._skip_horizon`,
after every executed round — from the per-trial
:meth:`~repro.core.engine.RadioNetworkEngine._run_skipping` loop and
from the bank scheduler alike, so a standalone run skips exactly what
its bank lane skips. A skip-capable kernel answers it from
``next_active_round``.

Every adversary class is served. Adaptive views carry only the
per-node probability vector, the public history window and (offline)
the realized transmitter mask — the vector and the mask are what
stages 1–2 already produced, so stage 3 hands them over as the
reference engine's typed views. Equivalence across the full registered
component matrix is enforced by ``tests/test_engine_equivalence.py``.
"""

from __future__ import annotations

import math
from time import perf_counter_ns
from typing import Optional, Sequence

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
from repro.graphs.dual_graph import masks_to_neighbor_matrix

__all__ = ["BitsetRadioNetworkEngine"]

#: Above this node count the dense reception matrices stop paying for
#: their O(n²) memory; the bigint candidate scan stays O(n²/64) per
#: round with no footprint.
_MATRIX_MAX_N = 2048

#: Distinct round topologies worth a cached matrix. Static and
#: pattern-cycling adversaries reuse a couple of mask tuples forever;
#: stochastic adversaries mint a fresh tuple every round and overflow
#: this budget immediately, which routes them to the bigint scan.
_MATRIX_CACHE_SIZE = 8


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
        n = network.n
        # Round-scratch and reception state. Transmitter j is encoded
        # as 1 + (j+1)(n+1), so one matvec yields, per listener, both
        # the transmitting-neighbor count (mod n+1) and — when that
        # count is 1 — the sender id (div n+1). Totals stay integral
        # and far below 2⁵³, hence exact in float64.
        self._x_buffer = np.empty(n, dtype=np.float64)
        self._sender_encoding = 1.0 + np.arange(1, n + 1, dtype=np.float64) * (n + 1)
        self._matrix_cache: dict[int, np.ndarray] = {}
        self._matrix_keepalive: list = []
        self._validated_topologies: dict[int, object] = {}
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
    # ``step`` is decomposed into stages so the bank scheduler
    # (:func:`repro.core.bankpath.run_bank_batch`) can drive many lanes
    # per bank round: ``_plan_probs`` (stage 1), the shared coin draw
    # (stage 2, batched across lanes by the scheduler), and
    # ``_finish_round`` (stages 3–6). Each stage preserves the
    # reference semantics exactly; only *where* the work happens moves.
    def step(self) -> RoundRecord:
        """Execute exactly one round and return its record."""
        self._ensure_started()
        r = self._round
        ph = self._phase_ns if self._trace is not None else None
        if ph is not None:
            t0 = perf_counter_ns()

        # 1. Plans, as a per-node probability vector, and their exact
        # sum (bit-identical to the reference engine's fsum, so the
        # skip loop's ``expected == 0.0`` test stays exact).
        probs = self._plan_probs(r)
        expected = self._expected_exact(probs)
        if ph is not None:
            t1 = perf_counter_ns()
            ph["plan"] += t1 - t0
            t0 = t1

        # 2. Vectorized Bernoulli coins — the shared coin stream.
        transmit, transmitter_mask = rng_mod.transmission_coins(self._coin_rng, probs)
        if ph is not None:
            ph["coins"] += perf_counter_ns() - t0

        return self._finish_round(r, probs, transmit, transmitter_mask, expected)

    def _plan_probs(self, r: int) -> np.ndarray:
        """Stage 1: the round's per-node transmission probabilities."""
        return self._kernel.probabilities(r)[self._lane]

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
            key = id(topology.masks)
            if key not in self._validated_topologies:
                topology.validate(self.network)
                # Remember only a bounded set of validated mask tuples
                # (they are pinned to keep ids unique): pattern-reusing
                # adversaries hit the cache forever, while churning
                # ones simply revalidate per round — exactly the
                # reference engine's behavior — instead of pinning one
                # tuple per round for the whole execution.
                if len(self._validated_topologies) < _MATRIX_CACHE_SIZE:
                    self._validated_topologies[key] = topology.masks
        return topology

    def _resolve(
        self, transmit: np.ndarray, transmitter_mask: int, topology
    ) -> list[Delivery]:
        """Stage 4: exactly-one-transmitting-neighbor reception.

        A cached neighbor matrix answers by matvec; any other topology
        (past ``_MATRIX_MAX_N``, or churn past the cache budget) goes
        to the bigint candidate scan.
        """
        if not transmitter_mask:
            return []
        matrix = self._matrix_for(topology.masks)
        if matrix is not None:
            return self._resolve_with_matrix(transmit, matrix)
        return self._resolve_candidates(transmitter_mask, topology.masks)

    def _finish_round(
        self,
        r: int,
        probs: np.ndarray,
        transmit: np.ndarray,
        transmitter_mask: int,
        expected: float,
        topology=None,
        deliveries: Optional[list[Delivery]] = None,
    ) -> RoundRecord:
        """Stages 3–6: topology, reception, feedback, record keeping.

        The bank scheduler passes ``topology``/``deliveries``, having
        resolved stages 3–4 itself (batching the matvecs across lanes);
        a standalone ``step`` leaves them ``None`` and they run here.
        """
        ph = self._phase_ns if self._trace is not None else None
        if ph is not None:
            t0 = perf_counter_ns()
        if topology is None:
            topology = self._choose_topology(r, probs, transmitter_mask)
            if ph is not None:
                t1 = perf_counter_ns()
                ph["adversary"] += t1 - t0
                t0 = t1
        if deliveries is None:
            deliveries = self._resolve(transmit, transmitter_mask, topology)
            if ph is not None:
                t1 = perf_counter_ns()
                ph["reception"] += t1 - t0
                t0 = t1
        # 5. Feedback: kernel protocols change state on receptions only.
        if deliveries:
            self._kernel.apply_feedback(self._lane, r, deliveries)
        if ph is not None:
            t1 = perf_counter_ns()
            ph["feedback"] += t1 - t0
            t0 = t1

        # 6. Record keeping — identical to the reference engine.
        record = RoundRecord(
            round_index=r,
            transmitter_mask=transmitter_mask,
            deliveries=tuple(deliveries),
            expected_transmitters=expected,
        )
        self._append_history(record)
        for observer in self.observers:
            observer.on_round(record)
        self._round += 1
        self._stats.rounds_run += 1
        if ph is not None:
            ph["observers"] += perf_counter_ns() - t0
            counts = self._trace_counts
            counts["rounds.executed"] = counts.get("rounds.executed", 0) + 1
        return record

    # ------------------------------------------------------------------
    # Round skipping
    # ------------------------------------------------------------------
    def _expected_exact(self, probs: np.ndarray) -> float:
        """The round's expected transmitter count, bit-identical to fsum.

        A skip-capable kernel answers in O(1) from its shared rung;
        otherwise this is the reference engine's ``math.fsum``, which is
        correctly rounded and hence independent of summation order.
        """
        kernel = self._kernel
        if kernel.supports_skip:
            return kernel.expected_exact(self._lane, kernel._r)
        return math.fsum(probs.tolist())

    def _skip_horizon(self, record: RoundRecord, limit: int) -> int:
        """First round in ``(r, limit]`` at which anything may change.

        A skip-capable kernel answers from its struct-of-arrays state,
        whatever round ``r`` did: its ``next_active_round`` promises
        every round before it silent (state changes ride deliveries
        only, and silent rounds deliver nothing), so the span from one
        slot round to the next is skipped without executing a probe
        round in between. The kernel answer is clamped to the
        adversary's ``next_boundary``.
        """
        kernel = self._kernel
        r = record.round_index
        if not kernel.supports_skip:
            return r + 1
        h = limit
        boundary = self.link_process.next_boundary(r)
        if boundary is not None and boundary < h:
            h = boundary
        nxt = kernel.next_active_round(self._lane, r)
        return max(h if nxt is None else min(nxt, h), r + 1)

    # ------------------------------------------------------------------
    # Reception helpers
    # ------------------------------------------------------------------
    def _matrix_for(self, masks: tuple[int, ...]) -> Optional[np.ndarray]:
        """Dense neighbor matrix for a round topology, if worth caching."""
        network = self.network
        counts = self._trace_counts if self._trace is not None else None
        if network.n > _MATRIX_MAX_N:
            return None
        if masks is network.g_masks or masks is network.gp_masks:
            if counts is not None:
                counts["cache.matrix.hit"] = counts.get("cache.matrix.hit", 0) + 1
            return network.neighbor_matrix(use_gp=masks is network.gp_masks)
        key = id(masks)
        matrix = self._matrix_cache.get(key)
        if matrix is not None:
            if counts is not None:
                counts["cache.matrix.hit"] = counts.get("cache.matrix.hit", 0) + 1
            return matrix
        if counts is not None:
            counts["cache.matrix.miss"] = counts.get("cache.matrix.miss", 0) + 1
        if len(self._matrix_cache) >= _MATRIX_CACHE_SIZE:
            return None  # topology churn: the bigint scan is cheaper
        matrix = masks_to_neighbor_matrix(masks, network.n)
        self._matrix_cache[key] = matrix
        # Cache keys are id()s: pin the tuples so ids stay unique.
        self._matrix_keepalive.append(masks)
        return matrix

    def _resolve_with_matrix(
        self, transmit: np.ndarray, matrix: np.ndarray
    ) -> list[Delivery]:
        """Reception via one matvec over the count/sender encoding."""
        x = self._x_buffer
        np.copyto(x, transmit)
        totals = (matrix @ (x * self._sender_encoding)).astype(np.int64)
        modulus = self.network.n + 1
        solo = (totals % modulus == 1) & (x == 0.0)
        receivers = np.nonzero(solo)[0]
        if receivers.size == 0:
            return []
        senders = totals[receivers] // modulus - 1
        deliveries: list[Delivery] = []
        message_for = self._message_for
        for u, sender in zip(receivers.tolist(), senders.tolist()):
            deliveries.append(
                Delivery(receiver=u, sender=sender, message=message_for(sender))
            )
        return deliveries

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
                deliveries.append(
                    Delivery(receiver=u, sender=sender, message=message_for(sender))
                )
        return deliveries
