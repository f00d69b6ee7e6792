"""The fast engine: a vectorized, seed-for-seed identical engine.

:class:`BitsetRadioNetworkEngine` (``engine="bank"``, alias
``"bitset"``) executes exactly the round pipeline of
:class:`~repro.core.engine.RadioNetworkEngine` — same plans, same
coins, same reception rule, same records — but restructures each stage
so the Python work per round is proportional to what *changed*, not to
``n``:

1. **Plans** come from a vectorized protocol kernel of
   :mod:`repro.core.bankpath` when one accepts the processes (probed
   at construction; shared across lanes by the bank scheduler).
   Otherwise they are tracked through signature classes. Processes that
   march in lockstep (all informed decay nodes share one ladder rung;
   all uninformed nodes listen) map to one signature, the class
   membership is a single Python int bitset, and
   :meth:`~repro.core.process.Process.plan` runs once per class per
   round. With the optional
   :meth:`~repro.core.process.Process.plan_signature_expiry` promise,
   membership is maintained *incrementally*: a node is re-polled only
   when its signature expires or right after it received feedback, so
   the uninformed masses cost nothing per round.
2. **Coins** come from :func:`repro.core.rng.transmission_coins` — the
   same helper, against the same ``("engine", "coins")`` child stream,
   that the reference engine consumes, so coin alignment is shared by
   construction rather than re-proved.
3. **Reception** is resolved either by two BLAS matvecs against a
   cached dense 0/1 neighbor matrix (static round topologies — the
   common case for oblivious adversaries) or, for adversaries that
   churn fresh topologies every round, by the paper's own bitset rule
   ``popcount(transmitters & mask[u]) == 1`` restricted to the union
   of the transmitters' neighborhoods.
4. **Feedback** calls are skipped for nodes that provably cannot react:
   a node that neither transmitted nor received is only called when its
   process class overrides ``on_feedback`` without promising
   :attr:`~repro.core.process.Process.idle_feedback_noop`.

**Round skipping** asks one hook, :meth:`BitsetRadioNetworkEngine._skip_horizon`,
after every executed round — from the per-trial
:meth:`~repro.core.engine.RadioNetworkEngine._run_skipping` loop and
from the bank scheduler alike, so a standalone run skips exactly what
its bank lane skips. A skip-capable kernel answers it from
``next_active_round``; the signature-class path answers it after
all-silent rounds from its class representatives and expiry heap.

Every adversary class is served. Adaptive views carry only the
per-node probability vector, the public history window and (offline)
the realized transmitter mask — the vector and the mask are what
stages 1–2 already produced, so stage 3 hands them over as the
reference engine's typed views. Equivalence across the full registered
component matrix is enforced by ``tests/test_engine_equivalence.py``.
"""

from __future__ import annotations

import heapq
import math
from time import perf_counter_ns
from typing import Optional, Sequence

import numpy as np

from repro.adversaries.base import (
    PACKED_ROWS_MAX_N,
    AdversaryClass,
    AlgorithmInfo,
    LinkProcess,
    ObliviousView,
)
from repro.core import rng as rng_mod
from repro.core.engine import ExecutionResult, RadioNetworkEngine
from repro.core.errors import PlanError
from repro.core.messages import Message
from repro.core.process import SILENT_SIGNATURE, Process, RoundPlan
from repro.core.trace import Delivery, Observer, RoundRecord
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

#: The shared listening plan substituted for SILENT_SIGNATURE nodes.
_SILENCE_PLAN = RoundPlan.silence()

#: Membership sentinels for the per-node class table: a node is either
#: silent, planned directly per round, a member of a shared
#: ``(type, signature)`` class, or *hot* — a chronic churner served by
#: a direct per-round :meth:`~repro.core.process.Process.plan` call
#: with no signature bookkeeping at all.
_SILENT_KEY = object()
_DIRECT_KEY = object()
_HOT_KEY = object()

#: Consecutive every-round reclassifications that landed the node in a
#: singleton class (or direct mode) before it is promoted to the hot
#: path. Time-driven ``_advance(r)``-style protocols (MAC queueing,
#: back-off rotation) expire every node's signature every round with a
#: distinct signature per node — for them the class machinery is pure
#: overhead, and a direct ``plan()`` call is exactly the reference
#: engine's cost with the batched coins/reception/feedback wins kept.
_CHURN_PROMOTE = 8

#: Consecutive all-silent plans after which a hot node is demoted back
#: to signature classification (it may have gone quiet for good, and
#: the silent class costs nothing per round).
_COLD_DEMOTE = 8

#: Class masks at most this populous assign their probability by
#: per-bit indexing; larger ones go through the C-speed bit unpack.
_SMALL_CLASS = 4

#: Above this node count the packed uint64 solo-cover matrices stop
#: paying for their O(n²/8) memory (32 MiB per topology at the cap).
#: Shared with the adversaries' eager publication cap so a published
#: schedule is exactly what this engine consumes.
_PACKED_MAX_N = PACKED_ROWS_MAX_N

#: Distinct nonzero contributors beyond which the exact integer
#: expected-transmitter sum loses to a plain fsum over the vector. An
#: exact term costs about four nodes' worth of fsum, so small networks
#: get a proportionally smaller budget.
_EXACT_EXPECTED_TERMS = 64

#: Direct-mode (per-node planned) nodes beyond which the skip horizon
#: gives up rather than scan ``next_state_change`` node by node.
_SKIP_DIRECT_CAP = 32


def _fsum_of_counts(terms: Sequence[tuple[float, int]]) -> float:
    """``math.fsum`` of each ``p`` repeated ``count`` times, in O(#terms).

    Floats are dyadic rationals: numerators accumulate exactly over the
    largest power-of-two denominator seen, and int true division is
    correctly rounded, like fsum.
    """
    total, scale = 0, 1
    for p, count in terms:
        numerator, denominator = p.as_integer_ratio()
        if denominator > scale:
            total *= denominator // scale
            scale = denominator
        total += numerator * (scale // denominator) * count
    return total / scale


class BitsetRadioNetworkEngine(RadioNetworkEngine):
    """The fast engine, seed-for-seed identical to the reference one.

    Construction signature and public behavior match
    :class:`~repro.core.engine.RadioNetworkEngine`, plus the
    ``kernel``/``lane`` pair. By default (``kernel=...``) the engine
    probes :func:`~repro.core.bankpath.build_bank_kernel` with its own
    processes (a bank of one); the bank scheduler's lanes share one
    kernel, each at its lane index; ``kernel=None`` selects the
    per-process signature-class plan path. A kernel supplies plans,
    messages and feedback; every other stage is the same either way.

    One behavioral contract is *narrower* than the reference engine's:
    :meth:`~repro.core.process.Process.plan` may be called fewer times
    than once per node per round (never for silent-signature nodes,
    once per signature class otherwise, never under a kernel) — which
    the :class:`~repro.core.process.Process` docstring already licenses
    by requiring plans to be deterministic, side-effect-free functions
    of start-of-round state.
    """

    engine_name = "bank"

    def __init__(
        self,
        network,
        processes: Sequence[Process],
        link_process: LinkProcess,
        *,
        seed: int,
        algorithm_info: Optional[AlgorithmInfo] = None,
        validate_topologies: bool = True,
        observers: Sequence[Observer] = (),
        skip: bool = False,
        kernel=...,
        lane: int = 0,
    ) -> None:
        super().__init__(
            network,
            processes,
            link_process,
            seed=seed,
            algorithm_info=algorithm_info,
            validate_topologies=validate_topologies,
            observers=observers,
            skip=skip,
        )
        n = network.n
        # Per-node trait masks, assembled in byte rows: ``mask |= 1 << u``
        # on a growing bigint is O(u/64) per node — O(n²/64) for the
        # whole loop — while a bytearray bit-set plus one ``from_bytes``
        # is O(n) total. Traits are class-level decisions resolved once.
        nbytes = (n + 7) // 8
        always_bits = bytearray(nbytes)     # idle feedback cannot be skipped
        send_skip_bits = bytearray(nbytes)  # pure-transmit feedback is a no-op
        poll_bits = bytearray(nbytes)       # no expiry promise: re-signed every round
        class_traits: dict = {}
        for u, process in enumerate(self.processes):
            klass = type(process)
            traits = class_traits.get(klass)
            if traits is None:
                overridden = klass.on_feedback is not Process.on_feedback
                traits = (
                    overridden and not klass.idle_feedback_noop,
                    not overridden or klass.transmit_feedback_noop,
                    klass.plan_signature_expiry is Process.plan_signature_expiry,
                )
                class_traits[klass] = traits
            bit = 1 << (u & 7)
            if traits[0]:
                always_bits[u >> 3] |= bit
            if traits[1]:
                send_skip_bits[u >> 3] |= bit
            if traits[2]:
                poll_bits[u >> 3] |= bit
        poll = int.from_bytes(poll_bits, "little")
        self._always_feedback_mask = int.from_bytes(always_bits, "little")
        self._send_feedback_skip_mask = int.from_bytes(send_skip_bits, "little")
        self._poll_mask = poll
        # Incremental signature-class state. All non-poll nodes start
        # dirty so round 0 classifies everyone.
        self._dirty_mask = ((1 << n) - 1) & ~poll
        self._node_key: list = [None] * n
        self._class_masks: dict = {}
        self._silent_mask = 0
        self._direct_mask = 0
        self._expiry_heap: list[tuple[int, int]] = []
        # Every-round expiries skip the heap: a bit here means "re-poll
        # next round", merged into the dirty set at O(1) per round.
        self._renew_mask = 0
        # Churn promotion state: hot nodes bypass signatures entirely.
        self._hot_mask = 0
        self._churn = [0] * n
        self._cold = [0] * n
        # Cached unpack of _hot_mask (ids list, numpy index array, and
        # node → list-position map), rebuilt only when membership
        # changes — the hot loop itself runs every round.
        self._hot_ids: list[int] = []
        self._hot_index: Optional[np.ndarray] = None
        self._hot_pos: dict[int, int] = {}
        self._hot_plans: list[RoundPlan] = []
        self._hot_stale = False
        # Per-node plan scratch shared across rounds. Stale entries are
        # harmless: plan_for only reads nodes planned this round.
        self._node_plans: list[Optional[RoundPlan]] = [None] * n
        # Per-round shared class plans, refreshed by _plan_probs.
        self._round_plans: dict = {}
        # Round-scratch and reception state. Transmitter j is encoded
        # as 1 + (j+1)(n+1), so one matvec yields, per listener, both
        # the transmitting-neighbor count (mod n+1) and — when that
        # count is 1 — the sender id (div n+1). Totals stay integral
        # and far below 2⁵³, hence exact in float64.
        self._prob_buffer = np.zeros(n, dtype=np.float64)
        self._x_buffer = np.empty(n, dtype=np.float64)
        self._sender_encoding = 1.0 + np.arange(1, n + 1, dtype=np.float64) * (n + 1)
        self._nbytes = (n + 7) // 8
        self._matrix_cache: dict[int, np.ndarray] = {}
        self._matrix_keepalive: list = []
        self._validated_topologies: dict[int, object] = {}
        # Packed uint64 neighborhood matrices for the skip-gated
        # solo-cover reception (n beyond the dense-matrix cap).
        self._packed_words = (n + 63) // 64
        self._packed_cache: dict[int, np.ndarray] = {}
        self._packed_keepalive: list = []
        if kernel is ...:
            from repro.core.bankpath import build_bank_kernel

            kernel = build_bank_kernel([self.processes])
            lane = 0
        self._kernel = kernel
        self._lane = lane
        if kernel is not None and not kernel.supports_skip:
            # The multi-message kernels replace the per-node plan stage
            # with struct-of-arrays state, bypassing the signature-class
            # bookkeeping the skip probe reads — and those protocols are
            # never provably silent anyway (a node that knows anything
            # keeps a nonzero duty cycle). The single-message kernels
            # answer the probe themselves and keep skipping on.
            self.skip = False

    # ------------------------------------------------------------------
    # Round execution (same pipeline as the reference engine, batched)
    # ------------------------------------------------------------------
    # ``step`` is decomposed into stages so the bank scheduler
    # (:func:`repro.core.bankpath.run_bank_batch`) can drive many lanes
    # in lockstep: ``_plan_probs`` (stage 1), the shared coin draw
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
        """Stage 1: the round's per-node transmission probabilities.

        Also refreshes the per-round plan lookup state consumed by
        :meth:`_message_for` (signature classes, direct/poll/hot plans).
        """
        if self._kernel is not None:
            return self._kernel.probabilities(r)[self._lane]
        processes = self.processes

        # 1a. Re-classify nodes whose signature may have changed:
        # expired promises plus everything feedback touched last round.
        # Hot nodes are excluded — they are planned directly below, and
        # a stale heap entry must not drag them back into the class
        # machinery.
        heap = self._expiry_heap
        while heap and heap[0][0] <= r:
            self._dirty_mask |= 1 << heapq.heappop(heap)[1]
        dirty = (self._dirty_mask | self._renew_mask) & ~self._hot_mask
        self._dirty_mask = 0
        self._renew_mask = 0
        while dirty:
            low = dirty & -dirty
            dirty ^= low
            self._reclassify(low.bit_length() - 1, r)

        # 1b. One plan per signature class (computed by the lowest
        # member), plus per-node plans for direct/poll nodes.
        probs = self._prob_buffer
        probs.fill(0.0)
        round_plans: dict = {}
        self._round_plans = round_plans
        node_plans = self._node_plans
        for key, mask in self._class_masks.items():
            rep = (mask & -mask).bit_length() - 1
            plan = processes[rep].plan(r)
            round_plans[key] = plan
            if plan.probability:
                if mask.bit_count() <= _SMALL_CLASS:
                    m = mask
                    while m:
                        low = m & -m
                        probs[low.bit_length() - 1] = plan.probability
                        m ^= low
                else:
                    probs[self._mask_to_bool(mask)] = plan.probability
        direct = self._direct_mask
        while direct:
            low = direct & -direct
            u = low.bit_length() - 1
            direct ^= low
            plan = processes[u].plan(r)
            node_plans[u] = plan
            if plan.probability:
                probs[u] = plan.probability
        if self._hot_stale:
            self._rebuild_hot_cache()
        if self._hot_ids:
            # Two C-speed comprehensions — the same shape (and cost) as
            # the reference engine's plan stage, but over hot nodes only.
            hot_plans = [processes[u].plan(r) for u in self._hot_ids]
            hot_probs = [plan.probability for plan in hot_plans]
            self._hot_plans = hot_plans
            probs[self._hot_index] = hot_probs
            if 0.0 in hot_probs:
                self._cool_hot_nodes(hot_probs)
        poll = self._poll_mask
        while poll:
            low = poll & -poll
            u = low.bit_length() - 1
            poll ^= low
            process = processes[u]
            signature = process.plan_signature(r)
            if signature is SILENT_SIGNATURE:
                plan = _SILENCE_PLAN
            elif signature is None:
                plan = process.plan(r)
            else:
                key = (type(process), signature)
                plan = round_plans.get(key)
                if plan is None:
                    plan = process.plan(r)
                    round_plans[key] = plan
            node_plans[u] = plan
            if plan.probability:
                probs[u] = plan.probability
        return probs

    def _plan_for(self, u: int) -> RoundPlan:
        """The plan node ``u`` followed this round (senders only)."""
        key = self._node_key[u]
        if key is _HOT_KEY:
            return self._hot_plans[self._hot_pos[u]]
        if key is None or key is _DIRECT_KEY:
            return self._node_plans[u]
        if key is _SILENT_KEY:  # pragma: no cover - silent nodes never send
            return _SILENCE_PLAN
        return self._round_plans[key]

    def _message_for(self, u: int) -> Message:
        """The message transmitter ``u`` put on the air this round."""
        if self._kernel is not None:
            return self._kernel.message_for(self._lane, u)
        message = self._plan_for(u).message
        if message is None:  # pragma: no cover - PlanError guards this
            raise PlanError(f"transmitter {u} has no message")
        return message

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
        """Stage 4: exactly-one-transmitting-neighbor reception."""
        if not transmitter_mask:
            return []
        matrix = self._matrix_for(topology.masks)
        if matrix is not None:
            return self._resolve_with_matrix(transmit, matrix)
        if self.skip:
            packed = self._packed_for(topology)
            if packed is not None:
                return self._resolve_packed(transmitter_mask, topology.masks, packed)
        return self._resolve_candidates(transmitter_mask, topology.masks)

    def _apply_feedback(
        self, r: int, transmitter_mask: int, deliveries: Sequence[Delivery]
    ) -> None:
        """Stage 5: feedback, restricted to nodes that can react.

        Every node actually called is marked dirty for
        re-classification. Transmitters whose class promised
        transmit_feedback_noop are skipped outright — in dense rounds
        they are the bulk of the calls, and their state provably cannot
        have changed. Under a kernel only receivers carry state
        changes (eligibility pins process types with no-op idle and
        transmit feedback).
        """
        if self._kernel is not None:
            if deliveries:
                self._kernel.apply_feedback(self._lane, r, deliveries)
            return
        processes = self.processes
        pending = (
            transmitter_mask & ~self._send_feedback_skip_mask
        ) | self._always_feedback_mask
        received_by: dict[int, Delivery] = {}
        for delivery in deliveries:
            received_by[delivery.receiver] = delivery
            pending |= 1 << delivery.receiver
        # Hot nodes stay hot across feedback: their plan is computed
        # directly every round, so reclassification would only reset
        # the churn counter and re-run the machinery they escaped.
        self._dirty_mask |= pending & ~(self._poll_mask | self._hot_mask)
        while pending:
            low = pending & -pending
            u = low.bit_length() - 1
            pending ^= low
            delivery = received_by.get(u)
            processes[u].on_feedback(
                r,
                bool((transmitter_mask >> u) & 1),
                delivery.message if delivery is not None else None,
            )

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

        The bank scheduler passes ``topology``/``deliveries`` when it
        already resolved them (batched matvec reception across lanes
        that share a round topology); left as ``None``, the stages run
        per engine exactly as in a standalone ``step``.
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
        self._apply_feedback(r, transmitter_mask, deliveries)
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

        ``math.fsum`` returns the *correctly rounded* sum of its
        inputs, so any other correctly rounded evaluation of the same
        float multiset yields the identical value — here an exact
        integer accumulation over the class composition (count ×
        probability per signature class, plus the per-node categories),
        which is O(#classes) instead of O(n). Compositions with more
        distinct nonzero contributors than the exact sum can beat fall
        back to the fsum the reference engine uses. A skip-capable
        kernel answers in O(1).
        """
        kernel = self._kernel
        if kernel is not None:
            if kernel.supports_skip:
                return kernel.expected_exact(self._lane, kernel._r)
            return math.fsum(probs.tolist())
        budget = min(_EXACT_EXPECTED_TERMS, probs.size // 4)
        terms: list[tuple[float, int]] = []
        for p, count in self._contributions():
            if p:
                if len(terms) == budget:
                    return math.fsum(probs.tolist())
                terms.append((p, count))
        return _fsum_of_counts(terms)

    def _contributions(self):
        """(probability, node count) per signature class and per
        individually planned node, for the round just planned."""
        round_plans = self._round_plans
        for key, mask in self._class_masks.items():
            yield round_plans[key].probability, mask.bit_count()
        node_plans = self._node_plans
        singles = self._direct_mask | self._poll_mask
        while singles:
            low = singles & -singles
            singles ^= low
            yield node_plans[low.bit_length() - 1].probability, 1
        if self._hot_ids:
            for plan in self._hot_plans:
                yield plan.probability, 1

    def _skip_horizon(self, record: RoundRecord, limit: int) -> int:
        """First round in ``(r, limit]`` at which anything may change.

        A skip-capable kernel answers from its struct-of-arrays state,
        whatever round ``r`` did: its ``next_active_round`` promises
        every round before it silent (state changes ride deliveries
        only, and silent rounds deliver nothing), so the span from one
        slot round to the next is skipped without executing a probe
        round in between.

        The signature-class path licenses a span only after an
        all-silent round with no pending re-polls, hot/poll churners
        or reactive feedback, and narrows the reference engine's O(n)
        probe to O(#classes): silent nodes' transitions are already
        scheduled on the expiry heap, so only the live class
        representatives (one ``next_state_change`` per class — members
        agree by the contract) and the few direct-mode nodes need
        polling. Both paths clamp to the adversary's ``next_boundary``.
        """
        r = record.round_index
        kernel = self._kernel
        if kernel is None:
            if (
                record.transmitter_mask
                or record.expected_transmitters != 0.0
                or self._hot_mask
                or self._poll_mask
                or self._renew_mask
                or self._dirty_mask
                or self._always_feedback_mask
            ):
                return r + 1
        elif not kernel.supports_skip:
            return r + 1
        h = limit
        boundary = self.link_process.next_boundary(r)
        if boundary is not None and boundary < h:
            h = boundary
        if kernel is not None:
            nxt = kernel.next_active_round(self._lane, r)
            return max(h if nxt is None else min(nxt, h), r + 1)
        heap = self._expiry_heap
        if heap and heap[0][0] < h:
            h = heap[0][0]
        if h <= r + 1:
            return r + 1
        processes = self.processes
        for mask in self._class_masks.values():
            rep = (mask & -mask).bit_length() - 1
            nxt = processes[rep].next_state_change(r)
            if nxt is not None and nxt < h:
                h = nxt
                if h <= r + 1:
                    return r + 1
        direct = self._direct_mask
        if direct:
            if direct.bit_count() > _SKIP_DIRECT_CAP:
                return r + 1
            while direct:
                low = direct & -direct
                direct ^= low
                nxt = processes[low.bit_length() - 1].next_state_change(r)
                if nxt is not None and nxt < h:
                    h = nxt
                    if h <= r + 1:
                        return r + 1
        return max(h, r + 1)

    def _trace_end(self, rec, result: ExecutionResult) -> None:
        """Stamp the end-of-run signature-class composition, then flush.

        Snapshot counters (not per-round aggregates): they answer "how
        many classes was this population sharing when the run ended",
        which is the quantity the class machinery's wins hinge on.
        """
        counts = self._trace_counts
        counts["classes.signature"] = len(self._class_masks)
        counts["classes.hot"] = self._hot_mask.bit_count()
        counts["classes.direct"] = self._direct_mask.bit_count()
        counts["classes.silent"] = self._silent_mask.bit_count()
        super()._trace_end(rec, result)

    # ------------------------------------------------------------------
    # Hot-path bookkeeping
    # ------------------------------------------------------------------
    def _rebuild_hot_cache(self) -> None:
        """Unpack ``_hot_mask`` into the ids list + index structures once."""
        mask = self._hot_mask
        ids: list[int] = []
        while mask:
            low = mask & -mask
            ids.append(low.bit_length() - 1)
            mask ^= low
        self._hot_ids = ids
        self._hot_index = np.asarray(ids, dtype=np.intp) if ids else None
        self._hot_pos = {u: i for i, u in enumerate(ids)}
        self._hot_stale = False

    def _cool_hot_nodes(self, hot_probs: Sequence[float]) -> None:
        """Track consecutive all-silent plans; demote chronic sleepers.

        Called only on rounds where some hot node planned silence, so
        the per-node counter work stays off the common path.
        """
        cold = self._cold
        for u, probability in zip(self._hot_ids, hot_probs):
            if probability:
                cold[u] = 0
                continue
            count = cold[u] + 1
            if count < _COLD_DEMOTE:
                cold[u] = count
                continue
            # Gone quiet: hand the node back to classification (a truly
            # silent node then costs nothing per round).
            bit = 1 << u
            self._hot_mask &= ~bit
            self._hot_stale = True
            self._node_key[u] = None
            self._churn[u] = 0
            cold[u] = 0
            self._dirty_mask |= bit

    # ------------------------------------------------------------------
    # Signature-class bookkeeping
    # ------------------------------------------------------------------
    def _reclassify(self, u: int, r: int) -> None:
        """Re-poll node ``u``'s signature and move it between classes."""
        process = self.processes[u]
        signature = process.plan_signature(r)
        expiry = process.plan_signature_expiry(r)
        if signature is SILENT_SIGNATURE:
            new_key: object = _SILENT_KEY
        elif signature is None:
            new_key = _DIRECT_KEY
        else:
            new_key = (type(process), signature)
        bit = 1 << u
        old_key = self._node_key[u]
        if new_key != old_key:
            if old_key is _SILENT_KEY:
                self._silent_mask &= ~bit
            elif old_key is _DIRECT_KEY:
                self._direct_mask &= ~bit
            elif old_key is not None:
                remaining = self._class_masks[old_key] & ~bit
                if remaining:
                    self._class_masks[old_key] = remaining
                else:
                    del self._class_masks[old_key]
            if new_key is _SILENT_KEY:
                self._silent_mask |= bit
            elif new_key is _DIRECT_KEY:
                self._direct_mask |= bit
            else:
                self._class_masks[new_key] = self._class_masks.get(new_key, 0) | bit
            self._node_key[u] = new_key
        if expiry is None:
            self._churn[u] = 0
            return
        if expiry > r + 1:
            self._churn[u] = 0
            # A stale (superseded) heap entry only causes a harmless
            # extra re-poll, so entries are never invalidated.
            heapq.heappush(self._expiry_heap, (expiry, u))
            return
        # The signature expires immediately — the node will be re-polled
        # next round via the renew mask (no heap traffic). A node that
        # keeps expiring every round (the time-driven `_advance(r)`
        # shape: fresh signature every round, usually per-node) pays
        # the full signature machinery on top of the plan call it
        # rarely manages to share, and :meth:`plan_signature` costs
        # about as much as :meth:`plan` for exactly those protocols —
        # promote such chronic churners to the hot path. Every-round
        # expiry never describes the lockstep ladder algorithms (their
        # promises span phases or say "feedback only"), so the E1-style
        # signature wins are untouched.
        if new_key is not _SILENT_KEY:
            churn = self._churn[u] + 1
            if churn >= _CHURN_PROMOTE:
                if new_key is _DIRECT_KEY:
                    self._direct_mask &= ~bit
                else:
                    remaining = self._class_masks[new_key] & ~bit
                    if remaining:
                        self._class_masks[new_key] = remaining
                    else:
                        del self._class_masks[new_key]
                self._node_key[u] = _HOT_KEY
                self._hot_mask |= bit
                self._hot_stale = True
                self._churn[u] = 0
                self._cold[u] = 0
                return
            self._churn[u] = churn
        else:
            self._churn[u] = 0
        self._renew_mask |= bit

    def _mask_to_bool(self, mask: int) -> np.ndarray:
        """A member bitmask as a boolean index vector (C-speed unpack)."""
        packed = np.frombuffer(mask.to_bytes(self._nbytes, "little"), dtype=np.uint8)
        return np.unpackbits(
            packed, bitorder="little", count=self.network.n
        ).astype(bool)

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
        receptions exactly as the reference loop does.
        """
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

    def _packed_for(self, topology) -> Optional[np.ndarray]:
        """Word-packed ``(n, n//64)`` neighborhood matrix, if cached.

        The dense count/sender matvec stops paying for itself beyond
        ``_MATRIX_MAX_N``; up to ``_PACKED_MAX_N`` the uint64-packed
        rows keep reception word-parallel (64 listeners per machine
        word) with a footprint of ``n²/8`` bytes instead of ``8n²``.
        Same id-keyed cache discipline as :meth:`_matrix_for`; the rows
        themselves come from :meth:`RoundTopology.packed_rows`, so a
        schedule an adversary published in ``start()`` is shared across
        every engine lane rather than re-packed per engine.
        """
        n = self.network.n
        if n > _PACKED_MAX_N:
            return None
        counts = self._trace_counts if self._trace is not None else None
        masks = topology.masks
        key = id(masks)
        packed = self._packed_cache.get(key)
        if packed is not None:
            if counts is not None:
                counts["cache.packed.hit"] = counts.get("cache.packed.hit", 0) + 1
            return packed
        if counts is not None:
            counts["cache.packed.miss"] = counts.get("cache.packed.miss", 0) + 1
        if len(self._packed_cache) >= _MATRIX_CACHE_SIZE:
            return None  # topology churn: the bigint scan is cheaper
        packed = topology.packed_rows()
        self._packed_cache[key] = packed
        self._packed_keepalive.append(masks)
        return packed

    def _resolve_packed(
        self, transmitter_mask: int, masks: Sequence[int], packed: np.ndarray
    ) -> list[Delivery]:
        """Reception via a saturating popcount over packed rows.

        By topology symmetry, listener ``v`` hears solo transmitter
        ``u`` iff bit ``v`` is set in row ``u``; a tree reduction over
        the transmitters' rows carries (covered-once, covered-twice)
        word pairs — combine is ``(a1|b1, a2|b2|(a1&b1))`` — so
        ``cover & ~twice`` marks exactly the listeners with one
        transmitting neighbor.
        """
        if not (transmitter_mask & (transmitter_mask - 1)):
            # Single transmitter: its neighborhood row is the solo set.
            u = transmitter_mask.bit_length() - 1
            message = self._message_for(u)
            receivers = masks[u] & ~transmitter_mask
            deliveries: list[Delivery] = []
            while receivers:
                low = receivers & -receivers
                receivers ^= low
                deliveries.append(
                    Delivery(
                        receiver=low.bit_length() - 1, sender=u, message=message
                    )
                )
            return deliveries
        t_ids = []
        t = transmitter_mask
        while t:
            low = t & -t
            t_ids.append(low.bit_length() - 1)
            t ^= low
        cover = packed[t_ids]
        twice = np.zeros_like(cover)
        while cover.shape[0] > 1:
            half = cover.shape[0] // 2
            a1, b1 = cover[:half], cover[half : 2 * half]
            a2, b2 = twice[:half], twice[half : 2 * half]
            new_cover = a1 | b1
            new_twice = a2 | b2 | (a1 & b1)
            if cover.shape[0] & 1:
                new_cover = np.concatenate([new_cover, cover[-1:]])
                new_twice = np.concatenate([new_twice, twice[-1:]])
            cover, twice = new_cover, new_twice
        solo = int.from_bytes((cover[0] & ~twice[0]).tobytes(), "little")
        solo &= ~transmitter_mask
        deliveries = []
        message_for = self._message_for
        while solo:
            low = solo & -solo
            u = low.bit_length() - 1
            solo ^= low
            sender = (masks[u] & transmitter_mask).bit_length() - 1
            deliveries.append(
                Delivery(receiver=u, sender=sender, message=message_for(sender))
            )
        return deliveries
