"""The synchronous round engine for the dual graph radio model.

Implements the execution semantics of Section 2: executions proceed in
synchronous rounds; in each round every node either transmits or
listens; the communication topology is ``G`` plus the flaky edges the
link process selected for the round; and node ``u`` receives message
``m`` from ``v`` iff (1) ``u`` is receiving, (2) ``v`` transmits ``m``,
and (3) ``v`` is the *only* transmitter among ``u``'s neighbors in the
round's topology. Concurrent neighboring transmissions collide and are
indistinguishable from silence (no collision detection).

Round pipeline (see :mod:`repro.core.process` for why plans are
declarative)::

    1. plans[u]   = process_u.plan(r)                (deterministic in state)
    2. coins      = vectorized Bernoulli(plans.probability)
    3. topology   = link_process.choose_topology(view_for_class(r))
    4. deliveries = { u listens, popcount(X & mask_u) == 1 }
    5. process_u.on_feedback(r, sent, received)
    6. observers.on_round(record);  stop check

The engine exposes both :meth:`RadioNetworkEngine.run` (run to a stop
condition) and :meth:`RadioNetworkEngine.step` (single round), the
latter because the lower-bound reduction players of Theorems 3.1/4.3
interleave game guesses between simulated rounds. ``step`` is each
engine's one round body, and there is one run loop:
:func:`repro.core.bankpath.run_bank_batch` steps every lane of a seed
bank, and ``run()`` is a bank of one.

:class:`RadioNetworkEngine` is the **reference** implementation — the
straight-line per-node loop that everything else is audited against.
A seed-for-seed identical vectorized implementation (the ``bank``
fast engine, also spelled ``bitset``) lives in
:mod:`repro.core.fastpath` and runs only with a protocol kernel;
select between them with :func:`create_engine` (or the ``engine=``
field on :class:`~repro.api.spec.ScenarioSpec` and the CLI's
``--engine``), which routes a ``bank`` request that no kernel serves
to this engine (:func:`resolve_engine_choice`).
With ``skip`` on, the run loop asks one hook after every executed
round, :meth:`~RadioNetworkEngine._skip_horizon`, which each engine
answers its own way, and emits the provably silent span it returns
without executing it.
"""

from __future__ import annotations

import math
import random
import warnings
from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass
from time import perf_counter_ns
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from repro.adversaries.base import (
    AdversaryClass,
    AlgorithmInfo,
    HistoryEntry,
    LinkProcess,
    ObliviousView,
    OfflineAdaptiveView,
    OnlineAdaptiveView,
    RoundTopology,
)
from repro.core import rng as rng_mod
from repro.core.errors import EngineError, EngineFallbackWarning, PlanError
from repro.obs.recorder import inc as _obs_inc
from repro.core.process import Process, RoundPlan
from repro.core.trace import Delivery, Observer, RoundRecord

if TYPE_CHECKING:  # algorithms sit above this layer; type-only import
    from repro.algorithms.base import AlgorithmSpec

__all__ = [
    "RadioNetworkEngine",
    "ExecutionResult",
    "StopCondition",
    "ENGINE_NAMES",
    "build_engine",
    "create_engine",
    "resolve_engine_choice",
    "warn_fallbacks",
]

#: Engine names accepted by ``create_engine`` /
#: ``ScenarioSpec(engine=...)`` / ``repro ... --engine``. Two
#: implementations: ``"bitset"`` is an alias of ``"bank"``, resolved by
#: :func:`resolve_engine_choice` (the name itself stays part of a
#: spec's hashed identity).
ENGINE_NAMES = ("reference", "bitset", "bank")

#: Predicate deciding, after each round, whether the execution is done.
StopCondition = Callable[[], bool]

#: Cap on retained public history entries handed to adaptive views.
_HISTORY_WINDOW = 4096

#: Longest stretch of rounds a failed skip attempt backs off for. The
#: reference engine's skip probe polls every process, so attempting it
#: each round of a busy stretch would double the plan work; doubling
#: the retry gap caps that overhead at a constant factor while keeping
#: the probe responsive once the network goes quiet.
_SKIP_BACKOFF_MAX = 64


class _HistoryWindow(_SequenceABC):
    """O(1) frozen-length window over the engine's append-only history.

    Adaptive views used to receive ``tuple(history)`` — an O(window)
    copy every round, which dominated long executions. A window instead
    shares the engine's history list and pins the absolute entry range
    ``[start, stop)`` visible at view-construction time, so snapshot
    semantics are preserved (a view retained across rounds never grows)
    at O(1) construction cost. Entries themselves are immutable.

    The engine trims history beyond its retention window; accessing an
    entry that has since been trimmed raises :class:`LookupError` (such
    an access exceeds the entitlement the view modeled anyway).
    """

    __slots__ = ("_entries", "_trimmed", "_start", "_stop")

    def __init__(self, entries: list, trimmed: list, start: int, stop: int) -> None:
        self._entries = entries
        self._trimmed = trimmed  # shared one-cell trim counter
        self._start = start
        self._stop = stop

    def __len__(self) -> int:
        return self._stop - self._start

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(
                self[i] for i in range(*index.indices(len(self)))
            )
        length = len(self)
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError(f"history index {index} outside window of {length}")
        position = self._start + index - self._trimmed[0]
        if position < 0:
            raise LookupError(
                "history entry has been trimmed out of the retention window"
            )
        return self._entries[position]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_HistoryWindow({len(self)} entries)"


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of an engine run.

    ``solved`` / ``solve_round`` are filled from the stop condition: if
    the run stopped because the condition fired, ``solve_round`` is the
    0-based round after which it first held. ``rounds`` counts executed
    rounds (equals ``solve_round + 1`` on success).

    A stop condition that already holds *before round 0* (a trivially
    solved instance, e.g. a broadcast set with no receivers) yields
    ``solved=True, rounds=0, solve_round=-1`` — the sentinel ``-1``
    means "solved at start, no round executed", keeping ``solve_round``
    unambiguous: ``None`` now always means *unsolved*.
    """

    rounds: int
    solved: bool
    solve_round: Optional[int]

    @property
    def solved_at_start(self) -> bool:
        """True iff the stop condition held before any round executed."""
        return self.solved and self.solve_round == -1

    def rounds_to_solve(self) -> int:
        """Rounds executed up to the solve; raises if unsolved (guards analysis code)."""
        if not self.solved:
            raise ValueError("execution did not solve the problem")
        return self.rounds


class RadioNetworkEngine:
    """Drives one execution of an algorithm against a link process.

    Parameters
    ----------
    network:
        The dual graph topology.
    processes:
        One :class:`~repro.core.process.Process` per node, index-aligned
        with node ids.
    link_process:
        The adversary controlling flaky links.
    seed:
        Master seed; the transmission coins, and nothing else, are drawn
        from the engine's own child stream so that algorithm/adversary
        randomness never perturbs coin alignment between runs.
    algorithm_info:
        Description handed to the adversary's ``start`` (defaults to an
        anonymous entry).
    validate_topologies:
        When true (default), every round topology is checked against
        ``G ⊆ topology ⊆ G'``. Costs ~2x; experiment sweeps disable it
        after the adversary under test has unit coverage.
    observers:
        Initial observer list; more can be added with
        :meth:`add_observer`.
    skip:
        Enable event-driven round skipping in :meth:`run`: spans of
        provably inert rounds (all plans silent and stable, no
        adversary boundary, no reactive feedback) are fast-forwarded
        while the coin stream is advanced in lockstep, so the trace —
        records, history, RNG positions — stays bit-identical to a
        non-skipping run. Off by default here; :func:`create_engine`
        turns it on for the fast engine.
    """

    #: Name this implementation reports in trace records (a resolved
    #: :data:`ENGINE_NAMES` entry; the fast engine overrides it).
    engine_name = "reference"

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
    ) -> None:
        if len(processes) != network.n:
            raise PlanError(
                f"need exactly one process per node: n={network.n}, got {len(processes)}"
            )
        self.processes = list(processes)
        self._init_execution(
            network,
            link_process,
            seed=seed,
            algorithm_info=algorithm_info,
            validate_topologies=validate_topologies,
            observers=observers,
            skip=skip,
        )

    def _init_execution(
        self,
        network,
        link_process: LinkProcess,
        *,
        seed: int,
        algorithm_info: Optional[AlgorithmInfo] = None,
        validate_topologies: bool = True,
        observers: Sequence[Observer] = (),
        skip: bool = False,
    ) -> None:
        """Everything but the processes: streams, history, run state."""
        self.network = network
        self.link_process = link_process
        self.seed = seed
        self.validate_topologies = validate_topologies
        self.skip = bool(skip)
        self.observers: list[Observer] = list(observers)
        self.algorithm_info = algorithm_info or AlgorithmInfo(name="anonymous", metadata={})

        self._coin_rng = rng_mod.spawn_numpy_rng(seed, "engine", "coins")
        self._adversary_rng = rng_mod.spawn_rng(seed, "engine", "adversary")
        self._history: list[HistoryEntry] = []
        self._history_trimmed = [0]  # shared with views handed out per round
        self._round = 0
        self._started = False
        # Tracing state: ``_trace`` holds the active recorder for the
        # duration of one :meth:`run` (``None`` otherwise, so every
        # instrumented site is a single pointer comparison when tracing
        # is off). Phase nanoseconds and semantic counters accumulate
        # locally and flush as one trial record at the end of the run.
        self._trace = None
        self._phase_ns: dict[str, int] = {}
        self._trace_counts: dict[str, float] = {}
        # Skip-probe state: the cached idle-feedback licence and the
        # failed-probe backoff (see _skip_horizon).
        self._idle_feedback_quiet: Optional[bool] = None
        self._skip_backoff = 1
        self._skip_retry_at = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def round_index(self) -> int:
        """Index of the *next* round to execute."""
        return self._round

    def add_observer(self, observer: Observer) -> None:
        """Attach an observer; it sees all rounds executed after this call."""
        self.observers.append(observer)

    def _ensure_started(self) -> None:
        if self._started:
            return
        self.link_process.start(self.network, self.algorithm_info, self._adversary_rng)
        for process in self.processes:
            process.begin()
        self._started = True

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------
    def step(self) -> RoundRecord:
        """Execute exactly one round and return its record."""
        self._ensure_started()
        r = self._round
        n = self.network.n
        # Phase spans are timed only while a recorder is active for the
        # surrounding run(); the disabled cost per phase is the pointer
        # comparison on ``ph``.
        ph = self._phase_ns if self._trace is not None else None
        if ph is not None:
            t0 = perf_counter_ns()

        # 1. Deterministic plans.
        plans: list[RoundPlan] = [process.plan(r) for process in self.processes]
        probabilities = [plan.probability for plan in plans]
        # fsum is exactly rounded and therefore order-independent, so
        # the fast engine — which discovers the same probability
        # multiset in a different order — records bit-identical values.
        expected = math.fsum(probabilities)
        if ph is not None:
            t1 = perf_counter_ns()
            ph["plan"] += t1 - t0
            t0 = t1

        # 2. Vectorized Bernoulli coins (shared with the fast path).
        _, transmitter_mask = rng_mod.transmission_coins(
            self._coin_rng, np.asarray(probabilities, dtype=np.float64)
        )
        if ph is not None:
            t1 = perf_counter_ns()
            ph["coins"] += t1 - t0
            t0 = t1

        # 3. Adversary fixes the round topology through its typed view.
        view = self._build_view(r, probabilities, transmitter_mask)
        topology = self.link_process.choose_topology(view)
        if self.validate_topologies:
            topology.validate(self.network)
        if ph is not None:
            t1 = perf_counter_ns()
            ph["adversary"] += t1 - t0
            t0 = t1

        # 4. Radio reception: exactly-one-transmitting-neighbor rule.
        deliveries = self._resolve_receptions(plans, transmitter_mask, topology)
        if ph is not None:
            t1 = perf_counter_ns()
            ph["reception"] += t1 - t0
            t0 = t1

        # 5. Feedback to processes.
        received_by: dict[int, Delivery] = {d.receiver: d for d in deliveries}
        for u, process in enumerate(self.processes):
            sent = bool((transmitter_mask >> u) & 1)
            delivery = received_by.get(u)
            process.on_feedback(r, sent, delivery.message if delivery else None)
        if ph is not None:
            t1 = perf_counter_ns()
            ph["feedback"] += t1 - t0
            t0 = t1

        # 6. Record keeping.
        return self._close_round(
            r, transmitter_mask, deliveries, expected, t0 if ph is not None else 0
        )

    def _close_round(
        self,
        r: int,
        transmitter_mask: int,
        deliveries: Sequence[Delivery],
        expected: float,
        t0: int,
    ) -> RoundRecord:
        """Stage 6 of both engines' ``step``: record, history, observers.

        ``t0`` is the traced phase clock at the end of stage 5 (ignored
        when tracing is off).
        """
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
        if self._trace is not None:
            self._phase_ns["observers"] += perf_counter_ns() - t0
            counts = self._trace_counts
            counts["rounds.executed"] = counts.get("rounds.executed", 0) + 1
        return record

    def _history_snapshot(self) -> _HistoryWindow:
        """The retained history as an O(1) frozen-length window."""
        start = self._history_trimmed[0]
        return _HistoryWindow(
            self._history, self._history_trimmed, start, start + len(self._history)
        )

    def _build_view(
        self, r: int, probabilities: Sequence[float], transmitter_mask: int
    ) -> ObliviousView:
        klass = self.link_process.adversary_class
        if klass is AdversaryClass.OBLIVIOUS:
            return ObliviousView(round_index=r)
        if klass is AdversaryClass.ONLINE_ADAPTIVE:
            return OnlineAdaptiveView(
                round_index=r,
                transmit_probabilities=tuple(probabilities),
                history=self._history_snapshot(),
            )
        return OfflineAdaptiveView(
            round_index=r,
            transmit_probabilities=tuple(probabilities),
            history=self._history_snapshot(),
            transmitter_mask=transmitter_mask,
        )

    def _resolve_receptions(
        self,
        plans: Sequence[RoundPlan],
        transmitter_mask: int,
        topology: RoundTopology,
    ) -> list[Delivery]:
        deliveries: list[Delivery] = []
        if not transmitter_mask:
            return deliveries
        masks = topology.masks
        listener_mask = ((1 << self.network.n) - 1) & ~transmitter_mask
        mask = listener_mask
        while mask:
            low = mask & -mask
            u = low.bit_length() - 1
            mask ^= low
            neighbors_transmitting = transmitter_mask & masks[u]
            if neighbors_transmitting and not (
                neighbors_transmitting & (neighbors_transmitting - 1)
            ):
                sender = neighbors_transmitting.bit_length() - 1
                message = plans[sender].message
                if message is None:  # pragma: no cover - PlanError guards this
                    raise PlanError(f"transmitter {sender} has no message")
                deliveries.append(Delivery(u, sender, message))
        return deliveries

    def _append_history(self, record: RoundRecord) -> None:
        # Only adaptive views read the history: an oblivious link
        # process's engine keeps none.
        if self.link_process.adversary_class is AdversaryClass.OBLIVIOUS:
            return
        self._history.append(
            HistoryEntry(
                round_index=record.round_index,
                transmitter_mask=record.transmitter_mask,
                delivery_count=len(record.deliveries),
            )
        )
        if len(self._history) > _HISTORY_WINDOW:
            trim = len(self._history) - _HISTORY_WINDOW
            del self._history[:trim]
            self._history_trimmed[0] += trim

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(self, *, max_rounds: int, stop: Optional[StopCondition] = None) -> ExecutionResult:
        """Execute rounds until ``stop()`` fires or ``max_rounds`` elapse.

        A run is a bank of one: the loop of
        :func:`repro.core.bankpath.run_bank_batch` drives it exactly as
        it drives each lane of a seed bank. The run
        starts at :attr:`round_index`, so a run after :meth:`step` calls
        or after an earlier run continues from there; ``rounds`` counts
        this run's rounds and ``solve_round`` is absolute. The stop
        condition is evaluated once before the first round (a problem
        can be trivially solved at start — e.g. a broadcast set whose
        receivers are empty) and after every round the run executes or
        emits one by one. With ``skip`` on, an oblivious link process and
        at least one observer, all of which accept ``on_round_batch``, a
        silent span goes out as one batch with no stop check inside it:
        the stop condition must then be a function of observer state,
        which does not change over an all-silent span.
        """
        from repro.core.bankpath import BankLane, _run_bank

        return _run_bank([BankLane(self, stop)], max_rounds)[0]

    # ------------------------------------------------------------------
    # Tracing (see repro.obs: timing only, never semantics)
    # ------------------------------------------------------------------
    def _trace_begin(self, rec) -> None:
        """Arm per-phase timing for one :meth:`run`."""
        self._trace = rec
        self._phase_ns = {
            "plan": 0,
            "coins": 0,
            "adversary": 0,
            "reception": 0,
            "feedback": 0,
            "observers": 0,
            "skip": 0,
        }
        self._trace_counts = {}

    def _trace_end(self, rec, result: ExecutionResult) -> None:
        """Flush the accumulated phases/counters as one trial record.

        Phase nanoseconds are also folded into the recorder's counters
        under ``phase.<name>``, so consumers that only see the counter
        surface (shard rollups, serve workers diffing
        :meth:`~repro.obs.recorder.Recorder.checkpoint`) still get the
        per-phase breakdown without parsing the JSONL stream.
        """
        counts = self._trace_counts
        if counts:
            rec.merge_counters(counts)
        rec.merge_counters(
            {f"phase.{name}": ns for name, ns in self._phase_ns.items() if ns}
        )
        rec.emit(
            {
                "kind": "trial",
                "engine": self.engine_name,
                "seed": self.seed,
                "n": self.network.n,
                "rounds": result.rounds,
                "solved": result.solved,
                "phases": {k: v for k, v in self._phase_ns.items() if v},
                "counters": {k: v for k, v in counts.items() if v},
            }
        )

    # ------------------------------------------------------------------
    # Round skipping
    # ------------------------------------------------------------------
    def _emit_quiet_round(self, i: int) -> RoundRecord:
        """Materialize one skipped all-silent round.

        Exactly what a full execution of the round would have produced:
        the coin stream advances by the ``n`` uniforms the Bernoulli
        stage would have drawn (one :meth:`advance` per round on this
        per-round path, so a mid-span stop leaves the stream at
        precisely the position a non-skipping run would), and the
        record/history/observer plumbing runs unchanged. The batched
        alternative is :meth:`_emit_quiet_span`.
        """
        self._coin_rng.bit_generator.advance(self.network.n)
        record = RoundRecord(
            round_index=i,
            transmitter_mask=0,
            deliveries=(),
            expected_transmitters=0.0,
        )
        self._append_history(record)
        for observer in self.observers:
            observer.on_round(record)
        self._round += 1
        if self._trace is not None:
            counts = self._trace_counts
            counts["rounds.skipped"] = counts.get("rounds.skipped", 0) + 1
        return record

    def _emit_quiet_rounds(
        self, start: int, stop_round: int, stop: Optional[StopCondition]
    ) -> Optional[int]:
        """Emit skipped rounds ``start .. stop_round-1`` one by one.

        Each round goes through :meth:`_emit_quiet_round` and gets its
        own stop check, so a stop that fires mid-span ends the run on
        exactly the round a non-skipping run would. Returns the round
        after which ``stop`` fired, or ``None`` if the span completed.
        """
        if self._trace is not None and stop_round > start:
            counts = self._trace_counts
            counts["skip.spans"] = counts.get("skip.spans", 0) + 1
            self._trace.observe("skip.span_rounds", stop_round - start)
        for i in range(start, stop_round):
            self._emit_quiet_round(i)
            if stop is not None and stop():
                return i
        return None

    def _emit_quiet_span(self, start: int, stop: int) -> None:
        """Emit all-silent rounds ``start .. stop-1`` as one batch.

        Observable-equivalent to :meth:`_emit_quiet_rounds` over the
        same span: the coin stream advances by exactly ``n · span``
        uniforms (one :meth:`advance` call — the PCG64 jump-ahead is
        O(log span), and the final stream position is identical),
        observers get one ``on_round_batch(start, stop)`` instead of
        ``span`` materialized records, and the round/stat counters land
        on the same values. Callers must ensure every attached observer
        implements the batch hook (see
        :class:`~repro.core.trace.Observer`) and that no mid-span stop
        check is needed — batch-capable observers are span-invariant
        over all-silent rounds, so a stop condition that is false at
        ``start`` stays false through ``stop``. History entries are
        *not* appended: retained history feeds adaptive adversary
        views, so callers keep lanes with an adaptive link process on
        the per-round path.
        """
        self._coin_rng.bit_generator.advance(self.network.n * (stop - start))
        for observer in self.observers:
            observer.on_round_batch(start, stop)
        self._round = stop
        if self._trace is not None:
            counts = self._trace_counts
            counts["rounds.skipped"] = counts.get("rounds.skipped", 0) + (stop - start)
            counts["skip.spans"] = counts.get("skip.spans", 0) + 1
            self._trace.observe("skip.span_rounds", stop - start)

    def _skip_horizon(self, record: RoundRecord, limit: int) -> int:
        """First round in ``(r, limit]`` at which anything may change.

        The one skip hook: the run loop,
        :func:`~repro.core.bankpath.run_bank_batch`, calls it after every
        round ``r`` a skip-enabled engine executes, with that round's
        record, and emits ``[r + 1, horizon)`` without executing it.
        Here a span is licensed only after an all-silent
        round (``expected == 0.0`` is exact: a sum of non-negative
        terms is zero iff every term is) and only when idle feedback is
        a no-op for every process class (``idle_feedback_noop``, or
        ``on_feedback`` not overridden; checked once per engine). Then
        every plan provably stays silent up to
        :meth:`~repro.core.process.Process.next_state_change` and the
        adversary's masks stay put up to
        :meth:`~repro.adversaries.base.LinkProcess.next_boundary`.
        Returns ``r + 1`` when nothing is skippable. The probe polls
        every process, so a failed attempt backs off (see
        ``_SKIP_BACKOFF_MAX``) before the next one.
        """
        r = record.round_index
        start = r + 1
        if record.transmitter_mask or record.expected_transmitters != 0.0:
            return start
        quiet = self._idle_feedback_quiet
        if quiet is None:
            quiet = self._idle_feedback_quiet = all(
                type(p).idle_feedback_noop
                or type(p).on_feedback is Process.on_feedback
                for p in self.processes
            )
        if not quiet or start < self._skip_retry_at:
            return start
        h = limit
        boundary = self.link_process.next_boundary(r)
        if boundary is not None and boundary < h:
            h = boundary
        for process in self.processes:
            if h <= start:
                break
            nxt = process.next_state_change(r)
            if nxt is not None and nxt < h:
                h = nxt
        if h <= start:
            self._skip_retry_at = start + self._skip_backoff
            self._skip_backoff = min(self._skip_backoff * 2, _SKIP_BACKOFF_MAX)
            return start
        self._skip_backoff = 1
        return h


# ----------------------------------------------------------------------
# Engine selection
# ----------------------------------------------------------------------
def _skip_contract_gaps(
    processes: Sequence[Process], link_process: LinkProcess
) -> list[str]:
    """Component types lacking the skip contract (empty = all fine).

    A component "has the contract" when it *overrides* the base-class
    method: every registered algorithm and adversary carries an
    explicit override (even a trivial ``r + 1`` one), so a hit here
    means a third-party component the skip machinery knows nothing
    about. The base defaults are semantically safe (never skip), but a
    requested-and-useless skip deserves the fallback warning rather
    than silent non-acceleration.
    """
    gaps: list[str] = []
    seen: set = set()
    for process in processes:
        klass = type(process)
        if klass in seen:
            continue
        seen.add(klass)
        if klass.next_state_change is Process.next_state_change:
            gaps.append(f"{klass.__name__}.next_state_change")
    if type(link_process).next_boundary is LinkProcess.next_boundary:
        gaps.append(f"{type(link_process).__name__}.next_boundary")
    return gaps


def resolve_engine_choice(
    engine: str,
    algorithms: Sequence["AlgorithmSpec"],
    seeds: Sequence[int],
    networks: Sequence,
    link_process: LinkProcess,
    *,
    skip: Optional[bool] = None,
) -> tuple[str, bool, list[str], Optional[type], Optional[list[Process]]]:
    """Route one execution, or one seed bank, to an engine.

    Trial ``t`` runs the :class:`AlgorithmSpec`
    ``algorithms[t]`` with seed ``seeds[t]`` on ``networks[t]``
    (one-element lists for a single execution). Returns
    ``(engine_name, skip, fallback_messages, kernel_class, processes)``.
    The messages are the :class:`EngineFallbackWarning` texts that
    :func:`warn_fallbacks` emits once per routed batch.

    This is the one routing rule. ``"bitset"`` is an alias of
    ``"bank"``. A ``"bank"`` request runs the fast engine when
    :func:`~repro.core.bankpath.bank_kernel_class` finds a kernel class
    for the specs, and the reference engine otherwise (counted as
    ``bank.kernel.fallback``). Routing builds no kernel: the caller
    that runs the bank builds it with
    :func:`~repro.core.bankpath.build_bank_kernel`. Only the reference
    route builds per-node processes. When a forced skip there needs the
    contract check, the first trial's processes are built here and
    returned as ``processes`` for the caller to run (``None``
    otherwise).
    ``skip=None`` resolves to the routed engine's default: on for the
    fast engine, off for the reference engine. One fallback applies: a
    component lacking the skip contract forces ``skip=False``.
    """
    if engine not in ENGINE_NAMES:
        raise EngineError(
            f"unknown engine {engine!r}; choose from {ENGINE_NAMES}"
        )
    kernel = None
    if engine != "reference":
        from repro.core.bankpath import bank_kernel_class

        kernel = bank_kernel_class(algorithms, networks)
        if kernel is None:
            # Counted: the bank runs on the reference engine instead.
            _obs_inc("bank.kernel.fallback")
    engine = "bank" if kernel else "reference"
    notes: list[str] = []
    resolved_skip = bool(kernel) if skip is None else bool(skip)
    processes = None
    if resolved_skip:
        # Kernel lanes run registered protocols only; a forced skip on
        # the reference route checks the first trial's process classes.
        if not kernel:
            processes = algorithms[0].build_processes(
                networks[0].n, networks[0].max_degree, seed=seeds[0]
            )
        gaps = _skip_contract_gaps(processes or (), link_process)
        if gaps:
            notes.append(
                "round skipping disabled: "
                + ", ".join(sorted(gaps))
                + " lacks the skip contract (override it to opt back in)"
            )
            resolved_skip = False
    if notes:
        # Counted per resolution (routed banks, executor probes and
        # create_engine calls alike), mirroring the deduped
        # EngineFallbackWarning surface as a measurable quantity.
        _obs_inc("engine.fallback", len(notes))
    return engine, resolved_skip, notes, kernel, processes


def warn_fallbacks(notes: Sequence[str], label: Optional[str] = None) -> None:
    """Emit each routing note as one :class:`EngineFallbackWarning`.

    ``label`` names the scenario in the text. Every route that warns
    calls this once per batch, so a degraded scenario warns once.
    """
    for note in notes:
        if label:
            note = f"{note} [scenario: {label}]"
        _obs_inc("engine.fallback.warned")
        warnings.warn(note, EngineFallbackWarning, stacklevel=3)


def build_engine(
    network,
    algorithm: "AlgorithmSpec",
    link_process: LinkProcess,
    *,
    seed: int,
    kernel=None,
    lane: int = 0,
    processes: Optional[Sequence[Process]] = None,
    **options,
) -> RadioNetworkEngine:
    """Construct one routed execution of ``algorithm`` with ``seed``.

    With a ``kernel`` (built by
    :func:`~repro.core.bankpath.build_bank_kernel` for a route that has
    a kernel class) this is the fast engine on lane ``lane``; otherwise
    the reference engine over ``processes``, which are built from the
    spec when not given. ``options`` are the engines' shared keywords
    (``algorithm_info``, ``validate_topologies``, ``observers``,
    ``skip``).
    """
    if kernel is not None:
        from repro.core.fastpath import BitsetRadioNetworkEngine

        return BitsetRadioNetworkEngine(
            network, link_process, kernel=kernel, lane=lane, seed=seed, **options
        )
    if processes is None:
        processes = algorithm.build_processes(network.n, network.max_degree, seed=seed)
    return RadioNetworkEngine(network, processes, link_process, seed=seed, **options)


def create_engine(
    network,
    algorithm: "AlgorithmSpec",
    link_process: LinkProcess,
    *,
    engine: str = "reference",
    seed: int,
    algorithm_info: Optional[AlgorithmInfo] = None,
    validate_topologies: bool = True,
    observers: Sequence[Observer] = (),
    skip: Optional[bool] = None,
    label: Optional[str] = None,
    warn: bool = True,
) -> RadioNetworkEngine:
    """Route, warn and build the engine for one execution.

    ``algorithm`` is the :class:`AlgorithmSpec`
    to run with ``seed``. ``engine="reference"`` is the straight-line
    round loop above, over the spec's per-node processes.
    ``engine="bank"`` (or its alias ``"bitset"``) is the fast engine of
    :mod:`repro.core.fastpath` when the spec's lane recipe names a
    vectorized protocol kernel (a bank of one; no processes are
    built), and the reference engine otherwise
    (see :func:`resolve_engine_choice`). A seed bank is routed and
    built the same way by :func:`repro.analysis.runner.run_bank_trials`,
    with :func:`build_engine` making every lane. The fast engine is
    seed-for-seed identical to the reference engine (same coin stream,
    same records, same results) for every adversary class.

    ``skip`` controls event-driven round skipping (``None`` = the
    routed engine's default: on for the fast engine, off for the
    reference engine); a component lacking the skip contract
    downgrades it to ``False`` with an :class:`EngineFallbackWarning`.
    ``label`` names the scenario in those warnings, and ``warn=False``
    suppresses them entirely.
    """
    _, resolved_skip, notes, kernel_class, processes = resolve_engine_choice(
        engine, [algorithm], [seed], [network], link_process, skip=skip
    )
    if warn:
        warn_fallbacks(notes, label)
    kernel = None
    if kernel_class:
        from repro.core.bankpath import build_bank_kernel

        kernel = build_bank_kernel([algorithm], [seed], [network])
    return build_engine(
        network,
        algorithm,
        link_process,
        seed=seed,
        kernel=kernel,
        processes=processes,
        algorithm_info=algorithm_info,
        validate_topologies=validate_topologies,
        observers=observers,
        skip=resolved_skip,
    )
