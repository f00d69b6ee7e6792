"""Trial batching for the fast engine: the kernel scaffolding, the
kernel lookup and the bank scheduler.

The fast engine (:class:`~repro.core.fastpath.BitsetRadioNetworkEngine`,
``engine="bank"``) batches *across nodes* within one trial; this module
batches *across trials*: an entire seed bank of independent executions
advances in shared bank rounds, and the plan stage — one (trials ×
nodes) probability batch from the kernel — runs once per bank round
instead of once per trial.

Three layers cooperate:

1. **Per-trial lanes.** Each trial owns one fast engine, built with the
   bank's shared kernel and its lane index. A standalone engine holds
   a kernel of its own (a bank of one). A bank that no kernel serves
   gets no kernel: :func:`~repro.core.engine.resolve_engine_choice`
   routes its trials to the reference engine, whose runs still go
   through the scheduler below.
2. **Vectorized protocol kernels.** A kernel replaces a protocol's
   per-node Python state machines with struct-of-arrays state. Each
   kernel lives in the module of the :class:`~repro.core.process.Process`
   it mirrors, and the builder that makes the protocol's spec names it
   in the ``LaneRecipe`` it attaches
   (``LaneRecipe(factory, n, kernel)``). :func:`bank_kernel_class`
   reads the kernel from the bank's recipes, and
   :func:`build_bank_kernel` builds it from those recipes and the trial
   seeds where the bank runs: no per-node process exists on this path.
   There are two families:

   * the **multi-message MAC protocols**
     (``algorithms/multi_message.py``, GKLN queueing and simple
     back-off) keep knowledge as one int bitmask per (trial, node) —
     any message count — with append-order message logs, ack windows
     and back-off epochs folded by vectorized index arithmetic;
   * the **single-message decay family** (plain decay, permuted decay,
     static local decay, round robin, uniform) builds on
     :class:`SingleMessageKernel`, kept here: (trials × nodes)
     informed/participation state (with per-node window ends for
     finite ``active_phases`` / ``epochs_per_node``) and one shared
     ``np.ldexp`` probability ladder (or schedule rung) across every
     lane per round — one scalar probability per lane per round covers
     the whole active set, which also makes the expected-transmitter
     sum exact in O(1).

   A kernel answers ``probabilities(r)`` (the cached (T, n) batch),
   ``expected_exact(t, r)``, ``certain(t)`` (that row is all 0s and
   1s, in O(1)), ``message_for(t, u)``,
   ``apply_feedback(t, r, deliveries)`` and, when ``supports_skip``,
   ``next_active_round(t, r)``. The kernels reproduce the reference
   engine's plans bit-for-bit (probabilities are exact powers of two
   via ``ldexp``; message identity is canonical), which
   ``tests/test_engine_equivalence.py`` holds to full-trace identity.
3. **The bank scheduler.** :func:`run_bank_batch` is the one run loop
   of both engines (``run()`` is a bank of one). It runs each lane on
   its own clock and executes no stage itself: a bank round is the
   earliest round any lane is due at, and each lane due at it steps
   through its own engine's ``step()``, in lane order. Lanes whose
   stop condition fires (or whose per-lane ``max_rounds`` cap elapses
   — caps may differ across lanes) retire from the bank: their RNGs
   stop drawing, exactly like a serial run ending. After each round a
   skip-enabled lane asks its own skip horizon (for the single-message
   kernels, :meth:`~SingleMessageKernel.next_active_round`), emits the
   provably silent span at once and parks until the horizon, so it
   executes exactly the rounds its solo run executes. The span goes
   to the engine's one emitter,
   :meth:`~repro.core.engine.RadioNetworkEngine._emit_quiet`, which
   decides for itself whether it may go out as one batch.

Every adversary class is served. Adaptive adversaries see their typed
views built from the lane's probability row and transmitter mask, both
drawn before stage 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter_ns
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

import numpy as np

from repro.core.engine import ExecutionResult, RadioNetworkEngine, StopCondition
from repro.core.messages import Message, MessageKind
from repro.core.trace import Delivery
from repro.obs.recorder import inc as _obs_inc
from repro.obs.recorder import recorder as _obs_recorder

if TYPE_CHECKING:
    from repro.algorithms.base import AlgorithmSpec

__all__ = [
    "NEVER",
    "BankLane",
    "SingleMessageKernel",
    "bank_kernel_class",
    "build_bank_kernel",
    "run_bank_batch",
]

#: Sentinel round index for per-node state that is not scheduled to
#: change ("uninformed", "never joins"): far beyond any execution while
#: comfortably inside int64 arithmetic.
NEVER = 1 << 62


# ----------------------------------------------------------------------
# Kernel scaffolding: the single-message decay family
# ----------------------------------------------------------------------
class SingleMessageKernel:
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

    The bank steps its lanes one after another and relies on three
    properties:

    * :meth:`probabilities` is cached per round: the first lane due at
      ``r`` computes every lane's row, ``_counts`` and ``_rungs``, and
      the others read the cache;
    * it is a *pure* function of the feedback-driven state and ``r``:
      computing any other round in between leaves round ``r``'s rows,
      ``_counts`` and ``_rungs`` unchanged, so rows computed for lanes
      parked past ``r`` are harmless;
    * ``apply_feedback(t, ...)`` writes only lane ``t``'s state, never
      the cached batch, so a lane that steps after its bank-mates'
      feedback still reads the row its own state produced.

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

    def certain(self, t: int) -> bool:
        """Whether lane ``t``'s row of the round last computed is all 0s and 1s.

        O(1) from ``_counts`` and ``_rungs``: either no node holds the
        live probability or that probability is 1.0. The coin stage
        then skips the uniforms, whose outcome is already fixed.
        """
        return self._counts[t] == 0 or self._rungs[t] == 1.0

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


# ----------------------------------------------------------------------
# Kernel lookup
# ----------------------------------------------------------------------
def bank_kernel_class(algorithms: Sequence[AlgorithmSpec], networks: Sequence):
    """The kernel class that serves this bank, or ``None``.

    Lane ``t`` runs ``algorithms[t]`` on ``networks[t]``. The class is
    the one that every spec's :meth:`AlgorithmSpec.kernel_lane` recipe
    names. A bank with a spec that has no recipe, recipes naming
    different kernels, or a recipe built for another node count gets
    ``None``, and :func:`~repro.core.engine.resolve_engine_choice`
    routes the trials to the reference engine. The lookup builds
    nothing.
    """
    if not algorithms:
        return None
    n = networks[0].n
    recipes = [spec.kernel_lane() for spec in algorithms]
    kernels = {recipe and recipe.kernel for recipe in recipes}
    kernel = kernels.pop() if len(kernels) == 1 else None
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

    engine: RadioNetworkEngine
    stop: Optional[StopCondition] = None
    max_rounds: Optional[int] = None


def run_bank_batch(
    lanes: Sequence[BankLane], *, max_rounds: int
) -> list[ExecutionResult]:
    """Run a bank of single-trial lanes, each on its own round clock.

    This is the one run loop: :meth:`RadioNetworkEngine.run
    <repro.core.engine.RadioNetworkEngine.run>` is a bank of one, on
    either engine. The scheduler executes no stage itself. Each bank
    round is the earliest round any surviving lane is due at; every
    lane due at it, in lane order, executes the round through its own
    engine's ``step()``, then checks its stop condition and parks. So
    each lane observes exactly what its standalone run observes. Lanes
    of a kernel bank share the kernel's per-round probability batch
    (see the kernel base classes for the invariant this relies on).

    A lane starts at its engine's ``round_index`` and counts ``rounds``
    from there; ``solve_round`` is absolute. Its cap is ``max_rounds``,
    or the lane's own smaller ``max_rounds``. A lane whose stop
    condition fires, or whose cap elapses, retires at once: it stops
    drawing coins and observing rounds, exactly like a standalone run
    that ended, while the others run on.

    Parking: after a lane built with ``skip=True`` executes round ``r``,
    it asks its engine's ``_skip_horizon`` for ``h`` (clamped to its
    cap), emits the provably silent rounds ``[r + 1, h)`` without
    executing them and is next due at ``h``; any other lane is due at
    ``r + 1``. The span goes to the engine's
    :meth:`~repro.core.engine.RadioNetworkEngine._emit_quiet` with the
    lane's stop condition; when that fires inside the span, the lane
    retires solved at the round the emitter reports.

    Traced, each lane accumulates its own phases and counters and emits
    its own trial record at the end, as a standalone run does.
    """
    return _run_bank(lanes, max_rounds)


def _run_bank(lanes: Sequence[BankLane], max_rounds: int) -> list[ExecutionResult]:
    """:func:`run_bank_batch`'s body. A standalone run calls it directly,
    so layer timers that wrap :func:`run_bank_batch` see seed banks only.
    """
    if max_rounds < 0:
        raise ValueError(f"max_rounds must be non-negative, got {max_rounds}")
    rec = _obs_recorder()
    if rec is None:
        return _run_lanes(lanes, max_rounds)
    for lane in lanes:
        lane.engine._trace_begin(rec)
    try:
        results = _run_lanes(lanes, max_rounds)
    finally:
        for lane in lanes:
            lane.engine._trace = None
    for lane, result in zip(lanes, results):
        lane.engine._trace_end(rec, result)
    return results


def _run_lanes(lanes: Sequence[BankLane], max_rounds: int) -> list[ExecutionResult]:
    """:func:`run_bank_batch`'s loop."""
    results: list[Optional[ExecutionResult]] = [None] * len(lanes)
    first: list[int] = []
    limits: list[int] = []
    active: list[int] = []
    for i, lane in enumerate(lanes):
        engine = lane.engine
        engine._ensure_started()
        cap = max_rounds if lane.max_rounds is None else min(lane.max_rounds, max_rounds)
        first.append(engine.round_index)
        limits.append(first[i] + cap)
        if lane.stop is not None and lane.stop():
            results[i] = ExecutionResult(rounds=0, solved=True, solve_round=-1)
        elif cap <= 0:
            results[i] = ExecutionResult(rounds=cap, solved=False, solve_round=None)
        else:
            active.append(i)
    # ``due[i]`` is the next round lane i executes.
    due = list(first)
    while active:
        r = min(due[i] for i in active)
        for i in active:
            if due[i] != r:
                continue
            lane = lanes[i]
            engine = lane.engine
            record = engine.step()
            if lane.stop is not None and lane.stop():
                results[i] = ExecutionResult(
                    rounds=r + 1 - first[i], solved=True, solve_round=r
                )
                continue
            h = r + 1
            if engine.skip:
                traced = engine._trace is not None
                if traced:
                    ts = perf_counter_ns()
                h = engine._skip_horizon(record, limits[i])
                if h > r + 1:
                    solved = engine._emit_quiet(r + 1, h, lane.stop)
                    if solved is not None:
                        results[i] = ExecutionResult(
                            rounds=solved + 1 - first[i], solved=True, solve_round=solved
                        )
                if traced:
                    engine._phase_ns["skip"] += perf_counter_ns() - ts
            if results[i] is None and h >= limits[i]:
                results[i] = ExecutionResult(
                    rounds=limits[i] - first[i], solved=False, solve_round=None
                )
            due[i] = h
        active = [i for i in active if results[i] is None]
    return results
