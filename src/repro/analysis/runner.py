"""Trial runner: one execution, many executions, aggregated statistics.

The paper's complexity measure is *rounds until the problem is solved*,
with high probability over the algorithm's coins. The runner mirrors
that: a :func:`run_broadcast_trial` executes one algorithm/adversary/
problem triple to completion (or a round cap) and
:func:`run_broadcast_trials` repeats it over independent seeds,
reporting the distribution (mean/median/percentiles) plus the success
rate under the cap.

Every execution takes one path, :func:`run_bank_trials`: an
oracle-mode MAC trial goes to the oracle simulation; any other seed
bank is routed once, warns once, and builds its lanes through
:func:`repro.core.engine.build_engine`. A single trial
(:func:`run_prepared_trial`) is a bank of one seed.

Scenario factories (:class:`Scenario`) package the whole triple so
sweeps can rebuild fresh state per trial — adversaries and processes
are stateful and must never be reused across executions.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

if TYPE_CHECKING:  # executors live above this layer; type-only import
    from repro.api.executor import TrialExecutor

from repro.adversaries.base import LinkProcess
from repro.algorithms.base import AlgorithmSpec
from repro.core.engine import (
    ExecutionResult,
    build_engine,
    resolve_engine_choice,
    warn_fallbacks,
)
from repro.core.rng import derive_seed
from repro.graphs.dual_graph import DualGraph
from repro.problems.base import Problem

__all__ = [
    "PreparedTrial",
    "Scenario",
    "TrialResult",
    "TrialStats",
    "run_broadcast_trial",
    "run_prepared_trial",
    "probe_engine_fallbacks",
    "run_bank_trials",
    "run_broadcast_trials",
]


@dataclass
class PreparedTrial:
    """Everything one execution needs, freshly constructed.

    ``engine`` selects the round-loop implementation
    (:data:`repro.core.engine.ENGINE_NAMES`): ``"reference"``, or the
    seed-for-seed identical fast engine ``"bank"`` (alias
    ``"bitset"``), which is additionally batched *across trials* when
    a whole seed bank reaches :func:`run_bank_trials`. A ``"bank"``
    trial that no protocol kernel serves runs on the reference engine.

    ``mac`` (optional) is the trial's abstract MAC layer
    (:class:`repro.mac.base.AbstractMACLayer`). Engine-mode layers are
    already compiled into the algorithm's processes and change nothing
    here; an *oracle*-mode layer (:attr:`oracle`) replaces the round
    loop entirely — :func:`run_bank_trials` routes such trials to the
    event-driven simulation in :mod:`repro.mac.oracle`.

    ``skip`` controls event-driven round skipping (``None`` = the
    routed engine's default: on for the fast engine, off for the
    reference engine); like the engine choice it cannot change results.
    ``label`` names the scenario in engine-fallback warnings.
    """

    network: DualGraph
    algorithm: AlgorithmSpec
    link_process: LinkProcess
    problem: Problem
    max_rounds: int
    validate_topologies: bool = False
    engine: str = "reference"
    mac: object = None
    skip: Optional[bool] = None
    label: Optional[str] = None

    @property
    def oracle(self) -> bool:
        """Whether an oracle-mode MAC layer replaces the round loop."""
        return getattr(self.mac, "mode", "engine") == "oracle"


#: A scenario builds a fresh :class:`PreparedTrial` from a trial seed.
Scenario = Callable[[int], PreparedTrial]


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one execution."""

    solved: bool
    rounds: int
    seed: int

    def rounds_to_solve(self) -> int:
        if not self.solved:
            raise ValueError(f"trial (seed={self.seed}) did not solve within the cap")
        return self.rounds


@dataclass
class TrialStats:
    """Aggregate over independent trials of one scenario."""

    results: list[TrialResult] = field(default_factory=list)

    def add(self, result: TrialResult) -> None:
        self.results.append(result)

    @property
    def trials(self) -> int:
        return len(self.results)

    @property
    def successes(self) -> int:
        return sum(1 for r in self.results if r.solved)

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials if self.trials else 0.0

    def solved_rounds(self) -> list[int]:
        """Round counts of successful trials (unsolved trials excluded)."""
        return [r.rounds for r in self.results if r.solved]

    def _all_rounds_censored(self) -> list[int]:
        """Round counts with unsolved trials censored at their cap."""
        return [r.rounds for r in self.results]

    @property
    def mean_rounds(self) -> float:
        """Mean rounds, censored at the cap for unsolved trials.

        Censoring biases the estimate *downward*, which is conservative
        for lower-bound experiments (measured growth only understates
        the true cost).
        """
        rounds = self._all_rounds_censored()
        return statistics.fmean(rounds) if rounds else math.nan

    @property
    def median_rounds(self) -> float:
        rounds = self._all_rounds_censored()
        return float(statistics.median(rounds)) if rounds else math.nan

    def percentile_rounds(self, q: float) -> float:
        """Inclusive percentile ``q ∈ [0, 100]`` of (censored) rounds."""
        rounds = sorted(self._all_rounds_censored())
        if not rounds:
            return math.nan
        if len(rounds) == 1:
            return float(rounds[0])
        position = (q / 100.0) * (len(rounds) - 1)
        low = math.floor(position)
        high = math.ceil(position)
        if low == high:
            return float(rounds[low])
        weight = position - low
        return rounds[low] * (1.0 - weight) + rounds[high] * weight

    @property
    def stdev_rounds(self) -> float:
        rounds = self._all_rounds_censored()
        return statistics.pstdev(rounds) if len(rounds) > 1 else 0.0

    def summary_row(self) -> dict:
        """Dict row for the table renderers."""
        return {
            "trials": self.trials,
            "success": f"{self.success_rate:.0%}",
            "median": self.median_rounds,
            "mean": round(self.mean_rounds, 1),
            "p90": round(self.percentile_rounds(90.0), 1),
        }

    def to_record(self) -> dict:
        """JSON-safe, seed-determined aggregate of the whole batch.

        The spec-run analogue of
        :meth:`~repro.experiments.registry.ExperimentResult.to_record`:
        a pure function of ``(scenario, master_seed, trials)`` with no
        timings or host details, so the serve layer can checkpoint it
        and assert byte-identity between a service run and a direct
        :class:`~repro.api.executor.TrialExecutor` run. Per-trial
        outcomes are included — they are the ground truth the summary
        statistics derive from.
        """
        return {
            "trials": self.trials,
            "successes": self.successes,
            "median_rounds": self.median_rounds,
            "mean_rounds": self.mean_rounds,
            "p90_rounds": self.percentile_rounds(90.0),
            "results": [
                {"seed": r.seed, "rounds": r.rounds, "solved": r.solved}
                for r in self.results
            ],
        }


def run_prepared_trial(trial: PreparedTrial, seed: int, *, observer=None) -> TrialResult:
    """Execute one prepared trial to completion or its round cap.

    A trial is a bank of one seed: this is :func:`run_bank_trials`'s
    sequence for one built trial. ``observer`` (optional) substitutes
    a caller-held problem observer for the freshly made one, so
    callers that need per-problem detail beyond the
    :class:`TrialResult` (e.g. per-message completion rounds) can read
    it off after the run. Ignored on the oracle path, which has no
    engine rounds to observe.
    """
    return _run_trials([trial], [seed], warn=True, observer=observer)[0]


def probe_engine_fallbacks(trial: PreparedTrial, seed: int) -> list[str]:
    """The routing notes this trial's batch would warn with.

    Routes the trial through
    :func:`~repro.core.engine.resolve_engine_choice`, the rule
    :func:`run_bank_trials` applies, *without* emitting anything — the
    parallel executor calls this once per scenario in the parent,
    passes the notes to :func:`~repro.core.engine.warn_fallbacks` and
    runs every chunk silenced. Oracle-mode MAC trials have no engine
    and therefore no fallbacks.
    """
    if trial.oracle:
        return []
    _, _, notes, _, _ = resolve_engine_choice(
        trial.engine,
        [trial.algorithm],
        [seed],
        [trial.network],
        trial.link_process,
        skip=trial.skip,
    )
    return notes


def run_bank_trials(
    scenario: Scenario, seeds: Sequence[int], *, warn_fallback: bool = True
) -> list[TrialResult]:
    """Run one scenario's seed bank on the engine its trials select.

    This is the one trial path: every executor and
    :func:`run_prepared_trial` reach it. Oracle-mode MAC trials run
    through :func:`repro.mac.oracle.run_oracle_trial`. Otherwise the
    bank is routed once, through
    :func:`~repro.core.engine.resolve_engine_choice` with the trials'
    own ``engine``, and any routing note is warned once for the whole
    batch (``warn_fallback=False`` silences it).

    On a kernel route every seed's trial becomes one lane of a shared
    struct-of-arrays kernel, and
    :func:`repro.core.bankpath.run_bank_batch` advances the lanes in
    shared bank rounds, each lane on its own clock, with one kernel
    probability batch per bank round; lanes carry their own
    ``max_rounds`` and retire at it. On the reference route each
    trial's processes are built just before it runs, so a sweep holds
    one trial's processes at a time. Both routes build through
    :func:`~repro.core.engine.build_engine`. Results are identical to
    running each seed through :func:`run_prepared_trial`: only the
    batching axis changes. Trials whose node counts differ run as
    separate banks of one.
    """
    seeds = list(seeds)
    return _run_trials([scenario(seed) for seed in seeds], seeds, warn=warn_fallback)


def _run_trials(
    trials: list[PreparedTrial], seeds: list[int], *, warn: bool, observer=None
) -> list[TrialResult]:
    """Route, warn, build and run one bank of built trials."""
    from repro.core.bankpath import BankLane, build_bank_kernel, run_bank_batch

    if not trials:
        return []
    lead = trials[0]
    if lead.oracle:
        from repro.mac.oracle import run_oracle_trial

        return [run_oracle_trial(trial, seed) for trial, seed in zip(trials, seeds)]
    if any(t.network.n != lead.network.n for t in trials):
        # The lanes of one bank share a node count: run banks of one.
        return [
            result
            for index in range(len(trials))
            for result in _run_trials(
                trials[index : index + 1],
                seeds[index : index + 1],
                warn=warn and index == 0,
            )
        ]
    algorithms = [trial.algorithm for trial in trials]
    networks = [trial.network for trial in trials]
    _, resolved_skip, notes, kernel_class, processes = resolve_engine_choice(
        lead.engine, algorithms, seeds, networks, lead.link_process, skip=lead.skip
    )
    if warn:
        warn_fallbacks(notes, lead.label)
    kernel = build_bank_kernel(algorithms, seeds, networks) if kernel_class else None

    def lane(index: int) -> BankLane:
        nonlocal processes
        trial = trials[index]
        watch = observer if observer is not None else trial.problem.make_observer()
        engine = build_engine(
            trial.network,
            trial.algorithm,
            trial.link_process,
            seed=seeds[index],
            kernel=kernel,
            lane=index,
            processes=processes,
            algorithm_info=trial.algorithm.info(),
            validate_topologies=trial.validate_topologies,
            observers=[watch],
            skip=resolved_skip,
        )
        processes = None  # the routing's processes are the lead lane's only
        return BankLane(engine=engine, stop=lambda: watch.solved, max_rounds=trial.max_rounds)

    def run_solo(index: int) -> ExecutionResult:
        solo = lane(index)
        return solo.engine.run(max_rounds=solo.max_rounds, stop=solo.stop)

    if kernel:
        results = run_bank_batch(
            [lane(index) for index in range(len(trials))],
            max_rounds=max(t.max_rounds for t in trials),
        )
    else:
        results = [run_solo(index) for index in range(len(trials))]
    return [
        TrialResult(solved=res.solved, rounds=res.rounds, seed=seed)
        for res, seed in zip(results, seeds)
    ]


def run_broadcast_trial(
    *,
    network: DualGraph,
    algorithm: AlgorithmSpec,
    link_process: LinkProcess,
    problem: Optional[Problem] = None,
    seed: int,
    max_rounds: Optional[int] = None,
    validate_topologies: bool = False,
    engine: str = "reference",
    skip: Optional[bool] = None,
) -> TrialResult:
    """Convenience single-trial entry point (used by examples/tests).

    When ``problem`` is omitted it is inferred from the algorithm's
    metadata (``problem`` + ``source``/``broadcasters`` keys every
    factory in :mod:`repro.algorithms` fills in).
    """
    if problem is None:
        problem = infer_problem(network, algorithm)
    cap = max_rounds if max_rounds is not None else default_round_cap(network.n)
    trial = PreparedTrial(
        network=network,
        algorithm=algorithm,
        link_process=link_process,
        problem=problem,
        max_rounds=cap,
        validate_topologies=validate_topologies,
        engine=engine,
        skip=skip,
    )
    return run_prepared_trial(trial, seed)


def run_broadcast_trials(
    scenario: Scenario,
    *,
    trials: int,
    master_seed: int,
    label: object = "trial",
    executor: Optional["TrialExecutor"] = None,
) -> TrialStats:
    """Run ``trials`` independent executions of a scenario.

    Per-trial seeds derive from ``(master_seed, label, index)``, so the
    batch is reproducible from one seed and independent of *where* the
    trials run: pass an ``executor`` (see :mod:`repro.api.executor`) to
    fan the batch out — e.g. ``ParallelExecutor()`` across cores for a
    picklable scenario such as a :class:`~repro.api.spec.ScenarioSpec` —
    with results identical to the default in-process loop.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    seeds = [derive_seed(master_seed, label, index) for index in range(trials)]
    if executor is None:
        # Lazy import: the executors layer sits above this module.
        from repro.api.executor import SerialExecutor

        executor = SerialExecutor()
    stats = TrialStats()
    for result in executor.run_trials(scenario, seeds):
        stats.add(result)
    return stats


def default_round_cap(n: int) -> int:
    """A generous default cap: the paper's footnote-5 ``n²`` fallback,
    floored for small graphs."""
    return max(4 * n * n, 4096)


def infer_problem(network: DualGraph, algorithm: AlgorithmSpec) -> Problem:
    """Build the problem instance an algorithm's metadata declares."""
    from repro.problems.global_broadcast import GlobalBroadcastProblem
    from repro.problems.local_broadcast import LocalBroadcastProblem

    kind = algorithm.metadata.get("problem")
    if kind == "global-broadcast":
        return GlobalBroadcastProblem(network, int(algorithm.metadata["source"]))
    if kind == "local-broadcast":
        return LocalBroadcastProblem(
            network, frozenset(algorithm.metadata["broadcasters"])
        )
    raise ValueError(
        f"algorithm {algorithm.name!r} does not declare a problem; pass one explicitly"
    )
