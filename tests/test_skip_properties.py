"""Property-based skip-safety suite.

Round skipping (``skip=True``) rewrites the engines' run loops to
fast-forward through provably inert spans. The license for that
rewrite is *exact observational equivalence*: a skip-enabled run must
be indistinguishable from a skip-disabled run by any measurement the
stack exposes. This suite pins the strongest checkable form of that
claim, per engine, across a scenario corpus chosen to exercise every
skip decision point (long silent prefixes, interleaved silent gaps,
silent tails cut by ``max_rounds``, adversary epoch boundaries, and
scenarios with nothing to skip at all):

* **full-trace byte equality** — the byte serialization of the
  ``(ExecutionResult, [RoundRecord...])`` pair is identical, so record
  streams agree bit for bit (masks, deliveries, expected-transmitter
  floats included);
* **RNG stream position probes** — after the run, the coin
  generator's full bit-generator state dict is identical, and the
  *next* uniforms drawn from both generators agree, so every skipped
  round advanced the stream by exactly the draws it would have made;
* **skipping actually engages** — on the silence-heavy rows the
  skip-enabled run executes strictly fewer full rounds, so the suite
  cannot rot into vacuously comparing two non-skipping loops;
* **one horizon for both skip loops** — on every kernel row a bank
  engine's ``run()`` executes and skips exactly the rounds its
  one-lane ``run_bank_batch`` does, and in a bank of several lanes
  each lane parks until its own next active round, executing exactly
  its standalone run's rounds.

Boundary behaviour rides along: ``max_rounds`` landing mid-skip-span,
bank batches of zero/one seed, heterogeneous per-trial round caps
through the lockstep bank, and the k = 63/64/65 knowledge word
boundary (one uint64 word vs two). Adaptive link processes that
declare a long ``next_boundary`` must see the same history on the bank
as on the reference engine, even across skipped spans. Fallback-warning
dedup (one ``EngineFallbackWarning`` per scenario batch, naming the
component and the scenario) is pinned for both executors at the bottom,
together with its routing: a kernel-less component reaches the skip
contract check only when the spec forces skipping on.
"""

from __future__ import annotations

import functools
import json
import warnings

import numpy as np
import pytest

from repro.adversaries.base import AdversaryClass, LinkProcess, RoundTopology
from repro.algorithms.base import AlgorithmSpec
from repro.algorithms.uniform import UniformGlobalProcess
from repro.analysis.runner import run_bank_trials, run_prepared_trial
from repro.api.executor import ParallelExecutor, SerialExecutor
from repro.api.spec import ScenarioSpec
from repro.core.bankpath import BankLane, build_bank_kernel, run_bank_batch
from repro.core.engine import ENGINE_NAMES, ExecutionResult, create_engine
from repro.core.errors import EngineFallbackWarning
from repro.core.fastpath import BitsetRadioNetworkEngine
from repro.core.process import Process
from repro.core.trace import RoundRecord, TraceCollector
from repro.obs.recorder import disable, enable

#: Scenario corpus: (id, spec kwargs, max_rounds, expect_skip) rows.
#: ``expect_skip`` marks the silence-heavy rows on which a skip-enabled
#: run must demonstrably elide rounds (engagement property); the other
#: rows exist to prove equivalence also holds when there is little or
#: nothing to skip.
CORPUS = [
    (
        "rr-local-geo",  # slot schedule: ~75% of rounds provably silent
        dict(
            graph=("geographic", {"n": 48}),
            problem=("local-broadcast", {"fraction": 0.25}),
            algorithm=("round-robin-local", {}),
            adversary=("none", {}),
        ),
        400,
        True,
    ),
    (
        "permuted-decay-funnel",  # long silent prefix before epoch one
        dict(
            graph=("funnel", {"n": 64}),
            problem=("global-broadcast", {"source": 0}),
            algorithm=("permuted-decay", {}),
            adversary=("none", {}),
        ),
        600,
        True,
    ),
    (
        "rr-global-alternating",  # adversary phase boundaries cut spans
        dict(
            # Mid-line source: slot owners below the source stay
            # uninformed for whole passes, so silent spans interleave
            # with the adversary's phase boundaries.
            graph=("line", {"n": 24}),
            problem=("global-broadcast", {"source": 12}),
            algorithm=("round-robin-global", {}),
            adversary=("alternating", {"phase_lengths": [3, 2]}),
        ),
        600,
        True,
    ),
    (
        "rr-local-cut-jammer",  # square-wave boundary arithmetic
        dict(
            graph=("ring", {"n": 32}),
            problem=("local-broadcast", {"fraction": 0.25}),
            algorithm=("round-robin-local", {}),
            adversary=("cut-jammer", {"period": 5, "dense_rounds": 2, "side": "first-half"}),
        ),
        400,
        True,
    ),
    (
        "plain-decay-dense",  # every round active: nothing to skip
        dict(
            graph=("clique", {"n": 16}),
            problem=("global-broadcast", {"source": 0}),
            algorithm=("plain-decay", {}),
            adversary=("bernoulli-edge", {"p_up": 0.7}),
        ),
        400,
        False,
    ),
    (
        "plain-decay-kernel-line",  # decay bank kernel: ladder always live
        dict(
            # Mid-line source under an alternating adversary: the bank
            # engine serves this from _PlainDecayBankKernel, whose
            # exact expected-count answers feed the skip probe (which
            # must never fire — informed nodes ride the ladder with
            # positive probability every round).
            graph=("line", {"n": 20, "extra_flaky_skips": 2}),
            problem=("global-broadcast", {"source": 10}),
            algorithm=("plain-decay", {}),
            adversary=("alternating", {"phase_lengths": [2, 3]}),
        ),
        400,
        False,
    ),
    (
        "plain-decay-window-line",  # closed windows: silent for good
        dict(
            # One active phase per node: once every informed node's
            # window has closed, the kernel's horizon is None and the
            # lane fast-forwards to the cap.
            graph=("line", {"n": 24}),
            problem=("global-broadcast", {"source": 12}),
            algorithm=("plain-decay", {"active_phases": 1}),
            adversary=("alternating", {"phase_lengths": [2, 3]}),
        ),
        400,
        True,
    ),
    (
        "permuted-decay-budget-line",  # per-relay epoch budgets
        dict(
            # One epoch per relay: each hop's budget closes as the
            # next relay joins, so the kernel's window ends are live.
            graph=("line", {"n": 16}),
            problem=("global-broadcast", {"source": 0}),
            algorithm=("permuted-decay", {"epochs_per_node": 1}),
            adversary=("none", {}),
        ),
        600,
        True,
    ),
    (
        "static-local-decay-ring",  # static decay kernel, constant churn
        dict(
            graph=("ring", {"n": 24}),
            problem=("local-broadcast", {"fraction": 0.25}),
            algorithm=("static-local-decay", {}),
            adversary=("cut-jammer", {"period": 5, "dense_rounds": 2, "side": "first-half"}),
        ),
        300,
        False,
    ),
    (
        "uniform-stochastic",  # stochastic adversary, constant plans
        dict(
            graph=("star", {"n": 12, "flaky_rim": True}),
            problem=("local-broadcast", {"fraction": 0.25}),
            algorithm=("uniform-local", {}),
            adversary=("ge-fade", {"p_fail": 0.3, "p_recover": 0.4}),
        ),
        300,
        False,
    ),
]

SEEDS = (3, 2013)


def _spec(kwargs) -> ScenarioSpec:
    return ScenarioSpec(**kwargs)


def _run_probed(spec: ScenarioSpec, seed: int, engine: str, skip: bool, max_rounds: int):
    """One execution returning every observable the suite compares.

    Returns ``(trace_bytes, rng_state, next_draws, full_rounds)``:
    the byte serialization of (result, records), the coin generator's
    bit-generator state dict, the next 8 uniforms the stream would
    produce, and the number of rounds that executed in full (i.e. were
    not emitted by the skip fast-forward).
    """
    trial = spec.build(seed)
    observer = trial.problem.make_observer()
    collector = TraceCollector()
    eng = create_engine(
        trial.network,
        trial.algorithm,
        trial.link_process,
        engine=engine,
        seed=seed,
        algorithm_info=trial.algorithm.info(),
        validate_topologies=True,
        observers=[observer, collector],
        skip=skip,
    )
    emitted = 0
    original_emit = eng._emit_quiet_round

    def counting_emit(i):
        nonlocal emitted
        emitted += 1
        return original_emit(i)

    eng._emit_quiet_round = counting_emit
    result = eng.run(max_rounds=max_rounds, stop=lambda: observer.solved)
    trace_bytes = repr((result, collector.records)).encode()
    rng_state = eng._coin_rng.bit_generator.state
    next_draws = eng._coin_rng.random(8).tolist()
    return trace_bytes, rng_state, next_draws, len(collector.records) - emitted


def _corpus_id(row) -> str:
    return row[0]


class TestSkipTraceByteEquality:
    """skip=True vs skip=False: byte-identical traces, per engine."""

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    @pytest.mark.parametrize("row", CORPUS, ids=_corpus_id)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_full_trace_and_rng_stream_identical(self, row, seed, engine):
        _, kwargs, max_rounds, expect_skip = row
        spec = _spec(kwargs)
        base_bytes, base_state, base_draws, base_full = _run_probed(
            spec, seed, engine, False, max_rounds
        )
        skip_bytes, skip_state, skip_draws, skip_full = _run_probed(
            spec, seed, engine, True, max_rounds
        )
        assert skip_bytes == base_bytes
        # Position probe: the skip run's coin stream sits at exactly
        # the offset the full run reached...
        assert skip_state == base_state
        # ...and keeps producing the same values from there.
        assert skip_draws == base_draws
        if expect_skip:
            assert skip_full < base_full, (
                "skip run executed every round in full — skipping never "
                "engaged on a silence-heavy scenario"
            )

    @pytest.mark.parametrize("row", CORPUS[:2], ids=_corpus_id)
    def test_spec_level_skip_equality(self, row):
        """The spec flag routes all the way through run_prepared_trial."""
        _, kwargs, max_rounds, _ = row
        spec = _spec(kwargs).with_param("max_rounds", max_rounds)
        results = {
            skip: run_prepared_trial(
                spec.with_param("skip", skip).build(SEEDS[0]), SEEDS[0]
            )
            for skip in (False, True)
        }
        assert results[True] == results[False]


def _counted_lane_run(spec: ScenarioSpec, seed: int, max_rounds: int, *, banked: bool):
    """One skip-enabled bank-engine execution under a fresh recorder.

    ``banked`` runs it as a one-lane :func:`run_bank_batch`, otherwise
    through the engine's own ``run()``. Returns ``(result, counters)``.
    """
    trial = spec.build(seed)
    observer = trial.problem.make_observer()
    engine = create_engine(
        trial.network,
        trial.algorithm,
        trial.link_process,
        engine="bank",
        seed=seed,
        algorithm_info=trial.algorithm.info(),
        observers=[observer],
        skip=True,
    )
    assert engine._kernel is not None and engine.skip
    rec = enable()
    try:
        if banked:
            [result] = run_bank_batch(
                [BankLane(engine=engine, stop=lambda: observer.solved)],
                max_rounds=max_rounds,
            )
        else:
            result = engine.run(max_rounds=max_rounds, stop=lambda: observer.solved)
    finally:
        disable()
    return result, rec.counters


class TestRunSkipsLikeItsBankLane:
    """A standalone ``run()`` and a one-lane bank ask the same skip
    horizon, so they execute and skip exactly the same rounds."""

    @pytest.mark.parametrize("row", CORPUS, ids=_corpus_id)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_run_and_bank_lane_skip_identically(self, row, seed):
        _, kwargs, max_rounds, _ = row
        spec = _spec(kwargs)
        solo, solo_counts = _counted_lane_run(spec, seed, max_rounds, banked=False)
        lane, lane_counts = _counted_lane_run(spec, seed, max_rounds, banked=True)
        assert solo == lane
        for counter in ("rounds.executed", "rounds.skipped"):
            assert solo_counts.get(counter, 0) == lane_counts.get(counter, 0), counter


class _SpanCollector:
    """Retains every round, batched quiet spans included.

    It accepts the batched span hook, so a bank lane carrying it takes
    the ``_emit_quiet_span`` path; each span is materialized as the
    all-silent records a per-round emission would have produced, so the
    lane still yields a full trace to compare.
    """

    def __init__(self) -> None:
        self.records: list[RoundRecord] = []

    def on_round(self, record: RoundRecord) -> None:
        self.records.append(record)

    def on_round_batch(self, start: int, stop: int) -> None:
        self.records.extend(
            RoundRecord(
                round_index=i,
                transmitter_mask=0,
                deliveries=(),
                expected_transmitters=0.0,
            )
            for i in range(start, stop)
        )


#: Footnote-4 round robin with 1/64 broadcasters: each lane transmits
#: only in its own broadcasters' slots, so the lanes' slot rounds differ.
_OWN_CLOCK_SPEC = ScenarioSpec(
    graph=("ring", {"n": 256}),
    problem=("local-broadcast", {"fraction": 1 / 64}),
    algorithm=("round-robin-local", {}),
    adversary=("none", {}),
)


class TestBankLanesRunOnTheirOwnClock:
    """A bank lane parks until its own next active round: it executes
    exactly the rounds its standalone ``run()`` executes, not the union
    of its bank-mates' slot rounds, and its records, result and coin
    stream match that run's.

    Lane 0 carries a per-round observer (a :class:`TraceCollector`), so
    it emits its spans round by round through ``_emit_quiet_rounds``;
    its stop condition also fires inside a silent span. The other lanes
    take the batched ``_emit_quiet_span`` path.
    """

    SEEDS = (41, 42, 43, 44)
    MAX_ROUNDS = 2000

    def _parts(self, seed, per_round, stop_at):
        """One trial, its observers and stop condition."""
        trial = _OWN_CLOCK_SPEC.build(seed)
        observer = trial.problem.make_observer()
        collector = TraceCollector() if per_round else _SpanCollector()

        def stop():
            return observer.solved or (
                stop_at is not None and len(collector.records) > stop_at
            )

        return trial, [observer, collector], collector, stop

    def _solo(self, seed, *, per_round=False, stop_at=None, max_rounds=MAX_ROUNDS):
        """The seed's standalone skip-enabled run, traced."""
        trial, observers, collector, stop = self._parts(seed, per_round, stop_at)
        engine = create_engine(
            trial.network,
            trial.algorithm,
            trial.link_process,
            engine="bank",
            seed=seed,
            algorithm_info=trial.algorithm.info(),
            observers=observers,
            skip=True,
        )
        assert engine._kernel is not None and engine.skip
        rec = enable()
        try:
            result = engine.run(max_rounds=max_rounds, stop=stop)
        finally:
            disable()
        return result, collector.records, engine._coin_rng, rec.counters

    def _lanes(self, stop_at=None, caps=None):
        """The bank: lane 0 per-round (with ``stop_at``), the rest span-capable."""
        caps = caps or [None] * len(self.SEEDS)
        parts = [
            self._parts(seed, index == 0, stop_at if index == 0 else None)
            for index, seed in enumerate(self.SEEDS)
        ]
        kernel = build_bank_kernel(
            [trial.algorithm for trial, *_ in parts],
            self.SEEDS,
            [trial.network for trial, *_ in parts],
        )
        assert kernel is not None
        lanes, collectors = [], []
        for index, (seed, (trial, observers, collector, stop)) in enumerate(
            zip(self.SEEDS, parts)
        ):
            engine = BitsetRadioNetworkEngine(
                trial.network,
                trial.link_process,
                seed=seed,
                algorithm_info=trial.algorithm.info(),
                observers=observers,
                kernel=kernel,
                lane=index,
                skip=True,
            )
            lanes.append(BankLane(engine=engine, stop=stop, max_rounds=caps[index]))
            collectors.append(collector)
        return lanes, collectors

    def _mid_span_round(self, records):
        """A silent round strictly inside a span after the first slot."""
        first = next(r.round_index for r in records[1:] if r.transmitter_mask)
        stop_at = first + 2
        assert all(not r.transmitter_mask for r in records[first + 1 : first + 4])
        return stop_at

    def test_each_lane_matches_its_standalone_run(self, tmp_path):
        uncut, uncut_records, _, _ = self._solo(self.SEEDS[0], per_round=True)
        stop_at = self._mid_span_round(uncut_records)
        assert uncut.solve_round > stop_at
        solos = [
            self._solo(seed, per_round=index == 0, stop_at=stop_at if index == 0 else None)
            for index, seed in enumerate(self.SEEDS)
        ]
        lanes, collectors = self._lanes(stop_at=stop_at)
        trace_path = tmp_path / "bank.jsonl"
        enable(str(trace_path))
        try:
            results = run_bank_batch(lanes, max_rounds=self.MAX_ROUNDS)
        finally:
            disable()
        trials = {
            record["seed"]: record["counters"]
            for record in map(json.loads, trace_path.read_text().splitlines())
            if record["kind"] == "trial"
        }
        # Lane 0 stopped inside a silent span, on exactly its solo round.
        assert results[0] == ExecutionResult(
            rounds=stop_at + 1, solved=True, solve_round=stop_at
        )
        slot_rounds = set()
        for seed, lane, collector, result, solo in zip(
            self.SEEDS, lanes, collectors, results, solos
        ):
            solo_result, solo_records, solo_rng, solo_counts = solo
            counts = trials[seed]
            assert result == solo_result
            assert collector.records == solo_records
            assert lane.engine._coin_rng.bit_generator.state == solo_rng.bit_generator.state
            assert counts["rounds.executed"] == solo_counts["rounds.executed"]
            assert (
                counts["rounds.executed"] + counts.get("rounds.skipped", 0)
                == solo_counts["rounds.executed"] + solo_counts.get("rounds.skipped", 0)
                == result.rounds
            )
            slot_rounds |= {r.round_index for r in solo_records if r.transmitter_mask}
        # The lanes' slot rounds differ: a lockstep bank would execute
        # their union on every lane.
        assert max(trials[seed]["rounds.executed"] for seed in self.SEEDS) < len(
            slot_rounds
        )

    def test_lane_capped_inside_its_own_span_retires_alone(self):
        """Per-lane caps under parking: lane 0's own horizon lies beyond
        its cap, so it retires at the cap while its bank-mates run on."""
        _, records, _, _ = self._solo(self.SEEDS[0])
        cap = self._mid_span_round(records)
        caps = [cap, None, self.MAX_ROUNDS, self.MAX_ROUNDS - 1]
        lanes, collectors = self._lanes(caps=caps)
        results = run_bank_batch(lanes, max_rounds=self.MAX_ROUNDS)
        assert results[0] == ExecutionResult(rounds=cap, solved=False, solve_round=None)
        for index, (seed, lane, collector, result) in enumerate(
            zip(self.SEEDS, lanes, collectors, results)
        ):
            solo_result, solo_records, solo_rng, _ = self._solo(
                seed, max_rounds=caps[index] or self.MAX_ROUNDS
            )
            assert result == solo_result
            assert collector.records == solo_records
            assert lane.engine._coin_rng.bit_generator.state == solo_rng.bit_generator.state
            if index:
                assert result.solved and result.rounds > cap


class TestMaxRoundsMidSpan:
    """``max_rounds`` landing inside a skip span must cut it exactly."""

    #: rr-local on a geographic graph: after the last broadcaster's
    #: slot, the schedule is silent until the next pass — caps placed
    #: below force the cut mid-span.
    SPEC_KWARGS = CORPUS[0][1]

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    @pytest.mark.parametrize("cap", (7, 23, 48))
    def test_cap_mid_span_is_exact(self, engine, cap):
        spec = _spec(self.SPEC_KWARGS)
        base = _run_probed(spec, SEEDS[0], engine, False, cap)
        skip = _run_probed(spec, SEEDS[0], engine, True, cap)
        assert skip[0] == base[0]  # same records, same (censored) result
        assert skip[1] == base[1]  # RNG parked at the same position
        assert skip[2] == base[2]

    def test_caps_actually_land_mid_span(self):
        """At least one cap above cuts a span (the test's own license)."""
        spec = _spec(self.SPEC_KWARGS)
        _, _, _, full = _run_probed(spec, SEEDS[0], "bitset", True, 48)
        assert full < 48


class TestBankBoundaries:
    """Seed-bank edge shapes through the lockstep bank skip."""

    SPEC = dict(
        graph=("geographic", {"n": 32}),
        problem=("local-broadcast", {"fraction": 0.25}),
        algorithm=("round-robin-local", {}),
        adversary=("none", {}),
    )

    def _scenario(self):
        return _spec(self.SPEC).with_param("engine", "bank").build

    def test_empty_seed_bank(self):
        assert run_bank_trials(self._scenario(), []) == []

    def test_singleton_seed_bank(self):
        scenario = self._scenario()
        [banked] = run_bank_trials(scenario, [SEEDS[0]])
        solo = run_prepared_trial(scenario(SEEDS[0]), SEEDS[0])
        assert banked == solo

    def test_bank_batch_matches_solo_runs_with_skip(self):
        """Lockstep bank skipping: each lane identical to its solo run."""
        scenario = self._scenario()
        seeds = [11, 12, 13, 14]
        banked = run_bank_trials(scenario, seeds)
        solos = [run_prepared_trial(scenario(s), s) for s in seeds]
        assert banked == solos

    @pytest.mark.parametrize("k", (63, 64, 65))
    def test_knowledge_word_boundary(self, k):
        """The kernel's knowledge is one int bitmask per (trial, node):
        k = 63/64/65 put the highest known bit at 62/63/64, across the
        old 64-bit word boundary. The kernel must engage on all three —
        message counts above one word used to force the generic lane —
        and match the reference engine exactly."""
        spec = ScenarioSpec(
            graph=("clique", {"n": k}),
            problem=("multi-message", {}),
            algorithm=("gkln-multi-message", {}),
            adversary=("none", {}),
            mac=("simulated", {}),
            messages={"k": k, "sources": "spread"},
            max_rounds=4000,
        )
        trial = spec.build(SEEDS[0])
        observer = trial.problem.make_observer()
        engine = create_engine(
            trial.network,
            trial.algorithm,
            trial.link_process,
            engine="bank",
            seed=SEEDS[0],
            algorithm_info=trial.algorithm.info(),
            observers=[observer],
        )
        kernel = engine._kernel
        assert kernel is not None
        assert max(mask.bit_length() for mask in kernel.known[0]) == k
        result = engine.run(max_rounds=4000, stop=lambda: observer.solved)
        reference = run_prepared_trial(spec.build(SEEDS[0]), SEEDS[0])
        assert (result.solved, result.rounds) == (
            reference.solved,
            reference.rounds,
        )


class TestBankHeterogeneousRounds:
    """Banks whose trials carry different round caps stay batched."""

    SPEC = dict(
        graph=("geographic", {"n": 32}),
        problem=("local-broadcast", {"fraction": 0.25}),
        algorithm=("round-robin-local", {}),
        adversary=("none", {}),
    )
    #: seed → cap; 9 censors mid-span, 400 lets the trial solve.
    CAPS = {11: 9, 12: 400, 13: 37, 14: 123}

    def _scenario(self):
        spec = _spec(self.SPEC).with_param("engine", "bank")
        caps = self.CAPS

        def build(seed):
            trial = spec.build(seed)
            trial.max_rounds = caps[seed]
            return trial

        return build

    def test_heterogeneous_caps_match_solo_runs(self):
        scenario = self._scenario()
        seeds = sorted(self.CAPS)
        banked = run_bank_trials(scenario, seeds)
        solos = [run_prepared_trial(scenario(s), s) for s in seeds]
        assert banked == solos

    def test_heterogeneous_caps_stay_on_batch_path(self, monkeypatch):
        """Regression: trials disagreeing on ``max_rounds`` used to hit
        the silent per-trial fallback; now each lane carries its own
        cap and retires from the lockstep batch when it reaches it."""
        import repro.core.bankpath as bankpath

        calls = []
        original = bankpath.run_bank_batch

        def spy(lanes, *, max_rounds):
            calls.append((len(lanes), max_rounds))
            return original(lanes, max_rounds=max_rounds)

        monkeypatch.setattr(bankpath, "run_bank_batch", spy)
        scenario = self._scenario()
        seeds = sorted(self.CAPS)
        run_bank_trials(scenario, seeds)
        assert calls == [(len(seeds), max(self.CAPS.values()))]


class _HistoryProbe(LinkProcess):
    """A third-party-style online adaptive adversary with a fixed topology.

    It declares no boundary (its choice never changes), so skipping may
    elide its calls; every call it does get records the history window
    it was shown.
    """

    adversary_class = AdversaryClass.ONLINE_ADAPTIVE

    def start(self, network, algorithm, rng) -> None:
        super().start(network, algorithm, rng)
        self._topology = RoundTopology.reliable_only(network)
        self.calls: dict = {}

    def choose_topology(self, view):
        self.calls[view.round_index] = (len(view.history), tuple(view.history))
        return self._topology

    def next_boundary(self, round_index: int):
        return None


class TestAdaptiveHistoryUnderSkipping:
    """Skipped spans still append history for adaptive link processes."""

    #: rr-local: long provably silent spans between slot rounds.
    SPEC_KWARGS = CORPUS[0][1]
    MAX_ROUNDS = CORPUS[0][2]
    SEEDS = (3, 4, 5)

    def _trial(self, seed):
        trial = _spec(self.SPEC_KWARGS).build(seed)
        trial.link_process = _HistoryProbe()
        return trial

    def _reference_calls(self, seed):
        trial = self._trial(seed)
        observer = trial.problem.make_observer()
        engine = create_engine(
            trial.network,
            trial.algorithm,
            trial.link_process,
            engine="reference",
            seed=seed,
            observers=[observer],
            skip=False,
        )
        result = engine.run(max_rounds=self.MAX_ROUNDS, stop=lambda: observer.solved)
        return result, trial.link_process.calls

    def test_bank_batch_history_matches_reference(self):
        trials = [self._trial(seed) for seed in self.SEEDS]
        kernel = build_bank_kernel(
            [trial.algorithm for trial in trials],
            self.SEEDS,
            [trial.network for trial in trials],
        )
        assert kernel is not None
        lanes = []
        for index, (trial, seed) in enumerate(zip(trials, self.SEEDS)):
            observer = trial.problem.make_observer()
            engine = BitsetRadioNetworkEngine(
                trial.network,
                trial.link_process,
                seed=seed,
                observers=[observer],
                kernel=kernel,
                lane=index,
                skip=True,
            )
            lanes.append(BankLane(engine=engine, stop=lambda obs=observer: obs.solved))
        results = run_bank_batch(lanes, max_rounds=self.MAX_ROUNDS)
        for trial, seed, result in zip(trials, self.SEEDS, results):
            ref_result, ref_calls = self._reference_calls(seed)
            assert result == ref_result
            bank_calls = trial.link_process.calls
            # Skipping engaged (calls were elided) ...
            assert len(bank_calls) < len(ref_calls)
            # ... yet every call saw exactly the reference history.
            for round_index, seen in bank_calls.items():
                assert seen[0] == round_index
                assert seen == ref_calls[round_index]

    @pytest.mark.parametrize("engine", ("bitset", "bank"))
    def test_single_engine_history_matches_reference(self, engine):
        seed = self.SEEDS[0]
        trial = self._trial(seed)
        observer = trial.problem.make_observer()
        eng = create_engine(
            trial.network,
            trial.algorithm,
            trial.link_process,
            engine=engine,
            seed=seed,
            observers=[observer],
            skip=True,
        )
        result = eng.run(max_rounds=self.MAX_ROUNDS, stop=lambda: observer.solved)
        ref_result, ref_calls = self._reference_calls(seed)
        assert result == ref_result
        calls = trial.link_process.calls
        assert len(calls) < len(ref_calls)
        for round_index, seen in calls.items():
            assert seen == ref_calls[round_index]


class _NoSkipContractProcess(UniformGlobalProcess):
    """Stand-in for a third-party process: the base ``next_state_change``."""

    next_state_change = Process.next_state_change


#: A process class lacking the skip contract. No kernel serves it, so
#: a fast-engine request runs the reference engine; skipping is forced
#: on, which the contract check downgrades to off with one
#: EngineFallbackWarning per batch.
_GAP_SPEC = ScenarioSpec(
    graph=("dual-clique", {"half": 6}),
    problem=("global-broadcast", {"source": 0}),
    algorithm=("uniform-global", {"probability": 0.1}),
    adversary=("none", {}),
    name="dedup-probe",
    max_rounds=300,
    skip=True,
)


def _gap_scenario(seed, *, engine, skip=True):
    """The spec's trial with its processes swapped for the gap class
    (module level, so the parallel executor can pickle it)."""
    trial = _GAP_SPEC.with_param("engine", engine).with_param("skip", skip).build(seed)
    trial.algorithm = AlgorithmSpec(
        name="uniform-global-without-skip-contract",
        factory=functools.partial(_NoSkipContractProcess, source=0, probability=0.1),
    )
    return trial


@pytest.mark.parametrize("engine", ("bitset", "bank"))
class TestFallbackWarningDedup:
    """One EngineFallbackWarning per scenario batch, fully labelled."""

    def _collect(self, executor, seeds, engine, skip=True):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            executor.run_trials(
                functools.partial(_gap_scenario, engine=engine, skip=skip), list(seeds)
            )
        return [w for w in caught if issubclass(w.category, EngineFallbackWarning)]

    def test_serial_executor_warns_once_per_batch(self, engine):
        fallback = self._collect(SerialExecutor(), range(5), engine)
        assert len(fallback) == 1
        message = str(fallback[0].message)
        # Component name and scenario name both present.
        assert "_NoSkipContractProcess.next_state_change" in message
        assert "dedup-probe" in message

    def test_parallel_executor_warns_once_per_batch(self, engine):
        with ParallelExecutor(max_workers=2, chunksize=1) as pool:
            fallback = self._collect(pool, range(5), engine)
        assert len(fallback) == 1
        message = str(fallback[0].message)
        assert "_NoSkipContractProcess.next_state_change" in message
        assert "dedup-probe" in message

    def test_unset_skip_never_reaches_the_gap_check(self, engine):
        """Routed to the reference engine, the gap component takes its
        skip default (off), so neither executor warns; the parent-side
        probe routes exactly as the run does."""
        assert self._collect(SerialExecutor(), range(3), engine, skip=None) == []
        with ParallelExecutor(max_workers=2, chunksize=1) as pool:
            assert self._collect(pool, range(3), engine, skip=None) == []

    def test_silenced_serial_executor_stays_silent(self, engine):
        assert self._collect(SerialExecutor(warn_fallback=False), range(3), engine) == []

    def test_results_match_reference(self, engine):
        """The remaining fallback only turns skipping off."""
        seeds = list(range(4))
        fast = SerialExecutor(warn_fallback=False).run_trials(
            functools.partial(_gap_scenario, engine=engine), seeds
        )
        reference = SerialExecutor().run_trials(
            functools.partial(_gap_scenario, engine="reference", skip=False), seeds
        )
        assert fast == reference
