"""Seed-for-seed equivalence of the engines × round skipping: a
full-trace six-way differential harness.

The fast engine (:mod:`repro.core.fastpath`) restructures the round
pipeline — kernel plans, batched coins, word-rule and bigint reception,
kernel feedback — and runs only with a struct-of-arrays protocol
kernel, the one the spec's lane recipe names. A ``"bank"`` request that no
kernel serves is routed to the reference engine. Every restructuring
is licensed by a documented contract, so the observable execution must
be *identical*: same :class:`~repro.core.engine.ExecutionResult`, same
:class:`~repro.core.trace.RoundRecord` stream (transmitter masks,
delivery tuples, expected transmitter counts), for every seed, against
the reference engine.

The matrix below covers **every registered component at least once**:
all 14 graph families, all 11 algorithms (including both multi-message
MAC protocols), and all 15 adversaries — oblivious and adaptive alike.
Every adversary also appears on a kernel row, so each one is exercised
on the fast engine itself. The adaptive rows include kernel-backed
lanes, whose typed views are built from the bank's probability rows
and transmitter masks. Registered experiment cells are checked against
the *actual experiment specs* on top of the synthetic matrix: the M1–M3
kernel cells, and the E9/A2/A3 cells that no kernel serves, which are
also held to their routing.

Every engine name — ``"reference"`` and the fast engine's ``"bank"``
and its alias ``"bitset"``, each routed through
:func:`~repro.core.engine.create_engine` — additionally runs with
event-driven round skipping forced on and forced off: the six-way
matrix. Skipping elides provably silent rounds but must replay them
into the trace and advance the coin RNG exactly as if they had run, so
all six variants compare against one baseline: the reference engine
with skipping off.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np
import pytest

from repro.api.spec import ScenarioSpec
from repro.core.bankpath import BankLane, build_bank_kernel, run_bank_batch
from repro.core.engine import ENGINE_NAMES, RadioNetworkEngine, create_engine
from repro.core.errors import EngineError, EngineFallbackWarning
from repro.core.fastpath import _WORD_RULE_MAX_N, BitsetRadioNetworkEngine
from repro.core.trace import TraceCollector
from repro.obs.recorder import disable, enable
from repro.registry import ADVERSARIES, ALGORITHMS, GRAPHS

#: The engine names that must reproduce the reference engine's traces
#: (``"bitset"`` is an alias of ``"bank"``).
FAST_ENGINES = ("bitset", "bank")

#: The full six-way grid: every engine name (the reference engine and
#: the fast engine under both its names) with skipping forced on and
#: forced off. The (reference, skip=False) cell is the baseline the
#: other five compare against.
BASELINE = ("reference", False)
SIX_WAY_MATRIX = [
    (engine, skip)
    for engine in ("reference",) + FAST_ENGINES
    for skip in (False, True)
]
VARIANTS = [cell for cell in SIX_WAY_MATRIX if cell != BASELINE]

#: Registered algorithms no bank kernel serves: their ``"bank"``
#: requests run on the reference engine.
KERNEL_LESS_ALGORITHMS = ("uncoordinated-decay", "geo-local")

#: (graph, problem, algorithm, adversary) — one spec per row; together
#: the rows cover the full registered component sets (asserted below).
EQUIVALENCE_MATRIX = [
    (
        ("line", {"n": 16, "extra_flaky_skips": 2}),
        ("global-broadcast", {"source": 0}),
        ("plain-decay", {}),
        ("none", {}),
    ),
    (
        ("ring", {"n": 16}),
        ("local-broadcast", {"fraction": 0.25}),
        ("round-robin-local", {"random_slots": True}),
        ("alternating", {"phase_lengths": [2, 3]}),
    ),
    (
        ("grid", {"rows": 4, "cols": 4, "flaky_diagonals": True}),
        ("global-broadcast", {"source": 0}),
        ("uncoordinated-decay", {}),
        ("bernoulli-node-fade", {"p_clear": 0.7}),
    ),
    # The same adversary on a kernel, so the fast engine serves it too.
    (
        ("grid", {"rows": 3, "cols": 4}),
        ("global-broadcast", {"source": 0}),
        ("plain-decay", {}),
        ("bernoulli-node-fade", {"p_clear": 0.7}),
    ),
    (
        ("binary-tree", {"depth": 3}),
        ("global-broadcast", {"source": 0}),
        ("round-robin-global", {"random_slots": True}),
        ("fixed-flaky", {"edges": []}),
    ),
    (
        ("star", {"n": 12, "flaky_rim": True}),
        ("local-broadcast", {"fraction": 0.25}),
        ("uniform-local", {}),
        ("all", {}),
    ),
    (
        ("clique", {"n": 16}),
        ("local-broadcast", {"fraction": 0.25}),
        ("static-local-decay", {}),
        ("none", {}),
    ),
    (
        ("funnel", {"n": 24}),
        ("global-broadcast", {"source": 0}),
        ("permuted-decay", {}),
        ("cut-jammer", {"period": 4, "dense_rounds": 2, "side": "first-half"}),
    ),
    (
        ("line-of-cliques", {"num_cliques": 3, "clique_size": 4}),
        ("global-broadcast", {"source": 0}),
        ("plain-decay", {}),
        ("predicted-dense-sparse", {"side": "first-half"}),
    ),
    (
        ("er", {"n": 16, "g_edge_probability": 0.3, "flaky_edge_probability": 0.2}),
        ("global-broadcast", {"source": 0}),
        ("uniform-global", {"probability": 0.1}),
        ("bernoulli-edge", {"p_up": 0.5}),
    ),
    (
        ("dual-clique", {"half": 8}),
        ("global-broadcast", {"source": 0}),
        ("uniform-global", {"probability": 0.08}),
        (
            "precomputed-dense-sparse",
            {"labels": [True, False, True, False], "side": "A"},
        ),
    ),
    (
        ("geographic", {"n": 32}),
        ("local-broadcast", {"fraction": 0.25}),
        ("geo-local", {}),
        ("ge-fade", {"p_fail": 0.3, "p_recover": 0.3}),
    ),
    (
        ("grid-geographic", {"rows": 4, "cols": 4}),
        ("local-broadcast", {"fraction": 0.25}),
        ("static-local-decay", {}),
        ("moving-fade", {"fade_radius": 1.0, "speed": 0.3}),
    ),
    (
        ("cluster-chain", {"num_clusters": 3, "cluster_size": 5}),
        ("local-broadcast", {"fraction": 0.25}),
        ("uniform-local", {}),
        ("ge-edge", {"p_fail": 0.3, "p_recover": 0.4}),
    ),
    (
        ("bracelet", {"band_length": 3}),
        ("local-broadcast", {"side": "A"}),
        ("static-local-decay", {}),
        ("bracelet-attacker", {"threshold_factor": 1.0}),
    ),
    # Finite per-node windows on the two decay kernels.
    (
        ("line", {"n": 16, "extra_flaky_skips": 2}),
        ("global-broadcast", {"source": 0}),
        ("plain-decay", {"active_phases": 2}),
        ("alternating", {"phase_lengths": [2, 3]}),
    ),
    (
        ("line", {"n": 16, "extra_flaky_skips": 2}),
        ("global-broadcast", {"source": 0}),
        ("permuted-decay", {"epochs_per_node": 1}),
        ("cut-jammer", {"period": 4, "dense_rounds": 2, "side": "first-half"}),
    ),
    # Adaptive adversaries: the views carry the probability vector,
    # the history window and (offline) the realized transmitter mask.
    (
        ("dual-clique", {"half": 8}),
        ("global-broadcast", {"source": 0}),
        ("uniform-global", {"probability": 0.08}),
        ("online-dense-sparse", {"side": "A"}),
    ),
    (
        ("dual-clique", {"half": 8}),
        ("global-broadcast", {"source": 0}),
        ("uniform-global", {"probability": 0.08}),
        ("offline-solo-blocker", {"side": "A"}),
    ),
    # Kernel-backed adaptive rows: the Theorem 4.3 head-scoped count
    # (a low threshold so both labels occur) on the plain-decay kernel.
    (
        ("bracelet", {"band_length": 4}),
        ("global-broadcast", {"source": 0}),
        ("plain-decay", {}),
        (
            "online-dense-sparse",
            {"side": "A", "count_scope": "A", "threshold": 0.5},
        ),
    ),
    # Multi-message MAC protocols: the spec helper below attaches the
    # simulated MAC layer and a 3-message workload for these rows.
    (
        ("grid", {"rows": 4, "cols": 4, "flaky_diagonals": True}),
        ("multi-message", {}),
        ("gkln-multi-message", {}),
        ("ge-fade", {"p_fail": 0.3, "p_recover": 0.3}),
    ),
    (
        ("ring", {"n": 16}),
        ("multi-message", {}),
        ("backoff-multi-message", {"regime": "exponential"}),
        ("alternating", {"phase_lengths": [2, 3]}),
    ),
    # The M2 cell: GKLN kernel lanes against the offline solo blocker.
    (
        ("geographic", {"n": 32, "grey_ratio": 2.0}),
        ("multi-message", {}),
        ("gkln-multi-message", {}),
        ("offline-solo-blocker", {"side": "first-half"}),
    ),
]

#: Rows whose ``"bank"`` request must run the fast engine on a
#: vectorized kernel: every matrix row of an algorithm with a kernel,
#: plus both E1b_large cells at tiny n.
KERNEL_ROWS = [
    row for row in EQUIVALENCE_MATRIX if row[2][0] not in KERNEL_LESS_ALGORITHMS
] + [
    (
        ("ring", {"n": 128}),
        ("local-broadcast", {"fraction": 1 / 64}),
        (algorithm, {}),
        ("none", {}),
    )
    for algorithm in ("round-robin-local", "static-local-decay")
]

SEEDS = (1, 2013)

#: Round cap for the comparison runs: enough for most rows to solve,
#: small enough to keep the matrix fast even when they do not.
MAX_ROUNDS = 1500


def _spec(row) -> ScenarioSpec:
    graph, problem, algorithm, adversary = row
    if problem[0] == "multi-message":
        return ScenarioSpec(
            graph=graph,
            problem=problem,
            algorithm=algorithm,
            adversary=adversary,
            mac=("simulated", {}),
            messages={"k": 3, "sources": "spread"},
        )
    return ScenarioSpec(
        graph=graph, problem=problem, algorithm=algorithm, adversary=adversary
    )


def _run_traced(
    spec: ScenarioSpec,
    seed: int,
    engine: str,
    skip=None,
    *,
    max_rounds: int = MAX_ROUNDS,
    validate: bool = True,
):
    """One execution with full round records collected."""
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
        validate_topologies=validate,
        observers=[observer, collector],
        skip=skip,
    )
    result = eng.run(max_rounds=max_rounds, stop=lambda: observer.solved)
    return eng, result, collector.records


def _bank_kernel(trials, seeds):
    """The kernel a bank of these prepared trials gets, or ``None``."""
    return build_bank_kernel(
        [trial.algorithm for trial in trials], seeds, [trial.network for trial in trials]
    )


@functools.lru_cache(maxsize=None)
def _baseline(row_index: int, seed: int):
    """Cached (reference, skip=False) run for one matrix cell.

    The five variants all diff against the same baseline; caching it
    keeps the six-way grid from re-running the reference engine five
    times per (row, seed).
    """
    spec = _spec(EQUIVALENCE_MATRIX[row_index])
    _, result, records = _run_traced(spec, seed, *BASELINE)
    return result, records


def _row_id(row) -> str:
    graph, _, algorithm, adversary = row
    return f"{graph[0]}/{algorithm[0]}/{adversary[0]}"


class TestComponentCoverage:
    """The matrix really does cover every registered component."""

    def test_every_graph_covered(self):
        covered = {row[0][0] for row in EQUIVALENCE_MATRIX}
        assert covered == set(GRAPHS.names())

    def test_every_algorithm_covered(self):
        covered = {row[2][0] for row in EQUIVALENCE_MATRIX}
        assert covered == set(ALGORITHMS.names())

    def test_every_adversary_covered(self):
        covered = {row[3][0] for row in EQUIVALENCE_MATRIX}
        assert covered == set(ADVERSARIES.names())

    def test_every_adversary_has_a_kernel_row(self):
        """Kernel-less rows run on the reference engine, so only kernel
        rows put an adversary in front of the fast engine."""
        covered = {row[3][0] for row in KERNEL_ROWS}
        assert covered == set(ADVERSARIES.names())


class TestFastEngineEquivalence:
    @pytest.mark.parametrize(
        "variant", VARIANTS, ids=lambda v: f"{v[0]}-{'skip' if v[1] else 'noskip'}"
    )
    @pytest.mark.parametrize(
        "row_index",
        range(len(EQUIVALENCE_MATRIX)),
        ids=lambda i: _row_id(EQUIVALENCE_MATRIX[i]),
    )
    @pytest.mark.parametrize("seed", SEEDS)
    def test_traces_identical(self, row_index, seed, variant):
        engine, skip = variant
        spec = _spec(EQUIVALENCE_MATRIX[row_index])
        ref_result, ref_records = _baseline(row_index, seed)
        fast_engine, fast_result, fast_records = _run_traced(
            spec, seed, engine, skip=skip
        )
        if engine in FAST_ENGINES:
            routed = (
                BitsetRadioNetworkEngine
                if EQUIVALENCE_MATRIX[row_index] in KERNEL_ROWS
                else RadioNetworkEngine
            )
            assert type(fast_engine) is routed
        expected_skip = skip
        kernel = getattr(fast_engine, "_kernel", None)
        if kernel is not None and not kernel.supports_skip:
            # Multi-message kernel lanes replace the plan stage
            # wholesale and force skipping off regardless of the
            # request; the single-message kernels answer the skip
            # probe themselves and honor it.
            expected_skip = False
        assert fast_engine.skip is expected_skip
        assert fast_result == ref_result
        assert len(fast_records) == len(ref_records)
        for ref_record, fast_record in zip(ref_records, fast_records):
            assert fast_record == ref_record

    @pytest.mark.parametrize("row", KERNEL_ROWS, ids=_row_id)
    def test_bank_kernel_engages_on_kernel_rows(self, row):
        """The kernel rows must exercise the vectorized kernels, not the
        reference engine — otherwise the matrix would silently stop
        covering the fast engine, and kernel selection would be
        checked only through bench timings."""
        engine, _, _ = _run_traced(_spec(row), SEEDS[0], "bank")
        assert engine._kernel is not None

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    @pytest.mark.parametrize("row", EQUIVALENCE_MATRIX[:2], ids=_row_id)
    def test_run_trial_results_identical(self, row, engine):
        """The spec-level entry point agrees too (engine rides the spec)."""
        from repro.api import Simulation

        spec = _spec(row)
        reference = Simulation.from_spec(spec).run_trial(SEEDS[0])
        fast = Simulation.from_spec(spec, engine=engine).run_trial(SEEDS[0])
        assert fast == reference


#: Kernel rows served by a skip-capable kernel (the multi-message
#: kernels are not: their ``probabilities`` folds ack windows).
SKIP_KERNEL_ROWS = [row for row in KERNEL_ROWS if row[1][0] != "multi-message"]


class TestSkipKernelPlansArePure:
    """The invariant bank parking relies on: a skip-capable kernel's
    ``probabilities(r)`` is a pure function of its feedback-driven
    state and ``r``. The bank computes one row per lane every bank
    round, parked lanes included, so computing a round a lane does not
    execute must leave that lane's later rows untouched."""

    PRIMING_ROUNDS = 40

    @pytest.mark.parametrize("row", SKIP_KERNEL_ROWS, ids=_row_id)
    def test_probabilities_depend_only_on_state_and_round(self, row):
        spec = _spec(row)
        trials = [spec.build(seed) for seed in SEEDS]
        kernel = _bank_kernel(trials, SEEDS)
        assert kernel is not None and kernel.supports_skip

        def probe(r):
            probs = kernel.probabilities(r).copy()
            return probs, kernel._counts.copy(), kernel._rungs.copy()

        def check_pure():
            start = self.PRIMING_ROUNDS
            for r1, r2 in ((1, 17), (start + 5, start + 1), (0, start)):
                first = probe(r1)
                probe(r2)
                again = probe(r1)
                for before, after in zip(first, again):
                    assert np.array_equal(before, after), (r1, r2)

        check_pure()
        # Again from a mid-run state, after some feedback has landed.
        lanes = [
            BankLane(
                engine=BitsetRadioNetworkEngine(
                    trial.network,
                    trial.link_process,
                    seed=seed,
                    algorithm_info=trial.algorithm.info(),
                    kernel=kernel,
                    lane=index,
                )
            )
            for index, (trial, seed) in enumerate(zip(trials, SEEDS))
        ]
        run_bank_batch(lanes, max_rounds=self.PRIMING_ROUNDS)
        check_pure()


#: (row, reference skip, reception counter) — large-n rows on both
#: sides of the fast engine's word-rule cap:
#:
#: * the E1b_large ring cells past ``_WORD_RULE_MAX_N``, where reception
#:   is the bigint candidate scan: static-local-decay has
#:   multi-transmitter rounds; round-robin-local's reference run skips
#:   the silent sweep rounds to stay cheap;
#: * a fading adversary minting a topology per round under the cap,
#:   where reception is the word rule over multi-word rows.
LARGE_N_ROWS = [
    (
        (
            ("ring", {"n": 2100}),
            ("local-broadcast", {"fraction": 1 / 64}),
            ("static-local-decay", {}),
            ("none", {}),
        ),
        None,
        "reception.scan",
    ),
    (
        (
            ("ring", {"n": 2100}),
            ("local-broadcast", {"fraction": 1 / 64}),
            ("round-robin-local", {}),
            ("none", {}),
        ),
        True,
        "reception.scan",
    ),
    (
        (
            ("geographic", {"n": 600, "grey_ratio": 2.0}),
            ("global-broadcast", {"source": 0}),
            ("plain-decay", {}),
            ("ge-fade", {"p_fail": 0.3, "p_recover": 0.3}),
        ),
        None,
        "reception.words",
    ),
]
LARGE_N_IDS = [
    f"{_row_id(row)}/n{row[0][1]['n']}" for row, _, _ in LARGE_N_ROWS
]

#: Enough for every large-n row to solve (a round-robin sweep is n).
LARGE_N_MAX_ROUNDS = 3000


@functools.lru_cache(maxsize=None)
def _large_n_reference(row_index: int, seed: int):
    row, reference_skip, _ = LARGE_N_ROWS[row_index]
    _, result, records = _run_traced(
        _spec(row),
        seed,
        "reference",
        skip=reference_skip,
        max_rounds=LARGE_N_MAX_ROUNDS,
        validate=False,
    )
    return result, records


class TestReceptionAroundTheWordRuleCap:
    """Bank lanes and standalone runs ≡ reference at large n, on both
    sides of the word-rule cap: the scan regime of the headline ring
    cells, and multi-word rows under topology churn. Topology
    validation is off on every side — it is checked elsewhere, and per
    round it costs more than the run."""

    @pytest.mark.parametrize("row_index", range(len(LARGE_N_ROWS)), ids=LARGE_N_IDS)
    def test_bank_lanes_match_reference(self, row_index):
        spec = _spec(LARGE_N_ROWS[row_index][0])
        trials = [spec.build(seed) for seed in SEEDS]
        kernel = _bank_kernel(trials, SEEDS)
        assert kernel is not None
        # Each row sits on the side of the word-rule cap it names.
        scans = LARGE_N_ROWS[row_index][2] == "reception.scan"
        assert (trials[0].network.n > _WORD_RULE_MAX_N) == scans
        lanes, collectors = [], []
        for index, (trial, seed) in enumerate(zip(trials, SEEDS)):
            observer = trial.problem.make_observer()
            collector = TraceCollector()
            engine = BitsetRadioNetworkEngine(
                trial.network,
                trial.link_process,
                seed=seed,
                algorithm_info=trial.algorithm.info(),
                validate_topologies=False,
                observers=[observer, collector],
                kernel=kernel,
                lane=index,
                skip=True,
            )
            lanes.append(BankLane(engine=engine, stop=lambda o=observer: o.solved))
            collectors.append(collector)
        results = run_bank_batch(lanes, max_rounds=LARGE_N_MAX_ROUNDS)
        for seed, result, collector in zip(SEEDS, results, collectors):
            ref_result, ref_records = _large_n_reference(row_index, seed)
            assert ref_result.solved
            assert result == ref_result
            assert collector.records == ref_records

    @pytest.mark.parametrize("row_index", range(len(LARGE_N_ROWS)), ids=LARGE_N_IDS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_standalone_run_matches_reference(self, row_index, seed):
        rec = enable()
        try:
            engine, result, records = _run_traced(
                _spec(LARGE_N_ROWS[row_index][0]),
                seed,
                "bank",
                max_rounds=LARGE_N_MAX_ROUNDS,
                validate=False,
            )
        finally:
            disable()
        assert type(engine) is BitsetRadioNetworkEngine
        assert (result, records) == _large_n_reference(row_index, seed)
        # The rows really exercise the reception rule they name, and
        # only that one.
        counter = LARGE_N_ROWS[row_index][2]
        other = {"reception.scan", "reception.words"} - {counter}
        assert rec.counters.get(counter, 0) > 0
        assert rec.counters.get(other.pop(), 0) == 0


#: Registered cells no bank kernel serves: their ``"bank"`` requests
#: run on the reference engine.
KERNEL_LESS_CELLS = [
    ("E9", "geo-local §4.3 vs GE-fade", 32),
    ("A2", "uncoordinated decay (private rungs)", 16),
    ("A3", "geo-local with init stage", 32),
]

#: (experiment id, series label, smallest tiny-scale parameter) — the
#: registered experiment cells the harness replays: the M1–M3 kernel
#: cells, and the kernel-less cells, whose fast-engine requests must
#: route to the reference engine and so reproduce its traces too. The
#: oracle-MAC series bypass the engines by design and are exercised
#: elsewhere.
EXPERIMENT_CELLS = [
    ("M1", "gkln-queued vs GE-fade", 4),
    ("M1", "backoff-concurrent vs GE-fade", 4),
    ("M2", "gkln-queued vs G-only", 32),
    ("M2", "gkln-queued vs GE-fade", 32),
    ("M2", "gkln-queued vs offline-solo-blocker", 32),
    ("M3", "gkln on simulated MAC", 32),
] + KERNEL_LESS_CELLS


def _experiment_cell_spec(cell) -> ScenarioSpec:
    from repro.experiments import ALL_EXPERIMENTS

    exp_id, series_label, parameter = cell
    experiment = ALL_EXPERIMENTS[exp_id]
    series = next(s for s in experiment.series if s.label == series_label)
    return series.scenario_for(parameter)


def _cell_id(cell) -> str:
    return f"{cell[0]}/{cell[1]}/{cell[2]}"


class TestMExperimentCells:
    """Bank ≡ reference on actual registered experiment specs."""

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    @pytest.mark.parametrize("cell", EXPERIMENT_CELLS, ids=_cell_id)
    def test_experiment_cell_traces_identical(self, cell, engine):
        spec = _experiment_cell_spec(cell)
        _, ref_result, ref_records = _run_traced(spec, SEEDS[1], "reference")
        fast_engine, fast_result, fast_records = _run_traced(spec, SEEDS[1], engine)
        routed = (
            RadioNetworkEngine
            if cell in KERNEL_LESS_CELLS
            else BitsetRadioNetworkEngine
        )
        assert type(fast_engine) is routed
        assert fast_result == ref_result
        assert fast_records == ref_records


def _kernel_less_specs() -> dict:
    """Every registered kernel-less cell, plus the bank-RNG suite's two
    kernel-less specs (geo-local and the per-node-RNG workload)."""
    from tests.test_bank_rng import SPECS

    specs = {_cell_id(cell): _experiment_cell_spec(cell) for cell in KERNEL_LESS_CELLS}
    for name in ("generic-lane", "lazy-node-rng"):
        specs[name] = SPECS[name]
    return specs


KERNEL_LESS_SPECS = _kernel_less_specs()

#: Seeds for the kernel-less routing batches.
ROUTING_SEEDS = [21, 22, 23]


@pytest.fixture(scope="module")
def routing_pool():
    from repro.api.executor import ParallelExecutor

    with ParallelExecutor(max_workers=2) as pool:
        yield pool


@pytest.mark.parametrize("name", sorted(KERNEL_LESS_SPECS))
class TestKernelLessRoutesToReference:
    """A ``"bank"`` request no kernel serves runs the reference engine,
    with the reference skip default, through every entry point."""

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    def test_create_engine_routes_to_reference(self, name, engine):
        spec = KERNEL_LESS_SPECS[name]
        trial = spec.build(SEEDS[1])
        assert _bank_kernel([trial], [SEEDS[1]]) is None
        eng = create_engine(
            trial.network, trial.algorithm, trial.link_process, engine=engine, seed=SEEDS[1]
        )
        assert type(eng) is RadioNetworkEngine
        assert eng.skip is False

    def test_parent_probe_routes_like_the_run(self, name, monkeypatch):
        """The executors' parent-side probe and the bank run reach the
        same routing rule and get the same answer from it."""
        from repro.analysis import runner

        routes = []
        original = runner.resolve_engine_choice

        def recorded(*args, **kwargs):
            route = original(*args, **kwargs)
            routes.append(route)
            return route

        monkeypatch.setattr(runner, "resolve_engine_choice", recorded)
        bank = KERNEL_LESS_SPECS[name].with_param("engine", "bank").build
        lead = bank(ROUTING_SEEDS[0])
        assert runner.probe_engine_fallbacks(lead, ROUTING_SEEDS[0]) == []
        runner.run_bank_trials(bank, ROUTING_SEEDS)
        assert routes == [("reference", False, [], None, None)] * 2

    def test_executors_match_reference(self, name, routing_pool):
        from repro.api.executor import SerialExecutor

        spec = KERNEL_LESS_SPECS[name]
        bank = spec.with_param("engine", "bank").build
        reference = SerialExecutor().run_trials(
            spec.with_param("engine", "reference").build, ROUTING_SEEDS
        )
        assert SerialExecutor().run_trials(bank, ROUTING_SEEDS) == reference
        assert routing_pool.run_trials(bank, ROUTING_SEEDS) == reference

    def test_traced_batch_names_the_reference_engine(self, name, tmp_path, monkeypatch):
        from repro.algorithms.base import AlgorithmSpec
        from repro.api.executor import SerialExecutor
        from repro.obs.recorder import disable, enable
        from repro.obs.report import read_trace

        builds = []
        original = AlgorithmSpec.build_processes

        def counted(self, *args, **kwargs):
            builds.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(AlgorithmSpec, "build_processes", counted)
        bank = KERNEL_LESS_SPECS[name].with_param("engine", "bank").build
        path = tmp_path / "trace.jsonl"
        rec = enable(str(path))
        try:
            SerialExecutor().run_trials(bank, ROUTING_SEEDS)
        finally:
            disable()
        records = [r for r in read_trace(str(path)) if r["kind"] == "trial"]
        assert [r["engine"] for r in records] == ["reference"] * len(ROUTING_SEEDS)
        assert rec.counters.get("bank.kernel.fallback") == 1
        assert len(builds) == len(ROUTING_SEEDS)


class TestKernelLanesBuildNoProcesses:
    """A kernel-served trial never instantiates per-node processes: its
    lanes are built from the spec's lane recipe and the trial seed, and
    only the reference route builds processes."""

    @pytest.mark.parametrize("row", KERNEL_ROWS, ids=_row_id)
    def test_kernel_rows_build_no_processes(self, row, monkeypatch):
        from repro.algorithms.base import AlgorithmSpec
        from repro.analysis.runner import run_prepared_trial
        from repro.api.executor import SerialExecutor

        def refuse(self, *args, **kwargs):
            raise AssertionError(f"{self.name} built per-node processes")

        monkeypatch.setattr(AlgorithmSpec, "build_processes", refuse)
        bank = _spec(row).with_param("engine", "bank").with_param("max_rounds", MAX_ROUNDS)
        banked = SerialExecutor().run_trials(bank.build, SEEDS)
        assert banked == [run_prepared_trial(bank.build(seed), seed) for seed in SEEDS]

    @pytest.mark.parametrize("skip", [None, True])
    @pytest.mark.parametrize("name", sorted(KERNEL_LESS_SPECS))
    def test_kernel_less_specs_build_processes(self, name, skip, monkeypatch):
        """Once per trial, also when a forced skip makes the routing
        check the first trial's process classes."""
        from repro.algorithms.base import AlgorithmSpec
        from repro.analysis.runner import run_bank_trials

        builds = []
        original = AlgorithmSpec.build_processes

        def counted(self, *args, **kwargs):
            builds.append(self.name)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(AlgorithmSpec, "build_processes", counted)
        trial = KERNEL_LESS_SPECS[name].build(SEEDS[0])
        eng = create_engine(
            trial.network,
            trial.algorithm,
            trial.link_process,
            engine="bank",
            seed=SEEDS[0],
            skip=skip,
            warn=False,
        )
        assert type(eng) is RadioNetworkEngine
        assert len(builds) == 1
        assert len(eng.processes) == trial.network.n
        bank = KERNEL_LESS_SPECS[name].with_param("engine", "bank").with_param("skip", skip)
        run_bank_trials(bank.build, ROUTING_SEEDS, warn_fallback=False)
        assert len(builds) == 1 + len(ROUTING_SEEDS)


#: The E1b_large ring cell shape: a kernel spec whose kernel is costly
#: to build (slot tables and masks for 10⁴ nodes per lane).
RING_10K_ROW = (
    ("ring", {"n": 10_000}),
    ("local-broadcast", {"fraction": 1 / 64}),
    ("static-local-decay", {}),
    ("none", {}),
)


class TestRoutingBuildsNoKernel:
    """Routing reads the kernel class; only a bank that runs builds a
    kernel, and each kernel built counts one ``bank.kernel.hit``."""

    def test_executor_probe_builds_no_kernel(self, monkeypatch):
        import repro.algorithms.local_static as local_static
        from repro.analysis.runner import probe_engine_fallbacks

        def refuse(self, *args, **kwargs):
            raise AssertionError("the routing probe built a kernel")

        monkeypatch.setattr(local_static._StaticDecayBankKernel, "__init__", refuse)
        trial = _spec(RING_10K_ROW).with_param("engine", "bank").build(SEEDS[0])
        rec = enable()
        try:
            assert probe_engine_fallbacks(trial, SEEDS[0]) == []
        finally:
            disable()
        assert rec.counters.get("bank.kernel.hit", 0) == 0

    def test_a_bank_run_counts_one_hit(self):
        from repro.api.executor import SerialExecutor

        bank = _spec(EQUIVALENCE_MATRIX[0]).with_param("engine", "bank")
        rec = enable()
        try:
            SerialExecutor().run_trials(bank.build, SEEDS)
        finally:
            disable()
        assert rec.counters.get("bank.kernel.hit") == 1


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        spec = _spec(EQUIVALENCE_MATRIX[0])
        trial = spec.build(SEEDS[0])
        with pytest.raises(EngineError, match="unknown engine"):
            create_engine(
                trial.network,
                trial.algorithm,
                trial.link_process,
                engine="warp",
                seed=SEEDS[0],
            )

    def test_fast_engine_requires_a_kernel(self):
        trial = _spec(EQUIVALENCE_MATRIX[0]).build(SEEDS[0])
        with pytest.raises(TypeError, match="kernel"):
            BitsetRadioNetworkEngine(trial.network, trial.link_process, seed=SEEDS[0])

    def test_spec_validates_engine_name(self):
        from repro.core.errors import SpecError

        with pytest.raises(SpecError, match="unknown engine"):
            _spec(EQUIVALENCE_MATRIX[0]).with_param("engine", "warp")

    def test_engine_round_trips_through_json(self):
        spec = _spec(EQUIVALENCE_MATRIX[0]).with_param("engine", "bitset")
        assert ScenarioSpec.from_json(spec.to_json()).engine == "bitset"
        assert "reference" in ENGINE_NAMES and "bitset" in ENGINE_NAMES

    def test_oblivious_request_makes_no_warning(self):
        spec = _spec(EQUIVALENCE_MATRIX[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", EngineFallbackWarning)
            _run_traced(spec, SEEDS[0], "bitset")

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    @pytest.mark.parametrize("adversary", sorted(ADVERSARIES.names()))
    def test_no_registered_adversary_falls_back(self, adversary, engine):
        """Every registered adversary, adaptive ones included, is served
        by the requested fast engine without an EngineFallbackWarning."""
        row = next(row for row in KERNEL_ROWS if row[3][0] == adversary)
        trial = _spec(row).build(SEEDS[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", EngineFallbackWarning)
            eng = create_engine(
                trial.network,
                trial.algorithm,
                trial.link_process,
                engine=engine,
                seed=SEEDS[0],
            )
        assert type(eng) is BitsetRadioNetworkEngine


class TestBitsetAlias:
    """``"bitset"`` names the one fast engine, ``"bank"``."""

    def test_alias_resolves_to_bank_and_traces_as_bank(self, tmp_path):
        from repro.core.engine import resolve_engine_choice
        from repro.obs.recorder import disable, enable
        from repro.obs.report import read_trace

        spec = _spec(EQUIVALENCE_MATRIX[0])
        trial = spec.build(SEEDS[0])
        resolved, skip, _, _, _ = resolve_engine_choice(
            "bitset", [trial.algorithm], [SEEDS[0]], [trial.network], trial.link_process
        )
        assert (resolved, skip) == ("bank", True)
        path = tmp_path / "trace.jsonl"
        enable(str(path))
        try:
            engines = [_run_traced(spec, SEEDS[0], name)[0] for name in FAST_ENGINES]
        finally:
            disable()
        assert type(engines[0]) is type(engines[1])
        records = [r for r in read_trace(str(path)) if r["kind"] == "trial"]
        assert [r["engine"] for r in records] == ["bank", "bank"]

    def test_serial_executor_bank_batches_a_bitset_spec(self, monkeypatch):
        import repro.core.bankpath as bankpath
        from repro.analysis.runner import TrialStats
        from repro.api.executor import SerialExecutor

        calls = []
        original = bankpath.run_bank_batch

        def spy(lanes, *, max_rounds):
            calls.append(len(lanes))
            return original(lanes, max_rounds=max_rounds)

        monkeypatch.setattr(bankpath, "run_bank_batch", spy)
        spec = _spec(EQUIVALENCE_MATRIX[0])
        seeds = [11, 12, 13]
        fast = SerialExecutor().run_trials(
            spec.with_param("engine", "bitset").build, seeds
        )
        assert calls == [len(seeds)]
        reference = SerialExecutor().run_trials(spec.build, seeds)
        assert TrialStats(fast).to_record() == TrialStats(reference).to_record()
