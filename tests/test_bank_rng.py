"""RNG stream discipline of the bank engine.

The bank scheduler's whole correctness story rests on one claim: the
(trials × nodes) coin batch is *assembled from* the per-trial
``("engine", "coins")`` streams, never drawn from a shared or merged
stream — each lane calls ``Generator.random(out=row)`` on its own
generator, one row per round, which consumes the stream exactly like
the serial engines' ``rng.random(n)``. These tests pin that claim
directly (post-run stream positions, not just trace equality), pin the
absence of cross-trial leakage (a trial's trace cannot depend on which
other trials share its bank, including lanes that retire early), and
cover the ``LazyRng`` deferred-seeding path for per-node streams.
Kernel lanes are built from the specs' lane recipes and hold no
per-node processes. Specs that no kernel serves route to the reference
engine, which runs each trial over its own processes; the stream and
bank-composition checks hold there too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.runner import run_bank_trials, run_prepared_trial
from repro.api.spec import ScenarioSpec
from repro.core import rng as rng_mod
from repro.core.bankpath import BankLane, build_bank_kernel, run_bank_batch
from repro.core.engine import RadioNetworkEngine, create_engine, resolve_engine_choice
from repro.core.fastpath import BitsetRadioNetworkEngine
from repro.core.rng import LazyRng, derive_seed
from repro.core.trace import TraceCollector

MASTER_SEED = 414213562

#: MAC-kernel (gkln) and single-message-kernel (plain/permuted decay,
#: also with finite per-node windows) workloads, two kernel-less
#: workloads (geo-local, and uncoordinated decay, which draws from
#: per-node LazyRng streams), and
#: adaptive-adversary lanes on both kernel families (their views read
#: the bank's probability rows and transmitter masks).
SPECS = {
    "gkln-kernel": ScenarioSpec(
        graph=("ring", {"n": 12}),
        problem=("multi-message", {}),
        algorithm=("gkln-multi-message", {}),
        adversary=("ge-fade", {"p_fail": 0.3, "p_recover": 0.3}),
        mac=("simulated", {}),
        messages={"k": 3, "sources": "spread"},
        engine="bank",
    ),
    "decay-kernel": ScenarioSpec(
        graph=("line", {"n": 12, "extra_flaky_skips": 2}),
        problem=("global-broadcast", {"source": 0}),
        algorithm=("plain-decay", {}),
        adversary=("alternating", {"phase_lengths": [2, 3]}),
        engine="bank",
    ),
    "permuted-kernel": ScenarioSpec(
        graph=("funnel", {"n": 14}),
        problem=("global-broadcast", {"source": 0}),
        algorithm=("permuted-decay", {}),
        adversary=("cut-jammer", {"period": 4, "dense_rounds": 1, "side": "first-half"}),
        engine="bank",
    ),
    "decay-window-kernel": ScenarioSpec(
        graph=("line", {"n": 12, "extra_flaky_skips": 2}),
        problem=("global-broadcast", {"source": 0}),
        algorithm=("plain-decay", {"active_phases": 3}),
        adversary=("alternating", {"phase_lengths": [2, 3]}),
        engine="bank",
    ),
    "permuted-budget-kernel": ScenarioSpec(
        graph=("line", {"n": 12, "extra_flaky_skips": 2}),
        problem=("global-broadcast", {"source": 0}),
        algorithm=("permuted-decay", {"epochs_per_node": 1}),
        adversary=("cut-jammer", {"period": 4, "dense_rounds": 1, "side": "first-half"}),
        engine="bank",
    ),
    "generic-lane": ScenarioSpec(
        graph=("geographic", {"n": 24}),
        problem=("local-broadcast", {"fraction": 0.25}),
        algorithm=("geo-local", {}),
        adversary=("ge-fade", {"p_fail": 0.3, "p_recover": 0.3}),
        engine="bank",
    ),
    "lazy-node-rng": ScenarioSpec(
        graph=("grid", {"rows": 3, "cols": 4}),
        problem=("global-broadcast", {"source": 0}),
        algorithm=("uncoordinated-decay", {}),
        adversary=("bernoulli-edge", {"p_up": 0.6}),
        engine="bank",
    ),
    "adaptive-online-lane": ScenarioSpec(
        graph=("bracelet", {"band_length": 4}),
        problem=("global-broadcast", {"source": 0}),
        algorithm=("plain-decay", {}),
        adversary=(
            "online-dense-sparse",
            {"side": "A", "count_scope": "A", "threshold": 0.5},
        ),
        engine="bank",
    ),
    "adaptive-offline-lane": ScenarioSpec(
        graph=("geographic", {"n": 24, "grey_ratio": 2.0}),
        problem=("multi-message", {}),
        algorithm=("gkln-multi-message", {}),
        adversary=("offline-solo-blocker", {"side": "first-half"}),
        mac=("simulated", {}),
        messages={"k": 3, "sources": "spread"},
        engine="bank",
    ),
}

#: Which kernel class (by name) each spec's bank must select; ``None``
#: means no kernel serves it, so the bank routes to the reference
#: engine. Rotting expectations here would silently turn the kernel
#: rows above into reference-engine rows.
EXPECTED_KERNEL = {
    "gkln-kernel": "_GklnBankKernel",
    "decay-kernel": "_PlainDecayBankKernel",
    "permuted-kernel": "_PermutedDecayBankKernel",
    "decay-window-kernel": "_PlainDecayBankKernel",
    "permuted-budget-kernel": "_PermutedDecayBankKernel",
    "generic-lane": None,
    "lazy-node-rng": None,
    "adaptive-online-lane": "_PlainDecayBankKernel",
    "adaptive-offline-lane": "_GklnBankKernel",
}

MAX_ROUNDS = 600


def _seeds(count: int) -> list[int]:
    return [derive_seed(MASTER_SEED, "trial", index) for index in range(count)]


def _route(trials, seeds, skip=None):
    """The routing probe of a bank of these trials."""
    return resolve_engine_choice(
        "bank",
        [trial.algorithm for trial in trials],
        seeds,
        [trial.network for trial in trials],
        trials[0].link_process,
        skip=skip,
    )


def _bank_lanes(spec: ScenarioSpec, seeds):
    """Build the bank exactly the way :func:`run_bank_trials` does,
    keeping the engines accessible for stream inspection: one routing
    probe for the whole bank, then fast-engine lanes on one kernel built
    for the bank or, when no kernel serves the bank, reference engines
    over each trial's own processes."""
    trials = [spec.build(seed) for seed in seeds]
    _, skip, _, kernel_class, _ = _route(trials, seeds, skip=trials[0].skip)
    kernel = (
        build_bank_kernel(
            [trial.algorithm for trial in trials], seeds, [trial.network for trial in trials]
        )
        if kernel_class
        else None
    )
    lanes = []
    for lane_index, (trial, seed) in enumerate(zip(trials, seeds)):
        observer = trial.problem.make_observer()
        collector = TraceCollector()
        options = dict(
            seed=seed,
            algorithm_info=trial.algorithm.info(),
            validate_topologies=True,
            observers=[observer, collector],
            skip=skip,
        )
        if kernel:
            engine = BitsetRadioNetworkEngine(
                trial.network, trial.link_process, kernel=kernel, lane=lane_index, **options
            )
        else:
            processes = trial.algorithm.build_processes(
                trial.network.n, trial.network.max_degree, seed=seed
            )
            engine = RadioNetworkEngine(
                trial.network, processes, trial.link_process, **options
            )
        lanes.append(
            (BankLane(engine=engine, stop=(lambda obs=observer: obs.solved)), collector)
        )
    return trials, lanes


def _run_lanes(lanes):
    """Run the lanes the way :func:`run_bank_trials` does: one lockstep
    batch on a kernel, otherwise each lane on its own."""
    engines = [lane.engine for lane, _ in lanes]
    if all(type(engine) is BitsetRadioNetworkEngine for engine in engines):
        return run_bank_batch([lane for lane, _ in lanes], max_rounds=MAX_ROUNDS)
    assert all(type(engine) is RadioNetworkEngine for engine in engines)
    return [lane.engine.run(max_rounds=MAX_ROUNDS, stop=lane.stop) for lane, _ in lanes]


def _serial_engine(spec: ScenarioSpec, seed: int, engine_name: str):
    trial = spec.build(seed)
    observer = trial.problem.make_observer()
    collector = TraceCollector()
    engine = create_engine(
        trial.network,
        trial.algorithm,
        trial.link_process,
        engine=engine_name,
        seed=seed,
        algorithm_info=trial.algorithm.info(),
        validate_topologies=True,
        observers=[observer, collector],
    )
    result = engine.run(max_rounds=MAX_ROUNDS, stop=lambda: observer.solved)
    return engine, result, collector


class TestKernelSelection:
    """Each spec engages exactly the kernel it pins, or none."""

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_expected_kernel_engages(self, name):
        seeds = _seeds(2)
        _, _, _, kernel_class, _ = _route(
            [SPECS[name].build(seed) for seed in seeds], seeds
        )
        expected = EXPECTED_KERNEL[name]
        if expected is None:
            assert kernel_class is None
            return
        assert kernel_class.__name__ == expected
        _, lanes = _bank_lanes(SPECS[name], _seeds(2))
        for lane, _ in lanes:
            assert type(lane.engine._kernel).__name__ == expected


class TestPerTrialStreamIdentity:
    """The batch consumes each trial's coin stream exactly like serial."""

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_stream_positions_match_serial(self, name):
        """After the run, each lane's coin generator must sit at the
        *same stream position* as its serial counterpart: the next 8
        uniforms agree. Trace equality alone wouldn't catch a lane that
        drew extra coins after its trial solved."""
        spec = SPECS[name]
        seeds = _seeds(5)
        _, lanes = _bank_lanes(spec, seeds)
        results = _run_lanes(lanes)
        for (lane, collector), seed, result in zip(lanes, seeds, results):
            serial_engine, serial_result, serial_collector = _serial_engine(
                spec, seed, "reference"
            )
            assert result == serial_result
            assert collector.records == serial_collector.records
            lane_next = lane.engine._coin_rng.random(8)
            serial_next = serial_engine._coin_rng.random(8)
            assert np.array_equal(lane_next, serial_next)

    def test_coin_rows_equal_fresh_stream(self):
        """The per-lane ``random(out=row)`` draws are bit-identical to
        ``rng.random(n)`` on a fresh generator with the same labels —
        the exact identity the scheduler's batching relies on."""
        seed = _seeds(1)[0]
        n = 12
        engine_stream = rng_mod.spawn_numpy_rng(seed, "engine", "coins")
        fresh_stream = rng_mod.spawn_numpy_rng(seed, "engine", "coins")
        row = np.empty(n, dtype=np.float64)
        for _ in range(50):
            engine_stream.random(out=row)
            assert np.array_equal(row, fresh_stream.random(n))


class TestNoCrossTrialLeakage:
    """A trial's execution is independent of its bank-mates."""

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_bank_composition_is_invisible(self, name):
        """Trial X must produce the same trace alone, in a small bank,
        and in a larger bank — even though bank-mates retire at
        different rounds (retired lanes stop drawing; live lanes must
        not absorb their draws)."""
        spec = SPECS[name]
        seeds = _seeds(6)
        target = seeds[2]
        alone = run_bank_trials(spec.build, [target])
        small = run_bank_trials(spec.build, seeds[1:4])
        full = run_bank_trials(spec.build, seeds)
        assert alone[0] == small[1] == full[2]
        serial = run_prepared_trial(spec.build(target), target)
        assert alone[0] == serial

    def test_reordering_seeds_reorders_nothing_else(self):
        """Permuting the seed bank permutes the results and nothing
        else — draw order within each trial is unaffected."""
        spec = SPECS["gkln-kernel"]
        seeds = _seeds(4)
        forward = run_bank_trials(spec.build, seeds)
        backward = run_bank_trials(spec.build, list(reversed(seeds)))
        assert forward == list(reversed(backward))


class TestLazyRngPath:
    """Per-node LazyRng streams under the bank scheduler."""

    def test_lazy_rng_seeds_on_first_draw_only(self):
        lazy = LazyRng(MASTER_SEED, ("node", 7))
        assert lazy._rng is None
        first = lazy.random()
        assert lazy._rng is not None
        import random as _random

        eager = _random.Random(derive_seed(MASTER_SEED, "node", 7))
        assert first == eager.random()

    def test_kernel_lanes_never_touch_node_streams(self, monkeypatch):
        """The MAC kernels replace the per-node state machines: kernel
        lanes build no processes, so no per-node stream exists to be
        seeded or consumed."""
        from repro.algorithms.base import AlgorithmSpec

        def refuse(self, *args, **kwargs):
            raise AssertionError("a kernel lane built per-node processes")

        monkeypatch.setattr(AlgorithmSpec, "build_processes", refuse)
        spec = SPECS["gkln-kernel"]
        seeds = _seeds(3)
        _, lanes = _bank_lanes(spec, seeds)
        assert all(lane.engine._kernel is not None for lane, _ in lanes)
        _run_lanes(lanes)
        for lane, _ in lanes:
            assert lane.engine.processes == ()

    def test_lazy_node_streams_match_serial(self):
        """No kernel serves uncoordinated decay, so its bank runs each
        trial on the reference engine over its own processes. Those
        processes draw from their LazyRng, and every node stream must
        land on the same position as a serial run."""
        spec = SPECS["lazy-node-rng"]
        seeds = _seeds(4)
        _, lanes = _bank_lanes(spec, seeds)
        results = _run_lanes(lanes)
        for (lane, collector), seed, result in zip(lanes, seeds, results):
            assert type(lane.engine) is RadioNetworkEngine
            serial_engine, serial_result, serial_collector = _serial_engine(
                spec, seed, "reference"
            )
            assert result == serial_result
            assert collector.records == serial_collector.records
            seeded_count = 0
            for bank_process, serial_process in zip(
                lane.engine.processes, serial_engine.processes
            ):
                bank_rng = bank_process.ctx.rng
                serial_rng = serial_process.ctx.rng
                assert isinstance(bank_rng, LazyRng)
                assert isinstance(serial_rng, LazyRng)
                seeded = bank_rng._rng is not None
                assert seeded == (serial_rng._rng is not None)
                if seeded:
                    seeded_count += 1
                    assert [bank_rng.random() for _ in range(4)] == [
                        serial_rng.random() for _ in range(4)
                    ]
            # The workload was chosen because it *does* draw from the
            # node streams — a zero count would make this test vacuous.
            assert seeded_count > 0
