"""Executor tests: serial/parallel equivalence and integration.

The determinism acceptance bar: ``ParallelExecutor`` produces
seed-for-seed identical ``TrialStats`` to ``SerialExecutor`` on a fixed
scenario — executors change *where* trials run, never their results.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.algorithms.base import AlgorithmSpec
from repro.analysis.runner import run_broadcast_trials, run_prepared_trial
from repro.analysis.sweep import run_sweep
from repro.api import (
    ParallelExecutor,
    ScenarioSpec,
    SerialExecutor,
    Simulation,
    sweep,
)
from repro.core.bankpath import bank_kernel_class
from repro.core.errors import SpecError


def fixed_spec(n: int = 24) -> ScenarioSpec:
    return ScenarioSpec(
        name="executor-test",
        graph=("dual-clique", {"half": n // 2}),
        problem=("global-broadcast", {"source": 0}),
        algorithm=("permuted-decay", {}),
        adversary=("online-dense-sparse", {"side": "A"}),
        max_rounds=48 * n + 4096,
    )


class TestSerialExecutor:
    def test_matches_inline_loop(self):
        spec = fixed_spec()
        inline = run_broadcast_trials(spec, trials=4, master_seed=7)
        executed = run_broadcast_trials(
            spec, trials=4, master_seed=7, executor=SerialExecutor()
        )
        assert inline.results == executed.results

    def test_empty_batch(self):
        assert SerialExecutor().run_trials(fixed_spec(), []) == []


#: One spec per route of the trial path: the oracle MAC, the reference
#: engine, a kernel-served bank, and a bank that no kernel serves.
ROUTE_SPECS = {
    "oracle": ScenarioSpec(
        graph=("geographic", {"n": 24, "grey_ratio": 2.0}),
        problem=("multi-message", {}),
        algorithm=("gkln-multi-message", {}),
        adversary=("none", {}),
        mac=("oracle", {}),
        messages={"k": 2, "sources": "spread"},
        engine="bank",
    ),
    "reference": fixed_spec(16),
    "kernel-bank": fixed_spec(16).with_param("engine", "bank"),
    "kernel-less-bank": ScenarioSpec(
        graph=("geographic", {"n": 24}),
        problem=("local-broadcast", {"fraction": 0.25}),
        algorithm=("geo-local", {}),
        adversary=("ge-fade", {"p_fail": 0.3, "p_recover": 0.3}),
        engine="bank",
    ),
}


def _kernel_class(trial):
    return bank_kernel_class([trial.algorithm], [trial.network])


class TestOneTrialPath:
    """A trial is a bank of one seed: every executor and
    ``run_prepared_trial`` take the same route for the same spec."""

    def test_route_specs_take_their_routes(self):
        trials = {name: spec.build(1) for name, spec in ROUTE_SPECS.items()}
        assert [name for name, trial in trials.items() if trial.oracle] == ["oracle"]
        assert _kernel_class(trials["kernel-bank"]) is not None
        assert _kernel_class(trials["kernel-less-bank"]) is None

    @pytest.mark.parametrize("name", sorted(ROUTE_SPECS))
    def test_batch_equals_one_seed_trials(self, name):
        spec = ROUTE_SPECS[name]
        seeds = [3, 4, 5]
        single = [run_prepared_trial(spec.build(seed), seed) for seed in seeds]
        assert SerialExecutor().run_trials(spec.build, seeds) == single

    @pytest.mark.parametrize("skip", [None, True])
    @pytest.mark.parametrize("name", ["reference", "kernel-less-bank"])
    def test_reference_batch_holds_one_trials_processes(self, name, skip, monkeypatch):
        """Each reference lane's processes are built just before it runs
        and released before the next lane's are built (also the lead's,
        which a forced skip builds while routing)."""
        alive = [0]
        peak = [0]
        original = AlgorithmSpec.build_processes

        def release():
            alive[0] -= 1

        def counted(self, *args, **kwargs):
            processes = original(self, *args, **kwargs)
            gc.collect()  # count only trials something still refers to
            alive[0] += 1
            peak[0] = max(peak[0], alive[0])
            weakref.finalize(processes[0], release)
            return processes

        monkeypatch.setattr(AlgorithmSpec, "build_processes", counted)
        spec = ROUTE_SPECS[name].with_param("skip", skip)
        SerialExecutor(warn_fallback=False).run_trials(spec.build, [3, 4, 5, 6])
        gc.collect()
        assert peak[0] == 1
        assert alive[0] == 0


class TestParallelExecutor:
    def test_identical_stats_to_serial(self):
        spec = fixed_spec()
        serial = run_broadcast_trials(
            spec, trials=6, master_seed=2013, executor=SerialExecutor()
        )
        parallel = run_broadcast_trials(
            spec,
            trials=6,
            master_seed=2013,
            executor=ParallelExecutor(max_workers=2),
        )
        assert serial.results == parallel.results
        assert serial.median_rounds == parallel.median_rounds
        assert serial.success_rate == parallel.success_rate

    def test_chunked_batches_preserve_order(self):
        spec = fixed_spec(16)
        serial = SerialExecutor().run_trials(spec, list(range(5)))
        parallel = ParallelExecutor(max_workers=2, chunksize=2).run_trials(
            spec, list(range(5))
        )
        assert serial == parallel

    def test_rejects_unpicklable_scenario(self):
        half = 8

        def closure_scenario(seed):  # pragma: no cover - never called
            return fixed_spec(2 * half).build(seed)

        with pytest.raises(SpecError, match="picklable"):
            ParallelExecutor(max_workers=2).run_trials(closure_scenario, [1, 2])

    def test_empty_batch_skips_pool(self):
        assert ParallelExecutor().run_trials(fixed_spec(), []) == []

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            ParallelExecutor(max_workers=0)
        with pytest.raises(ValueError):
            ParallelExecutor(chunksize=0)


class TestSweepIntegration:
    def test_run_sweep_executor_equivalence(self):
        result_serial = run_sweep(
            "exec-sweep",
            [16, 24],
            lambda n: fixed_spec(n),
            trials=3,
            master_seed=5,
        )
        result_parallel = run_sweep(
            "exec-sweep",
            [16, 24],
            lambda n: fixed_spec(n),
            trials=3,
            master_seed=5,
            executor=ParallelExecutor(max_workers=2),
        )
        for a, b in zip(result_serial.points, result_parallel.points):
            assert a.stats.results == b.stats.results

    def test_facade_sweep_derives_specs(self):
        result = sweep(
            fixed_spec(16),
            "graph.half",
            [8, 12],
            trials=2,
            master_seed=5,
        )
        assert result.parameters() == [8, 12]
        assert all(p.stats.trials == 2 for p in result.points)

    def test_experiment_run_accepts_executor(self):
        from repro.experiments import ALL_EXPERIMENTS

        exp = ALL_EXPERIMENTS["E1b"]
        serial = exp.run(scale="tiny", master_seed=3)
        parallel = exp.run(
            scale="tiny", master_seed=3, executor=ParallelExecutor(max_workers=2)
        )
        for a, b in zip(serial.series_results, parallel.series_results):
            assert a.sweep.medians() == b.sweep.medians()


class TestSimulationFacade:
    def test_from_spec_accepts_dict_and_json(self):
        spec = fixed_spec()
        assert Simulation.from_spec(spec.to_dict()).spec == spec
        assert Simulation.from_spec(spec.to_json()).spec == spec

    def test_run_trial_matches_batch(self):
        sim = Simulation.from_spec(fixed_spec())
        stats = sim.run(trials=2, master_seed=9)
        # The batch derives seeds; a direct trial on one of them agrees.
        redo = sim.run_trial(stats.results[0].seed)
        assert redo == stats.results[0]

    def test_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(fixed_spec().to_json(), encoding="utf-8")
        sim = Simulation.from_file(path)
        assert sim.spec == fixed_spec()
        result = sim.run_trial(seed=4)
        assert result.rounds > 0
