"""Observability layer tests: zero overhead off, zero perturbation on.

The three contracts docs/architecture.md promises for :mod:`repro.obs`:

* **off means off** — with no recorder installed, runs emit zero trace
  records, and an enable/disable cycle leaves no phase timer armed (the
  engines make zero ``perf_counter_ns`` calls before and after it);
* **on never perturbs semantics** — a traced run produces byte-identical
  results, an identical coin-RNG bit-generator state, and the same next
  uniforms as an untraced run, for every engine; campaign aggregates
  stay byte-identical with tracing enabled (obs data rides ``meta``);
* **the surfaces work** — the recorder/histogram/prometheus/report
  units round-trip, trial records carry the documented schema, and the
  campaign runner stamps ``meta.obs`` without touching ``aggregate``.
"""

from __future__ import annotations

import json

import pytest

from repro.api.spec import ScenarioSpec
from repro.core.engine import ENGINE_NAMES, create_engine
from repro.core.trace import TraceCollector
from repro.obs import (
    PHASES,
    Histogram,
    MetricsRegistry,
    Recorder,
    parse_prometheus,
    profile_text,
    profiled,
    read_trace,
    render_phase_table,
    render_prometheus,
    summarize,
)
from repro.obs import recorder as _recorder_fn
from repro.obs.recorder import disable, enable, enabled


@pytest.fixture(autouse=True)
def _recorder_hygiene():
    """No test may leak an enabled recorder into the next."""
    disable()
    yield
    disable()


# ----------------------------------------------------------------------
# Units: Histogram / Recorder
# ----------------------------------------------------------------------
class TestHistogram:
    def test_observe_buckets_count_and_extremes(self):
        h = Histogram(bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 3.0, 100.0):
            h.observe(value)
        assert h.count == 4
        assert h.total == 104.5
        assert h.min == 0.5 and h.max == 100.0
        # le-inclusive: 0.5 and 1.0 in the first bucket, 3.0 in le=4,
        # 100.0 in +Inf.
        assert h.buckets == [2, 0, 1, 1]

    def test_cumulative_ends_at_inf_total(self):
        h = Histogram(bounds=(1.0, 2.0))
        h.observe(0.5)
        h.observe(5.0)
        cumulative = h.cumulative()
        assert cumulative[-1] == (float("inf"), 2)
        assert [count for _, count in cumulative] == sorted(
            count for _, count in cumulative
        )

    def test_to_dict_drops_empty_buckets(self):
        h = Histogram(bounds=(1.0, 2.0, 4.0))
        h.observe(3.0)
        assert h.to_dict()["buckets"] == [[4.0, 1]]


class TestRecorder:
    def test_counters_and_checkpoint_delta(self):
        rec = Recorder()
        rec.inc("a")
        mark = rec.checkpoint()
        rec.inc("a", 2)
        rec.inc("b", 5)
        rec.merge_counters({"b": 1, "c": 0.5})
        delta = rec.delta(mark)
        assert delta == {"a": 2, "b": 6, "c": 0.5}
        assert rec.delta(rec.checkpoint()) == {}

    def test_emit_writes_jsonl_when_sinked(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        rec = Recorder(str(path))
        rec.emit({"kind": "trial", "engine": "reference"})
        rec.emit({"kind": "shard", "shard_id": "x"})
        rec.close()
        assert rec.records_emitted == 2
        lines = path.read_text().splitlines()
        assert [json.loads(line)["kind"] for line in lines] == ["trial", "shard"]

    def test_sinkless_recorder_counts_emissions(self):
        rec = Recorder()
        rec.emit({"kind": "trial"})
        assert rec.records_emitted == 1

    def test_module_slot_enable_disable(self, tmp_path):
        assert _recorder_fn() is None and not enabled()
        rec = enable(str(tmp_path / "t.jsonl"))
        assert _recorder_fn() is rec and enabled()
        assert disable() is rec
        assert _recorder_fn() is None

    def test_module_helpers_are_noops_when_disabled(self):
        from repro.obs.recorder import inc, observe

        inc("never.counted")
        observe("never.observed", 1.0)
        rec = enable()
        inc("counted", 3)
        observe("observed", 2.0)
        assert rec.counters == {"counted": 3}
        assert rec.histograms["observed"].count == 1


# ----------------------------------------------------------------------
# Units: Prometheus registry + exposition
# ----------------------------------------------------------------------
class TestPrometheus:
    def test_render_parse_round_trip(self):
        registry = MetricsRegistry()
        registry.describe("jobs_total", "jobs seen")
        registry.inc("jobs_total", 3)
        registry.observe_seconds("task_seconds", 0.002)
        registry.observe_seconds("task_seconds", 70.0)
        registry.gauge("workers_alive", lambda: 2)
        text = render_prometheus(registry)
        assert text.endswith("\n")
        assert "# HELP jobs_total jobs seen" in text
        assert "# TYPE task_seconds histogram" in text
        samples = parse_prometheus(text)
        assert samples["jobs_total"] == 3
        assert samples["workers_alive"] == 2
        assert samples["task_seconds_count"] == 2
        assert samples['task_seconds_bucket{le="+Inf"}'] == 2
        # Cumulative buckets: le=0.005 already holds the 2ms observation.
        assert samples['task_seconds_bucket{le="0.005"}'] == 1

    def test_failing_gauge_does_not_break_the_scrape(self):
        registry = MetricsRegistry()
        registry.inc("ok_total")

        def boom() -> float:
            raise RuntimeError("sampling failed")

        registry.gauge("broken_gauge", boom)
        samples = parse_prometheus(render_prometheus(registry))
        assert samples["ok_total"] == 1
        assert "broken_gauge" not in samples


# ----------------------------------------------------------------------
# Units: report + profile
# ----------------------------------------------------------------------
class TestReport:
    def test_summarize_and_render(self):
        records = [
            {
                "kind": "trial",
                "engine": "bitset",
                "seed": 1,
                "n": 24,
                "rounds": 100,
                "solved": True,
                "phases": {"plan": 3_000_000, "reception": 1_000_000},
                "counters": {"rounds.executed": 100},
            },
            {"kind": "shard", "shard_id": "x", "seconds": 0.5, "phases": {}},
        ]
        summary = summarize(records)
        assert summary["bitset"]["trials"] == 1
        table = render_phase_table(summary)
        assert "bitset" in table and "plan" in table and "(total)" in table

    def test_read_trace_rejects_garbage_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "trial"}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_trace(str(path))

    def test_empty_summary_renders_placeholder(self):
        assert "no trial records" in render_phase_table(summarize([]))


class TestProfile:
    def test_profiled_text_names_the_hotspot(self):
        with profiled() as profiler:
            sum(range(10_000))
        text = profile_text(profiler, limit=5)
        assert "function calls" in text


# ----------------------------------------------------------------------
# Determinism: tracing never perturbs engine semantics
# ----------------------------------------------------------------------
_SPEC = dict(
    graph=("line-of-cliques", {"num_cliques": 3, "clique_size": 4}),
    problem=("global-broadcast", {"source": 0}),
    algorithm=("plain-decay", {}),
    adversary=("ge-fade", {"p_fail": 0.3, "p_recover": 0.4}),
)
_MAX_ROUNDS = 400


def _run_probed(engine: str, seed: int):
    """One engine run returning (trace bytes, rng state, next draws)."""
    spec = ScenarioSpec(**_SPEC)
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
        observers=[observer, collector],
    )
    result = eng.run(max_rounds=_MAX_ROUNDS, stop=lambda: observer.solved)
    state = eng._coin_rng.bit_generator.state
    draws = eng._coin_rng.random(8).tolist()
    return repr((result, collector.records)).encode(), state, draws


class TestTracingDeterminism:
    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_traced_run_matches_untraced_byte_for_byte(self, engine, tmp_path):
        base = _run_probed(engine, seed=2013)
        enable(str(tmp_path / "trace.jsonl"))
        try:
            traced = _run_probed(engine, seed=2013)
        finally:
            rec = disable()
        assert traced[0] == base[0]  # result + observer records
        assert traced[1] == base[1]  # coin RNG bit-generator state
        assert traced[2] == base[2]  # next uniforms from that state
        assert rec.records_emitted >= 1, "traced run must emit a trial record"

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_trial_record_schema(self, engine, tmp_path):
        path = tmp_path / "trace.jsonl"
        enable(str(path))
        try:
            _run_probed(engine, seed=7)
        finally:
            disable()
        records = [r for r in read_trace(str(path)) if r["kind"] == "trial"]
        assert records, "one trial record per engine run"
        record = records[-1]
        # Records name the implementation that ran: "bitset" is an
        # alias of "bank".
        assert record["engine"] == ("bank" if engine == "bitset" else engine)
        assert {"seed", "n", "rounds", "solved", "phases", "counters"} <= set(record)
        assert set(record["phases"]) <= set(PHASES)
        assert sum(record["phases"].values()) > 0
        if record["engine"] == "bank":
            # Under the word-rule cap every round with a transmitter,
            # on each fresh GE-fade topology, resolves by the word rule.
            assert record["counters"]["reception.words"] > 0
            assert "reception.scan" not in record["counters"]

    def test_disabled_run_emits_nothing(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        enable(str(path))
        disable()  # cycle: instrumented code runs with the slot empty
        _run_probed("bitset", seed=7)
        assert path.read_text() == ""

    def test_campaign_aggregates_unchanged_and_meta_stamped(self, tmp_path):
        from repro.campaign.runner import CampaignRunner
        from repro.campaign.spec import CampaignSpec
        from repro.campaign.store import ResultStore

        spec = CampaignSpec(
            name="obs-test",
            experiments=("E1b",),
            scales=("tiny",),
            engines=("bitset",),
            seeds=(2013,),
        )
        plain_store = ResultStore(tmp_path / "plain", bench_dir="")
        CampaignRunner(spec, plain_store).run()
        traced_store = ResultStore(tmp_path / "traced", bench_dir="")
        enable(str(tmp_path / "campaign.jsonl"))
        try:
            CampaignRunner(spec, traced_store).run()
        finally:
            disable()
        assert traced_store.aggregates_json() == plain_store.aggregates_json()
        record = traced_store.shard_records("obs-test")[0]
        assert "obs" in record["meta"], "traced shard must carry meta.obs"
        assert any(k.startswith("phase.") for k in record["meta"]["obs"])
        shard_events = [
            r
            for r in read_trace(str(tmp_path / "campaign.jsonl"))
            if r["kind"] == "shard"
        ]
        assert shard_events and shard_events[0]["shard_id"] == record["shard_id"]
        # The untraced shard carries no obs key at all.
        assert "obs" not in plain_store.shard_records("obs-test")[0]["meta"]


class TestMacHistograms:
    def test_window_draws_feed_histograms(self):
        from repro.mac.simulated import SimulatedMACLayer

        layer = SimulatedMACLayer()
        rec = enable()
        layer.f_ack(64, 8)
        layer.f_prog(64, 8)
        assert rec.histograms["mac.f_ack_window"].count == 1
        assert rec.histograms["mac.f_prog_window"].count == 1


# ----------------------------------------------------------------------
# Overhead guard: the disabled path after an enable/disable cycle
# ----------------------------------------------------------------------
def test_disable_cycle_leaves_no_timer_armed(monkeypatch):
    """E1b/tiny/bank: an enable/disable cycle leaves nothing armed.

    Every phase span in the round loops is a ``perf_counter_ns`` call
    behind the recorder check, so counting the calls made through the
    engine modules pins the disabled path deterministically: none
    before the cycle, some while tracing, none again after
    ``disable()``.
    """
    import repro.core.bankpath as bankpath
    import repro.core.engine as engine_module
    import repro.core.fastpath as fastpath
    from repro.experiments import ALL_EXPERIMENTS

    calls = [0]
    for module in (engine_module, fastpath, bankpath):

        def counting(original=module.perf_counter_ns):
            calls[0] += 1
            return original()

        monkeypatch.setattr(module, "perf_counter_ns", counting)

    def calls_in_run() -> int:
        before = calls[0]
        ALL_EXPERIMENTS["E1b"].run(scale="tiny", master_seed=2013, engine="bank")
        return calls[0] - before

    assert calls_in_run() == 0
    rec = enable()
    try:
        traced = calls_in_run()
    finally:
        disable()
    assert rec.records_emitted >= 1 or rec.counters, "tracing never engaged"
    assert traced > 0
    assert calls_in_run() == 0
