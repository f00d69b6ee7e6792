"""Multi-message broadcast: problem, protocols, determinism, CLI.

The acceptance surface of the ``repro.mac`` vertical slice:

* the problem observer tracks the full ``n × k`` knowledge relation
  and per-message completion rounds;
* both MAC-level protocols actually solve the problem on the engines;
* determinism — seed-for-seed identical results under
  ``SerialExecutor`` vs ``ParallelExecutor`` and ``reference`` vs
  ``bitset`` (adaptive adversaries included; a process lacking the skip
  contract runs with skipping off and the documented fallback warning);
* the CLI's ``run-spec`` reports per-message completion rounds;
* the ``M1``–``M3`` experiments are registered and campaign-valid.
"""

from __future__ import annotations

import dataclasses
import json
import warnings

import pytest

from repro.api import (
    ParallelExecutor,
    ScenarioSpec,
    SerialExecutor,
    Simulation,
    run_spec,
)
from repro.algorithms.multi_message import GklnMultiMessageProcess
from repro.analysis.runner import run_prepared_trial
from repro.core.errors import EngineFallbackWarning
from repro.core.process import Process
from repro.core.knowledge import KnowledgeVector
from repro.core.messages import Message, MessageKind
from repro.core.trace import Delivery, RoundRecord
from repro.graphs.builders import line_dual
from repro.mac import MessageAssignment, multi_message_detail
from repro.problems.multi_message import MultiMessageObserver, MultiMessageProblem


class _GklnWithoutSkipContract(GklnMultiMessageProcess):
    """Stand-in for a third-party process: the base ``next_state_change``."""

    next_state_change = Process.next_state_change


def mm_spec(algorithm="gkln-multi-message", adversary=("none", {}), **overrides):
    base = dict(
        graph=("geographic", {"n": 32, "grey_ratio": 2.0}),
        problem=("multi-message", {}),
        algorithm=(algorithm, {}),
        adversary=adversary,
        mac=("simulated", {}),
        messages={"k": 3, "sources": "random"},
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def _delivery(receiver: int, sender: int, index: int) -> Delivery:
    message = Message(
        MessageKind.DATA, origin=sender, payload=("mm", index), tag=index
    )
    return Delivery(receiver=receiver, sender=sender, message=message)


def _record(round_index: int, *deliveries: Delivery) -> RoundRecord:
    return RoundRecord(
        round_index=round_index,
        transmitter_mask=0,
        deliveries=tuple(deliveries),
        expected_transmitters=0.0,
    )


class TestKnowledgeVector:
    def test_add_and_completion_tracking(self):
        kv = KnowledgeVector(3, 2)
        assert kv.add(0, 0) and not kv.add(0, 0)
        assert kv.holders(0) == 1
        for node in (1, 2):
            kv.add(node, 0)
        assert kv.message_complete(0) and not kv.complete
        for node in range(3):
            kv.add(node, 1)
        assert kv.complete
        assert kv.progress() == 1.0
        assert kv.first_incomplete() is None

    def test_known_indices_and_missing_nodes(self):
        kv = KnowledgeVector(2, 3)
        kv.add(0, 2)
        assert list(kv.known_indices(0)) == [2]
        assert kv.missing_nodes(2) == [1]
        assert kv.first_incomplete() == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            KnowledgeVector(0, 1)


class TestObserver:
    def test_sources_start_informed_and_deliveries_accumulate(self):
        network = line_dual(4)
        assignment = MessageAssignment(k=2, sources=(0, 3))
        observer = MultiMessageProblem(network, assignment).make_observer()
        assert not observer.solved
        assert observer.knowledge.knows(0, 0) and observer.knowledge.knows(3, 1)

        observer.on_round(_record(0, _delivery(1, 0, 0), _delivery(2, 3, 1)))
        observer.on_round(_record(1, _delivery(2, 1, 0), _delivery(1, 2, 1)))
        observer.on_round(_record(2, _delivery(3, 2, 0), _delivery(0, 1, 1)))
        assert observer.solved
        assert observer.message_complete_round == [2, 2]
        assert observer.complete_round == 2

    def test_foreign_payloads_and_duplicates_ignored(self):
        network = line_dual(3)
        assignment = MessageAssignment(k=1, sources=(0,))
        observer = MultiMessageProblem(network, assignment).make_observer()
        foreign = Delivery(
            receiver=1,
            sender=0,
            message=Message(MessageKind.DATA, origin=0, payload="other"),
        )
        seed = Delivery(
            receiver=1,
            sender=0,
            message=Message(MessageKind.SEED, origin=0, payload=("mm", 0)),
        )
        observer.on_round(_record(0, foreign, seed))
        assert observer.knowledge.holders(0) == 1  # only the source
        observer.on_round(_record(1, _delivery(1, 0, 0), _delivery(1, 0, 0)))
        assert observer.knowledge.holders(0) == 2

    def test_two_node_exchange_completes_in_one_round(self):
        network = line_dual(2)
        assignment = MessageAssignment(k=2, sources=(0, 1))
        observer = MultiMessageProblem(network, assignment).make_observer()
        assert observer.message_complete_round == [None, None]
        observer.on_round(_record(0, _delivery(1, 0, 0), _delivery(0, 1, 1)))
        assert observer.solved and observer.complete_round == 0

    def test_problem_validates_sources(self):
        with pytest.raises(ValueError, match="outside"):
            MultiMessageProblem(line_dual(3), MessageAssignment(k=1, sources=(7,)))


class TestProtocolsSolve:
    @pytest.mark.parametrize(
        "algorithm", ["gkln-multi-message", "backoff-multi-message"]
    )
    @pytest.mark.parametrize("seed", [1, 2013])
    def test_solves_under_fading(self, algorithm, seed):
        spec = mm_spec(
            algorithm=algorithm,
            adversary=("ge-fade", {"p_fail": 0.3, "p_recover": 0.3}),
        )
        result = Simulation.from_spec(spec).run_trial(seed)
        assert result.solved

    def test_per_message_detail_consistent_with_totals(self):
        detail = multi_message_detail(mm_spec(), 2013)
        assert detail.solved
        assert len(detail.message_rounds) == 3
        assert max(detail.message_rounds) == detail.rounds - 1

    def test_single_message_degenerates_to_broadcast(self):
        spec = mm_spec(messages={"k": 1, "sources": [0]})
        result = Simulation.from_spec(spec).run_trial(7)
        assert result.solved


class TestDeterminism:
    """Seed-for-seed identity across executors and engines."""

    @pytest.mark.parametrize("mac", [("simulated", {}), ("oracle", {})])
    def test_serial_vs_parallel_identical(self, mac):
        spec = mm_spec(mac=mac)
        serial = run_spec(spec, trials=6, master_seed=41, executor=SerialExecutor())
        with ParallelExecutor(max_workers=2) as executor:
            parallel = run_spec(spec, trials=6, master_seed=41, executor=executor)
        assert serial.results == parallel.results

    @pytest.mark.parametrize(
        "algorithm", ["gkln-multi-message", "backoff-multi-message"]
    )
    def test_reference_vs_bitset_identical(self, algorithm):
        spec = mm_spec(
            algorithm=algorithm,
            adversary=("ge-fade", {"p_fail": 0.3, "p_recover": 0.3}),
        )
        reference = Simulation.from_spec(spec).run_trial(2013)
        bitset = Simulation.from_spec(spec, engine="bitset").run_trial(2013)
        assert reference == bitset

    @pytest.mark.parametrize("engine", ["bitset", "bank"])
    def test_fast_engines_serve_offline_adversary(self, engine):
        spec = mm_spec(
            adversary=("offline-solo-blocker", {"side": "first-half"})
        )
        reference = Simulation.from_spec(spec).run_trial(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", EngineFallbackWarning)
            fast = Simulation.from_spec(spec, engine=engine).run_trial(3)
        assert reference == fast

    def test_bitset_falls_back_for_process_without_skip_contract(self):
        reference = run_prepared_trial(mm_spec().build(3), 3)
        # No kernel serves the gap class, so the request runs on the
        # reference engine: skip is forced on to reach the contract check.
        spec = mm_spec().with_param("engine", "bitset").with_param("skip", True)
        trial = spec.build(3)
        factory = trial.algorithm.factory

        def without_contract(ctx):
            process = factory(ctx)
            process.__class__ = _GklnWithoutSkipContract
            return process

        trial.algorithm = dataclasses.replace(trial.algorithm, factory=without_contract)
        with pytest.warns(EngineFallbackWarning, match="lacks the skip contract"):
            bitset = run_prepared_trial(trial, 3)
        assert reference == bitset


class TestCli:
    def test_run_spec_reports_per_message_rounds(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "mm.json"
        path.write_text(mm_spec().to_json(), encoding="utf-8")
        status = main(["run-spec", str(path), "--trials", "2", "--seed", "2013"])
        out = capsys.readouterr().out
        assert status == 0
        assert "per-message completion" in out
        assert "completed round" in out

    def test_components_json_lists_the_new_registry_sections(self, capsys):
        from repro.cli import main

        assert main(["components", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["macs"] == ["oracle", "simulated"]
        assert "multi-message" in payload["problems"]
        assert {"gkln-multi-message", "backoff-multi-message"} <= set(
            payload["algorithms"]
        )
        assert {"M1", "M2", "M3"} <= set(payload["experiments"])

    def test_run_spec_with_unused_messages_section_does_not_crash(
        self, tmp_path, capsys
    ):
        """A messages section on a non-multi-message problem is noted,
        not a traceback (the trials themselves run fine)."""
        from repro.cli import main

        spec = ScenarioSpec(
            graph=("funnel", {"n": 16}),
            problem=("global-broadcast", {"source": 0}),
            algorithm=("plain-decay", {}),
            adversary=("none", {}),
            messages={"k": 2, "sources": "spread"},
        )
        path = tmp_path / "odd.json"
        path.write_text(spec.to_json(), encoding="utf-8")
        status = main(["run-spec", str(path), "--trials", "1"])
        captured = capsys.readouterr()
        assert status == 0
        assert "no per-message detail" in captured.err
        assert "per-message completion" not in captured.out

    def test_components_plain_mentions_macs(self, capsys):
        from repro.cli import main

        assert main(["components"]) == 0
        out = capsys.readouterr().out
        assert "macs:" in out and "simulated" in out


class TestExperiments:
    def test_registered_with_all_scales(self):
        from repro.experiments import ALL_EXPERIMENTS

        for exp_id in ("M1", "M2", "M3"):
            experiment = ALL_EXPERIMENTS[exp_id]
            assert set(experiment.scales) == {"tiny", "small", "full"}

    def test_campaign_spec_accepts_m_experiments(self):
        from repro.campaign import CampaignSpec

        spec = CampaignSpec(
            name="mac-smoke",
            experiments=("M1", "M3"),
            scales=("tiny",),
            engines=("reference", "bitset"),
        )
        spec.validate()
        assert len(spec.shards()) == 4

    def test_m3_series_split_between_mac_modes(self):
        from repro.experiments import ALL_EXPERIMENTS

        experiment = ALL_EXPERIMENTS["M3"]
        macs = {
            series.scenario_for(32).mac.name for series in experiment.series
        }
        assert macs == {"simulated", "oracle"}
