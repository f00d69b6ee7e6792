"""Tests for the radio engine: the Section 2 execution semantics."""

from __future__ import annotations

import pytest

from repro.adversaries.base import (
    AdversaryClass,
    LinkProcess,
    ObliviousView,
    OfflineAdaptiveView,
    OnlineAdaptiveView,
    RoundTopology,
)
from repro.api.spec import ScenarioSpec
from repro.core.engine import ExecutionResult, RadioNetworkEngine, create_engine
from repro.core.errors import PlanError, TopologyViolationError
from repro.core.fastpath import BitsetRadioNetworkEngine
from repro.core.trace import TraceCollector
from repro.graphs.builders import clique_dual, line_dual
from tests.conftest import ReliableOnlyLinks, scripted_processes


def run_engine(network, scripts, *, rounds, link_process=None, seed=1):
    processes = scripted_processes(network, scripts)
    collector = TraceCollector()
    engine = RadioNetworkEngine(
        network,
        processes,
        link_process or ReliableOnlyLinks(),
        seed=seed,
        observers=[collector],
    )
    engine.run(max_rounds=rounds)
    return processes, collector


class TestReceptionRules:
    def test_solo_transmitter_delivers_to_neighbors(self):
        net = line_dual(4)
        procs, trace = run_engine(net, {1: {0: 1.0}}, rounds=1)
        deliveries = trace.records[0].deliveries
        receivers = {d.receiver for d in deliveries}
        assert receivers == {0, 2}
        assert all(d.sender == 1 for d in deliveries)

    def test_two_neighboring_transmitters_collide(self):
        # Nodes 0 and 2 both transmit: node 1 hears both -> collision.
        net = line_dual(4)
        procs, trace = run_engine(net, {0: {0: 1.0}, 2: {0: 1.0}}, rounds=1)
        receivers = {d.receiver for d in trace.records[0].deliveries}
        assert 1 not in receivers
        # Node 3 neighbors only node 2 -> clean reception.
        assert 3 in receivers

    def test_transmitter_does_not_receive(self):
        net = line_dual(3)
        procs, trace = run_engine(net, {0: {0: 1.0}, 1: {0: 1.0}}, rounds=1)
        # Node 1 transmitted, so it cannot receive from 0 even though
        # 0 is its only transmitting neighbor.
        assert not procs[1].received

    def test_silence_and_collision_indistinguishable(self):
        # Process feedback carries only the delivered message (None for
        # both silence and collision) — check the None cases look alike.
        net = line_dual(5)
        procs, _ = run_engine(net, {0: {0: 1.0}, 2: {0: 1.0}}, rounds=1)
        # Node 1: collision -> received nothing recorded.
        assert procs[1].received == []
        # Node 4: silence (no transmitting neighbor) -> also nothing.
        assert procs[4].received == []

    def test_message_payload_is_delivered_intact(self):
        net = line_dual(2)
        procs, _ = run_engine(net, {0: {0: 1.0}}, rounds=1)
        (round_index, message), = procs[1].received
        assert round_index == 0
        assert message.payload == "from-0"
        assert message.origin == 0

    def test_no_transmitters_no_deliveries(self):
        net = clique_dual(5)
        _, trace = run_engine(net, {}, rounds=3)
        assert all(not rec.deliveries for rec in trace.records)

    def test_clique_solo_reaches_everyone(self):
        net = clique_dual(6)
        _, trace = run_engine(net, {2: {0: 1.0}}, rounds=1)
        receivers = {d.receiver for d in trace.records[0].deliveries}
        assert receivers == {0, 1, 3, 4, 5}

    def test_clique_double_transmit_reaches_no_one(self):
        net = clique_dual(6)
        _, trace = run_engine(net, {2: {0: 1.0}, 4: {0: 1.0}}, rounds=1)
        assert trace.records[0].deliveries == ()


class TestFlakyEdges:
    def test_flaky_edge_off_blocks_reception(self):
        # Line 0-1-2 with flaky skip edge (0, 2); G-only adversary.
        net = line_dual(3, extra_flaky_skips=1)
        _, trace = run_engine(net, {0: {0: 1.0}}, rounds=1)
        receivers = {d.receiver for d in trace.records[0].deliveries}
        assert receivers == {1}

    def test_flaky_edge_on_enables_reception(self):
        net = line_dual(3, extra_flaky_skips=1)

        class AllOn(ReliableOnlyLinks):
            def start(self, network, algorithm, rng):
                LinkProcess.start(self, network, algorithm, rng)
                self._topology = RoundTopology.all_links(network)

        _, trace = run_engine(net, {0: {0: 1.0}}, rounds=1, link_process=AllOn())
        receivers = {d.receiver for d in trace.records[0].deliveries}
        assert receivers == {1, 2}

    def test_flaky_edge_can_cause_collision(self):
        # 0 and 2 transmit; with the skip edge on, node 1 still collides
        # and node 2's message reaches nobody new — but node 0 now hears
        # 2?? No: 0 transmits too. Check node 1 collision persists.
        net = line_dual(3, extra_flaky_skips=1)

        class AllOn(ReliableOnlyLinks):
            def start(self, network, algorithm, rng):
                LinkProcess.start(self, network, algorithm, rng)
                self._topology = RoundTopology.all_links(network)

        _, trace = run_engine(
            net, {0: {0: 1.0}, 2: {0: 1.0}}, rounds=1, link_process=AllOn()
        )
        assert trace.records[0].deliveries == ()


class TestAdversaryViews:
    def make_view_recorder(self, klass):
        views = []

        class Recorder(LinkProcess):
            adversary_class = klass

            def start(self, network, algorithm, rng):
                super().start(network, algorithm, rng)
                self._topology = RoundTopology.reliable_only(network)

            def choose_topology(self, view):
                views.append(view)
                return self._topology

        return Recorder(), views

    def test_oblivious_view_carries_only_round(self):
        net = line_dual(3)
        adv, views = self.make_view_recorder(AdversaryClass.OBLIVIOUS)
        run_engine(net, {0: {0: 1.0}}, rounds=2, link_process=adv)
        assert all(type(v) is ObliviousView for v in views)
        assert [v.round_index for v in views] == [0, 1]

    def test_online_view_has_probabilities_not_coins(self):
        net = line_dual(3)
        adv, views = self.make_view_recorder(AdversaryClass.ONLINE_ADAPTIVE)
        run_engine(net, {0: {0: 0.5}}, rounds=1, link_process=adv)
        view = views[0]
        assert type(view) is OnlineAdaptiveView
        assert view.transmit_probabilities == (0.5, 0.0, 0.0)
        assert view.expected_transmitters() == pytest.approx(0.5)
        assert not hasattr(view, "transmitter_mask")

    def test_offline_view_exposes_realized_coins(self):
        net = line_dual(3)
        adv, views = self.make_view_recorder(AdversaryClass.OFFLINE_ADAPTIVE)
        run_engine(net, {0: {0: 1.0}}, rounds=1, link_process=adv)
        view = views[0]
        assert type(view) is OfflineAdaptiveView
        assert view.transmitter_mask == 0b001

    def test_online_history_accumulates(self):
        net = line_dual(3)
        adv, views = self.make_view_recorder(AdversaryClass.ONLINE_ADAPTIVE)
        run_engine(net, {0: {0: 1.0, 1: 1.0}}, rounds=3, link_process=adv)
        assert len(views[0].history) == 0
        assert len(views[1].history) == 1
        assert views[2].history[1].transmitter_mask == 0b001


class TestHistoryWindow:
    """The adaptive views' history is an O(1) window, not a per-round copy."""

    def run_recording(self, rounds=4):
        recorder = TestAdversaryViews()
        net = line_dual(3)
        adv, views = recorder.make_view_recorder(AdversaryClass.ONLINE_ADAPTIVE)
        run_engine(
            net, {0: {r: 1.0 for r in range(rounds)}}, rounds=rounds, link_process=adv
        )
        return views

    def test_window_shares_storage_instead_of_copying(self):
        # Successive views alias one underlying list — the O(window)
        # per-round tuple copy is gone.
        views = self.run_recording()
        backing = {id(v.history._entries) for v in views}
        assert len(backing) == 1

    def test_window_length_is_frozen_at_construction(self):
        # Snapshot semantics: a view retained across rounds never grows.
        views = self.run_recording(rounds=5)
        assert [len(v.history) for v in views] == [0, 1, 2, 3, 4]

    def test_window_supports_sequence_protocol(self):
        views = self.run_recording(rounds=4)
        history = views[3].history
        assert [e.round_index for e in history] == [0, 1, 2]
        assert history[-1].round_index == 2
        assert [e.round_index for e in history[1:]] == [1, 2]
        with pytest.raises(IndexError):
            history[3]

    def test_trimmed_entries_raise_on_access(self):
        from repro.core import engine as engine_mod

        net = line_dual(3)
        recorder = TestAdversaryViews()
        adv, views = recorder.make_view_recorder(AdversaryClass.ONLINE_ADAPTIVE)
        window = engine_mod._HISTORY_WINDOW
        try:
            engine_mod._HISTORY_WINDOW = 3  # force trimming quickly
            run_engine(
                net, {0: {r: 1.0 for r in range(6)}}, rounds=6, link_process=adv
            )
        finally:
            engine_mod._HISTORY_WINDOW = window
        late = views[-1]
        assert len(late.history) == 3  # retention window
        assert late.history[-1].round_index == 4
        early = views[3]  # saw rounds 0..2, all trimmed by round 5
        with pytest.raises(LookupError):
            early.history[0]


class TestEngineMechanics:
    def test_deterministic_given_seed(self):
        net = clique_dual(8)
        scripts = {u: {r: 0.5 for r in range(20)} for u in range(8)}
        _, t1 = run_engine(net, scripts, rounds=20, seed=77)
        _, t2 = run_engine(net, scripts, rounds=20, seed=77)
        assert [r.transmitter_mask for r in t1.records] == [
            r.transmitter_mask for r in t2.records
        ]

    def test_different_seeds_differ(self):
        net = clique_dual(8)
        scripts = {u: {r: 0.5 for r in range(20)} for u in range(8)}
        _, t1 = run_engine(net, scripts, rounds=20, seed=77)
        _, t2 = run_engine(net, scripts, rounds=20, seed=78)
        assert [r.transmitter_mask for r in t1.records] != [
            r.transmitter_mask for r in t2.records
        ]

    def test_expected_transmitters_recorded(self):
        net = line_dual(4)
        _, trace = run_engine(net, {0: {0: 0.25}, 1: {0: 0.5}}, rounds=1)
        assert trace.records[0].expected_transmitters == pytest.approx(0.75)

    def test_wrong_process_count_rejected(self):
        net = line_dual(3)
        with pytest.raises(PlanError):
            RadioNetworkEngine(
                net, scripted_processes(line_dual(4), {}), ReliableOnlyLinks(), seed=0
            )

    def test_run_respects_max_rounds(self):
        net = line_dual(3)
        processes = scripted_processes(net, {})
        engine = RadioNetworkEngine(net, processes, ReliableOnlyLinks(), seed=0)
        result = engine.run(max_rounds=7)
        assert result.rounds == 7
        assert not result.solved

    def test_stop_condition_halts(self):
        net = line_dual(3)
        processes = scripted_processes(net, {1: {0: 1.0}})
        engine = RadioNetworkEngine(net, processes, ReliableOnlyLinks(), seed=0)
        result = engine.run(max_rounds=100, stop=lambda: bool(processes[0].received))
        assert result.solved
        assert result.rounds == 1
        assert result.rounds_to_solve() == 1

    def test_stop_condition_true_at_start(self):
        net = line_dual(3)
        processes = scripted_processes(net, {})
        engine = RadioNetworkEngine(net, processes, ReliableOnlyLinks(), seed=0)
        result = engine.run(max_rounds=10, stop=lambda: True)
        assert result.solved and result.rounds == 0
        # Sentinel -1 ("solved before round 0") keeps solve_round
        # unambiguous: None now always means unsolved.
        assert result.solve_round == -1
        assert result.solved_at_start
        assert result.rounds_to_solve() == 0

    def test_solve_round_none_only_when_unsolved(self):
        net = line_dual(3)
        processes = scripted_processes(net, {})
        engine = RadioNetworkEngine(net, processes, ReliableOnlyLinks(), seed=0)
        result = engine.run(max_rounds=3, stop=lambda: False)
        assert not result.solved
        assert result.solve_round is None
        assert not result.solved_at_start

    def test_solved_mid_run_is_not_solved_at_start(self):
        net = line_dual(3)
        processes = scripted_processes(net, {1: {0: 1.0}})
        engine = RadioNetworkEngine(net, processes, ReliableOnlyLinks(), seed=0)
        result = engine.run(max_rounds=10, stop=lambda: bool(processes[0].received))
        assert result.solved and result.solve_round == 0
        assert not result.solved_at_start

    def test_step_api_advances_one_round(self):
        net = line_dual(3)
        processes = scripted_processes(net, {0: {0: 1.0}})
        engine = RadioNetworkEngine(net, processes, ReliableOnlyLinks(), seed=0)
        record = engine.step()
        assert record.round_index == 0
        assert engine.round_index == 1

    def test_negative_max_rounds_rejected(self):
        net = line_dual(3)
        engine = RadioNetworkEngine(
            net, scripted_processes(net, {}), ReliableOnlyLinks(), seed=0
        )
        with pytest.raises(ValueError):
            engine.run(max_rounds=-1)

    def test_topology_validation_catches_illegal_edges(self):
        net = line_dual(4)  # no flaky edges at all

        class Cheater(LinkProcess):
            adversary_class = AdversaryClass.OBLIVIOUS

            def choose_topology(self, view):
                # Claim a topology with an edge (0, 3) outside G'.
                masks = list(self.network.g_masks)
                masks[0] |= 1 << 3
                masks[3] |= 1 << 0
                return RoundTopology(masks=tuple(masks), label="cheat")

        engine = RadioNetworkEngine(
            net,
            scripted_processes(net, {0: {0: 1.0}}),
            Cheater(),
            seed=0,
            validate_topologies=True,
        )
        with pytest.raises(TopologyViolationError):
            engine.step()

    def test_rounds_to_solve_raises_when_unsolved(self):
        net = line_dual(3)
        engine = RadioNetworkEngine(
            net, scripted_processes(net, {}), ReliableOnlyLinks(), seed=0
        )
        result = engine.run(max_rounds=2, stop=lambda: False)
        with pytest.raises(ValueError):
            result.rounds_to_solve()

    def test_probability_coins_sample_fairly(self):
        # A p=0.5 script over many rounds transmits about half the time.
        net = line_dual(2)
        scripts = {0: {r: 0.5 for r in range(400)}}
        procs, _ = run_engine(net, scripts, rounds=400, seed=5)
        sent = len(procs[0].sent_rounds)
        assert 140 < sent < 260


class TestResumedRuns:
    """``run()`` continues from ``round_index``: after ``step()`` calls
    and after an earlier run, it counts ``rounds`` from its own start
    and reports an absolute ``solve_round``, on both engines, with
    round skipping on and off."""

    #: Round-robin local broadcast: slot rounds with silent spans
    #: between them, so the skip runs park and emit spans.
    SPEC = dict(
        graph=("geographic", {"n": 48}),
        problem=("local-broadcast", {"fraction": 0.25}),
        algorithm=("round-robin-local", {}),
        adversary=("none", {}),
    )
    SEED = 3
    CAP = 400

    def _engine(self, engine, skip):
        trial = ScenarioSpec(**self.SPEC).build(self.SEED)
        observer = trial.problem.make_observer()
        eng = create_engine(
            trial.network,
            trial.algorithm,
            trial.link_process,
            engine=engine,
            seed=self.SEED,
            observers=[observer],
            skip=skip,
        )
        assert isinstance(eng, BitsetRadioNetworkEngine) == (engine == "bank")
        assert eng.skip == skip
        return eng, lambda: observer.solved

    def _full(self, engine, skip):
        eng, stop = self._engine(engine, skip)
        result = eng.run(max_rounds=self.CAP, stop=stop)
        assert result.solved and result.solve_round > 40
        return result, eng._coin_rng.bit_generator.state

    @pytest.mark.parametrize("skip", (False, True))
    @pytest.mark.parametrize("engine", ("reference", "bank"))
    def test_run_after_steps(self, engine, skip):
        full, state = self._full(engine, skip)
        eng, stop = self._engine(engine, skip)
        eng.step()
        eng.step()
        assert eng.round_index == 2
        result = eng.run(max_rounds=self.CAP, stop=stop)
        assert result == ExecutionResult(
            rounds=full.rounds - 2, solved=True, solve_round=full.solve_round
        )
        assert eng.round_index == full.solve_round + 1
        assert eng._coin_rng.bit_generator.state == state

    @pytest.mark.parametrize("skip", (False, True))
    @pytest.mark.parametrize("engine", ("reference", "bank"))
    def test_second_run(self, engine, skip):
        full, state = self._full(engine, skip)
        eng, stop = self._engine(engine, skip)
        first_cap = full.solve_round // 2
        first = eng.run(max_rounds=first_cap, stop=stop)
        assert first == ExecutionResult(rounds=first_cap, solved=False, solve_round=None)
        assert eng.round_index == first_cap
        # A capped second run stops at its own cap, counted from its start.
        second = eng.run(max_rounds=5, stop=stop)
        assert second == ExecutionResult(rounds=5, solved=False, solve_round=None)
        assert eng.round_index == first_cap + 5
        third = eng.run(max_rounds=self.CAP, stop=stop)
        assert third == ExecutionResult(
            rounds=full.rounds - first_cap - 5, solved=True, solve_round=full.solve_round
        )
        assert eng._coin_rng.bit_generator.state == state

    @pytest.mark.parametrize("engine", ("reference", "bank"))
    def test_run_without_observers_checks_stop_every_round(self, engine):
        # With no observer there is no state for a batched span to keep
        # fixed, so a skip run checks its stop after every quiet round: a
        # stop that reads the round clock ends where the skip-off run does.
        ends = []
        for skip in (False, True):
            trial = ScenarioSpec(**self.SPEC).build(self.SEED)
            eng = create_engine(
                trial.network,
                trial.algorithm,
                trial.link_process,
                engine=engine,
                seed=self.SEED,
                skip=skip,
            )
            result = eng.run(max_rounds=self.CAP, stop=lambda: eng.round_index >= 7)
            ends.append((result, eng.round_index, eng._coin_rng.bit_generator.state))
        assert ends[0] == ends[1]
        assert ends[0][0] == ExecutionResult(rounds=7, solved=True, solve_round=6)
