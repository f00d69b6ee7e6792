"""Tests for link processes: patterns, views, and every adversary class."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.adversaries.base import (
    AdversaryClass,
    AlgorithmInfo,
    LinkProcess,
    ObliviousView,
    OfflineAdaptiveView,
    OnlineAdaptiveView,
    RoundTopology,
)
from repro.adversaries.dense_sparse import OnlineDenseSparseAttacker, default_dense_threshold
from repro.adversaries.jamming import MovingRegionFade, PeriodicCutJammer
from repro.adversaries.offline import OfflineSoloBlockerAttacker
from repro.adversaries.schedule_attack import (
    PrecomputedDenseSparseLinks,
    PredictedDenseSparseAttacker,
    predict_plain_decay_counts,
)
from repro.adversaries.static import (
    AllFlakyLinks,
    AlternatingLinks,
    FixedFlakyLinks,
    NoFlakyLinks,
)
from repro.adversaries.stochastic import (
    BernoulliEdgeLinks,
    BernoulliNodeFade,
    GilbertElliottEdgeLinks,
    GilbertElliottNodeFade,
)
from repro.core.errors import AdversaryUsageError, TopologyViolationError
from repro.graphs.builders import line_dual, with_extra_flaky_edges
from repro.graphs.dual_clique import dual_clique
from repro.graphs.geographic import random_geographic

ANON = AlgorithmInfo(name="test", metadata={})


def started(adversary: LinkProcess, network, seed: int = 0) -> LinkProcess:
    adversary.start(network, ANON, random.Random(seed))
    return adversary


def flaky_net():
    """Line of 5 with two flaky skip edges — small but non-trivial."""
    return line_dual(5, extra_flaky_skips=3)


class TestAdversaryClassOrdering:
    def test_at_least(self):
        assert AdversaryClass.OFFLINE_ADAPTIVE.at_least(AdversaryClass.OBLIVIOUS)
        assert AdversaryClass.ONLINE_ADAPTIVE.at_least(AdversaryClass.ONLINE_ADAPTIVE)
        assert not AdversaryClass.OBLIVIOUS.at_least(AdversaryClass.ONLINE_ADAPTIVE)


class TestRoundTopologyPatterns:
    def test_reliable_only_is_g(self):
        net = flaky_net()
        topo = RoundTopology.reliable_only(net)
        assert topo.masks == net.g_masks
        topo.validate(net)

    def test_all_links_is_gp(self):
        net = flaky_net()
        topo = RoundTopology.all_links(net)
        assert topo.masks == net.gp_masks
        topo.validate(net)

    def test_without_cut_severs_cross_flaky_only(self):
        dc = dual_clique(4, bridge_a=0, bridge_b=4)
        topo = RoundTopology.without_cut(dc.graph, dc.side_a_mask)
        topo.validate(dc.graph)
        # The G bridge survives; every flaky cross edge is gone.
        assert (topo.masks[0] >> 4) & 1  # bridge 0-4 is in G
        for u in dc.side_a():
            for v in dc.side_b():
                if (u, v) == (0, 4):
                    continue
                assert not (topo.masks[u] >> v) & 1

    def test_without_cut_keeps_within_side_flaky(self):
        # Build a graph with a within-side flaky edge and check it stays.
        net = with_extra_flaky_edges(line_dual(4), [(0, 2), (1, 3)])
        side_mask = 0b0011  # nodes 0,1
        topo = RoundTopology.without_cut(net, side_mask)
        assert not (topo.masks[1] >> 3) & 1  # cross edge (1,3) severed
        assert not (topo.masks[0] >> 2) & 1  # cross edge (0,2) severed

    def test_from_flaky_edges(self):
        net = flaky_net()
        topo = RoundTopology.from_flaky_edges(net, [(0, 2)])
        topo.validate(net)
        assert (topo.masks[0] >> 2) & 1
        assert not (topo.masks[1] >> 3) & 1

    def test_from_flaky_edges_rejects_non_gp(self):
        net = line_dual(5)  # no flaky edges at all
        with pytest.raises(TopologyViolationError):
            RoundTopology.from_flaky_edges(net, [(0, 4)])

    def test_from_flaky_edges_ignores_g_edges(self):
        net = flaky_net()
        topo = RoundTopology.from_flaky_edges(net, [(0, 1)])
        assert topo.masks == net.g_masks

    def test_node_fade_requires_both_endpoints(self):
        net = flaky_net()
        # Only node 0 active: no flaky edge fires.
        topo = RoundTopology.from_active_flaky_nodes(net, np.array([1, 0, 0, 0, 0], dtype=bool))
        assert topo.masks == net.g_masks
        # Nodes 0 and 2 active: (0,2) fires, (1,3) does not.
        topo = RoundTopology.from_active_flaky_nodes(net, np.array([1, 0, 1, 0, 0], dtype=bool))
        assert (topo.masks[0] >> 2) & 1
        assert not (topo.masks[1] >> 3) & 1

    def test_validate_rejects_dropped_g_edge(self):
        net = line_dual(3)
        masks = list(net.g_masks)
        masks[0] = 0
        masks[1] &= ~1
        with pytest.raises(TopologyViolationError):
            RoundTopology(masks=tuple(masks)).validate(net)

    def test_validate_rejects_extra_edge(self):
        net = line_dual(3)
        masks = list(net.g_masks)
        masks[0] |= 1 << 2
        masks[2] |= 1 << 0
        with pytest.raises(TopologyViolationError):
            RoundTopology(masks=tuple(masks)).validate(net)

    def test_validate_rejects_asymmetry(self):
        net = flaky_net()
        masks = list(net.g_masks)
        masks[0] |= 1 << 2  # add (0,2) at node 0 only
        with pytest.raises(TopologyViolationError):
            RoundTopology(masks=tuple(masks)).validate(net)


class TestStaticAdversaries:
    def test_no_flaky(self):
        adv = started(NoFlakyLinks(), flaky_net())
        assert adv.choose_topology(ObliviousView(0)).masks == flaky_net().g_masks

    def test_all_flaky(self):
        adv = started(AllFlakyLinks(), flaky_net())
        assert adv.choose_topology(ObliviousView(0)).masks == flaky_net().gp_masks

    def test_fixed_subset(self):
        adv = started(FixedFlakyLinks([(0, 2)]), flaky_net())
        topo = adv.choose_topology(ObliviousView(5))
        assert (topo.masks[0] >> 2) & 1
        assert not (topo.masks[1] >> 3) & 1

    def test_alternating_cycles(self):
        adv = started(AlternatingLinks((2, 1)), flaky_net())
        labels = [adv.choose_topology(ObliviousView(r)).label for r in range(6)]
        assert labels == ["G'-all", "G'-all", "G-only"] * 2

    def test_alternating_validation(self):
        with pytest.raises(ValueError):
            AlternatingLinks(())
        with pytest.raises(ValueError):
            AlternatingLinks((0,))


class TestStochasticAdversaries:
    def test_bernoulli_extremes(self):
        net = flaky_net()
        up = started(BernoulliEdgeLinks(1.0), net)
        down = started(BernoulliEdgeLinks(0.0), net)
        assert up.choose_topology(ObliviousView(0)).masks == net.gp_masks
        assert down.choose_topology(ObliviousView(0)).masks == net.g_masks

    def test_bernoulli_rate(self):
        net = flaky_net()
        adv = started(BernoulliEdgeLinks(0.5), net, seed=3)
        fired = 0
        rounds = 300
        for r in range(rounds):
            topo = adv.choose_topology(ObliviousView(r))
            fired += (topo.masks[0] >> 2) & 1
        assert 0.35 < fired / rounds < 0.65

    def test_bernoulli_probability_validation(self):
        with pytest.raises(ValueError):
            BernoulliEdgeLinks(1.5)

    def test_gilbert_elliott_is_bursty(self):
        net = flaky_net()
        adv = started(
            GilbertElliottEdgeLinks(p_fail=0.05, p_recover=0.05), net, seed=1
        )
        states = []
        for r in range(400):
            topo = adv.choose_topology(ObliviousView(r))
            states.append(bool((topo.masks[0] >> 2) & 1))
        flips = sum(1 for a, b in zip(states, states[1:]) if a != b)
        # Memoryless p=0.5 would flip ~200 times; bursty chains flip rarely.
        assert flips < 100

    def test_gilbert_elliott_stationary_fraction(self):
        net = flaky_net()
        adv = started(
            GilbertElliottEdgeLinks(p_fail=0.2, p_recover=0.2), net, seed=2
        )
        ups = 0
        for r in range(500):
            topo = adv.choose_topology(ObliviousView(r))
            ups += (topo.masks[0] >> 2) & 1
        assert 0.3 < ups / 500 < 0.7

    def test_node_fade_legality(self):
        net = flaky_net()
        adv = started(BernoulliNodeFade(0.5), net, seed=4)
        for r in range(50):
            adv.choose_topology(ObliviousView(r)).validate(net)

    def test_ge_node_fade_legality_and_motion(self):
        net = flaky_net()
        adv = started(GilbertElliottNodeFade(0.3, 0.3), net, seed=5)
        masks_seen = set()
        for r in range(60):
            topo = adv.choose_topology(ObliviousView(r))
            topo.validate(net)
            masks_seen.add(topo.masks)
        assert len(masks_seen) > 1  # state actually evolves


class TestJamming:
    def test_periodic_cut_duty_cycle(self):
        dc = dual_clique(4, bridge_a=0, bridge_b=4)
        adv = started(PeriodicCutJammer(dc.side_a_mask, period=4, dense_rounds=1), dc.graph)
        labels = [adv.choose_topology(ObliviousView(r)).label for r in range(8)]
        assert labels[0] == "G'-all"
        assert labels[1] == labels[2] == labels[3] == "jam-cut"
        assert labels[4] == "G'-all"

    def test_periodic_cut_validation(self):
        with pytest.raises(ValueError):
            PeriodicCutJammer(0, period=0, dense_rounds=0)
        with pytest.raises(ValueError):
            PeriodicCutJammer(0, period=4, dense_rounds=5)

    def test_moving_fade_requires_embedding(self):
        with pytest.raises(AdversaryUsageError):
            started(MovingRegionFade(), line_dual(4))

    def test_moving_fade_legality_and_sweep(self):
        net = random_geographic(40, seed=11)
        adv = started(MovingRegionFade(fade_radius=1.0, speed=0.5), net)
        masks_seen = set()
        for r in range(40):
            topo = adv.choose_topology(ObliviousView(r))
            topo.validate(net)
            masks_seen.add(topo.masks)
        assert len(masks_seen) > 1


class TestScheduleAttack:
    def test_predict_plain_decay_counts(self):
        predict = predict_plain_decay_counts(32, 6)
        assert predict(0) == 1.0  # source announcement
        assert predict(1) == 16.0  # 32 · 2^{-1}
        assert predict(6) == 0.5  # 32 · 2^{-6}
        assert predict(7) == 16.0  # wraps to the next phase

    def test_predictor_validation(self):
        with pytest.raises(ValueError):
            predict_plain_decay_counts(0, 4)
        with pytest.raises(ValueError):
            predict_plain_decay_counts(4, 0)

    def test_predicted_attacker_labels(self):
        dc = dual_clique(16, bridge_a=1, bridge_b=17)
        adv = started(
            PredictedDenseSparseAttacker(
                dc.side_a_mask,
                predict_plain_decay_counts(16, 5),
                threshold=4.0,
            ),
            dc.graph,
        )
        # Round 1 predicts 8 (> 4): dense. Round 3 predicts 2: sparse.
        assert adv.choose_topology(ObliviousView(1)).label == "G'-all"
        assert adv.choose_topology(ObliviousView(3)).label == "predicted-sparse"
        assert adv.dense_history == [True, False]

    def test_precomputed_labels_and_tail(self):
        dc = dual_clique(4, bridge_a=1, bridge_b=5)
        adv = started(
            PrecomputedDenseSparseLinks(dc.side_a_mask, [True, False], tail_dense=True),
            dc.graph,
        )
        assert adv.choose_topology(ObliviousView(0)).label == "G'-all"
        assert adv.choose_topology(ObliviousView(1)).label == "precomputed-sparse"
        assert adv.choose_topology(ObliviousView(99)).label == "G'-all"


class TestOnlineDenseSparse:
    def test_threshold_decision(self):
        dc = dual_clique(8, bridge_a=1, bridge_b=9)
        adv = started(OnlineDenseSparseAttacker(dc.side_a_mask, threshold=3.0), dc.graph)
        dense_view = OnlineAdaptiveView(
            round_index=0, transmit_probabilities=(0.5,) * 16
        )
        sparse_view = OnlineAdaptiveView(
            round_index=1, transmit_probabilities=(0.1,) * 16
        )
        assert adv.choose_topology(dense_view).label == "G'-all"
        assert adv.choose_topology(sparse_view).label == "dense-sparse-cut"
        assert adv.dense_history == [True, False]
        assert adv.dense_round_fraction() == pytest.approx(0.5)

    def test_default_threshold_applied_at_start(self):
        dc = dual_clique(8)
        adv = started(OnlineDenseSparseAttacker(dc.side_a_mask), dc.graph)
        assert adv.threshold == pytest.approx(default_dense_threshold(16))

    def test_count_scope_mask(self):
        dc = dual_clique(4, bridge_a=1, bridge_b=5)
        adv = started(
            OnlineDenseSparseAttacker(
                dc.side_a_mask, threshold=1.0, count_scope_mask=0b0001
            ),
            dc.graph,
        )
        # Heavy probabilities outside the scope are invisible.
        view = OnlineAdaptiveView(
            round_index=0, transmit_probabilities=(0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        )
        assert adv.choose_topology(view).label == "dense-sparse-cut"

    def test_rejects_oblivious_view(self):
        dc = dual_clique(4)
        adv = started(OnlineDenseSparseAttacker(dc.side_a_mask), dc.graph)
        with pytest.raises(AdversaryUsageError):
            adv.choose_topology(ObliviousView(0))


class TestOfflineSoloBlocker:
    def test_floods_on_multiple_transmitters(self):
        dc = dual_clique(4, bridge_a=1, bridge_b=5)
        adv = started(OfflineSoloBlockerAttacker(dc.side_a_mask), dc.graph)
        view = OfflineAdaptiveView(round_index=0, transmitter_mask=0b0011)
        assert adv.choose_topology(view).label == "G'-all"
        assert adv.flooded_rounds == 1

    def test_severs_on_solo_or_silence(self):
        dc = dual_clique(4, bridge_a=1, bridge_b=5)
        adv = started(OfflineSoloBlockerAttacker(dc.side_a_mask), dc.graph)
        solo = OfflineAdaptiveView(round_index=0, transmitter_mask=0b0100)
        silent = OfflineAdaptiveView(round_index=1, transmitter_mask=0)
        assert adv.choose_topology(solo).label == "solo-blocker-cut"
        assert adv.choose_topology(silent).label == "solo-blocker-cut"
        assert adv.solo_rounds == 1

    def test_rejects_weaker_views(self):
        dc = dual_clique(4)
        adv = started(OfflineSoloBlockerAttacker(dc.side_a_mask), dc.graph)
        with pytest.raises(AdversaryUsageError):
            adv.choose_topology(OnlineAdaptiveView(round_index=0))


class TestDescribe:
    def test_describe_mentions_class(self):
        assert "oblivious" in NoFlakyLinks().describe()
        assert "online-adaptive" in OnlineDenseSparseAttacker(0).describe()
        assert "offline-adaptive" in OfflineSoloBlockerAttacker(0).describe()
