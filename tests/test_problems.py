"""Tests for problem definitions and observers."""

from __future__ import annotations

import random

import pytest

from repro.core.messages import Message, MessageKind
from repro.core.trace import Delivery, RoundRecord
from repro.graphs.builders import clique_dual, line_dual, ring_dual
from repro.graphs.dual_graph import DualGraph
from repro.problems.global_broadcast import GlobalBroadcastProblem
from repro.problems.local_broadcast import LocalBroadcastProblem, receiver_set


def record(round_index, deliveries):
    return RoundRecord(
        round_index=round_index,
        transmitter_mask=0,
        deliveries=tuple(deliveries),
        expected_transmitters=0.0,
    )


def data(origin):
    return Message(MessageKind.DATA, origin=origin, payload="m")


class TestGlobalBroadcast:
    def test_source_starts_informed(self):
        obs = GlobalBroadcastProblem(line_dual(4), 1).make_observer()
        assert obs.informed_count == 1
        assert not obs.solved

    def test_progress_and_solve(self):
        problem = GlobalBroadcastProblem(line_dual(3), 0)
        obs = problem.make_observer()
        obs.on_round(record(0, [Delivery(1, 0, data(0))]))
        assert obs.informed_count == 2
        assert obs.progress() == pytest.approx(2 / 3)
        obs.on_round(record(1, [Delivery(2, 1, data(0))]))
        assert obs.solved
        assert obs.first_informed_round[2] == 1

    def test_ignores_foreign_origin(self):
        obs = GlobalBroadcastProblem(line_dual(3), 0).make_observer()
        obs.on_round(record(0, [Delivery(1, 2, data(2))]))
        assert obs.informed_count == 1

    def test_ignores_seed_messages(self):
        obs = GlobalBroadcastProblem(line_dual(3), 0).make_observer()
        seed = Message(MessageKind.SEED, origin=0)
        obs.on_round(record(0, [Delivery(1, 0, seed)]))
        assert obs.informed_count == 1

    def test_uninformed_listing(self):
        obs = GlobalBroadcastProblem(line_dual(3), 0).make_observer()
        assert obs.uninformed_nodes() == [1, 2]

    def test_source_validation(self):
        with pytest.raises(ValueError):
            GlobalBroadcastProblem(line_dual(3), 3)

    def test_requires_connected_g(self):
        disconnected = DualGraph.from_edges(3, [(0, 1)], [(1, 2)])
        with pytest.raises(ValueError):
            GlobalBroadcastProblem(disconnected, 0)

    def test_describe_mentions_depth(self):
        text = GlobalBroadcastProblem(line_dual(5), 0).describe()
        assert "D=4" in text


class TestReceiverSet:
    def test_g_neighbors_only(self):
        net = line_dual(4, extra_flaky_skips=2)
        # B = {0}: G-neighbor is node 1 only (2 is a flaky neighbor).
        assert receiver_set(net, {0}) == {1}

    def test_broadcasters_can_be_receivers(self):
        net = line_dual(3)
        assert receiver_set(net, {0, 1}) == {0, 1, 2}

    def test_clique_all(self):
        net = clique_dual(4)
        assert receiver_set(net, {2}) == {0, 1, 3}

    @staticmethod
    def by_definition(net, broadcasters):
        b_mask = 0
        for b in broadcasters:
            b_mask |= 1 << b
        return frozenset(u for u in range(net.n) if net.g_masks[u] & b_mask)

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_the_definition_on_random_dual_graphs(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 150)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        net = DualGraph.from_edges(
            n,
            [pair for pair in pairs if rng.random() < 3 / n],
            [pair for pair in pairs if rng.random() < 2 / n],
        )
        for size in (0, 1, 2, rng.randint(1, n), n):
            broadcasters = set(rng.sample(range(n), size))
            assert receiver_set(net, broadcasters) == self.by_definition(
                net, broadcasters
            )

    def test_large_ring_with_flaky_chords(self):
        n = 16_500
        rng = random.Random(7)
        chords = [(u, (u + 3) % n) for u in rng.sample(range(n), 200)]
        net = ring_dual(n, chords=chords)
        broadcasters = set(rng.sample(range(n), n // 64)) | {0, 1}
        got = receiver_set(net, broadcasters)
        assert got == self.by_definition(net, broadcasters)
        assert got == {(b + d) % n for b in broadcasters for d in (-1, 1)}


class TestLocalBroadcast:
    def test_solved_when_all_receivers_served(self):
        net = line_dual(4)
        problem = LocalBroadcastProblem(net, {1})
        obs = problem.make_observer()
        assert problem.receivers == {0, 2}
        obs.on_round(record(0, [Delivery(0, 1, data(1))]))
        assert not obs.solved
        obs.on_round(record(1, [Delivery(2, 1, data(1))]))
        assert obs.solved
        assert obs.first_served_round == {0: 0, 2: 1}

    def test_message_must_originate_in_b(self):
        net = line_dual(4)
        obs = LocalBroadcastProblem(net, {1}).make_observer()
        obs.on_round(record(0, [Delivery(0, 1, data(3))]))
        assert obs.served_count == 0

    def test_reception_over_flaky_edge_counts(self):
        # R is defined by G, but a delivery may arrive over G'.
        net = line_dual(4, extra_flaky_skips=2)
        obs = LocalBroadcastProblem(net, {0}).make_observer()
        # Receiver 1 hears broadcaster 0 via a relayed path? Directly: (0,1).
        # Simulate instead a delivery to 1 with sender 2 forwarding? Local
        # broadcast has no relays — but the *edge* used doesn't matter:
        obs.on_round(record(0, [Delivery(1, 0, data(0))]))
        assert obs.solved

    def test_empty_receiver_set_trivially_solved(self):
        # A single broadcaster with no G-neighbors cannot exist in a
        # connected graph; but B = {} gives R = {} and is solved.
        net = line_dual(3)
        obs = LocalBroadcastProblem(net, set()).make_observer()
        assert obs.solved
        assert obs.progress() == 1.0

    def test_progress_fraction(self):
        net = clique_dual(5)
        obs = LocalBroadcastProblem(net, {0}).make_observer()
        obs.on_round(record(0, [Delivery(1, 0, data(0))]))
        assert obs.progress() == pytest.approx(0.25)
        assert set(obs.pending_receivers()) == {2, 3, 4}

    def test_broadcaster_validation(self):
        with pytest.raises(ValueError):
            LocalBroadcastProblem(line_dual(3), {5})

    def test_describe(self):
        text = LocalBroadcastProblem(clique_dual(4), {0, 1}).describe()
        assert "|B|=2" in text and "|R|=4" in text
