"""Stream identity of the stochastic link processes, and the
multi-message observer's payload rule.

The stochastic link processes draw a round's uniforms in one NumPy call
from a ``Generator(MT19937)`` that continues the adversary's
``random.Random`` (:func:`repro.core.rng.numpy_continuation`). These
tests pin that the continuation is the same stream — across the
624-word refill of the twister — and that each process yields, round
for round, the topology of a per-element ``random()`` loop kept here as
the oracle, with the stream left at the same position afterwards.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.adversaries.base import AlgorithmInfo, ObliviousView, RoundTopology
from repro.adversaries.stochastic import (
    BernoulliEdgeLinks,
    BernoulliNodeFade,
    GilbertElliottEdgeLinks,
    GilbertElliottNodeFade,
)
from repro.core.messages import Message, MessageKind
from repro.core.rng import numpy_continuation
from repro.core.trace import Delivery, RoundRecord
from repro.graphs.dual_graph import DualGraph
from repro.mac.base import MessageAssignment
from repro.problems.multi_message import MultiMessageObserver

ANON = AlgorithmInfo(name="anon", metadata={})
ROUNDS = 300
SIZES = (1, 63, 64, 65, 600)


class TestNumpyContinuation:
    @pytest.mark.parametrize("seed", [0, 1, 2013, 2**64 - 1])
    @pytest.mark.parametrize("prior", [0, 1, 311, 623, 624, 625, 1247])
    def test_continues_random_random(self, seed, prior):
        rng = random.Random(seed)
        for _ in range(prior):
            rng.random()
        generator = numpy_continuation(rng)
        drawn = generator.random(700).tolist() + generator.random(3).tolist()
        assert drawn == [rng.random() for _ in range(703)]


def _network(n: int) -> DualGraph:
    """A sparse random dual graph: a path for G, ~2n flaky chords."""
    rng = np.random.default_rng(n)
    g = [(u, u + 1) for u in range(n - 1)]
    chords = set()
    for _ in range(2 * n if n > 2 else 0):
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        if v > u + 1:
            chords.add((u, v))
    return DualGraph.from_edges(n, g, sorted(chords))


def _node_fade_masks(network: DualGraph, clear: list[bool]) -> tuple[int, ...]:
    active = sum(1 << u for u, on in enumerate(clear) if on)
    return tuple(
        g | (flaky & active) if on else g
        for g, flaky, on in zip(network.g_masks, network.flaky_masks, clear)
    )


# The oracles: the per-element loops over ``random.Random`` that the
# link processes drew with before their draws were batched.
def _bernoulli_edge_oracle(network, rng, p_up):
    edges = sorted(network.flaky_edges())
    while True:
        active = [edge for edge in edges if rng.random() < p_up]
        yield RoundTopology.from_flaky_edges(network, active).masks


def _ge_edge_oracle(network, rng, p_fail, p_recover, start):
    edges = sorted(network.flaky_edges())
    up_frac = (1.0 if p_fail + p_recover == 0 else p_recover / (p_fail + p_recover)) if start is None else start
    up = {edge: rng.random() < up_frac for edge in edges}
    while True:
        active = []
        for edge in edges:
            if up[edge]:
                if rng.random() < p_fail:
                    up[edge] = False
            elif rng.random() < p_recover:
                up[edge] = True
            if up[edge]:
                active.append(edge)
        yield RoundTopology.from_flaky_edges(network, active).masks


def _bernoulli_node_oracle(network, rng, p_clear):
    while True:
        yield _node_fade_masks(network, [rng.random() < p_clear for _ in range(network.n)])


def _ge_node_oracle(network, rng, p_fail, p_recover, start):
    clear_frac = (1.0 if p_fail + p_recover == 0 else p_recover / (p_fail + p_recover)) if start is None else start
    clear = [rng.random() < clear_frac for _ in range(network.n)]
    while True:
        for u in range(network.n):
            if clear[u]:
                if rng.random() < p_fail:
                    clear[u] = False
            elif rng.random() < p_recover:
                clear[u] = True
        yield _node_fade_masks(network, clear)


CASES = {
    "bernoulli-edge": (lambda: BernoulliEdgeLinks(0.6), lambda net, rng: _bernoulli_edge_oracle(net, rng, 0.6)),
    "ge-edge": (
        lambda: GilbertElliottEdgeLinks(0.3, 0.2),
        lambda net, rng: _ge_edge_oracle(net, rng, 0.3, 0.2, None),
    ),
    "ge-edge-start": (
        lambda: GilbertElliottEdgeLinks(0.1, 0.4, start_up_fraction=0.25),
        lambda net, rng: _ge_edge_oracle(net, rng, 0.1, 0.4, 0.25),
    ),
    "bernoulli-node": (lambda: BernoulliNodeFade(0.7), lambda net, rng: _bernoulli_node_oracle(net, rng, 0.7)),
    "ge-node": (
        lambda: GilbertElliottNodeFade(0.3, 0.3),
        lambda net, rng: _ge_node_oracle(net, rng, 0.3, 0.3, None),
    ),
    "ge-node-start": (
        lambda: GilbertElliottNodeFade(0.2, 0.05, start_clear_fraction=0.9),
        lambda net, rng: _ge_node_oracle(net, rng, 0.2, 0.05, 0.9),
    ),
}


class TestRoundForRoundAgainstPerElementLoops:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_topologies_and_stream_position(self, case, n):
        make, oracle = CASES[case]
        network = _network(n)
        seed = 1000 + n
        adversary = make()
        adversary.start(network, ANON, random.Random(seed))
        oracle_rng = random.Random(seed)
        expected = oracle(network, oracle_rng)
        for r in range(ROUNDS):
            topology = adversary.choose_topology(ObliviousView(round_index=r))
            assert topology.masks == next(expected), f"round {r}"
        # The next uniform of both streams agrees: no draw was added,
        # skipped or reordered.
        assert adversary._uniforms(1).tolist() == [oracle_rng.random()]

    @pytest.mark.parametrize("p_up", [0.0, 1.0])
    def test_degenerate_p_up_draws_nothing(self, p_up):
        network = _network(65)
        adversary = BernoulliEdgeLinks(p_up)
        adversary.start(network, ANON, random.Random(7))
        for r in range(5):
            adversary.choose_topology(ObliviousView(round_index=r))
        assert adversary.next_boundary(0) is None
        assert adversary._uniforms(1).tolist() == [random.Random(7).random()]


class TestMultiMessageObserverPayloads:
    """The observer counts exactly the DATA deliveries that
    ``MessageAssignment.index_of`` accepts, and never raises."""

    ASSIGNMENT = MessageAssignment(k=3, sources=(0, 0, 0))
    PAYLOADS = [
        ("mm", 0),
        ("mm", 2),
        ("mm", 3),
        ("mm", -1),
        ("mm", 1.0),
        ("mm", True),
        ("mm", False),
        ("x", 0),
        ("mm", 1, 0),
        ["mm", 1],
        ("mm", [1]),
        None,
    ]

    @pytest.mark.parametrize("kind", list(MessageKind))
    @pytest.mark.parametrize("payload", PAYLOADS, ids=repr)
    def test_counts_what_index_of_accepts(self, payload, kind):
        observer = MultiMessageObserver(4, self.ASSIGNMENT)
        message = Message(kind, origin=0, payload=payload)
        observer.on_round(
            RoundRecord(
                round_index=0,
                transmitter_mask=1,
                deliveries=(Delivery(1, 0, message),),
                expected_transmitters=1.0,
            )
        )
        index = self.ASSIGNMENT.index_of(payload)
        counted = kind is MessageKind.DATA and index is not None
        assert observer.knowledge.masks[1] == ((1 << index) if counted else 0)
        assert observer.progress() == (4 if counted else 3) / 12


def test_delivery_is_a_plain_tuple():
    message = Message(MessageKind.DATA, origin=2, payload=("mm", 0))
    delivery = Delivery(5, 2, message)
    assert delivery == (5, 2, message)
    assert (delivery.receiver, delivery.sender, delivery.message) == (5, 2, message)
