"""Property-based tests: engine semantics under random graphs, scripts,
and adversaries (hypothesis)."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversaries.base import AdversaryClass, LinkProcess, RoundTopology
from repro.adversaries.static import AllFlakyLinks, AlternatingLinks, NoFlakyLinks
from repro.adversaries.stochastic import BernoulliNodeFade, GilbertElliottNodeFade
from repro.core.engine import RadioNetworkEngine
from repro.core.trace import TraceCollector, iter_bits, popcount
from repro.graphs.builders import er_dual
from tests.conftest import scripted_processes


def random_network(n_seed: int):
    rng = random.Random(n_seed)
    n = rng.randint(4, 16)
    return er_dual(n, 0.3, 0.3, rng)


def random_scripts(network, script_seed: int, rounds: int):
    rng = random.Random(script_seed)
    scripts = {}
    for u in range(network.n):
        scripts[u] = {
            r: rng.choice([0.0, 0.0, 0.3, 0.7, 1.0]) for r in range(rounds)
        }
    return scripts


ADVERSARY_FACTORIES = [
    lambda: NoFlakyLinks(),
    lambda: AllFlakyLinks(),
    lambda: AlternatingLinks((2, 3)),
    lambda: BernoulliNodeFade(0.5),
    lambda: GilbertElliottNodeFade(0.3, 0.4),
]


class TestReceptionInvariants:
    @given(
        n_seed=st.integers(0, 200),
        script_seed=st.integers(0, 200),
        adversary_index=st.integers(0, len(ADVERSARY_FACTORIES) - 1),
        engine_seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_delivery_is_a_legal_radio_event(
        self, n_seed, script_seed, adversary_index, engine_seed
    ):
        """For every recorded delivery: the receiver listened, the sender
        transmitted, the pair is G'-adjacent, and the sender was the
        receiver's unique transmitting G'-neighbor (a necessary
        condition regardless of the flaky subset chosen)."""
        network = random_network(n_seed)
        rounds = 6
        processes = scripted_processes(
            network, random_scripts(network, script_seed, rounds)
        )
        collector = TraceCollector()
        engine = RadioNetworkEngine(
            network,
            processes,
            ADVERSARY_FACTORIES[adversary_index](),
            seed=engine_seed,
            observers=[collector],
        )
        engine.run(max_rounds=rounds)
        for record in collector.records:
            transmitters = record.transmitter_mask
            for delivery in record.deliveries:
                assert not (transmitters >> delivery.receiver) & 1
                assert (transmitters >> delivery.sender) & 1
                assert network.has_gp_edge(delivery.receiver, delivery.sender)
                # At most one receiver event per node per round.
            receivers = [d.receiver for d in record.deliveries]
            assert len(receivers) == len(set(receivers))

    @given(
        n_seed=st.integers(0, 100),
        script_seed=st.integers(0, 100),
        engine_seed=st.integers(0, 100),
    )
    @settings(max_examples=30, deadline=None)
    def test_g_only_deliveries_match_brute_force(
        self, n_seed, script_seed, engine_seed
    ):
        """Against the G-only adversary the reception rule is fully
        determined; recompute it from scratch and compare."""
        network = random_network(n_seed)
        rounds = 5
        processes = scripted_processes(
            network, random_scripts(network, script_seed, rounds)
        )
        collector = TraceCollector()
        engine = RadioNetworkEngine(
            network, processes, NoFlakyLinks(), seed=engine_seed, observers=[collector]
        )
        engine.run(max_rounds=rounds)
        for record in collector.records:
            x = record.transmitter_mask
            expected = set()
            for u in range(network.n):
                if (x >> u) & 1:
                    continue
                neighbors_transmitting = x & network.g_masks[u]
                if popcount(neighbors_transmitting) == 1:
                    sender = next(iter_bits(neighbors_transmitting))
                    expected.add((u, sender))
            actual = {(d.receiver, d.sender) for d in record.deliveries}
            assert actual == expected

    @given(
        n_seed=st.integers(0, 100),
        script_seed=st.integers(0, 100),
        engine_seed=st.integers(0, 100),
        adversary_index=st.integers(0, len(ADVERSARY_FACTORIES) - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_determinism_across_identical_runs(
        self, n_seed, script_seed, engine_seed, adversary_index
    ):
        network = random_network(n_seed)
        rounds = 5

        def execute():
            processes = scripted_processes(
                network, random_scripts(network, script_seed, rounds)
            )
            collector = TraceCollector()
            engine = RadioNetworkEngine(
                network,
                processes,
                ADVERSARY_FACTORIES[adversary_index](),
                seed=engine_seed,
                observers=[collector],
            )
            engine.run(max_rounds=rounds)
            return [
                (r.transmitter_mask, tuple((d.receiver, d.sender) for d in r.deliveries))
                for r in collector.records
            ]

        assert execute() == execute()


class TestTopologyLegalityUnderRandomAdversaries:
    @given(
        n_seed=st.integers(0, 120),
        adversary_index=st.integers(0, len(ADVERSARY_FACTORIES) - 1),
        rounds=st.integers(1, 8),
        engine_seed=st.integers(0, 300),
    )
    @settings(max_examples=40, deadline=None)
    def test_validated_engine_never_raises(
        self, n_seed, adversary_index, rounds, engine_seed
    ):
        """With validation enabled, every shipped oblivious adversary
        produces legal topologies on arbitrary dual graphs."""
        network = random_network(n_seed)
        processes = scripted_processes(network, {0: {0: 1.0}})
        engine = RadioNetworkEngine(
            network,
            processes,
            ADVERSARY_FACTORIES[adversary_index](),
            seed=engine_seed,
            validate_topologies=True,
        )
        engine.run(max_rounds=rounds)


class TestCoinIndependenceFromAdversary:
    @given(n_seed=st.integers(0, 60), engine_seed=st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_transmitter_coins_identical_across_adversaries(
        self, n_seed, engine_seed
    ):
        """The adversary cannot perturb the nodes' coins: the realized
        transmitter masks are identical run-to-run when only the link
        process differs (plans here don't depend on feedback)."""
        network = random_network(n_seed)
        rounds = 4
        scripts = random_scripts(network, n_seed + 1, rounds)

        def masks_for(adversary: LinkProcess):
            processes = scripted_processes(network, scripts)
            collector = TraceCollector()
            engine = RadioNetworkEngine(
                network, processes, adversary, seed=engine_seed, observers=[collector]
            )
            engine.run(max_rounds=rounds)
            return [r.transmitter_mask for r in collector.records]

        assert masks_for(NoFlakyLinks()) == masks_for(AllFlakyLinks())
