"""``RoundTopology.validate`` on word rows: the same error, the same node.

The check runs on uint64 word rows instead of a per-node big-int loop.
These tests pin the message of each violation kind, the order in which
competing violations are reported, and agreement with a node-by-node
scan over random corruptions — for topologies built from masks and
from word rows alike.
"""

from __future__ import annotations

import random

import pytest

from repro.adversaries.base import RoundTopology
from repro.core.errors import TopologyViolationError
from repro.graphs.dual_graph import DualGraph, pack_mask_rows

#: (n, flaky chord span), both past one byte row and one 64-bit word.
#: The 70-node graph sets more than one bit in 64 and is checked for
#: symmetry on the unpacked matrix; the 400-node graph never is.
SHAPES = ((70, 12), (400, 2))


@pytest.fixture(params=SHAPES, ids=lambda shape: f"n{shape[0]}")
def network(request) -> DualGraph:
    """A path ``G`` whose flaky edges are the chords up to ``span`` apart."""
    n, span = request.param
    return DualGraph.from_edges(
        n,
        [(u, u + 1) for u in range(n - 1)],
        [(u, v) for u in range(n) for v in range(u + 2, min(n, u + span + 1))],
    )


@pytest.fixture(params=("masks", "rows"))
def build(request) -> str:
    """Which side a test's topologies are built from."""
    return request.param


def _topology(masks, build: str) -> RoundTopology:
    if build == "rows":
        return RoundTopology(rows=pack_mask_rows(masks, len(masks)))
    return RoundTopology(masks=tuple(masks))


def _message(network: DualGraph, masks, build: str) -> str:
    with pytest.raises(TopologyViolationError) as caught:
        _topology(masks, build).validate(network)
    return str(caught.value)


def _scan(network: DualGraph, masks) -> "str | None":
    """The node-by-node scan: the first violation it meets, or None."""
    for u in range(network.n):
        if network.g_masks[u] & ~masks[u]:
            return f"round topology drops reliable G edges at node {u}"
        if masks[u] & ~network.gp_masks[u]:
            return f"round topology adds edges outside G' at node {u}"
    for u in range(network.n):
        for v in range(network.n):
            if (masks[u] >> v) & 1 and not (masks[v] >> u) & 1:
                return f"round topology asymmetric at ({u}, {v})"
    return None


def _toggle(masks: list, u: int, v: int) -> None:
    masks[u] ^= 1 << v
    masks[v] ^= 1 << u


class TestViolationKinds:
    def test_legal_topologies_pass(self, network, build):
        _topology(network.g_masks, build).validate(network)
        _topology(network.gp_masks, build).validate(network)

    def test_dropped_g_edge_names_its_lower_node(self, network, build):
        masks = list(network.g_masks)
        _toggle(masks, 40, 41)
        assert _message(network, masks, build) == (
            "round topology drops reliable G edges at node 40"
        )

    def test_edge_outside_g_prime_names_its_lower_node(self, network, build):
        masks = list(network.g_masks)
        _toggle(masks, 10, 60)
        assert _message(network, masks, build) == (
            "round topology adds edges outside G' at node 10"
        )

    def test_asymmetric_flaky_edge_names_the_first_pair(self, network, build):
        masks = list(network.g_masks)
        masks[67] |= 1 << 65  # the flaky chord, on one side only
        assert _message(network, masks, build) == "round topology asymmetric at (67, 65)"

    def test_a_bit_past_the_node_range_adds_an_edge(self, network, build):
        width = 64 * ((network.n + 63) // 64)
        for bit in (network.n + 1, 1000):
            if build == "rows" and bit >= width:
                continue  # word rows cannot hold a bit past their last word
            masks = list(network.g_masks)
            masks[33] |= 1 << bit
            assert _message(network, masks, build) == (
                "round topology adds edges outside G' at node 33"
            )

    def test_a_padding_bit_in_the_last_word_adds_an_edge(self, network, build):
        masks = list(network.g_masks)
        masks[33] |= 1 << (64 * ((network.n + 63) // 64) - 1)
        assert _message(network, masks, build) == (
            "round topology adds edges outside G' at node 33"
        )

    def test_wrong_mask_count(self, network, build):
        assert _message(network, network.g_masks[:-1], build) == (
            "topology mask count differs from n"
        )


class TestReportOrder:
    def test_lowest_node_first_whatever_the_kind(self, network, build):
        masks = list(network.g_masks)
        _toggle(masks, 50, 51)  # drop at node 50
        _toggle(masks, 20, 55)  # add at node 20
        assert _message(network, masks, build).endswith("at node 20")

    def test_drop_before_add_at_the_same_node(self, network, build):
        masks = list(network.g_masks)
        _toggle(masks, 30, 31)  # drop at 30
        _toggle(masks, 30, 60)  # add at 30
        assert _message(network, masks, build) == (
            "round topology drops reliable G edges at node 30"
        )

    def test_subset_violations_before_asymmetry(self, network, build):
        masks = list(network.g_masks)
        masks[3] |= 1 << 5  # asymmetric at (3, 5)
        _toggle(masks, 60, 61)  # drop at 60
        assert _message(network, masks, build) == (
            "round topology drops reliable G edges at node 60"
        )

    @pytest.mark.parametrize("seed", range(40))
    def test_agrees_with_a_node_by_node_scan(self, network, build, seed):
        rng = random.Random(seed)
        masks = list(
            RoundTopology.from_flaky_edges(
                network, [(u, u + 2) for u in range(network.n - 2) if rng.random() < 0.5]
            ).masks
        )
        for _ in range(rng.randint(1, 3)):
            u, v = rng.sample(range(network.n), 2)
            if rng.random() < 0.5:
                _toggle(masks, u, v)
            else:
                masks[u] ^= 1 << v
        expected = _scan(network, masks)
        if expected is None:
            _topology(masks, build).validate(network)
        else:
            assert _message(network, masks, build) == expected


class TestValidationMemo:
    def test_a_passed_topology_is_checked_again_on_another_network(
        self, network, build
    ):
        topology = _topology(network.g_masks, build)
        topology.validate(network)
        topology.validate(network)  # remembered: no second check
        wider = DualGraph.from_edges(
            network.n, [(u, u + 1) for u in range(network.n - 1)] + [(0, 2)]
        )
        with pytest.raises(TopologyViolationError, match="drops reliable G edges at node 0"):
            topology.validate(wider)
