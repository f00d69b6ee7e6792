"""The fast engine's word rule against its bigint candidate scan.

Up to ``_WORD_RULE_MAX_N`` nodes, :meth:`BitsetRadioNetworkEngine._resolve`
resolves reception over the round topology's uint64 word rows: a
listener hears iff ``bitwise_count(rows[u] & X)`` sums to 1 and it is
not transmitting, and the sender is ``64·w + bitwise_count(word − 1)``.
These properties hold it to :meth:`_resolve_candidates`, the paper's
``popcount(X & mask[u]) == 1`` over Python bigints, on random symmetric
topologies and transmitter sets at sizes around every word boundary,
for topologies built from masks and from word rows alike.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.adversaries.base import RoundTopology
from repro.core.fastpath import _WORD_RULE_MAX_N, BitsetRadioNetworkEngine
from repro.graphs.dual_graph import DualGraph, pack_mask_rows

SIZES = (1, 2, 63, 64, 65, 127, 128, 129, 2048)


class _Messages:
    """A kernel stand-in: the message a sender puts on the air."""

    def message_for(self, lane: int, u: int):
        return ("message", u)


def _engine(n: int) -> BitsetRadioNetworkEngine:
    """A fast engine reduced to what stage 4 reads."""
    assert n <= _WORD_RULE_MAX_N
    engine = BitsetRadioNetworkEngine.__new__(BitsetRadioNetworkEngine)
    engine.network = SimpleNamespace(n=n)
    engine._trace = None
    engine._kernel = _Messages()
    engine._lane = 0
    return engine


def _masks(adjacency: np.ndarray) -> tuple[int, ...]:
    packed = np.packbits(adjacency, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def _random_masks(rng: np.random.Generator, n: int, density: float) -> tuple[int, ...]:
    upper = np.triu(rng.random((n, n)) < density, k=1)
    return _masks(upper | upper.T)


def _transmitters(rng: np.random.Generator, n: int, fraction: float):
    transmit = rng.random(n) < fraction
    mask = int.from_bytes(np.packbits(transmit, bitorder="little").tobytes(), "little")
    return transmit, mask


def _both(engine, transmit, mask, masks):
    """Word-rule deliveries for the masks- and rows-built topology, and
    the scan's."""
    n = len(masks)
    by_masks = engine._resolve(transmit, mask, RoundTopology(masks=masks))
    by_rows = engine._resolve(
        transmit, mask, RoundTopology(rows=pack_mask_rows(masks, n))
    )
    return by_masks, by_rows, engine._resolve_candidates(mask, masks)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", range(4))
def test_word_rule_matches_the_scan(n, seed):
    rng = np.random.default_rng([n, seed])
    engine = _engine(n)
    for density in (2.0 / max(n, 2), 0.05, 0.5):
        masks = _random_masks(rng, n, density)
        for fraction in (1.0 / max(n, 1), 0.02, 0.3, 1.0):
            transmit, mask = _transmitters(rng, n, fraction)
            by_masks, by_rows, scanned = _both(engine, transmit, mask, masks)
            assert by_masks == scanned
            assert by_rows == scanned


def _star_to(n: int, sender: int) -> tuple[int, ...]:
    """Every other node neighbors ``sender`` only."""
    masks = [0] * n
    for u in range(n):
        if u != sender:
            masks[u] |= 1 << sender
            masks[sender] |= 1 << u
    return tuple(masks)


def _senders(n: int) -> list[int]:
    """Bit 63 of every word, and the highest node."""
    return sorted({*range(63, n, 64), n - 1})


@pytest.mark.parametrize("n", SIZES)
def test_lone_sender_at_word_edges_is_heard_by_all(n):
    engine = _engine(n)
    for sender in _senders(n):
        masks = _star_to(n, sender)
        transmit = np.zeros(n, dtype=bool)
        transmit[sender] = True
        by_masks, by_rows, scanned = _both(engine, transmit, 1 << sender, masks)
        assert by_masks == by_rows == scanned
        assert [d.receiver for d in by_masks] == [u for u in range(n) if u != sender]
        assert {d.sender for d in by_masks} <= {sender}


@pytest.mark.parametrize("n", [n for n in SIZES if n >= 3])
def test_a_second_sender_in_another_word_silences_the_listener(n):
    engine = _engine(n)
    listener, first, last = 0, min(63, n - 2), n - 1
    masks = [0] * n
    for sender in (first, last):
        masks[listener] |= 1 << sender
        masks[sender] |= 1 << listener
    transmit = np.zeros(n, dtype=bool)
    transmit[[first, last]] = True
    mask = (1 << first) | (1 << last)
    by_masks, by_rows, scanned = _both(engine, transmit, mask, tuple(masks))
    assert by_masks == by_rows == scanned == []


@pytest.mark.parametrize("n", [n for n in SIZES if n % 64])
def test_node_fading_rows_keep_the_last_words_padding_zero(n):
    rng = np.random.default_rng(n)
    upper = np.triu(rng.random((n, n)) < 0.3, k=1)
    flaky = np.triu(rng.random((n, n)) < 0.3, k=1) & ~upper
    g = [(int(u), int(v)) for u, v in zip(*np.nonzero(upper))]
    extra = [(int(u), int(v)) for u, v in zip(*np.nonzero(flaky))]
    network = DualGraph.from_edges(n, g, extra)
    active = rng.random(n) < 0.5
    topology = RoundTopology.from_active_flaky_nodes(network, active)
    rows = topology.rows
    assert rows.shape == (n, (n + 63) // 64)
    assert not (rows[:, -1] >> np.uint64(n % 64)).any()
    topology.validate(network)
    engine = _engine(n)
    transmit, mask = _transmitters(rng, n, 0.1)
    assert engine._resolve(transmit, mask, topology) == engine._resolve_candidates(
        mask, topology.masks
    )
