"""Link processes: the adversaries that control unreliable links.

Section 2 of the paper: "the choice of which edges from ``E' \\ E`` to
include in the communication topology each round is determined by an
adversary called a *link process*", and three classical strength levels
are studied:

* **oblivious** — commits to all link decisions before the execution
  starts, knowing only the network topology and the algorithm
  description;
* **online adaptive** — sees the execution history through round
  ``r - 1`` (and anything derivable from start-of-round state, such as
  the expected transmitter count ``E[|X| | S]``), but *not* the round-r
  coins;
* **offline adaptive** — additionally sees the round-r random choices,
  i.e. the realized transmitter set.

The engine enforces these entitlements *structurally* through typed
views: an oblivious process is handed an :class:`ObliviousView` that
simply contains no execution state. Subclasses declare their class via
:attr:`LinkProcess.adversary_class`, and the engine constructs the
matching view each round.

The chosen topology is returned as a :class:`RoundTopology` — the full
per-node adjacency bitmasks for the round (``G`` plus chosen flaky
edges). Common patterns (all flaky links on, none on, a cut switched
off) are precomputed once and reused, which keeps adversaries O(1) per
round.
"""

from __future__ import annotations

import abc
import enum
import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.core.errors import TopologyViolationError
from repro.core.trace import iter_bits
from repro.graphs.dual_graph import (
    DualGraph,
    Edge,
    _first_asymmetric_edge,
    _packed_adjacency,
    normalize_edge,
)

__all__ = [
    "AdversaryClass",
    "RoundTopology",
    "ObliviousView",
    "OnlineAdaptiveView",
    "OfflineAdaptiveView",
    "AlgorithmInfo",
    "LinkProcess",
]


class AdversaryClass(enum.Enum):
    """The three adversary strengths of the paper, weakest first."""

    OBLIVIOUS = "oblivious"
    ONLINE_ADAPTIVE = "online-adaptive"
    OFFLINE_ADAPTIVE = "offline-adaptive"

    def at_least(self, other: "AdversaryClass") -> bool:
        """True iff this class is at least as strong as ``other``."""
        order = [
            AdversaryClass.OBLIVIOUS,
            AdversaryClass.ONLINE_ADAPTIVE,
            AdversaryClass.OFFLINE_ADAPTIVE,
        ]
        return order.index(self) >= order.index(other)


@dataclass(frozen=True)
class RoundTopology:
    """The communication topology fixed for one round.

    ``masks[u]`` is the adjacency bitmask of node ``u`` this round. A
    legal topology satisfies ``G ⊆ topology ⊆ G'`` per node; the engine
    validates this when constructed with ``validate=True``.

    Use the factory helpers — they build masks once per pattern. An
    adversary that returns the same instance round after round lets
    the fast engine reuse one cached reception matrix (keyed by the
    ``masks`` tuple's identity) instead of scanning:

    * :meth:`reliable_only` — no flaky edge participates (bare ``G``);
    * :meth:`all_links` — every flaky edge participates (full ``G'``);
    * :meth:`without_cut` — all flaky edges except those crossing a
      node cut (the dense/sparse attackers' "sparse" pattern);
    * :meth:`from_flaky_edges` — an explicit flaky edge subset.
    """

    masks: tuple[int, ...]
    label: str = "custom"

    @classmethod
    def reliable_only(cls, network: DualGraph) -> "RoundTopology":
        """Only the reliable edges of ``G``."""
        return cls(masks=network.g_masks, label="G-only")

    @classmethod
    def all_links(cls, network: DualGraph) -> "RoundTopology":
        """Every potential edge of ``G'``."""
        return cls(masks=network.gp_masks, label="G'-all")

    @classmethod
    def without_cut(cls, network: DualGraph, side_mask: int, *, label: str = "cut-off") -> "RoundTopology":
        """All flaky edges except those crossing the ``side_mask`` cut.

        ``side_mask`` is a bitmask of one side of the cut; flaky edges
        with exactly one endpoint inside it are excluded, all other
        flaky edges are included. Reliable ``G`` edges always remain.
        """
        other = ((1 << network.n) - 1) & ~side_mask
        masks = []
        for u in range(network.n):
            keep = side_mask if (side_mask >> u) & 1 else other
            masks.append(network.g_masks[u] | (network.flaky_masks[u] & keep))
        return cls(masks=tuple(masks), label=label)

    @classmethod
    def from_flaky_edges(
        cls, network: DualGraph, flaky_edges: Iterable[Edge], *, label: str = "edge-set"
    ) -> "RoundTopology":
        """``G`` plus an explicit set of flaky edges.

        Raises :class:`TopologyViolationError` if an edge is not in
        ``G' \\ G`` (adding a ``G`` edge is a no-op, adding a non-``G'``
        edge is illegal).
        """
        masks = list(network.g_masks)
        for u, v in (normalize_edge(a, b) for a, b in flaky_edges):
            if (network.g_masks[u] >> v) & 1:
                continue  # already reliable
            if not (network.gp_masks[u] >> v) & 1:
                raise TopologyViolationError(f"edge ({u}, {v}) is not in G'")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return cls(masks=tuple(masks), label=label)

    @classmethod
    def from_active_flaky_nodes(
        cls, network: DualGraph, active_mask: int, *, label: str = "node-fade"
    ) -> "RoundTopology":
        """Node-level fading: a flaky edge is on iff *both* endpoints are active.

        ``active_mask`` marks unfaded nodes. This is the O(n) pattern
        used by the node-level stochastic link processes; it runs every
        round for fading adversaries, so single-word graphs take a
        vectorized route over the network's cached uint64 masks.
        """
        words = network.word_masks()
        if words is not None:
            g_np, flaky_np = words
            active = np.unpackbits(
                np.frombuffer(active_mask.to_bytes(8, "little"), dtype=np.uint8),
                bitorder="little",
                count=network.n,
            ).astype(bool)
            rows = np.where(
                active, g_np | (flaky_np & np.uint64(active_mask)), g_np
            )
            return cls(masks=tuple(rows.tolist()), label=label)
        masks = []
        for u in range(network.n):
            if (active_mask >> u) & 1:
                masks.append(network.g_masks[u] | (network.flaky_masks[u] & active_mask))
            else:
                masks.append(network.g_masks[u])
        return cls(masks=tuple(masks), label=label)

    def validate(self, network: DualGraph) -> None:
        """Check ``G ⊆ topology ⊆ G'`` and symmetry; raise on violation.

        The checks run on packed byte rows. The error names the lowest
        offending node (a dropped ``G`` edge before an added non-``G'``
        edge at the same node), then the lexicographically first
        asymmetric pair: the violation a node-by-node scan meets first.
        """
        n = network.n
        if len(self.masks) != n:
            raise TopologyViolationError("topology mask count differs from n")
        width = 8 * ((n + 7) // 8)
        try:
            rows = _packed_adjacency(self.masks, n)
            overflow = np.zeros(n, dtype=bool)
        except OverflowError:
            # Bits past the packed width (or a negative mask): edges
            # outside G' at those nodes.
            overflow = np.array([mask < 0 or mask >> width > 0 for mask in self.masks])
            rows = _packed_adjacency([mask & ((1 << width) - 1) for mask in self.masks], n)
        drops = (network.packed_adjacency() & ~rows).any(axis=1)
        adds = (rows & ~network.packed_adjacency(use_gp=True)).any(axis=1) | overflow
        if drops.any() or adds.any():
            u = int(np.argmax(drops | adds))
            if drops[u]:
                raise TopologyViolationError(
                    f"round topology drops reliable G edges at node {u}"
                )
            raise TopologyViolationError(f"round topology adds edges outside G' at node {u}")
        pair = _first_asymmetric_edge(rows, n)
        if pair is not None:
            raise TopologyViolationError(
                f"round topology asymmetric at ({pair[0]}, {pair[1]})"
            )


# ----------------------------------------------------------------------
# Adversary views — the information entitlements
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ObliviousView:
    """What an oblivious link process may see per round: the clock only."""

    round_index: int


@dataclass(frozen=True)
class OnlineAdaptiveView(ObliviousView):
    """Adds start-of-round (coin-free) information.

    ``transmit_probabilities[u]`` is node ``u``'s declared plan
    probability — a deterministic function of its state ``S`` at the
    start of the round, so ``sum(transmit_probabilities)`` is exactly
    the ``E[|X| | S]`` of Theorem 3.1. ``history`` carries the
    per-round transmitter masks and delivery counts through round
    ``r - 1``.
    """

    transmit_probabilities: Sequence[float] = ()
    history: Sequence["HistoryEntry"] = ()

    def expected_transmitters(self) -> float:
        """The conditional expectation ``E[|X| | S]`` for this round."""
        return float(sum(self.transmit_probabilities))


@dataclass(frozen=True)
class OfflineAdaptiveView(OnlineAdaptiveView):
    """Adds the realized round-r coins: the transmitter set itself."""

    transmitter_mask: int = 0

    def transmitters(self) -> list[int]:
        return list(iter_bits(self.transmitter_mask))


@dataclass(frozen=True)
class HistoryEntry:
    """Compact public history of one past round (for adaptive views)."""

    round_index: int
    transmitter_mask: int
    delivery_count: int


@dataclass(frozen=True)
class AlgorithmInfo:
    """The algorithm description an adversary may study before round 0.

    All three adversary classes know "the algorithm being executed"
    (Section 2). ``name`` and ``metadata`` describe it; ``blueprint``
    is an optional callable ``(ProcessContext) -> Process`` with which
    an *oblivious* adversary may pre-simulate the algorithm on
    (sub)networks of its choosing — the isolated broadcast functions of
    Lemma 4.4 are exactly such pre-simulations.
    """

    name: str
    metadata: dict
    blueprint: Optional[object] = None


class LinkProcess(abc.ABC):
    """Base class for adversarial link processes.

    Lifecycle: the engine calls :meth:`start` once before round 0 with
    the network, the algorithm description, and a private RNG, then
    :meth:`choose_topology` every round with a view matching
    :attr:`adversary_class`.
    """

    #: Information entitlement of this adversary; subclasses override.
    adversary_class: AdversaryClass = AdversaryClass.OBLIVIOUS

    def start(self, network: DualGraph, algorithm: AlgorithmInfo, rng: random.Random) -> None:
        """Study the network and algorithm; precompute schedules.

        Oblivious subclasses must derive *all* future behavior from the
        arguments of this call (plus the round index).
        """
        self.network = network
        self.algorithm = algorithm
        self.rng = rng

    @abc.abstractmethod
    def choose_topology(self, view: ObliviousView) -> RoundTopology:
        """Fix the communication topology for ``view.round_index``."""

    def next_boundary(self, round_index: int) -> Optional[int]:
        """The skip contract: first round the mask choice can change.

        Returns the first round strictly after ``round_index`` at which
        :meth:`choose_topology` may return different masks, consume
        randomness, or have any other observable side effect; ``None``
        means "fixed forever". Within ``[round_index, boundary)`` the
        round-skipping engines are licensed to *elide* repeated
        :meth:`choose_topology` calls and reuse the round-``r`` masks,
        so an override additionally promises that the elided calls
        would have been pure (no state mutation, no RNG draws).

        Epoch/pattern adversaries report their next phase flip;
        degenerate stochastic ones (``p_up`` pinned to 0 or 1) report
        ``None``; anything that draws per-round randomness or records
        per-call state must keep the default. The default makes no
        promise (the distribution may change next round), which
        disables skipping over this adversary — the safe behavior for
        adaptive processes and third-party subclasses alike.
        """
        return round_index + 1

    def describe(self) -> str:
        """Human-readable label for experiment tables."""
        return f"{type(self).__name__}[{self.adversary_class.value}]"
