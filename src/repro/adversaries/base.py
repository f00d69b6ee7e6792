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
    normalize_edge,
    pack_mask_rows,
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


class RoundTopology:
    """The communication topology fixed for one round.

    ``masks[u]`` is the adjacency bitmask of node ``u`` this round, and
    ``rows`` is the same adjacency as a frozen ``(n, ⌈n/64⌉)`` uint64
    word array (:func:`~repro.graphs.dual_graph.pack_mask_rows`). A
    topology is built from either side; the other is derived on first
    use and cached on the instance. The reference engine and the
    adaptive adversaries read ``masks``; the fast engine's reception
    reads ``rows``. A legal topology satisfies ``G ⊆ topology ⊆ G'``
    per node; the engines check this with :meth:`validate` when
    constructed with ``validate_topologies=True``.

    Use the factory helpers — they build masks once per pattern. An
    adversary that returns the same instance round after round pays
    for its word rows and its validation once:

    * :meth:`reliable_only` — no flaky edge participates (bare ``G``);
    * :meth:`all_links` — every flaky edge participates (full ``G'``);
    * :meth:`without_cut` — all flaky edges except those crossing a
      node cut (the dense/sparse attackers' "sparse" pattern);
    * :meth:`from_flaky_edges` — an explicit flaky edge subset;
    * :meth:`from_active_flaky_nodes` — node-level fading, built as
      word rows.
    """

    __slots__ = ("label", "_masks", "_rows", "_outside", "_valid_for")

    def __init__(
        self,
        masks: Optional[Sequence[int]] = None,
        label: str = "custom",
        *,
        rows: Optional[np.ndarray] = None,
    ) -> None:
        if (masks is None) == (rows is None):
            raise TypeError("RoundTopology takes exactly one of masks and rows")
        self.label = label
        self._masks = None if masks is None else tuple(masks)
        if rows is not None:
            # The topology owns its rows: they are frozen in place.
            rows = np.ascontiguousarray(rows, dtype=np.uint64)
            if rows.ndim != 2:
                raise ValueError("topology rows must be an (n, words) array")
            rows.flags.writeable = False
        self._rows = rows
        #: Per node, whether its mask had bits the rows cannot hold.
        self._outside: Optional[np.ndarray] = None
        #: The network this topology last validated against.
        self._valid_for: Optional[DualGraph] = None

    def __repr__(self) -> str:
        return f"RoundTopology(label={self.label!r}, n={len(self)})"

    def __len__(self) -> int:
        return len(self._masks) if self._masks is not None else self._rows.shape[0]

    @property
    def masks(self) -> tuple[int, ...]:
        """Per-node adjacency bitmasks (derived from ``rows`` if needed)."""
        masks = self._masks
        if masks is None:
            rows = self._rows
            if rows.shape[1] == 1:
                masks = tuple(rows[:, 0].tolist())
            else:
                data = rows.astype("<u8", copy=False).tobytes()
                width = 8 * rows.shape[1]
                masks = tuple(
                    int.from_bytes(data[start : start + width], "little")
                    for start in range(0, len(data), width)
                )
            self._masks = masks
        return masks

    @property
    def rows(self) -> np.ndarray:
        """Frozen uint64 word rows (derived from ``masks`` if needed).

        A negative mask, or bits past the last word, cannot be held in
        word rows: those bits are dropped here, which reception never
        notices (no node past ``n`` transmits), and :meth:`validate`
        reports them as edges outside ``G'``.
        """
        rows = self._rows
        if rows is None:
            masks = self._masks
            n = len(masks)
            try:
                rows = pack_mask_rows(masks, n)
            except OverflowError:
                limit = (1 << (64 * ((n + 63) // 64))) - 1
                self._outside = np.array([mask < 0 or mask > limit for mask in masks])
                rows = pack_mask_rows([mask & limit for mask in masks], n)
            self._rows = rows
        return rows

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
        cls, network: DualGraph, active: np.ndarray, *, label: str = "node-fade"
    ) -> "RoundTopology":
        """Node-level fading: a flaky edge is on iff *both* endpoints are active.

        ``active`` is a boolean vector over the nodes, true for an
        unfaded node. This is the O(n) pattern used by the node-level
        link processes; it runs every round for fading adversaries, so
        it is built as word rows over the network's cached ones, at any
        ``n``: an active node keeps its active flaky neighbors, a faded
        node keeps ``G`` only.
        """
        active = np.asarray(active, dtype=bool)
        if active.shape != (network.n,):
            raise ValueError(f"need one active flag per node, got shape {active.shape}")
        g_rows = network.word_rows("g")
        packed = np.zeros(8 * g_rows.shape[1], dtype=np.uint8)
        packed[: (network.n + 7) // 8] = np.packbits(active, bitorder="little")
        kept = (network.word_rows("flaky") & packed.view("<u8")) * active[:, None]
        return cls(rows=g_rows | kept, label=label)

    def validate(self, network: DualGraph) -> None:
        """Check ``G ⊆ topology ⊆ G'`` and symmetry; raise on violation.

        The checks run on word rows. The error names the lowest
        offending node (a dropped ``G`` edge before an added non-``G'``
        edge at the same node), then the lexicographically first
        asymmetric pair: the violation a node-by-node scan meets first.
        A topology remembers the network it last passed against, so a
        pattern an adversary returns round after round is checked once.
        """
        if self._valid_for is network:
            return
        n = network.n
        if len(self) != n:
            raise TopologyViolationError("topology mask count differs from n")
        g_rows = network.word_rows("g")
        rows = self.rows
        if rows.shape != g_rows.shape:
            raise TopologyViolationError("topology rows are not ⌈n/64⌉ words wide")
        drops = (g_rows & ~rows).any(axis=1)
        # Padding bits past n sit outside G' as well.
        adds = (rows & ~network.word_rows("gp")).any(axis=1)
        if self._outside is not None:
            adds |= self._outside
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
        self._valid_for = network


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
