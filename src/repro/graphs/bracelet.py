"""The bracelet network of Theorem 4.3.

Quoting Section 4.2: select two non-intersecting head sets
``A = {a_1, …, a_L}`` and ``B = {b_1, …, b_L}`` with ``L = √(n/2)``.
For each head, build a *band* — a ``G`` path of length ``L`` hanging
off the head. Connect one secret pair ``(a_t, b_t)`` in ``G`` (the
*clasp*). Connect the far endpoints of all bands into a ``G`` clique
(so ``G`` is connected). Finally, add ``G'`` edges between **every**
pair ``(a_i, b_j)``.

Totals: ``2 L`` bands of ``L`` nodes each, i.e. ``n = 2 L²`` nodes.

Why it defeats coordination: any information common to both sides must
either cross the secret clasp or travel down a band, through the
endpoint clique, and back up — ``Ω(L)`` rounds. Until then, the two
sides behave *independently*, so an oblivious adversary can pre-simulate
each band in isolation (Lemma 4.4's isolated broadcast functions),
predict how many heads will broadcast each round, and schedule the
cross ``G'`` edges so that informative receptions across the clasp are
as rare as winning the β-hitting game: ``Ω(√n / log n)`` rounds.

Node id layout (side ∈ {A=0, B=1}, band ``i ∈ [L]``, depth
``j ∈ [L]``, head is depth 0)::

    id = side * L² + i * L + j
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.core.errors import GraphValidationError
from repro.graphs.dual_graph import DualGraph, Edge
from repro.registry import register_graph

__all__ = ["BraceletNetwork", "bracelet"]


@dataclass(frozen=True)
class BraceletNetwork:
    """A bracelet instance: the graph plus its secret clasp.

    ``clasp_index`` is the secret ``t``: the clasp joins head
    ``a_t`` = :meth:`head_a` ``(t)`` to head ``b_t`` = :meth:`head_b`
    ``(t)``. As with the dual clique, experiment code must hand
    algorithms only :attr:`graph`.
    """

    graph: DualGraph
    band_length: int
    clasp_index: int

    @property
    def n(self) -> int:
        return self.graph.n

    def head_a(self, i: int) -> int:
        """Node id of head ``a_{i+1}`` (0-indexed band ``i``)."""
        self._check_band(i)
        return i * self.band_length

    def head_b(self, i: int) -> int:
        """Node id of head ``b_{i+1}`` (0-indexed band ``i``)."""
        self._check_band(i)
        return self.band_length**2 + i * self.band_length

    def band_a(self, i: int) -> list[int]:
        """Node ids of side-A band ``i``, head first."""
        head = self.head_a(i)
        return list(range(head, head + self.band_length))

    def band_b(self, i: int) -> list[int]:
        """Node ids of side-B band ``i``, head first."""
        head = self.head_b(i)
        return list(range(head, head + self.band_length))

    def heads_a(self) -> list[int]:
        """All side-A heads (the paper's set ``A``)."""
        return [self.head_a(i) for i in range(self.band_length)]

    def heads_b(self) -> list[int]:
        """All side-B heads (the paper's set ``B``)."""
        return [self.head_b(i) for i in range(self.band_length)]

    @property
    def clasp(self) -> Edge:
        """The secret ``G`` edge ``(a_t, b_t)``."""
        return (self.head_a(self.clasp_index), self.head_b(self.clasp_index))

    def endpoints(self) -> list[int]:
        """Far endpoints of every band (the ``G`` clique members)."""
        last = self.band_length - 1
        return [self.head_a(i) + last for i in range(self.band_length)] + [
            self.head_b(i) + last for i in range(self.band_length)
        ]

    def head_index(self, node: int) -> Optional[tuple[str, int]]:
        """Classify ``node``: ``("A", i)`` / ``("B", i)`` if a head, else ``None``."""
        length = self.band_length
        side, rem = divmod(node, length**2)
        band, depth = divmod(rem, length)
        if depth != 0:
            return None
        return ("A" if side == 0 else "B", band)

    def _check_band(self, i: int) -> None:
        if not 0 <= i < self.band_length:
            raise GraphValidationError(
                f"band index {i} outside [0, {self.band_length})"
            )


def bracelet(
    band_length: int,
    *,
    clasp_index: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> BraceletNetwork:
    """Build a bracelet network with ``n = 2 * band_length²`` nodes.

    Parameters
    ----------
    band_length:
        The paper's ``L = √(n/2)``: both the number of bands per side
        and the length of each band.
    clasp_index:
        The secret band index ``t``; drawn uniformly via ``rng`` when
        omitted.
    rng:
        Randomness for the clasp draw (defaults to a fixed seed).
    """
    if band_length < 2:
        raise GraphValidationError("bracelet needs band_length >= 2")
    length = band_length
    rng = rng or random.Random(0xB2AC)
    t = clasp_index if clasp_index is not None else rng.randrange(length)
    if not 0 <= t < length:
        raise GraphValidationError(f"clasp_index={t} outside [0, {length})")

    n = 2 * length * length
    g_edges: list[Edge] = []

    def node(side: int, band: int, depth: int) -> int:
        return side * length * length + band * length + depth

    # Bands: G paths, head (depth 0) to endpoint (depth L-1).
    for side in (0, 1):
        for band in range(length):
            g_edges.extend(
                (node(side, band, d), node(side, band, d + 1)) for d in range(length - 1)
            )

    # Endpoint clique across all 2L bands keeps G connected.
    endpoints = [node(side, band, length - 1) for side in (0, 1) for band in range(length)]
    g_edges.extend(
        (endpoints[i], endpoints[j])
        for i in range(len(endpoints))
        for j in range(i + 1, len(endpoints))
    )

    # The secret clasp.
    clasp_edge = (node(0, t, 0), node(1, t, 0))
    g_edges.append(clasp_edge)

    # Flaky head-to-head complete bipartite layer (minus the clasp).
    extra: list[Edge] = [
        (node(0, i, 0), node(1, j, 0))
        for i in range(length)
        for j in range(length)
        if not (i == t and j == t)
    ]

    graph = DualGraph.from_edges(n, g_edges, extra, name=f"bracelet-L{length}")
    return BraceletNetwork(graph=graph, band_length=length, clasp_index=t)


@register_graph("bracelet")
def _spec_bracelet(
    ctx, *, band_length: int, clasp_index: Optional[int] = None
) -> BraceletNetwork:
    """Per-trial secret clasp from the ``"clasp"`` derivation stream
    (the label the E8 closures always used) unless pinned explicitly."""
    if clasp_index is not None:
        return bracelet(int(band_length), clasp_index=int(clasp_index))
    return bracelet(int(band_length), rng=ctx.rng("clasp"))
