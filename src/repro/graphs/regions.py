"""Region decomposition of geographic dual graphs (from [3]).

The analysis of the Section 4.3 local broadcast algorithm leans on a
property of geographic graphs "first established in [3]": the nodes can
be partitioned into regions ``R = {R_1, R_2, …}`` such that

1. all nodes in the same region are mutually connected in ``G``, and
2. each region has at most ``γ_r = O(1)`` *neighboring* regions —
   regions containing a ``G'``-neighbor of one of its nodes — where the
   constant depends only on the geographic parameter ``r``.

We realize the decomposition the standard way: square grid cells of
side ``1/√2``. Any two points in one cell are at distance at most the
cell diagonal ``= 1``, so the geographic constraint forces them to be
``G``-adjacent (property 1). A ``G'`` edge spans distance at most
``r``, so neighboring regions' cells are within ``r`` of each other and
there are at most ``(2·(⌈r·√2⌉ + 1) + 1)²`` of them (property 2).

The decomposition is *analysis machinery*, not algorithm state — the
Section 4.3 algorithm never looks at regions. It is exported so tests
can check the paper's per-region claims (O(log n) leaders per region,
etc.) and so benches can report region statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.core.errors import GraphValidationError
from repro.core.trace import iter_bits

from repro.graphs.dual_graph import DualGraph

__all__ = ["RegionDecomposition", "max_region_neighbors_bound"]

#: Grid cell side: diagonal exactly 1, so same-cell ⇒ distance ≤ 1 ⇒ G edge.
CELL_SIDE = 1.0 / math.sqrt(2.0)


def max_region_neighbors_bound(grey_ratio: float) -> int:
    """The constant ``γ_r``: an upper bound on neighboring regions.

    A ``G'`` edge spans at most ``r``; measured in cells that is
    ``⌈r / CELL_SIDE⌉ = ⌈r·√2⌉`` cells, plus one for within-cell
    offsets, in each direction.
    """
    reach = math.ceil(grey_ratio * math.sqrt(2.0)) + 1
    return (2 * reach + 1) ** 2


@dataclass(frozen=True)
class RegionDecomposition:
    """Grid-cell region decomposition of an embedded dual graph.

    Attributes
    ----------
    graph:
        The decomposed graph (must carry an embedding).
    region_of:
        ``region_of[u]`` is the region index of node ``u``.
    regions:
        ``regions[i]`` is the tuple of node ids in region ``i``
        (non-empty, ordered by id).
    neighbor_sets:
        ``neighbor_sets[i]`` is the set of region indices (including
        ``i`` itself) containing a ``G'``-neighbor of region ``i``.
    """

    graph: DualGraph
    region_of: tuple[int, ...]
    regions: tuple[tuple[int, ...], ...]
    neighbor_sets: tuple[frozenset[int], ...]

    @classmethod
    def build(cls, graph: DualGraph) -> "RegionDecomposition":
        """Decompose ``graph`` by grid cells of side ``1/√2``."""
        if graph.embedding is None:
            raise GraphValidationError(
                "region decomposition requires an embedded (geographic) graph"
            )
        cell_of_node: list[tuple[int, int]] = [
            (math.floor(x / CELL_SIDE), math.floor(y / CELL_SIDE))
            for x, y in graph.embedding
        ]
        cell_index: dict[tuple[int, int], int] = {}
        members: list[list[int]] = []
        region_of = []
        for u, cell in enumerate(cell_of_node):
            idx = cell_index.get(cell)
            if idx is None:
                idx = len(members)
                cell_index[cell] = idx
                members.append([])
            members[idx].append(u)
            region_of.append(idx)

        neighbor_sets: list[set[int]] = [set() for _ in members]
        for u in range(graph.n):
            ru = region_of[u]
            neighbor_sets[ru].add(ru)
            for v in iter_bits(graph.gp_masks[u]):
                neighbor_sets[ru].add(region_of[v])

        return cls(
            graph=graph,
            region_of=tuple(region_of),
            regions=tuple(tuple(m) for m in members),
            neighbor_sets=tuple(frozenset(s) for s in neighbor_sets),
        )

    # ------------------------------------------------------------------
    # Queries used by tests and benches
    # ------------------------------------------------------------------
    @property
    def num_regions(self) -> int:
        return len(self.regions)

    def max_region_size(self) -> int:
        return max(len(r) for r in self.regions)

    def max_neighboring_regions(self) -> int:
        """Observed ``γ_r`` (should sit below the analytic bound)."""
        return max(len(s) for s in self.neighbor_sets)

    def regions_of_nodes(self, nodes: Iterable[int]) -> set[int]:
        """Region indices covering the given nodes."""
        return {self.region_of[u] for u in nodes}

    def verify_same_region_g_adjacency(self) -> None:
        """Check property 1: same-region nodes are pairwise ``G``-adjacent."""
        for members in self.regions:
            for a_pos, u in enumerate(members):
                for v in members[a_pos + 1 :]:
                    if not self.graph.has_g_edge(u, v):
                        raise GraphValidationError(
                            f"region property violated: nodes {u},{v} share a "
                            f"region but lack a G edge"
                        )

    def summary(self) -> str:
        return (
            f"regions={self.num_regions}, max_size={self.max_region_size()}, "
            f"max_neighbors={self.max_neighboring_regions()}"
        )
