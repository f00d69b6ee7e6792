"""The dual graph network type: ``G = (V, E)`` and ``G' = (V, E')`` with ``E ⊆ E'``.

Section 2 of the paper describes the network with two graphs over the
same vertex set: ``G`` holds the *reliable* links that participate in
every round's communication topology, while ``G' \\ G`` holds the
*unreliable* (here: "flaky") links that the adversarial link process
may add round by round. The model requires ``E ⊆ E'``; with ``G = G'``
it degenerates to the classic static protocol model.

:class:`DualGraph` is immutable and validated on construction. For the
engine's hot path it precomputes, per node ``u``:

* ``g_masks[u]`` — bitmask of ``u``'s neighbors in ``G``;
* ``gp_masks[u]`` — bitmask of ``u``'s neighbors in ``G'``;
* ``flaky_masks[u] = gp_masks[u] & ~g_masks[u]`` — the adversary's
  per-node room to maneuver.

Bitmasks make per-round reception resolution an ``O(n)`` loop of
word-parallel intersections, which is what lets pure-Python simulations
reach the network sizes the lower-bound sweeps need. The same
adjacency is also available as cached ``(n, ⌈n/64⌉)`` uint64 word rows
(:meth:`DualGraph.word_rows`), which the fast engine's reception,
topology validation and node fading read.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.core.errors import GraphValidationError
from repro.core.trace import iter_bits, popcount

__all__ = [
    "DualGraph",
    "Edge",
    "normalize_edge",
    "edges_from_adjacency",
    "pack_mask_rows",
]


Edge = tuple[int, int]


def normalize_edge(u: int, v: int) -> Edge:
    """Return the canonical ``(min, max)`` form of an undirected edge."""
    if u == v:
        raise GraphValidationError(f"self-loop at node {u}")
    return (u, v) if u < v else (v, u)


def edges_from_adjacency(masks: Sequence[int]) -> set[Edge]:
    """Recover the canonical edge set from adjacency bitmasks."""
    edges: set[Edge] = set()
    for u, mask in enumerate(masks):
        for v in iter_bits(mask):
            if v > u:
                edges.add((u, v))
    return edges


#: Below this edge count the plain Python loop beats numpy's setup cost.
_VECTORIZE_EDGE_THRESHOLD = 1024


def _masks_from_edges(n: int, edges: Iterable[Edge]) -> list[int]:
    edge_list = edges if isinstance(edges, (list, tuple)) else list(edges)
    if len(edge_list) < _VECTORIZE_EDGE_THRESHOLD:
        masks = [0] * n
        for u, v in edge_list:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphValidationError(f"edge ({u}, {v}) outside node range [0, {n})")
            if u == v:
                raise GraphValidationError(f"self-loop at node {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return masks
    # Dense families (cliques, funnels) carry Θ(n²) edges; set the bits
    # through packed byte rows at C speed instead of 2|E| big-int ops.
    flat = np.fromiter(
        (coord for edge in edge_list for coord in edge),
        dtype=np.int64,
        count=2 * len(edge_list),
    )
    us, vs = flat[0::2], flat[1::2]
    bad = (us < 0) | (us >= n) | (vs < 0) | (vs >= n)
    if bad.any():
        i = int(np.nonzero(bad)[0][0])
        raise GraphValidationError(
            f"edge ({int(us[i])}, {int(vs[i])}) outside node range [0, {n})"
        )
    loops = us == vs
    if loops.any():
        i = int(np.nonzero(loops)[0][0])
        raise GraphValidationError(f"self-loop at node {int(us[i])}")
    nbytes = (n + 7) // 8
    packed = np.zeros((n, nbytes), dtype=np.uint8)
    bit_v = np.left_shift(1, (vs & 7).astype(np.uint8)).astype(np.uint8)
    bit_u = np.left_shift(1, (us & 7).astype(np.uint8)).astype(np.uint8)
    np.bitwise_or.at(packed, (us, vs >> 3), bit_v)
    np.bitwise_or.at(packed, (vs, us >> 3), bit_u)
    return [int.from_bytes(packed[u].tobytes(), "little") for u in range(n)]


def _first_asymmetric_edge(rows: np.ndarray, n: int) -> Optional[tuple[int, int]]:
    """Lexicographically smallest ``(u, v)`` with ``v ∈ N(u)`` but ``u ∉ N(v)``.

    ``rows`` are word rows (:func:`pack_mask_rows`) with no bit set at
    or past ``n``. The one dense-or-sparse rule of the structural
    checks. Below one set bit in 64, only the bytes that carry edge bits
    (≤ 2|E| of them) are expanded: an O(n²/8) scan plus O(E log E) set
    membership, so a 2-regular ring at n = 10⁴ never materializes n × n
    bits. At or above it, the unpacked bit matrix is compared with its
    transpose. On random symmetric matrices that is the faster check
    there for every n from 70 to 3,000 (at n = 600 and one bit in 64:
    0.4 ms against 1.1 ms); at n = 5,000 the walk wins down to one bit
    in 32.
    """
    packed = np.ascontiguousarray(rows).view(np.uint8)
    if 64 * int(np.bitwise_count(rows).sum(dtype=np.int64)) >= n * n:
        bits = np.unpackbits(packed, axis=1, bitorder="little", count=n)
        asymmetric = bits & ~bits.T
        if not asymmetric.any():
            return None
        u, v = np.argwhere(asymmetric)[0]
        return int(u), int(v)
    heads, cols = np.nonzero(packed)
    if heads.size == 0:
        return None
    vals = packed[heads, cols]
    parts_u: list[np.ndarray] = []
    parts_v: list[np.ndarray] = []
    for bit in range(8):
        hit = ((vals >> np.uint8(bit)) & np.uint8(1)).astype(bool)
        if hit.any():
            parts_u.append(heads[hit])
            parts_v.append((cols[hit] << 3) + bit)
    u = np.concatenate(parts_u)
    v = np.concatenate(parts_v)
    forward = u * np.int64(n) + v
    reverse = v * np.int64(n) + u
    missing = ~np.isin(reverse, forward, assume_unique=True)
    if not missing.any():
        return None
    worst = int(forward[missing].min())
    return worst // n, worst % n


def pack_mask_rows(masks: Sequence[int], n: int) -> np.ndarray:
    """Bitmasks as a read-only ``(len(masks), ⌈n/64⌉)`` uint64 word array.

    Word ``w`` of row ``u`` holds bits ``64w … 64w + 63`` of
    ``masks[u]``, least significant first. Single-word graphs take the
    direct ``np.array`` route; wider graphs serialize through
    little-endian bytes. A negative mask, or one with a bit past the
    last word, raises :class:`OverflowError`. The result is frozen: it
    is shared between callers.
    """
    words = (n + 63) // 64
    if words == 1:
        rows = np.array(masks, dtype=np.uint64).reshape(len(masks), 1)
        rows.flags.writeable = False
        return rows
    buffer = b"".join(mask.to_bytes(words * 8, "little") for mask in masks)
    return np.frombuffer(buffer, dtype="<u8").reshape(len(masks), words)


@dataclass(frozen=True)
class DualGraph:
    """An immutable dual graph with precomputed adjacency bitmasks.

    Build instances with :meth:`from_edges` (preferred) or supply masks
    directly. The constructor validates symmetry implicitly (masks are
    built from undirected edges) and checks ``E ⊆ E'``.

    Attributes
    ----------
    n:
        Number of nodes; node ids are ``0 … n-1``.
    g_masks / gp_masks:
        Per-node adjacency bitmasks of ``G`` and ``G'``;
        :meth:`word_rows` gives them, and the flaky masks, as cached
        uint64 word rows.
    embedding:
        Optional plane embedding ``(x, y)`` per node — present for
        geographic graphs (Section 2's geographic constraint).
    name:
        Human-readable label used by traces and experiment tables.
    """

    n: int
    g_masks: tuple[int, ...]
    gp_masks: tuple[int, ...]
    embedding: Optional[tuple[tuple[float, float], ...]] = None
    name: str = "dual-graph"
    #: Set ``validate=False`` only when the structural invariants
    #: (symmetry, no self-loops, E ⊆ E', masks within range) hold *by
    #: construction* — :meth:`from_edges` sets both directions of every
    #: edge and builds ``G'`` as a superset of ``G``, so re-deriving
    #: those facts from the finished masks is pure overhead at large n.
    #: Externally supplied masks must keep the default.
    validate: InitVar[bool] = True
    _flaky_masks: tuple[int, ...] = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self, validate: bool) -> None:
        if self.n < 1:
            raise GraphValidationError(f"need at least one node, got n={self.n}")
        if len(self.g_masks) != self.n or len(self.gp_masks) != self.n:
            raise GraphValidationError("adjacency mask lists must have length n")
        if validate:
            for u in range(self.n):
                # Range stays a per-node int check (bit_length is O(1),
                # unlike shifting an n-bit mask): negative or oversized
                # masks cannot even be packed into word rows below.
                g, gp = self.g_masks[u], self.gp_masks[u]
                if g < 0 or gp < 0 or g.bit_length() > self.n or gp.bit_length() > self.n:
                    raise GraphValidationError(f"node {u} has neighbors outside [0, n)")
            self._validate_structure()
        if self.embedding is not None and len(self.embedding) != self.n:
            raise GraphValidationError("embedding must give one point per node")
        flaky = tuple(self.gp_masks[u] & ~self.g_masks[u] for u in range(self.n))
        object.__setattr__(self, "_flaky_masks", flaky)

    def _validate_structure(self) -> None:
        """Self-loop, ``E ⊆ E'`` and symmetry checks on word rows.

        Self-loop and subset checks scan the ⌈n/64⌉-word rows directly;
        symmetry is :func:`_first_asymmetric_edge`. Errors name the
        lowest offending node first (self-loop preferred over subset
        violation on ties), then ``G`` asymmetry before ``G'``
        asymmetry, lowest ``(u, v)`` first.
        """
        g_rows = pack_mask_rows(self.g_masks, self.n)
        gp_rows = pack_mask_rows(self.gp_masks, self.n)
        diagonal = np.arange(self.n)
        diag_words = g_rows[diagonal, diagonal >> 6] | gp_rows[diagonal, diagonal >> 6]
        loops = (diag_words >> (diagonal & 63).astype(np.uint64)) & np.uint64(1)
        subset_rows = (g_rows & ~gp_rows).any(axis=1)
        if loops.any() or subset_rows.any():
            loop_u = int(np.argmax(loops)) if loops.any() else self.n
            subset_u = int(np.argmax(subset_rows)) if subset_rows.any() else self.n
            if loop_u <= subset_u:
                raise GraphValidationError(f"self-loop at node {loop_u}")
            raise GraphValidationError(
                f"node {subset_u} has G edges missing from G' (E ⊆ E' violated)"
            )
        for rows, label in ((g_rows, "G"), (gp_rows, "G'")):
            pair = _first_asymmetric_edge(rows, self.n)
            if pair is not None:
                raise GraphValidationError(
                    f"{label} edge ({pair[0]}, {pair[1]}) is asymmetric"
                )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        n: int,
        g_edges: Iterable[Edge],
        extra_gp_edges: Iterable[Edge] = (),
        *,
        embedding: Optional[Sequence[tuple[float, float]]] = None,
        name: str = "dual-graph",
    ) -> "DualGraph":
        """Build from ``G``'s edges plus the *extra* edges of ``G' \\ G``.

        ``extra_gp_edges`` lists only the unreliable edges; ``G'`` is
        their union with ``G``, so ``E ⊆ E'`` holds by construction.
        Structural re-validation is skipped for the same reason:
        :func:`normalize_edge` rejects self-loops, :func:`_masks_from_edges`
        range-checks endpoints and sets both directions of every edge,
        and the superset union gives ``E ⊆ E'`` — nothing is left for
        ``__post_init__`` to find.
        """
        g_edge_set = {normalize_edge(u, v) for u, v in g_edges}
        extra_set = {normalize_edge(u, v) for u, v in extra_gp_edges} - g_edge_set
        g_masks = _masks_from_edges(n, g_edge_set)
        gp_masks = _masks_from_edges(n, g_edge_set | extra_set)
        return cls(
            n=n,
            g_masks=tuple(g_masks),
            gp_masks=tuple(gp_masks),
            embedding=tuple((float(x), float(y)) for x, y in embedding) if embedding else None,
            name=name,
            validate=False,
        )

    @classmethod
    def static(
        cls,
        n: int,
        g_edges: Iterable[Edge],
        *,
        embedding: Optional[Sequence[tuple[float, float]]] = None,
        name: str = "static-graph",
    ) -> "DualGraph":
        """Build a protocol-model graph (``G = G'``, no unreliable links)."""
        return cls.from_edges(n, g_edges, (), embedding=embedding, name=name)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def flaky_masks(self) -> tuple[int, ...]:
        """Per-node masks of the unreliable neighbors (``G' \\ G``)."""
        return self._flaky_masks

    def word_rows(self, which: str = "g") -> np.ndarray:
        """``G``'s, ``G'``'s or the flaky adjacency as word rows.

        ``which`` is ``"g"``, ``"gp"`` or ``"flaky"``; the rows are
        :func:`pack_mask_rows` of :attr:`g_masks`, :attr:`gp_masks` or
        :attr:`flaky_masks`. Built lazily and cached on the instance:
        sweeps share one graph across trials through the registry
        cache, and topology validation and node fading read these
        rows. The arrays are frozen; treat them as read-only.
        """
        cache = getattr(self, "_word_rows_cache", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_word_rows_cache", cache)
        rows = cache.get(which)
        if rows is None:
            if which == "flaky":
                rows = self.word_rows("gp") & ~self.word_rows("g")
                rows.flags.writeable = False
            else:
                masks = {"g": self.g_masks, "gp": self.gp_masks}[which]
                rows = pack_mask_rows(masks, self.n)
            cache[which] = rows
        return rows

    def g_neighbors(self, u: int) -> list[int]:
        """Neighbors of ``u`` in the reliable graph ``G``."""
        return list(iter_bits(self.g_masks[u]))

    def gp_neighbors(self, u: int) -> list[int]:
        """Neighbors of ``u`` in ``G'`` (the paper's ``N_{G'}(u)``)."""
        return list(iter_bits(self.gp_masks[u]))

    def flaky_neighbors(self, u: int) -> list[int]:
        """Neighbors reachable only through unreliable links."""
        return list(iter_bits(self._flaky_masks[u]))

    def g_degree(self, u: int) -> int:
        return popcount(self.g_masks[u])

    def gp_degree(self, u: int) -> int:
        return popcount(self.gp_masks[u])

    @property
    def max_degree(self) -> int:
        """The paper's ``Δ = max |N_{G'}(u)|`` (known to processes).

        Memoized on the instance: every trial setup asks for it (the
        processes are entitled to know Δ), and the n popcounts are not
        free at sweep scale.
        """
        cached = getattr(self, "_max_degree_cache", None)
        if cached is None:
            cached = max(popcount(mask) for mask in self.gp_masks)
            object.__setattr__(self, "_max_degree_cache", cached)
        return cached

    def g_edges(self) -> set[Edge]:
        """Canonical edge set of ``G``."""
        return edges_from_adjacency(self.g_masks)

    def gp_edges(self) -> set[Edge]:
        """Canonical edge set of ``G'``."""
        return edges_from_adjacency(self.gp_masks)

    def flaky_edges(self) -> set[Edge]:
        """Canonical edge set of ``G' \\ G``."""
        return edges_from_adjacency(self._flaky_masks)

    def has_g_edge(self, u: int, v: int) -> bool:
        return bool((self.g_masks[u] >> v) & 1)

    def has_gp_edge(self, u: int, v: int) -> bool:
        return bool((self.gp_masks[u] >> v) & 1)

    # ------------------------------------------------------------------
    # Graph algorithms (on G — the problems assume G connected)
    # ------------------------------------------------------------------
    def bfs_distances(self, source: int, *, use_gp: bool = False) -> list[int]:
        """Hop distances from ``source``; ``-1`` marks unreachable nodes."""
        masks = self.gp_masks if use_gp else self.g_masks
        dist = [-1] * self.n
        dist[source] = 0
        frontier = 1 << source
        seen = frontier
        depth = 0
        while frontier:
            depth += 1
            next_frontier = 0
            for u in iter_bits(frontier):
                next_frontier |= masks[u]
            next_frontier &= ~seen
            seen |= next_frontier
            for u in iter_bits(next_frontier):
                dist[u] = depth
            frontier = next_frontier
        return dist

    def is_g_connected(self) -> bool:
        """True iff the reliable graph ``G`` is connected.

        Memoized on the instance: the graph is immutable, and problem
        constructors re-check connectivity once per trial while sweeps
        share one registry-cached graph across every trial and series —
        without the memo the BFS dominates trial setup at large ``n``.
        """
        cached = getattr(self, "_g_connected_cache", None)
        if cached is None:
            cached = all(d >= 0 for d in self.bfs_distances(0))
            object.__setattr__(self, "_g_connected_cache", cached)
        return cached

    def g_diameter(self) -> int:
        """Diameter of ``G`` (the paper's ``D``). Exact via all-sources BFS.

        Quadratic in ``n``; fine for experiment-scale graphs. Raises if
        ``G`` is disconnected.
        """
        best = 0
        for source in range(self.n):
            dist = self.bfs_distances(source)
            ecc = max(dist)
            if min(dist) < 0:
                raise GraphValidationError("g_diameter() requires a connected G")
            best = max(best, ecc)
        return best

    def g_eccentricity(self, source: int) -> int:
        """Max hop distance from ``source`` in ``G`` (broadcast depth)."""
        dist = self.bfs_distances(source)
        if min(dist) < 0:
            raise GraphValidationError("g_eccentricity() requires a connected G")
        return max(dist)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def induced_subgraph(self, nodes: Sequence[int], *, name: Optional[str] = None) -> "DualGraph":
        """Induced dual subgraph on ``nodes`` with ids remapped to ``0 … k-1``.

        Used by the lower-bound machinery to simulate a band of the
        bracelet network in isolation. The returned graph keeps only
        edges with both endpoints inside ``nodes``.
        """
        index = {node: i for i, node in enumerate(nodes)}
        if len(index) != len(nodes):
            raise GraphValidationError("induced_subgraph nodes must be distinct")
        k = len(nodes)
        g_masks = [0] * k
        gp_masks = [0] * k
        for node, i in index.items():
            for v in iter_bits(self.g_masks[node]):
                j = index.get(v)
                if j is not None:
                    g_masks[i] |= 1 << j
            for v in iter_bits(self.gp_masks[node]):
                j = index.get(v)
                if j is not None:
                    gp_masks[i] |= 1 << j
        emb = None
        if self.embedding is not None:
            emb = tuple(self.embedding[node] for node in nodes)
        # An induced subgraph of a valid dual graph is valid: symmetry,
        # loop-freedom, and E ⊆ E' all restrict to the node subset.
        return DualGraph(
            n=k,
            g_masks=tuple(g_masks),
            gp_masks=tuple(gp_masks),
            embedding=emb,
            name=name or f"{self.name}[induced {k}]",
            validate=False,
        )

    def as_static(self, *, use_gp: bool = False, name: Optional[str] = None) -> "DualGraph":
        """Collapse to a protocol-model graph: ``G = G'`` on ``G`` (or on ``G'``)."""
        masks = self.gp_masks if use_gp else self.g_masks
        return DualGraph(
            n=self.n,
            g_masks=masks,
            gp_masks=masks,
            embedding=self.embedding,
            name=name or f"{self.name}[static]",
            validate=False,
        )

    def to_networkx(self):  # pragma: no cover - optional dependency convenience
        """Export ``(G, G')`` as a pair of ``networkx.Graph`` objects."""
        import networkx as nx

        g = nx.Graph(name=f"{self.name}:G")
        gp = nx.Graph(name=f"{self.name}:G'")
        g.add_nodes_from(range(self.n))
        gp.add_nodes_from(range(self.n))
        g.add_edges_from(self.g_edges())
        gp.add_edges_from(self.gp_edges())
        return g, gp

    def summary(self) -> str:
        """One-line description for logs and tables."""
        return (
            f"{self.name}: n={self.n}, |E|={len(self.g_edges())}, "
            f"|E'\\E|={len(self.flaky_edges())}, Δ={self.max_degree}"
        )
