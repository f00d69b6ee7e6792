"""The offline adaptive solo-blocker: the Ω(n) adversary of [11].

The paper's first Figure-1 row cites [11]: with an *offline adaptive*
link process — one that sees the nodes' round-``r`` coins before fixing
the round-``r`` links — both broadcast problems need ``Ω(n)`` rounds on
the dual clique. The adversary achieving this is brutally simple once
you may look at the realized transmitter set ``X``:

* if ``|X| ≥ 2``: include **all** ``G'`` edges. The topology becomes
  the complete graph, every listener neighbors at least two
  transmitters, and *nobody in the network receives anything*.
* if ``|X| ≤ 1``: include **no** cross-cut ``G'`` edge. A lone
  transmitter delivers to its reliable neighbors only — progress
  crosses the cut only if the lone transmitter happens to be a bridge
  endpoint, an event the algorithm cannot steer toward because it does
  not know the bridge.

Against decay-style algorithms the chance that the unique global
transmitter is the one secret bridge node is ``O(1/n)`` per useful
round, forcing ``Ω(n)`` rounds — and no algorithm does better than
``O(1/n)`` per round without knowing the bridge.

Note what makes this genuinely *offline* adaptive: the dense/sparse
choice keys on the realized coins ``|X|``, not on the expectation. The
online variant (:mod:`repro.adversaries.dense_sparse`) must hedge with
a threshold on ``E[|X| | S]`` and consequently loses a log factor —
the gap between Figure 1's first and second rows.
"""

from __future__ import annotations

from repro.adversaries.base import (
    AdversaryClass,
    AlgorithmInfo,
    LinkProcess,
    ObliviousView,
    OfflineAdaptiveView,
    RoundTopology,
)
from repro.core.errors import AdversaryUsageError
from repro.core.trace import popcount
from repro.graphs.dual_graph import DualGraph

__all__ = ["OfflineSoloBlockerAttacker"]


class OfflineSoloBlockerAttacker(LinkProcess):
    """Flood on multi-transmitter rounds, sever the cut otherwise.

    Parameters
    ----------
    side_mask:
        Bitmask of one cut side (on the dual clique: side ``A``). The
        sparse topology withholds exactly the flaky edges crossing this
        cut; flaky edges inside each side (there are none on the dual
        clique) stay up, which only helps the adversary elsewhere.
    """

    adversary_class = AdversaryClass.OFFLINE_ADAPTIVE

    def __init__(self, side_mask: int) -> None:
        self.side_mask = side_mask
        #: Rounds in which a lone transmitter was observed (diagnostics).
        self.solo_rounds: int = 0
        #: Rounds with two or more transmitters (all flooded).
        self.flooded_rounds: int = 0

    def start(self, network: DualGraph, algorithm: AlgorithmInfo, rng) -> None:
        super().start(network, algorithm, rng)
        self._flood = RoundTopology.all_links(network)
        self._severed = RoundTopology.without_cut(
            network, self.side_mask, label="solo-blocker-cut"
        )
        self.solo_rounds = 0
        self.flooded_rounds = 0

    def choose_topology(self, view: ObliviousView) -> RoundTopology:
        if not isinstance(view, OfflineAdaptiveView):
            raise AdversaryUsageError(
                "OfflineSoloBlockerAttacker needs the offline adaptive view "
                "(realized transmitter set)"
            )
        transmitters = popcount(view.transmitter_mask)
        if transmitters >= 2:
            self.flooded_rounds += 1
            return self._flood
        if transmitters == 1:
            self.solo_rounds += 1
        return self._severed

    def next_boundary(self, round_index: int) -> "int | None":
        # Offline adaptive: the choice keys on each round's realized
        # coins, so the masks can flip every round.
        return round_index + 1


# ----------------------------------------------------------------------
# Declarative ScenarioSpec registrations
# ----------------------------------------------------------------------
from repro.registry import cut_mask_for, register_adversary  # noqa: E402


@register_adversary("offline-solo-blocker")
def _spec_offline_solo_blocker(ctx, *, side="A") -> OfflineSoloBlockerAttacker:
    return OfflineSoloBlockerAttacker(cut_mask_for(ctx, side))
