"""Oblivious schedule attackers: dense/sparse from *predicted* behavior.

Section 4.1 explains why classic decay breaks in the oblivious dual
graph model: "the fixed schedule of broadcast probabilities allows
[the adversary] to calculate in advance the expected broadcast
behavior, and choose dynamic link behavior accordingly". These link
processes implement that calculation.

* :class:`PredictedDenseSparseAttacker` — takes any per-round
  prediction function ``round ↦ E[|X|]`` and applies the dense/sparse
  rule (flood on dense, sever the cut on sparse). Being a function of
  the round index only, it is oblivious.
* :func:`predict_plain_decay_counts` — the prediction for the
  Bar-Yehuda et al. decay broadcast on a dual-clique-like network:
  after round 0 the source's clique is informed and every informed node
  follows the *public* decay schedule, so the expected transmitter
  count in round ``r`` is ``|informed| · 2^{-(r mod phase_len)-1}``.
* :class:`PrecomputedDenseSparseLinks` — a dense/sparse schedule fixed
  as an explicit list of labels before the run. The bracelet attacker
  of Theorem 4.3 produces its labels via isolated band simulation and
  feeds them here.

Against *permuted* decay the prediction degenerates: the per-round
probability index is drawn from the source's post-start random bits,
which an oblivious adversary cannot see, so its best prediction is the
average — it misclassifies rounds, and Lemma 4.2 guarantees progress
regardless. The A1 ablation bench measures exactly this separation.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

from repro.adversaries.base import (
    AdversaryClass,
    AlgorithmInfo,
    LinkProcess,
    ObliviousView,
    RoundTopology,
)
from repro.graphs.dual_graph import DualGraph

__all__ = [
    "PredictedDenseSparseAttacker",
    "PrecomputedDenseSparseLinks",
    "predict_plain_decay_counts",
]


def predict_plain_decay_counts(
    informed_count: int, phase_length: int, *, join_round: int = 1
) -> Callable[[int], float]:
    """Expected transmitter count for plain decay with a public schedule.

    Models the attack knowledge on a dual clique: from ``join_round``
    on, ``informed_count`` nodes all follow decay's deterministic
    probability ladder ``2^{-(j+1)}`` for ``j = round mod phase_length``
    (Section 4.1's description of [2]). Before ``join_round`` only the
    source may transmit.
    """
    if informed_count < 1:
        raise ValueError("informed_count must be >= 1")
    if phase_length < 1:
        raise ValueError("phase_length must be >= 1")

    def predict(round_index: int) -> float:
        if round_index < join_round:
            return 1.0  # the lone source announcement
        j = (round_index - join_round) % phase_length
        return informed_count * 2.0 ** (-(j + 1))

    return predict


def _label_run_boundary(
    labels: Sequence[bool], tail: bool, round_index: int
) -> Optional[int]:
    """First round after ``round_index`` where a dense/sparse label flips.

    Shared by the precomputed-schedule adversaries (their
    ``choose_topology`` is a pure lookup over a label list fixed at
    ``start``): the topology next changes when the current label's run
    ends, and never again once the schedule has settled into its tail.
    """
    current = labels[round_index] if round_index < len(labels) else tail
    r = round_index + 1
    while r < len(labels):
        if labels[r] != current:
            return r
        r += 1
    return None if tail == current else max(r, round_index + 1)


class PredictedDenseSparseAttacker(LinkProcess):
    """Dense/sparse attack driven by a clock-only prediction function.

    Parameters
    ----------
    side_mask:
        Cut side to sever during predicted-sparse rounds.
    predictor:
        ``round ↦ predicted E[|X|]``. Must depend on the round index
        alone (obliviousness); the constructor cannot enforce that, but
        the engine only ever supplies the round number.
    threshold:
        Dense boundary; defaults to ``2·log2 n`` at start.
    """

    adversary_class = AdversaryClass.OBLIVIOUS

    def __init__(
        self,
        side_mask: int,
        predictor: Callable[[int], float],
        *,
        threshold: Optional[float] = None,
    ) -> None:
        self.side_mask = side_mask
        self.predictor = predictor
        self.threshold = threshold
        self.dense_history: list[bool] = []

    def start(self, network: DualGraph, algorithm: AlgorithmInfo, rng) -> None:
        super().start(network, algorithm, rng)
        if self.threshold is None:
            self.threshold = 2.0 * math.log2(max(network.n, 2))
        self._dense = RoundTopology.all_links(network)
        self._sparse = RoundTopology.without_cut(
            network, self.side_mask, label="predicted-sparse"
        )
        self.dense_history = []

    def choose_topology(self, view: ObliviousView) -> RoundTopology:
        dense = self.predictor(view.round_index) > self.threshold
        self.dense_history.append(dense)
        return self._dense if dense else self._sparse

    def next_boundary(self, round_index: int) -> Optional[int]:
        # Every call appends to dense_history (observable diagnostics),
        # so elided calls would be detectable: no skipping.
        return round_index + 1


class PrecomputedDenseSparseLinks(LinkProcess):
    """A dense/sparse schedule fixed before the execution.

    ``labels[r]`` is true for a dense (flooded) round; rounds beyond
    the schedule fall back to ``tail_dense``. The Theorem 4.3 oblivious
    attacker computes its labels from isolated band simulations — by
    Lemma 4.5 those predictions remain accurate for the real execution
    with high probability — and hands them here.
    """

    adversary_class = AdversaryClass.OBLIVIOUS

    def __init__(self, side_mask: int, labels: Sequence[bool], *, tail_dense: bool = True) -> None:
        self.side_mask = side_mask
        self.labels = list(labels)
        self.tail_dense = tail_dense

    def start(self, network: DualGraph, algorithm: AlgorithmInfo, rng) -> None:
        super().start(network, algorithm, rng)
        self._dense = RoundTopology.all_links(network)
        self._sparse = RoundTopology.without_cut(
            network, self.side_mask, label="precomputed-sparse"
        )

    def choose_topology(self, view: ObliviousView) -> RoundTopology:
        r = view.round_index
        dense = self.labels[r] if r < len(self.labels) else self.tail_dense
        return self._dense if dense else self._sparse

    def next_boundary(self, round_index: int) -> Optional[int]:
        return _label_run_boundary(
            self.labels, self.tail_dense, round_index
        )


# ----------------------------------------------------------------------
# Declarative ScenarioSpec registrations
# ----------------------------------------------------------------------
from repro.core.errors import SpecError  # noqa: E402
from repro.registry import cut_mask_for, register_adversary  # noqa: E402


@register_adversary("predicted-dense-sparse")
def _spec_predicted_dense_sparse(
    ctx, *, side="A", predictor: str = "plain-decay", threshold=None
) -> PredictedDenseSparseAttacker:
    """Schedule attack with a named clock-only predictor.

    ``"plain-decay"`` predicts [2]'s public ladder for the informed
    side (a dual clique's side A, or half the node count otherwise) —
    exact against plain decay, stale against permuted decay.
    """
    if predictor != "plain-decay":
        raise SpecError(f"unknown predictor {predictor!r}; known: 'plain-decay'")
    # Function-local import: adversaries must not import algorithms at
    # module level (algorithms.base imports adversaries.base).
    from repro.algorithms.base import log2_ceil

    n = ctx.graph.n
    informed = getattr(ctx.network, "half", n // 2)
    phase_length = log2_ceil(n)
    return PredictedDenseSparseAttacker(
        cut_mask_for(ctx, side),
        predict_plain_decay_counts(informed, phase_length),
        threshold=None if threshold is None else float(threshold),
    )


@register_adversary("precomputed-dense-sparse")
def _spec_precomputed_dense_sparse(
    ctx, *, labels, side="A", tail_dense: bool = True
) -> PrecomputedDenseSparseLinks:
    return PrecomputedDenseSparseLinks(
        cut_mask_for(ctx, side), [bool(b) for b in labels], tail_dense=bool(tail_dense)
    )
