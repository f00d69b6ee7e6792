"""The multi-message broadcast problem: every node learns all k messages.

Ghaffari–Kantor–Lynch–Newport's multi-message broadcast starts ``k``
messages at arbitrary source nodes; the problem is solved when **every
node holds every message**. The observer tracks the full ``n × k``
knowledge relation through :class:`~repro.core.knowledge.KnowledgeVector`
— per-node knowledge sets with per-message holder counts — and records
each message's *completion round* (when its last node learned it),
which is what the CLI's per-message report and the ``M*`` experiments
read off.

Message identity is positional: the spec's resolved
:class:`~repro.mac.base.MessageAssignment` tags message ``i`` with
payload ``("mm", i)``, and the observer counts any DATA delivery
carrying such a payload — regardless of which protocol relayed it or
which MAC layer realized the transmission.
"""

from __future__ import annotations

from typing import Optional

from repro.core.knowledge import KnowledgeVector
from repro.core.messages import MessageKind
from repro.core.trace import RoundRecord
from repro.mac.base import MessageAssignment, spec_messages
from repro.problems.base import Problem, ProblemObserver
from repro.registry import register_problem

__all__ = ["MultiMessageProblem", "MultiMessageObserver"]


class MultiMessageObserver(ProblemObserver):
    """Tracks which of the ``k`` messages every node currently holds."""

    def __init__(self, n: int, assignment: MessageAssignment) -> None:
        self.n = n
        self.assignment = assignment
        self.knowledge = KnowledgeVector(n, assignment.k)
        #: Round at which message ``i`` reached its last node (``-1``
        #: for a trivially complete message on a 1-node graph).
        self.message_complete_round: list[Optional[int]] = [None] * assignment.k
        #: Round after which every node held every message.
        self.complete_round: Optional[int] = None
        #: Payload → message index for the assignment's own payloads;
        #: anything this table does not answer exactly goes to
        #: :meth:`MessageAssignment.index_of`.
        self._index_by_payload = {assignment.payload(i): i for i in range(assignment.k)}
        for index, source in enumerate(assignment.sources):
            self.knowledge.add(source, index)
            if self.knowledge.message_complete(index):
                self.message_complete_round[index] = -1
        if self.knowledge.complete:
            self.complete_round = -1

    @property
    def solved(self) -> bool:
        return self.knowledge.complete

    def on_round(self, record: RoundRecord) -> None:
        if self.knowledge.complete:
            return
        # Hot loop: runs once per delivery for every engine, so bind
        # the per-delivery callees once per round.
        add = self.knowledge.add
        lookup = self._index_by_payload.get
        index_of = self.assignment.index_of
        message_complete = self.knowledge.message_complete
        data = MessageKind.DATA
        for receiver, _, message in record.deliveries:
            if message.kind is not data:
                continue
            payload = message.payload
            try:
                index = lookup(payload)
            except TypeError:  # unhashable
                index = None
            # A hit on a plain tuple with a plain int index is exactly
            # index_of's answer. Equal payloads of other types (("mm", 1.0)
            # hashes like ("mm", 1)), bools, misses and unhashables ask
            # index_of itself.
            if index is None or type(payload) is not tuple or type(payload[1]) is not int:
                index = index_of(payload)
                if index is None:
                    continue
            if add(receiver, index) and message_complete(index):
                self.message_complete_round[index] = record.round_index
        if self.knowledge.complete and self.complete_round is None:
            self.complete_round = record.round_index

    def progress(self) -> float:
        return self.knowledge.progress()

    def pending(self) -> list[tuple[int, int]]:
        """Unestablished ``(message, node)`` facts (diagnostics)."""
        return [
            (index, node)
            for index in range(self.assignment.k)
            for node in self.knowledge.missing_nodes(index)
        ]


class MultiMessageProblem(Problem):
    """Multi-message broadcast of a fixed assignment on a connected ``G``."""

    def __init__(self, network, assignment: MessageAssignment) -> None:
        super().__init__(network)
        for source in assignment.sources:
            if not 0 <= source < network.n:
                raise ValueError(f"source {source} outside [0, {network.n})")
        self.assignment = assignment

    def make_observer(self) -> MultiMessageObserver:
        return MultiMessageObserver(self.network.n, self.assignment)

    def describe(self) -> str:
        return (
            f"multi-message(k={self.assignment.k}, n={self.network.n}, "
            f"sources={list(self.assignment.sources)})"
        )


@register_problem("multi-message")
def _spec_multi_message(ctx) -> MultiMessageProblem:
    """The problem reads its workload from the spec's ``messages=`` field
    (resolved into the build context) rather than from problem params,
    because the MAC-level algorithms need the *same* assignment — one
    source of truth keeps sources and relays consistent."""
    return MultiMessageProblem(ctx.graph, spec_messages(ctx))
