"""Execution traces and observers.

The engine reports each completed round as a :class:`RoundRecord` to a
list of observers. Problem completion checks (global/local broadcast),
statistics collectors, and the lower-bound reduction players are all
observers; the engine itself stays policy-free.

Records intentionally store the *transmitter mask* as a Python integer
bitmask (bit ``u`` set iff node ``u`` transmitted): it is compact, fast
to intersect with adjacency masks, and is the exact object the
offline adaptive adversary view exposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional, Protocol, Sequence

from repro.core.messages import Message

__all__ = [
    "Delivery",
    "RoundRecord",
    "Observer",
    "TraceCollector",
    "DeliveryCounter",
    "popcount",
    "iter_bits",
]


def popcount(mask: int) -> int:
    """Number of set bits in a non-negative integer mask."""
    return mask.bit_count()


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of set bits in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Delivery(NamedTuple):
    """One successful radio reception: ``receiver`` got ``message`` from ``sender``.

    A named tuple, so a round's deliveries can be built in one
    ``map(Delivery, receivers, senders, messages)``; it therefore also
    compares equal to the plain tuple ``(receiver, sender, message)``.
    """

    receiver: int
    sender: int
    message: Message


@dataclass(frozen=True)
class RoundRecord:
    """Everything that happened in one synchronous round.

    Parameters
    ----------
    round_index:
        0-based round number.
    transmitter_mask:
        Bitmask of nodes whose coin came up transmit.
    deliveries:
        All successful receptions this round (a listener with exactly
        one transmitting neighbor in the round topology).
    expected_transmitters:
        Sum of declared plan probabilities — the ``E[|X| | S]`` that the
        online adaptive adversary thresholds on; recorded for analysis.
    """

    round_index: int
    transmitter_mask: int
    deliveries: tuple[Delivery, ...]
    expected_transmitters: float

    @property
    def transmitter_count(self) -> int:
        """Realized number of transmitters ``|X|``."""
        return popcount(self.transmitter_mask)

    def transmitters(self) -> list[int]:
        """Realized transmitter ids in ascending order."""
        return list(iter_bits(self.transmitter_mask))


class Observer(Protocol):
    """Anything that wants to watch rounds as they complete.

    ``on_round`` is the only required hook. Observers may additionally
    implement the **batched quiet-span hook**::

        def on_round_batch(self, start: int, stop: int) -> None: ...

    The skipping engines call it *instead of* per-round ``on_round``
    for a span of provably silent rounds ``start .. stop-1`` (every
    round in the span has an empty transmitter mask, no deliveries,
    and ``expected_transmitters == 0.0``), and only when **every**
    observer attached to the engine implements it — mixing batch-aware
    and per-round observers on one engine falls back to materializing
    each round's :class:`RoundRecord` for everyone, so no observer ever
    sees a partial stream. Observers whose state is delivery-driven
    (the problem observers) implement it as a no-op; counters add the
    span size. :class:`TraceCollector` deliberately does *not*
    implement it: attaching one forces lazy per-round materialization,
    which is what keeps skip-on/skip-off traces byte-comparable in the
    equivalence suites.
    """

    def on_round(self, record: RoundRecord) -> None:  # pragma: no cover - protocol
        ...


@dataclass
class TraceCollector:
    """Observer that retains every :class:`RoundRecord`.

    Intended for tests and small diagnostic runs; long sweeps should use
    :class:`DeliveryCounter` or problem observers instead to keep memory
    flat.
    """

    records: list[RoundRecord] = field(default_factory=list)

    def on_round(self, record: RoundRecord) -> None:
        self.records.append(record)

    def deliveries(self) -> list[Delivery]:
        """All deliveries across the collected rounds, in order."""
        return [d for record in self.records for d in record.deliveries]

    def rounds(self) -> int:
        return len(self.records)


@dataclass
class DeliveryCounter:
    """Observer tracking aggregate statistics with O(1) memory.

    Records the totals the experiment harness reports: rounds run,
    messages delivered, transmissions made, and the per-round maximum
    transmitter count (a contention proxy).
    """

    rounds: int = 0
    total_deliveries: int = 0
    total_transmissions: int = 0
    max_concurrent_transmitters: int = 0
    silent_rounds: int = 0

    def on_round(self, record: RoundRecord) -> None:
        self.rounds += 1
        self.total_deliveries += len(record.deliveries)
        count = record.transmitter_count
        self.total_transmissions += count
        if count > self.max_concurrent_transmitters:
            self.max_concurrent_transmitters = count
        if count == 0:
            self.silent_rounds += 1

    def on_round_batch(self, start: int, stop: int) -> None:
        """A span of all-silent rounds: only the counters move."""
        span = stop - start
        self.rounds += span
        self.silent_rounds += span


def first_delivery_round(
    records: Sequence[RoundRecord], receiver: int, origin: Optional[int] = None
) -> Optional[int]:
    """Round index of the first delivery to ``receiver`` (from ``origin`` if given).

    Returns ``None`` if no matching delivery occurs in ``records``.
    Convenience for tests inspecting collected traces.
    """
    for record in records:
        for delivery in record.deliveries:
            if delivery.receiver != receiver:
                continue
            if origin is not None and delivery.message.origin != origin:
                continue
            return record.round_index
    return None
