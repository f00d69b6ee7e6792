"""The oracle MAC layer: sample the guarantees, skip the engine.

Where the simulated layer *realizes* the abstract MAC contract round
by round on the radio engines, the oracle layer *assumes* it: each
``bcast`` is acknowledged after a delay sampled from the ``f_ack``
envelope, and each reliable neighbor receives the message after a
delay sampled from the ``f_prog`` envelope. Executions become sparse
event-driven simulations — ``O(k · |E|)`` sampled events instead of
``Ω(rounds · n)`` engine work — which is what makes large-``n``
multi-message sweeps (experiment ``M3``) affordable.

What the oracle deliberately idealizes away:

* **the link adversary** — GKLN's abstract MAC absorbs link
  unreliability into the delay functions, so the oracle ignores the
  spec's adversary (completion depends on it only through the chosen
  ``f_ack``/``f_prog`` constants);
* **collisions between far-apart senders** — delays are sampled
  independently per (sender, receiver, message).

Comparing the oracle curve against the simulated realization under a
real adversary is exactly how the ``M3`` experiment turns the ack/
progress *constants* into a measured quantity.

Determinism: every delay is drawn from its own
:func:`~repro.core.rng.derive_seed`-labelled stream keyed by
``(sender, receiver, message)``, so results are independent of event
processing order and identical across serial/parallel executors. The
same keying makes it exact to leave a draw out: no draw's value
depends on which other draws were made. An ack is drawn only when it
is read: under queued service a node's ack delays its next service,
so it is drawn when that service comes, and the ack of each node's
last service is never drawn. A progress draw is left out
when it cannot matter. Every progress delay is at least 1, so a
delivery served from round ``start`` arrives no earlier than
``start + 1``; a receiver that already holds the message by then keeps
its round whatever the draw would return. Only the delays not left out
reach the ``mac.f_ack_delay``/``mac.f_prog_delay`` histograms; the
left-out ones are counted in ``mac.oracle.draws_skipped``.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.obs.recorder import recorder as _obs_recorder

if TYPE_CHECKING:  # the runner imports this module lazily; avoid a cycle
    from repro.analysis.runner import PreparedTrial, TrialResult

from repro.core.errors import SpecError
from repro.core.rng import seed_deriver
from repro.core.trace import iter_bits
from repro.mac.base import AbstractMACLayer, default_f_ack, default_f_prog
from repro.registry import register_mac

__all__ = ["OracleMACLayer", "OracleOutcome", "simulate_oracle", "run_oracle_trial"]


@dataclass(frozen=True)
class OracleMACLayer(AbstractMACLayer):
    """Idealized MAC: ack/progress delays sampled from the guarantees.

    Parameters
    ----------
    f_ack_factor / f_prog_factor:
        Scale the default ``Θ(log n log Δ)`` envelopes — the knobs for
        matching (or deliberately mismatching) a simulated layer's
        constants.
    ack_bound / prog_bound:
        Explicit envelopes in rounds; override the factors.
    """

    f_ack_factor: float = 1.0
    f_prog_factor: float = 1.0
    ack_bound: Optional[int] = None
    prog_bound: Optional[int] = None

    mode = "oracle"

    def __post_init__(self) -> None:
        if self.f_ack_factor <= 0 or self.f_prog_factor <= 0:
            raise SpecError("oracle MAC factors must be positive")
        for bound in (self.ack_bound, self.prog_bound):
            if bound is not None and bound < 1:
                raise SpecError(f"oracle MAC bounds must be ≥ 1, got {bound}")

    def f_ack(self, n: int, max_degree: int) -> int:
        if self.ack_bound is not None:
            return int(self.ack_bound)
        return max(1, round(self.f_ack_factor * default_f_ack(n, max_degree)))

    def f_prog(self, n: int, max_degree: int) -> int:
        if self.prog_bound is not None:
            return int(self.prog_bound)
        return max(1, round(self.f_prog_factor * default_f_prog(n, max_degree)))

    def describe(self) -> str:
        if self.ack_bound is not None or self.prog_bound is not None:
            return f"oracle-mac(ack={self.ack_bound}, prog={self.prog_bound})"
        return (
            f"oracle-mac(ack×{self.f_ack_factor:g}, prog×{self.f_prog_factor:g})"
        )


@register_mac("oracle")
def _spec_oracle(
    ctx,
    *,
    f_ack_factor: float = 1.0,
    f_prog_factor: float = 1.0,
    ack_bound: Optional[int] = None,
    prog_bound: Optional[int] = None,
) -> OracleMACLayer:
    return OracleMACLayer(
        f_ack_factor=float(f_ack_factor),
        f_prog_factor=float(f_prog_factor),
        ack_bound=None if ack_bound is None else int(ack_bound),
        prog_bound=None if prog_bound is None else int(prog_bound),
    )


@dataclass(frozen=True)
class OracleOutcome:
    """Everything one oracle execution determined.

    ``learn_rounds[u][i]`` is the (1-based) round node ``u`` learned
    message ``i`` (0 for the source, ``None`` if never — unreachable
    under a connected ``G``, kept for type honesty).
    ``message_rounds[i]`` is when message ``i`` reached the last node.
    """

    rounds: int
    solved: bool
    message_rounds: tuple[Optional[int], ...]
    learn_rounds: tuple[tuple[Optional[int], ...], ...]


def simulate_oracle(trial: "PreparedTrial", seed: int) -> OracleOutcome:
    """Run one multi-message execution at MAC granularity.

    Dijkstra-style relaxation: events ``(time, node, message)`` pop in
    time order; popping finalizes when ``node`` learned ``message``,
    assigns the node's next service slot (FIFO under the ``"queued"``
    discipline, immediate under ``"concurrent"``), and pushes sampled
    delivery times to its reliable neighbors. All future events exceed
    the current pop time, so the first finalized time per (node,
    message) is minimal — the classic label-setting argument.
    """
    mac = trial.mac
    if mac is None or mac.mode != "oracle":
        raise SpecError("simulate_oracle needs a PreparedTrial with an oracle MAC")
    problem = trial.problem
    assignment = getattr(problem, "assignment", None)
    if assignment is None:
        raise SpecError(
            "the oracle MAC runs multi-message workloads only; pair it with "
            "the 'multi-message' problem"
        )
    network = trial.network
    n, k = network.n, assignment.k
    max_degree = network.max_degree
    f_ack = mac.f_ack(n, max_degree)
    f_prog = mac.f_prog(n, max_degree)
    discipline = trial.algorithm.metadata.get("mac_discipline", "queued")
    # Concurrent service shares the channel between all k messages, so
    # each delivery's envelope stretches by the worst-case load.
    prog_high = f_prog if discipline == "queued" else f_prog * k

    learn: list[list[Optional[int]]] = [[None] * k for _ in range(n)]
    # Queued service: each node's previous ``(start, message)``, whose
    # ack is drawn at the node's next service.
    served: list[Optional[tuple[int, int]]] = [None] * n
    heap: list[tuple[int, int, int]] = []
    for index, source in enumerate(assignment.sources):
        if learn[source][index] is None:
            learn[source][index] = 0
            heapq.heappush(heap, (0, source, index))

    # One generator, reseeded per draw: ``rng.seed(x)`` then
    # ``randint`` equals a fresh ``random.Random(x).randint``.
    rng = random.Random()
    reseed, randint = rng.seed, rng.randint
    ack_seed = seed_deriver(seed, "mac-oracle", "ack")
    prog_seed = seed_deriver(seed, "mac-oracle", "prog")
    ack_low = max(1, f_ack // 2)
    neighbors = [list(iter_bits(mask)) for mask in network.g_masks]
    rec = _obs_recorder()
    skipped = 0
    while heap:
        t, u, m = heapq.heappop(heap)
        if learn[u][m] != t:
            continue  # superseded by an earlier delivery
        if discipline == "queued":
            start = t
            previous = served[u]
            if previous is not None:
                previous_start, previous_m = previous
                ack = ack_low
                if f_ack > ack_low:
                    reseed(ack_seed(u, previous_m))
                    ack = randint(ack_low, f_ack)
                if rec is not None:
                    rec.observe("mac.f_ack_delay", ack)
                start = max(t, previous_start + ack)
            served[u] = (start, m)
        else:
            start = t
        earliest = start + 1  # every progress delay is ≥ 1
        for v in neighbors[u]:
            known = learn[v][m]
            if known is not None and known <= earliest:
                skipped += 1  # no draw could beat ``known``
                continue
            delay = 1
            if prog_high > 1:
                reseed(prog_seed(u, v, m))
                delay = randint(1, prog_high)
            if rec is not None:
                rec.observe("mac.f_prog_delay", delay)
            arrival = start + delay
            if known is None or arrival < known:
                learn[v][m] = arrival
                heapq.heappush(heap, (arrival, v, m))
    if rec is not None:
        rec.inc("mac.oracle.draws_skipped", skipped)

    message_rounds: list[Optional[int]] = []
    for index in range(k):
        times = [learn[u][index] for u in range(n)]
        message_rounds.append(None if any(t is None for t in times) else max(times))
    unsolved = any(t is None for t in message_rounds)
    total = 0 if unsolved else max(message_rounds or [0])
    solved = not unsolved and total <= trial.max_rounds
    return OracleOutcome(
        rounds=total if solved else trial.max_rounds,
        solved=solved,
        message_rounds=tuple(message_rounds),
        learn_rounds=tuple(tuple(row) for row in learn),
    )


def run_oracle_trial(trial: "PreparedTrial", seed: int) -> "TrialResult":
    """The oracle-mode counterpart of engine execution.

    Censoring matches the engine runner: an execution whose completion
    exceeds ``max_rounds`` reports ``solved=False`` at the cap, so
    oracle sweeps aggregate through the same
    :class:`~repro.analysis.runner.TrialStats` unchanged.
    """
    from repro.analysis.runner import TrialResult

    outcome = simulate_oracle(trial, seed)
    return TrialResult(solved=outcome.solved, rounds=outcome.rounds, seed=seed)
