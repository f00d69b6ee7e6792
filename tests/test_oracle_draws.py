"""The oracle MAC draws only the delays that can change an arrival.

``simulate_oracle`` draws an ack only when a node's next service reads
it, leaves out every progress draw whose receiver
already holds the message by ``start + 1``, hashes its label prefixes
once, and reseeds one generator. None of that may change an outcome:
each case here is checked against :func:`full_draw_oracle`, the
oracle's earlier loop kept verbatim, which makes every draw through
``derive_seed`` and a fresh ``random.Random``.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from typing import Optional

import pytest

from repro.api import ScenarioSpec
from repro.core.rng import derive_seed
from repro.core.trace import iter_bits
from repro.mac import OracleOutcome, simulate_oracle
from repro.obs import disable, enable


def _delay(seed: int, *label: object, low: int, high: int) -> int:
    if high <= low:
        return low
    return random.Random(derive_seed(seed, *label)).randint(low, high)


def full_draw_oracle(trial, seed: int) -> tuple[OracleOutcome, int, int, int]:
    """The oracle with every draw made.

    Returns ``(outcome, ack reads, prog draws, undominated prog draws)``.
    An ack is read when its node is served again: it sets that
    service's start. A progress draw is undominated when its receiver
    did not yet hold the message by ``start + 1``, the earliest round
    the draw can give.
    """
    mac = trial.mac
    assignment = trial.problem.assignment
    network = trial.network
    n, k = network.n, assignment.k
    max_degree = network.max_degree
    f_ack = mac.f_ack(n, max_degree)
    f_prog = mac.f_prog(n, max_degree)
    discipline = trial.algorithm.metadata.get("mac_discipline", "queued")
    prog_high = f_prog if discipline == "queued" else f_prog * k
    ack_reads = prog_draws = undominated = 0
    served = [False] * n

    learn: list[list[Optional[int]]] = [[None] * k for _ in range(n)]
    next_free = [0] * n
    heap: list[tuple[int, int, int]] = []
    for index, source in enumerate(assignment.sources):
        if learn[source][index] is None:
            learn[source][index] = 0
            heapq.heappush(heap, (0, source, index))

    while heap:
        t, u, m = heapq.heappop(heap)
        if learn[u][m] != t:
            continue
        if discipline == "queued":
            start = max(t, next_free[u])
            ack = _delay(
                seed, "mac-oracle", "ack", u, m, low=max(1, f_ack // 2), high=f_ack
            )
            next_free[u] = start + ack
            ack_reads += served[u]
            served[u] = True
        else:
            start = t
        for v in iter_bits(network.g_masks[u]):
            delay = _delay(
                seed, "mac-oracle", "prog", u, v, m, low=1, high=prog_high
            )
            prog_draws += 1
            arrival = start + delay
            known = learn[v][m]
            undominated += known is None or known > start + 1
            if known is None or arrival < known:
                learn[v][m] = arrival
                heapq.heappush(heap, (arrival, v, m))

    message_rounds: list[Optional[int]] = []
    for index in range(k):
        times = [learn[u][index] for u in range(n)]
        message_rounds.append(None if any(t is None for t in times) else max(times))
    unsolved = any(t is None for t in message_rounds)
    total = 0 if unsolved else max(message_rounds or [0])
    solved = not unsolved and total <= trial.max_rounds
    outcome = OracleOutcome(
        rounds=total if solved else trial.max_rounds,
        solved=solved,
        message_rounds=tuple(message_rounds),
        learn_rounds=tuple(tuple(row) for row in learn),
    )
    return outcome, ack_reads, prog_draws, undominated


def oracle_spec(
    graph, k: int, *, algorithm: str, coinciding: bool = False, mac=None, **overrides
) -> ScenarioSpec:
    # Coinciding sources: messages i, i+3, i+6, … start at one node.
    messages = (
        {"sources": [5 * (i % 3) for i in range(k)]}
        if coinciding
        else {"k": k, "sources": "random"}
    )
    return ScenarioSpec(
        graph=graph,
        problem=("multi-message", {}),
        algorithm=(algorithm, {}),
        adversary=("none", {}),
        mac=("oracle", mac or {}),
        messages=messages,
        **overrides,
    )


def traced_oracle(trial, seed: int) -> tuple[OracleOutcome, dict, dict]:
    """``simulate_oracle`` under a fresh recorder: (outcome, counters, histogram counts)."""
    rec = enable()
    try:
        outcome = simulate_oracle(trial, seed)
    finally:
        disable()
    counts = {name: h.count for name, h in rec.histograms.items()}
    return outcome, rec.counters, counts


ALGORITHMS = ("gkln-multi-message", "backoff-multi-message")  # queued, concurrent
GRAPHS = {
    "geo32": ("geographic", {"n": 32, "grey_ratio": 2.0}),
    "geo64": ("geographic", {"n": 64, "grey_ratio": 2.0}),
    "geo256": ("geographic", {"n": 256, "grey_ratio": 2.0}),
    "line": ("line", {"n": 24}),
}
CASES = [
    (graph, k, coinciding)
    for graph in GRAPHS
    for k, coinciding in ((1, False), (4, False), (4, True), (16, False), (16, True))
    if not (graph == "geo256" and k == 16 and coinciding)  # the slowest case
]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize(("graph", "k", "coinciding"), CASES)
def test_outcome_and_draw_count_match_the_full_loop(algorithm, graph, k, coinciding):
    spec = oracle_spec(GRAPHS[graph], k, algorithm=algorithm, coinciding=coinciding)
    seed = 2013
    trial = spec.build(seed)
    expected, ack_reads, prog_draws, undominated = full_draw_oracle(trial, seed)
    outcome, counters, counts = traced_oracle(trial, seed)
    assert outcome == expected
    assert counts.get("mac.f_ack_delay", 0) == ack_reads
    made = counts.get("mac.f_prog_delay", 0)
    assert made + counters.get("mac.oracle.draws_skipped", 0) == prog_draws
    assert made == undominated < prog_draws  # every dominated draw is left out


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_unit_bounds_match_the_full_loop(algorithm):
    spec = oracle_spec(
        GRAPHS["geo64"], 4, algorithm=algorithm, mac={"ack_bound": 1, "prog_bound": 1}
    )
    trial = spec.build(7)
    outcome = simulate_oracle(trial, 7)
    assert outcome == full_draw_oracle(trial, 7)[0]
    if algorithm == "gkln-multi-message":
        # Queued service with unit envelopes draws nothing: the seed is moot.
        assert simulate_oracle(trial, 8) == outcome


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("max_rounds", (1, 5, 40))
def test_censoring_matches_the_full_loop(algorithm, max_rounds):
    spec = oracle_spec(GRAPHS["geo64"], 4, algorithm=algorithm, max_rounds=max_rounds)
    trial = spec.build(11)
    outcome = simulate_oracle(trial, 11)
    assert outcome == full_draw_oracle(trial, 11)[0]
    assert not outcome.solved and outcome.rounds == max_rounds


def test_learn_rounds_digest_is_pinned():
    # Any change to the oracle's delay streams moves this digest.
    spec = oracle_spec(GRAPHS["geo64"], 4, algorithm=ALGORITHMS[0])
    outcome = simulate_oracle(spec.build(2013), 2013)
    digest = hashlib.sha256(repr(outcome.learn_rounds).encode()).hexdigest()
    assert digest[:16] == "038b8b2faeffbc07"
