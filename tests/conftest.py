"""Shared fixtures and helpers for the test suite.

The differential suites compare two engines, ``"reference"`` and
``"bank"``, through :func:`repro.core.engine.create_engine`. A
``"bank"`` request that no protocol kernel serves runs on the
reference engine, so kernel-less rows compare the reference engine
with itself and the rows with a kernel carry the fast-engine coverage.
"""

from __future__ import annotations

import random

import pytest

from repro.adversaries.base import (
    AdversaryClass,
    LinkProcess,
    ObliviousView,
    RoundTopology,
)
from repro.core.messages import Message, MessageKind
from repro.core.process import Process, ProcessContext, RoundPlan


class ReliableOnlyLinks(LinkProcess):
    """Minimal oblivious link process for engine tests (G only)."""

    adversary_class = AdversaryClass.OBLIVIOUS

    def start(self, network, algorithm, rng) -> None:
        super().start(network, algorithm, rng)
        self._topology = RoundTopology.reliable_only(network)

    def choose_topology(self, view: ObliviousView) -> RoundTopology:
        return self._topology


class ScriptedProcess(Process):
    """A process that transmits according to a fixed per-round script.

    ``script[r]`` is a probability (``1.0`` = certainly transmit); the
    message payload identifies the node. Rounds beyond the script are
    silent. Used to pin down exact engine semantics.
    """

    def __init__(self, ctx: ProcessContext, script: dict[int, float]) -> None:
        super().__init__(ctx)
        self.script = script
        self.received: list[tuple[int, Message]] = []
        self.sent_rounds: list[int] = []
        self.message = Message(
            MessageKind.DATA, origin=ctx.node_id, payload=f"from-{ctx.node_id}"
        )

    def plan(self, round_index: int) -> RoundPlan:
        p = self.script.get(round_index, 0.0)
        if p <= 0.0:
            return RoundPlan.silence()
        return RoundPlan(probability=p, message=self.message)

    def on_feedback(self, round_index, sent, received) -> None:
        if sent:
            self.sent_rounds.append(round_index)
        if received is not None:
            self.received.append((round_index, received))


def make_context(node_id: int, n: int, max_degree: int = 4, seed: int = 0) -> ProcessContext:
    """Standalone process context for unit tests."""
    return ProcessContext(
        node_id=node_id, n=n, max_degree=max_degree, rng=random.Random(seed)
    )


def scripted_processes(network, scripts: dict[int, dict[int, float]]):
    """One ScriptedProcess per node; nodes without a script stay silent."""
    return [
        ScriptedProcess(make_context(u, network.n), scripts.get(u, {}))
        for u in range(network.n)
    ]


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
