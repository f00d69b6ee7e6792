"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.adversaries.base import (
    AdversaryClass,
    LinkProcess,
    ObliviousView,
    RoundTopology,
)
from repro.core.engine import create_engine, resolve_engine_choice
from repro.core.fastpath import BitsetRadioNetworkEngine
from repro.core.messages import Message, MessageKind
from repro.core.process import Process, ProcessContext, RoundPlan

#: The fast engine forced onto its per-process plan path
#: (``kernel=None``). Registered algorithms with a bank kernel
#: never reach that path through ``create_engine``, so the differential
#: suites run it as a third engine variant beside ``"reference"`` and
#: ``"bank"`` (which probes for a kernel).
NO_KERNEL = "bank-nokernel"

#: Every engine variant the differential suites compare.
ENGINE_VARIANTS = ("reference", NO_KERNEL, "bank")


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


def make_engine(variant: str, network, processes, link_process, **kwargs):
    """``create_engine`` for an engine name or :data:`NO_KERNEL`."""
    if variant != NO_KERNEL:
        return create_engine(network, processes, link_process, engine=variant, **kwargs)
    _, skip, _ = resolve_engine_choice(
        "bank", processes, link_process, skip=kwargs.pop("skip", None)
    )
    return BitsetRadioNetworkEngine(
        network, processes, link_process, kernel=None, skip=skip, **kwargs
    )


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
