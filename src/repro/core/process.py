"""The randomized-process abstraction executed at each network node.

The dual graph model runs ``n`` randomized processes in synchronous
rounds; in each round a process either transmits a message or listens.
Every algorithm in the paper takes the form "given my current state,
transmit message *m* with probability *p*" — decay uses
``p ∈ {1/2, 1/4, …, 1/n}``, round robin uses ``p ∈ {0, 1}``, the
initialization stage of Section 4.3 uses ``p = 1/log n``, and so on.

We therefore split each round into a deterministic *plan* and a coin:

* :meth:`Process.plan` returns a :class:`RoundPlan` — the transmit
  probability and the message that would be sent — as a deterministic
  function of the process state at the start of the round.
* The engine flips the Bernoulli coin and tells the process what
  happened through :meth:`Process.on_feedback`.

This split is not merely convenient; it *is* the information structure
the paper's adversaries are graded on. The online adaptive link process
of Theorem 3.1 is entitled to the conditional expectation
``E[|X| | S]`` of the transmitter count given the start-of-round states
— exactly the sum of declared plan probabilities — while the offline
adaptive process additionally sees the realized coins. Keeping the plan
declarative makes those two quantities honest engine-level facts rather
than adversary-side guesswork.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import ClassVar, Optional

from repro.core.errors import PlanError
from repro.core.messages import Message

__all__ = [
    "RoundPlan",
    "ProcessContext",
    "Process",
    "SilentProcess",
]

#: A plan that listens for the round (probability zero, no message).
_SILENCE_SENTINEL = None


@dataclass(frozen=True)
class RoundPlan:
    """A process's declared behavior for one round.

    ``probability`` is the chance of transmitting ``message`` this
    round; with the complementary probability the process listens.
    ``probability = 0`` means the process certainly listens and
    ``message`` may be ``None``; any positive probability requires a
    message.
    """

    probability: float
    message: Optional[Message] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise PlanError(f"transmit probability {self.probability} outside [0, 1]")
        if self.probability > 0.0 and self.message is None:
            raise PlanError("a plan with positive transmit probability needs a message")

    @classmethod
    def silence(cls) -> "RoundPlan":
        """The listening plan (probability zero)."""
        return _SILENCE

    @classmethod
    def certain(cls, message: Message) -> "RoundPlan":
        """A deterministic transmission (probability one)."""
        return cls(probability=1.0, message=message)


_SILENCE = RoundPlan(probability=0.0, message=None)


@dataclass(frozen=True, slots=True)
class ProcessContext:
    """Per-node immutable context handed to a process at construction.

    Matches the knowledge the model grants processes: the network size
    ``n`` and the maximum degree ``Δ`` (of ``G'``) are "known to
    processes in advance" (Section 2); the node's own id models the
    unique identifiers standard in this literature; ``rng`` is the
    node's private randomness for state updates that are not the
    transmission coin itself (e.g. leader self-election).

    Processes must *not* inspect the network topology — the adversary
    assigns processes to nodes and the assignment is unknown to them.
    """

    node_id: int
    n: int
    max_degree: int
    rng: random.Random


class Process(abc.ABC):
    """Base class for node processes.

    Subclasses implement :meth:`plan` and (usually) :meth:`on_feedback`.
    The engine guarantees the calling order per round ``r``::

        plan(r)  →  [engine flips coin, resolves radio reception]  →
        on_feedback(r, sent, received)

    and that ``begin()`` runs exactly once before round 0.

    Two *optional* hooks license round skipping without changing any
    observable behavior; both default to the conservative "no promise"
    setting, so subclasses that ignore them are simulated exactly as
    before:

    * :attr:`idle_feedback_noop` — class-level promise that
      ``on_feedback(r, sent=False, received=None)`` (the node listened
      and heard silence/collision) does not change process state.
    * :meth:`next_state_change` — the plan's horizon absent feedback;
      see its docstring for the exact contract.
    """

    #: Promise that an *idle* feedback call — ``sent=False`` and
    #: ``received=None`` — is a state no-op, letting the skip probe
    #: elide all-silent rounds. Processes whose feedback consumes randomness every round
    #: (e.g. private rung redraws, leader-election coins) must leave
    #: this ``False``: skipping their idle calls would desynchronize
    #: their RNG streams. Subclasses that do not override
    #: :meth:`on_feedback` at all are detected automatically and need
    #: not set it.
    idle_feedback_noop: ClassVar[bool] = False

    def __init__(self, ctx: ProcessContext) -> None:
        self.ctx = ctx

    @property
    def node_id(self) -> int:
        """The node this process is assigned to."""
        return self.ctx.node_id

    def begin(self) -> None:  # noqa: B027 - intentional optional hook
        """Hook run once before the first round (optional)."""

    @abc.abstractmethod
    def plan(self, round_index: int) -> RoundPlan:
        """Declare the transmit plan for ``round_index``.

        Must be a deterministic function of the process state at the
        start of the round. State mutation belongs in
        :meth:`on_feedback`, not here — the engine may, in principle,
        call :meth:`plan` more than once per round (the lower-bound
        reduction players do exactly that when re-simulating).
        """

    def on_feedback(self, round_index: int, sent: bool, received: Optional[Message]) -> None:
        """Learn the outcome of ``round_index``.

        ``sent`` reports whether this node's coin came up transmit.
        ``received`` is the message delivered to this node, or ``None``
        — which deliberately conflates silence with collision, since the
        model has no collision detection. A transmitting node never
        receives (``sent`` implies ``received is None``).
        """

    def next_state_change(self, round_index: int) -> Optional[int]:
        """The skip contract: first round the *plan* itself can change.

        Returns the first round strictly after ``round_index`` at which
        :meth:`plan` may return a different :class:`RoundPlan`
        (probability *or* message) without this process having received
        an ``on_feedback`` call in between; ``None`` means "only
        feedback can change my plan".

        The round-skipping engines use this promise to fast-forward
        through spans ``[r, r')`` in which no plan can change — see
        ``docs/architecture.md`` ("Round skipping").

        Contract requirements for overrides:

        * the promise must hold *absent feedback*: if no
          ``on_feedback`` call is delivered in ``[round_index, c)``,
          then ``plan(r') == plan(round_index)`` for every ``r'`` in
          that span (``c`` the returned round);
        * the call must be pure — no state mutation, no RNG draws.

        The default makes no promise (the plan may change next round),
        which disables skipping over this process — exactly the safe
        behavior for third-party subclasses that predate the contract.
        """
        return round_index + 1

    def describe_state(self) -> str:
        """Optional human-readable state summary for traces."""
        return f"{type(self).__name__}(node={self.node_id})"


class SilentProcess(Process):
    """A process that always listens.

    Useful as a filler for nodes with no role in an experiment and as
    the simplest possible :class:`Process` for engine tests.
    """

    idle_feedback_noop = True

    def plan(self, round_index: int) -> RoundPlan:
        return RoundPlan.silence()

    def next_state_change(self, round_index: int) -> Optional[int]:
        return None  # silent forever
