"""Per-message reporting for multi-message trials.

``repro run-spec`` aggregates trials into round statistics, but the
multi-message acceptance question is finer: *when did each message
finish?* :func:`multi_message_detail` answers it for one seed on
either execution path — the radio engines (reading the
:class:`~repro.problems.multi_message.MultiMessageObserver`) or the
oracle MAC (reading the event simulation's learn times) — so the CLI
can print one row per message next to the aggregate table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.errors import SpecError

__all__ = ["MultiMessageDetail", "multi_message_detail"]


@dataclass(frozen=True)
class MultiMessageDetail:
    """One trial's per-message completion picture.

    ``message_rounds[i]`` is the round message ``i`` reached its last
    node (``None`` if it never did within the cap; ``-1`` if complete
    before round 0). ``rounds`` is the execution's total round count,
    censored at the cap when unsolved.
    """

    seed: int
    solved: bool
    rounds: int
    sources: tuple[int, ...]
    message_rounds: tuple[Optional[int], ...]

    @property
    def k(self) -> int:
        return len(self.message_rounds)

    def rows(self) -> list[list[object]]:
        """Table rows: message index, source, completion round."""
        return [
            [index, source, "—" if complete is None else complete]
            for index, (source, complete) in enumerate(
                zip(self.sources, self.message_rounds)
            )
        ]


def _engine_detail(trial, seed: int) -> tuple[bool, int, Sequence[Optional[int]]]:
    """One engine execution, reading the multi-message observer."""
    from repro.analysis.runner import run_prepared_trial

    observer = trial.problem.make_observer()
    result = run_prepared_trial(trial, seed, observer=observer)
    return result.solved, result.rounds, observer.message_complete_round


def multi_message_detail(spec, seed: int) -> MultiMessageDetail:
    """Run one trial of a multi-message spec and report per message.

    ``spec`` is anything whose ``build(seed)`` yields a
    :class:`~repro.analysis.runner.PreparedTrial` (normally a
    :class:`~repro.api.spec.ScenarioSpec` with ``messages=`` set).
    """
    trial = spec.build(seed)
    assignment = getattr(trial.problem, "assignment", None)
    if assignment is None:
        raise SpecError(
            "per-message detail needs the 'multi-message' problem "
            f"(got {trial.problem.describe()})"
        )
    if trial.oracle:
        from repro.mac.oracle import simulate_oracle

        outcome = simulate_oracle(trial, seed)
        solved, rounds = outcome.solved, outcome.rounds
        # Censor like the engine path: a message whose completion lies
        # beyond the cap was never observed to finish within it.
        per_message = tuple(
            None if r is None or r > trial.max_rounds else r
            for r in outcome.message_rounds
        )
    else:
        solved, rounds, per_message = _engine_detail(trial, seed)
    return MultiMessageDetail(
        seed=seed,
        solved=solved,
        rounds=rounds,
        sources=tuple(assignment.sources),
        message_rounds=tuple(per_message),
    )
