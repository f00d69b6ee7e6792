"""The stable high-level entry points: Simulation, sweep, run_spec.

These wrap the spec/registry/executor machinery in the three calls
almost every user wants::

    from repro.api import ScenarioSpec, Simulation, sweep, ParallelExecutor

    spec = ScenarioSpec(
        graph=("geographic", {"n": 128}),
        problem=("global-broadcast", {"source": 0}),
        algorithm=("permuted-decay", {}),
        adversary=("ge-fade", {"p_fail": 0.25, "p_recover": 0.35}),
    )
    stats = Simulation.from_spec(spec).run(trials=20, master_seed=7)
    result = sweep(spec, "graph.n", [64, 128, 256], trials=10,
                   executor=ParallelExecutor())
"""

from __future__ import annotations

import os
from typing import Iterable, Optional, Sequence, Union

from repro.analysis.runner import (
    PreparedTrial,
    TrialResult,
    TrialStats,
    run_broadcast_trials,
    run_prepared_trial,
)
from repro.analysis.sweep import SweepResult, run_sweep
from repro.api.executor import TrialExecutor
from repro.api.spec import ScenarioSpec
from repro.core.errors import SpecError

__all__ = ["Simulation", "sweep", "load_spec", "run_spec"]

SpecLike = Union[ScenarioSpec, dict, str]


def _coerce_spec(spec: SpecLike) -> ScenarioSpec:
    if isinstance(spec, ScenarioSpec):
        return spec
    if isinstance(spec, dict):
        return ScenarioSpec.from_dict(spec)
    if isinstance(spec, str):
        return ScenarioSpec.from_json(spec)
    raise SpecError(
        f"cannot interpret {type(spec).__name__} as a spec; pass a "
        "ScenarioSpec, a spec dict, or a JSON string"
    )


def load_spec(path: Union[str, os.PathLike]) -> ScenarioSpec:
    """Read a :class:`ScenarioSpec` from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        return ScenarioSpec.from_json(handle.read())


class Simulation:
    """A scenario bound to the trial-running machinery.

    Thin by design: it owns a spec and forwards to the runner, so the
    same object serves one-off trials, repeated trials, and inspection
    of the built components.
    """

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec

    @classmethod
    def from_spec(
        cls,
        spec: SpecLike,
        *,
        engine: Optional[str] = None,
        skip: Optional[bool] = None,
    ) -> "Simulation":
        """Build from a :class:`ScenarioSpec`, spec dict, or JSON string.

        ``engine`` (optional) overrides the spec's round-loop
        implementation — e.g. ``engine="bank"`` opts a stored
        scenario into the vectorized fast path without editing the
        file. ``skip`` (optional) likewise overrides event-driven round
        skipping. Results are independent of both; only wall-clock
        changes.
        """
        resolved = _coerce_spec(spec)
        if engine is not None:
            resolved = resolved.with_param("engine", engine)
        if skip is not None:
            resolved = resolved.with_param("skip", skip)
        return cls(resolved)

    @classmethod
    def from_file(cls, path: Union[str, os.PathLike]) -> "Simulation":
        return cls(load_spec(path))

    def prepared_trial(self, seed: int) -> PreparedTrial:
        """The fully built (but unrun) trial for one seed — for inspection."""
        return self.spec.build(seed)

    def run_trial(self, seed: int) -> TrialResult:
        """Execute a single trial."""
        return run_prepared_trial(self.spec.build(seed), seed)

    def run(
        self,
        *,
        trials: int,
        master_seed: int = 2013,
        executor: Optional[TrialExecutor] = None,
        label: Optional[object] = None,
    ) -> TrialStats:
        """Run independent trials (optionally fanned out by an executor).

        The seed-derivation label defaults to a constant — never the
        spec's cosmetic ``name`` — so editing the name of an otherwise
        identical scenario cannot change its results. Pass ``label``
        explicitly to decorrelate batches of the same scenario.
        """
        return run_broadcast_trials(
            self.spec,
            trials=trials,
            master_seed=master_seed,
            label=label if label is not None else "trial",
            executor=executor,
        )


def sweep(
    spec: SpecLike,
    param: str,
    values: Iterable[object],
    *,
    trials: int,
    master_seed: int = 2013,
    executor: Optional[TrialExecutor] = None,
    name: Optional[str] = None,
) -> SweepResult:
    """Sweep one spec parameter across values.

    ``param`` is a dotted path into the spec (``"graph.n"``,
    ``"adversary.p_fail"``, ``"max_rounds"``); each point runs
    ``trials`` independent executions of the derived spec. Seeds derive
    per ``(master_seed, sweep name, value)``, so the whole sweep is
    reproducible from one seed regardless of the executor. The default
    sweep name depends only on ``param`` — never the spec's cosmetic
    ``name`` — so relabelling a scenario cannot change its results;
    pass ``name`` explicitly to decorrelate repeated sweeps.
    """
    base = _coerce_spec(spec)
    return run_sweep(
        name or f"sweep[{param}]",
        list(values),
        lambda value: base.with_param(param, value),
        trials=trials,
        master_seed=master_seed,
        executor=executor,
    )


def run_spec(
    spec: SpecLike,
    *,
    trials: int = 1,
    master_seed: int = 2013,
    executor: Optional[TrialExecutor] = None,
    engine: Optional[str] = None,
    skip: Optional[bool] = None,
) -> TrialStats:
    """Convenience: coerce, run, aggregate — the ``repro run-spec`` verb."""
    return Simulation.from_spec(spec, engine=engine, skip=skip).run(
        trials=trials, master_seed=master_seed, executor=executor
    )
