"""Experiment harness: from single executions to Figure-1 style claims.

The paper states asymptotic bounds; the reproduction's claims are
*measured growth shapes*. This package is the pipeline that turns
engine executions into those claims, bottom-up:

* :mod:`repro.analysis.runner` — one seed bank
  (:func:`run_bank_trials`: route the bank to an engine, build each
  lane via :func:`repro.core.engine.build_engine`, run to the problem
  observer's stop condition; :func:`run_prepared_trial` is a bank of
  one) and batches of independent trials with
  per-seed derivation (:func:`run_broadcast_trials`), aggregated into
  :class:`TrialStats` (success rate, censored medians/percentiles —
  censoring at the round cap is conservative for lower bounds).

* :mod:`repro.analysis.sweep` — one scenario family across a swept
  parameter (``n``, ``D``, ``Δ``): the empirical analogue of "as n
  grows", and the unit every Figure-1 cell is measured in.

* :mod:`repro.analysis.fitting` — turns sweep medians into shape
  verdicts: log-log power-law slopes, candidate-model selection
  (``log n``, ``log² n``, ``√n``, ``n`` …), and the coarse
  :func:`~repro.analysis.fitting.classify_growth` classes
  (sublinear / near-linear) that the experiment registry asserts —
  robust claims, since neighbouring fine-grained models are
  indistinguishable at laptop scale.

* :mod:`repro.analysis.progress` — trajectory diagnostics (informed
  curves, per-hop latencies): *how* a broadcast advances, which is
  where algorithm mechanisms and attack effects become visible before
  they show up in the endpoint round counts.

* :mod:`repro.analysis.tables` — fixed-width/Markdown rendering shared
  by the CLI, benches, and EXPERIMENTS.md so reports diff cleanly.

Everything here is engine-agnostic: trials built from specs honor the
spec's ``engine`` field, and statistics are identical under the
reference and bank engines by the equivalence guarantee.
"""

from repro.analysis.fitting import (
    STANDARD_MODELS,
    ModelFit,
    PowerLawFit,
    best_model_name,
    fit_model,
    fit_power_law,
    select_model,
)
from repro.analysis.runner import (
    PreparedTrial,
    Scenario,
    TrialResult,
    TrialStats,
    default_round_cap,
    infer_problem,
    run_broadcast_trial,
    run_broadcast_trials,
    run_prepared_trial,
)
from repro.analysis.progress import (
    ascii_sparkline,
    frontier_progress,
    informed_curve,
    per_hop_latencies,
)
from repro.analysis.sweep import SweepPoint, SweepResult, run_sweep
from repro.analysis.tables import (
    format_cell,
    render_markdown_table,
    render_table,
    rows_from_dicts,
)

__all__ = [
    "PreparedTrial",
    "Scenario",
    "TrialResult",
    "TrialStats",
    "run_broadcast_trial",
    "run_broadcast_trials",
    "run_prepared_trial",
    "default_round_cap",
    "infer_problem",
    "SweepPoint",
    "SweepResult",
    "run_sweep",
    "PowerLawFit",
    "fit_power_law",
    "ModelFit",
    "fit_model",
    "select_model",
    "best_model_name",
    "STANDARD_MODELS",
    "render_table",
    "render_markdown_table",
    "format_cell",
    "rows_from_dicts",
    "informed_curve",
    "frontier_progress",
    "per_hop_latencies",
    "ascii_sparkline",
]
