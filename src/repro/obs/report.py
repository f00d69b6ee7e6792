"""Trace-file summaries: the ``repro trace`` phase-time table.

A trace file is JSONL — one record per :meth:`Recorder.emit` call.
The schema (validated by ``tools/check_trace_schema.py``):

* ``kind="trial"`` — one engine execution. Required keys: ``engine``
  (the implementation that ran: ``reference`` or ``bank``, which a
  ``bitset`` request resolves to), ``seed``, ``n``, ``rounds``,
  ``solved``, ``phases`` (phase name → nanoseconds, from
  :data:`PHASES`), ``counters`` (semantic counters, e.g.
  ``rounds.executed``/``rounds.skipped``).
* ``kind="shard"`` — a campaign shard rollup: ``shard_id``,
  ``seconds``, plus the same ``phases``/``counters`` aggregated over
  the shard's trials.

:func:`summarize` folds any mix of records into per-engine phase
totals; :func:`render_phase_table` turns one summary into the table
``repro trace`` prints.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional

__all__ = ["PHASES", "read_trace", "summarize", "render_phase_table"]

#: The engine phase taxonomy, in pipeline order. Every per-round span
#: an engine records lands in exactly one of these:
#: ``plan`` — per-node ``plan()`` calls or a kernel's plan row;
#: ``coins`` — the Bernoulli transmission draw;
#: ``adversary`` — ``choose_topology`` + validation (mask minting);
#: ``reception`` — word-rule / candidate-scan resolution;
#: ``feedback`` — ``on_feedback`` dispatch;
#: ``observers`` — record construction, history, observer callbacks;
#: ``skip`` — quiet-span probes and emission (skipped-round plumbing).
PHASES = (
    "plan",
    "coins",
    "adversary",
    "reception",
    "feedback",
    "observers",
    "skip",
)


def read_trace(path: str) -> list[dict]:
    """Parse one JSONL trace file (blank lines tolerated)."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_number}: not JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise ValueError(
                    f"{path}:{line_number}: trace records are objects, "
                    f"got {type(record).__name__}"
                )
            records.append(record)
    return records


def summarize(records: Iterable[dict]) -> dict:
    """Fold trace records into per-engine phase totals.

    Returns ``{engine: {"trials", "rounds", "phases": {name: ns},
    "counters": {name: total}}}`` over the ``kind="trial"`` records
    (shard rollups carry no engine axis and are skipped here).
    """
    out: dict[str, dict] = {}
    for record in records:
        if record.get("kind") != "trial":
            continue
        engine = record.get("engine", "?")
        bucket = out.setdefault(
            engine, {"trials": 0, "rounds": 0, "phases": {}, "counters": {}}
        )
        bucket["trials"] += 1
        bucket["rounds"] += int(record.get("rounds", 0))
        for name, ns in (record.get("phases") or {}).items():
            bucket["phases"][name] = bucket["phases"].get(name, 0) + ns
        for name, value in (record.get("counters") or {}).items():
            bucket["counters"][name] = bucket["counters"].get(name, 0) + value
    return out


def render_phase_table(summary: dict, *, title: Optional[str] = None) -> str:
    """Render :func:`summarize` output as the ``repro trace`` table."""
    from repro.analysis.tables import render_table

    rows = []
    for engine in sorted(summary):
        bucket = summary[engine]
        total_ns = sum(bucket["phases"].values()) or 1
        ordered = [name for name in PHASES if name in bucket["phases"]]
        ordered += sorted(set(bucket["phases"]) - set(PHASES))
        for name in ordered:
            ns = bucket["phases"][name]
            rows.append(
                [
                    engine,
                    name,
                    f"{ns / 1e6:.3f}",
                    f"{100.0 * ns / total_ns:.1f}%",
                ]
            )
        rows.append(
            [
                engine,
                "(total)",
                f"{sum(bucket['phases'].values()) / 1e6:.3f}",
                f"{bucket['trials']} trials, {bucket['rounds']} rounds",
            ]
        )
    if not rows:
        return "no trial records in trace"
    return render_table(
        ["engine", "phase", "ms", "share"],
        rows,
        title=title or "per-phase time breakdown:",
    )
