"""Render a result store into the committed results document.

``repro campaign report`` turns everything the
:class:`~repro.campaign.store.ResultStore` knows into
``docs/results.md``: one row per measured Figure-1 cell (experiment ×
scale × engine × seed) with its measured growth classes, contrast-claim
verdicts, and engine/runtime, followed by the not-yet-measured
experiments and the benchmark timing history.

The document is *reproducible*: every value except wall-clock runtimes
is a pure function of the store's seed-determined aggregates, and
runtimes are rendered in a recognizable ``<seconds>s`` token that
:func:`normalize` masks. CI's ``campaign-smoke`` job re-runs the smoke
campaign, regenerates the report, and fails when the committed copy is
stale (:func:`is_stale` — a comparison of the normalized texts).
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Mapping, Optional, Union

from repro.analysis.tables import render_markdown_table

__all__ = [
    "render_results_markdown",
    "write_report",
    "normalize",
    "is_stale",
    "GENERATED_MARKER",
]

#: Labels the document as machine-written; staleness itself is judged
#: purely by :func:`is_stale`'s normalized-text comparison.
GENERATED_MARKER = "<!-- generated by `repro campaign report` — do not edit by hand -->"

#: Volatile tokens: wall-clock runtimes like ``0.42s`` or ``12s``.
_TIMING_RE = re.compile(r"\b\d+(?:\.\d+)?s\b")


def normalize(text: str) -> str:
    """Strip the volatile parts of a rendered report.

    Wall-clock runtime tokens become ``_s`` and trailing whitespace is
    dropped, so two reports over the same aggregates compare equal no
    matter which machine timed the shards.
    """
    lines = [_TIMING_RE.sub("_s", line).rstrip() for line in text.splitlines()]
    return "\n".join(lines).strip() + "\n"


def is_stale(existing: Optional[str], fresh: str) -> bool:
    """Does the committed report disagree with a fresh rendering?"""
    if existing is None:
        return True
    return normalize(existing) != normalize(fresh)


def _fmt_seconds(seconds: object) -> str:
    try:
        return f"{float(seconds):.2f}s"  # matched (and masked) by _TIMING_RE
    except (TypeError, ValueError):
        return "—"


def _growth_cell(series: list[dict]) -> str:
    """Summarize the claim-bearing series: ``measured (expected) ✓``."""
    parts = []
    for entry in series:
        if entry.get("expected_growth") is None:
            continue
        mark = "✓" if entry.get("growth_ok") else "✗"
        parts.append(
            f"{entry['label']}: {entry.get('growth_class') or '?'} "
            f"(exp. {entry['expected_growth']}) {mark}"
        )
    return "<br>".join(parts) if parts else "—"


def _contrast_cell(contrasts: list[dict]) -> str:
    if not contrasts:
        return "—"
    held = sum(1 for c in contrasts if c.get("holds"))
    mark = "✓" if held == len(contrasts) else "✗"
    return f"{held}/{len(contrasts)} hold {mark}"


def _min_success(series: list[dict]) -> str:
    rates = [
        min(entry["sweep"]["success_rates"])
        for entry in series
        if entry.get("sweep", {}).get("success_rates")
    ]
    return f"{min(rates):.0%}" if rates else "—"


def _cell_sort_key(record: dict) -> tuple:
    return (
        str(record.get("experiment")),
        str(record.get("scale")),
        str(record.get("engine")),
        int(record.get("master_seed", 0)),
        str(record.get("campaign")),
    )


def render_results_markdown(store, *, registry: Optional[Mapping] = None) -> str:
    """Render the whole store as the ``docs/results.md`` document."""
    if registry is None:
        from repro.experiments import ALL_EXPERIMENTS

        registry = ALL_EXPERIMENTS

    records = sorted(store.shard_records(), key=_cell_sort_key)
    benches = store.bench_records()

    lines = [
        "# Results",
        "",
        GENERATED_MARKER,
        "",
        "Every measured Figure-1 cell, straight from the campaign result",
        "store — regenerate with:",
        "",
        "```console",
        "$ repro campaign run --spec campaigns/smoke.json --store <store-dir>",
        "$ repro campaign report --store <store-dir> --out docs/results.md",
        "```",
        "",
        "A cell is one `(experiment, scale, engine, seed)` shard; growth",
        "classes and contrast verdicts are seed-determined (identical",
        "across engines and across kill/resume cycles), runtimes are",
        "wall-clock and ignored by the CI staleness check. Experiment",
        "definitions live in [experiments.md](experiments.md); the",
        "campaign machinery is described in",
        "[architecture.md](architecture.md#campaigns-sharded-grid-runs).",
        "",
        "`tiny`-scale cells are CI smoke coverage: sweeps of two points",
        "at toy sizes, where growth classification is necessarily noisy",
        "(a ✗ there is a scale artifact, not a reproduction failure).",
        "`small`/`full` cells carry the real verdicts.",
        "",
        "## Verdicts by cell",
        "",
    ]

    if records:
        headers = [
            "experiment", "figure cell", "scale", "engine", "seed",
            "growth (measured vs expected)", "contrasts", "min success", "runtime",
        ]
        rows = []
        for record in records:
            aggregate = record.get("aggregate", {})
            rows.append(
                [
                    record.get("experiment", "?"),
                    aggregate.get("figure_cell", "?"),
                    record.get("scale", "?"),
                    record.get("engine", "?"),
                    record.get("master_seed", "?"),
                    _growth_cell(aggregate.get("series", [])),
                    _contrast_cell(aggregate.get("contrasts", [])),
                    _min_success(aggregate.get("series", [])),
                    _fmt_seconds(record.get("meta", {}).get("seconds")),
                ]
            )
        lines.append(render_markdown_table(headers, rows))
    else:
        lines.append("*No campaign shards recorded yet.*")
    lines.append("")

    # ------------------------------------------------------------------
    # Contrast claims, spelled out
    # ------------------------------------------------------------------
    contrast_rows = []
    for record in records:
        aggregate = record.get("aggregate", {})
        for claim in aggregate.get("contrasts", []):
            bound = f"≥ {claim.get('min_ratio'):g}"
            if claim.get("max_ratio") is not None:
                bound += f", ≤ {claim.get('max_ratio'):g}"
            # Non-finite ratios arrive as the string "inf" (JSON-safe
            # encoding chosen by ExperimentResult.to_record).
            ratio = claim.get("ratio")
            ratio_text = (
                f"{ratio:.2f}×"
                if isinstance(ratio, (int, float)) and ratio != float("inf")
                else "∞"
            )
            contrast_rows.append(
                [
                    record.get("experiment", "?"),
                    f"{record.get('scale')}/{record.get('engine')}/seed{record.get('master_seed')}",
                    f"`{claim.get('slow')}` / `{claim.get('fast')}`",
                    ratio_text,
                    bound,
                    "holds ✓" if claim.get("holds") else "FAILS ✗",
                ]
            )
    if contrast_rows:
        lines += [
            "## Contrast claims",
            "",
            "The lower-bound cells' verdict-bearing content: the proof's",
            "adversary makes the victim series measurably slower than its",
            "control at the largest swept parameter.",
            "",
            render_markdown_table(
                ["experiment", "cell", "slow / fast", "measured", "required", "verdict"],
                contrast_rows,
            ),
            "",
        ]

    # ------------------------------------------------------------------
    # Coverage
    # ------------------------------------------------------------------
    measured = {str(r["experiment"]) for r in records if "experiment" in r}
    missing = [exp_id for exp_id in sorted(registry) if exp_id not in measured]
    lines += ["## Not yet measured", ""]
    if missing:
        lines += [
            "Registered experiments without a shard record in this store",
            "(see [experiments.md](experiments.md) for how to run them):",
            "",
            ", ".join(f"`{exp_id}`" for exp_id in missing),
            "",
        ]
    else:
        lines += ["Every registered experiment has at least one measured cell.", ""]

    # ------------------------------------------------------------------
    # Bench history
    # ------------------------------------------------------------------
    lines += ["## Benchmark history", ""]
    if benches:
        bench_rows = []
        for payload in sorted(benches, key=lambda p: str(p.get("artifact"))):
            seconds = payload.get("seconds", {})
            bench_rows.append(
                [
                    payload.get("experiment", "?"),
                    payload.get("scale", "?"),
                    # ``skip: false`` marks a -noskip artifact.
                    str(payload.get("engine", "?"))
                    + ("-noskip" if payload.get("skip") is False else ""),
                    payload.get("repeats", "?"),
                    _fmt_seconds(seconds.get("median")),
                    f"`{payload.get('artifact')}`",
                ]
            )
        lines += [
            "Wall-clock medians from the committed `benchmarks/results/`",
            "artifacts, merged into the same store",
            "(see [architecture.md](architecture.md#benchmarks-and-the-perf-trajectory)):",
            "",
            render_markdown_table(
                ["experiment", "scale", "engine", "repeats", "median", "artifact"],
                bench_rows,
            ),
            "",
        ]
    else:
        lines += ["*No benchmark artifacts found.*", ""]

    return "\n".join(lines).rstrip() + "\n"


def write_report(store, path: Union[str, Path], **kwargs) -> str:
    """Render and write the report; returns the rendered text."""
    text = render_results_markdown(store, **kwargs)
    Path(path).write_text(text, encoding="utf-8")
    return text
