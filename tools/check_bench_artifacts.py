#!/usr/bin/env python3
"""Bench-artifact checker: the committed numbers must support the claims.

The repository commits bench artifacts (``benchmarks/results/
BENCH_<experiment>_<scale>_<engine>.json``) so perf claims are reviewable
data rather than folklore. The guards in ``benchmarks/_common.py`` bite
only when someone *regenerates* an artifact; this checker re-validates
the committed set on every CI run, so an artifact edited by hand, half
regenerated, or regenerated on a machine where a fast path silently
stopped paying cannot merge quietly:

* **fast beats reference** — every skip-enabled fast-engine artifact
  must be no slower than 1.10x the committed ``reference`` artifact for
  the same (experiment, scale) cell (min-of-repeats, the noise-robust
  statistic — the same rule as ``assert_not_slower_than_reference``);
* **decay kernels pay** — the committed E1b_large ``bank`` cells must
  beat the committed ``reference`` cells by >= 3x at the largest
  parameter of both single-message series ("round-robin",
  "static-local-decay"). Without a kernel the cell runs on the
  reference engine, byte-identical, just slow, so traces cannot show a
  kernel that stopped paying; only the committed timings can;
* **skipping conserves rounds** — for every (experiment, scale,
  engine) cell with both a skip-enabled ``TRACE_*.json`` and a
  ``-noskip`` one, ``(rounds.executed + rounds.skipped) / repeats``
  must agree. Skipping changes how rounds are produced, never how
  many, so a mismatch means a skip loop emitted too few or too many
  rounds (or one of the traces is stale).

No third-party dependencies; exit 0 when clean, 1 with a per-problem
report otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"

#: Fast engines may be at most this factor slower than the reference
#: loop (absorbs machine noise between the two committed runs).
REFERENCE_ALLOWANCE = 1.10

#: (experiment, scale, fast engine, slow engine, series substring, min ratio):
#: largest-parameter cell comparisons between two committed artifacts.
CELL_SPEEDUPS = [
    ("E1b_large", "small", "bank", "reference", "round-robin", 3.0),
    ("E1b_large", "small", "bank", "reference", "static-local-decay", 3.0),
]


def load_artifacts(pattern: str = "BENCH_*.json") -> dict[tuple[str, str, str], dict]:
    """Committed artifacts keyed by (experiment, scale, engine label)."""
    artifacts: dict[tuple[str, str, str], dict] = {}
    for path in sorted(RESULTS_DIR.glob(pattern)):
        payload = json.loads(path.read_text())
        # ``skip`` is null for default-skip runs; only an explicit
        # ``false`` (REPRO_BENCH_SKIP=0) marks a -noskip artifact.
        label = payload["engine"] + ("-noskip" if payload.get("skip") is False else "")
        artifacts[(payload["experiment"], payload["scale"], label)] = payload
    return artifacts


def check_reference_floor(artifacts: dict, problems: list[str]) -> None:
    """Every skip-enabled fast-engine artifact beats its reference."""
    for (experiment, scale, label), payload in artifacts.items():
        if label == "reference" or label.endswith("-noskip"):
            continue
        reference = artifacts.get((experiment, scale, "reference"))
        if reference is None:
            continue
        mine = payload["seconds"]["min"]
        floor = reference["seconds"]["min"]
        if mine > floor * REFERENCE_ALLOWANCE:
            problems.append(
                f"{experiment}/{scale}: committed {label!r} artifact took "
                f"{mine:.3f}s vs reference {floor:.3f}s — the fast engine "
                "is slower than the loop it is supposed to beat"
            )


def largest_cell(payload: dict, series_contains: str):
    """The largest-parameter cell of the matching series, or ``None``."""
    cells = [
        cell
        for cell in payload.get("cells", [])
        if series_contains in cell["series"]
    ]
    return max(cells, key=lambda cell: cell["parameter"]) if cells else None


def check_cell_speedups(artifacts: dict, problems: list[str]) -> None:
    """The declared engine-vs-engine cell ratios hold in committed data."""
    for experiment, scale, fast, slow, series, min_ratio in CELL_SPEEDUPS:
        fast_payload = artifacts.get((experiment, scale, fast))
        slow_payload = artifacts.get((experiment, scale, slow))
        if fast_payload is None or slow_payload is None:
            problems.append(
                f"{experiment}/{scale}: missing committed {fast!r} or "
                f"{slow!r} artifact for the {series!r} speedup guard"
            )
            continue
        fast_cell = largest_cell(fast_payload, series)
        slow_cell = largest_cell(slow_payload, series)
        if fast_cell is None or slow_cell is None:
            problems.append(
                f"{experiment}/{scale}: committed artifacts carry no "
                f"{series!r} cells — regenerate with cell recording on"
            )
            continue
        if fast_cell["parameter"] != slow_cell["parameter"]:
            problems.append(
                f"{experiment}/{scale}: artifacts disagree on the largest "
                f"{series!r} parameter ({fast_cell['parameter']} vs "
                f"{slow_cell['parameter']}) — regenerate both engines"
            )
            continue
        ratio = slow_cell["seconds"] / fast_cell["seconds"]
        if ratio < min_ratio:
            problems.append(
                f"{experiment}/{scale}: engine {fast!r} beats {slow!r} by "
                f"only {ratio:.2f}x on {fast_cell['series']!r} at parameter "
                f"{fast_cell['parameter']} ({slow_cell['seconds']:.3f}s -> "
                f"{fast_cell['seconds']:.3f}s), claimed >= {min_ratio:g}x"
            )


def rounds_per_repeat(trace: dict) -> float:
    """Rounds produced per repeat, executed and skipped alike."""
    counters = trace["counters"]
    total = counters.get("rounds.executed", 0) + counters.get("rounds.skipped", 0)
    return total / trace["repeats"]


def check_skip_conservation(traces: dict, problems: list[str]) -> None:
    """Skip and -noskip traces of one cell produce the same rounds."""
    for (experiment, scale, label), trace in traces.items():
        noskip = traces.get((experiment, scale, f"{label}-noskip"))
        if noskip is None:
            continue
        skipped, full = rounds_per_repeat(trace), rounds_per_repeat(noskip)
        if skipped != full:
            problems.append(
                f"{experiment}/{scale}: {label!r} trace produced {skipped:g} "
                f"rounds per repeat (executed + skipped) vs {full:g} with "
                "skipping off — skipping must never change the round count"
            )


def main() -> int:
    if not RESULTS_DIR.is_dir():
        print(f"no results directory at {RESULTS_DIR}", file=sys.stderr)
        return 1
    artifacts = load_artifacts()
    problems: list[str] = []
    check_reference_floor(artifacts, problems)
    check_cell_speedups(artifacts, problems)
    check_skip_conservation(load_artifacts("TRACE_*.json"), problems)
    if problems:
        print(f"{len(problems)} bench-artifact problem(s):")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(f"checked {len(artifacts)} committed bench artifacts: clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
