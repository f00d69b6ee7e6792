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
  "static-local-decay"). The per-process plan path is byte-identical,
  just slow, so traces cannot show a kernel that stopped paying; only
  the committed timings can.

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


def load_artifacts() -> dict[tuple[str, str, str], dict]:
    """Committed artifacts keyed by (experiment, scale, engine label)."""
    artifacts: dict[tuple[str, str, str], dict] = {}
    for path in sorted(RESULTS_DIR.glob("BENCH_*.json")):
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


def main() -> int:
    if not RESULTS_DIR.is_dir():
        print(f"no results directory at {RESULTS_DIR}", file=sys.stderr)
        return 1
    artifacts = load_artifacts()
    problems: list[str] = []
    check_reference_floor(artifacts, problems)
    check_cell_speedups(artifacts, problems)
    if problems:
        print(f"{len(problems)} bench-artifact problem(s):")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(f"checked {len(artifacts)} committed bench artifacts: clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
