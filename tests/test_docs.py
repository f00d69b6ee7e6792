"""The documentation stays linked to reality.

Runs the standalone checker (tools/check_docs.py — the same script the
CI docs job invokes) in-process, plus a couple of repo-specific
guarantees the checker is too generic to know about.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_docs", module)
    spec.loader.exec_module(module)
    return module


def test_docs_tree_exists_and_is_linked_from_readme():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for name in ("architecture.md", "paper_map.md", "experiments.md", "results.md"):
        assert (REPO_ROOT / "docs" / name).exists()
        assert f"docs/{name}" in readme


def test_links_anchors_fences_and_path_references():
    checker = _load_checker()
    problems: list[str] = []
    for document in checker.DOCUMENTS:
        problems.extend(checker.check_document(document))
    assert not problems, "\n".join(problems)


def test_paper_map_covers_the_figure_one_experiments():
    """Every registered experiment id appears in the paper map."""
    from repro.experiments import ALL_EXPERIMENTS

    paper_map = (REPO_ROOT / "docs" / "paper_map.md").read_text(encoding="utf-8")
    missing = [
        exp_id
        for exp_id in ALL_EXPERIMENTS
        if not exp_id.startswith("A") and exp_id not in paper_map
    ]
    assert not missing, f"experiments missing from docs/paper_map.md: {missing}"


def test_experiment_catalog_covers_the_registry():
    """tools/check_docs.py enforces the docs/experiments.md catalog."""
    checker = _load_checker()
    assert checker.check_experiment_catalog() == []


def test_experiment_catalog_check_catches_missing_ids(monkeypatch):
    """A registered-but-undocumented experiment id fails the check."""
    import repro.experiments as experiments

    checker = _load_checker()
    padded = dict(experiments.ALL_EXPERIMENTS)
    padded["E99"] = None  # value unused by the checker
    monkeypatch.setattr(experiments, "ALL_EXPERIMENTS", padded)
    problems = checker.check_experiment_catalog()
    assert any("`E99`" in problem and "not in the catalog" in problem
               for problem in problems)


def test_experiment_catalog_check_catches_stale_ids(monkeypatch):
    """A documented id that left the registry fails the check too."""
    import repro.experiments as experiments

    checker = _load_checker()
    shrunk = {k: v for k, v in experiments.ALL_EXPERIMENTS.items() if k != "E9"}
    monkeypatch.setattr(experiments, "ALL_EXPERIMENTS", shrunk)
    problems = checker.check_experiment_catalog()
    assert any("`E9`" in problem and "not a registered" in problem
               for problem in problems)


def test_results_md_is_generated_and_marked():
    from repro.campaign import GENERATED_MARKER

    results = (REPO_ROOT / "docs" / "results.md").read_text(encoding="utf-8")
    assert GENERATED_MARKER in results
    assert "## Verdicts by cell" in results


def test_committed_sample_trace_matches_schema():
    """tools/check_trace_schema.py passes on the committed sample."""
    spec = importlib.util.spec_from_file_location(
        "check_trace_schema", REPO_ROOT / "tools" / "check_trace_schema.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_trace_schema", module)
    spec.loader.exec_module(module)
    problems = module.check_trace(module.SAMPLE, require_coverage=True)
    assert not problems, "\n".join(problems)


def test_readme_engine_names_match_registry():
    from repro.core.engine import ENGINE_NAMES

    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for name in ENGINE_NAMES:
        assert f"`{name}`" in readme, f"engine {name!r} undocumented in README"


def test_trace_checker_accounts_for_every_round(tmp_path):
    """A trial whose executed and skipped rounds do not add up to its
    ``rounds`` is flagged; absent counters read as 0."""
    spec = importlib.util.spec_from_file_location(
        "check_trace_schema", REPO_ROOT / "tools" / "check_trace_schema.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    trial = {"kind": "trial", "engine": "bank", "seed": 1, "n": 8, "solved": True, "phases": {}}
    cases = [
        ({"rounds.executed": 3, "rounds.skipped": 4}, 7, True),
        ({"rounds.executed": 7}, 7, True),
        ({}, 0, True),
        ({"rounds.executed": 3, "rounds.skipped": 4}, 8, False),
        ({"rounds.skipped": 2}, 3, False),
    ]
    for counters, rounds, clean in cases:
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps({**trial, "rounds": rounds, "counters": counters}) + "\n")
        problems = module.check_trace(path)
        assert (not problems) is clean, (counters, rounds, problems)
