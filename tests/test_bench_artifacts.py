"""The bench-artifact checker (tools/check_bench_artifacts.py) bites.

A copy of the committed artifacts passes it; the same copy with one
tampered trace round counter fails its skip-conservation check.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_bench_artifacts", REPO_ROOT / "tools" / "check_bench_artifacts.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_bench_artifacts", module)
    spec.loader.exec_module(module)
    return module


def test_tampered_round_counter_fails_skip_conservation(tmp_path, monkeypatch, capsys):
    checker = _load_checker()
    results = tmp_path / "results"
    shutil.copytree(checker.RESULTS_DIR, results)
    monkeypatch.setattr(checker, "RESULTS_DIR", results)
    assert checker.main() == 0
    traces = checker.load_artifacts("TRACE_*.json")
    pairs = [key for key in traces if (key[0], key[1], f"{key[2]}-noskip") in traces]
    assert pairs, "no committed skip/-noskip trace pair to check"
    experiment, scale, label = pairs[0]
    noskip = results / f"TRACE_{experiment}_{scale}_{label}-noskip.json"
    payload = json.loads(noskip.read_text())
    payload["counters"]["rounds.executed"] += payload["repeats"]
    noskip.write_text(json.dumps(payload))
    assert checker.main() == 1
    assert "skipping must never change the round count" in capsys.readouterr().out
