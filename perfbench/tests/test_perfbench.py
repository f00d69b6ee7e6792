"""The benchmark's own tests, on the tiny workload sizes.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostProbe  # noqa: E402
from layers import LayerTracer  # noqa: E402


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_cli(workload: str, trace: int) -> tuple[str, dict]:
    completed = subprocess.run(
        [
            sys.executable,
            str(BENCH_DIR / "run.py"),
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.5",
            "--trace",
            str(trace),
            "--size",
            "tiny",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return completed.stdout, json.loads(completed.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_workloads_and_metrics():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench_run.per_layer_units()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    stdout, result = _run_cli(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in _benchmark_json()[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(
            line.split()[:1] == [name] and line.split()[-1] == unit
            for line in stdout.splitlines()
        ), name


def test_corrupted_expected_record_counts_as_failure():
    expected = copy.deepcopy(bench_run.load_expected("geo-mm-fade", "tiny"))
    for record in expected["gkln"]:
        record["results"][0]["rounds"] += 1
    bench = bench_run.Bench("geo-mm-fade", 3, size="tiny", expected=expected)
    assert bench.failed == 1  # the gkln warm-up batch
    bench_run.run_untraced(bench, HostProbe(), 0.3)
    assert 1 < bench.failed < bench.attempted


@pytest.mark.filterwarnings("ignore::repro.core.errors.EngineFallbackWarning")
def test_traced_and_untraced_results_match_and_wrappers_are_restored():
    import repro.api.spec as spec_module
    import repro.core.bankpath as bankpath
    from repro.registry import GRAPHS

    originals = (spec_module.build_prepared_trial, bankpath.run_bank_batch)
    tracer = LayerTracer()
    bench = bench_run.Bench("geo-mm-mac", 5, size="tiny", tracer=tracer)
    assert tracer.missing == []
    for index in range(3):
        name, entry = bench.plan.batch(index)
        _, plain = bench.execute(name, entry)
        with tracer:
            _, traced = bench.execute(name, entry)
        assert list(traced) == list(plain)
        assert bench.matches(name, entry, plain)
    assert (spec_module.build_prepared_trial, bankpath.run_bank_batch) == originals
    assert "build" not in vars(GRAPHS)
    metrics = bench_run.run_traced(bench, tracer, 0.3, {})
    assert bench.failed == 0
    assert metrics["mac.oracle_s"] > 0 and metrics["engine.fallback"] > 0
    assert metrics["trace_overhead"] > 0


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    bench_copy = tmp_path / "perfbench"
    bench_copy.mkdir()
    for name in ("run.py", "workloads.py", "layers.py", "expected.json"):
        (bench_copy / name).write_text((BENCH_DIR / name).read_text())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "geo-mm-fade", "--seed", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
