"""Run the benchmark over workloads and seeds and print each metric's spread.

Run from the repository root::

    python3 perfbench/report.py                        # every workload, 10 seeds
    python3 perfbench/report.py --workload geo-mm-fade --seeds 5 --first-seed 100
    python3 perfbench/report.py --trace 1 --seeds 1    # per-layer metrics

For every workload and metric it prints the median over the runs, the
quartile spread (``statistics.quantiles(values, n=4)``, third minus first
quartile, over the median) next to the metric's bound in
``BENCHMARK.json``, and how many runs failed or were incorrect. Runs are
sequential, one process at a time. ``--out`` also writes every run's
result object as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, action="append")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    for workload in args.workload or names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            runs.append(result)
            if args.out is not None:
                with args.out.open("a", encoding="utf-8") as handle:
                    record = {"workload": workload, "seed": seed, "trace": args.trace}
                    handle.write(json.dumps(dict(record, **result)) + "\n")
        bad = sum(1 for r in runs if not r["correct"] or r["failed"])
        print(f"{workload}: {len(runs)} runs, {bad} incorrect or with failures")
        for name, metric in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            line = (
                f"  {name:32s} median {statistics.median(values):<12.6g}"
                f" {metric['unit']:12s} spread {spread(values):.3f}"
            )
            if name in bounds:
                line += f" (bound {bounds[name]})"
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
