"""Regenerate ``expected.json``: reference-engine records of every pool batch.

Run from the repository root::

    python3 perfbench/make_expected.py --size tiny
    python3 perfbench/make_expected.py --size full [--workload ring-local-10k]

Each pool entry runs on ``engine="reference"`` (see
:func:`workloads.reference_spec`), so the benchmark's correctness check
tests the engine-independence contract, not the bank engine against
itself. Existing entries for other sizes/workloads are kept. A full
regeneration takes about ten minutes on one core, almost all of it in
the ring round-robin variant.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

EXPECTED_PATH = HERE / "expected.json"


def generate(workload: str, size: str) -> dict:
    from repro.analysis.runner import TrialStats
    from repro.api.executor import SerialExecutor
    from repro.api.spec import ScenarioSpec
    from repro.core.errors import EngineFallbackWarning
    from repro.core.rng import derive_seed

    executor = SerialExecutor(warn_fallback=False)
    records: dict[str, list[dict]] = {}
    for name, spec in workloads.variants(workload, size).items():
        reference = ScenarioSpec.from_dict(workloads.reference_spec(spec, name))
        rows = records[name] = []
        for entry in range(workloads.POOL_SIZE[size][workload]):
            seeds = workloads.pool_seeds(workload, name, entry, derive_seed)
            started = time.perf_counter()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", EngineFallbackWarning)
                results = executor.run_trials(reference, seeds)
            rows.append(TrialStats(results=list(results)).to_record())
            print(
                f"{size} {workload} {name} #{entry}: "
                f"{time.perf_counter() - started:.2f}s",
                file=sys.stderr,
            )
    return {"fingerprint": workloads.fingerprint(workload, size), "records": records}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, action="append")
    args = parser.parse_args(argv)
    data = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    for workload in args.workload or workloads.WORKLOADS:
        data.setdefault(args.size, {})[workload] = generate(workload, args.size)
        EXPECTED_PATH.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
