"""The repository benchmark: one workload, timed end to end or traced per layer.

Run from the repository root::

    python3 perfbench/run.py --workload ring-local-10k --seed 1 --seconds 30 --trace 0

One operation is one ``SerialExecutor().run_trials(spec, seeds)`` batch of
four trial seeds (see ``workloads.py`` for the workloads, the batch pool
and how ``--seed`` picks from it). The load is closed-loop from this one
process: each batch starts when the previous one returns. Every batch's
``TrialStats.to_record()`` must equal the reference-engine record in
``expected.json``; an exception or a mismatch counts as a failed
operation.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs every
batch twice, untraced and traced in alternating order, checks the two
give identical per-trial results, and reports the per-layer metrics of
``layers.py`` plus the engines' ``repro.obs`` phases and counters. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

The end-to-end times are in *reference seconds*: wall seconds scaled by
how fast the host ran a fixed probe just before and just after the
timed work (``hostspeed.py``), so that a shared host's drifting speed
does not read as a change of the program. The wall-clock throughput
and the host's speed are printed beside the metrics.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED_PATH = HERE / "expected.json"

#: Fresh-interpreter set-ups per run besides the run's own; ``setup_s``
#: is the median of all of them.
SETUP_PROBES = 2

#: ``batch_tail_s`` is this percentile of the batch times.
TAIL_PERCENTILE = 90

PHASES = ("plan", "coins", "adversary", "reception", "feedback", "observers", "skip")

END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "batch_p50_s": "s",
    "batch_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    from layers import LAYERS

    units = {f"{layer}_s": "s/batch" for layer in LAYERS}
    units["graphs.build_calls"] = "count/batch"
    units["setup.graphs.build_s"] = "s"
    units["setup.graphs.build_calls"] = "count"
    units.update({f"phase.{phase}_s": "s/batch" for phase in PHASES})
    for counter in (
        "rounds.executed",
        "rounds.skipped",
        "cache.matrix.miss",
        "mac.oracle.delay_draws",
        "engine.fallback",
        "bank.kernel.hit",
    ):
        units[counter] = "count/batch"
    units["cache.matrix.hit_ratio"] = "ratio"
    units["traced_batch_s"] = "s"
    units["unaccounted_s"] = "s/batch"
    units["trace_overhead"] = "x"
    return units


def load_expected(workload: str, size: str) -> dict[str, list[dict]]:
    data = json.loads(EXPECTED_PATH.read_text())
    try:
        entry = data[size][workload]
    except KeyError:
        raise RuntimeError(
            f"no expected records for {workload} ({size}); run make_expected.py"
        ) from None
    if entry["fingerprint"] != workloads.fingerprint(workload, size):
        raise RuntimeError(
            f"expected records for {workload} ({size}) are stale; run make_expected.py"
        )
    return entry["records"]


class Bench:
    """One workload's set-up, batch execution and correctness check.

    Construction *is* the set-up the ``setup_s`` metric times: the
    ``repro`` imports, parsing the spec dicts, loading the expected
    records, and one warm-up batch per variant that fills the
    process-wide caches (the deterministic ring is built there).
    """

    def __init__(
        self,
        workload: str,
        seed: int,
        *,
        size: str = "full",
        expected: dict | None = None,
        started: float | None = None,
        tracer=None,
    ) -> None:
        started = time.perf_counter() if started is None else started
        from repro.analysis.runner import TrialStats
        from repro.api.executor import SerialExecutor
        from repro.api.spec import ScenarioSpec
        from repro.core.rng import derive_seed

        self._stats = TrialStats
        self._derive_seed = derive_seed
        self.workload = workload
        self.executor = SerialExecutor()
        self.specs = {
            name: ScenarioSpec.from_dict(spec)
            for name, spec in workloads.variants(workload, size).items()
        }
        self.expected = load_expected(workload, size) if expected is None else expected
        costs = {
            name: [
                sum(r["rounds"] for r in record["results"])
                for record in self.expected[name]
            ]
            for name in self.specs
        }
        self.plan = workloads.BatchPlan(workload, seed, size, derive_seed, costs)
        self.attempted = 0
        self.failed = 0
        if tracer is None:
            self._warm_up()
        else:
            with tracer:
                self._warm_up()
        self.setup_s = time.perf_counter() - started

    def _warm_up(self) -> None:
        for name, entry in self.plan.warmup():
            self.attempted += 1
            outcome = self.execute(name, entry)
            if outcome is None or not self.matches(name, entry, outcome[1]):
                self.failed += 1

    def execute(self, name: str, entry: int):
        """``(seconds, results)`` of one batch, or ``None`` if it raised."""
        seeds = workloads.pool_seeds(self.workload, name, entry, self._derive_seed)
        spec = self.specs[name]
        try:
            started = time.perf_counter()
            results = self.executor.run_trials(spec, seeds)
            return time.perf_counter() - started, results
        except Exception:  # an operation failed; the run goes on
            traceback.print_exc(file=sys.stderr)
            return None

    def matches(self, name: str, entry: int, results) -> bool:
        record = self._stats(results=list(results)).to_record()
        # A JSON round trip normalizes the record exactly as stored.
        return json.loads(json.dumps(record)) == self.expected[name][entry]


def tail(times: list[float]) -> tuple[float, int]:
    """``(value, executions beyond it)`` at :data:`TAIL_PERCENTILE`.

    A fixed percentile, not the highest one with ten executions beyond
    it. A pass mixes batches whose times differ up to fivefold, so the
    executions sort into one cluster per seed-set entry. The rank with
    ten beyond moves with the number of executions, that is with the
    host's speed, and crossed the gap between two clusters from one run
    to the next. The 90th percentile stays inside the top cluster.
    """
    if len(times) == 1:
        return times[0], 0
    cuts = statistics.quantiles(times, n=100, method="inclusive")
    value = cuts[TAIL_PERCENTILE - 1]
    return value, sum(1 for t in times if t > value)


def setup_probe_seconds(workload: str, seed: int, size: str) -> float:
    """Set-up time of a fresh interpreter (imports included), in reference seconds."""
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--setup-probe",
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--size",
            size,
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=150,
        check=True,
    )
    return float(completed.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_reference_s(bench: Bench, probe) -> float:
    """``bench``'s set-up in reference seconds, probed right after it."""
    from hostspeed import to_reference

    return to_reference(bench.setup_s, probe.seconds())


def _measuring(bench: Bench, deadline: float, index: int) -> bool:
    """Go on until ``deadline``, then to the end of the current pass."""
    return time.perf_counter() < deadline or index % bench.plan.pass_length != 0


def run_untraced(bench: Bench, probe, seconds: float) -> tuple[dict, dict]:
    """Closed loop over whole passes for ``seconds``; (metrics, notes).

    Every batch time is scaled to reference seconds by the host probes
    taken just before and just after it. ``trials_per_s`` and
    ``batch_p50_s`` take each seed-set batch at its median time over the
    passes; ``batch_tail_s`` is over every execution.
    """
    from hostspeed import to_reference

    per_batch: dict[tuple[str, int], list[float]] = {}
    times: list[float] = []
    wall_s = 0.0
    deadline = time.perf_counter() + seconds
    index = 0
    probe_before = probe.seconds()
    while _measuring(bench, deadline, index):
        name, entry = bench.plan.batch(index)
        index += 1
        bench.attempted += 1
        outcome = bench.execute(name, entry)
        probe_after = probe.seconds()
        probes, probe_before = (probe_before, probe_after), probe_after
        if outcome is None or not bench.matches(name, entry, outcome[1]):
            bench.failed += 1
            continue
        wall_s += outcome[0]
        seconds = to_reference(outcome[0], *probes)
        times.append(seconds)
        per_batch.setdefault((name, entry), []).append(seconds)
    if not times:
        return {}, {}
    tail_value, tail_beyond = tail(times)
    medians = [statistics.median(batch_times) for batch_times in per_batch.values()]
    metrics = {
        "trials_per_s": workloads.TRIALS_PER_BATCH * len(medians) / sum(medians),
        "batch_p50_s": statistics.median(medians),
        "batch_tail_s": tail_value,
    }
    notes = {
        "batches": len(times),
        "passes": index // bench.plan.pass_length,
        "batch_tail_pct": TAIL_PERCENTILE,
        "batch_tail_beyond": tail_beyond,
        "wall_trials_per_s": round(workloads.TRIALS_PER_BATCH * len(times) / wall_s, 4),
        "host_speed": round(sum(times) / wall_s, 4),
    }
    return metrics, notes


def run_traced(bench: Bench, tracer, seconds: float, setup_layers: dict) -> dict:
    """Each batch untraced and traced (alternating order); per-layer metrics."""
    import repro.obs as obs

    counters: dict[str, float] = {}
    draws = 0
    traced_s = untraced_s = 0.0
    batches = 0
    tracer.reset()
    deadline = time.perf_counter() + seconds
    index = 0
    while _measuring(bench, deadline, index):
        name, entry = bench.plan.batch(index)
        bench.attempted += 1
        before = dict(tracer.self_ns), dict(tracer.calls), tracer.outer_ns
        outcomes = {}
        for with_trace in (False, True) if index % 2 == 0 else (True, False):
            if not with_trace:
                outcomes["plain"] = bench.execute(name, entry)
                continue
            recorder = obs.enable()
            try:
                with tracer:
                    outcomes["traced"] = bench.execute(name, entry)
            finally:
                obs.disable()
        index += 1
        plain, traced = outcomes["plain"], outcomes["traced"]
        if (
            plain is None
            or traced is None
            or list(plain[1]) != list(traced[1])
            or not bench.matches(name, entry, plain[1])
        ):
            bench.failed += 1
            # Span totals cover completed, matching batches only.
            tracer.self_ns, tracer.calls, tracer.outer_ns = before
            continue
        batches += 1
        untraced_s += plain[0]
        traced_s += traced[0]
        for key, value in recorder.counters.items():
            counters[key] = counters.get(key, 0) + value
        for key in ("mac.f_ack_delay", "mac.f_prog_delay"):
            histogram = recorder.histograms.get(key)
            draws += histogram.count if histogram is not None else 0
    if not batches:
        return {}

    def per_batch(value: float) -> float:
        return value / batches

    metrics = {
        f"{layer}_s": per_batch(ns / 1e9) for layer, ns in tracer.self_ns.items()
    }
    metrics["graphs.build_calls"] = per_batch(tracer.calls["graphs.build"])
    metrics.update(setup_layers)
    for phase in PHASES:
        metrics[f"phase.{phase}_s"] = per_batch(counters.get(f"phase.{phase}", 0) / 1e9)
    for counter in (
        "rounds.executed",
        "rounds.skipped",
        "cache.matrix.miss",
        "engine.fallback",
        "bank.kernel.hit",
    ):
        metrics[counter] = per_batch(counters.get(counter, 0))
    metrics["mac.oracle.delay_draws"] = per_batch(draws)
    hits = counters.get("cache.matrix.hit", 0)
    lookups = hits + counters.get("cache.matrix.miss", 0)
    metrics["cache.matrix.hit_ratio"] = hits / lookups if lookups else 0.0
    metrics["traced_batch_s"] = per_batch(traced_s)
    metrics["unaccounted_s"] = per_batch(traced_s - tracer.outer_ns / 1e9)
    metrics["trace_overhead"] = traced_s / untraced_s
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """One benchmark run; the result object the last stdout line carries."""
    if trace:
        from layers import LayerTracer

        tracer = LayerTracer()
        bench = Bench(workload, seed, size=size, started=_PROCESS_START, tracer=tracer)
        setup_layers = {
            "setup.graphs.build_s": tracer.self_ns["graphs.build"] / 1e9,
            "setup.graphs.build_calls": tracer.calls["graphs.build"],
        }
        measured = run_traced(bench, tracer, seconds, setup_layers)
        units = per_layer_units()
        notes = {}
        if tracer.missing:
            notes["missing_trace_targets"] = tracer.missing
    else:
        from hostspeed import HostProbe

        bench = Bench(workload, seed, size=size, started=_PROCESS_START)
        probe = HostProbe()
        own_setup_s = setup_reference_s(bench, probe)
        measured, notes = run_untraced(bench, probe, seconds)
        if measured:
            setups = [own_setup_s] + [
                setup_probe_seconds(workload, seed, size) for _ in range(SETUP_PROBES)
            ]
            measured["setup_s"] = statistics.median(setups)
            measured["peak_rss_mb"] = peak_rss_mb()
        units = END_TO_END_UNITS
    notes["failed_frac"] = bench.failed / bench.attempted
    metrics = {
        name: {"value": measured[name], "unit": unit}
        for name, unit in units.items()
        if name in measured
    }
    return {
        "correct": bench.failed == 0 and len(metrics) == len(units),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
        "notes": notes,
    }


def host_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    # One process, single-threaded numpy: BLAS/OpenMP pools only add
    # noise at these matrix sizes. Set before numpy is first imported.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from repro.core.errors import EngineFallbackWarning

    # The solo-blocker variant falls back to the reference engine on
    # every batch; the traced run counts that as engine.fallback.
    warnings.simplefilter("ignore", EngineFallbackWarning)
    if args.setup_probe:
        from hostspeed import HostProbe

        bench = Bench(args.workload, args.seed, size=args.size, started=_PROCESS_START)
        print(setup_reference_s(bench, HostProbe()))
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    notes = result.pop("notes")
    print(f"workload {args.workload} seed {args.seed} host {json.dumps(host_facts())}")
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    for name, value in notes.items():
        print(f"  {name:32s} {value}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
