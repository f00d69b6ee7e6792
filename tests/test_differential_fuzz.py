"""Randomized differential testing across the two engines.

The equivalence matrix (`test_engine_equivalence.py`) pins every
registered component at hand-picked parameters; this fuzzer samples the
*parameter space* instead: random `ScenarioSpec`s are generated from
registry-keyed generators (bounded n and round caps so a case stays
cheap), JSON round-tripped through ``to_dict``/``from_dict`` before
running (so what we test is exactly what a campaign file or the serve
layer would replay), and held to full-trace identity across the
reference engine ≡ a ``"bank"`` request (the fast engine where a
protocol kernel serves the case, the reference engine otherwise), plus
serial ≡ parallel executor identity.
Each case also draws a random round-skipping setting (``None`` /
``False`` / ``True``) carried on the spec, so the fuzz sweep samples
the skip axis alongside the component space; the oracle baseline is
always the reference engine with skipping off.

The master seed is fixed, so the sampled case list is deterministic —
a green run stays green, and any future failure names a reproducible
spec. ``REPRO_FUZZ_CASES`` (default 25) budgets the number of cases so
CI can run a short sweep while local debugging can crank it up.

``REGRESSION_CORPUS`` pins the shapes that actually failed (or
exercised fresh guard rails) while the bank engine was built — cheapest
possible reproduction of each, committed so they cannot return.
"""

from __future__ import annotations

import json
import os
import random
import warnings
from pathlib import Path

import pytest

from repro.analysis.runner import run_prepared_trial
from repro.api.executor import ParallelExecutor, SerialExecutor
from repro.api.spec import ScenarioSpec
from repro.core.engine import create_engine
from repro.core.errors import EngineFallbackWarning
from repro.core.rng import derive_seed
from repro.core.trace import TraceCollector

#: Deterministic fuzz: the whole case list is a pure function of this.
MASTER_SEED = 20130731

#: How many random specs to run (CI sets 25; bump locally to dig).
FUZZ_CASES = int(os.environ.get("REPRO_FUZZ_CASES", "25"))

#: Bounded rounds: identity under the cap is asserted whether or not a
#: case solves, so the cap only bounds cost, never weakens the oracle.
MAX_ROUNDS = 400

#: Every N-th case also checks serial ≡ parallel executor identity
#: (process pools are expensive; trace identity runs on every case).
PARALLEL_EVERY = 5

#: When set, any failing fuzz case writes its spec payload (plus seed
#: and failure text) as JSON into this directory before re-raising —
#: CI's nightly sweep uploads the directory as a build artifact, so a
#: red nightly run ships its own reproduction files.
FUZZ_ARTIFACT_DIR = os.environ.get("REPRO_FUZZ_ARTIFACT_DIR", "")


def _dump_failing_spec(name: str, spec: ScenarioSpec, seed: int, error: BaseException) -> None:
    if not FUZZ_ARTIFACT_DIR:
        return
    directory = Path(FUZZ_ARTIFACT_DIR)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "case": name,
        "master_seed": MASTER_SEED,
        "seed": seed,
        "max_rounds": MAX_ROUNDS,
        "spec": spec.to_dict(),
        "error": f"{type(error).__name__}: {error}",
    }
    (directory / f"{name}.json").write_text(json.dumps(payload, indent=2) + "\n")


# ----------------------------------------------------------------------
# Registry-keyed generators (bounded parameters)
# ----------------------------------------------------------------------
def _graph(rng: random.Random) -> tuple[str, dict]:
    return rng.choice(
        [
            lambda: ("line", {"n": rng.randint(4, 18), "extra_flaky_skips": rng.randint(0, 3)}),
            lambda: ("ring", {"n": rng.randint(4, 18)}),
            lambda: (
                "grid",
                {
                    "rows": rng.randint(2, 4),
                    "cols": rng.randint(2, 5),
                    "flaky_diagonals": rng.random() < 0.5,
                },
            ),
            lambda: ("binary-tree", {"depth": rng.randint(2, 4)}),
            lambda: ("star", {"n": rng.randint(5, 16), "flaky_rim": rng.random() < 0.5}),
            lambda: ("clique", {"n": rng.randint(4, 14)}),
            lambda: ("funnel", {"n": rng.randint(8, 24)}),
            lambda: (
                "line-of-cliques",
                {"num_cliques": rng.randint(2, 4), "clique_size": rng.randint(2, 4)},
            ),
            lambda: (
                "er",
                {
                    "n": rng.randint(8, 20),
                    "g_edge_probability": round(rng.uniform(0.2, 0.5), 2),
                    "flaky_edge_probability": round(rng.uniform(0.0, 0.3), 2),
                },
            ),
            lambda: ("dual-clique", {"half": rng.randint(3, 8)}),
            lambda: ("geographic", {"n": rng.randint(12, 28)}),
            lambda: (
                "cluster-chain",
                {"num_clusters": rng.randint(2, 3), "cluster_size": rng.randint(3, 5)},
            ),
        ]
    )()


def _adversary(rng: random.Random) -> tuple[str, dict]:
    return rng.choice(
        [
            lambda: ("none", {}),
            lambda: ("all", {}),
            lambda: (
                "alternating",
                {"phase_lengths": [rng.randint(1, 3), rng.randint(1, 3)]},
            ),
            lambda: ("bernoulli-edge", {"p_up": round(rng.uniform(0.3, 0.9), 2)}),
            lambda: (
                "bernoulli-node-fade",
                {"p_clear": round(rng.uniform(0.3, 0.9), 2)},
            ),
            lambda: ("fixed-flaky", {"edges": []}),
            lambda: (
                "ge-fade",
                {
                    "p_fail": round(rng.uniform(0.1, 0.5), 2),
                    "p_recover": round(rng.uniform(0.2, 0.6), 2),
                },
            ),
            lambda: (
                "ge-edge",
                {
                    "p_fail": round(rng.uniform(0.1, 0.5), 2),
                    "p_recover": round(rng.uniform(0.2, 0.6), 2),
                },
            ),
            lambda: (
                "cut-jammer",
                {
                    "period": rng.randint(2, 5),
                    "dense_rounds": rng.randint(1, 2),
                    "side": "first-half",
                },
            ),
            lambda: ("predicted-dense-sparse", {"side": "first-half"}),
            # Adaptive: the fast engines build their views from the
            # probability rows and transmitter masks they already hold.
            lambda: ("online-dense-sparse", {"side": "first-half"}),
            lambda: ("offline-solo-blocker", {"side": "first-half"}),
        ]
    )()


def _workload(rng: random.Random) -> dict:
    """Problem + algorithm (+ MAC/messages) drawn as a consistent set."""
    kind = rng.choice(("global", "local", "multi-message"))
    if kind == "global":
        algorithm = rng.choice(
            [
                # Both decay kernels also take finite per-node windows.
                ("plain-decay", {} if rng.random() < 0.5 else {"active_phases": 2}),
                ("uncoordinated-decay", {}),
                ("permuted-decay", {} if rng.random() < 0.5 else {"epochs_per_node": 2}),
                ("round-robin-global", {"random_slots": rng.random() < 0.5}),
                ("uniform-global", {"probability": round(rng.uniform(0.05, 0.3), 2)}),
            ]
        )
        return {
            "problem": ("global-broadcast", {"source": 0}),
            "algorithm": algorithm,
        }
    if kind == "local":
        algorithm = rng.choice(
            [
                ("round-robin-local", {"random_slots": rng.random() < 0.5}),
                ("uniform-local", {}),
                ("static-local-decay", {}),
            ]
        )
        return {
            "problem": ("local-broadcast", {"fraction": rng.choice((0.25, 0.5))}),
            "algorithm": algorithm,
        }
    algorithm = rng.choice(
        [
            ("gkln-multi-message", {}),
            ("backoff-multi-message", {"regime": rng.choice(("fixed", "exponential"))}),
        ]
    )
    return {
        "problem": ("multi-message", {}),
        "algorithm": algorithm,
        "mac": ("simulated", {}),
        "messages": {
            "k": rng.randint(1, 5),
            "sources": rng.choice(("spread", "random")),
        },
    }


def generate_spec(case_index: int) -> ScenarioSpec:
    """The deterministic random spec for one fuzz case."""
    rng = random.Random(derive_seed(MASTER_SEED, "fuzz-case", case_index))
    graph = _graph(rng)
    adversary = _adversary(rng)
    workload = _workload(rng)
    return ScenarioSpec(
        graph=graph,
        adversary=adversary,
        skip=rng.choice((None, False, True)),
        **workload,
    )


# ----------------------------------------------------------------------
# Regression corpus: failures found while building the bank engine
# ----------------------------------------------------------------------
#: Spec payloads (``ScenarioSpec.to_dict`` shape) pinning real breakage:
#: * ``bank-non-mac-algorithm`` — kernel eligibility probing crashed
#:   with ``AttributeError`` on processes without an ``assignment``
#:   (any non-MAC algorithm through ``engine="bank"``).
#: * ``bank-k-over-bitmap`` — workloads with more messages than one
#:   64-bit knowledge word must spill into the second word of the
#:   (trials, nodes, words) knowledge tensor, not overflow the kernel
#:   (before multi-word lanes landed, these fell back to the generic
#:   lane path; now they stay on the kernel).
#: * ``bank-single-message-backoff`` — k = 1 degenerate rotation
#:   (``(r + id) % 1``) through the vectorized back-off kernel.
#: * ``bank-plain-decay-kernel`` — plain decay through the
#:   single-message bank kernel, with adversary gaps exercising the
#:   phase-boundary join arithmetic in the kernel's feedback stage.
#: * ``bank-permuted-decay-kernel`` — permuted decay's epoch/offset
#:   arithmetic through its bank kernel, with a schedule that leaves
#:   whole silent epochs for the skip probe.
REGRESSION_CORPUS = {
    "bank-non-mac-algorithm": {
        "graph": {"name": "star", "params": {"n": 9, "flaky_rim": True}},
        "problem": {"name": "global-broadcast", "params": {"source": 0}},
        "algorithm": {"name": "plain-decay", "params": {}},
        "adversary": {"name": "none", "params": {}},
    },
    "bank-k-over-bitmap": {
        "graph": {"name": "clique", "params": {"n": 8}},
        "problem": {"name": "multi-message", "params": {}},
        "algorithm": {"name": "gkln-multi-message", "params": {}},
        "adversary": {"name": "bernoulli-edge", "params": {"p_up": 0.8}},
        "mac": {"name": "simulated", "params": {}},
        # 65 messages (> the 64-bit kernel bitmap) on 8 nodes via an
        # explicit source list — sources repeat, which is allowed.
        "messages": {"sources": [i % 8 for i in range(65)]},
    },
    "bank-single-message-backoff": {
        "graph": {"name": "line", "params": {"n": 7, "extra_flaky_skips": 1}},
        "problem": {"name": "multi-message", "params": {}},
        "algorithm": {"name": "backoff-multi-message", "params": {"regime": "fixed"}},
        "adversary": {"name": "ge-fade", "params": {"p_fail": 0.3, "p_recover": 0.4}},
        "mac": {"name": "simulated", "params": {}},
        "messages": {"k": 1, "sources": "spread"},
    },
    "bank-plain-decay-kernel": {
        "graph": {"name": "line", "params": {"n": 11, "extra_flaky_skips": 2}},
        "problem": {"name": "global-broadcast", "params": {"source": 5}},
        "algorithm": {"name": "plain-decay", "params": {}},
        "adversary": {"name": "alternating", "params": {"phase_lengths": [2, 3]}},
    },
    "bank-permuted-decay-kernel": {
        "graph": {"name": "funnel", "params": {"n": 16}},
        "problem": {"name": "global-broadcast", "params": {"source": 0}},
        "algorithm": {"name": "permuted-decay", "params": {}},
        "adversary": {
            "name": "cut-jammer",
            "params": {"period": 4, "dense_rounds": 1, "side": "first-half"},
        },
    },
}


# ----------------------------------------------------------------------
# The differential oracle
# ----------------------------------------------------------------------
def _round_trip(spec: ScenarioSpec) -> ScenarioSpec:
    """JSON round-trip the spec and assert the trip is lossless."""
    payload = spec.to_dict()
    replayed = ScenarioSpec.from_dict(payload)
    assert replayed.to_dict() == payload
    return replayed


def _run_traced(spec: ScenarioSpec, seed: int, engine: str, skip=None):
    trial = spec.build(seed)
    observer = trial.problem.make_observer()
    collector = TraceCollector()
    with warnings.catch_warnings():
        # Every registered component is served by every engine: a
        # fallback under fuzz is a failure, not noise.
        warnings.simplefilter("error", EngineFallbackWarning)
        eng = create_engine(
            trial.network,
            trial.algorithm,
            trial.link_process,
            engine=engine,
            seed=seed,
            algorithm_info=trial.algorithm.info(),
            validate_topologies=True,
            observers=[observer, collector],
            skip=skip,
        )
        result = eng.run(max_rounds=MAX_ROUNDS, stop=lambda: observer.solved)
    return result, collector.records


def _assert_two_way_identical(spec: ScenarioSpec, seed: int) -> None:
    # Baseline: reference engine, skipping off. Both engines run with
    # the case's fuzzed skip setting (None = engine default).
    ref_result, ref_records = _run_traced(spec, seed, "reference", skip=False)
    for engine in ("reference", "bank"):
        result, records = _run_traced(spec, seed, engine, skip=spec.skip)
        assert result == ref_result, f"{engine} result diverged"
        assert len(records) == len(ref_records), f"{engine} round count diverged"
        for ref_record, record in zip(ref_records, records):
            assert record == ref_record, (
                f"{engine} trace diverged at round {ref_record.round_index}"
            )


def _assert_executors_identical(spec: ScenarioSpec, pool: ParallelExecutor) -> None:
    seeds = [derive_seed(MASTER_SEED, "fuzz-trial", index) for index in range(4)]
    for engine in ("reference", "bank"):
        engine_spec = spec.with_param("engine", engine)
        with warnings.catch_warnings():
            warnings.simplefilter("error", EngineFallbackWarning)
            serial = SerialExecutor().run_trials(engine_spec.build, seeds)
            loop = [run_prepared_trial(engine_spec.build(s), s) for s in seeds]
            parallel = pool.run_trials(engine_spec.build, seeds)
        assert serial == loop, f"{engine}: serial batch diverged from plain loop"
        assert parallel == serial, f"{engine}: parallel diverged from serial"


@pytest.fixture(scope="module")
def shared_pool():
    with ParallelExecutor(max_workers=2, chunksize=2) as pool:
        yield pool


@pytest.mark.parametrize("case_index", range(FUZZ_CASES))
def test_fuzzed_spec_cross_engine_identity(case_index, shared_pool):
    spec = _round_trip(generate_spec(case_index))
    seed = derive_seed(MASTER_SEED, "fuzz-run", case_index)
    try:
        _assert_two_way_identical(spec, seed)
        if case_index % PARALLEL_EVERY == 0:
            _assert_executors_identical(spec, shared_pool)
    except Exception as error:
        _dump_failing_spec(f"fuzz-case-{case_index:04d}", spec, seed, error)
        raise


@pytest.mark.parametrize("name", sorted(REGRESSION_CORPUS))
def test_regression_corpus(name, shared_pool):
    spec = _round_trip(ScenarioSpec.from_dict(REGRESSION_CORPUS[name]))
    seed = derive_seed(MASTER_SEED, "corpus", name)
    try:
        _assert_two_way_identical(spec, seed)
        _assert_executors_identical(spec, shared_pool)
    except Exception as error:
        _dump_failing_spec(f"corpus-{name}", spec, seed, error)
        raise


def test_generation_is_deterministic():
    """Same master seed ⇒ same case list (reproducible failures)."""
    for case_index in range(min(FUZZ_CASES, 10)):
        assert (
            generate_spec(case_index).to_dict()
            == generate_spec(case_index).to_dict()
        )
