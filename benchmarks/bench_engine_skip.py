"""Engine scale: round skipping at n ≥ 10⁴ (E1b_large).

E1b_large runs local broadcast on rings two decades of n past the
Figure-1 sweeps — the regime where engine implementation choices, not
asymptotic shape, dominate wall-clock time. The round-robin series is
~63/64 provably silent rounds, which the skip-enabled engines
fast-forward through; round counts stay bit-identical either way
(tests/test_skip_properties.py), so the two committed bank artifacts
(default skip on vs ``REPRO_BENCH_SKIP=0``) isolate the skip win.

Regenerating the committed artifacts::

    REPRO_BENCH_ENGINE=reference pytest benchmarks/bench_engine_skip.py
    REPRO_BENCH_ENGINE=bank REPRO_BENCH_REPEATS=5 \
        pytest benchmarks/bench_engine_skip.py
    REPRO_BENCH_ENGINE=bank REPRO_BENCH_SKIP=0 REPRO_BENCH_REPEATS=5 \
        pytest benchmarks/bench_engine_skip.py
"""

from __future__ import annotations

from benchmarks._common import (
    assert_engine_cell_speedup,
    assert_growth,
    assert_not_slower_than_reference,
    assert_skip_speedup,
    assert_success,
    run_experiment,
)


def test_e1b_large_engine_scale(benchmark):
    result = run_experiment(benchmark, "E1b_large")
    assert_success(result)
    assert_growth(result, "round-robin (1/64 broadcasters)", "near-linear")
    assert_growth(result, "static-local-decay [8]", "sublinear")
    # The static-row separation, at engine scale: decay's polylog beats
    # the linear slot schedule by the experiment's contrast claim.
    for claim, ratio, holds in result.contrast_outcomes():
        assert holds, f"{claim.description}: measured {ratio:.1f}x"
    # Perf guards against the committed artifacts: the fast engine must
    # beat the reference loop, and skipping must pay >= 5x on the
    # silence-heavy series' largest cell.
    assert_not_slower_than_reference("E1b_large")
    assert_skip_speedup(
        "E1b_large", series_contains="round-robin", min_ratio=5.0
    )
    # The decay-kernel guard: the committed bank cells must beat the
    # committed reference cells 3x on both single-message series'
    # largest parameter, or the struct-of-arrays path has regressed.
    assert_engine_cell_speedup(
        "E1b_large", series_contains="round-robin", min_ratio=3.0
    )
    assert_engine_cell_speedup(
        "E1b_large", series_contains="static-local-decay", min_ratio=3.0
    )
