"""Rows of 0s and 1s: plans and coins without work sized by ``n``.

* A coin row of 0s and 1s needs no uniforms: ``transmission_coins``
  with ``certain=True`` advances the stream instead, and must return
  what the drawing path returns and leave the stream where it leaves it.
* A kernel may claim ``certain(t)`` only for a row that really is all
  0s and 1s, on every kernel row of the equivalence matrix.
* The round-robin kernels fill a round from the inverse slot table; the
  local kernel's skip horizon bisects the sorted broadcaster slots.
  Both must agree with the slot table read the long way.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bankpath import BankLane, run_bank_batch
from repro.core.fastpath import BitsetRadioNetworkEngine
from repro.core.rng import spawn_numpy_rng, transmission_coins
from tests.test_engine_equivalence import (
    KERNEL_ROWS,
    SEEDS,
    _bank_kernel,
    _row_id,
    _spec,
)


class TestCertainCoins:
    ROWS = {
        "all-zero": np.zeros(70),
        "all-one": np.ones(70),
        "one-hot": np.eye(1, 70, 33)[0],
        "mixed": np.array([0.0, 1.0] * 35),
    }

    @pytest.mark.parametrize("name", sorted(ROWS))
    @pytest.mark.parametrize("seed", (1, 2013))
    def test_advance_matches_the_drawing_path(self, name, seed):
        row = self.ROWS[name]
        drawing = spawn_numpy_rng(seed, "engine", "coins")
        advancing = spawn_numpy_rng(seed, "engine", "coins")
        for _ in range(3):
            transmit, mask = transmission_coins(drawing, row)
            fixed, fixed_mask = transmission_coins(advancing, row, True)
            assert np.array_equal(fixed, transmit)
            assert fixed_mask == mask
        # The next draw proves both streams sit at the same position.
        assert advancing.random() == drawing.random()


class TestKernelCertainty:
    """``certain(t)`` is a claim about the row; it must never be wrong.

    Each claim the fast engine asks for during a bank run (skipping
    off, so every round executes) is checked against the row the
    kernel handed out for that round just before.
    """

    ROUNDS = 300

    @pytest.mark.parametrize("row", KERNEL_ROWS, ids=_row_id)
    def test_certain_rows_hold_only_zeros_and_ones(self, row):
        spec = _spec(row)
        trials = [spec.build(seed) for seed in SEEDS]
        kernel = _bank_kernel(trials, SEEDS)
        batch = {}
        claims = []
        probabilities, certain = kernel.probabilities, kernel.certain

        def recorded_probabilities(r):
            batch["probs"] = probabilities(r)
            return batch["probs"]

        def checked_certain(t):
            claim = certain(t)
            if claim:
                claims.append(t)
                assert np.isin(batch["probs"][t], (0.0, 1.0)).all()
            return claim

        kernel.probabilities = recorded_probabilities
        kernel.certain = checked_certain
        lanes = [
            BankLane(
                engine=BitsetRadioNetworkEngine(
                    trial.network,
                    trial.link_process,
                    seed=seed,
                    algorithm_info=trial.algorithm.info(),
                    kernel=kernel,
                    lane=index,
                    skip=False,
                )
            )
            for index, (trial, seed) in enumerate(zip(trials, SEEDS))
        ]
        run_bank_batch(lanes, max_rounds=self.ROUNDS)
        if row[2][0].startswith("round-robin"):
            assert claims  # every round-robin row is certain


class TestRoundRobinPlans:
    """The inverse-table fill and the bisected horizon agree with the
    slot table read the long way."""

    @pytest.mark.parametrize("algorithm", ("round-robin-local", "round-robin-global"))
    def test_rows_and_horizons_match_the_slot_table(self, algorithm):
        row = (
            ("ring", {"n": 37}),
            ("local-broadcast", {"fraction": 0.2})
            if algorithm.endswith("local")
            else ("global-broadcast", {"source": 0}),
            (algorithm, {"random_slots": True}),
            ("none", {}),
        )
        spec = _spec(row)
        seeds = (1, 2, 3)
        kernel = _bank_kernel([spec.build(seed) for seed in seeds], seeds)
        n = kernel.n
        sending = kernel.role if algorithm.endswith("local") else kernel.informed
        for r in list(range(3 * n)) + [5 * n + 4, 2, 0]:
            probs = kernel.probabilities(r)
            expected = sending & (kernel.slots == r % n)
            assert np.array_equal(probs, expected.astype(np.float64)), r
            assert np.array_equal(kernel._counts, expected.sum(axis=1))
            for t in range(kernel.trials):
                assert kernel.certain(t)
                fire = kernel.slots[t][sending[t]]
                following = [
                    q for q in range(r + 1, r + 1 + n) if ((q - fire) % n == 0).any()
                ]
                assert kernel.next_active_round(t, r) == (
                    following[0] if following else None
                )
