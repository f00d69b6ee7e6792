"""Tests for the deterministic seed tree."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rng import (
    derive_seed,
    fresh_seed_sequence,
    seed_deriver,
    spawn_numpy_rng,
    spawn_rng,
)

#: Labels of every kind the simulator passes: ints of any size and sign,
#: strings, bools, numpy ints (whose ``repr`` is ``np.int64(3)``, not
#: ``3``), and tuples of these.
_scalar_labels = st.one_of(
    st.integers(),
    st.integers(min_value=2**64, max_value=2**80),
    st.text(max_size=8),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.integers(min_value=0, max_value=2**32 - 1).map(np.uint32),
)
_labels = st.one_of(_scalar_labels, st.tuples(_scalar_labels, _scalar_labels))
_paths = st.lists(_labels, max_size=4).map(tuple)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "node", 3) == derive_seed(42, "node", 3)

    def test_labels_matter(self):
        assert derive_seed(42, "node", 3) != derive_seed(42, "node", 4)
        assert derive_seed(42, "node") != derive_seed(42, "edge")

    def test_master_seed_matters(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_label_concatenation_does_not_collide(self):
        # ("ab", "c") must differ from ("a", "bc") — the separator works.
        assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")

    def test_no_labels_is_valid(self):
        assert isinstance(derive_seed(7), int)

    def test_result_fits_64_bits(self):
        for labels in [(), ("a",), ("node", 999999)]:
            assert 0 <= derive_seed(123, *labels) < 2**64

    def test_values_are_pinned(self):
        # The label encoding is part of every stream's identity.
        assert derive_seed(2013) == 8732948250282001748
        assert derive_seed(2013, "node", 17) == 4554787769187646840
        assert derive_seed(2013, "mac-oracle", "prog", 3, 4, 5) == 16073383384794892924
        assert derive_seed(2013, np.int64(3)) == 17843631035126355418
        assert (
            derive_seed(2013, "é", -1, 2**70, True, (1, "a"))
            == 18192272998040417000
        )

    def test_numpy_int_is_its_own_label(self):
        assert derive_seed(5, np.int64(3)) != derive_seed(5, 3)
        assert seed_deriver(5)(np.int64(3)) == derive_seed(5, np.int64(3))


class TestSeedDeriver:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(), _paths, _paths)
    def test_matches_derive_seed(self, master_seed, prefix, tail):
        derive = seed_deriver(master_seed, *prefix)
        assert derive(*tail) == derive_seed(master_seed, *prefix, *tail)

    def test_reusable_across_calls(self):
        derive = seed_deriver(9, "mac-oracle", "prog")
        first = [derive(u, v, 0) for u in range(3) for v in range(3)]
        again = [derive(u, v, 0) for u in range(3) for v in range(3)]
        assert first == again
        assert len(set(first)) == len(first)

    def test_empty_prefix_and_tail(self):
        assert seed_deriver(7)() == derive_seed(7)
        assert seed_deriver(7, "a", 1)() == derive_seed(7, "a", 1)
        assert seed_deriver(7)("a", 1) == derive_seed(7, "a", 1)


class TestSpawns:
    def test_spawn_rng_reproducible(self):
        a = spawn_rng(9, "alg").random()
        b = spawn_rng(9, "alg").random()
        assert a == b

    def test_spawn_rng_independent_streams(self):
        a = [spawn_rng(9, "x").random() for _ in range(1)]
        b = [spawn_rng(9, "y").random() for _ in range(1)]
        assert a != b

    def test_spawn_numpy_rng_reproducible(self):
        a = spawn_numpy_rng(9, "coins").random(4)
        b = spawn_numpy_rng(9, "coins").random(4)
        assert list(a) == list(b)


class TestFreshSeedSequence:
    def test_count_and_range(self):
        seeds = fresh_seed_sequence(random.Random(0), 10)
        assert len(seeds) == 10
        assert all(0 <= s < 2**63 for s in seeds)

    def test_distinct_with_high_probability(self):
        seeds = fresh_seed_sequence(random.Random(0), 100)
        assert len(set(seeds)) == 100

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            fresh_seed_sequence(random.Random(0), -1)
