"""Spec hashing: canonical JSON, stability, and key boundaries.

The serve layer's dedup rests on three properties checked here:

* :func:`repro.core.canonical.canonical_json` is injective on distinct
  documents and invariant under dict ordering;
* ``spec_hash()`` covers exactly the fields that determine results —
  display-only fields (names, descriptions) are excluded, behavioral
  fields (engine, grid axes) are included;
* hashes are domain-separated: a scenario, a campaign, and a shard can
  never collide even over identical payloads.
"""

import json

import pytest

from repro.api.spec import ScenarioSpec
from repro.campaign.spec import CampaignSpec, Shard
from repro.core.canonical import canonical_json, stable_hash


SPEC_DOC = {
    "name": "demo",
    "graph": ["line-of-cliques", {"num_cliques": 3, "clique_size": 4}],
    "algorithm": ["permuted-decay", {}],
    "adversary": ["none", {}],
    "problem": ["global-broadcast", {"source": 0}],
}


class TestCanonicalJson:
    def test_key_order_invariant(self):
        assert canonical_json({"b": 1, "a": [{"y": 2, "x": 3}]}) == canonical_json(
            {"a": [{"x": 3, "y": 2}], "b": 1}
        )

    def test_compact_and_sorted(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_non_ascii_escaped(self):
        # ensure_ascii → the bytes are ascii regardless of platform locale.
        canonical_json({"k": "Δ"}).encode("ascii")

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    def test_stable_hash_is_sha256_hex(self):
        digest = stable_hash({"a": 1})
        assert len(digest) == 64
        int(digest, 16)  # hex

    def test_known_digest_pinned(self):
        # A cross-version regression pin: if this moves, every stored
        # spec_hash silently stops matching history.
        import hashlib

        expected = hashlib.sha256(b'{"a":1}').hexdigest()
        assert stable_hash({"a": 1}) == expected


class TestScenarioSpecHash:
    def test_stable_across_dict_order(self):
        shuffled = dict(reversed(list(SPEC_DOC.items())))
        assert (
            ScenarioSpec.from_dict(SPEC_DOC).spec_hash()
            == ScenarioSpec.from_dict(shuffled).spec_hash()
        )

    def test_name_is_display_only(self):
        renamed = {**SPEC_DOC, "name": "something-else"}
        assert (
            ScenarioSpec.from_dict(SPEC_DOC).spec_hash()
            == ScenarioSpec.from_dict(renamed).spec_hash()
        )

    def test_engine_changes_hash(self):
        bitset = {**SPEC_DOC, "engine": "bitset"}
        assert (
            ScenarioSpec.from_dict(SPEC_DOC).spec_hash()
            != ScenarioSpec.from_dict(bitset).spec_hash()
        )

    def test_bitset_alias_keeps_its_hash(self):
        # "bitset" resolves to the bank engine only at execution time;
        # the name stays in the hashed identity, so stored records keep
        # deduping against it.
        bitset = {**SPEC_DOC, "engine": "bitset"}
        assert ScenarioSpec.from_dict(bitset).spec_hash() == (
            "142a7af401d831d4ede1288f710d49763a60887cccdd96e5116e4df3bbb77d2f"
        )

    def test_parameter_changes_hash(self):
        bigger = {
            **SPEC_DOC,
            "graph": ["line-of-cliques", {"num_cliques": 3, "clique_size": 5}],
        }
        assert (
            ScenarioSpec.from_dict(SPEC_DOC).spec_hash()
            != ScenarioSpec.from_dict(bigger).spec_hash()
        )

    def test_roundtrip_through_json_is_stable(self):
        spec = ScenarioSpec.from_dict(SPEC_DOC)
        again = ScenarioSpec.from_json(spec.to_json())
        assert spec.spec_hash() == again.spec_hash()


class TestCampaignAndShardHash:
    def test_campaign_name_and_description_excluded(self):
        a = CampaignSpec(
            name="a", experiments=("E1b",), scales=("tiny",),
            engines=("reference",), seeds=(2013,), description="first",
        )
        b = CampaignSpec(
            name="b", experiments=("E1b",), scales=("tiny",),
            engines=("reference",), seeds=(2013,), description="second",
        )
        assert a.spec_hash() == b.spec_hash()

    def test_campaign_grid_included(self):
        a = CampaignSpec(
            name="a", experiments=("E1b",), scales=("tiny",),
            engines=("reference",), seeds=(2013,),
        )
        b = CampaignSpec(
            name="a", experiments=("E1b",), scales=("tiny",),
            engines=("reference",), seeds=(2013, 2014),
        )
        assert a.spec_hash() != b.spec_hash()

    def test_shard_hash_ignores_campaign_and_seed(self):
        # The dedup key is (spec_hash, seed); the seed rides separately
        # so one hash indexes every seed's records of a cell, and the
        # campaign name never fragments the cache.
        a = Shard(campaign="x", experiment="E1b", scale="tiny",
                  engine="reference", master_seed=1)
        b = Shard(campaign="y", experiment="E1b", scale="tiny",
                  engine="reference", master_seed=2)
        assert a.spec_hash() == b.spec_hash()

    def test_shard_hash_covers_cell_axes(self):
        base = Shard(campaign="x", experiment="E1b", scale="tiny",
                     engine="reference", master_seed=1)
        for other in (
            Shard(campaign="x", experiment="E2a", scale="tiny",
                  engine="reference", master_seed=1),
            Shard(campaign="x", experiment="E1b", scale="small",
                  engine="reference", master_seed=1),
            Shard(campaign="x", experiment="E1b", scale="tiny",
                  engine="bitset", master_seed=1),
        ):
            assert base.spec_hash() != other.spec_hash()

    def test_domain_separation(self):
        # Identical payload content under different kinds never collides.
        assert stable_hash({"kind": "scenario", "x": 1}) != stable_hash(
            {"kind": "shard", "x": 1}
        )

    def test_shard_record_carries_spec_hash(self):
        from repro.campaign.runner import shard_record

        shard = Shard(campaign="x", experiment="E1b", scale="tiny",
                      engine="reference", master_seed=2013)
        record = shard_record(shard, {"rows": []}, seconds=0.1)
        assert record["spec_hash"] == shard.spec_hash()
        # The stamp lives beside the aggregate, not inside it: the
        # byte-identity surface (aggregates_json) stays hash-free.
        assert "spec_hash" not in json.dumps(record["aggregate"])
