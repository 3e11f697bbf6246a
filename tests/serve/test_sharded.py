"""Tree sharding: shard geometry, bit-identity, registry shards.

The headline property is exactness under partition: for any shard count
the ordered chain fold must reproduce the monolithic compiled predictor
bit for bit — on hypothesis-built adversarial ensembles, and on a model
trained by every execution plan in the registry.  The sharded fleet
itself (dispatch, deploy, reduction ledger) is tested with the other
:class:`~repro.serve.ReplicaSet` layouts in ``test_replica.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GBDT, TrainConfig
from repro.serve import (ModelRegistry, compile_ensemble,
                         reduce_shard_scores, shard_bounds,
                         shard_ensemble, shard_payload)
from repro.serve.registry import payload_checksum
from repro.systems.plans import PLANS

from .test_property import ensembles_and_batches


# ---------------------------------------------------------------------------
# Shard geometry
# ---------------------------------------------------------------------------

class TestShardBounds:
    def test_contiguous_cover(self):
        for trees in range(1, 12):
            for shards in range(1, 9):
                bounds = shard_bounds(trees, shards)
                assert len(bounds) == shards
                assert bounds[0][0] == 0 and bounds[-1][1] == trees
                for (_, stop), (start, _) in zip(bounds, bounds[1:]):
                    assert stop == start

    def test_balanced_within_one_tree(self):
        for trees in range(1, 12):
            for shards in range(1, 9):
                sizes = [b - a for a, b in shard_bounds(trees, shards)]
                assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_trees_leaves_empty_tail(self):
        bounds = shard_bounds(3, 8)
        sizes = [b - a for a, b in bounds]
        assert sum(sizes) == 3
        assert sizes.count(0) == 5


# ---------------------------------------------------------------------------
# Bit-identity: hypothesis-built adversarial ensembles
# ---------------------------------------------------------------------------

class TestBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(case=ensembles_and_batches(), num_shards=st.integers(1, 8))
    def test_chain_fold_bit_identical(self, case, num_shards):
        ensemble, dense = case
        compiled = compile_ensemble(ensemble)
        shards = shard_ensemble(compiled, num_shards)
        assert len(shards) == num_shards
        np.testing.assert_array_equal(
            reduce_shard_scores(shards, dense),
            compiled.raw_scores(dense),
        )

    @settings(max_examples=30, deadline=None)
    @given(case=ensembles_and_batches(), num_shards=st.integers(2, 8))
    def test_shard_tree_counts_partition_the_ensemble(self, case,
                                                      num_shards):
        ensemble, _ = case
        compiled = compile_ensemble(ensemble)
        shards = shard_ensemble(compiled, num_shards)
        assert sum(s.num_trees for s in shards) == compiled.num_trees

    def test_empty_shards_are_harmless(self):
        rng = np.random.default_rng(3)
        dataset_rows = rng.standard_normal((17, 6))
        from repro.data.synthetic import make_classification

        data = make_classification(300, 6, seed=3)
        compiled = compile_ensemble(GBDT(TrainConfig(
            num_trees=2, num_layers=3, num_candidates=8,
        )).fit(data).ensemble)
        shards = shard_ensemble(compiled, 8)   # 6 of them hold no trees
        np.testing.assert_array_equal(
            reduce_shard_scores(shards, dataset_rows),
            compiled.raw_scores(dataset_rows),
        )


# ---------------------------------------------------------------------------
# Bit-identity: every execution plan's trained model
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def plan_models(binned_binary, cluster4):
    """One trained model per registry plan, published to one registry."""
    config = TrainConfig(num_trees=3, num_layers=4, num_candidates=8)
    registry = ModelRegistry()
    versions = {}
    for key in sorted(PLANS):
        result = PLANS[key].build(config, cluster4).fit(binned_binary)
        entry = registry.publish(result.ensemble, source=f"plan:{key}")
        versions[key] = entry.version
    return registry, versions


class TestEveryPlan:
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4, 8])
    def test_sharded_scores_exact_for_all_plans(self, plan_models,
                                                num_shards):
        registry, versions = plan_models
        rng = np.random.default_rng(17)
        features = rng.standard_normal((41, 25))
        features[rng.random(features.shape) < 0.2] = np.nan
        for key, version in versions.items():
            compiled = registry.get(version).compiled
            shards = registry.shards(version, num_shards)
            np.testing.assert_array_equal(
                reduce_shard_scores(
                    [s.compiled for s in shards], features),
                compiled.raw_scores(features),
                err_msg=f"plan {key} diverged at S={num_shards}",
            )


# ---------------------------------------------------------------------------
# Registry shards: payloads, checksums, caching
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def registry(small_binary):
    registry = ModelRegistry()
    registry.publish(GBDT(TrainConfig(
        num_trees=6, num_layers=4, num_candidates=8,
    )).fit(small_binary).ensemble)
    registry.publish(GBDT(TrainConfig(
        num_trees=3, num_layers=3, num_candidates=8,
    )).fit(small_binary).ensemble)
    return registry


class TestRegistryShards:
    def test_shard_payloads_checksum_and_recompile(self, registry):
        entry = registry.get(1)
        shards = registry.shards(1, 3)
        rng = np.random.default_rng(5)
        features = rng.standard_normal((19, entry.compiled.num_features))
        for shard in shards:
            piece = shard_payload(entry.payload, shard.start_tree,
                                  shard.stop_tree)
            assert shard.checksum == payload_checksum(piece)
            assert piece["trees"] == \
                entry.payload["trees"][shard.start_tree:shard.stop_tree]
            # the sliced compiled shard serves what the payload says
            from repro.core.serialize import ensemble_from_dict

            recompiled = compile_ensemble(ensemble_from_dict(piece))
            np.testing.assert_array_equal(
                recompiled.raw_scores(features),
                shard.compiled.raw_scores(features))

    def test_shards_cached_per_version_and_count(self, registry):
        assert registry.shards(1, 2) is registry.shards(1, 2)
        assert registry.shards(1, 2) is not registry.shards(1, 4)
        assert registry.shards(2, 2) is not registry.shards(1, 2)

    def test_shard_sizes_sum_close_to_full(self, registry):
        entry = registry.get(1)
        for num_shards in (2, 4):
            shards = registry.shards(1, num_shards)
            total = sum(s.nbytes for s in shards)
            # only the few metadata keys repeat per shard
            assert entry.nbytes <= total <= entry.nbytes \
                + num_shards * 200


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

class TestValidation:
    def test_empty_shard_list_rejected(self):
        with pytest.raises(ValueError, match="at least one shard"):
            reduce_shard_scores([], np.zeros((1, 2)))
