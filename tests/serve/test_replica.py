"""Serving-fleet tests: deploy accounting, balancing, stragglers, and
the tree-sharded layout (``num_shards > 1``).

Behaviour shared by both layouts is parametrized over
``num_shards in {1, 2}``; the sharded dispatch path is then held to the
collective cost model: ``serve:partial`` bytes must equal the ring
reduce-scatter closed form exactly, per batch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterConfig, GBDT, TrainConfig
from repro.cluster.comm import RingAllReduce, RingReduceScatter
from repro.config import NetworkModel
from repro.serve import (BatchPolicy, DEPLOY_KIND, MicroBatcher,
                         ModelRegistry, PARTIAL_KIND, PredictionCache,
                         REDUCE_KIND, ReplicaSet, SHARD_DEPLOY_KIND,
                         synthetic_trace)


@pytest.fixture(scope="module")
def registry(small_binary):
    registry = ModelRegistry()
    registry.publish(GBDT(TrainConfig(
        num_trees=3, num_layers=4, num_candidates=8,
    )).fit(small_binary).ensemble)
    registry.publish(GBDT(TrainConfig(
        num_trees=1, num_layers=3, num_candidates=8,
    )).fit(small_binary).ensemble)
    return registry


def make_trace(registry, n=200, seed=2, rate=5000.0):
    return synthetic_trace(
        n, registry.active.compiled.num_features, rate, seed=seed,
    )


def row_units(registry, version, num_shards):
    """What one replica row holds of ``version``: the whole model, or
    its tree-range shards."""
    if num_shards == 1:
        return [registry.get(version)]
    return registry.shards(version, num_shards)


def row_bytes(registry, version, num_shards):
    return sum(unit.nbytes for unit in row_units(registry, version,
                                                 num_shards))


SHARDS = pytest.mark.parametrize("num_shards", [1, 2])


class TestDeploy:
    @SHARDS
    def test_deploy_bytes_exact(self, registry, num_shards):
        replicas = ReplicaSet(registry,
                              ClusterConfig(num_workers=3 * num_shards),
                              num_shards=num_shards)
        replicas.deploy(1)
        assert replicas.deploy_bytes == 3 * row_bytes(registry, 1,
                                                      num_shards)
        replicas.deploy(2)
        assert replicas.deploy_bytes == 3 * (
            row_bytes(registry, 1, num_shards)
            + row_bytes(registry, 2, num_shards))
        snapshot = replicas.network.snapshot()
        kind = DEPLOY_KIND if num_shards == 1 else SHARD_DEPLOY_KIND
        assert set(snapshot.bytes_by_kind) == {kind}
        assert replicas.deployed_versions() == [2, 2, 2]
        assert replicas.model_bytes_per_worker() == max(
            unit.nbytes for unit in row_units(registry, 2, num_shards))

    @SHARDS
    def test_deploy_time_follows_network_model(self, registry,
                                               num_shards):
        network = NetworkModel(bandwidth_gbps=1.0, latency_s=0.01)
        replicas = ReplicaSet(
            registry, ClusterConfig(num_workers=2, network=network),
            num_shards=num_shards,
        )
        replicas.deploy(1, at_s=5.0)
        expected = 5.0 + max(network.transfer_time(unit.nbytes)
                             for unit in row_units(registry, 1,
                                                   num_shards))
        assert replicas.next_free_s() == pytest.approx(expected)

    @SHARDS
    def test_serving_before_deploy_rejected(self, registry, num_shards):
        replicas = ReplicaSet(registry, ClusterConfig(num_workers=2),
                              num_shards=num_shards)
        with pytest.raises(RuntimeError, match="no model"):
            replicas.dispatch(np.zeros((1, 4)), 0.0)

    @SHARDS
    def test_unknown_balancer(self, registry, num_shards):
        with pytest.raises(ValueError, match="unknown balancer"):
            ReplicaSet(registry, ClusterConfig(num_workers=2),
                       num_shards=num_shards, balancer="random")


@pytest.fixture(scope="module")
def append_registry(small_binary):
    """Two versions where v2 extends v1 by two trees — boosting is
    deterministic, so the longer run's tree prefix equals the short
    run's trees exactly (the append-mostly rollout shape)."""
    registry = ModelRegistry()
    cfg = dict(num_layers=4, num_candidates=8)
    registry.publish(GBDT(TrainConfig(num_trees=2, **cfg))
                     .fit(small_binary).ensemble)
    registry.publish(GBDT(TrainConfig(num_trees=4, **cfg))
                     .fit(small_binary).ensemble)
    return registry


class TestDeltaDeploys:
    def test_off_by_default(self, append_registry):
        replicas = ReplicaSet(append_registry,
                              ClusterConfig(num_workers=2))
        replicas.deploy(1)
        replicas.deploy(2)
        assert replicas.deploy_bytes == replicas.deploy_raw_bytes
        assert replicas.network.snapshot().codec_savings_by_kind() == {}

    def test_second_rollout_ships_tree_suffix(self, append_registry):
        v1 = append_registry.get(1)
        v2 = append_registry.get(2)
        replicas = ReplicaSet(append_registry,
                              ClusterConfig(num_workers=3),
                              delta_deploys=True)
        replicas.deploy(1)
        assert replicas.deploy_bytes == 3 * v1.nbytes  # no predecessor
        replicas.deploy(2)
        full = 3 * (v1.nbytes + v2.nbytes)
        assert replicas.deploy_raw_bytes == full
        assert replicas.deploy_bytes < full
        assert replicas.deployed_versions() == [2, 2, 2]
        savings = replicas.network.snapshot().codec_savings_by_kind()
        assert savings["codec:" + DEPLOY_KIND] == \
            full - replicas.deploy_bytes
        # the wire still carries only the deploy kind
        assert set(replicas.network.snapshot().bytes_by_kind) == \
            {DEPLOY_KIND}

    def test_delta_deployed_model_serves_identically(
            self, append_registry):
        rng = np.random.default_rng(0)
        features = rng.standard_normal(
            (32, append_registry.get(2).compiled.num_features))
        full = ReplicaSet(append_registry, ClusterConfig(num_workers=1))
        delta = ReplicaSet(append_registry, ClusterConfig(num_workers=1),
                           delta_deploys=True)
        for replicas in (full, delta):
            replicas.deploy(1)
            replicas.deploy(2)
        np.testing.assert_array_equal(
            full.dispatch(features, 0.0).scores,
            delta.dispatch(features, 0.0).scores)

    def test_unrelated_versions_fall_back_to_full(self, registry):
        # the shared `registry` fixture's versions share no tree prefix
        replicas = ReplicaSet(registry, ClusterConfig(num_workers=2),
                              delta_deploys=True)
        replicas.deploy(1)
        replicas.deploy(2)
        assert replicas.deploy_bytes == replicas.deploy_raw_bytes == \
            2 * (registry.get(1).nbytes + registry.get(2).nbytes)


class TestBalancing:
    @SHARDS
    def test_round_robin_cycles_workers(self, registry, num_shards):
        replicas = ReplicaSet(
            registry, ClusterConfig(num_workers=3 * num_shards),
            balancer="round-robin", service_model=lambda k: 1e-4,
            num_shards=num_shards,
        )
        replicas.deploy()
        trace = make_trace(registry)
        report = MicroBatcher(replicas, BatchPolicy(16, 0.001)).run(trace)
        # a batch reports its row's tail worker (where the fold ends)
        rows = [b.worker // num_shards for b in report.batches]
        assert rows[:6] == [0, 1, 2, 0, 1, 2]

    @SHARDS
    def test_least_loaded_prefers_fast_worker(self, registry, num_shards):
        # row 1 is 10x faster; under sustained load it should take the
        # lion's share of batches
        speeds = (0.1,) * num_shards + (1.0,) * num_shards
        cluster = ClusterConfig(num_workers=2 * num_shards,
                                worker_speeds=speeds)
        replicas = ReplicaSet(registry, cluster, balancer="least-loaded",
                              service_model=lambda k: 2e-4,
                              num_shards=num_shards)
        replicas.deploy()
        trace = make_trace(registry, n=400, rate=50_000.0)
        report = MicroBatcher(replicas, BatchPolicy(16, 0.0005)).run(trace)
        counts = np.bincount([b.worker // num_shards
                              for b in report.batches], minlength=2)
        assert counts[1] > counts[0] * 2

    def test_straggler_slows_service(self, registry):
        slow = ReplicaSet(
            registry,
            ClusterConfig(num_workers=1, worker_speeds=(0.5,)),
            service_model=lambda k: 1e-3,
        )
        slow.deploy()
        result = slow.dispatch(np.zeros((4, 4)), 0.0)
        assert result.completion_s - result.start_s == \
            pytest.approx(2e-3)


class TestHotSwapUnderTraffic:
    @SHARDS
    def test_swap_is_atomic_and_accounted(self, registry, num_shards):
        rows = 4
        replicas = ReplicaSet(
            registry, ClusterConfig(num_workers=rows * num_shards),
            balancer="least-loaded", service_model=lambda k: 2e-4,
            num_shards=num_shards,
        )
        replicas.deploy(1)
        trace = make_trace(registry, n=300, seed=8)
        swap_at = float(trace.arrivals[150])
        report = MicroBatcher(replicas, BatchPolicy(16, 0.001)).run(
            trace, swaps=[(swap_at, replicas.deployer(2))]
        )
        # every request served by exactly one version
        assert report.versions_served() == [1, 2]
        for batch in report.batches:
            versions = {r.model_version for r in report.records
                        if r.batch_id == batch.batch_id}
            assert len(versions) == 1
        # all requests served, none dropped during the swap
        assert sorted(r.request_id for r in report.records) == \
            list(range(300))
        # deploy traffic: both rollouts, every row, exact bytes (a
        # sharded row reshards: every shard of the new version ships)
        expected = rows * (row_bytes(registry, 1, num_shards)
                           + row_bytes(registry, 2, num_shards))
        assert replicas.deploy_bytes == expected
        # the deployer also flipped the registry pointer
        assert registry.active.version == 2

    def test_deployer_with_explicit_entry_skips_activate(self, registry):
        registry.activate(1)
        replicas = ReplicaSet(registry, ClusterConfig(num_workers=2),
                              service_model=lambda k: 1e-4)
        replicas.deploy(1)
        replicas.deployer(registry.get(2))(0.5)
        assert replicas.deployed_versions() == [2, 2]
        assert registry.active.version == 1  # pointer untouched


class TestVersionTargeting:
    def test_subset_deploy_touches_only_the_pool(self, registry):
        replicas = ReplicaSet(registry, ClusterConfig(num_workers=4),
                              service_model=lambda k: 1e-4)
        replicas.deploy(1)
        replicas.deploy(2, workers=[3], kind="deploy:canary")
        assert replicas.deployed_versions() == [1, 1, 1, 2]
        assert replicas.workers_serving(1) == [0, 1, 2]
        assert replicas.workers_serving(2) == [3]
        snapshot = replicas.network.snapshot().bytes_by_kind
        assert snapshot["deploy:canary"] == registry.get(2).nbytes
        assert snapshot[DEPLOY_KIND] == 4 * registry.get(1).nbytes

    def test_pool_validation(self, registry):
        replicas = ReplicaSet(registry, ClusterConfig(num_workers=2),
                              service_model=lambda k: 1e-4)
        with pytest.raises(ValueError, match="must not be empty"):
            replicas.deploy(1, workers=[])
        with pytest.raises(ValueError, match="out of range"):
            replicas.deploy(1, workers=[5])

    def test_pool_dispatch_stays_inside_the_pool(self, registry):
        replicas = ReplicaSet(registry, ClusterConfig(num_workers=4),
                              service_model=lambda k: 1e-4)
        replicas.deploy(1)
        replicas.deploy(2, workers=[2, 3])
        rows = np.zeros((2, registry.get(1).compiled.num_features))
        workers = {replicas.dispatch(rows, 0.0, pool=[2, 3]).worker
                   for _ in range(6)}
        assert workers == {2, 3}
        versions = {replicas.dispatch(rows, 0.0, pool=[0, 1])
                    .model_version for _ in range(6)}
        assert versions == {1}

    def test_pool_round_robin_cursor_is_independent(self, registry):
        replicas = ReplicaSet(registry, ClusterConfig(num_workers=3),
                              service_model=lambda k: 1e-4)
        replicas.deploy(1)
        rows = np.zeros((1, registry.get(1).compiled.num_features))
        pooled = [replicas.dispatch(rows, 0.0, pool=[0, 1]).worker
                  for _ in range(4)]
        assert pooled == [0, 1, 0, 1]
        # the global cursor never moved while the pool cycled
        assert replicas.dispatch(rows, 0.0).worker == 0

    def test_canary_bytes_never_pollute_steady_state(self, registry):
        """``deploy_bytes``/``deploy_raw_bytes`` cover only the
        ``deploy:model`` kind — a subset deploy under another kind must
        leave both untouched (the regression that motivated the per-kind
        breakdown)."""
        replicas = ReplicaSet(registry, ClusterConfig(num_workers=4),
                              service_model=lambda k: 1e-4)
        replicas.deploy(1)
        steady = replicas.deploy_bytes
        steady_raw = replicas.deploy_raw_bytes
        replicas.deploy(2, workers=[2, 3], kind="deploy:canary")
        assert replicas.deploy_bytes == steady
        assert replicas.deploy_raw_bytes == steady_raw

    def test_deploy_bytes_by_kind_breakdown(self, registry):
        replicas = ReplicaSet(registry, ClusterConfig(num_workers=4),
                              service_model=lambda k: 1e-4)
        replicas.deploy(1)
        replicas.deploy(2, workers=[3], kind="deploy:canary")
        by_kind = replicas.deploy_bytes_by_kind()
        assert set(by_kind) == {DEPLOY_KIND, "deploy:canary"}
        assert by_kind[DEPLOY_KIND] == \
            (4 * registry.get(1).nbytes, 4 * registry.get(1).nbytes)
        assert by_kind["deploy:canary"] == \
            (registry.get(2).nbytes, registry.get(2).nbytes)
        # non-deploy kinds never leak into the breakdown
        replicas.network.record("serve:partial", 123, 0.0)
        assert "serve:partial" not in replicas.deploy_bytes_by_kind()

    def test_delta_subset_deploy_attributes_to_callers_kind(
            self, append_registry):
        """A delta-encoded canary deploy keeps its wire bytes *and* its
        raw (full-payload) baseline under the caller's kind, so the
        ``codec:deploy:canary`` savings dimension reports the delta's
        win without touching ``deploy:model``."""
        v1 = append_registry.get(1)
        v2 = append_registry.get(2)
        replicas = ReplicaSet(append_registry,
                              ClusterConfig(num_workers=4),
                              service_model=lambda k: 1e-4,
                              delta_deploys=True)
        replicas.deploy(1)
        replicas.deploy(2, workers=[3], kind="deploy:canary")
        by_kind = replicas.deploy_bytes_by_kind()
        wire, raw = by_kind["deploy:canary"]
        assert raw == v2.nbytes        # full payload baseline
        assert 0 < wire < raw          # the tree-suffix delta shipped
        assert by_kind[DEPLOY_KIND] == (4 * v1.nbytes, 4 * v1.nbytes)
        savings = replicas.network.snapshot().codec_savings_by_kind()
        assert savings == {"codec:deploy:canary": raw - wire}

    def test_occupy_bills_without_serving(self, registry):
        replicas = ReplicaSet(registry, ClusterConfig(num_workers=2),
                              service_model=lambda k: 1e-4)
        replicas.deploy(1)
        free_before = replicas._free.copy()
        worker, start, done = replicas.occupy([1], 0.5, 0.25)
        assert worker == 1
        assert start == pytest.approx(max(0.5, free_before[1]))
        assert done == pytest.approx(start + 0.25)
        assert replicas._free[0] == free_before[0]  # pool 0 untouched

    def test_subset_deploy_touches_only_its_rows_sharded(self, registry):
        replicas = ReplicaSet(registry, ClusterConfig(num_workers=8),
                              service_model=lambda k: 1e-4, num_shards=2)
        replicas.deploy(1)
        ready = [replicas.row_ready_s(row) for row in range(4)]
        replicas.deploy(2, workers=[3], kind="deploy:canary", at_s=1.0)
        assert replicas.deployed_versions() == [1, 1, 1, 2]
        assert replicas.workers_serving(2) == [3]
        # both shards of row 3 were installed; rows 0..2 never moved
        assert [replicas.row_ready_s(row) for row in range(3)] \
            == ready[:3]
        assert replicas.row_ready_s(3) > 1.0
        snapshot = replicas.network.snapshot().bytes_by_kind
        assert snapshot["deploy:canary"] == row_bytes(registry, 2, 2)
        assert snapshot[SHARD_DEPLOY_KIND] == 4 * row_bytes(registry, 1, 2)

    def test_pool_dispatch_stays_inside_its_rows_sharded(self, registry):
        replicas = ReplicaSet(registry, ClusterConfig(num_workers=8),
                              service_model=lambda k: 1e-4, num_shards=2)
        replicas.deploy(1)
        replicas.deploy(2, workers=[2, 3])
        rows = np.zeros((2, registry.get(1).compiled.num_features))
        served = [replicas.dispatch(rows, 0.0, pool=[2, 3])
                  for _ in range(6)]
        # tail workers of rows 2 and 3 (workers 4,5 and 6,7)
        assert {result.worker for result in served} == {5, 7}
        assert {result.model_version for result in served} == {2}
        np.testing.assert_array_equal(
            served[0].scores, registry.get(2).compiled.raw_scores(rows))
        versions = {replicas.dispatch(rows, 0.0, pool=[0, 1])
                    .model_version for _ in range(6)}
        assert versions == {1}


# ---------------------------------------------------------------------------
# Tree-sharded fleets (num_shards > 1)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sharded_registry(small_binary):
    registry = ModelRegistry()
    registry.publish(GBDT(TrainConfig(
        num_trees=6, num_layers=4, num_candidates=8,
    )).fit(small_binary).ensemble)
    registry.publish(GBDT(TrainConfig(
        num_trees=3, num_layers=3, num_candidates=8,
    )).fit(small_binary).ensemble)
    return registry


def make_fleet(registry, num_shards, workers=None, **kwargs):
    workers = workers or 2 * num_shards
    kwargs.setdefault("service_model", lambda k: 1e-4)
    return ReplicaSet(
        registry, ClusterConfig(num_workers=workers),
        num_shards=num_shards, **kwargs)


def run_trace(registry, replicas, n=150, rate=5000.0, seed=2,
              policy=None):
    trace = synthetic_trace(
        n, registry.get(1).compiled.num_features, rate, seed=seed)
    replicas.deploy(1)
    report = MicroBatcher(
        replicas, policy or BatchPolicy(max_batch_size=16,
                                        max_delay_s=0.001),
    ).run(trace, collect_scores=True)
    return trace, report


class TestShardedDispatch:
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_served_scores_bit_identical(self, sharded_registry,
                                         num_shards):
        registry = sharded_registry
        replicas = make_fleet(registry, num_shards)
        trace, report = run_trace(registry, replicas)
        assert len(report.records) == trace.num_requests
        ids = np.fromiter((r.request_id for r in report.records),
                          np.int64, len(report.records))
        direct = registry.get(1).compiled.raw_scores(trace.features[ids])
        np.testing.assert_array_equal(report.scores, direct)

    def test_conservation_under_overload(self, sharded_registry):
        registry = sharded_registry
        replicas = make_fleet(registry, 2, workers=2,
                              service_model=lambda k: 5e-3)
        trace, report = run_trace(
            registry, replicas, n=300, rate=50_000.0,
            policy=BatchPolicy(max_batch_size=8, max_delay_s=0.0005,
                               max_queue=16, overload="shed-oldest"))
        assert len(report.dropped) > 0
        assert len(report.records) + len(report.dropped) \
            == trace.num_requests

    @pytest.mark.parametrize("num_shards", [2, 3, 4])
    def test_partial_bytes_match_collective_closed_form(
            self, sharded_registry, num_shards):
        registry = sharded_registry
        replicas = make_fleet(registry, num_shards,
                              workers=num_shards)
        _, report = run_trace(registry, replicas)
        ring = RingReduceScatter()
        expected = sum(
            int(ring.per_worker_bytes(batch.size * 8, num_shards)
                * num_shards)
            for batch in report.batches
        )
        assert replicas.partial_bytes == expected
        assert replicas.reduce_bytes == 0   # gather mode

    def test_allreduce_charges_both_halves(self, sharded_registry):
        registry = sharded_registry
        num_shards = 4
        replicas = make_fleet(registry, num_shards,
                              workers=num_shards,
                              reduction="allreduce")
        _, report = run_trace(registry, replicas)
        assert replicas.reduce_bytes == replicas.partial_bytes > 0
        ring = RingAllReduce()
        expected = sum(
            int(RingReduceScatter().per_worker_bytes(
                batch.size * 8, num_shards) * num_shards)
            for batch in report.batches
        ) * 2
        assert replicas.partial_bytes + replicas.reduce_bytes == expected
        assert expected == sum(
            int(ring.per_worker_bytes(batch.size * 8, num_shards) / 2
                * num_shards) * 2
            for batch in report.batches
        )

    def test_single_shard_pays_no_reduction(self, sharded_registry):
        registry = sharded_registry
        replicas = make_fleet(registry, 1, workers=2)
        _, report = run_trace(registry, replicas)
        assert replicas.partial_bytes == 0
        assert replicas.reduce_bytes == 0
        snapshot = replicas.network.snapshot().bytes_by_kind
        assert PARTIAL_KIND not in snapshot
        assert REDUCE_KIND not in snapshot

    def test_batch_occupies_a_whole_row(self, sharded_registry):
        registry = sharded_registry
        replicas = make_fleet(registry, 2, workers=4)
        replicas.deploy(1)
        row1_free = replicas._free[2:4]
        rows = np.zeros((3, registry.get(1).compiled.num_features))
        result = replicas.dispatch(rows, 0.0)
        # both members of row 0 stay busy until the collective is done
        assert replicas._free[0] == replicas._free[1] \
            == result.completion_s
        assert replicas._free[2:4] == row1_free   # row 1 untouched

    def test_rows_hold_one_version_by_construction(self,
                                                   sharded_registry):
        registry = sharded_registry
        replicas = make_fleet(registry, 2, workers=4)
        replicas.deploy(1)
        replicas.deploy(2, workers=[1])
        # a deploy installs every shard of a row in one step
        assert [[unit.version for unit in units]
                for units in replicas._deployed] == [[1, 1], [2, 2]]
        rows = np.zeros((2, registry.get(1).compiled.num_features))
        result = replicas.dispatch(rows, 0.0, pool=[1])
        assert result.model_version == 2
        np.testing.assert_array_equal(
            result.scores, registry.get(2).compiled.raw_scores(rows))


class TestScoreCodec:
    def test_f16_carries_save_wire_bytes(self, sharded_registry):
        registry = sharded_registry
        narrow = make_fleet(registry, 4, workers=4, codec="f16")
        _, report = run_trace(registry, narrow)
        ring = RingReduceScatter()
        raw_expected = sum(
            int(ring.per_worker_bytes(b.size * 8, 4) * 4)
            for b in report.batches)
        wire_expected = sum(
            int(sum(ring.per_worker_bytes(b.size * 2, 4)
                    for _ in range(4)))
            for b in report.batches)
        assert narrow.partial_bytes == wire_expected < raw_expected
        # raw accounting keeps the dense float64 baseline
        snapshot = narrow.network.snapshot()
        assert snapshot.raw_bytes_by_kind[PARTIAL_KIND] == raw_expected
        assert snapshot.codec_savings_by_kind()[
            "codec:" + PARTIAL_KIND] == raw_expected - wire_expected

    def test_lossy_carry_changes_scores_lossless_does_not(
            self, sharded_registry):
        registry = sharded_registry
        features = np.random.default_rng(9).standard_normal(
            (32, registry.get(1).compiled.num_features))
        direct = registry.get(1).compiled.raw_scores(features)
        for codec, lossless in (("none", True), ("sparse", True),
                                ("f16", False)):
            replicas = make_fleet(registry, 4, workers=4, codec=codec)
            replicas.deploy(1)
            scores = replicas.dispatch(features, 0.0).scores
            if lossless:
                np.testing.assert_array_equal(scores, direct)
            else:
                assert not np.array_equal(scores, direct)
                np.testing.assert_allclose(scores, direct, rtol=2e-3,
                                           atol=2e-3)


class TestShardDeploy:
    def test_sharded_rollout_undercuts_replicated(self, sharded_registry):
        registry = sharded_registry
        entry = registry.get(1)
        for num_shards in (2, 4):
            replicas = make_fleet(registry, num_shards, workers=4)
            replicas.deploy(1)
            assert replicas.deploy_bytes < 4 * entry.nbytes
            assert replicas.model_bytes_per_worker() < entry.nbytes


class TestValidation:
    def test_workers_must_divide(self, sharded_registry):
        with pytest.raises(ValueError, match="multiple of num_shards"):
            ReplicaSet(sharded_registry, ClusterConfig(num_workers=3),
                       num_shards=2)

    def test_unknown_reduction(self, sharded_registry):
        with pytest.raises(ValueError, match="unknown reduction"):
            ReplicaSet(sharded_registry, ClusterConfig(num_workers=2),
                       num_shards=2, reduction="tree")
        with pytest.raises(ValueError, match="num_shards must be >= 1"):
            ReplicaSet(sharded_registry, num_shards=0)

    def test_cache_requires_unsharded_fleet(self, sharded_registry):
        with pytest.raises(ValueError, match="mutually exclusive"):
            ReplicaSet(sharded_registry, ClusterConfig(num_workers=2),
                       num_shards=2, cache=PredictionCache(8))
