"""Configuration validation tests."""

from __future__ import annotations

import pytest

from repro import ClusterConfig, NetworkModel, TrainConfig


class TestTrainConfig:
    def test_paper_defaults(self):
        cfg = TrainConfig()
        assert cfg.num_trees == 100     # T (Section 5.1)
        assert cfg.num_layers == 8      # L
        assert cfg.num_candidates == 20  # q

    @pytest.mark.parametrize("field,value", [
        ("num_trees", 0),
        ("num_layers", 1),
        ("num_candidates", 0),
        ("learning_rate", 0.0),
        ("learning_rate", 1.5),
        ("reg_lambda", -0.1),
        ("reg_gamma", -1.0),
    ])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            TrainConfig(**{field: value})

    def test_rejects_unknown_objective(self):
        with pytest.raises(ValueError, match="objective"):
            TrainConfig(objective="ranking")

    def test_multiclass_needs_three_classes(self):
        with pytest.raises(ValueError):
            TrainConfig(objective="multiclass", num_classes=2)

    def test_gradient_dim(self):
        assert TrainConfig().gradient_dim == 1
        assert TrainConfig(objective="regression").gradient_dim == 1
        assert TrainConfig(objective="multiclass",
                           num_classes=7).gradient_dim == 7

    def test_max_nodes(self):
        assert TrainConfig(num_layers=3).max_nodes == 7

    def test_frozen(self):
        cfg = TrainConfig()
        with pytest.raises(Exception):
            cfg.num_trees = 5


class TestClusterConfig:
    def test_defaults_match_lab_cluster(self):
        cluster = ClusterConfig()
        assert cluster.num_workers == 8
        assert cluster.network.bandwidth_gbps == 1.0

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_workers=0)

    def test_network_profiles(self):
        lab = NetworkModel.laboratory()
        prod = NetworkModel.production()
        assert prod.bytes_per_second == 10 * lab.bytes_per_second

    def test_bytes_per_second(self):
        assert NetworkModel(bandwidth_gbps=8.0).bytes_per_second == 1e9
