"""Empirical validation of the Section 3.2.4 complexity claims.

Rather than wall-clock time (noisy), these tests count *stored-entry
accesses* reported by the instrumented kernels and check they scale as
the paper's analysis says: histogram construction O(N d / W) per layer,
subtraction skipping at least half the instances below the root, the
hybrid column kernel's search/scan split, the columnwise index's
O(nnz)-per-layer maintenance, and column-store node splitting in
O(rows on split nodes * log nnz) per layer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import make_classification
from repro.core.gbdt import build_histograms_with_subtraction
from repro.core.histogram import (ColumnwiseIndex, build_colstore_hybrid,
                                  build_colstore_layer, build_rowstore)
from repro.core.indexing import NodeToInstanceIndex
from repro.core.loss import make_loss
from repro.core.placement import layer_placements_colstore
from repro.core.split import SplitInfo
from repro.data.dataset import bin_dataset


@pytest.fixture(scope="module")
def counted():
    ds = make_classification(4_000, 80, density=0.5, seed=88)
    binned = bin_dataset(ds, 12)
    loss = make_loss("binary")
    grad, hess = loss.gradients(
        ds.labels, loss.init_scores(ds.num_instances)
    )
    return ds, binned, grad, hess


class TestAccessCounts:
    def test_rowstore_touches_exactly_node_entries(self, counted):
        _, binned, grad, hess = counted
        rows = np.arange(0, binned.num_instances, 3)
        _, touched = build_rowstore(binned.binned, rows, grad, hess,
                                    binned.num_bins)
        lengths = np.diff(binned.binned.indptr)[rows]
        assert touched == int(lengths.sum())

    def test_colstore_layer_always_touches_everything(self, counted):
        """QD1's kernel scans all nnz per layer regardless of how many
        rows remain on active nodes — the no-subtraction cost."""
        _, binned, grad, hess = counted
        csc = binned.csc()
        # only 10% of instances still active
        slot = np.full(binned.num_instances, -1, dtype=np.int64)
        slot[:binned.num_instances // 10] = 0
        _, touched = build_colstore_layer(csc, slot, 1, grad, hess,
                                          binned.num_bins)
        assert touched == csc.nnz

    def test_subtraction_halves_layer_accesses(self, counted):
        """With subtraction, one layer's builds touch only the smaller
        sibling of each pair: at most half the parent entries."""
        _, binned, grad, hess = counted
        index = NodeToInstanceIndex(binned.num_instances)
        store = {}
        root_scanned = build_histograms_with_subtraction(
            binned, index, [0], grad, hess, store,
        )
        rng = np.random.default_rng(0)
        index.split_node(0, rng.random(binned.num_instances) < 0.5, 1, 2)
        layer_scanned = build_histograms_with_subtraction(
            binned, index, [1, 2], grad, hess, store,
        )
        assert layer_scanned <= root_scanned * 0.55

    def test_hybrid_kernel_work_bounded(self, counted):
        """scanned + searched stays within the per-column minimum of the
        two strategies (summed), i.e. never worse than either plan."""
        _, binned, grad, hess = counted
        csc = binned.csc()
        node_of = np.zeros(binned.num_instances, dtype=np.int64)
        node_of[:20] = 1  # tiny node: search beats scanning long columns
        node_rows = np.flatnonzero(node_of == 1)
        _, scanned, searched = build_colstore_hybrid(
            csc, node_rows, node_of, 1, grad, hess, binned.num_bins,
        )
        # upper bound: pure linear scan of all columns
        assert scanned + searched <= csc.nnz
        # small node on long columns: the kernel must binary-search
        assert searched > 0

    def test_columnwise_update_touches_all_entries(self, counted):
        _, binned, grad, hess = counted
        csc = binned.csc()
        index = ColumnwiseIndex(csc)
        node_of = np.random.default_rng(1).integers(
            1, 3, size=binned.num_instances
        )
        moved = index.update_after_split(node_of, [1, 2])
        assert moved == csc.nnz  # D-times the other indexes' bookkeeping

    def test_node_split_updates_linear_in_instances(self, counted):
        """NodeToInstanceIndex moves each instance exactly once per
        layer: O(N) node splitting (Section 3.2.4)."""
        _, binned, grad, hess = counted
        index = NodeToInstanceIndex(binned.num_instances)
        rng = np.random.default_rng(2)
        index.split_node(0, rng.random(binned.num_instances) < 0.5, 1, 2)
        first_layer = index.updates
        assert first_layer == binned.num_instances
        for node in (1, 2):
            count = index.count_of(node)
            index.split_node(node, rng.random(count) < 0.5,
                             2 * node + 1, 2 * node + 2)
        assert index.updates == 2 * binned.num_instances


class TestColstorePlacementCost:
    """Column-store node splitting probes each row of a split node once
    into the split column: work grows with the rows on split nodes, not
    with (split nodes x column nnz)."""

    @staticmethod
    def probes(monkeypatch, shard, index, splits):
        """Needles searched per ``searchsorted`` call of one layer's
        placement."""
        calls = []
        search = np.searchsorted

        def counting(haystack, needles, *args, **kwargs):
            haystack, needles = np.asarray(haystack), np.asarray(needles)
            calls.append((haystack.size, needles.size))
            # a mixed-dtype search converts the whole haystack first
            assert haystack.dtype == needles.dtype
            return search(haystack, needles, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np, "searchsorted", counting)
            layer_placements_colstore(shard, index, splits)
        return calls

    @pytest.mark.parametrize("num_nodes", [2, 8, 32])
    def test_probes_equal_rows_on_split_nodes(self, counted, monkeypatch,
                                              num_nodes):
        """All nodes of a layer split on the same dense column: the
        probe count stays at N however many nodes share it."""
        _, binned, _, _ = counted
        csc = binned.csc()
        feature = int(np.argmax(csc.col_lengths()))
        n = binned.num_instances
        node_of = (np.arange(n) * num_nodes // n).astype(np.int32)
        index = NodeToInstanceIndex.from_assignment(node_of)
        splits = {node: SplitInfo(feature, 3, False, 1.0)
                  for node in range(num_nodes)}
        calls = self.probes(monkeypatch, csc, index, splits)
        assert len(calls) == num_nodes
        assert sum(needles for _, needles in calls) == n
        assert all(hay == csc.col_lengths()[feature] for hay, _ in calls)

    def test_probes_track_split_node_rows_not_nnz(self, counted,
                                                  monkeypatch):
        """Shrinking the split nodes shrinks the work proportionally,
        while the column (and its nnz) stays the same."""
        _, binned, _, _ = counted
        csc = binned.csc()
        n = binned.num_instances
        work = []
        for small in (n // 2, n // 8, n // 32):
            node_of = np.full(n, 9, dtype=np.int32)
            node_of[:small] = 1
            node_of[small:2 * small] = 2
            index = NodeToInstanceIndex.from_assignment(node_of)
            splits = {1: SplitInfo(0, 2, True, 1.0),
                      2: SplitInfo(0, 5, False, 1.0)}
            calls = self.probes(monkeypatch, csc, index, splits)
            work.append(sum(needles for _, needles in calls))
        assert work == [n, n // 4, n // 16]


class TestScalingWithWorkers:
    def test_vertical_per_worker_entries_shrink_with_w(self, counted):
        """Each vertical worker's histogram work is ~nnz / W."""
        from repro.cluster.partition import vertical_shards

        _, binned, grad, hess = counted
        total = binned.binned.nnz
        for workers in (2, 4, 8):
            shards, _ = vertical_shards(binned, workers)
            max_load = max(s.binned.nnz for s in shards)
            assert max_load <= total / workers * 1.3

    def test_horizontal_per_worker_entries_shrink_with_w(self, counted):
        from repro.cluster.partition import horizontal_shards

        _, binned, grad, hess = counted
        total = binned.binned.nnz
        for workers in (2, 4, 8):
            shards, _ = horizontal_shards(binned, workers)
            max_load = max(s.binned.nnz for s in shards)
            assert max_load <= total / workers * 1.3
