"""Differential tests: column-store placement against the per-node column
scan it replaced.

``reference_placements_colstore`` below is the earlier implementation of
:func:`repro.core.placement.layer_placements_colstore`, kept as a test
oracle: for every split node it searched the *whole* split column into
the node's rows, ``O(column nnz)`` per split node.  The production code
searches the node's rows into the column instead; both must produce the
same ``go_left`` arrays — sparse columns, rows absent from the column
(default direction), several nodes splitting on one feature, subsampled
roots and vertical shards (``feature_offset``) included.
"""

from __future__ import annotations

from typing import Dict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.indexing import NodeToInstanceIndex
from repro.core.placement import layer_placements_colstore
from repro.core.split import SplitInfo
from repro.data.matrix import CSCMatrix, CSRMatrix


# ---------------------------------------------------------------------------
# Reference implementation
# ---------------------------------------------------------------------------

def reference_placements_colstore(
    shard: CSCMatrix,
    index: NodeToInstanceIndex,
    splits: Dict[int, SplitInfo],
    feature_offset: int = 0,
) -> Dict[int, np.ndarray]:
    """Per split node, search the whole split column into its rows."""
    placements: Dict[int, np.ndarray] = {}
    for node, split in splits.items():
        local_fid = split.feature - feature_offset
        if not 0 <= local_fid < shard.num_cols:
            continue
        node_rows = index.rows_of(node)
        go_left = np.full(node_rows.size, split.default_left, dtype=bool)
        col_rows, col_bins = shard.col(local_fid)
        pos = np.searchsorted(node_rows, col_rows)
        pos = np.minimum(pos, max(node_rows.size - 1, 0))
        if node_rows.size:
            present = node_rows[pos] == col_rows
            go_left[pos[present]] = col_bins[present] <= split.bin
        placements[node] = go_left
    return placements


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def binned_csc(dense: np.ndarray) -> CSCMatrix:
    """Column store of a dense bin matrix (``-1`` = missing), built the
    way training builds it: CSR first, then :meth:`CSRMatrix.to_csc`."""
    rows, cols = np.nonzero(dense >= 0)
    indptr = np.concatenate(
        ([0], np.cumsum((dense >= 0).sum(axis=1)))).astype(np.int64)
    csr = CSRMatrix(indptr, cols.astype(np.int32),
                    dense[rows, cols].astype(np.int32), dense.shape[1])
    return csr.to_csc()


def grown_index(rng, num_rows, layers, sample_rate):
    """An index after ``layers`` random layer splits (optionally over a
    subsampled root), and the nodes of its last layer."""
    sample = None
    if sample_rate < 1.0:
        sample = np.flatnonzero(rng.random(num_rows) < sample_rate)
    index = NodeToInstanceIndex(num_rows, rows=sample)
    nodes = [0]
    for _ in range(layers):
        children = []
        for node in nodes:
            count = index.count_of(node)
            index.split_node(node, rng.random(count) < 0.5,
                             2 * node + 1, 2 * node + 2)
            children += [2 * node + 1, 2 * node + 2]
        nodes = children
    return index, nodes


def assert_same(shard, index, splits, feature_offset):
    got = layer_placements_colstore(shard, index, splits, feature_offset)
    want = reference_placements_colstore(shard, index, splits,
                                         feature_offset)
    assert got.keys() == want.keys()
    for node in want:
        assert got[node].dtype == bool
        np.testing.assert_array_equal(got[node], want[node])
    return got


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_rows=st.integers(1, 80),
    num_cols=st.integers(1, 6),
    density=st.sampled_from([0.0, 0.1, 0.6, 1.0]),
    layers=st.integers(0, 3),
    sample_rate=st.sampled_from([1.0, 0.6]),
    feature_offset=st.sampled_from([0, 3]),
    shared_feature=st.booleans(),
)
def test_matches_reference(seed, num_rows, num_cols, density, layers,
                           sample_rate, feature_offset, shared_feature):
    rng = np.random.default_rng(seed)
    dense = np.where(rng.random((num_rows, num_cols)) < density,
                     rng.integers(0, 6, size=(num_rows, num_cols)), -1)
    shard = binned_csc(dense)
    index, nodes = grown_index(rng, num_rows, layers, sample_rate)
    # global feature ids: some fall outside the shard and are skipped
    features = rng.integers(0, num_cols + 2 * feature_offset + 1,
                            size=len(nodes))
    if shared_feature:
        features[:] = features[0]
    splits = {
        node: SplitInfo(int(f), int(rng.integers(0, 6)),
                        bool(rng.random() < 0.5), 1.0)
        for node, f in zip(nodes, features)
        if rng.random() < 0.8
    }
    got = assert_same(shard, index, splits, feature_offset)
    for node, go_left in got.items():
        local = splits[node].feature - feature_offset
        rows = index.rows_of(node)
        values = dense[rows, local]
        expect = np.where(values < 0, splits[node].default_left,
                          values <= splits[node].bin)
        np.testing.assert_array_equal(go_left, expect)


def test_many_nodes_share_one_sparse_feature():
    """Every node of a 16-node layer splits on the same sparse column;
    rows absent from it follow each node's own default direction."""
    rng = np.random.default_rng(3)
    dense = np.where(rng.random((400, 4)) < 0.2,
                     rng.integers(0, 8, size=(400, 4)), -1)
    shard = binned_csc(dense)
    index, nodes = grown_index(rng, 400, 4, 1.0)
    splits = {node: SplitInfo(2, node % 8, node % 3 == 0, 1.0)
              for node in nodes}
    got = assert_same(shard, index, splits, 0)
    assert len(got) == len(nodes)


def test_vertical_shard_skips_foreign_features():
    rng = np.random.default_rng(4)
    dense = np.where(rng.random((60, 10)) < 0.5,
                     rng.integers(0, 4, size=(60, 10)), -1)
    group = np.arange(4, 8)
    shard = binned_csc(dense[:, group])
    index, nodes = grown_index(rng, 60, 2, 1.0)
    splits = {nodes[0]: SplitInfo(3, 1, False, 1.0),   # below the group
              nodes[1]: SplitInfo(5, 1, True, 1.0),
              nodes[2]: SplitInfo(7, 2, False, 1.0),
              nodes[3]: SplitInfo(8, 0, True, 1.0)}    # above the group
    got = assert_same(shard, index, splits, int(group[0]))
    assert set(got) == {nodes[1], nodes[2]}


def test_empty_node_and_empty_column():
    dense = np.full((10, 2), -1)
    dense[:, 0] = 1
    shard = binned_csc(dense)
    index = NodeToInstanceIndex(10)
    index.split_node(0, np.ones(10, dtype=bool), 1, 2)   # node 2 is empty
    splits = {1: SplitInfo(1, 0, True, 1.0), 2: SplitInfo(0, 0, False, 1.0)}
    got = assert_same(shard, index, splits, 0)
    assert got[1].all() and got[2].size == 0
