"""Instance placement after node splitting (Section 2.2.1 / 4.2.2).

Once a layer's best splits are known, every instance on a split node moves
to the left or right child.  This module computes, for each split node, a
boolean ``go_left`` array aligned with the node's row list — in one
vectorized pass over the shard per layer, so node splitting stays ``O(rows
+ entries touched)`` per layer as Section 3.2.4 requires.

Row-store and column-store variants are provided; the vertical quadrants
encode the result as bitmaps (:mod:`repro.cluster.bitmap`) before
broadcasting it.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..data.matrix import CSCMatrix, CSRMatrix
from .indexing import NodeToInstanceIndex
from .split import SplitInfo


def rowstore_search_keys(shard: CSRMatrix) -> np.ndarray:
    """Sorted composite keys ``row * (D + 1) + column`` of a CSR shard.

    Rows ascend across the array and columns ascend within each row, so
    the composite is globally sorted — a single ``searchsorted`` then
    locates the entry of any ``(row, feature)`` pair in ``O(log nnz)``.
    Systems precompute this once per shard so node splitting costs
    ``O(rows_on_split_nodes * log nnz)`` per layer (the Section 3.2.4
    bound), instead of a full ``O(nnz)`` scan.
    """
    row_of = np.repeat(
        np.arange(shard.num_rows, dtype=np.int64), np.diff(shard.indptr)
    )
    return row_of * (shard.num_cols + 1) + shard.indices


def layer_placements_rowstore(
    shard: CSRMatrix,
    index: NodeToInstanceIndex,
    splits: Dict[int, SplitInfo],
    feature_offset: int = 0,
    search_keys: np.ndarray = None,
) -> Dict[int, np.ndarray]:
    """``go_left`` per split node from a binned row-store shard.

    ``splits`` maps node id to its chosen split with *global* feature ids;
    ``feature_offset`` is the global id of the shard's first column (zero
    for horizontal shards, the group offset for vertical ones).  Nodes
    whose split feature lies outside the shard are skipped — in vertical
    partitioning only the owner worker can compute a node's placement.

    ``search_keys`` is the precomputed :func:`rowstore_search_keys` array
    (built on the fly when omitted).
    """
    local_splits = {
        node: split for node, split in splits.items()
        if 0 <= split.feature - feature_offset < shard.num_cols
    }
    if not local_splits:
        return {}
    if search_keys is None:
        search_keys = rowstore_search_keys(shard)
    width = shard.num_cols + 1
    nnz = search_keys.size
    placements: Dict[int, np.ndarray] = {}
    for node, split in local_splits.items():
        node_rows = index.rows_of(node)
        go_left = np.full(node_rows.size, split.default_left, dtype=bool)
        if node_rows.size:
            keys = node_rows * width + (split.feature - feature_offset)
            pos = np.searchsorted(search_keys, keys)
            pos = np.minimum(pos, max(nnz - 1, 0))
            present = (search_keys[pos] == keys) if nnz else \
                np.zeros(node_rows.size, dtype=bool)
            go_left[present] = shard.values[pos[present]] <= split.bin
        placements[node] = go_left
    return placements


def layer_placements_colstore(
    shard: CSCMatrix,
    index: NodeToInstanceIndex,
    splits: Dict[int, SplitInfo],
    feature_offset: int = 0,
) -> Dict[int, np.ndarray]:
    """Column-store variant: look each node row up in the split column.

    Rows ascend within every column (as :meth:`CSRMatrix.to_csc` builds
    them), so one ``searchsorted`` of the node's rows into the column
    finds each row's entry or its absence (default direction) — node
    splitting costs ``O(rows_on_split_nodes * log nnz)`` per layer, the
    same bound as the row-store variant, however many split nodes share
    a column.
    """
    placements: Dict[int, np.ndarray] = {}
    for node, split in splits.items():
        local_fid = split.feature - feature_offset
        if not 0 <= local_fid < shard.num_cols:
            continue
        node_rows = index.rows_of(node)
        go_left = np.full(node_rows.size, split.default_left, dtype=bool)
        col_rows, col_bins = shard.col(local_fid)
        if node_rows.size and col_rows.size:
            # same-dtype needles: a mixed-dtype search would copy the
            # whole column to the wider type first
            pos = np.searchsorted(col_rows,
                                  node_rows.astype(col_rows.dtype))
            pos = np.minimum(pos, col_rows.size - 1)
            present = col_rows[pos] == node_rows
            go_left[present] = col_bins[pos[present]] <= split.bin
        placements[node] = go_left
    return placements
