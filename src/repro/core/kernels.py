"""The histogram-scatter and predict hot loops, plus their loop oracle.

The paper's quadrant analysis assumes histogram construction and batch
prediction run at hardware speed; interpreter-side scatter loops would
bottleneck every distributed-plan comparison on the wrong thing.  Every
quadrant therefore runs on one kernel engine, :class:`NumpyKernels`:

* the **histogram scatter** behind every
  :class:`~repro.core.histogram.HistogramBuilder` construction kernel
  (scatter-add gradients/hessians of binned entries into per-node bins),
  fused into one ``bincount`` over stacked weights for small nodes;
* the **level-synchronous predictor** behind
  :class:`~repro.serve.compiler.CompiledEnsemble` (advance every row of
  a batch one tree layer per step) and its uint8 bin-quantized variant.

:class:`LoopKernels` runs the same scatter and traversal as plain
per-entry Python loops.  It is far too slow to train with and exists as
the reference the tests compare the numpy kernels against: the builder
and both predictors take a kernels instance (``None`` means numpy), and
every model, histogram and score must come out bit-identical.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

#: packed predictor slot metadata (shared with :mod:`repro.serve.compiler`):
#: | left slot (43 bits) | missing-goes-right (1) | feature id (20) |
FEATURE_BITS = 20
FEATURE_MASK = (1 << FEATURE_BITS) - 1
MISS_BIT = 1 << FEATURE_BITS
CHILD_SHIFT = FEATURE_BITS + 1

#: reserved uint8 bin value marking a missing entry in quantized batches
MISSING_BIN = 255

#: below this many entries the per-call overhead of ``bincount``
#: dominates its streaming cost, so fusing grad+hess into one call over
#: stacked weights wins; above it the fusion is a wash and the
#: doubled-key construction becomes a pure extra memory pass
FUSE_THRESHOLD = 1 << 16


class Scratch:
    """Named grow-only scratch arrays.

    ``get`` hands back a ``size``-long view of an array that only ever
    grows (at least doubling), so repeated same-scale calls allocate
    nothing.  Contents are undefined on entry unless ``make`` fills them
    (``np.arange`` keeps a cached ramp).
    """

    def __init__(self) -> None:
        self._arrays: Dict[str, np.ndarray] = {}

    def get(self, key: str, size: int, dtype, make=np.empty) -> np.ndarray:
        arr = self._arrays.get(key)
        if arr is None or arr.size < size:
            capacity = max(size, 1024)
            if arr is not None:
                capacity = max(capacity, 2 * arr.size)
            arr = make(capacity, dtype=dtype)
            self._arrays[key] = arr
        return arr[:size]


class NumpyKernels:
    """Fused ``bincount`` scatters and vectorized level-synchronous
    traversal.

    Instances own grow-only scratch buffers and must not be shared
    across threads; each builder and predictor makes its own.
    """

    def __init__(self) -> None:
        self._scratch = Scratch()

    # -- histogram scatter -------------------------------------------------

    def scatter(self, hist, keys: np.ndarray, entry_rows: np.ndarray,
                grad: np.ndarray, hess: np.ndarray, size: int) -> None:
        """Scatter-add gradients/hessians of ``entry_rows`` at ``keys``.

        Fills **every** bin of ``hist`` (callers may acquire the buffer
        un-zeroed).
        """
        n = keys.size
        if n <= FUSE_THRESHOLD:
            kk = self._scratch.get("fused_keys", 2 * n, np.int64)
            kk[:n] = keys
            np.add(keys, size, out=kk[n:])
            w = self._scratch.get("fused_weights", 2 * n, np.float64)
            for c in range(grad.shape[1]):
                np.take(grad[:, c], entry_rows, out=w[:n])
                np.take(hess[:, c], entry_rows, out=w[n:])
                flat = np.bincount(kk, weights=w, minlength=2 * size)
                hist.grad[:, c] = flat[:size]
                hist.hess[:, c] = flat[size:]
            return
        w = self._scratch.get("fused_weights", n, np.float64)
        for c in range(grad.shape[1]):
            np.take(grad[:, c], entry_rows, out=w)
            hist.grad[:, c] = np.bincount(keys, weights=w, minlength=size)
            np.take(hess[:, c], entry_rows, out=w)
            hist.hess[:, c] = np.bincount(keys, weights=w, minlength=size)

    def scatter_slotted(self, hists, keys: np.ndarray,
                        entry_rows: np.ndarray, grad: np.ndarray,
                        hess: np.ndarray, size: int,
                        num_slots: int) -> None:
        """Fused scatter across a whole layer of slot-prefixed keys."""
        n = keys.size
        total_size = num_slots * size
        kk = self._scratch.get("fused_keys", 2 * n, np.int64)
        kk[:n] = keys
        np.add(keys, total_size, out=kk[n:])
        w = self._scratch.get("fused_weights", 2 * n, np.float64)
        for c in range(grad.shape[1]):
            np.take(grad[:, c], entry_rows, out=w[:n])
            np.take(hess[:, c], entry_rows, out=w[n:])
            flat = np.bincount(kk, weights=w, minlength=2 * total_size)
            for s, hist in enumerate(hists):
                hist.grad[:, c] = flat[s * size:(s + 1) * size]
                hist.hess[:, c] = flat[total_size + s * size:
                                       total_size + (s + 1) * size]

    # -- predictor ---------------------------------------------------------

    def advance(self, packed: np.ndarray, threshold: np.ndarray,
                flat: np.ndarray, num: int, root: int, depth: int,
                has_nan: bool) -> np.ndarray:
        """Slot of every row after walking one whole tree
        (level-synchronous: three gathers per layer)."""
        rows = np.arange(num, dtype=np.int64)
        pos = np.full(num, root, dtype=np.int64)
        for _ in range(depth):
            meta = np.take(packed, pos)
            values = np.take(flat, (meta & FEATURE_MASK) * num + rows)
            go_right = values > np.take(threshold, pos)
            if has_nan:
                go_right |= np.isnan(values) & ((meta & MISS_BIT) != 0)
            pos = meta >> CHILD_SHIFT
            pos += go_right
        return pos

    def raw_scores(self, packed: np.ndarray, threshold: np.ndarray,
                   scaled: np.ndarray, tree_root: np.ndarray,
                   tree_depth: np.ndarray, flat: np.ndarray, num: int,
                   has_nan: bool, use: int) -> np.ndarray:
        """Summed shrunken scores of every row over trees ``0..use``."""
        scores = np.zeros((num, scaled.shape[1]), dtype=np.float64)
        for t in range(use):
            pos = self.advance(packed, threshold, flat, num,
                               int(tree_root[t]), int(tree_depth[t]),
                               has_nan)
            scores += np.take(scaled, pos, axis=0)
        return scores

    def advance_quantized(self, packed: np.ndarray,
                          threshold_bin: np.ndarray,
                          flat_bins: np.ndarray, num: int, root: int,
                          depth: int, has_missing: bool) -> np.ndarray:
        """Quantized traversal of one tree over uint8 bin values."""
        rows = np.arange(num, dtype=np.int64)
        pos = np.full(num, root, dtype=np.int64)
        for _ in range(depth):
            meta = np.take(packed, pos)
            values = np.take(flat_bins, (meta & FEATURE_MASK) * num + rows)
            thr = np.take(threshold_bin, pos)
            go_right = values > thr
            if has_missing:
                missing = values == MISSING_BIN
                go_right &= ~missing
                go_right |= (missing & ((meta & MISS_BIT) != 0)
                             & (thr != MISSING_BIN))
            pos = meta >> CHILD_SHIFT
            pos += go_right
        return pos

    def raw_scores_quantized(self, packed: np.ndarray,
                             threshold_bin: np.ndarray,
                             scaled: np.ndarray, tree_root: np.ndarray,
                             tree_depth: np.ndarray,
                             flat_bins: np.ndarray, num: int,
                             has_missing: bool, use: int) -> np.ndarray:
        scores = np.zeros((num, scaled.shape[1]), dtype=np.float64)
        for t in range(use):
            pos = self.advance_quantized(packed, threshold_bin, flat_bins,
                                         num, int(tree_root[t]),
                                         int(tree_depth[t]), has_missing)
            scores += np.take(scaled, pos, axis=0)
        return scores


# ---------------------------------------------------------------------------
# The loop oracle
# ---------------------------------------------------------------------------
# Plain per-entry loops: per bin, additions land in entry order and, per
# row, scores accumulate in tree order — the same float additions, in
# the same order, as the numpy paths above.

def _k_scatter(grad_out, hess_out, keys, entry_rows, grad, hess):
    """Scatter-add grad/hess of each entry at its key (both passes)."""
    for c in range(grad.shape[1]):
        for i in range(keys.shape[0]):
            grad_out[keys[i], c] += grad[entry_rows[i], c]
        for i in range(keys.shape[0]):
            hess_out[keys[i], c] += hess[entry_rows[i], c]


def _k_predict(packed, threshold, scaled, tree_root, tree_depth, flat,
               num, has_nan, use, out):
    """Walk every row through trees ``0..use``, accumulating scores.

    ``flat`` is the feature-major batch flattened: row ``i``'s value of
    feature ``f`` lives at ``f * num + i``.
    """
    dim = out.shape[1]
    for t in range(use):
        root = tree_root[t]
        depth = tree_depth[t]
        for i in range(num):
            pos = root
            for _ in range(depth):
                meta = packed[pos]
                value = flat[(meta & FEATURE_MASK) * num + i]
                go_right = value > threshold[pos]
                if has_nan and value != value and (meta & MISS_BIT) != 0:
                    go_right = True
                pos = meta >> CHILD_SHIFT
                if go_right:
                    pos += 1
            for c in range(dim):
                out[i, c] += scaled[pos, c]


def _k_predict_quantized(packed, threshold_bin, scaled, tree_root,
                         tree_depth, flat_bins, num, has_missing, use,
                         out):
    """Quantized traversal: uint8 bin values against int16 bin cuts.

    Bin 255 marks a missing value and follows the packed default
    direction; leaf slots carry threshold 255 so every bin value parks
    (``value > 255`` is false even for the missing sentinel).
    """
    dim = out.shape[1]
    for t in range(use):
        root = tree_root[t]
        depth = tree_depth[t]
        for i in range(num):
            pos = root
            for _ in range(depth):
                meta = packed[pos]
                value = flat_bins[(meta & FEATURE_MASK) * num + i]
                if has_missing and value == MISSING_BIN:
                    go_right = (meta & MISS_BIT) != 0 \
                        and threshold_bin[pos] != MISSING_BIN
                else:
                    go_right = value > threshold_bin[pos]
                pos = meta >> CHILD_SHIFT
                if go_right:
                    pos += 1
            for c in range(dim):
                out[i, c] += scaled[pos, c]


class LoopKernels(NumpyKernels):
    """The scatter and whole-ensemble traversal as interpreted loops —
    the reference the numpy kernels are tested against, never a
    training engine.  ``advance`` (one tree, used by the sharded fold)
    stays the inherited numpy path."""

    def scatter(self, hist, keys, entry_rows, grad, hess, size):
        # the loops add in place, so zero first: every bin of an
        # un-zeroed pooled buffer must still be written
        hist.grad[:] = 0.0
        hist.hess[:] = 0.0
        _k_scatter(hist.grad, hist.hess, keys, entry_rows, grad, hess)

    def scatter_slotted(self, hists, keys, entry_rows, grad, hess, size,
                        num_slots):
        # slot-prefixed keys address one logical (num_slots*size, C)
        # histogram; scatter into a contiguous scratch pair, then slice
        total = num_slots * size
        dim = grad.shape[1]
        grad_out = self._scratch.get("slot_grad", total * dim,
                                     np.float64).reshape(total, dim)
        hess_out = self._scratch.get("slot_hess", total * dim,
                                     np.float64).reshape(total, dim)
        grad_out[:] = 0.0
        hess_out[:] = 0.0
        _k_scatter(grad_out, hess_out, keys, entry_rows, grad, hess)
        for s, hist in enumerate(hists):
            hist.grad[:] = grad_out[s * size:(s + 1) * size]
            hist.hess[:] = hess_out[s * size:(s + 1) * size]

    def raw_scores(self, packed, threshold, scaled, tree_root, tree_depth,
                   flat, num, has_nan, use):
        out = np.zeros((num, scaled.shape[1]), dtype=np.float64)
        _k_predict(packed, threshold, scaled, tree_root, tree_depth, flat,
                   num, has_nan, use, out)
        return out

    def raw_scores_quantized(self, packed, threshold_bin, scaled,
                             tree_root, tree_depth, flat_bins, num,
                             has_missing, use):
        out = np.zeros((num, scaled.shape[1]), dtype=np.float64)
        _k_predict_quantized(packed, threshold_bin, scaled, tree_root,
                             tree_depth, flat_bins, num, has_missing, use,
                             out)
        return out
