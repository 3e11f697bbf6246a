"""Numpy kernels against the interpreted loop oracle.

Every quadrant runs on :class:`~repro.core.kernels.NumpyKernels`; the
:class:`~repro.core.kernels.LoopKernels` oracle computes the same
scatters and traversals as plain per-entry loops.  These tests pin exact
equality between the two — scatter bins on random binned datasets
(dense, sparse and missing-heavy), trained models on all 8 execution
plans, and compiled scores — plus the HistogramPool dtype keying and
the grow-only scratch buffers the kernels run on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ClusterConfig, TrainConfig
from repro.core.gbdt import GBDT
from repro.core.histogram import (ColumnwiseIndex, Histogram,
                                  HistogramBuilder, HistogramPool)
from repro.core.kernels import LoopKernels, NumpyKernels, Scratch
from repro.core.serialize import ensemble_to_dict
from repro.data.dataset import Dataset, bin_dataset
from repro.data.synthetic import make_classification
from repro.serve.compiler import compile_ensemble
from repro.systems.plans import get_plan, plan_keys

from .test_hist_builder import make_binned

#: the kernel engines under bit-identity test (numpy is the reference)
KERNELS = [pytest.param(NumpyKernels, id="numpy"),
           pytest.param(LoopKernels, id="pyloop")]


class TestHistogramPoolDtypeKeying:
    def test_float32_never_aliases_float64(self):
        """Regression: a released float32 histogram must not satisfy a
        float64 acquire of the same shape (silent precision loss)."""
        pool = HistogramPool()
        low = pool.acquire(3, 4, 1, dtype=np.float32)
        assert low.grad.dtype == np.float32
        pool.release(low)
        high = pool.acquire(3, 4, 1)
        assert high is not low
        assert high.grad.dtype == np.float64
        # same dtype still recycles
        pool.release(high)
        assert pool.acquire(3, 4, 1) is high
        assert pool.acquire(3, 4, 1, dtype=np.float32) is low

    def test_histogram_dtype_propagates(self):
        hist = Histogram(2, 3, 1, dtype=np.float32)
        assert hist.grad.dtype == np.float32
        assert hist.hess.dtype == np.float32
        copy = hist.copy()
        assert copy.grad.dtype == np.float32


class TestScratch:
    def test_grows_and_reuses(self):
        scratch = Scratch()
        small = scratch.get("k", 10, np.int64)
        assert small.shape == (10,) and small.dtype == np.int64
        # capacity is at least 1024, so a larger request reuses it
        assert np.shares_memory(small, scratch.get("k", 1000, np.int64))
        grown = scratch.get("k", 5000, np.int64)
        assert grown.size == 5000
        assert not np.shares_memory(small, grown)

    def test_arange_fill_is_a_ramp(self):
        scratch = Scratch()
        assert np.array_equal(scratch.get("iota", 5, np.int64,
                                          make=np.arange), np.arange(5))
        big = scratch.get("iota", 3000, np.int64, make=np.arange)
        assert np.array_equal(big, np.arange(3000))


@pytest.mark.parametrize("kernels", KERNELS)
class TestScatterBitIdentity:
    """Exact scatter equality vs numpy on random binned shards."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           density=st.floats(0.05, 0.95),
           gradient_dim=st.sampled_from([1, 3]))
    def test_all_four_kernels_exact(self, kernels, seed, density,
                                    gradient_dim):
        rng = np.random.default_rng(seed)
        num_rows, num_features, num_bins = 50, 7, 6
        csr, _ = make_binned(rng, num_rows=num_rows,
                             num_features=num_features, num_bins=num_bins,
                             density=density)
        csc = csr.to_csc()
        grad = rng.standard_normal((num_rows, gradient_dim))
        hess = rng.random((num_rows, gradient_dim))
        node_of = rng.integers(0, 2, size=num_rows).astype(np.int64)
        node_rows = np.flatnonzero(node_of == 1).astype(np.int64)
        ref = HistogramBuilder()
        got = HistogramBuilder(kernels=kernels())

        pairs = []
        pairs.append((ref.build_rowstore(csr, node_rows, grad, hess,
                                         num_bins)[0],
                      got.build_rowstore(csr, node_rows, grad, hess,
                                         num_bins)[0]))
        pairs.append((ref.build_colstore_hybrid(csc, node_rows, node_of, 1,
                                                grad, hess, num_bins)[0],
                      got.build_colstore_hybrid(csc, node_rows, node_of, 1,
                                                grad, hess, num_bins)[0]))
        ref_layer, _ = ref.build_colstore_layer(csc, node_of, 2, grad,
                                                hess, num_bins)
        got_layer, _ = got.build_colstore_layer(csc, node_of, 2, grad,
                                                hess, num_bins)
        pairs.extend(zip(ref_layer, got_layer))
        ref_index = ColumnwiseIndex(csc)
        ref_index.update_after_split(node_of, [0, 1])
        pairs.append((ref.build_colstore_columnwise(ref_index, 1, grad,
                                                    hess, num_bins)[0],
                      got.build_colstore_columnwise(ref_index, 1, grad,
                                                    hess, num_bins)[0]))
        for expect, actual in pairs:
            assert np.array_equal(expect.grad, actual.grad)
            assert np.array_equal(expect.hess, actual.hess)

    def test_scatter_overwrites_unzeroed_buffers(self, kernels):
        """Pooled buffers come back un-zeroed: the scatter must assign
        every bin, not add into whatever the last node left there."""
        rng = np.random.default_rng(5)
        csr, _ = make_binned(rng, num_rows=30, num_features=4, num_bins=5,
                             density=0.3)
        grad = rng.standard_normal((30, 2))
        hess = rng.random((30, 2))
        rows = np.arange(0, 30, 2, dtype=np.int64)
        builder = HistogramBuilder(kernels=kernels())
        clean, _ = builder.build_rowstore(csr, rows, grad, hess, 5)
        expect_grad, expect_hess = clean.grad.copy(), clean.hess.copy()
        clean.grad.fill(np.nan)
        clean.hess.fill(7.0)
        builder.release(clean)
        dirty, _ = builder.build_rowstore(csr, rows, grad, hess, 5)
        assert dirty is clean
        assert np.array_equal(dirty.grad, expect_grad)
        assert np.array_equal(dirty.hess, expect_hess)

    def test_training_bit_identical(self, kernels):
        """End-to-end: identical trees for logistic and square loss."""
        clf = make_classification(250, 15, density=0.4, seed=21)
        reg = Dataset(clf.features,
                      np.asarray(clf.labels, dtype=np.float64) - 0.5,
                      task="regression", name="kernels-reg")
        for dataset, objective in ((clf, "binary"), (reg, "regression")):
            binned = bin_dataset(dataset, 10)
            cfg = TrainConfig(num_trees=3, num_layers=4, num_candidates=10,
                              objective=objective)
            ref = GBDT(cfg).fit(dataset, binned=binned)
            got = GBDT(cfg, builder=HistogramBuilder(kernels=kernels())
                       ).fit(dataset, binned=binned)
            assert np.array_equal(ref.ensemble.raw_scores(dataset.csc()),
                                  got.ensemble.raw_scores(dataset.csc()))

    def test_compiled_scores_exact(self, kernels):
        """The float compiled predictor and the naive tree walk agree."""
        dataset = make_classification(200, 12, density=0.5, seed=4)
        cfg = TrainConfig(num_trees=3, num_layers=4, num_candidates=8)
        ensemble = GBDT(cfg).fit(dataset).ensemble
        compiled = compile_ensemble(ensemble)
        compiled.kernels = kernels()
        batch = dataset.csc()
        assert np.array_equal(compiled.raw_scores(batch),
                              ensemble.raw_scores(batch))


@pytest.mark.parametrize("plan_key", plan_keys())
def test_plan_trains_same_model_on_oracle(plan_key):
    """Every registry plan trains one model on both kernel engines."""
    binned = bin_dataset(make_classification(200, 12, density=0.4, seed=7),
                         8)
    cfg = TrainConfig(num_trees=2, num_layers=4, num_candidates=8)
    cluster = ClusterConfig(num_workers=3)
    models = []
    for kernels in (NumpyKernels(), LoopKernels()):
        system = get_plan(plan_key).build(cfg, cluster)
        system.hist_builder = HistogramBuilder(kernels=kernels)
        models.append(ensemble_to_dict(system.fit(binned).ensemble))
    assert models[0] == models[1]


class TestBuilderWiring:
    def test_builder_defaults_to_numpy(self):
        assert type(HistogramBuilder().kernels) is NumpyKernels
        oracle = LoopKernels()
        assert HistogramBuilder(kernels=oracle).kernels is oracle
