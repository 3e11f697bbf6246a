"""Differential tests: the single-pass split finder against the two-pass
search it replaced.

``reference_find_best_split`` below is the earlier implementation of
:func:`repro.core.split.find_best_split`, kept as a test oracle: one
prefix sum per statistic, then a Python loop over the two default
directions, each building its own left/right child sums.  The production
finder stacks both directions in one buffer and drops the gradient axis
when it has length one; it must return an equal :class:`SplitInfo` with
the same gain bytes on every input — the determinism contract (ties to
default-right, then lower feature, then lower bin) included.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.histogram import Histogram
from repro.core.split import SplitInfo, find_best_split


# ---------------------------------------------------------------------------
# Reference implementation
# ---------------------------------------------------------------------------

def _score(grad, hess, reg_lambda):
    """``G^2 / (H + lambda)`` summed over gradient dimensions."""
    return (grad * grad / (hess + reg_lambda)).sum(axis=-1)


def reference_find_best_split(
    hist: Histogram,
    grad_total: np.ndarray,
    hess_total: np.ndarray,
    reg_lambda: float,
    reg_gamma: float,
    bins_per_feature: np.ndarray,
    feature_offset: int = 0,
) -> Optional[SplitInfo]:
    """The two-pass search: both default directions, one at a time."""
    grad_total = np.asarray(grad_total, dtype=np.float64)
    hess_total = np.asarray(hess_total, dtype=np.float64)
    bins_per_feature = np.asarray(bins_per_feature)
    grad = hist.grad_view()
    hess = hist.hess_view()
    grad_prefix = np.cumsum(grad, axis=1)
    hess_prefix = np.cumsum(hess, axis=1)
    missing_grad = grad_total - grad_prefix[:, -1:, :]
    missing_hess = hess_total - hess_prefix[:, -1:, :]
    parent_score = _score(grad_total, hess_total, reg_lambda)
    options = (
        (grad_prefix, hess_prefix),
        (grad_prefix + missing_grad, hess_prefix + missing_hess),
    )
    gains = np.empty((2, hist.num_features, hist.num_bins))
    for option, (gl, hl) in enumerate(options):
        gr = grad_total - gl
        hr = hess_total - hl
        gains[option] = 0.5 * (
            _score(gl, hl, reg_lambda) + _score(gr, hr, reg_lambda)
            - parent_score
        ) - reg_gamma
        gains[option][(hl.sum(axis=-1) <= 0.0)
                      | (hr.sum(axis=-1) <= 0.0)] = -np.inf
    bin_ids = np.arange(hist.num_bins)
    gains[:, bin_ids[None, :] >= (bins_per_feature[:, None] - 1)] = -np.inf
    flat = int(np.argmax(gains))
    best_gain = float(gains.reshape(-1)[flat])
    if not np.isfinite(best_gain) or best_gain <= 0.0:
        return None
    option, rest = divmod(flat, hist.num_features * hist.num_bins)
    feature, bin_id = divmod(rest, hist.num_bins)
    return SplitInfo(feature=feature + feature_offset, bin=bin_id,
                     default_left=bool(option == 1), gain=best_gain)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def node_histogram(rng, num_rows, num_features, num_bins, gradient_dim,
                   missing_rate, zero_hess_rate, exact):
    """A node's histogram built from per-row statistics, like training.

    Each row has one bin per feature or is missing (excluded from that
    feature's columns), so the missing bucket is ``total - column sum``
    with the float noise of real summation order.  ``exact`` draws
    statistics on a dyadic grid, so sums are exact and features without
    missing rows carry a missing mass of exactly zero.
    """
    shape = (num_rows, gradient_dim)
    if exact:
        grad = rng.integers(-8, 9, size=shape) / 4.0
        hess = rng.integers(0, 5, size=shape) / 4.0
    else:
        grad = rng.standard_normal(shape)
        hess = rng.random(shape)
    hess[rng.random(num_rows) < zero_hess_rate] = 0.0
    hist = Histogram(num_features, num_bins, gradient_dim)
    gv, hv = hist.grad_view(), hist.hess_view()
    for f in range(num_features):
        bins = rng.integers(0, num_bins, size=num_rows)
        present = rng.random(num_rows) >= missing_rate
        np.add.at(gv[f], bins[present], grad[present])
        np.add.at(hv[f], bins[present], hess[present])
    return hist, grad.sum(axis=0), hess.sum(axis=0)


def assert_same(hist, grad_total, hess_total, lam, gamma, bins,
                feature_offset=0):
    # degenerate nodes (zero hessian, lambda 0) divide by zero in both
    with np.errstate(divide="ignore", invalid="ignore"):
        got = find_best_split(hist, grad_total, hess_total, lam, gamma,
                              bins, feature_offset)
        want = reference_find_best_split(hist, grad_total, hess_total,
                                         lam, gamma, bins, feature_offset)
    assert got == want
    if want is not None:
        assert (np.float64(got.gain).tobytes()
                == np.float64(want.gain).tobytes())
    return got


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    gradient_dim=st.sampled_from([1, 2, 3]),
    reg_lambda=st.sampled_from([0.0, 1.0]),
    reg_gamma=st.sampled_from([0.0, 0.05, 1.0]),
    num_rows=st.integers(0, 60),
    num_features=st.integers(1, 6),
    num_bins=st.integers(1, 8),
    missing_rate=st.sampled_from([0.0, 0.3, 1.0]),
    zero_hess_rate=st.sampled_from([0.0, 0.5]),
    exact=st.booleans(),
    feature_offset=st.sampled_from([0, 7, 1000]),
)
def test_matches_reference(seed, gradient_dim, reg_lambda, reg_gamma,
                           num_rows, num_features, num_bins, missing_rate,
                           zero_hess_rate, exact, feature_offset):
    rng = np.random.default_rng(seed)
    hist, grad_total, hess_total = node_histogram(
        rng, num_rows, num_features, num_bins, gradient_dim,
        missing_rate, zero_hess_rate, exact)
    # some features have <= 1 valid bin, so no split of theirs is legal
    bins = rng.integers(0, num_bins + 1, size=num_features)
    assert_same(hist, grad_total, hess_total, reg_lambda, reg_gamma, bins,
                feature_offset)


@pytest.mark.parametrize("gradient_dim", [1, 2, 3])
@pytest.mark.parametrize("missing_rate", [0.0, 0.25])
def test_exact_missing_mass(gradient_dim, missing_rate):
    """Dyadic statistics: with no missing rows both default directions
    are bit-equal and the tie resolves to default-right."""
    rng = np.random.default_rng(gradient_dim)
    hist, grad_total, hess_total = node_histogram(
        rng, 200, 5, 6, gradient_dim, missing_rate, 0.0, exact=True)
    missing = grad_total - hist.grad_view().sum(axis=1)
    assert (np.all(missing == 0.0)) == (missing_rate == 0.0)
    split = assert_same(hist, grad_total, hess_total, 1.0, 0.0,
                        np.full(5, 6))
    assert split is not None
    if missing_rate == 0.0:
        assert not split.default_left


def test_zero_hessian_bins_and_tiny_features():
    rng = np.random.default_rng(5)
    hist, grad_total, hess_total = node_histogram(
        rng, 80, 4, 5, 1, 0.2, 0.5, exact=False)
    hist.hess_view()[:, ::2] = 0.0
    hess_total = hess_total + 1.0
    for lam in (0.0, 1.0):
        assert_same(hist, grad_total, hess_total, lam, 0.0,
                    np.array([0, 1, 2, 5]))


def test_no_valid_bin_anywhere():
    rng = np.random.default_rng(6)
    hist, grad_total, hess_total = node_histogram(
        rng, 50, 3, 4, 2, 0.1, 0.0, exact=False)
    assert assert_same(hist, grad_total, hess_total, 1.0, 0.0,
                       np.array([1, 0, 1])) is None
