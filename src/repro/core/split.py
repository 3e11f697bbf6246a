"""Split finding on gradient histograms (Equations 1 and 2).

Given a node's histograms and its total gradient/hessian, the best split is
the (feature, bin, default-direction) triple maximizing the gain of
Equation 2.  Instances whose feature value is missing (absent in the sparse
shard) follow a *default direction* chosen per split — both directions are
enumerated, following the treatment of [17] the paper adopts.

Determinism contract: all quadrants must pick identical splits, so ties are
broken by a total order — higher gain, then default-right before
default-left, then lower global feature id, then lower bin.  Worker-local
argmax and the master's cross-worker comparison both honour this order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .histogram import Histogram


@dataclass(frozen=True)
class SplitInfo:
    """The best split of one node.

    ``feature`` is a *global* feature id; ``bin`` means "values in bins
    ``<= bin`` go to the left child"; ``default_left`` tells where instances
    with a missing value go.
    """

    feature: int
    bin: int
    default_left: bool
    gain: float

    def sort_key(self) -> Tuple[float, int, int, int]:
        """Key implementing the determinism contract (smaller is better)."""
        return (-self.gain, int(self.default_left), self.feature, self.bin)

    def better_than(self, other: Optional["SplitInfo"]) -> bool:
        if other is None:
            return True
        return self.sort_key() < other.sort_key()


def leaf_weight(grad_total: np.ndarray, hess_total: np.ndarray,
                reg_lambda: float) -> np.ndarray:
    """Optimal leaf weight vector ``-G / (H + lambda)`` (Equation 1)."""
    return -np.asarray(grad_total) / (np.asarray(hess_total) + reg_lambda)


def _score(grad: np.ndarray, hess: np.ndarray,
           reg_lambda: float) -> np.ndarray:
    """``G^2 / (H + lambda)`` summed over gradient dimensions."""
    return (grad * grad / (hess + reg_lambda)).sum(axis=-1)


def find_best_split(
    hist: Histogram,
    grad_total: np.ndarray,
    hess_total: np.ndarray,
    reg_lambda: float,
    reg_gamma: float,
    bins_per_feature: np.ndarray,
    feature_offset: int = 0,
) -> Optional[SplitInfo]:
    """Best split over every feature summarized in ``hist``.

    ``grad_total`` / ``hess_total`` are the node's full gradient sums (shape
    ``(C,)``), which may exceed the histogram's column sums when values are
    missing — the surplus is the "missing bucket" routed by the default
    direction.  ``bins_per_feature`` gives the number of *valid* bins of each
    feature (features may have fewer than ``q`` distinct quantiles);
    ``feature_offset`` converts local column ids into global feature ids for
    vertically partitioned shards.

    Returns ``None`` when no split has positive gain.
    """
    grad_total = np.asarray(grad_total, dtype=np.float64)
    hess_total = np.asarray(hess_total, dtype=np.float64)
    bins_per_feature = np.asarray(bins_per_feature)
    if bins_per_feature.size != hist.num_features:
        raise ValueError(
            "bins_per_feature length must equal the histogram feature count"
        )

    grad = hist.grad_view()          # (D, q, C)
    hess = hist.hess_view()
    parent_score = _score(grad_total, hess_total, reg_lambda)
    scalar = hist.gradient_dim == 1
    if scalar:
        # a sum over a length-1 axis returns its element (bar the sign
        # of a zero score, which only a masked negative-hessian child
        # yields), so scalar gradients drop the axis and its reductions
        grad, hess = grad[..., 0], hess[..., 0]
        grad_total, hess_total = grad_total[0], hess_total[0]

    def sum_c(x: np.ndarray) -> np.ndarray:
        return x if scalar else x.sum(axis=-1)

    # Left-child sums of both default directions in one (2, D, q[, C])
    # buffer.  Option 0 — missing goes right: left = prefix.  Option 1 —
    # missing goes left: left = prefix + missing bucket.
    gl = np.empty((2,) + grad.shape)
    hl = np.empty((2,) + hess.shape)
    np.cumsum(grad, axis=1, out=gl[0])
    np.cumsum(hess, axis=1, out=hl[0])
    np.add(gl[0], grad_total - gl[0, :, -1:], out=gl[1])
    np.add(hl[0], hess_total - hl[0, :, -1:], out=hl[1])
    gr = grad_total - gl
    hr = hess_total - hl

    # Children must both receive some hessian mass; empty children give
    # a spurious "gain" equal to -gamma and are never useful.  A split at
    # bin b also needs b <= bins(f) - 2.
    bin_ids = np.arange(hist.num_bins)
    masked = (sum_c(hl) <= 0.0) | (sum_c(hr) <= 0.0)
    masked |= bin_ids[None, :] >= (bins_per_feature[:, None] - 1)

    # G^2 / (H + lambda) of each child, in place over the sum buffers
    for g, h in ((gl, hl), (gr, hr)):
        g *= g
        h += reg_lambda
        g /= h
    gains = sum_c(gl) + sum_c(gr)
    gains -= parent_score
    gains *= 0.5
    gains -= reg_gamma
    gains[masked] = -np.inf

    flat = int(np.argmax(gains))
    best_gain = float(gains.reshape(-1)[flat])
    if not np.isfinite(best_gain) or best_gain <= 0.0:
        return None
    option, rest = divmod(flat, hist.num_features * hist.num_bins)
    feature, bin_id = divmod(rest, hist.num_bins)
    return SplitInfo(
        feature=feature + feature_offset,
        bin=bin_id,
        default_left=bool(option == 1),
        gain=best_gain,
    )


def split_gain_of(
    hist: Histogram,
    grad_total: np.ndarray,
    hess_total: np.ndarray,
    reg_lambda: float,
    reg_gamma: float,
    feature: int,
    bin_id: int,
    default_left: bool,
) -> float:
    """Gain of one specific split — used by tests against the brute force."""
    grad = hist.grad_view()[feature]
    hess = hist.hess_view()[feature]
    gl = grad[: bin_id + 1].sum(axis=0)
    hl = hess[: bin_id + 1].sum(axis=0)
    if default_left:
        gl = gl + (np.asarray(grad_total) - grad.sum(axis=0))
        hl = hl + (np.asarray(hess_total) - hess.sum(axis=0))
    gr = np.asarray(grad_total) - gl
    hr = np.asarray(hess_total) - hl
    parent = _score(np.asarray(grad_total), np.asarray(hess_total),
                    reg_lambda)
    return float(
        0.5 * (_score(gl, hl, reg_lambda) + _score(gr, hr, reg_lambda)
               - parent) - reg_gamma
    )
