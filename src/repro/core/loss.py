"""Loss functions: predictions, first- and second-order gradients.

GBDT (Section 2.1.1) minimizes a second-order Taylor approximation of the
objective, so each loss exposes the per-instance gradient ``g`` and diagonal
Hessian ``h`` evaluated at the current raw scores.  For multi-class problems
the gradient is a ``C``-dimensional vector per instance (Section 3.1.1),
which is what makes multi-class histograms ``C`` times larger.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

_CLIP = 500.0  # avoid overflow in exp


def sigmoid(scores: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    return 1.0 / (1.0 + np.exp(-np.clip(scores, -_CLIP, _CLIP)))


def softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax of an ``(N, C)`` score matrix."""
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class Loss:
    """Interface shared by all objectives.

    ``scores`` are raw additive tree outputs with shape ``(N, C)`` where
    ``C = 1`` for binary and regression objectives.
    """

    #: gradient dimension per instance
    num_outputs: int = 1

    def init_scores(self, num_instances: int) -> np.ndarray:
        """Initial raw scores before any tree is trained (all zeros)."""
        return np.zeros((num_instances, self.num_outputs), dtype=np.float64)

    def gradients(
        self, labels: np.ndarray, scores: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-instance ``(grad, hess)``, both shaped ``(N, C)``."""
        raise NotImplementedError

    def loss(self, labels: np.ndarray, scores: np.ndarray) -> float:
        """Mean loss over the dataset."""
        raise NotImplementedError

    def predict(self, scores: np.ndarray) -> np.ndarray:
        """Transform raw scores into the natural prediction space."""
        raise NotImplementedError


class LogisticLoss(Loss):
    """Binary cross-entropy on labels in ``{0, 1}``."""

    num_outputs = 1

    def gradients(
        self, labels: np.ndarray, scores: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        labels = np.asarray(labels, dtype=np.float64).reshape(-1, 1)
        prob = sigmoid(scores)
        grad = prob - labels
        hess = np.maximum(prob * (1.0 - prob), 1e-16)
        return grad, hess

    def loss(self, labels: np.ndarray, scores: np.ndarray) -> float:
        labels = np.asarray(labels, dtype=np.float64).reshape(-1, 1)
        prob = np.clip(sigmoid(scores), 1e-15, 1.0 - 1e-15)
        return float(
            -np.mean(labels * np.log(prob) + (1 - labels) * np.log(1 - prob))
        )

    def predict(self, scores: np.ndarray) -> np.ndarray:
        return sigmoid(scores).ravel()


class SoftmaxLoss(Loss):
    """Multi-class cross-entropy on integer labels ``0..C-1``."""

    def __init__(self, num_classes: int) -> None:
        if num_classes < 3:
            raise ValueError(
                f"SoftmaxLoss requires num_classes >= 3, got {num_classes}"
            )
        self.num_classes = num_classes
        self.num_outputs = num_classes

    def gradients(
        self, labels: np.ndarray, scores: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        labels = np.asarray(labels, dtype=np.int64)
        prob = softmax(scores)
        grad = prob.copy()
        grad[np.arange(labels.size), labels] -= 1.0
        hess = np.maximum(prob * (1.0 - prob), 1e-16)
        return grad, hess

    def loss(self, labels: np.ndarray, scores: np.ndarray) -> float:
        labels = np.asarray(labels, dtype=np.int64)
        prob = np.clip(softmax(scores), 1e-15, 1.0)
        return float(-np.mean(np.log(prob[np.arange(labels.size), labels])))

    def predict(self, scores: np.ndarray) -> np.ndarray:
        return softmax(scores)


class SquareLoss(Loss):
    """Mean squared error for regression."""

    num_outputs = 1

    def gradients(
        self, labels: np.ndarray, scores: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        labels = np.asarray(labels, dtype=np.float64).reshape(-1, 1)
        grad = scores - labels
        hess = np.ones_like(scores)
        return grad, hess

    def loss(self, labels: np.ndarray, scores: np.ndarray) -> float:
        labels = np.asarray(labels, dtype=np.float64).reshape(-1, 1)
        return float(np.mean((scores - labels) ** 2))

    def predict(self, scores: np.ndarray) -> np.ndarray:
        return scores.ravel()


def make_loss(objective: str, num_classes: int = 2) -> Loss:
    """Factory keyed by :attr:`repro.config.TrainConfig.objective`."""
    if objective == "binary":
        return LogisticLoss()
    if objective == "multiclass":
        return SoftmaxLoss(num_classes)
    if objective == "regression":
        return SquareLoss()
    raise ValueError(f"unknown objective: {objective!r}")
