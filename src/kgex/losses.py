"""Ranking losses and the L2 row regularizer, with analytic gradients."""

from __future__ import annotations

import numpy as np


def softmax_nll_batch(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Multiclass NLL of the positive against its negatives, stabilized.

    `scores` has shape (n, 1 + eta) with the positive score in column 0.
    Returns (loss, grad) where loss[i] = logsumexp(scores[i]) - scores[i, 0]
    and grad = softmax(scores) - onehot(column 0).
    """
    m = scores.max(axis=-1, keepdims=True)
    shifted = scores - m
    with np.errstate(under="ignore"):  # gradual underflow to 0 is intended
        exp = np.exp(shifted)
    total = exp.sum(axis=-1, keepdims=True)
    loss = np.log(total)[..., 0] + m[..., 0] - scores[..., 0]
    grad = exp / total
    grad[..., 0] -= 1.0
    return loss, grad


def l2_regularizer(rows: np.ndarray, weight: float) -> tuple[float, np.ndarray]:
    """weight * sum ||row||^2 over the given rows; gradient is 2 * weight * row."""
    if weight < 0:
        raise ValueError("regularizer weight must be >= 0")
    rows = np.atleast_2d(rows)
    return float(weight * (rows * rows).sum()), 2.0 * weight * rows
