"""Ranking losses and the L2 row regularizer, with analytic gradients."""

from __future__ import annotations

import numpy as np

from .optim import _chunk_rows


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


def l2_regularizer_into(rows: np.ndarray, weight: float, grad: np.ndarray) -> float:
    """Add the gradient of the L2 term `weight * sum ||row||^2`, which is
    `2 * weight * row`, into `grad`, a `_chunk_rows` chunk at a time, and
    return the term's value.

    `rows` must be a 2-D array the caller owns and no longer needs (a gather):
    it is overwritten with its squares, so no array of its size is allocated.
    """
    if weight < 0:
        raise ValueError("regularizer weight must be >= 0")
    step = _chunk_rows(rows.shape[1])
    for lo in range(0, len(rows), step):
        grad[lo : lo + step] += 2.0 * weight * rows[lo : lo + step]
    return float(weight * np.multiply(rows, rows, out=rows).sum())
