"""Numeric-weight modulation of triple scores (FocusE add-on layer).

Raw scores are made nonnegative with a softplus, then scaled by a modulating
factor that blends graph structure against per-triple numeric weights through
the structural-influence parameter beta.  Positives and their corruptions get
complementary factors driven by the positive triple's weight.
"""

from __future__ import annotations

import numpy as np

from .losses import softmax_nll_batch


def softplus_score(f: float | np.ndarray) -> float | np.ndarray:
    """ln(1 + e^f) >= 0, stable for large |f|."""
    return np.logaddexp(0.0, f)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _check_unit_range(name: str, value) -> None:
    arr = np.asarray(value, dtype=np.float64)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


def beta_schedule(epoch: int, decay: float) -> float:
    """Linear decay of structural influence: max(0, 1 - epoch/decay).

    `decay = 0` means numeric weights dominate from the first epoch.
    """
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    if not decay >= 0:
        raise ValueError("decay must be >= 0")
    if decay == 0:
        return 0.0
    return max(0.0, 1.0 - epoch / decay)


def focused_nll_batch(scores: np.ndarray, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """NLL over modulated softplus scores; returns per-row loss and dL/dscores.

    `scores` is (n, 1 + eta) raw scores, positive first; `alpha` the matching
    modulating factors.  The chain rule through h = alpha * softplus(f) gives
    dL/df = dL/dh * alpha * sigmoid(f).
    """
    g = softplus_score(scores)
    h = alpha * g
    loss, dh = softmax_nll_batch(h)
    df = dh * alpha * _sigmoid(scores)
    return loss, df


def alpha_batch(w: np.ndarray, beta: float, n_negatives: int) -> np.ndarray:
    """Modulating factors for a batch: column 0 positives, then corruptions.

    Positive triples get beta + (1 - w) * (1 - beta); their corruptions get
    beta + w * (1 - beta), with w taken from the positive triple in both
    cases.  beta = 1 ignores weights entirely.
    """
    _check_unit_range("w", w)
    _check_unit_range("beta", beta)
    w = np.asarray(w, dtype=np.float64)
    a_pos = beta + (1.0 - w) * (1.0 - beta)
    a_neg = beta + w * (1.0 - beta)
    return np.concatenate(
        [a_pos[:, None], np.repeat(a_neg[:, None], n_negatives, axis=1)], axis=1
    )
