"""Adam with lazy (touched-rows-only) sparse updates for embedding tables."""

from __future__ import annotations

import numpy as np


class SparseAdam:
    """Standard Adam; moment rows are read and written only for touched rows.

    Bias correction uses a single step counter, advanced by every `apply`
    call regardless of which rows the call touches.
    """

    def __init__(
        self, shape: tuple[int, int], lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8
    ) -> None:
        if not lr >= 0:  # NaN too; inf stays legal, as in TrainConfig
            raise ValueError("learning rate must be >= 0")
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m, self.v, self.t = np.zeros(shape), np.zeros(shape), 0

    def apply(self, params: np.ndarray, rows: np.ndarray, grads: np.ndarray) -> np.ndarray:
        """Take one step: update `params[rows]` in place from per-row gradients; return them."""
        self.t += 1
        m = self.beta1 * self.m[rows] + (1.0 - self.beta1) * grads
        v = self.beta2 * self.v[rows] + (1.0 - self.beta2) * (grads * grads)
        self.m[rows] = m
        self.v[rows] = v
        m_hat = m / (1.0 - self.beta1**self.t)
        v_hat = v / (1.0 - self.beta2**self.t)
        params[rows] = updated = params[rows] - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        return updated
