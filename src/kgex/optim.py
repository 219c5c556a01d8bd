"""Adam with lazy (touched-rows-only) sparse updates for embedding tables."""

from __future__ import annotations

import numpy as np

# The one working-set budget, in float64 elements: a row chunk of the Adam
# update and of the L2 gradient, a scatter call's chunk (an int64 index of at
# most 512 KiB) and a chunk of a training step's candidate block or row terms,
# and a lockstep group's stacked candidate block (`explain._run_chunk`)
_CHUNK_ELEMS = 1 << 16


def _chunk_rows(width: int) -> int:
    """Rows of `width` floats in one `_CHUNK_ELEMS` chunk (one row, if wider)."""
    return max(1, _CHUNK_ELEMS // width)


class SparseAdam:
    """Standard Adam; moment rows are read and written only for touched rows.

    Bias correction uses a single step counter, advanced by every `apply`
    call regardless of which rows the call touches.  `apply` works through
    its rows a `_chunk_rows` chunk at a time; every chunk size gives the same
    bytes.
    """

    def __init__(
        self, shape: tuple[int, int], lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8
    ) -> None:
        if not lr >= 0:  # NaN too; inf stays legal, as in TrainConfig
            raise ValueError("learning rate must be >= 0")
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m, self.v, self.t = np.zeros(shape), np.zeros(shape), 0

    def apply(self, params: np.ndarray, rows: np.ndarray, grads: np.ndarray) -> np.ndarray:
        """Take one step: update `params[rows]` in place from per-row gradients.

        `rows` must be distinct, as `np.unique` gives them (not checked: a
        row repeated across chunks would read moments already updated).
        Returns the updated rows, written over `grads` when it is a writable
        array of `params`' dtype, else over a copy of it.
        """
        grads = np.require(grads, params.dtype, "W")
        self.t += 1
        m_scale, v_scale = 1.0 - self.beta1**self.t, 1.0 - self.beta2**self.t
        size = _chunk_rows(params.shape[1])
        for lo in range(0, len(rows), size):
            ids, g = rows[lo : lo + size], grads[lo : lo + size]
            m = self.beta1 * self.m[ids] + (1.0 - self.beta1) * g
            v = self.beta2 * self.v[ids] + (1.0 - self.beta2) * (g * g)
            self.m[ids], self.v[ids] = m, v
            delta = self.lr * (m / m_scale) / (np.sqrt(v / v_scale) + self.eps)
            params[ids] = np.subtract(params[ids], delta, out=g)
        return grads
