"""Adam with lazy (touched-rows-only) sparse updates for embedding tables, and
the helper thread that shares a `run_training` step of more than one chunk."""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from functools import partial

import numpy as np

# The one working-set budget, in float64 elements: a row chunk of the Adam
# update and of the L2 gradient, a scatter call's chunk (an int64 index of at
# most 512 KiB) and a chunk of a training step's candidate block or row terms,
# and a lockstep group's stacked (rows, width) arrays (`explain._lockstep_groups`)
_CHUNK_ELEMS = 1 << 16
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's decay rates and denominator term (Kingma & Ba's defaults)


def _chunk_rows(width: int) -> int:
    """Rows of `width` floats in one `_CHUNK_ELEMS` chunk (one row, if wider)."""
    return max(1, _CHUNK_ELEMS // width)


def _cpus() -> int:
    """The CPUs this process may run on (its affinity mask, where the OS has one)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@contextmanager
def step_helper():
    """A one-thread executor for a `run_training` call's steps, whose thread ends with the block,
    or None where the process may run on one CPU (two threads are the count whose speed and heap
    were measured).  A step hands it the second half of its scoring groups and Adam chunks and the
    relation-row terms of its scatter (`_spread`).  `mc_explain` takes none: it spreads its
    lockstep groups over processes."""
    if _cpus() < 2:
        yield None
        return
    with ThreadPoolExecutor(1, "kgex-step") as helper:
        yield helper


def _spread(fn, items, helper) -> list:
    """`[fn(item) for item in items]`, split in halves when `helper` is given and there are
    several items: this thread runs the first ceil(n/2) items and the helper the rest, as one
    task in a copy of this thread's context, so a caller's `np.errstate` holds on both.  Each
    thread stops at its first failed item; once both have stopped, the error of the
    lowest-numbered failed item is raised, as the loop would raise it.  An interrupt of this
    thread comes out once the helper's half has ended."""
    if helper is None or len(items) < 2:
        return [fn(item) for item in items]
    half = -(-len(items) // 2)
    other = helper.submit(partial(contextvars.copy_context().run, lambda: [fn(item) for item in items[half:]]))
    try:
        mine = [fn(item) for item in items[:half]]
    finally:
        wait([other])  # neither thread runs an item once this returns or raises
    return mine + other.result()


class SparseAdam:
    """Standard Adam; moment rows are read and written only for touched rows.

    Bias correction uses a single step counter, advanced by every `apply`
    call regardless of which rows the call touches.  `apply` works through
    its rows a `_chunk_rows` chunk at a time, split in halves with `helper`
    (a `step_helper`) when given and there are several; neither moves a byte.
    """

    def __init__(self, shape: tuple[int, int], lr: float) -> None:
        if not lr >= 0:  # NaN too; inf stays legal, as in TrainConfig
            raise ValueError("learning rate must be >= 0")
        self.lr = lr
        self.m, self.v, self.t = np.zeros(shape), np.zeros(shape), 0

    def apply(self, params: np.ndarray, rows: np.ndarray, grads: np.ndarray, helper=None) -> np.ndarray:
        """Take one step: update `params[rows]` in place from per-row gradients.

        `rows` must be distinct, as `batch_gradients` gives them (not checked: a
        row repeated across chunks would read moments already updated).
        Returns the updated rows, written over `grads` when it is a writable
        array of `params`' dtype, else over a copy of it.
        """
        grads = np.require(grads, params.dtype, "W")
        self.t += 1
        b1, b2, m_scale, v_scale = _BETA1, _BETA2, 1.0 - _BETA1**self.t, 1.0 - _BETA2**self.t
        size = _chunk_rows(params.shape[1])
        starts = range(0, len(rows), size)

        def update(lo):  # the whole-array form's operations, in its order, in place
            ids, g = rows[lo : lo + size], grads[lo : lo + size]
            m, v, scaled = self.m.take(ids, axis=0), self.v.take(ids, axis=0), np.multiply(1.0 - b1, g)
            m *= b1
            m += scaled  # m = b1 * m + (1 - b1) * g
            np.multiply(g, g, out=scaled)
            scaled *= 1.0 - b2
            v *= b2
            v += scaled  # v = b2 * v + (1 - b2) * (g * g)
            del scaled
            self.m[ids], self.v[ids] = m, v
            m /= m_scale
            m *= self.lr
            v /= v_scale
            np.sqrt(v, out=v)
            v += _EPS
            m /= v  # the update, lr * (m / m_scale) / (sqrt(v / v_scale) + eps)
            params[ids] = np.subtract(params.take(ids, axis=0), m, out=g)

        _spread(update, starts, helper)
        return grads
