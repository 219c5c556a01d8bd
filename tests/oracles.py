"""Independent oracles the tests check the implementation against."""

from __future__ import annotations

import numpy as np

from kgex.models import EmbeddingModel, score_many


def fd_gradients(loss_fn, params: list[np.ndarray], h: float = 1e-6) -> list[np.ndarray]:
    """Central finite differences of loss_fn() w.r.t. each array, in place."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat_p, flat_g = p.ravel(), g.ravel()
        for i in range(flat_p.size):
            original = flat_p[i]
            flat_p[i] = original + h
            up = loss_fn()
            flat_p[i] = original - h
            down = loss_fn()
            flat_p[i] = original
            flat_g[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def max_relative_error(analytic: np.ndarray, fd: np.ndarray) -> float:
    """|a - f| relative to max(1, |a|, |f|), elementwise maximum."""
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(fd)))
    return float(np.max(np.abs(analytic - fd) / denom))


def brute_force_side_rank(
    model: EmbeddingModel,
    t: tuple[int, int, int],
    pool,
    flt,
    replace_subject: bool,
) -> int:
    """Sort-based pessimistic rank: score every candidate, sort, walk ties."""
    s, p, o = t
    positive = score_many(model, *t)
    candidate_scores = []
    for e in map(int, pool):
        if replace_subject:
            if e == s:
                continue
            candidate = (e, p, o)
        else:
            if e == o:
                continue
            candidate = (s, p, e)
        if flt is not None and candidate in flt:
            continue
        candidate_scores.append(score_many(model, *candidate))
    rank = 1
    for value in sorted(candidate_scores, reverse=True):
        if value >= positive:
            rank += 1
        else:
            break
    return rank


class ScalarAdam:
    """Reference single-parameter Adam, kept independent of the package."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = 0.0
        self.v = 0.0
        self.t = 0

    def step(self, theta: float, grad: float) -> float:
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad * grad
        m_hat = self.m / (1 - self.beta1**self.t)
        v_hat = self.v / (1 - self.beta2**self.t)
        return theta - self.lr * m_hat / (v_hat**0.5 + self.eps)


def normalized_difference_dot(a, b, c) -> float:
    """Direct vector-math evaluation of the angle potential."""
    a, b, c = (np.asarray(x, dtype=np.float64) for x in (a, b, c))
    ab = a - b
    bc = b - c
    ab = ab / np.sqrt((ab * ab).sum())
    bc = bc / np.sqrt((bc * bc).sum())
    return float((ab * bc).sum())


def huber(a: float, b: float) -> float:
    """Quadratic within |a-b| <= 1, linear with matched value/slope outside."""
    d = abs(a - b)
    if d <= 1.0:
        return 0.5 * d * d
    return d - 0.5


def incident_triples(g, *entities) -> set[tuple[int, int, int]]:
    """Linear scan: every triple with one of `entities` as subject or object."""
    return {t for t in map(tuple, g.triples.tolist()) if t[0] in entities or t[2] in entities}
