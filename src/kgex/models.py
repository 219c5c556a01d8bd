"""Embedding tables, initialization, scoring functions, and their gradients."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class ModelKind(str, Enum):
    TRANSE_L1 = "transe-l1"
    TRANSE_L2 = "transe-l2"
    DISTMULT = "distmult"
    COMPLEX = "complex"

    @property
    def row_width_factor(self) -> int:
        # ComplEx rows interleave k real then k imaginary components.
        return 2 if self is ModelKind.COMPLEX else 1


@dataclass
class EmbeddingModel:
    """Model kind plus one (|E| + |R|, d) table, entity rows first, of which
    `entity_table` and `relation_table` are views.  d equals k for the
    real-valued models and 2k for ComplEx, whose rows store the k real
    components followed by the k imaginary ones."""

    kind: ModelKind
    k: int
    table: np.ndarray
    n_entities: int

    @property
    def entity_table(self) -> np.ndarray:
        return self.table[: self.n_entities]

    @property
    def relation_table(self) -> np.ndarray:
        return self.table[self.n_entities :]

    @property
    def n_relations(self) -> int:
        return self.table.shape[0] - self.n_entities

    @property
    def width(self) -> int:
        return self.table.shape[1]


def init_model(
    kind: ModelKind | str, k: int, n_entities: int, n_relations: int, seed: int | np.random.SeedSequence,
    rows: np.ndarray | None = None,
) -> EmbeddingModel:
    """Initialize the table i.i.d. uniform in [-6/sqrt(k), +6/sqrt(k)], seeded.

    `rows` (sorted entity ids, then |E| + relation ids) keeps only those rows
    of the full table, a compact table: each is drawn as the full draw draws
    it, by skipping the generator past the others (one 64-bit step a value).
    """
    kind = ModelKind(kind)
    if k < 1:
        raise ValueError("embedding dimensionality must be >= 1")
    if n_entities < 1 or n_relations < 1:
        raise ValueError("vocabularies must be nonempty")
    outside = rows is not None and np.any((rows < 0) | (rows >= n_entities + n_relations))
    if rows is not None and (outside or np.any(np.diff(rows) <= 0)):
        raise ValueError("rows must be sorted, distinct rows of the full table")
    rng = np.random.default_rng(seed)
    bound, width = 6.0 / np.sqrt(k), k * kind.row_width_factor
    if rows is None:
        table = rng.uniform(-bound, bound, size=(n_entities + n_relations, width))
        return EmbeddingModel(kind, k, table, n_entities)
    table, end = np.empty((len(rows), width)), 0
    for i, row in enumerate(rows.tolist()):
        rng.bit_generator.advance((row - end) * width)
        table[i], end = rng.uniform(-bound, bound, width), row + 1
    return EmbeddingModel(kind, k, table, int(np.searchsorted(rows, n_entities)))


def score_rows(kind: ModelKind, k: int, es: np.ndarray, rp: np.ndarray, eo: np.ndarray) -> np.ndarray:
    """Score triples given their embedding rows; broadcasts over leading axes.

    TransE-Ln: -||es + rp - eo||_n.  DistMult: sum(es * rp * eo).
    ComplEx:  Re(sum(es * rp * conj(eo))) on the (real, imag) split rows.
    """
    if kind is ModelKind.TRANSE_L1:
        return -np.abs(es + rp - eo).sum(axis=-1)
    if kind is ModelKind.TRANSE_L2:
        d = es + rp - eo
        return -np.sqrt((d * d).sum(axis=-1))
    if kind is ModelKind.DISTMULT:
        # grouped (es*eo)*rp so score(s,p,o) == score(o,p,s) bitwise
        return (es * eo * rp).sum(axis=-1)
    a, b = es[..., :k], es[..., k:]
    c, d = rp[..., :k], rp[..., k:]
    e, f = eo[..., :k], eo[..., k:]
    # grouped to reduce to the DistMult product exactly when b = d = f = 0
    return (a * e * c - b * e * d + a * f * d + b * f * c).sum(axis=-1)


def bilinear_product(
    kind: ModelKind, k: int, x: np.ndarray, y: np.ndarray, conj: bool = False, out: np.ndarray | None = None
) -> np.ndarray:
    """x∘y, or conj(x)∘y, of DistMult/ComplEx rows (x * y for DistMult), written to `out`
    when given. The gradient of Re<es, rp, conj(eo)> is es∘rp w.r.t. eo, conj(rp)∘eo
    w.r.t. es and conj(es)∘eo w.r.t. rp."""
    if kind is ModelKind.DISTMULT:
        return np.multiply(x, y, out=out)
    a, b = x[..., :k], x[..., k:]
    c, d = y[..., :k], y[..., k:]
    if conj:
        return np.concatenate([a * c + b * d, -b * c + a * d], axis=-1, out=out)
    return np.concatenate([a * c - b * d, a * d + b * c], axis=-1, out=out)


def query_pairs(kind: ModelKind, k: int, es: np.ndarray, rp: np.ndarray, eo: np.ndarray) -> np.ndarray:
    """(2n, W) query rows of n DistMult/ComplEx triples' (n, W) rows: the object-side
    es∘rp of each, then the subject-side conj(rp)∘eo.  A candidate entity e scores
    query . e in that slot, as the query is the score's gradient there."""
    pairs = np.empty((2, *es.shape))
    bilinear_product(kind, k, es, rp, out=pairs[0])
    bilinear_product(kind, k, rp, eo, conj=True, out=pairs[1])
    return pairs.reshape(-1, es.shape[-1])


def score_grad_rows(
    kind: ModelKind, k: int, es: np.ndarray, rp: np.ndarray, eo: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Scores plus the gradients of each score w.r.t. its three rows.

    For TransE-L2 the gradient at an exact translation (zero residual) is the
    zero vector by convention.  TransE-L1 uses the sign subgradient.  TransE's
    subject and relation gradients are equal: one array, returned in both slots.
    """
    if kind in (ModelKind.TRANSE_L1, ModelKind.TRANSE_L2):
        d = es + rp  # es + rp - eo, made into the object gradient in place
        d -= eo
        if kind is ModelKind.TRANSE_L1:
            f = -np.abs(d).sum(axis=-1)
            np.sign(d, out=d)
        else:
            norm = np.sqrt((d * d).sum(axis=-1))
            f = -norm
            np.divide(d, np.where(norm == 0.0, 1.0, norm)[..., None], out=d)
            d[norm == 0.0] = 0.0
        g_sp = -d
        return f, g_sp, g_sp, d
    g_es = bilinear_product(kind, k, rp, eo, conj=True)
    g_rp = bilinear_product(kind, k, es, eo, conj=True)
    return score_rows(kind, k, es, rp, eo), g_es, g_rp, bilinear_product(kind, k, es, rp)


def score_many(
    model: EmbeddingModel, s: np.ndarray, p: np.ndarray, o: np.ndarray
) -> np.ndarray:
    """Vectorized scores for parallel id arrays (broadcast-compatible)."""
    ent = model.entity_table
    return score_rows(model.kind, model.k, ent[s], model.relation_table[p], ent[o])
