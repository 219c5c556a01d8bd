"""Learning-to-rank evaluation: filtered both-side ranks and MR/MRR/Hits@N."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .graph import Triple, TrueTripleSet
from .models import EmbeddingModel, ModelKind, query_pairs, score_many
from .optim import _chunk_rows


@dataclass
class RankResult:
    triple: Triple
    subject_rank: int
    object_rank: int

    @property
    def mean_rank(self) -> float:
        return 0.5 * (self.subject_rank + self.object_rank)


@dataclass
class Metrics:
    mr: float
    mrr: float
    hits1: float
    hits10: float

    def as_dict(self) -> dict[str, float]:
        return {"mr": self.mr, "mrr": self.mrr, "hits1": self.hits1, "hits10": self.hits10}


# bound on one block's (2 x triples, entities) float64 score matrix: 18
# triples at FB15K-237's 14,541 entities, so 10-triple calls stay one block.
# One call over 3,000 of its test triples took 1.07 s at this bound, 1.23 s
# at 2 MiB and 0.77 s at 16 MiB, with a heap peak of 4.7, 2.5 and 18.2 MiB
# (ComplEx k=100, 2-vCPU x86 VM)
_BLOCK_BYTES = 1 << 22


def _scores(model: EmbeddingModel, s, p, o, columns) -> np.ndarray:
    """(2B, C) scores: row i < B replaces the object of triple i, row B + i its
    subject, each by the entity of every column (None: the whole table)."""
    if model.kind in (ModelKind.DISTMULT, ModelKind.COMPLEX):
        ent = model.entity_table
        queries = query_pairs(model.kind, model.k, ent[s], model.relation_table[p], ent[o])
        rows = ent if columns is None else ent[columns]
        return queries @ rows.T  # .T is a view: the table is read in place
    # TransE's elementwise (rows, columns, width) distance temporaries take
    # `optim._CHUNK_ELEMS` elements (512 KiB) a chunk: 10 triples ranked against
    # FB15K-237's 14,541 entities (TransE-L2, k=100, 2-vCPU x86 VM) took 47 ms
    # at that size against 57 ms at 256 KiB; 16 MiB chunks were about 2.5x slower
    ids = np.arange(model.n_entities) if columns is None else columns
    out = np.empty((2 * len(s), len(ids)))
    step = _chunk_rows(model.width * len(s))
    for lo in range(0, len(ids), step):
        chunk = ids[None, lo : lo + step]
        out[: len(s), lo : lo + step] = score_many(model, s[:, None], p[:, None], chunk)
        out[len(s) :, lo : lo + step] = score_many(model, chunk, p[:, None], o[:, None])
    return out


def _rank_block(
    model: EmbeddingModel, triples: np.ndarray, pool: np.ndarray | None, flt: TrueTripleSet | None,
    local: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """(B, 2) filtered (subject, object) ranks of a block of triples against a
    pool (None: the whole table, in id order).

    Each query row is scored against its candidates and its own positive in
    one product, so a candidate whose score ties the positive's exactly counts
    against it (the pessimistic rule).  The rows of a small pool are gathered,
    with the positives appended as extra columns; otherwise the whole table is
    scored in place and the pool's columns are read from the result.  On a
    compact table, which holds only some rows, `local` gives the block and the
    pool in table ids: the filter reads their ids in `triples` and `pool`, and
    the pool is always gathered.
    """
    ids = triples.tolist()
    known = [] if flt is None else (
        [flt.objects_for(a, b) for a, b, _ in ids] + [flt.subjects_for(b, c) for _, b, c in ids]
    )
    s, p, o = (triples if local is None else local[0]).T
    replaced = np.concatenate([o, s])  # the entity each query row replaces
    rows = np.arange(len(replaced))
    n = model.n_entities
    # gather when the gathered columns are under half the table: with random
    # pools at FB15K-237 shape (ComplEx k=100), gathering was faster at a
    # quarter of the table (1.75 against 2.05 ms for one triple, 4.9 against
    # 7.0 ms for 18) and slower at half (3.4 against 2.2 ms, 8.8 against 7.5)
    gathered = local is not None or (pool is not None and 2 * (len(pool) + len(rows)) < n)
    if gathered:
        columns = pool if local is None else local[1]
        scores = _scores(model, s, p, o, np.concatenate([columns, replaced]))
        hits = scores[:, : len(pool)] >= scores[rows, len(pool) + rows][:, None]
        hits &= columns != replaced[:, None]
    else:
        scores = _scores(model, s, p, o, None)
        hits = scores >= scores[rows, replaced][:, None]
        hits[rows, replaced] = False
    for r, entities in enumerate(known):
        # a filter over a larger vocabulary may know ids beyond the table
        hits[r, np.isin(pool, entities) if gathered else entities[entities < n]] = False
    if pool is not None and not gathered:
        hits = hits[:, pool]
    ranks = 1 + np.count_nonzero(hits, axis=1)
    return np.stack([ranks[len(s) :], ranks[: len(s)]], axis=1)


def _as_pool(pool, n_entities: int) -> np.ndarray | None:
    """The pool as int64 ids, or None when it is the whole table in id order;
    ValueError for an id outside [0, n_entities) or a repeated id."""
    pool = np.asarray(pool, dtype=np.int64)
    if len(pool) == 0:
        raise ValueError("candidate pool must be nonempty")
    if np.array_equal(pool, np.arange(n_entities)):
        return None
    if pool.min() < 0 or pool.max() >= n_entities:
        raise ValueError(f"candidate pool ids must lie in [0, {n_entities})")
    if len(np.unique(pool)) < len(pool):
        raise ValueError("candidate pool ids must be distinct")
    return pool


def rank_blocks(
    model: EmbeddingModel,
    triples: np.ndarray,
    pool: np.ndarray,
    flt: TrueTripleSet | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Filtered ranks of id triples, block by block in the given order.

    Yields `(block, ranks)`, where `ranks[i]` is the (subject, object) rank
    pair of `block[i]`.  A block's score matrices take at most
    `_BLOCK_BYTES`, so a caller may stop early without ranking the rest.
    """
    pool = _as_pool(pool, model.n_entities)
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    step = max(1, _BLOCK_BYTES // (16 * model.n_entities))
    for lo in range(0, len(triples), step):
        block = triples[lo : lo + step]
        yield block, _rank_block(model, block, pool, flt)


def rank_triple(
    model: EmbeddingModel, t: Triple, pool: np.ndarray, flt: TrueTripleSet | None = None,
    local: tuple[Triple, np.ndarray] | None = None,
) -> RankResult:
    """Both-side filtered ranks of a triple against a candidate entity pool.

    Candidates replace one side at a time, never equal the original entity,
    and are dropped when the filter knows the resulting triple to be true.
    The positive itself is always scored even if its entities are outside
    the pool.  `local` ranks on a compact table: it gives the triple and the
    pool in table ids, whose rows are gathered as a full table's are.
    """
    block, pool = np.array([t], dtype=np.int64), _as_pool(pool, model.n_entities) if local is None else pool
    local = local and (np.array([local[0]], dtype=np.int64), local[1])
    subject_rank, object_rank = _rank_block(model, block, pool, flt, local)[0].tolist()
    return RankResult(triple=t, subject_rank=subject_rank, object_rank=object_rank)


def metrics_from_ranks(ranks) -> Metrics:
    """MR, MRR, and hit fractions of a flat rank list."""
    arr = np.asarray(ranks, dtype=np.float64)
    if len(arr) == 0:
        raise ValueError("no ranks to aggregate")
    return Metrics(
        mr=float(arr.mean()),
        mrr=float((1.0 / arr).mean()),
        hits1=float((arr <= 1).mean()),
        hits10=float((arr <= 10).mean()),
    )


def evaluate(
    model: EmbeddingModel,
    test_triples,
    pool: np.ndarray,
    flt: TrueTripleSet | None = None,
) -> tuple[Metrics, int]:
    """Metrics over both-side ranks of the test triples (2 ranks per triple).

    Triples whose ids fall outside the model's tables are skipped; the count
    of skipped triples is returned alongside the metrics.
    """
    triples = np.asarray(test_triples, dtype=np.int64).reshape(-1, 3)
    sizes = (model.n_entities, model.n_relations, model.n_entities)
    in_tables = ((triples >= 0) & (triples < sizes)).all(axis=1)
    ranks = [r for _, r in rank_blocks(model, triples[in_tables], pool, flt)]
    if not ranks:
        raise ValueError("no evaluable test triples")
    return metrics_from_ranks(np.concatenate(ranks).ravel()), len(triples) - int(in_tables.sum())
