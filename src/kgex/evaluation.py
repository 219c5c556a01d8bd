"""Learning-to-rank evaluation: filtered both-side ranks and MR/MRR/Hits@N."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Triple, TrueTripleSet
from .models import EmbeddingModel, score_many


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


# bytes of embedding rows gathered and scored at once: small blocks keep the
# temporaries cache-sized and reused instead of mapped and unmapped per call
_BLOCK_BYTES = 1 << 18


def _side_rank(model: EmbeddingModel, positive: float, candidates: np.ndarray, score) -> int:
    step = max(1, _BLOCK_BYTES // (8 * model.width))
    # pessimistic tie rule: equal scores count against the positive
    return 1 + sum(
        int(np.count_nonzero(score(candidates[lo : lo + step]) >= positive))
        for lo in range(0, len(candidates), step)
    )


def rank_triple(
    model: EmbeddingModel,
    t: Triple,
    pool: np.ndarray,
    flt: TrueTripleSet | None = None,
) -> RankResult:
    """Both-side filtered ranks of a triple against a candidate entity pool.

    Candidates replace one side at a time, never equal the original entity,
    and are dropped when the filter knows the resulting triple to be true.
    The positive itself is always scored even if its entities are outside
    the pool.
    """
    pool = np.asarray(pool, dtype=np.int64)
    if len(pool) == 0:
        raise ValueError("candidate pool must be nonempty")
    s, p, o = t
    positive = float(score_many(model, s, p, o))
    known_objects = flt.objects_for(s, p) if flt is not None else []
    known_subjects = flt.subjects_for(p, o) if flt is not None else []
    objects = pool[(pool != o) & ~np.isin(pool, known_objects)]
    subjects = pool[(pool != s) & ~np.isin(pool, known_subjects)]
    return RankResult(
        triple=t,
        object_rank=_side_rank(model, positive, objects, lambda e: score_many(model, s, p, e)),
        subject_rank=_side_rank(model, positive, subjects, lambda e: score_many(model, e, p, o)),
    )


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
    pool = np.asarray(pool, dtype=np.int64)
    triples = np.asarray(test_triples, dtype=np.int64).reshape(-1, 3)
    sizes = (model.n_entities, model.n_relations, model.n_entities)
    in_tables = ((triples >= 0) & (triples < sizes)).all(axis=1)
    ranks: list[int] = []
    for s, p, o in triples[in_tables].tolist():
        result = rank_triple(model, (s, p, o), pool, flt)
        ranks += [result.subject_rank, result.object_rank]
    if not ranks:
        raise ValueError("no evaluable test triples")
    return metrics_from_ranks(ranks), len(triples) - int(in_tables.sum())
