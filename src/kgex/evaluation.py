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


def _side_rank(
    model: EmbeddingModel,
    positive_score: float,
    fixed: tuple[int, int],
    original: int,
    pool: np.ndarray,
    known: set[int],
    replace_subject: bool,
) -> int:
    candidates = pool[pool != original]
    if known:
        candidates = candidates[~np.isin(candidates, np.fromiter(known, dtype=np.int64))]
    if len(candidates) == 0:
        return 1
    if replace_subject:
        p, o = fixed
        scores = score_many(model, candidates, np.int64(p), np.int64(o))
    else:
        s, p = fixed
        scores = score_many(model, np.int64(s), np.int64(p), candidates)
    # pessimistic tie rule: equal scores count against the positive
    return 1 + int(np.count_nonzero(scores >= positive_score))


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
    positive_score = float(score_many(model, s, p, o))
    known_objects = flt.objects_for(s, p) if flt is not None else set()
    known_subjects = flt.subjects_for(p, o) if flt is not None else set()
    object_rank = _side_rank(
        model, positive_score, (s, p), o, pool, known_objects, replace_subject=False
    )
    subject_rank = _side_rank(
        model, positive_score, (p, o), s, pool, known_subjects, replace_subject=True
    )
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
    pool = np.asarray(pool, dtype=np.int64)
    ranks: list[int] = []
    skipped = 0
    for t in test_triples:
        s, p, o = (int(t[0]), int(t[1]), int(t[2]))
        if not (0 <= s < model.n_entities and 0 <= o < model.n_entities and 0 <= p < model.n_relations):
            skipped += 1
            continue
        result = rank_triple(model, (s, p, o), pool, flt)
        ranks.append(result.subject_rank)
        ranks.append(result.object_rank)
    if not ranks:
        raise ValueError("no evaluable test triples")
    return metrics_from_ranks(ranks), skipped
