"""Independent reference computations for the benchmark's output checks.

Nothing here calls kgex: ComplEx scores come from NumPy complex arithmetic
and the filter is a sorted array of integer triple keys, so a defect in the
library's ranking, scoring or filter code shows up as a mismatch.
"""

from __future__ import annotations

import numpy as np


def triple_keys(triples: np.ndarray, n_entities: int, n_relations: int) -> np.ndarray:
    t = np.asarray(triples, dtype=np.int64)
    return (t[:, 0] * n_relations + t[:, 1]) * n_entities + t[:, 2]


class BruteForceRanker:
    """Filtered, pessimistic both-side ranks of ComplEx triples over all entities."""

    def __init__(self, entity_table, relation_table, k: int, known: np.ndarray) -> None:
        self.ent = entity_table[:, :k] + 1j * entity_table[:, k:]
        self.rel = relation_table[:, :k] + 1j * relation_table[:, k:]
        self.n_e, self.n_r = len(self.ent), len(self.rel)
        self.known = np.unique(triple_keys(known, self.n_e, self.n_r))
        self.all = np.arange(self.n_e, dtype=np.int64)

    def _is_known(self, keys: np.ndarray) -> np.ndarray:
        at = np.minimum(np.searchsorted(self.known, keys), len(self.known) - 1)
        return self.known[at] == keys

    def ranks(self, t) -> tuple[int, int]:
        """(subject rank, object rank) of one triple; equal scores count against it."""
        s, p, o = (int(x) for x in t)
        # Re(sum(e_s * r_p * conj(e_o))), one side varied at a time
        obj_scores = np.real(np.conj(self.ent) @ (self.ent[s] * self.rel[p]))
        subj_scores = np.real(self.ent @ (self.rel[p] * np.conj(self.ent[o])))
        obj_known = self._is_known((s * self.n_r + p) * self.n_e + self.all)
        subj_known = self._is_known((self.all * self.n_r + p) * self.n_e + o)
        obj_cand = (self.all != o) & ~obj_known
        subj_cand = (self.all != s) & ~subj_known
        object_rank = 1 + int(np.count_nonzero(obj_scores[obj_cand] >= obj_scores[o]))
        subject_rank = 1 + int(np.count_nonzero(subj_scores[subj_cand] >= subj_scores[s]))
        return subject_rank, object_rank


def metrics(ranks: list[int]) -> dict[str, float]:
    """MR, MRR and Hits@1/10 of a flat rank list."""
    arr = np.asarray(ranks, dtype=np.float64)
    return {
        "mr": float(arr.mean()),
        "mrr": float((1.0 / arr).mean()),
        "hits1": float((arr <= 1).mean()),
        "hits10": float((arr <= 10).mean()),
    }


def candidates_per_side(known: np.ndarray, pool: np.ndarray, t, n_e: int, n_r: int) -> int:
    """Candidates both sides of `t` leave after dropping the original and known triples."""
    s, p, o = (int(x) for x in t)
    pool = np.asarray(pool, dtype=np.int64)
    obj = (s * n_r + p) * n_e + pool
    subj = (pool * n_r + p) * n_e + o
    obj_left = (pool != o) & ~np.isin(obj, known)
    subj_left = (pool != s) & ~np.isin(subj, known)
    return int(obj_left.sum() + subj_left.sum())
