"""Triple store: TSV loading, vocabularies, adjacency indices, filter sets."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

Triple = tuple[int, int, int]


class GraphFormatError(ValueError):
    """Raised for malformed triple files (bad column count, bad weight)."""


class WeightRangeError(GraphFormatError):
    """Raised when a numeric weight falls outside [0, 1] under strict policy."""


class VocabularyMismatchError(ValueError):
    """Raised when graphs that must share vocabularies do not."""


class Vocabulary:
    """Bijective label <-> dense id map, ids assigned in first-appearance order."""

    def __init__(self) -> None:
        self.label_to_id: dict[str, int] = {}
        self.labels: list[str] = []

    def add(self, label: str) -> int:
        idx = self.label_to_id.get(label)
        if idx is None:
            idx = len(self.labels)
            self.label_to_id[label] = idx
            self.labels.append(label)
        return idx

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self.label_to_id

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vocabulary) and self.labels == other.labels

    def id_of(self, label: str) -> int:
        return self.label_to_id[label]

    def label_of(self, idx: int) -> str:
        return self.labels[idx]

    def dump(self, path: str | Path) -> None:
        """Write `label<TAB>id` lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, label in enumerate(self.labels):
                fh.write(f"{label}\t{idx}\n")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        vocab = cls()
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                parts = line.rstrip("\n").split("\t")
                if len(parts) != 2:
                    raise GraphFormatError(f"{path}:{lineno}: expected `label<TAB>id`")
                label, idx = parts[0], int(parts[1])
                if vocab.add(label) != idx:
                    raise GraphFormatError(f"{path}:{lineno}: ids not contiguous")
        return vocab


@dataclass
class KnowledgeGraph:
    """Immutable triple store with entity/predicate indices.

    `triples` is an (n, 3) int64 array of (subject, predicate, object) ids in
    file order after deduplication.  `by_entity[e]` / `by_predicate[p]` hold
    the sorted positions of triples incident to entity e / labelled p.
    Instances are not mutated after load; concurrent reads are safe.
    """

    triples: np.ndarray
    entity_vocab: Vocabulary
    relation_vocab: Vocabulary
    by_entity: dict[int, np.ndarray]
    by_predicate: dict[int, np.ndarray]
    weights: np.ndarray | None = None
    duplicates_dropped: int = 0
    oov_skipped: int = 0
    _empty: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64), repr=False
    )

    @property
    def n_triples(self) -> int:
        return len(self.triples)

    @property
    def n_entities(self) -> int:
        return len(self.entity_vocab)

    @property
    def n_relations(self) -> int:
        return len(self.relation_vocab)

    def triple_at(self, pos: int) -> Triple:
        s, p, o = self.triples[pos]
        return (int(s), int(p), int(o))

    def entity_positions(self, e: int) -> np.ndarray:
        self._check_entity(e)
        return self.by_entity.get(e, self._empty)

    def predicate_positions(self, p: int) -> np.ndarray:
        self._check_relation(p)
        return self.by_predicate.get(p, self._empty)

    def entities_in_triples(self) -> np.ndarray:
        """Sorted unique entity ids occurring as subject or object."""
        if self.n_triples == 0:
            return self._empty
        return np.unique(self.triples[:, [0, 2]])

    def _check_entity(self, e: int) -> None:
        if not 0 <= e < self.n_entities:
            raise IndexError(f"entity id {e} outside vocabulary of size {self.n_entities}")

    def _check_relation(self, p: int) -> None:
        if not 0 <= p < self.n_relations:
            raise IndexError(f"relation id {p} outside vocabulary of size {self.n_relations}")


def _build_indices(triples: np.ndarray) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    by_entity: dict[int, list[int]] = {}
    by_predicate: dict[int, list[int]] = {}
    for pos, (s, p, o) in enumerate(triples):
        by_entity.setdefault(int(s), []).append(pos)
        if o != s:
            by_entity.setdefault(int(o), []).append(pos)
        by_predicate.setdefault(int(p), []).append(pos)
    ent = {e: np.asarray(v, dtype=np.int64) for e, v in by_entity.items()}
    pred = {p: np.asarray(v, dtype=np.int64) for p, v in by_predicate.items()}
    return ent, pred


def _parse_lines(path, has_weights, weight_policy):
    n_cols = 4 if has_weights else 3
    rows: list[tuple[str, str, str]] = []
    weights: list[float] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != n_cols:
                raise GraphFormatError(
                    f"{path}:{lineno}: expected {n_cols} tab-separated columns, got {len(parts)}"
                )
            rows.append((parts[0], parts[1], parts[2]))
            if has_weights:
                try:
                    w = float(parts[3])
                except ValueError as exc:
                    raise GraphFormatError(f"{path}:{lineno}: bad weight {parts[3]!r}") from exc
                if (w < 0.0 or w > 1.0) and weight_policy == "strict":
                    raise WeightRangeError(
                        f"{path}:{lineno}: weight {w} outside [0, 1] (strict policy)"
                    )
                weights.append(w)
    return rows, weights


def _normalize_weights(weights: list[float], policy: str) -> np.ndarray:
    arr = np.asarray(weights, dtype=np.float64)
    if policy == "clamp":
        arr = np.clip(arr, 0.0, 1.0)
    elif policy == "minmax" and len(arr):
        lo, hi = arr.min(), arr.max()
        arr = np.zeros_like(arr) if hi == lo else (arr - lo) / (hi - lo)
    return arr


def _ingest(
    path, entity_vocab: Vocabulary, relation_vocab: Vocabulary, grow: bool,
    has_weights: bool, weight_policy: str,
) -> KnowledgeGraph:
    """Parse, map labels to ids, deduplicate, and index one triple file.

    With `grow`, unseen labels are added to the vocabularies; otherwise a
    triple with an unseen label is skipped and counted in `oov_skipped`.
    """
    if weight_policy not in ("strict", "clamp", "minmax"):
        raise ValueError(f"unknown weight policy {weight_policy!r}")
    rows, weights = _parse_lines(path, has_weights, weight_policy)
    if grow:
        entity_id, relation_id = entity_vocab.add, relation_vocab.add
    else:
        entity_id, relation_id = entity_vocab.label_to_id.get, relation_vocab.label_to_id.get
    seen: set[Triple] = set()
    triples: list[Triple] = []
    kept_weights: list[float] = []
    dropped = 0
    oov = 0
    for i, (s_lbl, p_lbl, o_lbl) in enumerate(rows):
        t = (entity_id(s_lbl), relation_id(p_lbl), entity_id(o_lbl))
        if None in t:
            oov += 1
            continue
        if t in seen:
            dropped += 1
            continue
        seen.add(t)
        triples.append(t)
        if has_weights:
            kept_weights.append(weights[i])

    arr = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    by_entity, by_predicate = _build_indices(arr)
    return KnowledgeGraph(
        triples=arr,
        entity_vocab=entity_vocab,
        relation_vocab=relation_vocab,
        by_entity=by_entity,
        by_predicate=by_predicate,
        weights=_normalize_weights(kept_weights, weight_policy) if has_weights else None,
        duplicates_dropped=dropped,
        oov_skipped=oov,
    )


def load_graph(
    path: str | Path,
    has_weights: bool = False,
    weight_policy: str = "strict",
) -> KnowledgeGraph:
    """Load a `s<TAB>p<TAB>o[<TAB>w]` file and build vocabularies and indices.

    Vocabulary ids are assigned in first-appearance order; duplicate triples
    are dropped (count kept in `duplicates_dropped`).  `weight_policy` is one
    of `strict` (out-of-range weight is an error), `clamp`, or `minmax`.
    """
    return _ingest(path, Vocabulary(), Vocabulary(), True, has_weights, weight_policy)


def load_split(
    path: str | Path,
    entity_vocab: Vocabulary,
    relation_vocab: Vocabulary,
    has_weights: bool = False,
    weight_policy: str = "strict",
) -> KnowledgeGraph:
    """Load a validation/test split against existing vocabularies.

    Triples whose entities or relation are unseen in the given vocabularies
    are skipped and counted in `oov_skipped` so the evaluator can report them.
    """
    return _ingest(path, entity_vocab, relation_vocab, False, has_weights, weight_policy)


def graph_from_triples(
    triples: np.ndarray | list[Triple],
    entity_vocab: Vocabulary,
    relation_vocab: Vocabulary,
    weights: np.ndarray | None = None,
) -> KnowledgeGraph:
    """Wrap an id-triple array (sharing existing vocabularies) as a graph."""
    arr = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    if len(arr) and (arr[:, [0, 2]].max() >= len(entity_vocab) or arr[:, 1].max() >= len(relation_vocab)):
        raise IndexError("triple ids exceed vocabulary sizes")
    by_entity, by_predicate = _build_indices(arr)
    return KnowledgeGraph(
        triples=arr,
        entity_vocab=entity_vocab,
        relation_vocab=relation_vocab,
        by_entity=by_entity,
        by_predicate=by_predicate,
        weights=None if weights is None else np.asarray(weights, dtype=np.float64),
    )


def one_hop_positions(g: KnowledgeGraph, s: int, o: int) -> np.ndarray:
    """Sorted positions of triples incident (as subject or object) to s or o."""
    return np.union1d(g.entity_positions(s), g.entity_positions(o))


class TrueTripleSet:
    """Membership structure over all known true triples, for filtered ranking."""

    def __init__(self) -> None:
        self._all: set[Triple] = set()
        self._objects: dict[tuple[int, int], set[int]] = {}
        self._subjects: dict[tuple[int, int], set[int]] = {}

    def add(self, t: Triple) -> None:
        if t in self._all:
            return
        self._all.add(t)
        s, p, o = t
        self._objects.setdefault((s, p), set()).add(o)
        self._subjects.setdefault((p, o), set()).add(s)

    def __contains__(self, t: Triple) -> bool:
        return t in self._all

    def __len__(self) -> int:
        return len(self._all)

    def objects_for(self, s: int, p: int) -> set[int]:
        return self._objects.get((s, p), set())

    def subjects_for(self, p: int, o: int) -> set[int]:
        return self._subjects.get((p, o), set())


def build_filter(*graphs: KnowledgeGraph) -> TrueTripleSet:
    """Union the triples of graphs sharing vocabularies into one filter set."""
    flt = TrueTripleSet()
    base = graphs[0] if graphs else None
    for g in graphs:
        if g.entity_vocab is not base.entity_vocab and g.entity_vocab != base.entity_vocab:
            raise VocabularyMismatchError("graphs do not share an entity vocabulary")
        if g.relation_vocab is not base.relation_vocab and g.relation_vocab != base.relation_vocab:
            raise VocabularyMismatchError("graphs do not share a relation vocabulary")
        for s, p, o in g.triples:
            flt.add((int(s), int(p), int(o)))
    return flt
