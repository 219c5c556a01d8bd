"""Triple store: TSV loading, vocabularies, adjacency indices, filter sets."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

Triple = tuple[int, int, int]

_NO_POSITIONS = np.empty(0, dtype=np.int64)


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
        idx = self.label_to_id.setdefault(label, len(self.labels))
        if idx == len(self.labels):
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
                try:
                    idx = int(parts[1])
                except ValueError as exc:
                    raise GraphFormatError(f"{path}:{lineno}: bad id {parts[1]!r}") from exc
                if vocab.add(parts[0]) != idx:
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
        _check_id(e, self.n_entities, "entity")
        return self.by_entity.get(e, _NO_POSITIONS)

    def predicate_positions(self, p: int) -> np.ndarray:
        _check_id(p, self.n_relations, "relation")
        return self.by_predicate.get(p, _NO_POSITIONS)

    def entities_in_triples(self) -> np.ndarray:
        """Sorted unique entity ids occurring as subject or object."""
        return _sorted_unique(self.triples[:, [0, 2]].ravel())


def _check_id(idx: int, size: int, what: str) -> None:
    if not 0 <= idx < size:
        raise IndexError(f"{what} id {idx} outside vocabulary of size {size}")


def _triple_keys(triples: np.ndarray, n_entities: int, n_relations: int) -> np.ndarray:
    """The int64 key `(s·R + p)·E + o` of each (s, p, o) row; unique per triple."""
    if int(n_entities) ** 2 * int(n_relations) > 2**63:
        raise ValueError(f"E²·R = {n_entities}²·{n_relations} overflows the int64 triple key")
    s, p, o = triples.T
    return (s * n_relations + p) * n_entities + o


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=keys[:1] - 1) != 0]


def _group_positions(ids: np.ndarray, positions: np.ndarray) -> dict[int, np.ndarray]:
    """`{id: sorted positions}` from parallel arrays of ids and positions."""
    n = len(positions) + 1  # exceeds every position
    ids, positions = np.divmod(np.sort(ids * n + positions), n)  # by id, then position
    starts = np.flatnonzero(np.diff(ids, prepend=-1))
    return dict(zip(ids[starts].tolist(), np.split(positions, starts[1:])))


def _indexed_graph(
    triples: np.ndarray, entity_vocab: Vocabulary, relation_vocab: Vocabulary, **fields
) -> KnowledgeGraph:
    """A graph over an (n, 3) id array, with its entity and predicate indices."""
    positions = np.arange(len(triples), dtype=np.int64)
    s, p, o = triples.T
    distinct = s != o  # a self-loop is incident to its entity once
    by_entity = _group_positions(np.r_[s, o[distinct]], np.r_[positions, positions[distinct]])
    by_predicate = _group_positions(p, positions)
    return KnowledgeGraph(triples, entity_vocab, relation_vocab, by_entity, by_predicate, **fields)


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


def _normalize_weights(weights: np.ndarray, policy: str) -> np.ndarray:
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
        ev, rv = entity_vocab.add, relation_vocab.add
        mapped = [(ev(s), rv(p), ev(o)) for s, p, o in rows]
    else:  # unseen labels map to -1
        ev, rv = entity_vocab.label_to_id, relation_vocab.label_to_id
        mapped = [(ev.get(s, -1), rv.get(p, -1), ev.get(o, -1)) for s, p, o in rows]
    ids = np.array(mapped, dtype=np.int64).reshape(-1, 3)
    known = (ids >= 0).all(axis=1)
    ids = ids[known]
    keys = _triple_keys(ids, len(entity_vocab), len(relation_vocab))
    first = np.sort(np.unique(keys, return_index=True)[1])  # first occurrences, file order
    arr = ids[first]
    if has_weights:
        weights = _normalize_weights(np.asarray(weights)[known][first], weight_policy)
    return _indexed_graph(
        arr, entity_vocab, relation_vocab, weights=weights if has_weights else None,
        duplicates_dropped=len(ids) - len(arr), oov_skipped=len(known) - len(ids),
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
    sizes = (len(entity_vocab), len(relation_vocab), len(entity_vocab))
    if not ((arr >= 0) & (arr < sizes)).all():
        raise IndexError("triple ids outside the vocabularies")
    weights = None if weights is None else np.asarray(weights, dtype=np.float64)
    return _indexed_graph(arr, entity_vocab, relation_vocab, weights=weights)


def triple_of_labels(
    labels, entity_vocab: Vocabulary, relation_vocab: Vocabulary, where: str = ""
) -> Triple:
    """The id triple of `(s, p, o)` labels; the error names the first unknown label."""
    vocabs = (entity_vocab, relation_vocab, entity_vocab)
    for label, vocab, what in zip(labels, vocabs, ("entity", "relation", "entity")):
        if label not in vocab:
            raise GraphFormatError(f"{where}unknown {what} label {label!r}")
    return tuple(vocab.id_of(label) for label, vocab in zip(labels, vocabs))


def one_hop_positions(g: KnowledgeGraph, s: int, o: int) -> np.ndarray:
    """Sorted positions of triples incident (as subject or object) to s or o."""
    return np.union1d(g.entity_positions(s), g.entity_positions(o))


class TrueTripleSet:
    """Known true triples for filtered ranking, as two sorted unique key arrays.

    The keys of (s, p, o) hold the objects of each (s, p) in one contiguous
    run, and the keys of (o, p, s) the subjects of each (p, o).
    """

    def __init__(self, triples: np.ndarray, n_entities: int, n_relations: int) -> None:
        triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        self.n_entities, self.n_relations = n_entities, n_relations
        self._by_subject = _sorted_unique(_triple_keys(triples, n_entities, n_relations))
        self._by_object = _sorted_unique(_triple_keys(triples[:, ::-1], n_entities, n_relations))

    def __contains__(self, t: Triple) -> bool:
        s, p, o = t
        return bool(np.isin(o, self._run(self._by_subject, s, p)))

    def __len__(self) -> int:
        return len(self._by_subject)

    def objects_for(self, s: int, p: int) -> np.ndarray:
        """Sorted ids o with (s, p, o) known; empty for ids outside the vocabularies."""
        return self._run(self._by_subject, s, p)

    def subjects_for(self, p: int, o: int) -> np.ndarray:
        """Sorted ids s with (s, p, o) known; empty for ids outside the vocabularies."""
        return self._run(self._by_object, o, p)

    def _run(self, keys: np.ndarray, e: int, p: int) -> np.ndarray:
        if not (0 <= e < self.n_entities and 0 <= p < self.n_relations):
            return keys[:0]
        base = (int(e) * self.n_relations + int(p)) * self.n_entities
        lo = np.searchsorted(keys, base)
        hi = np.searchsorted(keys, base + self.n_entities - 1, side="right")
        return keys[lo:hi] - base


def build_filter(*graphs: KnowledgeGraph) -> TrueTripleSet:
    """Union the triples of graphs sharing vocabularies into one filter set."""
    if not graphs:
        return TrueTripleSet(np.empty((0, 3), dtype=np.int64), 0, 0)
    base = graphs[0]
    for g in graphs:
        if g.entity_vocab is not base.entity_vocab and g.entity_vocab != base.entity_vocab:
            raise VocabularyMismatchError("graphs do not share an entity vocabulary")
        if g.relation_vocab is not base.relation_vocab and g.relation_vocab != base.relation_vocab:
            raise VocabularyMismatchError("graphs do not share a relation vocabulary")
    triples = np.concatenate([g.triples for g in graphs])
    return TrueTripleSet(triples, base.n_entities, base.n_relations)
