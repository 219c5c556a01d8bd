"""Triple store: TSV loading, vocabularies, adjacency indices, filter sets."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import count, repeat
from pathlib import Path

import numpy as np

Triple = tuple[int, int, int]

_NO_POSITIONS = np.empty(0, dtype=np.int64)
_NO_POSITIONS.flags.writeable = False

# bytes of whole lines read at a time: a block's strings take about 12 bytes a byte, 3 MiB,
# against 12 MiB for 1 MiB blocks, which loaded FB15K-237 no faster (2-vCPU x86 VM)
_BLOCK_BYTES = 1 << 18


class GraphFormatError(ValueError):
    """Raised for malformed triple files (bad column count, bad weight)."""


class WeightRangeError(GraphFormatError):
    """Raised when a numeric weight falls outside [0, 1] under strict policy."""


class VocabularyMismatchError(ValueError):
    """Raised when graphs that must share vocabularies do not."""


class Vocabulary:
    """Bijective label <-> dense id map, ids assigned in first-appearance order."""

    def __init__(self, labels=()) -> None:
        self.label_to_id: dict[str, int] = {}
        self.labels: list[str] = []
        self.ids_of(list(labels), grow=True)

    def add(self, label: str) -> int:
        idx = self.label_to_id.setdefault(label, len(self.labels))
        if idx == len(self.labels):
            self.labels.append(label)
        return idx

    def ids_of(self, labels, grow: bool = False) -> np.ndarray:
        """The int64 id of each label of the list `labels`, -1 for an unseen one; `grow`
        first adds the unseen labels, in first-appearance order."""
        ids = np.fromiter(map(self.label_to_id.get, labels, repeat(-1)), np.int64, len(labels))
        if grow and (unseen := np.flatnonzero(ids < 0)).size:
            fresh = [labels[i] for i in unseen.tolist()]
            added = list(dict.fromkeys(fresh))
            self.label_to_id.update(zip(added, count(len(self.labels))))
            self.labels.extend(added)
            ids[unseen] = np.fromiter(map(self.label_to_id.__getitem__, fresh), np.int64, len(fresh))
        return ids

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
                if parts[0] in vocab:
                    raise GraphFormatError(f"{path}:{lineno}: duplicate label {parts[0]!r}")
                if vocab.add(parts[0]) != idx:
                    raise GraphFormatError(f"{path}:{lineno}: ids not contiguous")
        return vocab


@dataclass
class KnowledgeGraph:
    """Immutable triple store with entity/predicate indices built on first read.

    `triples` is an (n, 3) int64 array of (subject, predicate, object) ids in
    file order after deduplication.  `by_entity[e]` / `by_predicate[p]` hold
    the sorted positions of triples incident to entity e / labelled p as read-only
    views of one int64 array: an index keeps one int64 per incidence (a self-loop
    is incident once) and a view, about 170 bytes, per id; its build holds at most
    one more int64 and one byte per triple besides.
    Instances are not mutated after load; concurrent reads are safe (threads
    racing on an index's first read may each build the same dict).
    """

    triples: np.ndarray
    entity_vocab: Vocabulary
    relation_vocab: Vocabulary
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

    @cached_property
    def by_entity(self) -> dict[int, np.ndarray]:
        s, o = self.triples[:, 0], self.triples[:, 2]
        # a self-loop is incident to its entity once
        return _group_positions(self.n_triples, [(s, None), (o, s != o)])

    @cached_property
    def by_predicate(self) -> dict[int, np.ndarray]:
        return _group_positions(self.n_triples, [(self.triples[:, 1], None)])

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


def _group_positions(n: int, parts) -> dict[int, np.ndarray]:
    """`{id: sorted positions}` from `(ids, mask)` parts: the ids of positions `0..n-1`,
    those where the boolean `mask` is true, or all where it is None.

    One int64 key `id·(n + 1) + position` per incidence is filled part by part, sorted
    and turned into positions, all in place; each id's positions are a read-only view of it.
    """
    sizes = [n if mask is None else np.count_nonzero(mask) for _, mask in parts]
    key = np.empty(sum(sizes), dtype=np.int64)
    for (ids, mask), part in zip(parts, np.split(key, np.cumsum(sizes)[:-1])):
        np.multiply(ids if mask is None else ids[mask], n + 1, out=part)
        part += np.arange(n) if mask is None else np.flatnonzero(mask)
    key.sort()  # by id, then position
    # id i's keys are at [bounds[i], bounds[i + 1]), for every id up to the largest
    bounds = np.searchsorted(key, np.arange(0, key.max(initial=0) + n + 2, n + 1))
    np.remainder(key, n + 1, out=key)
    key.flags.writeable = False
    present = np.flatnonzero(np.diff(bounds))
    return dict(zip(present.tolist(), np.split(key, bounds[present[1:]])))


def _raise_first_bad_line(path, lines, lineno: int, n_cols: int, weight_policy: str) -> None:
    """Raise the error of the first malformed line of a block that starts at `lineno`."""
    for lineno, line in enumerate(lines, start=lineno):
        parts, where = line.rstrip("\n").split("\t"), f"{path}:{lineno}:"
        if len(parts) != n_cols:
            raise GraphFormatError(f"{where} expected {n_cols} tab-separated columns, got {len(parts)}")
        try:
            w = float(parts[3]) if n_cols == 4 else 0.0
        except ValueError:
            w = np.nan
        if _unusable(w, weight_policy):
            raise GraphFormatError(f"{where} bad weight {parts[3]!r}")
        if (w < 0.0 or w > 1.0) and weight_policy == "strict":
            raise WeightRangeError(f"{where} weight {w} outside [0, 1] (strict policy)")


def _block_columns(lines, n_cols: int, weight_policy: str) -> tuple[list, list, np.ndarray]:
    """A block's s/o labels (s0, o0, s1, o1, ...), predicate labels and weights.

    Raises ValueError if any line of the block is malformed.
    """
    if (np.fromiter(map(str.count, lines, repeat("\t")), np.int64, len(lines)) != n_cols - 1).any():
        raise ValueError("column count")
    fields = "".join(lines).replace("\n", "\t").split("\t")[: len(lines) * n_cols]  # no final ""
    weights = np.fromiter(map(float, fields[3::4] if n_cols == 4 else ()), np.float64)
    if _unusable(weights, weight_policy).any():
        raise ValueError("bad weight")
    if weight_policy == "strict" and ((weights < 0.0) | (weights > 1.0)).any():
        raise ValueError("weight range")
    ends = [""] * (2 * len(lines))
    ends[0::2], ends[1::2] = fields[0::n_cols], fields[2::n_cols]
    return ends, fields[1::n_cols], weights


def _unusable(weights, policy: str):
    """Where a weight is NaN, or infinite under `minmax`: no policy maps it into [0, 1]."""
    return np.isnan(weights) | ((policy == "minmax") & np.isinf(weights))


def _normalize_weights(weights: np.ndarray, policy: str) -> np.ndarray:
    arr = np.asarray(weights, dtype=np.float64)
    if policy == "clamp":
        arr = np.clip(arr, 0.0, 1.0)
    elif policy == "minmax" and len(arr):
        lo, hi = arr.min(), arr.max()
        # in halves, exact outside the subnormals: hi - lo itself may overflow
        arr = np.zeros_like(arr) if hi == lo else (arr / 2 - lo / 2) / (hi / 2 - lo / 2)
    return arr


def _ingest(
    path, entity_vocab: Vocabulary, relation_vocab: Vocabulary, grow: bool,
    has_weights: bool, weight_policy: str,
) -> KnowledgeGraph:
    """Parse, map labels to ids and deduplicate one triple file, block by block.

    With `grow`, unseen labels are added to the vocabularies; otherwise a
    triple with an unseen label is skipped and counted in `oov_skipped`.  An
    error names the first malformed line; only a block holding one is scanned
    line by line to find it.
    """
    if weight_policy not in ("strict", "clamp", "minmax"):
        raise ValueError(f"unknown weight policy {weight_policy!r}")
    n_cols = 4 if has_weights else 3
    id_blocks, weight_blocks, lineno = [], [np.empty(0)] if has_weights else [], 1
    with open(path, encoding="utf-8") as fh:
        while lines := fh.readlines(_BLOCK_BYTES):  # whole lines, in file order
            try:
                ends, predicates, weights = _block_columns(lines, n_cols, weight_policy)
            except ValueError:
                _raise_first_bad_line(path, lines, lineno, n_cols, weight_policy)
            lineno += len(lines)
            ids = np.empty((len(lines), 3), dtype=np.int64)
            ids[:, ::2] = entity_vocab.ids_of(ends, grow).reshape(-1, 2)
            ids[:, 1] = relation_vocab.ids_of(predicates, grow)
            known = (ids >= 0).all(axis=1)  # a row with an unseen label is skipped
            id_blocks.append(ids[known])
            if has_weights:
                weight_blocks.append(weights[known])
    n_known = sum(map(len, id_blocks))
    arr, weights = _distinct_rows(id_blocks, weight_blocks, len(entity_vocab), len(relation_vocab))
    return KnowledgeGraph(
        arr, entity_vocab, relation_vocab,
        weights=None if weights is None else _normalize_weights(weights, weight_policy),
        duplicates_dropped=n_known - len(arr), oov_skipped=lineno - 1 - n_known,
    )


def _distinct_rows(id_blocks: list, weight_blocks: list, n_entities: int, n_relations: int):
    """The first occurrence of each distinct row of the id blocks, in row order, and its weight.

    The blocks give way to their rows' keys one by one, and the kept rows are
    decoded from their keys, so at most 32 bytes a row are held at once: a
    key, its sort order, its sorted copy and the sort's buffer, or a kept
    key and its decoded row.
    """
    for i, ids in enumerate(id_blocks):
        id_blocks[i] = _triple_keys(ids, n_entities, n_relations)
    keys = np.concatenate([np.empty(0, dtype=np.int64), *id_blocks])
    id_blocks.clear()
    order = np.argsort(keys, kind="stable")  # the copies of a key in row order
    ranked = keys[order]
    new = np.r_[True, ranked[1:] != ranked[:-1]][: len(keys)]
    del ranked
    first = order[new]
    del order
    first.sort()
    weights = np.concatenate(weight_blocks)[first] if weight_blocks else None
    keys = keys[first]
    del first
    rows = np.empty((len(keys), 3), dtype=np.int64)
    np.divmod(keys, n_entities, out=(rows[:, 0], rows[:, 2]))  # s·R + p, o
    np.divmod(rows[:, 0], n_relations, out=(rows[:, 0], rows[:, 1]))
    return rows, weights


def load_graph(
    path: str | Path,
    has_weights: bool = False,
    weight_policy: str = "strict",
) -> KnowledgeGraph:
    """Load a `s<TAB>p<TAB>o[<TAB>w]` file and build vocabularies and indices.

    Vocabulary ids are assigned in first-appearance order; duplicate triples
    are dropped (count kept in `duplicates_dropped`).  `weight_policy` is one
    of `strict` (out-of-range weight is an error), `clamp`, or `minmax`
    (an infinite weight is an error); a NaN weight is an error under each.
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
) -> KnowledgeGraph:
    """Wrap an id-triple array (sharing existing vocabularies) as an unweighted graph."""
    arr = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    sizes = (len(entity_vocab), len(relation_vocab), len(entity_vocab))
    if not ((arr >= 0) & (arr < sizes)).all():
        raise IndexError("triple ids outside the vocabularies")
    return KnowledgeGraph(arr, entity_vocab, relation_vocab)


def triple_of_labels(
    labels, entity_vocab: Vocabulary, relation_vocab: Vocabulary, where: str = ""
) -> Triple:
    """The id triple of `(s, p, o)` labels; the error names the first unknown label."""
    vocabs = (entity_vocab, relation_vocab, entity_vocab)
    for label, vocab, what in zip(labels, vocabs, ("entity", "relation", "entity")):
        if label not in vocab:
            raise GraphFormatError(f"{where}unknown {what} label {label!r}")
    return tuple(vocab.id_of(label) for label, vocab in zip(labels, vocabs))


def label_rows(triples, entity_vocab: Vocabulary, relation_vocab: Vocabulary) -> list[str]:
    """The `s<TAB>p<TAB>o` labels of each id triple, one string per triple."""
    ent, rel = entity_vocab.labels, relation_vocab.labels
    return [f"{ent[s]}\t{rel[p]}\t{ent[o]}" for s, p, o in np.asarray(triples).reshape(-1, 3).tolist()]


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
