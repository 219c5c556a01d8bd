"""Binary model persistence with vocabulary sidecar files.

Layout: magic `KGEX1`, then kind tag, k, |E|, |R| as unsigned 64-bit
little-endian, then the model's (|E| + |R|, d) table, entity rows first, as
row-major little-endian float64.  Vocabularies travel in `<path>.entities.tsv`
and `<path>.relations.tsv` sidecars.
"""

from __future__ import annotations

import os
import stat
import struct
from pathlib import Path

import numpy as np

from .graph import Vocabulary
from .models import EmbeddingModel, ModelKind

MAGIC = b"KGEX1"

_KIND_TAGS = {
    ModelKind.TRANSE_L1: 1,
    ModelKind.TRANSE_L2: 2,
    ModelKind.DISTMULT: 3,
    ModelKind.COMPLEX: 4,
}
_TAG_KINDS = {v: k for k, v in _KIND_TAGS.items()}


class ModelFormatError(ValueError):
    """Raised for bad magic, unknown kind tags, truncated files, or mismatched sidecars."""


def entity_sidecar(path: str | Path) -> Path:
    return Path(str(path) + ".entities.tsv")


def relation_sidecar(path: str | Path) -> Path:
    return Path(str(path) + ".relations.tsv")


def save_model(
    model: EmbeddingModel,
    path: str | Path,
    entity_vocab: Vocabulary | None = None,
    relation_vocab: Vocabulary | None = None,
) -> None:
    """Write the model file and, when vocabularies are given, the sidecars."""
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<4Q", _KIND_TAGS[model.kind], model.k, model.n_entities, model.n_relations))
        fh.write(np.ascontiguousarray(model.table, dtype="<f8").tobytes())
    if entity_vocab is not None:
        entity_vocab.dump(entity_sidecar(path))
    if relation_vocab is not None:
        relation_vocab.dump(relation_sidecar(path))


def load_model(
    path: str | Path,
) -> tuple[EmbeddingModel, Vocabulary | None, Vocabulary | None]:
    """Read a model file; sidecar vocabularies are returned when present
    and must have one label per table row."""
    path = Path(path)
    with open(path, "rb") as fh:  # the table is read straight into its array: one copy held
        header_end = len(MAGIC) + 32
        head = fh.read(header_end)
        if head[: len(MAGIC)] != MAGIC:
            raise ModelFormatError(f"{path}: bad magic; not a model file")
        if len(head) < header_end:
            raise ModelFormatError(f"{path}: truncated header")
        tag, k, n_entities, n_relations = struct.unpack("<4Q", head[len(MAGIC) :])
        if tag not in _TAG_KINDS:
            raise ModelFormatError(f"{path}: unknown model kind tag {tag}")
        if 0 in (k, n_entities, n_relations):  # sizes `init_model` refuses
            raise ModelFormatError(f"{path}: k, |E| and |R| must each be >= 1, found {k}, {n_entities}, {n_relations}")
        kind = _TAG_KINDS[tag]
        width = k * kind.row_width_factor
        expected, size = header_end + (n_entities + n_relations) * width * 8, os.fstat(fh.fileno())
        # a regular file's size is checked before the table is made; a pipe's is counted as read
        found = size.st_size if stat.S_ISREG(size.st_mode) else expected
        if found == expected:
            table = np.empty((n_entities + n_relations, width), dtype="<f8")
            found = header_end + fh.readinto(table)
            while rest := fh.read(1 << 16):  # trailing data
                found += len(rest)
        if found != expected:
            raise ModelFormatError(
                f"{path}: expected {expected} bytes, found {found} (truncated or trailing data)"
            )
    model = EmbeddingModel(kind, k, table.astype(np.float64, copy=False), n_entities)

    entity_vocab = _load_sidecar(entity_sidecar(path), n_entities, "entity")
    relation_vocab = _load_sidecar(relation_sidecar(path), n_relations, "relation")
    return model, entity_vocab, relation_vocab


def _load_sidecar(sidecar: Path, rows: int, what: str) -> Vocabulary | None:
    if not sidecar.exists():
        return None
    vocab = Vocabulary.load(sidecar)
    if len(vocab) != rows:
        raise ModelFormatError(
            f"{sidecar}: {len(vocab)} {what} labels, but the model has {rows} {what} rows"
        )
    return vocab
