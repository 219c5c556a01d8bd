"""Seeded synthetic knowledge graphs at FB15K-237 and WN18RR shape.

For one shape and seed this writes, into a cache directory:

- ``train.tsv``: exactly the shape's triple count, with every entity and
  every relation occurring at least once and no duplicate triple;
- ``test.tsv``: held-out triples over the same vocabularies, disjoint from
  the training triples;
- ``teacher.kgex``: a random-init ComplEx teacher (k=100) saved with
  ``kgex.modelio.save_model``, vocabulary sidecars included.

Entity and relation ids are renumbered into first-appearance order, so the
ids ``kgex.graph.load_graph`` assigns equal the teacher's row order.  Entity
endpoints are drawn uniformly, which keeps degrees near their mean and the
sampled explanation subgraphs near the real datasets' sizes.

Run as ``python3 perfbench/gen.py <shape> <seed> <out_dir>``; the benchmark
calls it in a child process so that generation does not count towards the
benchmark process's peak memory.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from oracle import triple_keys


@dataclass(frozen=True)
class Shape:
    name: str
    triples: int
    entities: int
    relations: int
    test: int
    entity_fmt: str
    relation_fmt: str


SHAPES = {
    s.name: s
    for s in (
        Shape("fb237", 272_115, 14_541, 237, 20_466, "/m/0{:05x}", "/synthetic/domain_{:03d}/type/property"),
        Shape("wn18rr", 86_835, 40_943, 11, 3_134, "{:08d}", "_relation_{:02d}"),
        # tiny stand-ins of the same structure, for the smoke test
        Shape("fb237-tiny", 3_000, 300, 12, 200, "/m/0{:05x}", "/synthetic/domain_{:03d}/type/property"),
        Shape("wn18rr-tiny", 1_500, 600, 5, 100, "{:08d}", "_relation_{:02d}"),
    )
}

TEACHER_KIND = "complex"
TEACHER_K = 100
DONE_MARKER = "complete"


def keys(triples: np.ndarray, shape: Shape) -> np.ndarray:
    return triple_keys(triples, shape.entities, shape.relations)


def draw_train(shape: Shape, rng: np.random.Generator) -> np.ndarray:
    """Uniform triples covering every entity and relation, duplicates redrawn."""
    t, n_e, n_r = shape.triples, shape.entities, shape.relations
    ends = rng.integers(0, n_e, size=2 * t)  # subjects then objects
    p = rng.integers(0, n_r, size=t)
    # pin every entity to a distinct endpoint slot and every relation to a
    # distinct triple; pinned slots are never redrawn
    ent_pinned = rng.choice(2 * t, size=n_e, replace=False)
    ends[ent_pinned] = rng.permutation(n_e)
    rel_pinned = rng.choice(t, size=n_r, replace=False)
    p[rel_pinned] = rng.permutation(n_r)
    free_s = np.ones(t, bool)
    free_o = np.ones(t, bool)
    free_p = np.ones(t, bool)
    free_s[ent_pinned[ent_pinned < t]] = False
    free_o[ent_pinned[ent_pinned >= t] - t] = False
    free_p[rel_pinned] = False
    s, o = ends[:t], ends[t:]
    while True:
        _, first = np.unique(keys(np.stack([s, p, o], axis=1), shape), return_index=True)
        dup = np.ones(t, bool)
        dup[first] = False
        if not dup.any():
            break
        for i in np.flatnonzero(dup):
            if free_o[i]:
                o[i] = rng.integers(n_e)
            elif free_s[i]:
                s[i] = rng.integers(n_e)
            elif free_p[i]:
                p[i] = rng.integers(n_r)
            else:
                raise RuntimeError("duplicate triple with every slot pinned")
    return np.stack([s, p, o], axis=1)


def draw_test(shape: Shape, train: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Uniform triples absent from the training set, without duplicates."""
    train_keys = keys(train, shape)
    picked = np.empty((0, 3), dtype=np.int64)
    while len(picked) < shape.test:
        n = 2 * shape.test
        cand = np.stack(
            [
                rng.integers(0, shape.entities, n),
                rng.integers(0, shape.relations, n),
                rng.integers(0, shape.entities, n),
            ],
            axis=1,
        )
        cand = np.concatenate([picked, cand])
        _, first = np.unique(keys(cand, shape), return_index=True)
        first.sort()
        cand = cand[first]
        picked = cand[~np.isin(keys(cand, shape), train_keys)]
    return picked[: shape.test]


def first_appearance_order(ids: np.ndarray, n: int) -> np.ndarray:
    """Map old id -> new id so ids count up in order of first occurrence."""
    uniq, first = np.unique(ids, return_index=True)
    if len(uniq) != n:
        raise RuntimeError(f"{n - len(uniq)} ids never occur")
    remap = np.empty(n, dtype=np.int64)
    remap[uniq[np.argsort(first)]] = np.arange(n)
    return remap


def write_tsv(path: Path, triples: np.ndarray, ent: list[str], rel: list[str]) -> None:
    lines = [f"{ent[s]}\t{rel[p]}\t{ent[o]}\n" for s, p, o in triples.tolist()]
    path.write_text("".join(lines), encoding="utf-8")


def generate(shape_name: str, seed: int, out: Path) -> None:
    """Write train/test TSVs and the teacher for (shape, seed) into `out`."""
    from kgex.graph import Vocabulary
    from kgex.modelio import save_model
    from kgex.models import init_model

    shape = SHAPES[shape_name]
    root = np.random.SeedSequence([seed, *shape_name.encode()])
    train_seq, test_seq, teacher_seq = root.spawn(3)
    train = draw_train(shape, np.random.default_rng(train_seq))
    test = draw_test(shape, train, np.random.default_rng(test_seq))

    ent_map = first_appearance_order(train[:, [0, 2]].ravel(), shape.entities)
    rel_map = first_appearance_order(train[:, 1], shape.relations)
    for arr in (train, test):
        arr[:, 0] = ent_map[arr[:, 0]]
        arr[:, 1] = rel_map[arr[:, 1]]
        arr[:, 2] = ent_map[arr[:, 2]]
    ent = [shape.entity_fmt.format(i) for i in range(shape.entities)]
    rel = [shape.relation_fmt.format(i) for i in range(shape.relations)]

    out.mkdir(parents=True, exist_ok=True)
    write_tsv(out / "train.tsv", train, ent, rel)
    write_tsv(out / "test.tsv", test, ent, rel)
    ev, rv = Vocabulary(), Vocabulary()
    for label in ent:
        ev.add(label)
    for label in rel:
        rv.add(label)
    teacher = init_model(TEACHER_KIND, TEACHER_K, shape.entities, shape.relations, teacher_seq)
    save_model(teacher, out / "teacher.kgex", ev, rv)
    (out / DONE_MARKER).write_text("ok\n", encoding="utf-8")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
