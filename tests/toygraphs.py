"""Synthetic graphs shared across tests."""

from __future__ import annotations

import numpy as np

from kgex.graph import KnowledgeGraph, Vocabulary, graph_from_triples

# A, B, C, D / r1, r2 demo graph used throughout the sampler and index tests.
DEMO_TRIPLES = [("A", "r1", "B"), ("B", "r1", "C"), ("A", "r2", "C"), ("D", "r1", "A"), ("C", "r2", "D")]


def demo_graph(extra_entities: int = 0, extra_relations: int = 0) -> KnowledgeGraph:
    ev, rv = Vocabulary(), Vocabulary()
    ids = []
    for s, p, o in DEMO_TRIPLES:
        ids.append((ev.add(s), rv.add(p), ev.add(o)))
    for i in range(extra_entities):
        ev.add(f"isolated{i}")
    for i in range(extra_relations):
        rv.add(f"unused{i}")
    return graph_from_triples(ids, ev, rv)


def numbered_vocabularies(n_entities: int, n_relations: int) -> tuple[Vocabulary, Vocabulary]:
    """Vocabularies e0..e{n-1} and r0..r{m-1}, so label ei has id i."""
    ev, rv = Vocabulary(), Vocabulary()
    for e in range(n_entities):
        ev.add(f"e{e}")
    for r in range(n_relations):
        rv.add(f"r{r}")
    return ev, rv


def label_graph(triples: list[tuple[str, str, str]]) -> KnowledgeGraph:
    ev, rv = Vocabulary(), Vocabulary()
    ids = [(ev.add(s), rv.add(p), ev.add(o)) for s, p, o in triples]
    return graph_from_triples(ids, ev, rv)


def block_graph(
    n_entities: int,
    n_blocks: int,
    n_relations: int,
    n_train: int,
    n_test: int,
    seed: int,
) -> tuple[KnowledgeGraph, np.ndarray]:
    """Layered block graph: relation r points block b at block b + r + 1.

    The mapping is acyclic on purpose so that translation models can realize
    it exactly (block centers on a line, one offset per relation).  Returns
    the training graph (full vocabularies) and a held-out array of positive
    triples disjoint from the training set but following the same structure.
    """
    rng = np.random.default_rng(seed)
    block = lambda e: e % n_blocks
    candidates = [
        (s, r, o)
        for s in range(n_entities)
        for r in range(n_relations)
        for o in range(n_entities)
        if o != s and block(s) + r + 1 < n_blocks and block(o) == block(s) + r + 1
    ]
    if n_train + n_test > len(candidates):
        raise ValueError("not enough structured triples available")
    picked = rng.choice(len(candidates), size=n_train + n_test, replace=False)
    chosen = [candidates[i] for i in picked]
    train, test = chosen[:n_train], chosen[n_train:]

    ev, rv = numbered_vocabularies(n_entities, n_relations)
    g = graph_from_triples(train, ev, rv)
    return g, np.asarray(test, dtype=np.int64)


def random_graph(n_entities: int, n_relations: int, n_triples: int, seed: int) -> KnowledgeGraph:
    rng = np.random.default_rng(seed)
    seen = set()
    while len(seen) < n_triples:
        seen.add(
            (int(rng.integers(n_entities)), int(rng.integers(n_relations)), int(rng.integers(n_entities)))
        )
    ev, rv = numbered_vocabularies(n_entities, n_relations)
    return graph_from_triples(sorted(seen), ev, rv)
