"""Subgraph samplers around a target triple.

Both methods start from the 1-hop neighborhood of the target's subject and
object.  Predicate-neighborhood sampling additionally unions the 1-hop
neighborhoods of n same-predicate triples drawn with replacement; random-walk
sampling appends the triples visited by an n-step naive walk that hops from
the current triple's endpoints.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import (
    GraphFormatError, KnowledgeGraph, Triple, label_rows, one_hop_positions, triple_of_labels,
)

logger = logging.getLogger(__name__)


@dataclass
class SubgraphSpec:
    method: str  # "pn" or "rw"
    n: int
    seed: int | None = None  # None lets the caller derive one

    def validate(self) -> None:
        if self.method not in ("pn", "rw"):
            raise ValueError(f"unknown sampling method {self.method!r}")
        if self.n < 0:
            raise ValueError("neighbor/step count must be >= 0")


@dataclass
class Subgraph:
    """Sampled triple subset plus the provenance needed to reproduce it."""

    positions: np.ndarray  # sorted positions into the source graph
    source: KnowledgeGraph
    target: Triple
    spec: SubgraphSpec
    steps_taken: int | None = None  # random walk only;< n when the walk died

    def __len__(self) -> int:
        return len(self.positions)

    def triple_array(self) -> np.ndarray:
        return self.source.triples[self.positions]


def sample_pn(
    g: KnowledgeGraph, target: Triple, n: int, rng: np.random.Generator
) -> Subgraph:
    """Predicate-neighborhood sampling.

    Unions the target endpoints' 1-hop neighborhood with the neighborhoods of
    n triples sharing the target's predicate, drawn uniformly with
    replacement.  If the predicate has no triples the 1-hop neighborhood is
    returned with a warning.  Drawing stops once every endpoint of the
    predicate's triples is in, so `rng` may take fewer than n draws.
    """
    s, p, o = target
    endpoints = {s, o}
    predicate_pool = g.predicate_positions(p)
    if n > 0 and len(predicate_pool) == 0:
        logger.warning(
            "predicate %d has no triples; subgraph falls back to the 1-hop neighborhood", p
        )
    complete = len(np.union1d(g.triples[predicate_pool][:, [0, 2]], [s, o]))  # later draws add none
    for _ in range(n):
        if len(endpoints) == complete:
            break
        pos = int(predicate_pool[rng.integers(len(predicate_pool))])
        s_hat, _, o_hat = g.triple_at(pos)
        endpoints.update((s_hat, o_hat))
    positions = np.unique(np.concatenate([g.entity_positions(e) for e in endpoints]))
    return Subgraph(positions, g, target, SubgraphSpec("pn", n))


def sample_rw(
    g: KnowledgeGraph, target: Triple, n: int, rng: np.random.Generator
) -> Subgraph:
    """Random-walk sampling.

    Starts the walk at the target triple; each step draws uniformly from the
    1-hop neighborhood of the current triple's endpoints, adds the draw, and
    makes it the new origin.  An isolated origin terminates the walk early.
    """
    origin, walked = target, []
    for _ in range(n):
        neighborhood = one_hop_positions(g, origin[0], origin[2])
        if len(neighborhood) == 0:
            break
        walked.append(int(neighborhood[rng.integers(len(neighborhood))]))
        origin = g.triple_at(walked[-1])
    positions = np.union1d(one_hop_positions(g, target[0], target[2]), np.array(walked, dtype=np.int64))
    return Subgraph(positions, g, target, SubgraphSpec("rw", n), steps_taken=len(walked))


def sample_subgraph(g: KnowledgeGraph, target: Triple, spec: SubgraphSpec) -> Subgraph:
    """Dispatch on the spec's method with a generator seeded from the spec."""
    spec.validate()
    if spec.seed is None:
        raise ValueError("subgraph spec needs a concrete seed")
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    sub = (sample_pn if spec.method == "pn" else sample_rw)(g, target, spec.n, rng)
    sub.spec = SubgraphSpec(spec.method, spec.n, spec.seed)
    return sub


def write_subgraph_tsv(sub: Subgraph, path: str | Path) -> None:
    """Dump sampled triples as labels, with `#` provenance header lines."""
    g, spec = sub.source, sub.spec
    target, *rows = label_rows(np.vstack([sub.target, sub.triple_array()]), g.entity_vocab, g.relation_vocab)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# subgraph method={spec.method} n={spec.n} seed={spec.seed}\n")
        fh.write(f"# target\t{target}\n# triples\t{len(sub)}\n")
        fh.writelines(row + "\n" for row in rows)


def read_subgraph_tsv(path: str | Path, entity_vocab, relation_vocab) -> list[Triple]:
    """Read a subgraph TSV back into id triples, skipping `#` header lines: a `#` line of
    3 tab-separated fields is a triple (the writer's headers have 1, 4 and 2 fields)."""
    triples: list[Triple] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split("\t")
            if line.startswith("#") and len(parts) != 3:
                continue
            if len(parts) != 3:
                raise GraphFormatError(f"{path}:{lineno}: expected 3 columns")
            triples.append(triple_of_labels(parts, entity_vocab, relation_vocab, f"{path}:{lineno}: "))
    return triples
