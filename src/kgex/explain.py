"""Monte Carlo attribution of a link prediction to training triples.

A subgraph around the target is sampled once, then repeatedly partitioned;
each run trains a distilled student on one random subset and records the
rank the student assigns to the target.  A triple's contribution is the
average target rank over the runs whose subset contained it: lower average
rank means the triple tends to make the prediction succeed.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .distill import check_kd_lambda, check_teacher, train_student
from .evaluation import rank_triple
from .graph import KnowledgeGraph, Triple, TrueTripleSet, build_filter, graph_from_triples, label_rows
from .models import EmbeddingModel
from .sampling import Subgraph, SubgraphSpec, sample_subgraph
from .training import TrainConfig


@dataclass
class ExplainConfig:
    mc_runs: int = 100
    partitions: int = 10
    student: TrainConfig = field(default_factory=TrainConfig)
    kd_lambda: float = 3.0
    sampler: SubgraphSpec = field(default_factory=lambda: SubgraphSpec("pn", 5))
    seed: int = 0
    threads: int = 1

    def validate(self) -> None:
        if self.mc_runs < 1:
            raise ValueError("mc_runs must be >= 1")
        if self.partitions < 2:
            raise ValueError("partitions must be >= 2")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        check_kd_lambda(self.kd_lambda)
        self.student.validate()
        self.sampler.validate()


@dataclass
class RunRecord:
    """One Monte Carlo run: which subset was trained on and the target rank."""

    run: int
    positions: np.ndarray  # graph positions of the trained subset
    rank: float  # mean of the two side ranks, >= 1
    subject_rank: int
    object_rank: int


@dataclass
class ExplanationEntry:
    triple: Triple
    position: int  # position in the source graph (file order)
    rank_sum: float
    runs_containing: int

    @property
    def avg_target_rank(self) -> float:
        return self.rank_sum / self.runs_containing


@dataclass
class ExplanationReport:
    """Subgraph triples ranked by average target rank, plus never-run tail."""

    target: Triple
    entries: list[ExplanationEntry]
    tail: list[tuple[Triple, int]]  # (triple, graph position), never sampled
    records: list[RunRecord]
    provenance: dict


def partition_positions(
    positions: np.ndarray, k_parts: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Shuffle positions and split into k near-equal disjoint chunks."""
    if len(positions) < k_parts:
        raise ValueError(
            f"cannot partition {len(positions)} triples into {k_parts} subsets"
        )
    permuted = rng.permutation(positions)
    return np.array_split(permuted, k_parts)


def _derive_seed(master: int, *path: int) -> int:
    return int(np.random.SeedSequence([master, *path]).generate_state(1, np.uint64)[0])


def _run_once(teacher, triples, vocabs, target, student_cfg, kd_lambda, flt, plan) -> RunRecord:
    run, subset, seed = plan
    sub_graph = graph_from_triples(triples[subset], *vocabs)
    student = train_student(teacher, sub_graph, replace(student_cfg, seed=seed), kd_lambda)
    result = rank_triple(student, target, sub_graph.entities_in_triples(), flt)
    return RunRecord(run, subset, result.mean_rank, result.subject_rank, result.object_rank)


def mc_explain(
    teacher: EmbeddingModel,
    g: KnowledgeGraph,
    target: Triple,
    config: ExplainConfig,
    flt: TrueTripleSet | None = None,
) -> ExplanationReport:
    """Sample, partition, train students, and aggregate target ranks.

    The subgraph is sampled once per target.  Each cycle of `partitions` runs
    draws one seeded partition and takes its subsets in order, so every full
    cycle covers the subgraph.  Students corrupt and rank only over the entities
    of their own subset, so a subset with one entity is rejected before any
    run.  A run's plan is (run, subset, seed); the inputs all runs share (of
    the graph, its triples and vocabularies) are bound once and sent once to
    each of min(threads, runs, CPUs) processes, one chunk of plans each.
    """
    config.validate()
    check_teacher(teacher, g)
    seed = config.sampler.seed
    sampler = replace(config.sampler, seed=_derive_seed(config.seed, 0) if seed is None else seed)
    sub = sample_subgraph(g, target, sampler)
    if flt is None:
        flt = build_filter(g)

    plans = []
    for run in range(config.mc_runs):
        cycle, part = divmod(run, config.partitions)
        if part == 0:
            part_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1, cycle]))
            parts = partition_positions(sub.positions, config.partitions, part_rng)
        subset = np.sort(parts[part])
        if config.student.pool is None and len(np.unique(g.triples[subset][:, [0, 2]])) < 2:
            raise ValueError(f"run {run} would train on a subset with one entity, too few to corrupt; "
                             f"try fewer --partitions than {config.partitions} or a larger --n")
        plans.append((run, subset, _derive_seed(config.seed, 2, run)))
    run_plan = partial(
        _run_once, teacher, g.triples, (g.entity_vocab, g.relation_vocab), target,
        replace(config.student, focuse=None), config.kd_lambda, flt,
    )

    workers = min(config.threads, config.mc_runs, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool_exec:
            records = list(pool_exec.map(run_plan, plans, chunksize=-(-len(plans) // workers)))
    else:
        records = [run_plan(plan) for plan in plans]

    report = aggregate_contributions(records, sub)
    report.provenance.update(
        target=target, method=sampler.method, n=sampler.n, sampler_seed=sampler.seed,
        mc_runs=config.mc_runs, partitions=config.partitions, kd_lambda=config.kd_lambda,
        seed=config.seed, subgraph_size=len(sub),
    )
    return report


def aggregate_contributions(records: list[RunRecord], sub: Subgraph) -> ExplanationReport:
    """Average target rank per triple over the runs containing it.

    Each triple's rank sum adds the ranks of its runs in record order.
    Entries are sorted ascending by average rank (stronger contribution
    first); ties break toward more containing runs, then source file order.
    Subgraph triples never picked by any run go to the tail, unranked.
    """
    if not records:
        raise ValueError("no run records to aggregate")
    positions = np.concatenate([rec.positions for rec in records])
    ranks = np.repeat([rec.rank for rec in records], [len(rec.positions) for rec in records])
    seen, inverse = np.unique(positions, return_inverse=True)
    rank_sum = np.bincount(inverse, weights=ranks)
    count = np.bincount(inverse)

    entries = [
        ExplanationEntry(sub.source.triple_at(pos), pos, total, n)
        for pos, total, n in zip(seen.tolist(), rank_sum.tolist(), count.tolist())
    ]
    entries.sort(key=lambda e: (e.avg_target_rank, -e.runs_containing, e.position))
    tail = [(sub.source.triple_at(pos), pos) for pos in np.setdiff1d(sub.positions, seen).tolist()]
    return ExplanationReport(
        target=sub.target, entries=entries, tail=tail, records=records, provenance={}
    )


def write_report_tsv(report: ExplanationReport, g: KnowledgeGraph, path: str | Path) -> None:
    """Write the ranked explanation as TSV with `#` provenance headers."""
    triples = [report.target] + [e.triple for e in report.entries] + [t for t, _pos in report.tail]
    target, *rows = label_rows(triples, g.entity_vocab, g.relation_vocab)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# explanation report\n# target\t{target}\n")
        for key, value in sorted(report.provenance.items()):
            if key == "target":
                continue
            fh.write(f"# {key}\t{value}\n")
        fh.write("# columns\tposition\ts\tp\to\tavg_target_rank\truns_containing\n")
        for i, (e, row) in enumerate(zip(report.entries, rows), start=1):
            fh.write(f"{i}\t{row}\t{e.avg_target_rank:.6f}\t{e.runs_containing}\n")
        for row in rows[len(report.entries) :]:
            fh.write(f"-\t{row}\t-\t0\n")
