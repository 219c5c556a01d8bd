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
from pathlib import Path

import numpy as np

from .distill import train_student
from .evaluation import rank_triple
from .graph import KnowledgeGraph, Triple, TrueTripleSet, build_filter, graph_from_triples
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


def _run_once(args) -> RunRecord:
    (run, teacher, g, target, subset, student_cfg, kd_lambda, flt) = args
    sub_graph = graph_from_triples(g.triples[subset], g.entity_vocab, g.relation_vocab)
    student = train_student(teacher, sub_graph, student_cfg, kd_lambda)
    result = rank_triple(student, target, sub_graph.entities_in_triples(), flt)
    return RunRecord(
        run=run,
        positions=subset,
        rank=result.mean_rank,
        subject_rank=result.subject_rank,
        object_rank=result.object_rank,
    )


def mc_explain(
    teacher: EmbeddingModel,
    g: KnowledgeGraph,
    target: Triple,
    config: ExplainConfig,
    flt: TrueTripleSet | None = None,
) -> ExplanationReport:
    """Sample, partition, train students, and aggregate target ranks.

    The subgraph is sampled once per target.  Each cycle of `partitions` runs
    shares one freshly seeded partition and walks its subsets round-robin, so
    every cycle covers the whole subgraph.  Students corrupt and rank only
    over the entities of their own subset.  Runs are independent and may run in
    min(threads, runs, CPUs) processes; the report does not depend on scheduling.
    """
    config.validate()
    sampler_seed = (
        config.sampler.seed
        if config.sampler.seed is not None
        else _derive_seed(config.seed, 0)
    )
    sampler = SubgraphSpec(config.sampler.method, config.sampler.n, sampler_seed)
    sub = sample_subgraph(g, target, sampler)
    if flt is None:
        flt = build_filter(g)

    tasks = []
    for run in range(config.mc_runs):
        # one fresh partition per cycle of `partitions` runs; the runs of a
        # cycle walk its subsets round-robin, so every cycle covers H fully
        cycle = run // config.partitions
        part_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1, cycle]))
        parts = partition_positions(sub.positions, config.partitions, part_rng)
        subset = np.sort(parts[run % config.partitions])
        cfg = replace(config.student, seed=_derive_seed(config.seed, 2, run), focuse=None)
        tasks.append((run, teacher, g, target, subset, cfg, config.kd_lambda, flt))

    workers = min(config.threads, config.mc_runs, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool_exec:
            records = list(pool_exec.map(_run_once, tasks))
    else:
        records = [_run_once(t) for t in tasks]
    records.sort(key=lambda r: r.run)

    report = aggregate_contributions(records, sub)
    report.provenance.update(
        {
            "target": target,
            "method": sampler.method,
            "n": sampler.n,
            "sampler_seed": sampler.seed,
            "mc_runs": config.mc_runs,
            "partitions": config.partitions,
            "kd_lambda": config.kd_lambda,
            "seed": config.seed,
            "subgraph_size": len(sub),
        }
    )
    return report


def aggregate_contributions(records: list[RunRecord], sub: Subgraph) -> ExplanationReport:
    """Average target rank per triple over the runs containing it.

    Entries are sorted ascending by average rank (stronger contribution
    first); ties break toward more containing runs, then source file order.
    Subgraph triples never picked by any run go to the tail, unranked.
    """
    if not records:
        raise ValueError("no run records to aggregate")
    rank_sum: dict[int, float] = {}
    count: dict[int, int] = {}
    for rec in records:
        for pos in rec.positions:
            pos = int(pos)
            rank_sum[pos] = rank_sum.get(pos, 0.0) + rec.rank
            count[pos] = count.get(pos, 0) + 1

    entries = [
        ExplanationEntry(
            triple=sub.source.triple_at(pos),
            position=pos,
            rank_sum=rank_sum[pos],
            runs_containing=count[pos],
        )
        for pos in sorted(count)
    ]
    entries.sort(key=lambda e: (e.avg_target_rank, -e.runs_containing, e.position))
    tail = [
        (sub.source.triple_at(int(pos)), int(pos))
        for pos in sub.positions
        if int(pos) not in count
    ]
    return ExplanationReport(
        target=sub.target, entries=entries, tail=tail, records=records, provenance={}
    )


def write_report_tsv(report: ExplanationReport, g: KnowledgeGraph, path: str | Path) -> None:
    """Write the ranked explanation as TSV with `#` provenance headers."""
    ev, rv = g.entity_vocab, g.relation_vocab
    s, p, o = report.target
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# explanation report\n")
        fh.write(f"# target\t{ev.label_of(s)}\t{rv.label_of(p)}\t{ev.label_of(o)}\n")
        for key, value in sorted(report.provenance.items()):
            if key == "target":
                continue
            fh.write(f"# {key}\t{value}\n")
        fh.write("# columns\tposition\ts\tp\to\tavg_target_rank\truns_containing\n")
        for i, e in enumerate(report.entries, start=1):
            ts, tp, to = e.triple
            fh.write(
                f"{i}\t{ev.label_of(ts)}\t{rv.label_of(tp)}\t{ev.label_of(to)}"
                f"\t{e.avg_target_rank:.6f}\t{e.runs_containing}\n"
            )
        for (ts, tp, to), _pos in report.tail:
            fh.write(f"-\t{ev.label_of(ts)}\t{rv.label_of(tp)}\t{ev.label_of(to)}\t-\t0\n")
