"""Monte Carlo attribution of a link prediction to training triples.

A subgraph around the target is sampled once, then repeatedly partitioned;
each run trains a distilled student on one random subset and records the
rank the student assigns to the target.  A triple's contribution is the
average target rank over the runs whose subset contained it: lower average
rank means the triple tends to make the prediction succeed.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import optim
from .distill import check_kd_lambda, check_teacher, train_student, triple_angles
from .evaluation import rank_triple
from .graph import KnowledgeGraph, Triple, TrueTripleSet, build_filter, graph_from_triples, label_rows
from .models import EmbeddingModel, ModelKind, init_model
from .sampling import Subgraph, SubgraphSpec, sample_subgraph
from .training import LockstepRun, TrainConfig, corruption_pool, train_lockstep

# perfbench/tracer.py's PATCHES wraps train_student, build_filter and graph_from_triples here: KeyError if one is gone


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
    degenerate_kd_terms: int = 0  # the student's angle terms skipped for coincident points


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
    workers: int = 1  # processes the lockstep groups were spread over (1: trained in the calling process)
    groups: int = 0  # lockstep groups trained, over all workers
    target_held_out: bool = False  # the target is a graph triple, kept out of every subset


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


def _lockstep_groups(config: TrainConfig, plans: list, workers: int) -> list[list]:
    """The plans in consecutive groups of near-equal rows: the fewest groups whose step's
    stacked (rows, width) arrays fit one `optim._CHUNK_ELEMS` budget, rounded up to a
    multiple of the `workers` that train them, at most one a run (README has the timings
    behind the rule: even two runs train faster on two processes than in one group)."""
    width = config.k * ModelKind(config.kind).row_width_factor
    elems = sum(min(len(subset), config.batch_size) for _, subset, _ in plans) * width
    count = -(-elems // optim._CHUNK_ELEMS)  # the fewest that fit
    count = min(-(-count // workers) * workers, len(plans))
    return [[plans[i] for i in part.tolist()] for part in np.array_split(np.arange(len(plans)), count)]


def _run_group(triples, angles, sizes, target, config, kd_lambda, flt, group) -> list[RunRecord]:
    """Train a group of runs in lockstep on the stack of their compact tables; rank the target.

    A plan's subset indexes the subgraph's `triples` and the teacher's `angles` of
    them, and is its record's positions; `sizes` is the teacher's (|E|, |R|).  A
    compact table holds the rows a run reads (its subset's entities and predicates,
    the target's and the corruption pool's), each drawn as the full table draws it.
    The stack holds every run's entity rows, then every run's relation rows.
    """
    kind, (n_ent, n_rel), (s, p, o) = ModelKind(config.kind), sizes, target
    tables, runs, ranking, e0, r0 = [], [], [], 0, 0
    for run, subset, seed in group:
        sub = triples[subset]
        ranked, pool = np.unique(sub[:, [0, 2]]), corruption_pool(config, sub, n_ent)
        ents, rels = np.unique(np.r_[ranked, pool, s, o]), np.union1d(sub[:, 1], p)
        ent, rel = lambda ids: e0 + np.searchsorted(ents, ids), lambda ids: r0 + np.searchsorted(rels, ids)
        init_seq, loop_seq = np.random.SeedSequence(seed).spawn(2)
        rows = np.r_[ents, n_ent + rels]
        tables.append(init_model(kind, config.k, n_ent, n_rel, init_seq, rows))
        local = np.stack([ent(sub[:, 0]), rel(sub[:, 1]), ent(sub[:, 2])], axis=1)
        run_angles = tuple(a[:, subset] for a in angles) if kd_lambda > 0.0 else None
        runs.append(LockstepRun(local, ent(pool), np.random.default_rng(loop_seq), (e0, r0), angles=run_angles))
        ranking.append((ranked, ((int(ent(s)), int(rel(p)), int(ent(o))), ent(ranked))))
        e0, r0 = e0 + len(ents), r0 + len(rels)
    stack = np.concatenate([t.entity_table for t in tables] + [t.relation_table for t in tables])
    model, records = EmbeddingModel(kind, config.k, stack, e0), []
    degenerate = [stats.degenerate_kd_terms for stats in train_lockstep(model, runs, config, kd_lambda)]
    for (run, subset, _), (ranked, local), count in zip(group, ranking, degenerate):
        r = rank_triple(model, target, ranked, flt, local)
        records.append(RunRecord(run, subset, r.mean_rank, r.subject_rank, r.object_rank, count))
    return records


def mc_explain(
    teacher: EmbeddingModel,
    g: KnowledgeGraph,
    target: Triple,
    config: ExplainConfig,
    flt: TrueTripleSet | None = None,
) -> ExplanationReport:
    """Sample, partition, train students, and aggregate target ranks.

    The subgraph is sampled once per target; the runs read only its triples and
    the teacher's `triple_angles` of them, made once.  Each cycle of `partitions`
    runs draws one seeded partition of the subgraph and takes its subsets in order,
    so a full cycle covers it; a subset of one entity, too few to corrupt, is
    rejected before any run.  A target that is a graph triple is left out of every
    partition: no student trains on its answer, and the report's tail holds it; a
    subgraph with fewer other triples than `partitions` is rejected before any run.
    A plan is (run, subset, seed), its subset subgraph-local; its record maps back
    to graph positions.  The plans form `_lockstep_groups` for min(max(threads, 2),
    runs, CPUs) workers (two at `threads` 1, as a `run_training` step takes two
    threads); with more than one, each group is one task (`_run_group`) of a pool
    of that many processes, else the groups train in turn on the calling thread.
    No byte depends on the number of workers.  Without `flt`, the target is ranked
    against the graph's true triples of its (s, p) and (p, o) keys only.
    """
    config.validate()
    check_teacher(teacher, g)
    seed = config.sampler.seed
    sampler = replace(config.sampler, seed=_derive_seed(config.seed, 0) if seed is None else seed)
    sub = sample_subgraph(g, target, sampler)
    if flt is None:  # the ranking reads the target's two keys only
        (s, p, o), (s_ids, p_ids, o_ids) = target, g.triples.T
        keyed = (p_ids == p) & ((s_ids == s) | (o_ids == o))
        flt = TrueTripleSet(g.triples[keyed], g.n_entities, g.n_relations)
    triples = g.triples[sub.positions]
    angles = triple_angles(teacher, triples) if config.kd_lambda > 0.0 else None
    indices = np.flatnonzero((triples != target).any(axis=1))  # all but the target's, if it is there
    if len(indices) < config.partitions and len(indices) < len(sub):  # else partition_positions' error is exact
        raise ValueError(f"cannot partition {len(indices)} triples into {config.partitions} subsets: "
                         f"the target is held out of the {len(sub)}-triple subgraph")

    plans = []
    for run in range(config.mc_runs):
        cycle, part = divmod(run, config.partitions)
        if part == 0:  # the kept indices, shuffled as their positions would be
            part_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1, cycle]))
            parts = partition_positions(indices, config.partitions, part_rng)
        subset = np.sort(parts[part])
        if config.student.pool is None and len(np.unique(triples[subset][:, [0, 2]])) < 2:
            raise ValueError(f"run {run} would train on a subset with one entity, too few to corrupt; "
                             f"try fewer --partitions than {config.partitions} or a larger --n")
        plans.append((run, subset, _derive_seed(config.seed, 2, run)))
    student = replace(config.student, focuse_decay=None)
    sizes = (teacher.n_entities, teacher.n_relations)
    run_group = partial(_run_group, triples, angles, sizes, target, student, config.kd_lambda, flt)

    workers = min(max(config.threads, 2), config.mc_runs, optim._cpus())
    groups = _lockstep_groups(student, plans, workers)
    if workers > 1:  # `map` re-raises in group order: the lowest-numbered failed run's error
        with ProcessPoolExecutor(max_workers=workers) as pool_exec:
            results = list(pool_exec.map(run_group, groups))
    else:
        results = [run_group(group) for group in groups]
    records = [replace(rec, positions=sub.positions[rec.positions]) for group in results for rec in group]

    report = aggregate_contributions(records, sub)
    report.workers, report.groups, report.target_held_out = workers, len(groups), len(indices) < len(sub)
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
