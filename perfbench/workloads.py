"""The benchmark's workloads: one closed-loop caller each, driving kgex.

A workload has four phases:

- `setup` (timed as ``setup_s``) does what the matching CLI command body
  does before its main library call: load the graph, split and model files
  and build the filter where the CLI builds one;
- `prepare` (untimed) fixes the inputs the benchmark picks itself, such as
  the explained target and the expected outputs;
- `call` is the timed main call (``call_s``);
- `check` verifies one call's outputs; `check_invocation` runs the checks
  made once per invocation.

Every kgex function is reached through its module attribute
(``graph.load_graph``), so the tracer's wrappers are seen when installed.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from kgex import evaluation, explain, graph, modelio, sampling, training

import oracle


@dataclass(frozen=True)
class Size:
    fb: str
    wn: str
    train_slice: int
    train_batch: int
    eval_triples: int
    eval_chunk: int
    rank_sample: int
    explain_runs: int
    partitions: int
    student_epochs: int
    wn_runs: int


SIZES = {
    "full": Size("fb237", "wn18rr", 30_000, 10_000, 100, 10, 3, 20, 10, 200, 10),
    "tiny": Size("fb237-tiny", "wn18rr-tiny", 1_000, 400, 10, 5, 2, 4, 2, 5, 4),
}


class Workload:
    name = ""
    why = ""
    min_calls = 1

    def __init__(self, size: Size, data: Path, seed: int) -> None:
        self.size = size
        self.data = data
        self.seed = seed

    @classmethod
    def shape(cls, size: Size) -> str:
        return size.fb

    @property
    def ops_per_call(self) -> int:
        raise NotImplementedError

    def check_invocation(self) -> tuple[int, int]:
        """Checks made once per invocation: (operations attempted, failed)."""
        return 0, 0

    def headline(self, call_s: float) -> list[tuple[str, float, str]]:
        """The workload's user-facing figure, derived from ``call_s``."""
        return []

    def computed_counters(self) -> dict[str, float]:
        """Per-call counters derived from the inputs and the calls' return values."""
        return {}


class TrainFB237(Workload):
    name = "train-fb237"
    why = ("teacher write path: one ComplEx k=100 eta=10 epoch over a 30k-triple slice "
           "with full FB15K-237 tables; score+grad, scatter-add and Adam")

    def setup(self) -> None:
        g = graph.load_graph(self.data / "train.tsv")
        self.g = graph.graph_from_triples(
            g.triples[: self.size.train_slice], g.entity_vocab, g.relation_vocab
        )

    def prepare(self) -> None:
        self.config = training.TrainConfig(
            kind="complex", k=100, eta=10, lr=5e-5, epochs=1,
            batch_size=self.size.train_batch, gamma=1e-4, seed=self.seed,
        )

    @property
    def ops_per_call(self) -> int:  # one operation per training batch
        return math.ceil(self.g.n_triples / self.config.batch_size) * self.config.epochs

    def call(self, i: int):
        return training.run_training(self.g, self.config)

    def headline(self, call_s: float) -> list[tuple[str, float, str]]:
        return [("train_triples_per_s", self.g.n_triples * self.config.epochs / call_s, "1/s")]

    def check(self, i: int, result) -> int:
        model, stats = result
        finite = (
            all(math.isfinite(x) for x in stats.epoch_losses)
            and np.isfinite(model.entity_table).all()
            and np.isfinite(model.relation_table).all()
        )
        return 0 if finite else self.ops_per_call

    def computed_counters(self) -> dict[str, float]:
        n, eta = self.g.n_triples, self.config.eta
        return {
            "training.batches": self.ops_per_call,
            "models.rows_scored": n * (1 + eta),
            "training.scatter_rows": 3 * (1 + eta) * n,
        }


def pick_target(g, seed: int) -> tuple[int, int, int]:
    """A seeded training triple whose endpoints both have about median degree."""
    deg = np.zeros(g.n_entities, dtype=np.int64)
    for e, positions in g.by_entity.items():
        deg[e] = len(positions)
    median = int(np.median(deg))
    s, o = g.triples[:, 0], g.triples[:, 2]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    for width in range(max(deg) + 1):
        near = np.abs(deg - median) <= width
        candidates = np.flatnonzero(near[s] & near[o] & (s != o))
        if len(candidates):
            return g.triple_at(int(rng.choice(candidates)))
    raise ValueError("graph has no triple between distinct entities")


class ExplainFB237(Workload):
    name = "explain-fb237"
    why = ("one kgex explain target, serial: thousands of tiny student batches with "
           "the RKD angle term, ranking over small pools")
    threads = 1

    def runs(self) -> int:
        return self.size.explain_runs

    def setup(self) -> None:
        self.g = graph.load_graph(self.data / "train.tsv")
        self.teacher, _, _ = modelio.load_model(self.data / "teacher.kgex")
        if (self.teacher.n_entities, self.teacher.n_relations) != (self.g.n_entities, self.g.n_relations):
            raise ValueError("teacher tables do not match the graph vocabularies")

    def prepare(self) -> None:
        self.target = pick_target(self.g, self.seed)
        student = training.TrainConfig(kind=self.teacher.kind, epochs=self.size.student_epochs)
        self.config = explain.ExplainConfig(
            mc_runs=self.runs(), partitions=self.size.partitions, student=student,
            kd_lambda=3.0, sampler=sampling.SubgraphSpec("pn", 5), seed=self.seed,
            threads=self.threads,
        )
        self.first = None

    @property
    def ops_per_call(self) -> int:  # one operation per Monte Carlo run
        return self.config.mc_runs

    def call(self, i: int):
        return explain.mc_explain(self.teacher, self.g, self.target, self.config)

    def headline(self, call_s: float) -> list[tuple[str, float, str]]:
        return [("explain_target_s", call_s, "s")]

    def check(self, i: int, report) -> int:
        """Failed runs: all of them if coverage or repeatability breaks."""
        prov = report.provenance
        sub = sampling.sample_subgraph(
            self.g, self.target, sampling.SubgraphSpec(prov["method"], prov["n"], prov["sampler_seed"])
        )
        covered = [e.position for e in report.entries] + [pos for _, pos in report.tail]
        if sorted(covered) != sub.positions.tolist() or len(report.records) != self.config.mc_runs:
            return self.ops_per_call
        if any(e.avg_target_rank < 1 for e in report.entries):
            return self.ops_per_call
        if self.first is None:
            self.first = report
        elif not same_report(report, self.first):
            return self.ops_per_call
        return sum(1 for r in report.records if min(r.rank, r.subject_rank, r.object_rank) < 1)

    def computed_counters(self) -> dict[str, float]:
        report, cfg, g = self.first, self.config, self.g
        if report is None:
            return {}
        known = oracle.triple_keys(g.triples, g.n_entities, g.n_relations)
        epochs, eta = cfg.student.epochs, cfg.student.eta
        kd_rows = 3 if cfg.kd_lambda > 0 else 0
        sizes = [len(r.positions) for r in report.records]
        candidates = sum(
            oracle.candidates_per_side(
                known, np.unique(g.triples[r.positions][:, [0, 2]]), self.target,
                g.n_entities, g.n_relations,
            )
            for r in report.records
        )
        return {
            "training.batches": sum(epochs * math.ceil(m / cfg.student.batch_size) for m in sizes),
            "models.rows_scored": sum(epochs * m * (1 + eta) for m in sizes),
            "training.scatter_rows": sum(epochs * m * (3 * (1 + eta) + kd_rows) for m in sizes),
            "evaluation.candidates_scored": candidates,
            "explain.task_pickle_bytes": self.task_pickle_bytes(report),
        }

    def task_pickle_bytes(self, report) -> int:
        """Bytes the worker tasks of one call pickle, summed over the parts of each task.

        Zero when the runs execute in-process.  Each task carries the teacher,
        the graph and the filter `mc_explain` builds, plus the run's subset and
        student configuration.
        """
        if self.threads <= 1:
            return 0
        shared = len(pickle.dumps((self.teacher, self.g, graph.build_filter(self.g))))
        total = 0
        for r in report.records:
            pool = np.unique(self.g.triples[r.positions][:, [0, 2]])
            student = training.TrainConfig(**{**self.config.student.__dict__, "pool": pool})
            own = (r.run, self.target, r.positions, student, self.config.kd_lambda)
            total += shared + len(pickle.dumps(own))
        return total


class ExplainWN18RRPar(ExplainFB237):
    name = "explain-wn18rr-par"
    why = ("the only parallel path: threads=2 worker dispatch pickles a full-vocabulary "
           "teacher, graph and filter per task for a ~60-triple subgraph")
    threads = 2

    @classmethod
    def shape(cls, size: Size) -> str:
        return size.wn

    def runs(self) -> int:
        return self.size.wn_runs

    def check_invocation(self) -> tuple[int, int]:
        """Thread invariance: the threads=2 report equals the threads=1 report."""
        if self.first is None:
            return 0, 0
        serial = explain.ExplainConfig(**{**self.config.__dict__, "threads": 1})
        report = explain.mc_explain(self.teacher, self.g, self.target, serial)
        runs = serial.mc_runs
        return runs, (0 if same_report(report, self.first) else runs)


def same_report(a, b) -> bool:
    """Exact equality of two explanation reports, run records included."""
    def rows(rep):
        return (
            [(e.triple, e.position, e.rank_sum, e.runs_containing) for e in rep.entries],
            list(rep.tail),
            [(r.run, r.positions.tolist(), r.rank, r.subject_rank, r.object_rank) for r in rep.records],
        )
    return rows(a) == rows(b)


class EvaluateFB237(Workload):
    name = "evaluate-fb237"
    why = ("pure read path: filtered both-side ranking of a fixed 100-triple test set "
           "against all 14,541 entities; no training")

    def setup(self) -> None:
        self.model, ev, rv = modelio.load_model(self.data / "teacher.kgex")
        if ev is None or rv is None:
            raise ValueError("vocabulary sidecars are required")
        self.test = graph.load_split(self.data / "test.tsv", ev, rv)
        self.pool = np.arange(self.model.n_entities)
        self.filter_graphs = [graph.load_split(self.data / name, ev, rv) for name in ("train.tsv", "test.tsv")]
        self.flt = graph.build_filter(*self.filter_graphs)

    def prepare(self) -> None:
        fixed = self.test.triples[: self.size.eval_triples]
        step = self.size.eval_chunk
        self.chunks = [fixed[i : i + step] for i in range(0, len(fixed), step)]
        known = np.concatenate([g.triples for g in self.filter_graphs])
        model = self.model
        ranker = oracle.BruteForceRanker(model.entity_table, model.relation_table, model.k, known)
        self.known = ranker.known
        self.expected = [[ranker.ranks(t) for t in chunk] for chunk in self.chunks]

    @property
    def ops_per_call(self) -> int:  # one operation per ranked test triple
        return self.size.eval_chunk

    @property
    def min_calls(self) -> int:  # one pass over the fixed test set
        return len(self.chunks)

    def call(self, i: int):
        return evaluation.evaluate(self.model, self.chunks[i % len(self.chunks)], self.pool, self.flt)

    def headline(self, call_s: float) -> list[tuple[str, float, str]]:
        return [("eval_triples_per_s", self.size.eval_chunk / call_s, "1/s")]

    def check(self, i: int, result) -> int:
        metrics, skipped = result
        ranks = [r for pair in self.expected[i % len(self.chunks)] for r in pair]
        want = oracle.metrics(ranks)
        got = metrics.as_dict()
        ok = skipped == 0 and all(math.isclose(got[k], want[k], rel_tol=1e-12) for k in want)
        return 0 if ok else self.ops_per_call

    def check_invocation(self) -> tuple[int, int]:
        """Per-triple ranks of a fixed sample equal the brute-force ranker's."""
        sample = self.chunks[0][: self.size.rank_sample]
        failed = 0
        for t, want in zip(sample, self.expected[0]):
            got = evaluation.rank_triple(self.model, tuple(int(x) for x in t), self.pool, self.flt)
            failed += (got.subject_rank, got.object_rank) != want
        return len(sample), failed

    def computed_counters(self) -> dict[str, float]:
        """Candidates per evaluate call, averaged over the fixed set's chunks."""
        n_e, n_r = self.model.n_entities, self.model.n_relations
        per_chunk = [
            sum(oracle.candidates_per_side(self.known, self.pool, t, n_e, n_r) for t in chunk)
            for chunk in self.chunks
        ]
        return {"evaluation.candidates_scored": float(np.mean(per_chunk))}


WORKLOADS = {w.name: w for w in (TrainFB237, ExplainFB237, EvaluateFB237, ExplainWN18RRPar)}
