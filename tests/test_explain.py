"""Subgraph partitioning, Monte Carlo runs, and contribution aggregation."""

import io
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgex.explain
from kgex.explain import (
    ExplainConfig,
    RunRecord,
    aggregate_contributions,
    mc_explain,
    partition_positions,
)
from kgex.graph import KnowledgeGraph, TrueTripleSet, build_filter, graph_from_triples
from kgex.models import EmbeddingModel, init_model
from kgex.sampling import Subgraph, SubgraphSpec
from kgex.training import TrainConfig, run_training

from oracles import dict_loop_aggregate
from toygraphs import block_graph, label_graph, numbered_vocabularies, random_graph


def pickled_objects(obj) -> list:
    """Every object that pickling `obj` writes, nested ones included."""
    written = []

    class Recording(pickle.Pickler):
        def persistent_id(self, o):
            written.append(o)

    Recording(io.BytesIO()).dump(obj)
    return written


def make_subgraph(g, positions, target=(0, 0, 1)):
    return Subgraph(
        positions=np.asarray(sorted(positions), dtype=np.int64),
        source=g,
        target=target,
        spec=SubgraphSpec("pn", 0, 0),
    )


class TestPartition:
    def test_ten_into_ten_singletons(self):
        parts = partition_positions(np.arange(10), 10, np.random.default_rng(0))
        assert len(parts) == 10
        assert all(len(p) == 1 for p in parts)

    def test_eleven_into_ten_has_one_pair(self):
        parts = partition_positions(np.arange(11), 10, np.random.default_rng(1))
        sizes = sorted(len(p) for p in parts)
        assert sizes == [1] * 9 + [2]

    def test_union_and_disjointness_random(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(5, 60))
            k = int(rng.integers(2, min(n, 12) + 1))
            positions = rng.choice(1000, size=n, replace=False)
            parts = partition_positions(positions, k, rng)
            flat = np.concatenate(parts)
            assert len(flat) == n
            assert set(flat.tolist()) == set(positions.tolist())
            assert max(len(p) for p in parts) - min(len(p) for p in parts) <= 1

    def test_too_few_triples_rejected(self):
        with pytest.raises(ValueError):
            partition_positions(np.arange(3), 4, np.random.default_rng(0))

    def test_partition_subgraph_positions(self):
        g = random_graph(10, 2, 30, seed=0)
        sub = make_subgraph(g, range(12))
        parts = partition_positions(sub.positions, 4, np.random.default_rng(5))
        assert sorted(np.concatenate(parts).tolist()) == list(range(12))


class TestAggregation:
    def test_three_run_arithmetic_example(self):
        g = random_graph(10, 2, 30, seed=1)
        sub = make_subgraph(g, [0, 1])
        records = [
            RunRecord(run=0, positions=np.array([0, 1]), rank=2.0, subject_rank=2, object_rank=2),
            RunRecord(run=1, positions=np.array([0]), rank=4.0, subject_rank=4, object_rank=4),
            RunRecord(run=2, positions=np.array([1]), rank=6.0, subject_rank=6, object_rank=6),
        ]
        report = aggregate_contributions(records, sub)
        by_pos = {e.position: e for e in report.entries}
        assert by_pos[0].avg_target_rank == 3.0  # (2 + 4) / 2
        assert by_pos[1].avg_target_rank == 4.0  # (2 + 6) / 2
        assert [e.position for e in report.entries] == [0, 1]
        assert report.tail == []

    def test_single_run_every_triple_gets_that_rank(self):
        g = random_graph(10, 2, 30, seed=2)
        sub = make_subgraph(g, range(6))
        records = [RunRecord(0, np.arange(3), 5.0, 5, 5)]
        report = aggregate_contributions(records, sub)
        assert all(e.avg_target_rank == 5.0 for e in report.entries)
        assert {pos for _, pos in report.tail} == {3, 4, 5}

    def test_record_order_irrelevant(self):
        g = random_graph(10, 2, 30, seed=3)
        sub = make_subgraph(g, range(10))
        rng = np.random.default_rng(4)
        records = [
            RunRecord(r, rng.choice(10, size=4, replace=False), float(rng.integers(1, 9)), 1, 1)
            for r in range(12)
        ]
        a = aggregate_contributions(records, sub)
        b = aggregate_contributions(records[::-1], sub)
        assert [(e.position, e.avg_target_rank, e.runs_containing) for e in a.entries] == [
            (e.position, e.avg_target_rank, e.runs_containing) for e in b.entries
        ]

    def test_brute_force_oracle_on_synthetic_logs(self):
        """Streamed aggregation equals per-triple list recomputation, 50 logs."""
        g = random_graph(12, 2, 40, seed=5)
        rng = np.random.default_rng(6)
        for log_index in range(50):
            size = int(rng.integers(4, 30))
            sub = make_subgraph(g, range(size))
            n_runs = int(rng.integers(1, 20))
            records = []
            for r in range(n_runs):
                subset = rng.choice(size, size=int(rng.integers(1, size + 1)), replace=False)
                side_a, side_b = int(rng.integers(1, 12)), int(rng.integers(1, 12))
                records.append(
                    RunRecord(r, subset, 0.5 * (side_a + side_b), side_a, side_b)
                )
            report = aggregate_contributions(records, sub)
            # oracle: gather rank lists per triple, then mean
            lists: dict[int, list[float]] = {}
            for rec in records:
                for pos in rec.positions:
                    lists.setdefault(int(pos), []).append(rec.rank)
            assert len(report.entries) == len(lists)
            for entry in report.entries:
                expected = math.fsum(lists[entry.position]) / len(lists[entry.position])
                assert entry.avg_target_rank == expected  # exact: dyadic ranks
                assert entry.runs_containing == len(lists[entry.position])
            # double-counting identity, exact
            lhs = math.fsum(e.rank_sum for e in report.entries)
            rhs = math.fsum(rec.rank * len(rec.positions) for rec in records)
            assert lhs == rhs

    def test_ordering_and_tie_breaks(self):
        g = random_graph(10, 2, 30, seed=7)
        sub = make_subgraph(g, range(4))
        records = [
            RunRecord(0, np.array([0, 1]), 3.0, 3, 3),
            RunRecord(1, np.array([1]), 3.0, 3, 3),
            RunRecord(2, np.array([2]), 2.0, 2, 2),
            RunRecord(3, np.array([3]), 3.0, 3, 3),
        ]
        report = aggregate_contributions(records, sub)
        # triple 2 leads (avg 2); 0, 1, 3 all average 3: triple 1 has more
        # containing runs; then file order breaks 0 before 3
        assert [e.position for e in report.entries] == [2, 1, 0, 3]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_matches_dict_loop_reference(self, data):
        """Entries, rank-sum bits and tail equal the one-position-at-a-time loop."""
        g = random_graph(12, 2, 40, seed=10)
        sub_positions = data.draw(st.lists(st.integers(0, 39), min_size=1, unique=True))
        sub = make_subgraph(g, sub_positions)
        subset = st.lists(st.sampled_from(sorted(sub_positions)), unique=True)
        rank = st.floats(allow_nan=False, allow_infinity=False)
        records = [
            RunRecord(run, np.array(positions, dtype=np.int64), r, 1, 1)
            for run, (positions, r) in enumerate(
                data.draw(st.lists(st.tuples(subset, rank), min_size=1, max_size=12))
            )
        ]
        report = aggregate_contributions(records, sub)
        entries, tail = dict_loop_aggregate(records, sub)
        rows = lambda es: [
            (e.triple, e.position, np.float64(e.rank_sum).tobytes(), e.runs_containing) for e in es
        ]
        assert rows(report.entries) == rows(entries)
        assert report.tail == tail

    def test_deleting_a_run_only_touches_its_triples(self):
        g = random_graph(12, 2, 40, seed=8)
        sub = make_subgraph(g, range(10))
        rng = np.random.default_rng(9)
        records = [
            RunRecord(r, rng.choice(10, size=3, replace=False), float(rng.integers(1, 7)), 1, 1)
            for r in range(8)
        ]
        full = aggregate_contributions(records, sub)
        removed = records[5]
        partial = aggregate_contributions(records[:5] + records[6:], sub)
        full_by_pos = {e.position: e for e in full.entries}
        partial_by_pos = {e.position: e for e in partial.entries}
        affected = set(int(p) for p in removed.positions)
        for pos, entry in full_by_pos.items():
            if pos not in affected:
                other = partial_by_pos[pos]
                assert entry.avg_target_rank == other.avg_target_rank
                assert entry.runs_containing == other.runs_containing


@pytest.fixture(scope="module")
def toy():
    g, held_out = block_graph(20, 10, 3, n_train=80, n_test=16, seed=13)
    teacher, _ = run_training(
        g,
        TrainConfig(kind="transe-l2", k=8, eta=2, lr=0.1, epochs=120, batch_size=128, seed=0),
    )
    return g, held_out, teacher


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, the chunk size
    and the tasks of each map, and maps serially."""

    created = []
    maps = []
    functions = []

    def __init__(self, max_workers):
        RecordingPool.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        tasks = list(iterable)
        RecordingPool.maps.append((chunksize, tasks))
        RecordingPool.functions.append(fn)
        return map(fn, tasks)


class TestMcExplain:
    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            ExplainConfig(threads=threads).validate()

    # min(max(threads, 2), runs, cpus) processes, where that is more than one
    @pytest.mark.parametrize("threads, cpus, workers",
                             [(10**6, 1, []), (10**6, 3, [3]), (10**6, 8, [4]), (1, 8, [2]), (1, 1, [])])
    def test_workers_capped_by_runs_and_cpus(self, toy, monkeypatch, threads, cpus, workers):
        g, held_out, teacher = toy
        monkeypatch.setattr(kgex.explain, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(kgex.optim, "_cpus", lambda: cpus)
        monkeypatch.setattr(kgex.optim, "_CHUNK_ELEMS", 1)  # a lockstep group a run
        monkeypatch.setattr(RecordingPool, "created", [])
        monkeypatch.setattr(RecordingPool, "maps", [])
        config = ExplainConfig(
            mc_runs=4, partitions=2, student=self.student_cfg(), kd_lambda=3.0,
            sampler=SubgraphSpec("pn", 1), seed=7, threads=threads,
        )
        report = mc_explain(teacher, g, tuple(map(int, held_out[2])), config)
        assert RecordingPool.created == workers  # one worker trains on the calling thread
        assert [r.run for r in report.records] == [0, 1, 2, 3]
        assert config.threads == threads
        # one task per lockstep group, not per worker; a plan is (run, subset, seed)
        # only, its subset indexing the subgraph's triples
        sub = np.sort([e.position for e in report.entries] + [pos for _, pos in report.tail])
        assert len(RecordingPool.maps) == len(workers)
        for _, groups in RecordingPool.maps:
            assert [[run for run, _, _ in group] for group in groups] == [[0], [1], [2], [3]]
            tasks = [plan for group in groups for plan in group]
            assert [(run, sub[subset].tolist()) for run, subset, _ in tasks] == [
                (r.run, r.positions.tolist()) for r in report.records
            ]
            assert all(isinstance(seed, int) for _, _, seed in tasks)
        assert (report.workers, report.groups) == ((workers or [1])[0], 4)

    def test_default_filter_ranks_as_the_graphs(self):
        """Without `flt`, the target is ranked against the graph's true triples of
        its (s, p) and (p, o) keys only, and the report is the one the whole
        graph's filter gives.  The target's subject has other true objects and
        its object other true subjects, so a filter of the target alone moves
        the ranks."""
        g, _ = block_graph(16, 4, 2, n_train=80, n_test=0, seed=3)
        s_ids, p_ids, o_ids = g.triples.T
        target = next(t for t in map(tuple, g.triples.tolist())
                      if ((s_ids == t[0]) & (p_ids == t[1])).sum() > 1 < ((o_ids == t[2]) & (p_ids == t[1])).sum())
        teacher = init_model("distmult", 4, g.n_entities, g.n_relations, seed=0)
        config = ExplainConfig(mc_runs=4, partitions=2, student=TrainConfig(kind="distmult", k=4, epochs=5),
                               sampler=SubgraphSpec("pn", 2), seed=1)
        ranks = lambda report: [(r.run, r.rank.hex(), r.subject_rank, r.object_rank) for r in report.records]
        entries = lambda report: [(e.position, e.rank_sum.hex(), e.runs_containing) for e in report.entries]
        default, full = mc_explain(teacher, g, target, config), mc_explain(teacher, g, target, config, build_filter(g))
        assert ranks(default) == ranks(full) and entries(default) == entries(full)
        alone = TrueTripleSet(np.array([target]), g.n_entities, g.n_relations)
        assert ranks(mc_explain(teacher, g, target, config, alone)) != ranks(full)

    def test_shared_worker_inputs_hold_only_the_subgraph(self, toy, monkeypatch):
        """The inputs every worker task shares hold no teacher and no array of a row
        per graph triple or table row, and pickle to as many bytes when the graph
        gains triples outside the subgraph and the teacher gains their rows."""
        g, held_out, teacher = toy
        monkeypatch.setattr(kgex.explain, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(kgex.optim, "_cpus", lambda: 2)
        monkeypatch.setattr(RecordingPool, "functions", [])
        config = ExplainConfig(
            mc_runs=2, partitions=2, student=self.student_cfg(), sampler=SubgraphSpec("pn", 1),
        )  # `threads` 1 on two CPUs: two workers
        # 10 entities and a relation of their own, joined by 10 triples to nothing the target reaches
        new = g.n_entities + np.arange(10)
        grown = graph_from_triples(np.r_[g.triples, np.stack([new, np.full(10, g.n_relations), np.roll(new, 1)], 1)],
                                   *numbered_vocabularies(g.n_entities + 10, g.n_relations + 1))
        rows = init_model(teacher.kind, teacher.k, grown.n_entities, grown.n_relations, seed=1).table
        table = np.r_[teacher.entity_table, rows[g.n_entities : grown.n_entities], teacher.relation_table, rows[-1:]]
        sizes = []
        for graph, model in [(g, teacher), (grown, EmbeddingModel(teacher.kind, teacher.k, table, grown.n_entities))]:
            report = mc_explain(model, graph, tuple(map(int, held_out[2])), config)
            shared = RecordingPool.functions.pop()
            written = pickled_objects(shared)
            assert not any(isinstance(a, (EmbeddingModel, KnowledgeGraph)) for a in written)
            whole = {len(graph.triples), len(model.table)}
            assert report.provenance["subgraph_size"] not in whole
            assert not any(whole & set(a.shape) for a in written if isinstance(a, np.ndarray))
            sizes.append(len(pickle.dumps(shared)))
        assert sizes[0] == sizes[1]

    @pytest.mark.parametrize("extra", [(-1, 0), (0, -1), (1, 0), (0, 1)])
    def test_teacher_of_other_vocabulary_sizes_rejected(self, toy, monkeypatch, extra):
        g, held_out, _ = toy
        teacher = init_model("transe-l2", 8, g.n_entities + extra[0], g.n_relations + extra[1], seed=0)
        sampled = []
        monkeypatch.setattr(kgex.explain, "sample_subgraph", lambda *a: sampled.append(a))
        config = ExplainConfig(mc_runs=2, partitions=2, student=self.student_cfg())
        with pytest.raises(ValueError, match="teacher tables do not match the graph vocabularies"):
            mc_explain(teacher, g, tuple(map(int, held_out[2])), config)
        assert sampled == []

    @pytest.mark.parametrize("runs, partitions, draws", [(4, 3, 2), (6, 3, 2), (1, 2, 1)])
    def test_each_cycle_draws_one_partition(self, toy, monkeypatch, runs, partitions, draws):
        g, held_out, teacher = toy
        calls = []
        original = kgex.explain.partition_positions

        def counting_partition(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(kgex.explain, "partition_positions", counting_partition)
        config = ExplainConfig(
            mc_runs=runs, partitions=partitions, student=self.student_cfg(), kd_lambda=3.0,
            sampler=SubgraphSpec("pn", 2), seed=3,
        )
        report = mc_explain(teacher, g, tuple(map(int, held_out[2])), config)
        assert len(calls) == draws  # ceil(runs / partitions)
        assert [r.run for r in report.records] == list(range(runs))

    def student_cfg(self):
        return TrainConfig(kind="transe-l2", k=4, eta=2, lr=0.1, epochs=40, batch_size=64)

    def test_single_run_covers_one_subset(self, toy):
        g, held_out, teacher = toy
        target = tuple(map(int, held_out[0]))
        config = ExplainConfig(
            mc_runs=1, partitions=2, student=self.student_cfg(), kd_lambda=3.0,
            sampler=SubgraphSpec("pn", 2), seed=5,
        )
        report = mc_explain(teacher, g, target, config)
        n_total = len(report.entries) + len(report.tail)
        assert len(report.records) == 1
        assert len(report.entries) == len(report.records[0].positions)
        # the other subset is the never-sampled tail
        assert len(report.tail) == n_total - len(report.entries)
        assert len(report.tail) > 0

    def test_round_robin_covers_all_subsets(self, toy):
        g, held_out, teacher = toy
        target = tuple(map(int, held_out[1]))
        config = ExplainConfig(
            mc_runs=4, partitions=4, student=self.student_cfg(), kd_lambda=0.0,
            sampler=SubgraphSpec("pn", 2), seed=6,
        )
        report = mc_explain(teacher, g, target, config)
        assert report.tail == []  # 4 runs over 4 fresh partitions reach everything
        covered = set()
        for rec in report.records:
            covered.update(int(p) for p in rec.positions)
        assert covered == {e.position for e in report.entries}

    def test_graph_triple_target_is_in_no_run(self, toy):
        """A target that is a graph triple is held out of every partition: no run's
        subset holds it, and it is the tail, with every other subgraph triple
        ranked.  A target outside the graph holds nothing out."""
        g, held_out, teacher = toy
        config = ExplainConfig(
            mc_runs=4, partitions=2, student=self.student_cfg(), kd_lambda=3.0,
            sampler=SubgraphSpec("pn", 2), seed=3,
        )
        for position in (0, 41):
            target = g.triple_at(position)
            report = mc_explain(teacher, g, target, config)
            assert report.target_held_out
            assert not any(position in rec.positions for rec in report.records)
            assert report.tail == [(target, position)]
            assert len(report.entries) + 1 == report.provenance["subgraph_size"]
        report = mc_explain(teacher, g, tuple(map(int, held_out[0])), config)
        assert not report.target_held_out and report.tail == []

    def test_deterministic_and_thread_invariant(self, toy):
        g, held_out, teacher = toy
        target = tuple(map(int, held_out[2]))
        def run(threads):
            config = ExplainConfig(
                mc_runs=4, partitions=3, student=self.student_cfg(), kd_lambda=3.0,
                sampler=SubgraphSpec("pn", 1), seed=7, threads=threads,
            )
            return mc_explain(teacher, g, target, config)

        a, b, c = run(1), run(1), run(2)
        key = lambda rep: [(e.position, e.avg_target_rank, e.runs_containing) for e in rep.entries]
        assert key(a) == key(b) == key(c)
        assert [r.rank for r in a.records] == [r.rank for r in c.records]

    def test_records_have_valid_ranks(self, toy):
        g, held_out, teacher = toy
        target = tuple(map(int, held_out[3]))
        config = ExplainConfig(
            mc_runs=6, partitions=3, student=self.student_cfg(), kd_lambda=3.0,
            sampler=SubgraphSpec("rw", 10), seed=8,
        )
        report = mc_explain(teacher, g, target, config)
        for rec in report.records:
            assert rec.rank >= 1.0
            assert rec.rank == 0.5 * (rec.subject_rank + rec.object_rank)
            assert len(rec.positions) >= 1

    def test_provenance_recorded(self, toy):
        g, held_out, teacher = toy
        target = tuple(map(int, held_out[4]))
        config = ExplainConfig(
            mc_runs=2, partitions=2, student=self.student_cfg(), kd_lambda=3.0,
            sampler=SubgraphSpec("pn", 1), seed=9,
        )
        report = mc_explain(teacher, g, target, config)
        p = report.provenance
        assert p["mc_runs"] == 2 and p["partitions"] == 2
        assert p["method"] == "pn" and p["seed"] == 9
        assert p["target"] == target

    def test_target_entities_missing_from_subset_still_recorded(self, toy):
        """Runs whose subset lacks the target's entities are kept, with the
        target scored against untouched (initialization) rows."""
        g, held_out, teacher = toy
        target = tuple(map(int, held_out[5]))
        config = ExplainConfig(
            mc_runs=8, partitions=8, student=self.student_cfg(), kd_lambda=3.0,
            sampler=SubgraphSpec("pn", 2), seed=11,
        )
        report = mc_explain(teacher, g, target, config)
        assert len(report.records) == 8  # nothing dropped

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_entity_subset_rejected_before_any_run(self, monkeypatch, threads):
        # the target's neighborhood is a self-loop and one other triple: split
        # in two, one subset has a single entity and no corruption to draw
        g = label_graph([("a", "r", "a"), ("b", "r", "c")])
        teacher = init_model("distmult", 2, g.n_entities, g.n_relations, seed=0)
        trained = []
        monkeypatch.setattr(kgex.explain, "train_lockstep", lambda *a: trained.append(a))
        monkeypatch.setattr(kgex.explain, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(kgex.optim, "_cpus", lambda: 2)
        monkeypatch.setattr(RecordingPool, "created", [])
        config = ExplainConfig(
            mc_runs=4, partitions=2, student=TrainConfig(kind="distmult", k=2, epochs=1),
            sampler=SubgraphSpec("pn", 0), threads=threads,
        )
        with pytest.raises(ValueError, match=r"run \d+ would train on a subset with one "
                           r"entity.*fewer --partitions than 2"):
            mc_explain(teacher, g, (0, 0, 1), config)
        assert trained == [] and RecordingPool.created == []
