"""Ranking against candidate pools and metric aggregation."""

import importlib.util
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import kgex.optim
from kgex import evaluation
from kgex.evaluation import evaluate, metrics_from_ranks, rank_triple
from kgex.graph import build_filter, graph_from_triples, label_rows, load_graph
from kgex.modelio import save_model
from kgex.models import EmbeddingModel, ModelKind, init_model

from oracles import brute_force_side_rank
from toygraphs import numbered_vocabularies, random_graph


KINDS = ["transe-l1", "transe-l2", "distmult", "complex"]


def side_ranks(model, triples, pool, flt):
    """Brute-force [subject rank, object rank] of every triple."""
    return [
        [brute_force_side_rank(model, t, pool, flt, True), brute_force_side_rank(model, t, pool, flt, False)]
        for t in map(tuple, triples.tolist())
    ]


def constant_model(n_entities, n_relations):
    """All scores equal: the pessimistic tie rule puts the positive last."""
    return EmbeddingModel(ModelKind.DISTMULT, 2, np.ones((n_entities + n_relations, 2)), n_entities)


class TestRankTriple:
    def test_clear_winner(self):
        # entity rows 0-3 then relation row [1]: scores s*o
        m = EmbeddingModel(ModelKind.DISTMULT, 1, np.array([[3.0], [1.0], [0.5], [0.3], [1.0]]), 4)
        # positive (0, 0, 1): score 3; candidates 2, 3 score 1.5, 0.9
        result = rank_triple(m, (0, 0, 1), np.array([1, 2, 3]))
        assert result.object_rank == 1

    def test_pessimistic_ties(self):
        m = constant_model(4, 1)
        result = rank_triple(m, (0, 0, 1), np.arange(4))
        # 3 candidates per side (pool minus the replaced original), all tied
        assert result.object_rank == 4
        assert result.subject_rank == 4

    def test_two_tied_candidates_rank_three(self):
        m = constant_model(3, 1)
        result = rank_triple(m, (0, 0, 1), np.arange(3))
        assert result.object_rank == 3  # ties count against the positive

    def test_filter_removes_known_candidates(self):
        m = constant_model(4, 1)
        flt = build_filter(graph_from_triples([(0, 0, 2)], *numbered_vocabularies(4, 1)))
        result = rank_triple(m, (0, 0, 1), np.arange(4), flt)
        assert result.object_rank == 3  # candidate 2 filtered out
        assert result.subject_rank == 4

    def test_positive_entities_may_sit_outside_pool(self):
        m = constant_model(6, 1)
        result = rank_triple(m, (4, 0, 5), np.array([0, 1, 2]))
        assert result.object_rank == 4  # 3 tied candidates, none removed
        assert result.subject_rank == 4

    def test_brute_force_oracle_random_graphs(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            g = random_graph(20, 3, 70, seed=seed)
            m = init_model("complex", 3, g.n_entities, g.n_relations, seed=seed + 100)
            flt = build_filter(g)
            pool = np.arange(g.n_entities)
            for i in rng.integers(0, g.n_triples, size=10):
                t = g.triple_at(int(i))
                result = rank_triple(m, t, pool, flt)
                assert result.object_rank == brute_force_side_rank(m, t, pool, flt, False)
                assert result.subject_rank == brute_force_side_rank(m, t, pool, flt, True)
                unfiltered = rank_triple(m, t, pool, None)
                assert unfiltered.object_rank == brute_force_side_rank(m, t, pool, None, False)
                assert unfiltered.subject_rank == brute_force_side_rank(m, t, pool, None, True)

    @pytest.mark.parametrize("rows_per_block", [1, 3, 7])
    def test_scoring_in_blocks_matches_brute_force(self, monkeypatch, rows_per_block):
        """`evaluate` ranks test triples in blocks of rows_per_block, TransE's
        candidates in chunks of rows_per_block columns: its ranks equal
        one-at-a-time `rank_triple` calls and the brute-force oracle."""
        g = random_graph(24, 3, 80, seed=11)
        monkeypatch.setattr(evaluation, "_BLOCK_BYTES", rows_per_block * 16 * g.n_entities)
        test = g.triples[:60]
        pool = np.arange(g.n_entities)
        for kind in KINDS:
            m = init_model(kind, 3, g.n_entities, g.n_relations, seed=12)
            monkeypatch.setattr(kgex.optim, "_CHUNK_ELEMS", rows_per_block * m.width * rows_per_block)
            for flt in (build_filter(g), None):
                blocks = list(evaluation.rank_blocks(m, test, pool, flt))
                assert [len(block) for block, _ in blocks[:-1]] == [rows_per_block] * (len(blocks) - 1)
                got = np.concatenate([ranks for _, ranks in blocks]).tolist()
                one_at_a_time = [
                    [r.subject_rank, r.object_rank]
                    for r in (rank_triple(m, tuple(t), pool, flt) for t in test.tolist())
                ]
                assert got == one_at_a_time == side_ranks(m, test, pool, flt), (kind, flt)
                metrics, skipped = evaluate(m, test, pool, flt)
                assert metrics == metrics_from_ranks(np.ravel(got)) and skipped == 0

    def test_filtering_never_increases_rank(self):
        g = random_graph(15, 2, 50, seed=3)
        m = init_model("transe-l2", 4, g.n_entities, g.n_relations, seed=4)
        flt = build_filter(g)
        pool = np.arange(g.n_entities)
        for i in range(20):
            t = g.triple_at(i)
            filtered = rank_triple(m, t, pool, flt)
            raw = rank_triple(m, t, pool, None)
            assert filtered.object_rank <= raw.object_rank
            assert filtered.subject_rank <= raw.subject_rank

    def test_pool_growth_never_decreases_rank(self):
        g = random_graph(18, 2, 40, seed=6)
        m = init_model("distmult", 4, g.n_entities, g.n_relations, seed=7)
        small = np.arange(9)
        large = np.arange(18)
        for i in range(15):
            t = g.triple_at(i)
            assert rank_triple(m, t, small).object_rank <= rank_triple(m, t, large).object_rank
            assert rank_triple(m, t, small).subject_rank <= rank_triple(m, t, large).subject_rank

    def test_rank_invariant_to_monotone_score_transform(self):
        g = random_graph(12, 2, 30, seed=8)
        m = init_model("distmult", 4, g.n_entities, g.n_relations, seed=9)
        # exp of a DistMult score is not realizable by rescaling rows, but
        # any strictly increasing transform applied to *all* scores is
        # equivalent to comparing the original order, so scaled tables with
        # a positive factor must reproduce the ranks exactly
        scaled_table = np.vstack([2.0 * m.entity_table, 1.5 * m.relation_table])
        scaled = EmbeddingModel(m.kind, m.k, scaled_table, m.n_entities)
        pool = np.arange(g.n_entities)
        for i in range(20):
            t = g.triple_at(i)
            a = rank_triple(m, t, pool)
            b = rank_triple(scaled, t, pool)
            assert (a.subject_rank, a.object_rank) == (b.subject_rank, b.object_rank)

    def test_empty_pool_rejected(self):
        m = constant_model(3, 1)
        with pytest.raises(ValueError):
            rank_triple(m, (0, 0, 1), np.empty(0, dtype=np.int64))

    # -1 would rank as entity 9 and a repeated id would count its candidate twice
    @pytest.mark.parametrize("pool, message", [
        ([-1], r"lie in \[0, 10\)"), ([99], r"lie in \[0, 10\)"), ([3, 10], r"lie in \[0, 10\)"),
        (np.r_[np.arange(10), np.arange(10)], "distinct"), ([4, 2, 4], "distinct"),
    ], ids=["negative", "beyond", "one-beyond", "table-twice", "one-twice"])
    def test_bad_pool_rejected(self, pool, message):
        m = init_model("distmult", 4, 10, 2, seed=0)
        with pytest.raises(ValueError, match=message):
            rank_triple(m, (0, 0, 1), np.asarray(pool))
        with pytest.raises(ValueError, match=message):
            evaluate(m, [(0, 0, 1)], np.asarray(pool))

    @pytest.mark.parametrize("pool", [np.arange(10), np.arange(10)[::-1], [9, 0]], ids=["table", "reversed", "ends"])
    def test_pools_of_distinct_table_ids_accepted(self, pool):
        m = init_model("distmult", 4, 10, 2, seed=0)
        assert rank_triple(m, (0, 0, 1), np.asarray(pool)).subject_rank >= 1


class TestMetrics:
    def test_arithmetic_example(self):
        m = metrics_from_ranks([1, 2, 4])
        assert m.mr == pytest.approx(7 / 3, abs=1e-12)
        assert m.mrr == pytest.approx((1 + 0.5 + 0.25) / 3, abs=1e-12)
        assert m.hits1 == pytest.approx(1 / 3, abs=1e-12)
        assert m.hits10 == 1.0

    def test_bounds(self):
        m = metrics_from_ranks([1, 3, 17, 200])
        assert m.mr >= 1.0
        assert 0.0 < m.mrr <= 1.0
        assert m.hits1 <= m.hits10


class TestEvaluate:
    def test_perfect_model_all_ones(self):
        g = random_graph(10, 2, 30, seed=1)
        # scores: entity e gets distinct magnitude; build a model that ranks
        # every true triple first by construction is fiddly, so check the
        # all-rank-1 path through metrics_from_ranks instead
        assert metrics_from_ranks([1] * 6) == metrics_from_ranks([1, 1, 1, 1, 1, 1])
        perfect = metrics_from_ranks([1] * 6)
        assert perfect.mr == 1.0 and perfect.mrr == 1.0 and perfect.hits1 == 1.0

    def test_uniform_scores_rank_pool_size(self):
        m = constant_model(8, 1)
        triples = [(0, 0, 1), (2, 0, 3)]
        metrics, skipped = evaluate(m, triples, np.arange(8))
        # every rank equals the 7 non-original candidates + 1
        assert metrics.mr == 8.0
        assert metrics.mrr == pytest.approx(1 / 8, abs=1e-12)
        assert skipped == 0

    def test_both_sides_pooled(self):
        g = random_graph(12, 2, 40, seed=2)
        m = init_model("transe-l1", 4, g.n_entities, g.n_relations, seed=3)
        pool = np.arange(g.n_entities)
        t = g.triple_at(0)
        metrics, _ = evaluate(m, [t], pool)
        r = rank_triple(m, t, pool)
        expected = metrics_from_ranks([r.subject_rank, r.object_rank])
        assert metrics == expected

    def test_out_of_vocabulary_triples_skipped(self):
        m = constant_model(5, 2)
        metrics, skipped = evaluate(m, [(0, 0, 1), (99, 0, 1), (0, 5, 1)], np.arange(5))
        assert skipped == 2
        assert metrics.mr == 5.0

    def test_all_skipped_raises(self):
        m = constant_model(5, 2)
        with pytest.raises(ValueError):
            evaluate(m, [(99, 0, 1)], np.arange(5))


class TestBlockRanking:
    @pytest.mark.parametrize("rows_per_block", [1, 7])
    def test_sub_pools_match_brute_force(self, monkeypatch, rows_per_block):
        # the 6-entity pool is gathered in one-triple blocks and read from the whole
        # table in 7-triple blocks; the 7-entity pool is gathered in both
        g = random_graph(40, 3, 120, seed=21)
        monkeypatch.setattr(evaluation, "_BLOCK_BYTES", rows_per_block * 16 * g.n_entities)
        apart = np.array([3, 0, 7, 5, 1, 6])  # unsorted, and no test triple touches it
        outside = ~np.isin(g.triples, apart)[:, [0, 2]].any(axis=1)
        # the second pool holds the test triples' own entities and two more
        for test, pool in (
            (g.triples[outside][:20], apart),
            (g.triples[:4], np.concatenate([np.unique(g.triples[:4][:, [0, 2]]), [38, 39]])),
        ):
            for kind in KINDS:
                m = init_model(kind, 4, g.n_entities, g.n_relations, seed=22)
                for flt in (build_filter(g), None):
                    got = np.concatenate([r for _, r in evaluation.rank_blocks(m, test, pool, flt)])
                    assert got.tolist() == side_ranks(m, test, pool, flt), (kind, flt)

    @pytest.mark.parametrize("kind", ["transe-l1", "transe-l2"])
    def test_transe_column_chunks_change_no_byte(self, monkeypatch, kind):
        """TransE scores a block's candidates in column chunks of the one budget:
        the default takes the 300 columns of 10 triples at once, a budget of 7
        columns takes 43 chunks, with the same score bytes and ranks."""
        g = random_graph(300, 4, 400, seed=41)
        m = init_model(kind, 8, g.n_entities, g.n_relations, seed=42)
        test, pool, flt = g.triples[:10], np.arange(g.n_entities), build_filter(g)

        def scored():
            ranks = np.concatenate([r for _, r in evaluation.rank_blocks(m, test, pool, flt)])
            return evaluation._scores(m, *test.T, None).tobytes(), ranks.tolist()

        calls, score_many = [], evaluation.score_many
        monkeypatch.setattr(evaluation, "score_many", lambda *args: calls.append(1) or score_many(*args))
        want = scored()
        assert len(calls) == 2 * 2  # one chunk a side, in `_scores` and in ranking
        monkeypatch.setattr(kgex.optim, "_CHUNK_ELEMS", 7 * m.width * len(test))
        assert scored() == want and len(calls) == 4 + 2 * 2 * 43

    @pytest.mark.parametrize("kind", ["distmult", "complex"])
    @pytest.mark.parametrize("n_half", [5, 150])
    def test_duplicate_entity_rows_tie_exactly(self, kind, n_half):
        """Entity e and e + n_half share a row: the twin of each positive ties
        it exactly and counts against it, as in the brute-force ranker."""
        g = random_graph(2 * n_half, 2, 3 * n_half, seed=31)
        m = init_model(kind, 5, g.n_entities, g.n_relations, seed=32)
        m.entity_table[n_half:] = m.entity_table[:n_half]
        test = g.triples[:40]
        pool = np.arange(g.n_entities)
        for flt in (build_filter(g), None):
            got = np.concatenate([r for _, r in evaluation.rank_blocks(m, test, pool, flt)])
            assert got.tolist() == side_ranks(m, test, pool, flt)
        unfiltered = np.concatenate([r for _, r in evaluation.rank_blocks(m, test, pool)])
        assert (unfiltered >= 2).all()  # every positive's twin is a candidate tying it


def load_script():
    """`scripts/reproduce_benchmarks.py` as a module, its `main()` not run."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_benchmarks.py"
    spec = importlib.util.spec_from_file_location("reproduce_benchmarks", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_rank1_selection_matches_per_triple_loop(monkeypatch):
    """The benchmark script's block-wise target selection picks the same
    triples, in the same order, as ranking one test triple at a time."""
    script = load_script()
    g = random_graph(30, 3, 200, seed=41)
    teacher = init_model("complex", 3, g.n_entities, g.n_relations, seed=42)
    pool, flt = np.array([0, 1, 2]), build_filter(g)
    monkeypatch.setattr(evaluation, "_BLOCK_BYTES", 7 * 16 * g.n_entities)
    ranked = [(t, rank_triple(teacher, t, pool, flt)) for t in map(tuple, g.triples.tolist())]
    per_triple = [t for t, r in ranked if r.subject_rank == r.object_rank == 1]
    assert len(per_triple) >= 8
    for targets in (1, 5, len(per_triple), len(per_triple) + 3):
        got = script.select_rank1(teacher, g.triples, pool, flt, targets)
        assert got == per_triple[:targets]


class TestBenchmarkScriptMain:
    """`main()` of the benchmark script on a toy dataset, with a given `--teacher`."""

    def run(self, tmp_path, monkeypatch, teacher_of, rank1: bool):
        """Writes the dataset and the DistMult teacher `teacher_of(g)`, whose one test
        triple is the first unseen triple that it ranks first (`rank1`) or not, then runs `main()`."""
        data, out = tmp_path / "data", tmp_path / "out"
        data.mkdir()
        tsv = lambda g, triples: "".join(row + "\n" for row in label_rows(triples, g.entity_vocab, g.relation_vocab))
        train = random_graph(10, 2, 24, seed=51)
        (data / "train.txt").write_text(tsv(train, train.triples), encoding="utf-8")
        g = load_graph(data / "train.txt")  # the ids the script reads the teacher with
        teacher = teacher_of(g)
        pool, flt, seen = np.arange(g.n_entities), build_filter(g), set(map(tuple, g.triples.tolist()))
        unseen = [t for t in itertools.product(pool.tolist(), range(g.n_relations), pool.tolist()) if t not in seen]
        first = lambda r: r.subject_rank == r.object_rank == 1
        test = next(t for t in unseen if first(rank_triple(teacher, t, pool, flt)) == rank1)
        (data / "valid.txt").write_text(tsv(g, g.triples[:1]), encoding="utf-8")
        (data / "test.txt").write_text(tsv(g, [test]), encoding="utf-8")
        save_model(teacher, tmp_path / "teacher.kgex", g.entity_vocab, g.relation_vocab)
        argv = ["--data", data, "--dataset", "wn18rr", "--model", "distmult", "--out", out, "--targets", "1",
                "--mc-runs", "2", "--partitions", "2", "--teacher", tmp_path / "teacher.kgex"]
        monkeypatch.setattr(sys, "argv", ["reproduce_benchmarks.py", *map(str, argv)])
        load_script().main()
        return out

    def test_a_rank1_target_is_explained(self, tmp_path, monkeypatch):
        teacher_of = lambda g: init_model("distmult", 4, g.n_entities, g.n_relations, seed=52)
        out = self.run(tmp_path, monkeypatch, teacher_of, rank1=True)
        metrics = json.loads((out / "surrogate_metrics.json").read_text(encoding="utf-8"))
        assert metrics["targets"] == 1
        assert metrics["mc_runs"] == 2

    def test_no_rank1_target_exits_with_one_line(self, tmp_path, monkeypatch, capsys):
        teacher_of = lambda g: constant_model(g.n_entities, g.n_relations)
        with pytest.raises(SystemExit) as exit_info:
            self.run(tmp_path, monkeypatch, teacher_of, rank1=False)
        assert exit_info.value.code == 1
        err = capsys.readouterr().err
        assert err == f"no test triple ranks first on both sides; the teacher is in {tmp_path / 'teacher.kgex'}\n"
        assert not (tmp_path / "out" / "surrogate_metrics.json").exists()
