"""Triple store: loading, indices, neighborhood/predicate queries, filters."""

import re

import numpy as np
import pytest

from kgex.graph import (
    GraphFormatError,
    VocabularyMismatchError,
    WeightRangeError,
    build_filter,
    graph_from_triples,
    load_graph,
    load_split,
    one_hop_positions,
)
from kgex.focuse import FocusEConfig
from kgex.training import TrainConfig, run_training

from toygraphs import DEMO_TRIPLES, demo_graph, label_graph, random_graph


def one_hop(g, s, o):
    return {g.triple_at(int(pos)) for pos in one_hop_positions(g, s, o)}


def triples_with_predicate(g, p):
    return {g.triple_at(int(pos)) for pos in g.predicate_positions(p)}


def write_tsv(path, rows):
    path.write_text("".join("\t".join(map(str, r)) + "\n" for r in rows), encoding="utf-8")
    return path


class TestLoadGraph:
    def test_four_line_file(self, tmp_path):
        path = write_tsv(
            tmp_path / "g.tsv",
            [("A", "r1", "B"), ("B", "r1", "C"), ("A", "r2", "C"), ("D", "r1", "A")],
        )
        g = load_graph(path)
        assert g.n_triples == 4
        assert g.n_entities == 4
        assert g.n_relations == 2
        assert g.entity_vocab.labels == ["A", "B", "C", "D"]  # first appearance
        assert g.relation_vocab.labels == ["r1", "r2"]

    def test_duplicates_dropped_and_counted(self, tmp_path):
        path = write_tsv(tmp_path / "g.tsv", [("A", "r", "B"), ("A", "r", "B"), ("B", "r", "A")])
        g = load_graph(path)
        assert g.n_triples == 2
        assert g.duplicates_dropped == 1

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("A\tr\tB\nA\tr\n", encoding="utf-8")
        with pytest.raises(GraphFormatError, match=":2"):
            load_graph(path)

    def test_weight_out_of_range_strict(self, tmp_path):
        path = write_tsv(tmp_path / "g.tsv", [("A", "r", "B", 0.5), ("B", "r", "C", 1.5)])
        with pytest.raises(WeightRangeError, match=":2"):
            load_graph(path, has_weights=True)

    def test_weight_policies(self, tmp_path):
        path = write_tsv(tmp_path / "g.tsv", [("A", "r", "B", 2.0), ("B", "r", "C", 0.0), ("C", "r", "A", 1.0)])
        clamped = load_graph(path, has_weights=True, weight_policy="clamp")
        assert clamped.weights.tolist() == [1.0, 0.0, 1.0]
        scaled = load_graph(path, has_weights=True, weight_policy="minmax")
        assert scaled.weights.tolist() == [1.0, 0.0, 0.5]

    def test_minmax_weights_whose_range_overflows(self, tmp_path):
        path = write_tsv(tmp_path / "g.tsv", [("A", "r", "B", -1e308), ("B", "r", "C", 1e308), ("C", "r", "A", 0.0)])
        g = load_graph(path, has_weights=True, weight_policy="minmax")
        assert g.weights.tolist() == [0.0, 1.0, 0.5]

    @pytest.mark.parametrize("policy, weight, loaded", [
        ("strict", "nan", None), ("clamp", "nan", None), ("minmax", "nan", None),
        ("minmax", "inf", None), ("minmax", "-inf", None), ("clamp", "inf", 1.0), ("clamp", "-inf", 0.0),
    ])
    def test_nan_and_infinite_weights(self, tmp_path, policy, weight, loaded):
        """NaN is a bad weight under every policy and ±inf under minmax, which would turn them into NaN."""
        path = tmp_path / "g.tsv"
        path.write_text(f"A\tr\tB\t0.5\nB\tr\tC\t{weight}\nC\tr\tA\t0\n", encoding="utf-8")
        if loaded is None:
            with pytest.raises(GraphFormatError, match=f"^{re.escape(str(path))}:2: bad weight '{weight}'$"):
                load_graph(path, has_weights=True, weight_policy=policy)
        else:
            g = load_graph(path, has_weights=True, weight_policy=policy)
            assert g.weights.tolist() == [0.5, loaded, 0.0]

    def test_deterministic_reload(self, tmp_path):
        rows = [(f"e{i % 7}", f"r{i % 3}", f"e{(i * 5) % 7}") for i in range(30)]
        path = write_tsv(tmp_path / "g.tsv", rows)
        a, b = load_graph(path), load_graph(path)
        assert a.entity_vocab.labels == b.entity_vocab.labels
        assert a.relation_vocab.labels == b.relation_vocab.labels
        assert np.array_equal(a.triples, b.triples)

    def test_empty_weighted_file_minmax(self, tmp_path):
        path = write_tsv(tmp_path / "g.tsv", [])
        g = load_graph(path, has_weights=True, weight_policy="minmax")
        assert g.n_triples == 0
        assert g.weights.shape == (0,)
        with pytest.raises(ValueError, match="empty graph"):
            run_training(g, TrainConfig(focuse=FocusEConfig()))

    def test_weights_require_fourth_column(self, tmp_path):
        path = write_tsv(tmp_path / "g.tsv", [("A", "r", "B")])
        with pytest.raises(GraphFormatError, match="expected 4"):
            load_graph(path, has_weights=True)


class TestLoadSplit:
    def test_oov_triples_flagged_and_skipped(self, tmp_path):
        train = load_graph(write_tsv(tmp_path / "train.tsv", [("A", "r", "B"), ("B", "r", "C")]))
        test = load_split(
            write_tsv(tmp_path / "test.tsv", [("A", "r", "C"), ("Z", "r", "A"), ("A", "q", "B")]),
            train.entity_vocab,
            train.relation_vocab,
        )
        assert test.n_triples == 1
        assert test.oov_skipped == 2
        assert test.entity_vocab is train.entity_vocab


class TestGraphFromTriples:
    @pytest.mark.parametrize("bad", [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (2, 0, 0), (0, 1, 0), (0, 0, 2)])
    def test_ids_outside_vocabularies_rejected(self, bad):
        g = label_graph([("A", "r", "B")])
        with pytest.raises(IndexError):
            graph_from_triples([bad], g.entity_vocab, g.relation_vocab)


class TestNeighborhoods:
    def test_one_hop_enumeration_oracle(self):
        g = demo_graph()
        # oracle: linear scan of all five label triples
        def scan(*entities):
            return {
                t for t in DEMO_TRIPLES if t[0] in entities or t[2] in entities
            }

        def as_labels(triples):
            ev, rv = g.entity_vocab, g.relation_vocab
            return {(ev.label_of(s), rv.label_of(p), ev.label_of(o)) for s, p, o in triples}

        a, b = g.entity_vocab.id_of("A"), g.entity_vocab.id_of("B")
        assert as_labels(one_hop(g, a, b)) == scan("A", "B")
        assert scan("A", "B") == {("A", "r1", "B"), ("B", "r1", "C"), ("A", "r2", "C"), ("D", "r1", "A")}

    def test_isolated_pair_empty(self):
        g = demo_graph(extra_entities=2)
        e1 = g.entity_vocab.id_of("isolated0")
        e2 = g.entity_vocab.id_of("isolated1")
        assert len(one_hop_positions(g, e1, e2)) == 0

    def test_same_entity_idempotent(self):
        g = demo_graph()
        a = g.entity_vocab.id_of("A")
        assert np.array_equal(one_hop_positions(g, a, a), np.union1d(one_hop_positions(g, a, a), one_hop_positions(g, a, a)))

    def test_invalid_id_rejected(self):
        g = demo_graph()
        with pytest.raises(IndexError):
            one_hop_positions(g, 0, 99)

    def test_index_exhaustive_on_random_graphs(self):
        for seed in range(5):
            g = random_graph(n_entities=20, n_relations=4, n_triples=80, seed=seed)
            triples = [g.triple_at(i) for i in range(g.n_triples)]
            for e in range(g.n_entities):
                via_index = {g.triple_at(int(p)) for p in g.entity_positions(e)}
                via_scan = {t for t in triples if e in (t[0], t[2])}
                assert via_index == via_scan
                assert all(e in (t[0], t[2]) for t in via_index)

    def test_positions_are_read_only(self):
        """A write into a returned position array would rewrite the cached index."""
        g = demo_graph(extra_entities=1, extra_relations=1)
        isolated, unused = g.n_entities - 1, g.n_relations - 1
        for positions in (g.entity_positions(0), g.predicate_positions(0),
                          g.entity_positions(isolated), g.predicate_positions(unused)):
            with pytest.raises(ValueError, match="read-only"):
                positions[:] = 0
        assert g.entity_positions(0).tolist() == [0, 2, 3]

    def test_one_hop_superset_of_incident(self):
        g = random_graph(15, 3, 60, seed=9)
        for s, p, o in g.triples[:20]:
            hood = one_hop(g, int(s), int(o))
            assert (int(s), int(p), int(o)) in hood


class TestPredicateTriples:
    def test_enumeration_oracle(self):
        g = demo_graph()
        r1 = g.relation_vocab.id_of("r1")
        r2 = g.relation_vocab.id_of("r2")
        by_scan_r1 = {t for t in DEMO_TRIPLES if t[1] == "r1"}
        ev, rv = g.entity_vocab, g.relation_vocab
        got_r1 = {(ev.label_of(s), rv.label_of(p), ev.label_of(o)) for s, p, o in triples_with_predicate(g, r1)}
        got_r2 = {(ev.label_of(s), rv.label_of(p), ev.label_of(o)) for s, p, o in triples_with_predicate(g, r2)}
        assert got_r1 == by_scan_r1 == {("A", "r1", "B"), ("B", "r1", "C"), ("D", "r1", "A")}
        assert got_r2 == {("A", "r2", "C"), ("C", "r2", "D")}

    def test_unused_relation_empty(self):
        g = demo_graph(extra_relations=1)
        assert triples_with_predicate(g, g.relation_vocab.id_of("unused0")) == set()


class TestFilter:
    def test_contains_union_not_reversed(self):
        train = label_graph([("A", "r1", "B")])
        c = train.entity_vocab.add("C")
        a_id = train.entity_vocab.id_of("A")
        test = graph_from_triples([(a_id, 0, c)], train.entity_vocab, train.relation_vocab)
        flt = build_filter(train, test)
        a, b, c = (train.entity_vocab.id_of(x) for x in "ABC")
        r1 = train.relation_vocab.id_of("r1")
        assert (a, r1, b) in flt
        assert (a, r1, c) in flt
        assert (b, r1, a) not in flt

    def test_empty_inputs(self):
        g = label_graph([("A", "r", "B")])
        empty = graph_from_triples([], g.entity_vocab, g.relation_vocab)
        flt = build_filter(empty)
        assert len(flt) == 0
        assert (0, 0, 1) not in flt

    def test_cross_split_duplicate_counted_once(self):
        g = label_graph([("A", "r", "B")])
        again = graph_from_triples(g.triples, g.entity_vocab, g.relation_vocab)
        assert len(build_filter(g, again)) == 1

    def test_vocabulary_mismatch(self):
        g1 = label_graph([("A", "r", "B")])
        g2 = label_graph([("B", "r", "A")])  # different label order
        with pytest.raises(VocabularyMismatchError):
            build_filter(g1, g2)

    def test_side_lookups(self):
        g = label_graph([("A", "r", "B"), ("A", "r", "C"), ("D", "r", "B")])
        flt = build_filter(g)
        ev, rv = g.entity_vocab, g.relation_vocab
        a, r = ev.id_of("A"), rv.id_of("r")
        assert set(flt.objects_for(a, r).tolist()) == {ev.id_of("B"), ev.id_of("C")}
        assert set(flt.subjects_for(r, ev.id_of("B")).tolist()) == {a, ev.id_of("D")}


def test_ids_of_adds_unseen_labels_in_first_appearance_order():
    from kgex.graph import Vocabulary

    vocab = Vocabulary(["b", "a"])
    ids = vocab.ids_of(["c", "a", "d", "c", "b", "d", "e"], grow=True)
    assert ids.tolist() == [2, 1, 3, 2, 0, 3, 4]
    assert vocab.labels == ["b", "a", "c", "d", "e"] and vocab.id_of("e") == 4
    assert vocab.ids_of(["e", "x", "b"]).tolist() == [4, -1, 0] and len(vocab) == 5
    assert vocab.ids_of(["a", "b"], grow=True).tolist() == [1, 0] and len(vocab) == 5


class TestVocabularyDump:
    def test_round_trip(self, tmp_path):
        g = demo_graph()
        path = tmp_path / "entities.tsv"
        g.entity_vocab.dump(path)
        from kgex.graph import Vocabulary

        loaded = Vocabulary.load(path)
        assert loaded.labels == g.entity_vocab.labels

    def test_duplicate_label_is_named(self, tmp_path):
        from kgex.graph import Vocabulary

        path = tmp_path / "entities.tsv"
        path.write_text("a\t0\nb\t1\na\t2\n", encoding="utf-8")
        with pytest.raises(GraphFormatError, match=re.escape(f"{path}:3: duplicate label 'a'")):
            Vocabulary.load(path)

    def test_duplicate_teacher_sidecar_label_is_named(self, tmp_path):
        from kgex.modelio import entity_sidecar, load_model, save_model
        from kgex.models import init_model

        g = demo_graph()
        path = tmp_path / "teacher.kgex"
        save_model(init_model("distmult", 2, g.n_entities, g.n_relations, seed=0), path,
                   g.entity_vocab, g.relation_vocab)
        sidecar, label = entity_sidecar(path), g.entity_vocab.label_of(0)
        lines = sidecar.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[-1] = f"{label}\t{g.n_entities - 1}\n"
        sidecar.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(GraphFormatError, match=re.escape(f"{sidecar}:{len(lines)}: duplicate label {label!r}")):
            load_model(path)
