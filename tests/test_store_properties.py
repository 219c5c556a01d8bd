"""Property tests of the triple store against independent oracles.

Random small graphs with duplicates, self-loops, unknown labels and weights
exercise the ingest, the entity/predicate indices and the filter's side
lookups, including ids at and beyond the vocabulary edge.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgex.graph import TrueTripleSet, build_filter, graph_from_triples, load_graph, load_split

from oracles import SetFilter, incident_triples, ingest_loop
from toygraphs import numbered_vocabularies

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

WEIGHTS = st.sampled_from([0.0, 0.125, 0.5, 0.75, 1.0])


def label_rows(entities, relations):
    return st.lists(
        st.tuples(st.sampled_from(entities), st.sampled_from(relations), st.sampled_from(entities), WEIGHTS),
        max_size=40,
    )


@st.composite
def id_graphs(draw):
    """(n_entities, n_relations, triples): ids in range, repeats and self-loops likely."""
    n_e = draw(st.integers(1, 6))
    n_r = draw(st.integers(1, 3))
    triple = st.tuples(st.integers(0, n_e - 1), st.integers(0, n_r - 1), st.integers(0, n_e - 1))
    return n_e, n_r, draw(st.lists(triple, max_size=30))


def write_rows(path: Path, rows) -> Path:
    path.write_text("".join(f"{s}\t{p}\t{o}\t{w!r}\n" for s, p, o, w in rows), encoding="utf-8")
    return path


def assert_matches_loop(g, expected):
    entity_labels, relation_labels, triples, weights, dropped, oov = expected
    assert g.entity_vocab.labels == entity_labels
    assert g.relation_vocab.labels == relation_labels
    assert g.triples.dtype == np.int64 and g.triples.shape == (len(triples), 3)
    assert g.triples.tolist() == [list(t) for t in triples]
    assert g.weights.tolist() == weights
    assert (g.duplicates_dropped, g.oov_skipped) == (dropped, oov)


@PROPERTY
@given(label_rows("abcde", "rq"), label_rows("abcdexy", "rqz"))
def test_ingest_matches_row_loop(train_rows, split_rows):
    with tempfile.TemporaryDirectory() as tmp:
        g = load_graph(write_rows(Path(tmp) / "train.tsv", train_rows), has_weights=True)
        assert_matches_loop(g, ingest_loop(train_rows))
        labels = (list(g.entity_vocab.labels), list(g.relation_vocab.labels))
        split = load_split(
            write_rows(Path(tmp) / "split.tsv", split_rows), g.entity_vocab, g.relation_vocab,
            has_weights=True,
        )
        assert_matches_loop(split, ingest_loop(split_rows, *labels))


@PROPERTY
@given(id_graphs())
def test_indices_match_linear_scans(graph):
    n_e, n_r, triples = graph
    g = graph_from_triples(triples, *numbered_vocabularies(n_e, n_r))
    for e in range(n_e):
        positions = g.entity_positions(e)
        assert positions.dtype == np.int64
        assert positions.tolist() == [i for i, (s, _, o) in enumerate(triples) if e in (s, o)]
        assert {g.triple_at(int(i)) for i in positions} == incident_triples(g, e)
    for p in range(n_r):
        assert g.predicate_positions(p).tolist() == [i for i, t in enumerate(triples) if t[1] == p]
    for bad in (-1, n_e):
        with pytest.raises(IndexError):
            g.entity_positions(bad)
    for bad in (-1, n_r):
        with pytest.raises(IndexError):
            g.predicate_positions(bad)


@PROPERTY
@given(id_graphs(), st.integers(0, 30))
def test_filter_matches_set_of_tuples(graph, cut):
    n_e, n_r, triples = graph
    ev, rv = numbered_vocabularies(n_e, n_r)
    flt = build_filter(graph_from_triples(triples[:cut], ev, rv), graph_from_triples(triples[cut:], ev, rv))
    ref = SetFilter(triples)
    assert len(flt) == len(ref)
    entities, relations = range(-1, n_e + 2), range(-1, n_r + 2)  # past both vocabulary edges
    for p in relations:
        for e in entities:
            for got, want in ((flt.objects_for(e, p), ref.objects_for(e, p)),
                              (flt.subjects_for(p, e), ref.subjects_for(p, e))):
                assert got.dtype == np.int64
                assert np.all(np.diff(got) > 0)
                assert set(got.tolist()) == want
            for o in entities:
                assert ((e, p, o) in flt) == ((e, p, o) in ref)


def test_key_range_edge_is_usable():
    n_e, n_r = 2**31, 2  # the largest key, (E-1, R-1, E-1), is exactly int64 max
    last = (n_e - 1, n_r - 1, n_e - 1)
    flt = TrueTripleSet(np.array([last]), n_e, n_r)
    assert last in flt
    assert flt.objects_for(n_e - 1, n_r - 1).tolist() == [n_e - 1]
    assert flt.subjects_for(n_r - 1, n_e - 1).tolist() == [n_e - 1]
    assert (n_e - 1, n_r - 1, n_e - 2) not in flt
    with pytest.raises(ValueError, match="int64"):
        TrueTripleSet(np.array([last]), n_e, n_r + 1)


@PROPERTY
@given(st.integers(1, 2**40), st.integers(1, 2**12))
def test_overflow_guard(n_e, n_r):
    empty = np.empty((0, 3), dtype=np.int64)
    if n_e * n_e * n_r > 2**63:
        with pytest.raises(ValueError, match="int64"):
            TrueTripleSet(empty, n_e, n_r)
    else:
        assert len(TrueTripleSet(empty, n_e, n_r)) == 0
