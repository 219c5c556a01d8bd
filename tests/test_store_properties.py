"""Property tests of the triple store against independent oracles.

Random small graphs with duplicates, self-loops, unknown labels and weights
exercise the ingest (at block sizes from one byte to the default), the
entity/predicate indices and the filter's side lookups, including ids at and
beyond the vocabulary edge.
"""

import re
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgex import graph
from kgex.graph import (
    GraphFormatError, TrueTripleSet, WeightRangeError, build_filter, graph_from_triples, load_graph,
    load_split,
)

from oracles import SetFilter, incident_triples, ingest_loop
from toygraphs import numbered_vocabularies

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

WEIGHTS = st.sampled_from([0.0, 0.125, 0.5, 0.75, 1.0])

# multi-byte UTF-8 labels, and labels holding characters that `str.splitlines` splits at
NON_ASCII = ["é", "日本", "a\x85b", "c\u2028d"]


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


# one byte (a line a block), about three of these tests' lines, and the default
BLOCK_SIZES = [1, 32, graph._BLOCK_BYTES]


def write_rows(path: Path, rows, newline="\n", final_newline=True, weighted=True) -> Path:
    text = newline.join(f"{s}\t{p}\t{o}" + f"\t{w!r}" * weighted for s, p, o, w in rows)
    path.write_bytes((text + newline * (final_newline and bool(rows))).encode("utf-8"))
    return path


def assert_matches_loop(g, expected):
    entity_labels, relation_labels, triples, weights, dropped, oov = expected
    assert g.entity_vocab.labels == entity_labels
    assert g.relation_vocab.labels == relation_labels
    assert g.triples.dtype == np.int64 and g.triples.shape == (len(triples), 3)
    assert g.triples.tolist() == [list(t) for t in triples]
    assert g.weights.tolist() == weights
    assert (g.duplicates_dropped, g.oov_skipped) == (dropped, oov)


def assert_ingest_matches_loop(tmp, train_rows, split_rows, **layout):
    g = load_graph(write_rows(Path(tmp) / "train.tsv", train_rows, **layout), has_weights=True)
    assert_matches_loop(g, ingest_loop(train_rows))
    labels = (list(g.entity_vocab.labels), list(g.relation_vocab.labels))
    split = load_split(
        write_rows(Path(tmp) / "split.tsv", split_rows, **layout), g.entity_vocab, g.relation_vocab,
        has_weights=True,
    )
    assert_matches_loop(split, ingest_loop(split_rows, *labels))


@PROPERTY
@given(label_rows([*"abcde", *NON_ASCII], ["r", "q", *NON_ASCII]),
       label_rows([*"abcdexy", *NON_ASCII, "ü"], ["r", "q", "z", *NON_ASCII]))
def test_ingest_matches_row_loop(train_rows, split_rows):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        for block_bytes in BLOCK_SIZES:
            mp.setattr(graph, "_BLOCK_BYTES", block_bytes)
            assert_ingest_matches_loop(tmp, train_rows, split_rows)


TRAIN_ROWS = [("a", "r", "b", 0.5), ("b", "r", "c", 1.0), ("a", "r", "b", 0.25), ("c", "q", "a", 0.0)]
SPLIT_ROWS = [("a", "q", "c", 0.75), ("x", "r", "a", 0.5), ("c", "q", "a", 0.125)]


@pytest.mark.parametrize("block_bytes", BLOCK_SIZES)
@pytest.mark.parametrize("layout", [
    {"newline": "\r\n"}, {"final_newline": False}, {"newline": "\r\n", "final_newline": False},
], ids=["crlf", "no final newline", "crlf, no final newline"])
def test_line_endings_load_like_newlines(tmp_path, monkeypatch, block_bytes, layout):
    monkeypatch.setattr(graph, "_BLOCK_BYTES", block_bytes)
    assert_ingest_matches_loop(tmp_path, TRAIN_ROWS, SPLIT_ROWS, **layout)
    # without a weight column, a kept carriage return would end the object labels
    g = load_graph(write_rows(tmp_path / "unweighted.tsv", TRAIN_ROWS, weighted=False, **layout))
    entity_labels, relation_labels, triples, _, dropped, _ = ingest_loop(TRAIN_ROWS)
    assert (g.entity_vocab.labels, g.relation_vocab.labels) == (entity_labels, relation_labels)
    assert (g.triples.tolist(), g.duplicates_dropped) == ([list(t) for t in triples], dropped)


@pytest.mark.parametrize("block_bytes", BLOCK_SIZES)
@pytest.mark.parametrize("has_weights", [False, True])
def test_empty_file_loads_an_empty_graph(tmp_path, monkeypatch, block_bytes, has_weights):
    monkeypatch.setattr(graph, "_BLOCK_BYTES", block_bytes)
    path = tmp_path / "empty.tsv"
    path.write_bytes(b"")
    for g in (load_graph(path, has_weights), load_split(path, *numbered_vocabularies(2, 1), has_weights)):
        assert g.triples.dtype == np.int64 and g.triples.shape == (0, 3)
        assert (g.duplicates_dropped, g.oov_skipped) == (0, 0)
        assert g.weights is None if not has_weights else g.weights.tolist() == []
    assert load_graph(path).n_entities == load_graph(path).n_relations == 0


# Each file has two malformed lines, of different kinds and several lines apart, so
# that at the smaller block sizes they sit in different blocks: the earlier one is
# reported, with the message and line number of a line-by-line read.  In the last
# file they are adjacent, in one block at 32 bytes and up: a long line, then a short
# one.  The block holds as many tabs in all as a well-formed block, and its fields
# read as a well-formed block's would, so only a check of each line finds them.
BAD_FILES = {
    "empty line before a bad weight": (
        "a\tr\tb\t0.5\n\nb\tr\tc\t1\nc\tr\ta\t0\na\tq\tc\tx\n",
        GraphFormatError, ":2: expected 4 tab-separated columns, got 1"),
    "bad weight before a short line": (
        "a\tr\tb\t0.5\nb\tr\tc\tlow\nc\tr\ta\t0\na\tq\tc\t1\nb\tq\n",
        GraphFormatError, ":2: bad weight 'low'"),
    "weight out of range before a bad weight": (
        "a\tr\tb\t0.5\nb\tr\tc\t0\nc\tr\ta\t1.5\na\tq\tc\t1\nb\tq\tc\t?\n",
        WeightRangeError, ":3: weight 1.5 outside [0, 1] (strict policy)"),
    "NaN weight before a short line": (
        "a\tr\tb\t0.5\nb\tr\tc\t1\nc\tr\ta\tnan\na\tq\tc\t0\nb\tq\n",
        GraphFormatError, ":3: bad weight 'nan'"),
    "long line before an out-of-range weight": (
        "a\tr\tb\t0.5\tz\nb\tr\tc\t0\nc\tr\ta\t1\na\tq\tc\t-0.5\n",
        GraphFormatError, ":1: expected 4 tab-separated columns, got 5"),
    "long line then a short line in one block": (
        "a\tr\tb\t0.5\nb\tr\tc\t1\t0\nc\tr\t1\na\tq\tc\t0\n",
        GraphFormatError, ":2: expected 4 tab-separated columns, got 5"),
}


@pytest.mark.parametrize("block_bytes", BLOCK_SIZES)
@pytest.mark.parametrize("name", list(BAD_FILES))
def test_first_malformed_line_is_reported(tmp_path, monkeypatch, block_bytes, name):
    monkeypatch.setattr(graph, "_BLOCK_BYTES", block_bytes)
    text, error, message = BAD_FILES[name]
    path = tmp_path / "bad.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(error) as raised:
        load_graph(path, has_weights=True)
    assert str(raised.value) == f"{path}{message}"
    if error is GraphFormatError:  # the weight policy does not change it
        with pytest.raises(error, match="^" + re.escape(f"{path}{message}") + "$"):
            load_split(path, *numbered_vocabularies(1, 1), has_weights=True, weight_policy="clamp")


# The one malformed line is the last, with no newline after it: an overflowing
# weight, read as inf, then a short line.
NEWLINE_LESS_BAD_LAST_LINES = [
    ("a\tr\tb\t0.5\nb\tr\tc\t1e400", "strict", WeightRangeError, ":2: weight inf outside [0, 1] (strict policy)"),
    ("a\tr\tb\t0.5\nb\tr\tc\t1e400", "minmax", GraphFormatError, ":2: bad weight '1e400'"),
    ("a\tr\tb\t0.5\nb\tr", "strict", GraphFormatError, ":2: expected 4 tab-separated columns, got 2"),
]


@pytest.mark.parametrize("block_bytes", BLOCK_SIZES)
@pytest.mark.parametrize("text, policy, error, message", NEWLINE_LESS_BAD_LAST_LINES,
                         ids=["overflow, strict", "overflow, minmax", "short line"])
def test_malformed_last_line_without_newline_is_reported(
    tmp_path, monkeypatch, block_bytes, text, policy, error, message,
):
    monkeypatch.setattr(graph, "_BLOCK_BYTES", block_bytes)
    path = tmp_path / "bad.tsv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(error) as raised:
        load_graph(path, has_weights=True, weight_policy=policy)
    assert type(raised.value) is error and str(raised.value) == f"{path}{message}"


def test_load_memory_is_one_block_plus_the_rows(tmp_path, monkeypatch):
    """A load's traced peak stays below the size of its file.

    The file has 8,000 lines shaped like the benchmark's FB15K-237-size graph:
    `/m/` ids over 421 entities (about 19 triples each, as in FB15K-237) and
    237 relations, 56 bytes a line.  The bound adds three terms:

    - the vocabularies, as measured on the loaded graph;
    - 32 bytes a line: the most the loader holds per row (`graph._distinct_rows`:
      a key, its sort order and its sorted copy; or a key, its order, and a run's
      start and first position); while parsing, a row's three int64 ids (24 bytes)
      and its block's share of an array header;
    - 16 bytes per byte of a block: a block's text is held at most four times
      (its lines, their join, and either the join's UTF-8 bytes, whose separators
      are checked, or the newline-to-tab copy and the split fields), and its
      string headers, list slots and id arrays come to under 9 bytes per byte of
      56-byte lines.

    That bound is 87% of the file's size.  Parsing a line into Python
    objects costs several times the line (the per-line tuple parse peaked at 9
    times this file's size), and so does reading the whole file at once.
    """
    block_bytes, n_lines = 4096, 8000
    monkeypatch.setattr(graph, "_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(0)
    s, o = rng.integers(0, n_lines // 19, size=(2, n_lines))
    p = rng.integers(0, 237, size=n_lines)
    path = tmp_path / "train.tsv"
    path.write_text("".join(
        f"/m/{a:06d}\t/synthetic/domain_{b:03d}/type/property\t/m/{c:06d}\n" for a, b, c in zip(s, p, o)
    ), encoding="utf-8")
    tracemalloc.start()
    try:
        g = load_graph(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    vocabularies = sum(
        sys.getsizeof(v.labels) + sys.getsizeof(v.label_to_id) + sum(map(sys.getsizeof, v.labels))
        for v in (g.entity_vocab, g.relation_vocab)
    )
    bound = vocabularies + 32 * n_lines + 16 * block_bytes
    assert g.n_triples > 0.99 * n_lines  # nearly every row is kept and decoded
    assert peak <= bound < path.stat().st_size


def test_index_build_peaks_at_two_incidence_arrays_plus_the_views():
    """Building `by_entity` or `by_predicate` peaks near what the index keeps.

    The graph has 20,000 random triples over 1,000 entities (a few self-loops) and 50
    relations: m = 39,988 entity incidences and n = 20,000 predicate incidences.  An
    index keeps one int64 array of its m incidences and, per id, a view of it in a
    dict (`views`, measured as the kept bytes less 8m).  While it is built it also
    holds, at most (`graph._group_positions`):

    - one temporary of a part's positions or ids, at most n int64s: the `arange(n)`
      of the subjects' and the predicates' part, or the distinct objects' ids and
      positions, one at a time;
    - for `by_entity`, the mask of the distinct objects, one byte per triple;
    - per id, under 64 bytes: the searched id range, the split points and the list
      of views, which `views` counts only once the dict holds them.

    Measured in int64 arrays of each index's incidences (8m and 8n bytes), `by_entity`
    peaked at 5.57 and `by_predicate` at 4.01 when the keys, positions and ids were
    each copied; they peak at 1.77 and 2.01 built in place, against bounds of 2.30
    and 2.07.
    """
    n_e, n_r, n = 1000, 50, 20000
    rng = np.random.default_rng(0)
    triples = np.stack([rng.integers(0, n_e, n), rng.integers(0, n_r, n), rng.integers(0, n_e, n)], axis=1)
    g = graph_from_triples(triples, *numbered_vocabularies(n_e, n_r))
    m = n + int(np.count_nonzero(triples[:, 0] != triples[:, 2]))
    for name, incidences, mask in (("by_entity", m, n), ("by_predicate", n, 0)):
        tracemalloc.start()
        try:
            index = getattr(g, name)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        views = held - 8 * incidences
        assert sum(map(len, index.values())) == incidences
        assert peak <= 8 * (incidences + n) + mask + views + 64 * len(index), name


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
