"""Predicate-neighborhood and random-walk subgraph samplers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgex.graph import graph_from_triples, one_hop_positions
from kgex.sampling import (
    SubgraphSpec,
    read_subgraph_tsv,
    sample_pn,
    sample_rw,
    sample_subgraph,
    write_subgraph_tsv,
)

from oracles import incident_triples, subgraph_triples
from toygraphs import demo_graph, label_graph, random_graph


def rng_for(seed):
    return np.random.default_rng(np.random.SeedSequence(seed))


class TestPredicateNeighborhood:
    def test_n_zero_is_exactly_one_hop(self):
        g = demo_graph()
        target = (0, 0, 1)  # (A, r1, B)
        sub = sample_pn(g, target, 0, rng_for(1))
        assert subgraph_triples(sub) == incident_triples(g, 0, 1)

    def test_covers_neighborhoods_of_drawn_predicate_triples(self):
        g = demo_graph()
        target = (0, 0, 1)
        seed = 17
        sub = sample_pn(g, target, 8, rng_for(seed))
        # enumeration oracle: replay the exact draws and union neighborhoods
        replay = rng_for(seed)
        expected = set(incident_triples(g, 0, 1))
        predicate_pool = g.predicate_positions(0)
        drawn = set()
        for _ in range(8):
            pos = int(predicate_pool[replay.integers(len(predicate_pool))])
            drawn.add(pos)
            s_hat, _, o_hat = g.triple_at(pos)
            expected |= incident_triples(g, s_hat, o_hat)
        assert subgraph_triples(sub) == expected
        # with 8 draws from 3 same-predicate triples, this seed covers them all
        assert drawn == set(g.predicate_positions(0).tolist())

    def test_missing_predicate_falls_back_to_one_hop(self):
        g = demo_graph(extra_relations=1)
        unused = g.relation_vocab.id_of("unused0")
        target = (0, unused, 1)
        sub = sample_pn(g, target, 5, rng_for(3))
        assert subgraph_triples(sub) == incident_triples(g, 0, 1)

    def test_prefix_nesting_monotone(self):
        """Same seed, larger n extends the draw sequence: H_n is nested."""
        g = random_graph(30, 4, 150, seed=5)
        target = g.triple_at(0)
        previous = set()
        for n in (0, 2, 5, 9):
            sub = sample_pn(g, target, n, rng_for(42))
            current = set(map(tuple, sub.triple_array().tolist()))
            assert current >= previous
            previous = current


    @pytest.mark.parametrize("seed", [42, 7])
    def test_draws_stop_once_every_endpoint_is_in(self, monkeypatch, seed):
        """n = 10**6 reads a few hundred same-predicate triples, not 10**6, and
        gives the union over every such triple; a smaller n gives what drawing
        all n would."""
        g = random_graph(30, 4, 150, seed=5)
        target = g.triple_at(0)
        pool = g.predicate_positions(target[1])
        everything = set(incident_triples(g, target[0], target[2]))
        for s_hat, _, o_hat in map(g.triple_at, pool):
            everything |= incident_triples(g, s_hat, o_hat)
        for n in (1, 5, 40, 400):
            replay, endpoints = rng_for(seed), {target[0], target[2]}
            for _ in range(n):
                s_hat, _, o_hat = g.triple_at(int(pool[replay.integers(len(pool))]))
                endpoints |= {s_hat, o_hat}
            expected = np.unique(np.concatenate([g.entity_positions(e) for e in endpoints]))
            assert np.array_equal(sample_pn(g, target, n, rng_for(seed)).positions, expected)
        read, calls = g.triple_at, []
        monkeypatch.setattr(g, "triple_at", lambda pos: calls.append(pos) or read(pos))
        sub, drawn = sample_pn(g, target, 10**6, rng_for(seed)), len(calls)
        assert subgraph_triples(sub) == everything
        assert len(pool) < drawn < 20 * len(pool)


class TestRandomWalk:
    def test_n_zero_is_exactly_one_hop(self):
        g = demo_graph()
        sub = sample_rw(g, (0, 0, 1), 0, rng_for(1))
        assert subgraph_triples(sub) == incident_triples(g, 0, 1)
        assert sub.steps_taken == 0

    def test_each_step_shares_an_entity_with_previous_origin(self):
        g = random_graph(25, 3, 120, seed=8)
        target = g.triple_at(3)
        seed = 23
        sub = sample_rw(g, target, 40, rng_for(seed))
        # replay the walk and check the chaining property draw by draw
        replay = rng_for(seed)
        origin = target
        for _ in range(sub.steps_taken):
            neighborhood = one_hop_positions(g, origin[0], origin[2])
            assert len(neighborhood) > 0
            drawn = g.triple_at(int(neighborhood[replay.integers(len(neighborhood))]))
            assert {drawn[0], drawn[2]} & {origin[0], origin[2]}
            origin = drawn

    def test_isolated_pair_terminates_early(self):
        g = demo_graph(extra_entities=2)
        e1, e2 = g.entity_vocab.id_of("isolated0"), g.entity_vocab.id_of("isolated1")
        sub = sample_rw(g, (e1, 0, e2), 10, rng_for(0))
        assert len(sub) == 0
        assert sub.steps_taken == 0

    def test_step_count_bounds_added_triples(self):
        g = random_graph(25, 3, 120, seed=9)
        target = g.triple_at(0)
        hood = len(one_hop_positions(g, target[0], target[2]))
        sub = sample_rw(g, target, 15, rng_for(4))
        assert len(sub) <= hood + 15


class TestSharedContracts:
    @pytest.mark.parametrize("method", ["pn", "rw"])
    def test_subgraph_contracts_many_seeds(self, method):
        g = random_graph(20, 3, 90, seed=2)
        all_triples = set(map(tuple, g.triples.tolist()))
        for seed in range(50):
            target = g.triple_at(seed % g.n_triples)
            sub = sample_subgraph(g, target, SubgraphSpec(method, 6, seed))
            triples = subgraph_triples(sub)
            assert triples <= all_triples  # nothing invented
            assert triples >= incident_triples(g, target[0], target[2])
            again = sample_subgraph(g, target, SubgraphSpec(method, 6, seed))
            assert np.array_equal(sub.positions, again.positions)

    def test_unseen_target_triple_never_injected(self):
        g = demo_graph()
        # (A, r2, B) is not in the graph
        target = (0, 1, 1)
        for method in ("pn", "rw"):
            sub = sample_subgraph(g, target, SubgraphSpec(method, 4, 9))
            assert target not in subgraph_triples(sub)

    def test_entities_derived_from_triples(self):
        g = demo_graph()
        sub = sample_subgraph(g, (0, 0, 1), SubgraphSpec("pn", 2, 0))
        arr = sub.triple_array()
        sub_graph = graph_from_triples(arr, g.entity_vocab, g.relation_vocab)
        assert set(sub_graph.entities_in_triples().tolist()) == set(arr[:, 0]) | set(arr[:, 2])

    def test_spec_validation(self):
        g = demo_graph()
        with pytest.raises(ValueError):
            sample_subgraph(g, (0, 0, 1), SubgraphSpec("bfs", 2, 0))
        with pytest.raises(ValueError):
            sample_subgraph(g, (0, 0, 1), SubgraphSpec("pn", -1, 0))
        with pytest.raises(ValueError):
            sample_subgraph(g, (0, 0, 1), SubgraphSpec("pn", 2, None))


class TestSubgraphTsv:
    def test_round_trip_with_comments(self, tmp_path):
        g = demo_graph()
        sub = sample_subgraph(g, (0, 0, 1), SubgraphSpec("pn", 3, 7))
        path = tmp_path / "sub.tsv"
        write_subgraph_tsv(sub, path)
        text = path.read_text(encoding="utf-8")
        assert text.startswith("# subgraph method=pn")
        loaded = read_subgraph_tsv(path, g.entity_vocab, g.relation_vocab)
        assert set(loaded) == subgraph_triples(sub)

    def test_round_trip_keeps_a_subject_label_starting_with_hash(self, tmp_path):
        g = label_graph([("#tag", "r", "b"), ("b", "r", "c"), ("c", "r", "a"), ("a", "r", "b")])
        sub = sample_subgraph(g, g.triple_at(1), SubgraphSpec("pn", 0, 7))
        path = tmp_path / "sub.tsv"
        write_subgraph_tsv(sub, path)
        loaded = read_subgraph_tsv(path, g.entity_vocab, g.relation_vocab)
        assert len(sub) == 4
        assert sorted(loaded) == sorted(subgraph_triples(sub))


PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def sampling_cases(draw):
    """(graph, target, n, seed): a `random_graph` and a triple of it, or any triple of
    its vocabulary ids, which may be unseen or have isolated endpoints."""
    n_e, n_r = draw(st.integers(2, 20)), draw(st.integers(1, 4))
    g = random_graph(n_e, n_r, draw(st.integers(1, min(60, n_e * n_e * n_r))), seed=draw(st.integers(0, 999)))
    in_graph = st.integers(0, g.n_triples - 1).map(g.triple_at)
    any_ids = st.tuples(st.integers(0, n_e - 1), st.integers(0, n_r - 1), st.integers(0, n_e - 1))
    return g, draw(st.one_of(in_graph, any_ids)), draw(st.integers(0, 30)), draw(st.integers(0, 2**31))


def replay_pn(g, target, n, seed):
    """The endpoints of the target and of each same-predicate draw, replayed one at a time."""
    rng, pool, ends = rng_for(seed), g.predicate_positions(target[1]), [target[0], target[2]]
    for _ in range(n if len(pool) else 0):
        s, _, o = g.triple_at(int(pool[rng.integers(len(pool))]))
        ends += [s, o]
    return ends


def replay_rw(g, target, n, seed):
    """The position of each walk step, replayed one at a time."""
    rng, origin, walked = rng_for(seed), target, []
    for _ in range(n):
        hood = one_hop_positions(g, origin[0], origin[2])
        if len(hood) == 0:
            break
        walked.append(int(hood[rng.integers(len(hood))]))
        origin = g.triple_at(walked[-1])
    return walked


@PROPERTY
@given(sampling_cases())
def test_samples_are_the_one_hop_neighborhood_united_with_the_replayed_draws(case):
    g, target, n, seed = case
    hood = set(one_hop_positions(g, target[0], target[2]).tolist())
    subs = {method: sample_subgraph(g, target, SubgraphSpec(method, n, seed)) for method in ("pn", "rw")}
    for method, sub in subs.items():
        assert sub.positions.dtype == np.int64
        assert (np.diff(sub.positions) > 0).all()  # sorted and unique
        assert hood <= set(sub.positions.tolist())
        again = sample_subgraph(g, target, SubgraphSpec(method, n, seed))
        assert np.array_equal(sub.positions, again.positions) and sub.steps_taken == again.steps_taken
    pn_hoods = (g.entity_positions(e).tolist() for e in replay_pn(g, target, n, seed))
    assert subs["pn"].positions.tolist() == sorted(set().union(*pn_hoods))
    walked = replay_rw(g, target, n, seed)
    assert subs["rw"].steps_taken == len(walked) <= n
    assert subs["rw"].positions.tolist() == sorted(hood | set(walked))
