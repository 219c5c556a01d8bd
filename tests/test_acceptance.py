"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Criterion 10 needs the benchmark datasets on disk and skips
itself otherwise.
"""

import math
import os
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from kgex.distill import _cyclic_angles, rkd_loss_batch, train_student
from kgex.evaluation import evaluate, metrics_from_ranks, rank_triple
from kgex.explain import ExplainConfig, RunRecord, aggregate_contributions, mc_explain
from kgex.focuse import alpha_batch, beta_schedule, focused_nll_batch, softplus_score
from kgex.graph import build_filter, graph_from_triples, load_graph
from kgex.losses import l2_regularizer_into, softmax_nll_batch
from kgex.models import EmbeddingModel, ModelKind, init_model, score_grad_rows, score_many
from kgex.sampling import Subgraph, SubgraphSpec, sample_subgraph
from kgex.training import TrainConfig, run_training

from oracles import brute_force_side_rank, fd_gradients, incident_triples, subgraph_triples
from toygraphs import block_graph, demo_graph, random_graph

ALL_KINDS = [ModelKind.TRANSE_L1, ModelKind.TRANSE_L2, ModelKind.DISTMULT, ModelKind.COMPLEX]


def report(line: str) -> None:
    print(f"\n[acceptance] {line}")


def rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(fd)))
    return float(np.max(np.abs(analytic - fd) / denom))


# ---------------------------------------------------------------- criterion 1

def _random_tables(kind: ModelKind, rng) -> EmbeddingModel:
    k = int(rng.integers(2, 9))
    width = k * kind.row_width_factor
    return EmbeddingModel(kind, k, rng.normal(size=(5 + 2, width)), 5)


_POS = np.array([[0, 0, 1]])
_NEG_S = np.array([[2, 0]])
_NEG_P = np.array([[0, 0]])
_NEG_O = np.array([[1, 3]])


def _l1_safe(model: EmbeddingModel) -> bool:
    if model.kind is not ModelKind.TRANSE_L1:
        return True
    for s, p, o in [(0, 0, 1), (2, 0, 1), (0, 0, 3)]:
        d = model.entity_table[s] + model.relation_table[p] - model.entity_table[o]
        if np.abs(d).min() < 1e-4:
            return False
    return True


def _nll_like_instance(model: EmbeddingModel, alpha: np.ndarray | None):
    """Loss and analytic table gradients of one positive vs two corruptions."""
    ent, rel = model.entity_table, model.relation_table
    kind, k = model.kind, model.k

    def value() -> float:
        pos = score_many(model, _POS[:, 0], _POS[:, 1], _POS[:, 2])
        neg = score_many(model, _NEG_S, _NEG_P, _NEG_O)
        scores = np.concatenate([pos[:, None], neg], axis=1)
        if alpha is None:
            loss, _ = softmax_nll_batch(scores)
        else:
            loss, _ = focused_nll_batch(scores, alpha)
        return float(loss[0])

    pos_f, pos_gs, pos_gp, pos_go = score_grad_rows(
        kind, k, ent[_POS[:, 0]], rel[_POS[:, 1]], ent[_POS[:, 2]]
    )
    neg_f, neg_gs, neg_gp, neg_go = score_grad_rows(
        kind, k, ent[_NEG_S], rel[_NEG_P], ent[_NEG_O]
    )
    scores = np.concatenate([pos_f[:, None], neg_f], axis=1)
    if alpha is None:
        _, dscores = softmax_nll_batch(scores)
    else:
        _, dscores = focused_nll_batch(scores, alpha)
    ent_grad = np.zeros_like(ent)
    rel_grad = np.zeros_like(rel)
    np.add.at(ent_grad, _POS[:, 0], dscores[:, 0:1] * pos_gs)
    np.add.at(ent_grad, _POS[:, 2], dscores[:, 0:1] * pos_go)
    np.add.at(rel_grad, _POS[:, 1], dscores[:, 0:1] * pos_gp)
    np.add.at(ent_grad, _NEG_S.ravel(), (dscores[:, 1:, None] * neg_gs).reshape(-1, model.width))
    np.add.at(ent_grad, _NEG_O.ravel(), (dscores[:, 1:, None] * neg_go).reshape(-1, model.width))
    np.add.at(rel_grad, _NEG_P.ravel(), (dscores[:, 1:, None] * neg_gp).reshape(-1, model.width))
    return value, [ent_grad, rel_grad], [ent, rel]


def test_criterion_1_gradients_match_finite_differences():
    rng = np.random.default_rng(2024)
    t0 = time.time()
    checked = 0
    for kind in ALL_KINDS:
        for family in ("multiclass_nll", "focuse", "rkd", "l2"):
            done = 0
            while done < 100:
                model = _random_tables(kind, rng)
                if family in ("multiclass_nll", "focuse") and not _l1_safe(model):
                    continue
                if family == "multiclass_nll":
                    value, analytic, params = _nll_like_instance(model, None)
                elif family == "focuse":
                    w = rng.uniform(0.05, 0.95, size=1)
                    beta = float(rng.uniform(0.05, 0.95))
                    alpha = alpha_batch(w, beta, 2)
                    value, analytic, params = _nll_like_instance(model, alpha)
                elif family == "rkd":
                    width = model.width
                    teacher = tuple(rng.normal(size=(1, width)) for _ in range(3))
                    student = [rng.normal(size=(1, width)) for _ in range(3)]
                    teacher_angles = _cyclic_angles(teacher)[:2]
                    _, *grads, _, _ = rkd_loss_batch(teacher_angles, tuple(student))
                    # keep clear of the Huber switch where FD is invalid
                    probes = [
                        abs(abs(a - b) - 1.0)
                        for a, b in _phi_pairs(teacher, tuple(student))
                    ]
                    if min(probes) < 1e-4:
                        continue
                    value = lambda: float(rkd_loss_batch(teacher_angles, tuple(student))[0][0])
                    analytic, params = grads, student
                else:
                    rows = rng.normal(size=(3, model.width))
                    gamma = float(rng.uniform(0.0, 2.0))
                    grad = np.zeros(rows.shape)
                    l2_regularizer_into(rows.copy(), gamma, grad)
                    # it overwrites its rows: each evaluation gets a fresh copy
                    value = lambda: l2_regularizer_into(rows.copy(), gamma, np.zeros(rows.shape))
                    analytic, params = [grad], [rows]
                fd = fd_gradients(value, params, h=1e-6)
                for a, f in zip(analytic, fd):
                    assert rel_err(a, f) <= 1e-4, f"{kind.value}/{family}"
                done += 1
                checked += 1
    elapsed = time.time() - t0
    assert checked == 1600
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(f"criterion 1 PASS: 1600 gradient instances within 1e-4 in {elapsed:.1f}s")


def _phi_pairs(teacher, student):
    from oracles import normalized_difference_dot

    for perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        yield (
            normalized_difference_dot(*(teacher[i][0] for i in perm)),
            normalized_difference_dot(*(student[i][0] for i in perm)),
        )


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_reduction_identities():
    rng = np.random.default_rng(7)

    # FocusE with beta = 1 equals the softplus-NLL baseline, per batch
    for _ in range(50):
        scores = rng.normal(size=(16, 4), scale=3)
        w = rng.uniform(size=16)
        focused, _ = focused_nll_batch(scores, alpha_batch(w, 1.0, 3))
        baseline, _ = softmax_nll_batch(np.asarray(softplus_score(scores)))
        assert np.max(np.abs(focused - baseline)) <= 1e-12

    # student training with kd_lambda = 0 is bitwise plain training
    g = random_graph(15, 3, 50, seed=3)
    sub = graph_from_triples(g.triples[:25], g.entity_vocab, g.relation_vocab)
    teacher = init_model("distmult", 8, g.n_entities, g.n_relations, seed=50)
    cfg = TrainConfig(kind="distmult", k=4, eta=2, lr=0.05, epochs=4, batch_size=16, seed=9)
    student = train_student(teacher, sub, cfg, kd_lambda=0.0)
    plain, _ = run_training(sub, cfg)
    assert np.array_equal(student.entity_table, plain.entity_table)
    assert np.array_equal(student.relation_table, plain.relation_table)

    # ComplEx with zero imaginary halves scores like DistMult on the real halves
    k = 6
    ent = rng.normal(size=(10, k))
    rel = rng.normal(size=(4, k))
    dm = EmbeddingModel(ModelKind.DISTMULT, k, np.vstack([ent, rel]), len(ent))
    cx_table = np.concatenate([dm.table, np.zeros_like(dm.table)], axis=1)
    cx = EmbeddingModel(ModelKind.COMPLEX, k, cx_table, len(ent))
    s = rng.integers(10, size=300)
    p = rng.integers(4, size=300)
    o = rng.integers(10, size=300)
    assert np.max(np.abs(score_many(cx, s, p, o) - score_many(dm, s, p, o))) <= 1e-12

    report("criterion 2 PASS: all three reduction identities hold at 1e-12")


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_algebraic_invariants():
    # modulating-factor identity, exact on a 101x101 dyadic grid where every
    # float product is representable
    grid = [i / 128.0 for i in range(100)] + [1.0]
    assert len(grid) == 101
    for beta in grid:
        alpha = alpha_batch(np.array(grid), beta, 1)
        assert np.all(alpha[:, 0] + alpha[:, 1] == 1.0 + beta)
    # and exactly over the rationals for non-dyadic points
    for w in (Fraction(1, 3), Fraction(7, 10), Fraction(99, 101)):
        for beta in (Fraction(1, 7), Fraction(3, 10)):
            lhs = (beta + (1 - w) * (1 - beta)) + (beta + w * (1 - beta))
            assert lhs == 1 + beta

    # decay schedule endpoints
    for decay in (1, 7, 10, 1000):
        assert beta_schedule(0, decay) == 1.0
        assert beta_schedule(decay, decay) == 0.0
    assert beta_schedule(0, 0) == 0.0

    # angle potential invariance under rotation + uniform scale + translation
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 9))
        pts = rng.normal(size=(3, dim))
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        scale = float(10.0 ** rng.uniform(-2, 2))
        shift = rng.normal(size=dim, scale=5)
        moved = scale * (pts @ q.T) + shift
        worst = max(worst, float(np.abs(_cyclic_angles(pts)[0] - _cyclic_angles(moved)[0]).max()))
    assert worst <= 1e-10
    report(f"criterion 3 PASS: alpha identity exact, schedule endpoints exact, "
           f"angle invariance worst drift {worst:.2e}")


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_ranking_matches_brute_force():
    t0 = time.time()
    rng = np.random.default_rng(31)
    for graph_index in range(20):
        n_entities = int(rng.integers(10, 51))
        n_triples = int(rng.integers(30, 301))
        n_relations = int(rng.integers(2, 6))
        g = random_graph(n_entities, n_relations, min(n_triples, n_entities * n_entities // 2), seed=graph_index)
        kind = ALL_KINDS[graph_index % 4]
        model = init_model(kind, 4, g.n_entities, g.n_relations, seed=graph_index + 500)
        flt = build_filter(g)
        pool = np.arange(g.n_entities)
        for i in rng.integers(0, g.n_triples, size=8):
            t = g.triple_at(int(i))
            for use_filter in (flt, None):
                got = rank_triple(model, t, pool, use_filter)
                assert got.object_rank == brute_force_side_rank(model, t, pool, use_filter, False)
                assert got.subject_rank == brute_force_side_rank(model, t, pool, use_filter, True)
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    report(f"criterion 4 PASS: 20 graphs, both sides, filtered and not, in {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_metrics_arithmetic():
    m = metrics_from_ranks([1, 2, 4])
    assert abs(m.mr - 2.3333333333333335) <= 1e-9
    assert abs(m.mrr - 0.5833333333333334) <= 1e-9
    assert abs(m.hits1 - 0.3333333333333333) <= 1e-9
    assert abs(m.hits10 - 1.0) <= 1e-9
    report("criterion 5 PASS: MR/MRR/Hits arithmetic at 1e-9")


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_sampler_contracts():
    demo = demo_graph()
    bigger = random_graph(25, 3, 100, seed=6)
    samplings = 0
    for g in (demo, bigger):
        all_triples = set(map(tuple, g.triples.tolist()))
        for method in ("pn", "rw"):
            for seed in range(25):
                target = g.triple_at(seed % g.n_triples)
                n = seed % 7
                sub = sample_subgraph(g, target, SubgraphSpec(method, n, seed))
                triples = subgraph_triples(sub)
                assert triples >= incident_triples(g, target[0], target[2])
                assert triples <= all_triples
                again = sample_subgraph(g, target, SubgraphSpec(method, n, seed))
                assert np.array_equal(sub.positions, again.positions)
                if n == 0:
                    assert triples == incident_triples(g, target[0], target[2])
                samplings += 2
    assert samplings >= 200
    report(f"criterion 6 PASS: {samplings} seeded samplings honored all contracts")


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_mc_aggregation_oracle():
    g = random_graph(12, 2, 50, seed=8)
    rng = np.random.default_rng(40)
    for log_index in range(50):
        size = int(rng.integers(4, 40))
        sub = Subgraph(
            positions=np.arange(size), source=g, target=(0, 0, 1),
            spec=SubgraphSpec("pn", 0, 0),
        )
        records = []
        for r in range(int(rng.integers(1, 25))):
            subset = rng.choice(size, size=int(rng.integers(1, size + 1)), replace=False)
            a, b = int(rng.integers(1, 11)), int(rng.integers(1, 11))
            records.append(RunRecord(r, subset, 0.5 * (a + b), a, b))
        streamed = aggregate_contributions(records, sub)
        by_triple: dict[int, list[float]] = {}
        for rec in records:
            for pos in rec.positions:
                by_triple.setdefault(int(pos), []).append(rec.rank)
        assert len(streamed.entries) == len(by_triple)
        for entry in streamed.entries:
            ranks = by_triple[entry.position]
            assert entry.runs_containing == len(ranks)
            assert entry.avg_target_rank == math.fsum(ranks) / len(ranks)
        body_positions = {e.position for e in streamed.entries}
        tail_positions = {pos for _, pos in streamed.tail}
        assert body_positions | tail_positions == set(range(size))
        assert not body_positions & tail_positions
        # double-counting identity, exact
        lhs = math.fsum(e.rank_sum for e in streamed.entries)
        rhs = math.fsum(rec.rank * len(rec.positions) for rec in records)
        assert lhs == rhs
    report("criterion 7 PASS: 50 synthetic logs, streamed == brute force, identity exact")


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_learning_sanity():
    t0 = time.time()
    g, held_out = block_graph(
        n_entities=100, n_blocks=20, n_relations=4, n_train=600, n_test=60, seed=29
    )
    flt = build_filter(g, graph_from_triples(held_out, g.entity_vocab, g.relation_vocab))
    pool = np.arange(g.n_entities)
    wins = 0
    ratios = []
    for seed in range(5):
        cfg = TrainConfig(
            kind="transe-l2", k=16, eta=2, lr=0.1, epochs=200, batch_size=512, seed=seed
        )
        trained, _ = run_training(g, cfg)
        untrained = init_model(cfg.kind, cfg.k, g.n_entities, g.n_relations, seed=seed)
        trained_metrics, _ = evaluate(trained, held_out, pool, flt)
        untrained_metrics, _ = evaluate(untrained, held_out, pool, flt)
        ratios.append(trained_metrics.mrr / untrained_metrics.mrr)
        if trained_metrics.mrr >= 3.0 * untrained_metrics.mrr:
            wins += 1
    elapsed = time.time() - t0
    assert wins >= 4, f"only {wins}/5 seeds reached 3x (ratios {ratios})"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    report(
        f"criterion 8 PASS: {wins}/5 seeds at >= 3x initialization MRR "
        f"(ratios {['%.1f' % r for r in ratios]}) in {elapsed:.1f}s"
    )


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_kd_faithfulness_directional():
    t0 = time.time()
    g, held_out = block_graph(
        n_entities=100, n_blocks=20, n_relations=4, n_train=600, n_test=60, seed=29
    )
    teacher, _ = run_training(
        g, TrainConfig(kind="transe-l2", k=16, eta=4, lr=0.1, epochs=300, batch_size=256, seed=0)
    )
    flt = build_filter(g, graph_from_triples(held_out, g.entity_vocab, g.relation_vocab))
    pool = np.arange(g.n_entities)
    targets = []
    for t in map(tuple, held_out.tolist()):
        r = rank_triple(teacher, t, pool, flt)
        if r.subject_rank == 1 and r.object_rank == 1:
            targets.append(t)
        if len(targets) == 10:
            break
    assert len(targets) == 10, "teacher must produce 10 rank-1 held-out triples"

    def mean_target_mrr(kd_lambda: float) -> float:
        values = []
        for seed in range(3):
            for target in targets:
                cfg = ExplainConfig(
                    mc_runs=6, partitions=3,
                    student=TrainConfig(kind="transe-l2", k=16, eta=2, lr=0.1,
                                        epochs=200, batch_size=512),
                    kd_lambda=kd_lambda, sampler=SubgraphSpec("pn", 5), seed=100 + seed,
                )
                rep = mc_explain(teacher, g, target, cfg, flt)
                reciprocal = [1.0 / r.subject_rank for r in rep.records]
                reciprocal += [1.0 / r.object_rank for r in rep.records]
                values.append(float(np.mean(reciprocal)))
        return float(np.mean(values))

    kd = mean_target_mrr(3.0)
    standalone = mean_target_mrr(0.0)
    elapsed = time.time() - t0
    assert kd >= standalone - 0.05, f"kd {kd:.3f} below standalone {standalone:.3f} - 0.05"
    assert kd >= 0.25, f"kd mean target MRR {kd:.3f} < 0.25"
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    report(
        f"criterion 9 PASS: kd students MRR {kd:.3f} vs standalone {standalone:.3f} "
        f"over 10 rank-1 targets x 3 seeds in {elapsed:.0f}s"
    )


# --------------------------------------------------------------- criterion 10

def _dataset_dir() -> Path | None:
    for root in (os.environ.get("KGEX_DATA_DIR"), "data"):
        if root and Path(root).is_dir():
            return Path(root)
    return None


@pytest.mark.parametrize(
    "name,n_triples,n_entities,n_relations",
    [("FB15K-237", 272115, 14541, 237), ("WN18RR", 86835, 40943, 11)],
)
def test_criterion_10_dataset_statistics(name, n_triples, n_entities, n_relations):
    root = _dataset_dir()
    if root is None or not (root / name / "train.txt").exists():
        pytest.skip(f"{name} not present under KGEX_DATA_DIR or ./data")
    g = load_graph(root / name / "train.txt")
    assert g.n_triples == n_triples
    assert g.n_entities == n_entities
    assert g.n_relations == n_relations
    report(f"criterion 10 PASS: {name} loads with the published statistics")
