"""Angle potentials, Huber matching, and distilled student training."""

import numpy as np
import pytest

import kgex.optim
import kgex.training
from kgex.distill import _cyclic_angles, rkd_loss_batch, train_student, triple_angles
from kgex.graph import graph_from_triples
from kgex.models import init_model
from kgex.training import TrainConfig, run_training

from oracles import (
    fd_gradients, huber, max_relative_error, normalized_difference_dot, stacked_orderings_rkd,
)
from toygraphs import block_graph, random_graph

CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def phi(a, b, c):
    """The potential of ordering (a, b, c): the dot product of the unit differences a - b and b - c."""
    return _cyclic_angles((np.asarray(a), np.asarray(b), np.asarray(c)))[0][0]


def angles(rows):
    """The teacher `(phi, valid)` that `rkd_loss_batch` takes, of (s, p, o) rows."""
    return _cyclic_angles(rows)[:2]


def single_term_loss(v):
    """rkd_loss_batch on one triple where only the Huber term of the (p, o, s)
    ordering survives: student potential -1 against teacher potential
    e1 . v / |v|.  The student's s == p makes the other two orderings
    degenerate."""
    v = np.asarray(v, dtype=np.float64)
    teacher = (-v[None, :], np.eye(4)[:1], np.zeros((1, 4)))
    student = (np.zeros((1, 4)), np.zeros((1, 4)), np.ones((1, 4)))
    loss, _, _, _, degenerate, per_triple = rkd_loss_batch(angles(teacher), student)
    assert degenerate == 2 and per_triple.tolist() == [2]
    return loss[0]


class TestHuber:
    def test_equal_inputs(self):
        assert single_term_loss([-1.0, 0.0, 0.0, 0.0]) == 0.0

    def test_quadratic_branch(self):
        assert single_term_loss([-1.0, 1.0, 1.0, 1.0]) == 0.125  # |diff| = 1/2

    def test_linear_branch(self):
        assert single_term_loss([1.0, 0.0, 0.0, 0.0]) == 1.5  # |diff| = 2

    def test_continuous_at_switch(self):
        assert single_term_loss([0.0, 1.0, 0.0, 0.0]) == pytest.approx(0.5, abs=1e-15)
        assert single_term_loss([1e-9, 1.0, 0.0, 0.0]) == pytest.approx(0.5, abs=1e-8)


class TestAnglePotential:
    def test_collinear_same_direction(self):
        assert phi([0.0, 0.0], [1.0, 0.0], [2.0, 0.0]) == 1.0

    def test_perpendicular(self):
        assert phi([1.0, 0.0], [0.0, 0.0], [0.0, 1.0]) == 0.0

    def test_random_matches_direct_vector_math(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            a, b, c = rng.normal(size=(3, 7))
            assert phi(a, b, c) == pytest.approx(normalized_difference_dot(a, b, c), abs=1e-12)

    def test_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b, c = rng.normal(size=(3, 4))
            assert -1.0 - 1e-12 <= phi(a, b, c) <= 1.0 + 1e-12

    def test_coincident_points_flagged(self):
        v = np.ones(3)
        value, valid = _cyclic_angles((v, v, np.zeros(3)))[:2]
        assert not valid[0]
        assert value[0] == 0.0

    def test_teacher_angles_in_chunks_change_no_byte(self, monkeypatch):
        """`triple_angles` takes the rows of all 50 triples in one chunk of the
        default budget; at 4 triples a chunk it gives the same bytes."""
        g = random_graph(20, 3, 50, seed=8)
        teacher = init_model("complex", 4, g.n_entities, g.n_relations, seed=9)
        teacher.relation_table[g.triples[0, 1]] = teacher.entity_table[g.triples[0, 0]]  # s == p
        whole = triple_angles(teacher, g.triples)
        assert whole[0].shape == (3, len(g.triples)) and not whole[1].all()
        assert kgex.optim._chunk_rows(3 * teacher.width) >= len(g.triples)
        monkeypatch.setattr(kgex.optim, "_CHUNK_ELEMS", 4 * 3 * teacher.width)
        assert [a.tobytes() for a in triple_angles(teacher, g.triples)] == [a.tobytes() for a in whole]

    def test_invariance_under_similarity_transforms(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            pts = rng.normal(size=(3, 6))
            q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
            scale = float(rng.uniform(0.01, 100.0))
            shift = rng.normal(size=6, scale=10)
            moved = scale * (pts @ q.T) + shift
            assert phi(*moved) == pytest.approx(phi(*pts), abs=1e-10)


def rows(rng, n, d):
    """Three (n, d) row blocks: subject, predicate, object."""
    return tuple(rng.normal(size=(n, d)) for _ in range(3))


class TestRkdLoss:
    def test_identical_rows_zero(self):
        rng = np.random.default_rng(1)
        same = rows(rng, 1, 5)
        loss, *grads, degenerate, per_triple = rkd_loss_batch(angles(same), same)
        assert loss[0] == 0.0
        assert degenerate == 0 and per_triple.tolist() == [0]
        for g in grads:
            assert np.allclose(g, 0.0, atol=1e-15)

    def test_scaled_translated_student_zero(self):
        rng = np.random.default_rng(2)
        teacher = rows(rng, 1, 8)
        moved = tuple(2.0 * r + 3.25 for r in teacher)
        loss = rkd_loss_batch(angles(teacher), moved)[0]
        assert loss[0] == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_and_zero_iff_angles_match(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            teacher = rows(rng, 1, 4)
            student = rows(rng, 1, 6)
            loss = rkd_loss_batch(angles(teacher), student)[0][0]
            assert loss >= 0.0
            if loss == 0.0:
                for perm in CYCLIC:
                    t_phi = normalized_difference_dot(*(teacher[i][0] for i in perm))
                    s_phi = normalized_difference_dot(*(student[i][0] for i in perm))
                    assert t_phi == pytest.approx(s_phi, abs=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            teacher = rows(rng, 1, 5)
            student = list(rows(rng, 1, 7))

            def loss_value():
                return rkd_loss_batch(angles(teacher), tuple(student))[0][0]

            _, *grads, _, _ = rkd_loss_batch(angles(teacher), tuple(student))
            fd = fd_gradients(loss_value, student)
            for analytic, numeric in zip(grads, fd):
                assert max_relative_error(analytic, numeric) <= 1e-5

    def test_teacher_student_dimensions_may_differ(self):
        rng = np.random.default_rng(5)
        teacher = rows(rng, 1, 12)
        student = rows(rng, 1, 3)
        loss, *grads, _, _ = rkd_loss_batch(angles(teacher), student)
        assert np.isfinite(loss[0])
        assert all(g.shape == (1, 3) for g in grads)

    def test_degenerate_rows_counted_and_zeroed(self):
        teacher = (np.ones((1, 4)), np.ones((1, 4)), np.zeros((1, 4)))  # s == p
        point = np.random.default_rng(0).normal(size=(1, 4))
        student = (point, point.copy(), point.copy())  # s == p == o
        loss, *grads, degenerate, per_triple = rkd_loss_batch(angles(teacher), student)
        assert degenerate == 3 and per_triple.tolist() == [3]
        assert loss[0] == 0.0
        assert all(np.array_equal(g, np.zeros((1, 4))) for g in grads)

    @pytest.mark.parametrize("n", [1, 7, 45, 900])
    def test_bitwise_equal_to_stacked_orderings(self, n):
        rng = np.random.default_rng(n)
        teacher, student = rows(rng, n, 6), rows(rng, n, 4)
        if n == 7:
            # coincident points in rows 0-4: teacher s == p; teacher p == o;
            # student o == s; student s == p == o; s == p on both sides
            teacher[1][0] = teacher[0][0]
            teacher[2][1] = teacher[1][1]
            student[2][2] = student[0][2]
            student[1][3] = student[2][3] = student[0][3]
            teacher[1][4] = teacher[0][4]
            student[1][4] = student[0][4]
        got = rkd_loss_batch(angles(teacher), student)
        want = stacked_orderings_rkd(teacher, student)
        assert got[4] == want[4] == int(got[5].sum())
        assert got[5].shape == (n,) and np.array_equal(got[5], want[5])
        assert n != 7 or got[5].tolist() == [2, 2, 2, 3, 2, 0, 0]
        for a, b in zip(got[:4], want[:4]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_batch_matches_single(self):
        """Per-triple losses equal the Huber sum over the three orderings."""
        rng = np.random.default_rng(9)
        teacher = [rows(rng, 1, 4) for _ in range(5)]
        student = [rows(rng, 1, 6) for _ in range(5)]
        t_stack = tuple(np.concatenate([t[i] for t in teacher]) for i in range(3))
        s_stack = tuple(np.concatenate([s[i] for s in student]) for i in range(3))
        losses, gs, gp, go, _, _ = rkd_loss_batch(angles(t_stack), s_stack)
        for i in range(5):
            expected = sum(
                huber(
                    normalized_difference_dot(*(student[i][j][0] for j in perm)),
                    normalized_difference_dot(*(teacher[i][j][0] for j in perm)),
                )
                for perm in CYCLIC
            )
            assert losses[i] == pytest.approx(expected, abs=1e-14)
            _, single_gs, single_gp, single_go, _, _ = rkd_loss_batch(angles(teacher[i]), student[i])
            assert np.allclose(gs[i], single_gs[0], atol=1e-14)
            assert np.allclose(gp[i], single_gp[0], atol=1e-14)
            assert np.allclose(go[i], single_go[0], atol=1e-14)


class TestTrainStudent:
    def test_lambda_zero_bitwise_equals_plain_training(self):
        g = random_graph(15, 3, 60, seed=0)
        sub_positions = np.arange(20)
        sub = graph_from_triples(g.triples[sub_positions], g.entity_vocab, g.relation_vocab)
        teacher = init_model("distmult", 8, g.n_entities, g.n_relations, seed=99)
        cfg = TrainConfig(kind="distmult", k=4, eta=2, lr=0.05, epochs=5, batch_size=16, seed=7)
        student = train_student(teacher, sub, cfg, kd_lambda=0.0)
        plain, _ = run_training(sub, cfg)
        assert np.array_equal(student.entity_table, plain.entity_table)
        assert np.array_equal(student.relation_table, plain.relation_table)

    def test_untouched_rows_stay_at_initialization(self):
        g = random_graph(30, 3, 40, seed=1)
        sub = graph_from_triples(g.triples[:6], g.entity_vocab, g.relation_vocab)
        teacher = init_model("transe-l2", 6, g.n_entities, g.n_relations, seed=5)
        cfg = TrainConfig(kind="transe-l2", k=4, eta=2, lr=0.05, epochs=3, batch_size=8, seed=3)
        student = train_student(teacher, sub, cfg, kd_lambda=3.0)
        reference = init_model(cfg.kind, cfg.k, g.n_entities, g.n_relations,
                               seed=np.random.SeedSequence(cfg.seed).spawn(2)[0])
        touched_entities = set(np.unique(sub.triples[:, [0, 2]]).tolist())
        for e in range(g.n_entities):
            if e not in touched_entities:
                assert np.array_equal(student.entity_table[e], reference.entity_table[e])

    def test_combined_gradient_is_linear_in_lambda(self):
        """One-step probe: the kd term scales the update linearly."""
        g = random_graph(10, 2, 20, seed=2)
        teacher = init_model("distmult", 6, g.n_entities, g.n_relations, seed=11)
        updates = {}
        for lam in (0.0, 1.0, 3.0):
            cfg = TrainConfig(kind="distmult", k=3, eta=1, lr=1e-6, epochs=1,
                              batch_size=len(g.triples), seed=13)
            init = init_model(cfg.kind, cfg.k, g.n_entities, g.n_relations,
                              seed=np.random.SeedSequence(cfg.seed).spawn(2)[0])
            sub = graph_from_triples(g.triples, g.entity_vocab, g.relation_vocab)
            student = train_student(teacher, sub, cfg, kd_lambda=lam)
            updates[lam] = student.entity_table - init.entity_table
        base = updates[0.0]
        kd_1 = updates[1.0] - base
        kd_3 = updates[3.0] - base
        # Adam normalizes magnitudes, so compare directions where kd is active
        active = np.abs(kd_1) > 1e-12
        assert active.any()
        assert np.sign(kd_3[active]) == pytest.approx(np.sign(kd_1[active]))

    def test_combined_objective_gradient_matches_fd_at_each_lambda(self):
        """FD of mean NLL + lambda * mean angle loss vs the assembled gradient."""
        from kgex.losses import softmax_nll_batch
        from kgex.models import ModelKind, score_grad_rows, score_rows

        rng = np.random.default_rng(12)
        kind, k = ModelKind.DISTMULT, 3
        ent = rng.normal(size=(6, k))
        rel = rng.normal(size=(2, k))
        teacher_ent = rng.normal(size=(6, k))
        teacher_rel = rng.normal(size=(2, k))
        batch = np.array([[0, 0, 1], [2, 1, 3]])
        neg_s = np.array([[4], [2]])
        neg_p = np.array([[0], [1]])
        neg_o = np.array([[1], [5]])

        def objective(lam):
            pos = score_rows(kind, k, ent[batch[:, 0]], rel[batch[:, 1]], ent[batch[:, 2]])
            neg = score_rows(kind, k, ent[neg_s], rel[neg_p], ent[neg_o])
            loss, _ = softmax_nll_batch(np.concatenate([pos[:, None], neg], axis=1))
            kd_rows, *_ = rkd_loss_batch(
                angles((teacher_ent[batch[:, 0]], teacher_rel[batch[:, 1]], teacher_ent[batch[:, 2]])),
                (ent[batch[:, 0]], rel[batch[:, 1]], ent[batch[:, 2]]),
            )
            return float(loss.mean() + lam * kd_rows.mean())

        for lam in (0.0, 1.0, 3.0):
            pos_f, pos_gs, pos_gp, pos_go = score_grad_rows(
                kind, k, ent[batch[:, 0]], rel[batch[:, 1]], ent[batch[:, 2]]
            )
            neg_f, neg_gs, neg_gp, neg_go = score_grad_rows(
                kind, k, ent[neg_s], rel[neg_p], ent[neg_o]
            )
            _, dscores = softmax_nll_batch(np.concatenate([pos_f[:, None], neg_f], axis=1))
            scale = 1.0 / len(batch)
            ge, gr = np.zeros_like(ent), np.zeros_like(rel)
            np.add.at(ge, batch[:, 0], scale * dscores[:, 0:1] * pos_gs)
            np.add.at(ge, batch[:, 2], scale * dscores[:, 0:1] * pos_go)
            np.add.at(gr, batch[:, 1], scale * dscores[:, 0:1] * pos_gp)
            np.add.at(ge, neg_s.ravel(), (scale * dscores[:, 1:, None] * neg_gs).reshape(-1, k))
            np.add.at(ge, neg_o.ravel(), (scale * dscores[:, 1:, None] * neg_go).reshape(-1, k))
            np.add.at(gr, neg_p.ravel(), (scale * dscores[:, 1:, None] * neg_gp).reshape(-1, k))
            _, kd_gs, kd_gp, kd_go, *_ = rkd_loss_batch(
                angles((teacher_ent[batch[:, 0]], teacher_rel[batch[:, 1]], teacher_ent[batch[:, 2]])),
                (ent[batch[:, 0]], rel[batch[:, 1]], ent[batch[:, 2]]),
            )
            np.add.at(ge, batch[:, 0], lam * scale * kd_gs)
            np.add.at(ge, batch[:, 2], lam * scale * kd_go)
            np.add.at(gr, batch[:, 1], lam * scale * kd_gp)

            fd = fd_gradients(lambda: objective(lam), [ent, rel])
            assert max_relative_error(ge, fd[0]) <= 1e-5, f"lambda={lam}"
            assert max_relative_error(gr, fd[1]) <= 1e-5, f"lambda={lam}"

    def test_huge_lambda_pulls_student_angles_to_teacher(self):
        g, _ = block_graph(20, 10, 3, n_train=60, n_test=10, seed=21)
        teacher, _ = run_training(
            g, TrainConfig(kind="transe-l2", k=8, eta=2, lr=0.1, epochs=100, batch_size=64, seed=0)
        )
        gaps = {}
        for lam in (0.0, 1e6):
            gap_total, terms = 0.0, 0
            for seed in range(3):
                cfg = TrainConfig(kind="transe-l2", k=4, eta=2, lr=0.05, epochs=60,
                                  batch_size=64, seed=seed)
                student = train_student(teacher, g, cfg, kd_lambda=lam)
                for s, p, o in g.triples[:30]:
                    t_rows = (teacher.entity_table[s], teacher.relation_table[p], teacher.entity_table[o])
                    s_rows = (student.entity_table[s], student.relation_table[p], student.entity_table[o])
                    gap_total += abs(phi(*t_rows) - phi(*s_rows))
                    terms += 1
            gaps[lam] = gap_total / terms
        assert gaps[1e6] < gaps[0.0]

    def test_teacher_angles_computed_once_match_each_batch(self, monkeypatch):
        """Each batch's cached teacher columns are the angles of its gathered
        teacher rows, and the degenerate count is that of the teacher's
        coincident points in every epoch."""
        g = random_graph(12, 3, 40, seed=6)
        teacher = init_model("distmult", 4, g.n_entities, g.n_relations, seed=7)
        (s0, p0, _), (_, p1, o1) = g.triples[0], g.triples[g.triples[:, 1] != g.triples[0, 1]][0]
        teacher.relation_table[p0] = teacher.entity_table[s0]  # s == p
        teacher.relation_table[p1] = teacher.entity_table[o1]  # p == o
        s, p, o = g.triples.T
        es, rp, eo = teacher.entity_table[s], teacher.relation_table[p], teacher.entity_table[o]
        zero = np.array([(es == rp).all(1), (rp == eo).all(1), (eo == es).all(1)])
        coincident = int((zero | zero[[1, 2, 0]]).sum())
        assert coincident >= 4

        seen = []
        original = kgex.training.batch_gradients

        def checked(model, batch, negatives, config, alpha, teacher_angles, kd_lambda, *layout):
            s, p, o = batch.T
            phi, valid, _, _ = _cyclic_angles(
                (teacher.entity_table[s], teacher.relation_table[p], teacher.entity_table[o])
            )
            assert teacher_angles[0].tobytes() == phi.tobytes()
            assert np.array_equal(teacher_angles[1], valid)
            seen.append(int((~valid).sum()))
            return original(model, batch, negatives, config, alpha, teacher_angles, kd_lambda, *layout)

        monkeypatch.setattr(kgex.training, "batch_gradients", checked)
        cfg = TrainConfig(kind="distmult", k=3, eta=2, epochs=2, batch_size=16, seed=1)
        _, stats = run_training(g, cfg, teacher=teacher, kd_lambda=2.0)
        assert len(seen) == 2 * 3 and sum(seen) == 2 * coincident
        assert stats.degenerate_kd_terms == 2 * coincident

    def test_empty_subgraph_rejected(self):
        g = random_graph(6, 2, 10, seed=3)
        teacher = init_model("distmult", 4, g.n_entities, g.n_relations, seed=1)
        empty = graph_from_triples([], g.entity_vocab, g.relation_vocab)
        with pytest.raises(ValueError):
            train_student(teacher, empty, TrainConfig(), kd_lambda=3.0)

    def test_invalid_lambda_rejected(self):
        g = random_graph(6, 2, 10, seed=3)
        teacher = init_model("distmult", 4, g.n_entities, g.n_relations, seed=1)
        with pytest.raises(ValueError):
            train_student(teacher, g, TrainConfig(), kd_lambda=-1.0)
        with pytest.raises(ValueError):
            train_student(teacher, g, TrainConfig(), kd_lambda=float("nan"))
