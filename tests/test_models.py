"""Scoring functions, initialization, and closed-form gradients."""

import numpy as np
import pytest

from kgex.models import (
    EmbeddingModel, ModelKind, bilinear_product, init_model, score_grad_rows, score_many,
)

from oracles import (
    fd_gradients, max_relative_error, reference_bilinear_score_grad_rows, reference_transe_score_grad_rows,
)


def model_from_rows(kind, k, entity_rows, relation_rows):
    table = np.vstack([entity_rows, relation_rows], dtype=np.float64)
    return EmbeddingModel(ModelKind(kind), k, table, len(entity_rows))


def score_grads(m, t):
    """Gradients of the score of triple t w.r.t. its three rows."""
    s, p, o = t
    _, g_s, g_p, g_o = score_grad_rows(
        m.kind, m.k, m.entity_table[s], m.relation_table[p], m.entity_table[o]
    )
    return g_s, g_p, g_o


class TestInit:
    def test_deterministic_per_seed(self):
        a = init_model("distmult", 8, 10, 3, seed=42)
        b = init_model("distmult", 8, 10, 3, seed=42)
        assert np.array_equal(a.entity_table, b.entity_table)
        assert np.array_equal(a.relation_table, b.relation_table)
        c = init_model("distmult", 8, 10, 3, seed=43)
        assert not np.array_equal(a.entity_table, c.entity_table)

    def test_shapes(self):
        m = init_model("transe-l2", 50, 14541, 237, seed=0)
        assert m.entity_table.shape == (14541, 50)
        assert m.relation_table.shape == (237, 50)

    def test_complex_width_doubles(self):
        m = init_model("complex", 50, 7, 3, seed=0)
        assert m.entity_table.shape == (7, 100)
        assert m.width == 100

    def test_uniform_bound(self):
        m = init_model("transe-l1", 9, 200, 20, seed=1)
        bound = 6.0 / 3.0
        assert np.all(np.abs(m.entity_table) <= bound)
        assert np.all(np.abs(m.relation_table) <= bound)
        assert np.abs(m.entity_table).max() > 0.9 * bound  # actually fills the range

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(ValueError):
            init_model("distmult", 4, 0, 3, seed=0)
        with pytest.raises(ValueError):
            init_model("distmult", 0, 3, 3, seed=0)


class TestOneTable:
    def test_entity_rows_then_relation_rows_of_one_stream(self):
        m = init_model("complex", 3, 5, 2, seed=4)
        rng, bound = np.random.default_rng(4), 6.0 / np.sqrt(3)
        entity = rng.uniform(-bound, bound, size=(5, 6))
        relation = rng.uniform(-bound, bound, size=(2, 6))
        assert m.table.tobytes() == np.vstack([entity, relation]).tobytes()
        assert (m.n_entities, m.n_relations, m.width) == (5, 2, 6)

    def test_writes_through_the_views_reach_the_table(self):
        m = init_model("distmult", 2, 4, 3, seed=0)
        m.entity_table[1] = 7.0
        m.relation_table[2] = -3.0
        assert (m.table[1] == 7.0).all() and (m.table[4 + 2] == -3.0).all()
        m.table[5] = 0.5
        assert (m.relation_table[1] == 0.5).all()


class TestScoreValues:
    def test_transe_l2_exact_translation(self):
        m = model_from_rows("transe-l2", 2, [[1.0, 2.0], [1.0, 3.0]], [[0.0, 1.0]])
        assert score_many(m, 0, 0, 1) == 0.0

    def test_transe_l2_345(self):
        m = model_from_rows("transe-l2", 2, [[0.0, 0.0]], [[3.0, 4.0]])
        assert score_many(m, 0, 0, 0) == -5.0

    def test_transe_l1(self):
        m = model_from_rows("transe-l1", 2, [[0.0, 0.0]], [[3.0, -4.0]])
        assert score_many(m, 0, 0, 0) == -7.0

    def test_distmult(self):
        m = model_from_rows("distmult", 2, [[1.0, 2.0], [1.0, 1.0]], [[1.0, 1.0]])
        assert score_many(m, 0, 0, 1) == 3.0

    def test_complex_conjugation(self):
        # e_s = i, r_p = 1, e_o = i: Re(i * 1 * conj(i)) = Re(i * -i) = 1
        m = model_from_rows("complex", 1, [[0.0, 1.0]], [[1.0, 0.0]])
        assert score_many(m, 0, 0, 0) == 1.0


class TestScoreProperties:
    def test_distmult_symmetry(self):
        rng = np.random.default_rng(0)
        m = init_model("distmult", 6, 10, 4, seed=5)
        for _ in range(50):
            s, o = rng.integers(10, size=2)
            p = int(rng.integers(4))
            assert score_many(m, int(s), p, int(o)) == score_many(m, int(o), p, int(s))

    def test_complex_zero_imaginary_equals_distmult(self):
        rng = np.random.default_rng(1)
        k = 5
        ent = rng.normal(size=(8, k))
        rel = rng.normal(size=(3, k))
        cx = model_from_rows(
            "complex", k, np.concatenate([ent, np.zeros_like(ent)], axis=1),
            np.concatenate([rel, np.zeros_like(rel)], axis=1),
        )
        dm = model_from_rows("distmult", k, ent, rel)
        for _ in range(50):
            t = (int(rng.integers(8)), int(rng.integers(3)), int(rng.integers(8)))
            assert score_many(cx, *t) == score_many(dm, *t)

    def test_transe_never_positive(self):
        for kind in ("transe-l1", "transe-l2"):
            m = init_model(kind, 7, 20, 5, seed=3)
            rng = np.random.default_rng(4)
            for _ in range(100):
                t = (int(rng.integers(20)), int(rng.integers(5)), int(rng.integers(20)))
                assert score_many(m, *t) <= 0.0


class TestScoreGradients:
    def test_distmult_product_rule(self):
        m = model_from_rows("distmult", 2, [[1.0, 2.0], [1.0, 1.0]], [[1.0, 1.0]])
        g_s, g_p, g_o = score_grads(m, (0, 0, 1))
        assert g_s.tolist() == [1.0, 1.0]  # r_p * e_o
        assert g_p.tolist() == [1.0, 2.0]  # e_s * e_o
        assert g_o.tolist() == [1.0, 2.0]  # e_s * r_p

    def test_transe_l2_zero_at_exact_translation(self):
        m = model_from_rows("transe-l2", 2, [[1.0, 2.0], [1.0, 3.0]], [[0.0, 1.0]])
        for g in score_grads(m, (0, 0, 1)):
            assert np.array_equal(g, np.zeros(2))

    @pytest.mark.parametrize("kind", [k.value for k in ModelKind])
    def test_finite_difference_oracle_k8(self, kind):
        rng = np.random.default_rng(11)
        k = 8
        width = k * ModelKind(kind).row_width_factor
        m = EmbeddingModel(ModelKind(kind), k, rng.normal(size=(3, width)), 2)
        if kind == "transe-l1":
            # keep clear of the |.| kink where central differences are invalid
            residual = m.entity_table[0] + m.relation_table[0] - m.entity_table[1]
            m.entity_table[0][np.abs(residual) < 1e-3] += 0.01
        t = (0, 0, 1)
        analytic = score_grads(m, t)
        fd = fd_gradients(lambda: float(score_many(m, *t)), [m.entity_table, m.relation_table])
        ent_grad = np.zeros_like(m.entity_table)
        rel_grad = np.zeros_like(m.relation_table)
        ent_grad[0] += analytic[0]
        rel_grad[0] += analytic[1]
        ent_grad[1] += analytic[2]
        assert max_relative_error(ent_grad, fd[0]) <= 1e-5
        assert max_relative_error(rel_grad, fd[1]) <= 1e-5

    @pytest.mark.parametrize("kind", [k.value for k in ModelKind])
    def test_finite_difference_sweep(self, kind):
        """100 random instances per model kind stay within 1e-5 relative."""
        rng = np.random.default_rng(77)
        for trial in range(100):
            k = int(rng.integers(2, 9))
            width = k * ModelKind(kind).row_width_factor
            m = EmbeddingModel(ModelKind(kind), k, rng.normal(size=(3, width)), 2)
            if kind == "transe-l1":
                residual = m.entity_table[0] + m.relation_table[0] - m.entity_table[1]
                m.entity_table[0][np.abs(residual) < 1e-3] += 0.01
            t = (0, 0, 1)
            g_s, g_p, g_o = score_grads(m, t)
            fd = fd_gradients(lambda: float(score_many(m, *t)), [m.entity_table, m.relation_table])
            ent_grad = np.zeros_like(m.entity_table)
            ent_grad[0] += g_s
            ent_grad[1] += g_o
            rel_grad = g_p[None, :]
            assert max_relative_error(ent_grad, fd[0]) <= 1e-5, f"trial {trial}"
            assert max_relative_error(rel_grad, fd[1]) <= 1e-5, f"trial {trial}"


class TestBilinearProduct:
    @pytest.mark.parametrize("kind", [ModelKind.DISTMULT, ModelKind.COMPLEX])
    @pytest.mark.parametrize("n", [1, 45, 900])
    def test_slots_match_the_written_out_gradients_bitwise(self, kind, n):
        rng = np.random.default_rng(n)
        k = 50
        es, rp, eo = rng.uniform(-1.0, 1.0, size=(3, n, k * kind.row_width_factor))
        score, g_es, g_rp, g_eo = reference_bilinear_score_grad_rows(kind, k, es, rp, eo)
        slots = [
            (g_es, bilinear_product(kind, k, rp, eo, conj=True)),
            (g_rp, bilinear_product(kind, k, es, eo, conj=True)),
            (g_eo, bilinear_product(kind, k, es, rp)),
        ]
        for expected, got in slots:
            assert got.tobytes() == expected.tobytes()
        got = score_grad_rows(kind, k, es, rp, eo)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in (score, g_es, g_rp, g_eo)]


@pytest.mark.parametrize("kind", [ModelKind.TRANSE_L1, ModelKind.TRANSE_L2])
def test_transe_gradients_match_the_written_out_ones_bitwise(kind):
    """Over (n, eta, W) rows with a relation row broadcast over eta, as a training
    step scores its negatives, and a zero residual; the subject and relation
    gradients are one array."""
    rng = np.random.default_rng(4)
    es, eo = rng.uniform(-1.0, 1.0, size=(2, 30, 5, 8))
    rp = rng.uniform(-1.0, 1.0, size=(30, 1, 8))
    rp[0], eo[0, 0] = 0.0, es[0, 0]
    got = score_grad_rows(kind, 8, es, rp, eo)
    want = reference_transe_score_grad_rows(kind, es, np.broadcast_to(rp, es.shape), eo)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert got[1] is got[2] and not got[3][0, 0].any()
