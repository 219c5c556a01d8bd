"""Corruption generation, losses, the optimizer, and the training loop."""

import contextlib
import math
import multiprocessing
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import kgex.optim
import kgex.training
from kgex.distill import triple_angles
from kgex.evaluation import evaluate
from kgex.focuse import FocusEConfig, alpha_batch
from kgex.graph import build_filter, graph_from_triples
from kgex.losses import l2_regularizer_into, softmax_nll_batch
from kgex.models import init_model
from kgex.optim import SparseAdam
from kgex.training import (
    LockstepRun,
    TrainConfig,
    TrainingDivergedError,
    _summed_gradients,
    _touched_rows,
    batch_gradients,
    corrupt_batch,
    run_training,
    train_lockstep,
)

from oracles import (
    ScalarAdam, fd_gradients, max_relative_error, per_negative_batch_gradients, per_term_scatter,
)
from toygraphs import block_graph, random_graph

# frozen via direct evaluation: -log(e^1 / (e^1 + 2*e^0)) = log(1 + 2/e)
LOSS_ONE_VS_TWO_ZEROS = 0.5514447139320511


def corruptions_of(t, eta, pool, rng):
    """The eta corruptions `corrupt_batch` draws for one triple, as tuples."""
    neg_s, neg_p, neg_o = corrupt_batch(np.array([t]), eta, np.array(sorted(pool)), rng)
    return list(zip(neg_s[0].tolist(), neg_p[0].tolist(), neg_o[0].tolist()))


def nll_of(pos, negs):
    """Loss and score gradients of one positive against its negatives."""
    loss, grad = softmax_nll_batch(np.array([[pos, *negs]]))
    return loss[0], grad[0, 0], grad[0, 1:]


class TestCorruptions:
    def test_two_entity_pool_only_options(self):
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(40):
            negatives = corruptions_of((0, 0, 1), 1, {0, 1}, rng)
            assert len(negatives) == 1
            seen.add(negatives[0])
        assert seen == {(1, 0, 1), (0, 0, 0)}

    def test_deterministic_per_seed(self):
        a = corruptions_of((2, 1, 5), 10, set(range(10)), np.random.default_rng(7))
        b = corruptions_of((2, 1, 5), 10, set(range(10)), np.random.default_rng(7))
        assert a == b

    def test_invariants_on_large_draw(self):
        rng = np.random.default_rng(3)
        pool = np.arange(100)
        negatives = corruptions_of((4, 2, 9), 30, pool, rng)
        assert len(negatives) == 30
        for s, p, o in negatives:
            assert p == 2
            changed_subject = s != 4
            changed_object = o != 9
            assert changed_subject != changed_object  # exactly one side replaced
            if changed_subject:
                assert o == 9 and s in pool
            else:
                assert s == 4 and o in pool

    def test_mass_invariant_sweep(self):
        """Corruption invariants hold over 1e5 generated negatives."""
        rng = np.random.default_rng(5)
        pool = np.arange(37)
        triples = np.stack(
            [rng.integers(37, size=2000), rng.integers(4, size=2000), rng.integers(37, size=2000)],
            axis=1,
        )
        neg_s, neg_p, neg_o = corrupt_batch(triples, 50, pool, rng)
        assert neg_s.shape == (2000, 50)
        assert np.array_equal(neg_p, np.broadcast_to(triples[:, 1:2], (2000, 50)))
        subject_changed = neg_s != triples[:, 0:1]
        object_changed = neg_o != triples[:, 2:3]
        assert np.all(subject_changed != object_changed)

    def test_pool_too_small(self):
        with pytest.raises(ValueError):
            corruptions_of((0, 0, 1), 1, {0}, np.random.default_rng(0))

    def test_pool_of_one_distinct_entity_rejected(self):
        """Copies of one entity pass a length check, but a redraw could never end."""
        with pytest.raises(ValueError, match="at least 2"):
            corrupt_batch(np.array([[3, 0, 5]] * 8), 4, np.array([3, 3]), np.random.default_rng(0))


class TestMulticlassNLL:
    def test_equal_scores_ln2(self):
        loss, _, _ = nll_of(0.3, [0.3])
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_one_vs_two_zeros_frozen_oracle_value(self):
        loss, _, _ = nll_of(1.0, [0.0, 0.0])
        assert loss == pytest.approx(LOSS_ONE_VS_TWO_ZEROS, abs=1e-12)

    def test_large_positive_no_overflow(self):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            loss, d_pos, d_neg = nll_of(1000.0, [0.0, 5.0])
        assert 0.0 <= loss < 1e-300
        assert np.isfinite(d_neg).all()

    def test_gradient_signs_and_sum(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            pos = float(rng.normal())
            negs = rng.normal(size=int(rng.integers(1, 6)))
            loss, d_pos, d_neg = nll_of(pos, negs)
            assert loss > 0.0
            assert -1.0 < d_pos < 0.0  # decreasing in the positive score
            assert np.all(d_neg > 0.0)  # increasing in each negative score
            assert d_pos + d_neg.sum() == pytest.approx(0.0, abs=1e-12)
            assert d_neg.sum() == pytest.approx(-d_pos, abs=1e-12)

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            scores = rng.normal(size=(1, 5))
            _, grad = softmax_nll_batch(scores)
            fd = fd_gradients(lambda: float(softmax_nll_batch(scores)[0][0]), [scores])[0]
            assert max_relative_error(grad, fd) <= 1e-5


def l2(rows, weight):
    """`l2_regularizer_into` on a copy of `rows` (it overwrites them) and a zero gradient."""
    grad = np.zeros(rows.shape)
    return l2_regularizer_into(rows.copy(), weight, grad), grad


class TestL2Regularizer:
    def test_zero_weight(self):
        loss, grad = l2(np.array([[3.0, 4.0]]), 0.0)
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros((1, 2)))

    def test_three_four_row(self):
        loss, grad = l2(np.array([[3.0, 4.0]]), 1.0)
        assert loss == 25.0
        assert grad.tolist() == [[6.0, 8.0]]

    def test_finite_difference(self):
        rng = np.random.default_rng(2)
        rows = rng.normal(size=(3, 4))
        gamma = 0.37
        _, grad = l2(rows, gamma)
        fd = fd_gradients(lambda: l2(rows, gamma)[0], [rows])[0]
        assert max_relative_error(grad, fd) <= 1e-6

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            l2(np.ones((1, 2)), -1.0)

    @pytest.mark.parametrize("step", [1, 7, None])
    def test_gradient_added_in_row_chunks_changes_no_byte(self, step, monkeypatch):
        """`l2_regularizer_into` at chunks of `step` rows (the default budget
        holds all 300): the loss sums the rows whole (summed a row at a time, it
        rounds apart at this size) and the gradient adds into `grad` as
        `grad + 2 w row`."""
        if step is not None:
            monkeypatch.setattr(kgex.optim, "_CHUNK_ELEMS", step * 40)
        rng = np.random.default_rng(3)
        rows, grad = rng.normal(size=(300, 40)), rng.normal(size=(300, 40))
        want_loss, want_grad = 0.37 * float((rows * rows).sum()), grad + 2.0 * 0.37 * rows
        loss = l2_regularizer_into(rows.copy(), 0.37, grad)
        assert loss.hex() == want_loss.hex()
        assert grad.tobytes() == want_grad.tobytes()


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        params = np.array([[1.0, 2.0], [3.0, 4.0]])
        before = params.copy()
        opt = SparseAdam(params.shape, lr=0.5)
        opt.apply(params, np.array([0, 1]), np.zeros((2, 2)))
        assert np.array_equal(params, before)
        assert opt.t == 1

    def test_first_step_is_signed_learning_rate(self):
        params = np.array([[10.0, -3.0]])
        g = np.array([[0.2, -7.0]])
        opt = SparseAdam(params.shape, lr=0.01)
        expected = np.array([[10.0, -3.0]]) - 0.01 * g / (np.abs(g) + 1e-8)
        opt.apply(params, np.array([0]), g)  # writes the updated row over g
        assert np.allclose(params, expected, atol=1e-12)

    def test_two_identical_steps_match_scalar_trace(self):
        params = np.array([[5.0]])
        opt = SparseAdam(params.shape, lr=0.1)
        reference = ScalarAdam(lr=0.1)
        theta = 5.0
        for _ in range(2):
            opt.apply(params, np.array([0]), np.array([[2.5]]))
            theta = reference.step(theta, 2.5)
            assert params[0, 0] == pytest.approx(theta, abs=1e-15)
            assert params[0, 0] < 5.0  # monotone along -sign(g)

    def test_nan_learning_rate_rejected_and_inf_kept(self):
        with pytest.raises(ValueError, match="learning rate must be >= 0"):
            SparseAdam((2, 2), float("nan"))
        assert SparseAdam((2, 2), float("inf")).lr == float("inf")

    def test_lr_zero_keeps_parameters(self):
        params = np.array([[1.0, 2.0]])
        opt = SparseAdam(params.shape, lr=0.0)
        opt.apply(params, np.array([0]), np.array([[9.0, -9.0]]))
        assert np.array_equal(params, [[1.0, 2.0]])

    def test_returns_the_rows_it_wrote(self):
        params = np.arange(12.0).reshape(6, 2)
        opt = SparseAdam(params.shape, lr=0.3)
        rows = np.array([0, 2, 5])
        for grads in (np.ones((3, 2)), np.array([[0.5, -2.0], [0.0, 3.0], [-1.0, 1e-9]])):
            updated = opt.apply(params, rows, grads)
            assert updated.tobytes() == params[rows].tobytes()

    def test_row_chunks_change_no_byte(self, monkeypatch):
        """Three steps over overlapping row sets at the default budget (all
        rows in one chunk) and at a budget of one row a chunk, without and
        with a helper thread: the chunks of a step are shared with it."""
        rng = np.random.default_rng(8)
        row_sets = [np.array([0, 3, 4, 9]), np.arange(10), np.array([2, 3, 7])]
        grads = [rng.normal(size=(len(rows), 6)) for rows in row_sets]
        start, results = rng.normal(size=(10, 6)), []
        with ThreadPoolExecutor(1) as helper:
            for elems, given in [(kgex.optim._CHUNK_ELEMS, None), (1, None), (1, helper)]:
                monkeypatch.setattr(kgex.optim, "_CHUNK_ELEMS", elems)
                params, updated = start.copy(), []
                opt = SparseAdam(params.shape, lr=0.3)
                for rows, g in zip(row_sets, grads):
                    updated.append(opt.apply(params, rows, g.copy(), given).tobytes())
                results.append((params.tobytes(), opt.m.tobytes(), opt.v.tobytes(), updated))
        assert results[1:] == results[:1] * 2

    def test_foreign_grads_are_not_written(self):
        """float32 and read-only gradients step as their float64 values do;
        only a writable float64 buffer is written over."""
        params, rows = np.arange(12.0).reshape(6, 2), np.array([1, 4])
        grads = np.array([[0.1, -2.5], [3.0, 1e-3]], dtype=np.float32)
        frozen = grads.astype(np.float64)
        frozen.flags.writeable = False
        results = []
        for g in (grads.astype(np.float64), grads, frozen):
            before, p, opt = g.copy(), params.copy(), SparseAdam(params.shape, lr=0.3)
            updated = opt.apply(p, rows, g)
            assert (updated is g) == (g.dtype == np.float64 and g.flags.writeable)
            if updated is not g:
                assert g.tobytes() == before.tobytes()
            results.append((p.tobytes(), updated.tobytes(), opt.m.tobytes(), opt.v.tobytes()))
        assert results[1] == results[0] and results[2] == results[0]

    def test_heap_holds_a_few_chunks(self):
        """One step over 20,000 rows of width 100 (16 MB a grad-sized array) at
        the training budget of 655 rows (512 KiB): each chunk's moments and
        update take three chunks, updated in place, so the peak is 3 chunks on
        1 thread and 6 on 2, this one and a helper, where the whole rows took
        about seven 16 MB arrays (112 MB).  It was 9 on 3 threads."""
        rng = np.random.default_rng(9)
        params, grads, rows = rng.normal(size=(20_000, 100)), rng.normal(size=(20_000, 100)), np.arange(20_000)
        opt = SparseAdam(params.shape, lr=0.1)
        with ThreadPoolExecutor(1) as helper:
            tracemalloc.start()
            try:
                opt.apply(params, rows, grads, helper)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 8 * kgex.optim._CHUNK_ELEMS * 8, f"heap peak {peak / 1e6:.1f} MB"

    def test_untouched_rows_never_move(self):
        params = np.arange(8.0).reshape(4, 2)
        before = params.copy()
        opt = SparseAdam(params.shape, lr=0.3)
        opt.apply(params, np.array([1]), np.ones((1, 2)))
        assert np.array_equal(params[[0, 2, 3]], before[[0, 2, 3]])
        assert not np.array_equal(params[1], before[1])


class TestTrainLoop:
    def test_epoch_count_and_steps(self, monkeypatch):
        g = random_graph(12, 2, 48, seed=0)
        cfg = TrainConfig(kind="distmult", k=4, eta=2, lr=0.05, epochs=1, batch_size=16, seed=1)
        batches = []

        def counting_corrupt_batch(batch, *args):
            batches.append(len(batch))
            return corrupt_batch(batch, *args)

        monkeypatch.setattr(kgex.training, "corrupt_batch", counting_corrupt_batch)
        _, stats = run_training(g, cfg)
        assert batches == [16, 16, 16]  # one corruption draw per batch: 48 / 16
        assert len(stats.epoch_losses) == 1

    def test_epochs_zero_rejected(self):
        g = random_graph(12, 2, 20, seed=0)
        with pytest.raises(ValueError):
            run_training(g, TrainConfig(epochs=0))

    def test_bitwise_determinism(self):
        g = random_graph(15, 3, 60, seed=2)
        cfg = TrainConfig(kind="complex", k=4, eta=2, lr=0.05, epochs=3, batch_size=32, gamma=1e-4, seed=9)
        a, _ = run_training(g, cfg)
        b, _ = run_training(g, cfg)
        assert np.array_equal(a.entity_table, b.entity_table)
        assert np.array_equal(a.relation_table, b.relation_table)

    def test_tables_stay_finite(self):
        g = random_graph(20, 3, 100, seed=4)
        cfg = TrainConfig(kind="transe-l1", k=6, eta=3, lr=0.1, epochs=5, batch_size=64, seed=0)
        model, _ = run_training(g, cfg)
        assert np.isfinite(model.entity_table).all()
        assert np.isfinite(model.relation_table).all()

    def test_learning_beats_initialization(self):
        """Paired-run oracle on a 20-entity block graph over 5 seeds."""
        g, held_out = block_graph(
            n_entities=20, n_blocks=10, n_relations=3, n_train=80, n_test=16, seed=13
        )
        flt = build_filter(g, graph_from_triples(held_out, g.entity_vocab, g.relation_vocab))
        pool = np.arange(g.n_entities)
        wins = 0
        for seed in range(5):
            cfg = TrainConfig(kind="transe-l2", k=16, eta=2, lr=0.1, epochs=200, batch_size=512, seed=seed)
            trained, _ = run_training(g, cfg)
            untrained = init_model(cfg.kind, cfg.k, g.n_entities, g.n_relations, seed=seed)
            trained_metrics, _ = evaluate(trained, held_out, pool, flt)
            untrained_metrics, _ = evaluate(untrained, held_out, pool, flt)
            if trained_metrics.mrr >= 3.0 * untrained_metrics.mrr:
                wins += 1
        assert wins >= 4

    def test_loss_decreases_on_structured_graph(self):
        g, _ = block_graph(20, 10, 3, n_train=80, n_test=10, seed=3)
        cfg = TrainConfig(kind="distmult", k=8, eta=2, lr=0.05, epochs=30, batch_size=128, seed=5)
        _, stats = run_training(g, cfg)
        assert np.mean(stats.epoch_losses[-5:]) < np.mean(stats.epoch_losses[:5])

    @pytest.mark.parametrize("bad", [-1, 99])
    def test_pool_ids_outside_the_tables_rejected(self, bad, monkeypatch):
        g = random_graph(5, 2, 8, seed=1)

        def no_init(*args, **kwargs):
            raise AssertionError("the pool must be checked before the tables are drawn")

        monkeypatch.setattr(kgex.training, "init_model", no_init)
        config = TrainConfig(kind="distmult", k=2, epochs=1, pool=np.array([0, 1, bad]))
        with pytest.raises(ValueError, match=r"corruption pool ids must lie in \[0, 5\)"):
            run_training(g, config)

    @pytest.mark.parametrize("kd_lambda", [math.nan, -1.0])
    def test_bad_kd_lambda_rejected(self, kd_lambda):
        g = random_graph(5, 2, 8, seed=1)
        teacher = init_model("distmult", 2, g.n_entities, g.n_relations, seed=0)
        config = TrainConfig(kind="distmult", k=2, epochs=1)
        with pytest.raises(ValueError, match="kd_lambda must be finite and >= 0"):
            run_training(g, config, teacher=teacher, kd_lambda=kd_lambda)

    @pytest.mark.parametrize("extra", [(-1, 0), (0, -1), (1, 0), (0, 1)])
    def test_teacher_of_other_vocabulary_sizes_rejected(self, extra, monkeypatch):
        g = random_graph(5, 2, 8, seed=1)
        teacher = init_model("distmult", 2, g.n_entities + extra[0], g.n_relations + extra[1], seed=0)

        def no_init(*args, **kwargs):
            raise AssertionError("the teacher must be checked before the tables are drawn")

        monkeypatch.setattr(kgex.training, "init_model", no_init)
        config = TrainConfig(kind="distmult", k=2, epochs=1)
        with pytest.raises(ValueError, match="teacher tables do not match the graph vocabularies"):
            run_training(g, config, teacher=teacher, kd_lambda=1.0)

    def test_empty_graph_rejected(self):
        from kgex.graph import Vocabulary, graph_from_triples

        ev, rv = Vocabulary(), Vocabulary()
        ev.add("A"), ev.add("B"), rv.add("r")
        with pytest.raises(ValueError):
            run_training(graph_from_triples([], ev, rv), TrainConfig())

    def test_divergence_aborts_with_location(self):
        g = random_graph(10, 2, 30, seed=6)
        # an exploding learning rate drives DistMult scores non-finite fast
        cfg = TrainConfig(kind="distmult", k=4, eta=2, lr=1e150, epochs=50, batch_size=8, seed=0)
        with pytest.raises(TrainingDivergedError, match=r"epoch \d+"):
            with np.errstate(all="ignore"):
                run_training(g, cfg)

    def test_overflowing_step_aborts_before_the_epoch_ends(self):
        g = random_graph(10, 2, 30, seed=6)
        # the first Adam step moves rows by about lr, past the float64 range,
        # while the loss of that batch is still finite
        cfg = TrainConfig(kind="distmult", k=4, eta=2, lr=1.9e308, epochs=5, batch_size=30, seed=0)
        epochs_reported = []
        with pytest.raises(TrainingDivergedError, match=r"non-finite embeddings.*epoch 0"):
            with np.errstate(all="ignore"):
                run_training(g, cfg, progress=lambda epoch, loss: epochs_reported.append(epoch))
        assert epochs_reported == []

    def test_finiteness_check_reads_the_rows_adam_returns(self, monkeypatch):
        g = random_graph(10, 2, 30, seed=6)
        apply = SparseAdam.apply
        monkeypatch.setattr(SparseAdam, "apply", lambda *args: apply(*args) * np.nan)
        cfg = TrainConfig(kind="distmult", k=4, eta=2, lr=0.1, epochs=1, batch_size=30, seed=0)
        with pytest.raises(TrainingDivergedError, match=r"^non-finite embeddings at epoch 0, batch 0$"):
            run_training(g, cfg)


# Entity 1 is the object of positive 0, the subject of positive 2 and a
# replacement (also as the object of positive 2's self-loop negative); entity 5
# replaces positive 0's object twice.
BATCH = np.array([[0, 0, 1], [2, 1, 3], [1, 0, 4]])
NEG_S = np.array([[0, 2, 0], [1, 2, 5], [1, 0, 1]])
NEG_O = np.array([[5, 1, 5], [3, 0, 3], [3, 4, 1]])
NEGATIVES = (NEG_S, np.broadcast_to(BATCH[:, 1:2], NEG_S.shape), NEG_O)


def assert_same_batch_gradients(n_entities, got, want, rtol):
    """The table rows split at |E| match the oracle's entity and relation updates."""
    ((loss,), (degenerate,), rows, grad), (ref_loss, ref_degenerate, ref_updates) = got, want
    assert loss == pytest.approx(ref_loss, rel=rtol, abs=0.0)
    assert degenerate == ref_degenerate
    split = np.searchsorted(rows, n_entities)
    parts = [(rows[:split], grad[:split]), (rows[split:] - n_entities, grad[split:])]
    for (part_rows, part_grad), (_, ref_rows, ref_grad) in zip(parts, ref_updates, strict=True):
        assert np.array_equal(part_rows, ref_rows)
        np.testing.assert_allclose(part_grad, ref_grad, rtol=rtol, atol=0.0)


class TestBatchGradients:
    """`batch_gradients` against the per-negative scatter of `oracles`."""

    @pytest.mark.parametrize("kd", [False, True], ids=["plain", "kd"])
    @pytest.mark.parametrize("gamma", [0.0, 1e-3])
    @pytest.mark.parametrize("objective", ["multiclass_nll", "softplus_nll", "focuse"])
    @pytest.mark.parametrize("kind", ["distmult", "complex"])
    def test_bilinear_sums_over_eta_match_per_negative_rows(self, kind, objective, gamma, kd):
        model = init_model(kind, 3, 8, 2, seed=1)
        teacher = init_model(kind, 3, 8, 2, seed=2) if kd else None
        loss = "softplus_nll" if objective == "softplus_nll" else "multiclass_nll"
        config = TrainConfig(kind=kind, k=3, eta=3, gamma=gamma, loss=loss)
        alpha = alpha_batch(np.array([0.2, 0.9, 0.5]), 0.3, 3) if objective == "focuse" else None
        angles = None if teacher is None else triple_angles(teacher, BATCH)
        got = batch_gradients(model, BATCH, NEGATIVES, config, alpha, angles, 2.0)
        want = per_negative_batch_gradients(model, BATCH, NEGATIVES, config, alpha, teacher, 2.0)
        assert_same_batch_gradients(model.n_entities, got, want, 1e-12)

    @pytest.mark.parametrize("kind", ["transe-l1", "transe-l2", "distmult", "complex"])
    def test_drawn_corruptions(self, monkeypatch, kind):
        """Many repeats from a small pool; TransE keeps the per-negative rows bit for bit.
        The teacher's angles are computed 7 triples at a time."""
        g = random_graph(30, 3, 60, seed=8)
        rng = np.random.default_rng(9)
        negatives = corrupt_batch(g.triples, 6, np.arange(5, 12), rng)
        model = init_model(kind, 4, g.n_entities, g.n_relations, seed=3)
        teacher = init_model(kind, 4, g.n_entities, g.n_relations, seed=4)
        config = TrainConfig(kind=kind, k=4, eta=6, gamma=1e-3)
        with monkeypatch.context() as patch:
            patch.setattr(kgex.optim, "_CHUNK_ELEMS", 7 * 3 * teacher.width)
            angles = triple_angles(teacher, g.triples)
        got = batch_gradients(model, g.triples, negatives, config, None, angles, 1.5)
        want = per_negative_batch_gradients(model, g.triples, negatives, config, None, teacher, 1.5)
        rtol = 1e-12 if kind in ("distmult", "complex") else 0.0
        assert_same_batch_gradients(model.n_entities, got, want, rtol)


# ids of three terms over 4 rows; at 3 rows a chunk the first term ends on a
# chunk boundary, the second is split by one, and ids repeat within a chunk,
# across the chunks of a term and across terms.  Two terms over rows 4-6 follow
# them as relation-row terms.
SCATTER_IDS = [
    np.array([0, 0, 1, 2, 1, 0]),
    np.array([3, 1, 1, 0, 3]),
    np.array([[2, 0, 2, 1], [1, 1, 3, 0], [0, 2, 2, 3]]),
]
RELATION_IDS = [np.array([6, 4, 6, 6]), np.array([[4, 4], [5, 6]])]


@pytest.fixture
def add_at_calls(monkeypatch):
    """Each `np.add.at` call of `kgex.training`, as `(thread name, cells' scalar type, cells' size,
    lowest and highest flat index)`."""
    calls = []

    def add_at(cells, index, values):
        calls.append((threading.current_thread().name, cells.dtype.type, cells.size, index.min(), index.max()))
        np.add.at(cells, index, values)

    class Forward:  # `of`'s attributes, but for those given
        def __init__(self, of, **given):
            self.__dict__.update(given, of=of)

        def __getattr__(self, name):
            return getattr(self.of, name)

    monkeypatch.setattr(kgex.training, "np", Forward(np, add=Forward(np.add, at=add_at)))
    return calls


def scatter_threads(calls, n_rows, first_relation):
    """The thread names that scattered entity rows (positions below `first_relation` of the
    `n_rows` touched rows) and those that scattered relation rows, from `add_at_calls`; a call
    across both kinds of row is a failure."""
    entity, relation = set(), set()
    for thread, _, size, lo, hi in calls:
        stride = size // n_rows
        assert lo // stride >= first_relation or hi // stride < first_relation, "a call spans both kinds of row"
        (entity if hi // stride < first_relation else relation).add(thread)
    return entity, relation


class TestSummedGradients:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("f, k", [(1, 4), (2, 4), (1, 3), (2, 3)])
    @pytest.mark.parametrize("rows_per_block", [3, 0, None], ids=["3-row blocks", "row wider than a block",
                                                                  "default"])
    def test_bitwise_equal_to_per_term_scatter(self, rows_per_block, f, k, threads, add_at_calls, monkeypatch):
        """Rows of width f·k, scattered in complex128 pairs exactly when the width is even;
        with a helper, it scatters the relation-row terms and this thread the entity-row terms."""
        width = f * k
        if rows_per_block is not None:
            monkeypatch.setattr(kgex.optim, "_CHUNK_ELEMS", max(1, rows_per_block * width))
        rng = np.random.default_rng(5)
        entity_terms, relation_terms = ([(ids, rng.normal(size=(*ids.shape, width))) for ids in id_list]
                                        for id_list in (SCATTER_IDS, RELATION_IDS))
        with ThreadPoolExecutor(1, "kgex-step") as helper:
            rows, summed = _summed_gradients(entity_terms, relation_terms, 7, width, helper if threads == 2 else None)
        ref_rows, ref = per_term_scatter(entity_terms + relation_terms, width)
        assert np.array_equal(rows, ref_rows)
        assert summed.tobytes() == ref.tobytes()
        assert {dtype for _, dtype, *_ in add_at_calls} == {np.complex128 if width % 2 == 0 else np.float64}
        here = threading.current_thread().name
        assert scatter_threads(add_at_calls, 7, 4) == ({here}, {here} if threads == 1 else {"kgex-step_0"})

    @pytest.mark.parametrize("ids", [[3, 0, 3, 3, 1, 0], [2], [[4, 0], [4, 4]]], ids=["repeats", "one id", "last row"])
    def test_touched_rows_are_np_unique(self, ids):
        """The presence mask's rows and positions are `np.unique`'s rows and inverse."""
        ids = np.array(ids)
        rows, position = _touched_rows([ids[:1], ids], 5)
        want, inverse = np.unique(np.r_[ids[:1].ravel(), ids.ravel()], return_inverse=True)
        assert np.array_equal(rows, want)
        assert np.array_equal(position[np.r_[ids[:1].ravel(), ids.ravel()]], inverse.ravel())

    def test_one_element_chunks_train_the_same_tables(self, monkeypatch):
        """A one-element budget scatters one row a call and scores one positive's
        candidates a chunk; the default scores each batch in one chunk."""
        g = random_graph(12, 3, 40, seed=4)
        teacher = init_model("complex", 3, g.n_entities, g.n_relations, seed=5)
        config = TrainConfig(kind="complex", k=3, eta=3, epochs=3, batch_size=16, gamma=1e-3, seed=2)
        want, _ = run_training(g, config, teacher=teacher, kd_lambda=2.0)
        monkeypatch.setattr(kgex.optim, "_CHUNK_ELEMS", 1)
        got, _ = run_training(g, config, teacher=teacher, kd_lambda=2.0)
        assert got.entity_table.tobytes() == want.entity_table.tobytes()
        assert got.relation_table.tobytes() == want.relation_table.tobytes()


def stacked_step(kind, objective, gamma, kd):
    """A `batch_gradients` call on two stacked runs and its bytes.

    Run 0 has 7 triples over table rows 0-9 and relation rows 22-23, run 1 has
    9 over rows 10-21 and 24-26; each holds a self-loop, whose angle terms are
    degenerate.  eta is 3, so 5-row chunks end at row 10, inside run 1.
    """
    rng = np.random.default_rng(21)
    model = init_model(kind, 3, 22, 5, seed=1)
    parts = []
    for (e0, e1), (r0, r1), n in [((0, 10), (0, 2), 7), ((10, 22), (2, 5), 9)]:
        batch = np.stack([rng.integers(e0, e1, n), rng.integers(r0, r1, n), rng.integers(e0, e1, n)], axis=1)
        batch[0, 2] = batch[0, 0]
        parts.append((batch, corrupt_batch(batch, 3, np.arange(e0, e1), rng)))
    batch = np.concatenate([b for b, _ in parts])
    negatives = tuple(np.concatenate(side) for side in zip(*(neg for _, neg in parts)))
    loss = "softplus_nll" if objective == "softplus_nll" else "multiclass_nll"
    config = TrainConfig(kind=kind, k=3, eta=3, gamma=gamma, loss=loss)
    alpha = alpha_batch(rng.uniform(size=len(batch)), 0.3, 3) if objective == "focuse" else None
    angles = triple_angles(init_model(kind, 3, 22, 5, seed=2), batch) if kd else None
    losses, degenerate, rows, grad = batch_gradients(
        model, batch, negatives, config, alpha, angles, 2.0, [7, 9], [0, 10, 22, 24, 27]
    )
    return np.array(losses).tobytes(), degenerate, rows.tobytes(), grad.tobytes(), model.width


@pytest.mark.parametrize("kd", [False, True], ids=["plain", "kd"])
@pytest.mark.parametrize("gamma", [0.0, 1e-3])
@pytest.mark.parametrize("objective", ["multiclass_nll", "softplus_nll", "focuse"])
@pytest.mark.parametrize("kind", ["distmult", "complex"])
def test_candidate_chunks_change_no_byte(monkeypatch, kind, objective, gamma, kd):
    """The default budget scores the 16 rows in one chunk; 1-row and 5-row
    candidate chunks give the same losses, degenerate counts, rows and
    gradients.  The 1-row budget, 4 * width elements, also makes the positive
    rows' gradient terms and, at gamma 1e-3, the L2 gradient in 4-row chunks."""
    *want, width = stacked_step(kind, objective, gamma, kd)
    assert (sum(want[1]) > 0) == kd and 16 * 4 * width <= kgex.optim._CHUNK_ELEMS
    for rows_per_chunk in (1, 5):
        monkeypatch.setattr(kgex.optim, "_CHUNK_ELEMS", rows_per_chunk * 4 * width)
        assert stacked_step(kind, objective, gamma, kd)[:-1] == tuple(want)


@pytest.mark.parametrize("gamma", [0.0, 1e-3])
@pytest.mark.parametrize("kd", [False, True], ids=["plain", "kd"])
@pytest.mark.parametrize("k", [3, 4], ids=["odd k", "even k"])
@pytest.mark.parametrize("kind", ["transe-l1", "transe-l2", "distmult", "complex"])
def test_a_helper_changes_no_byte_of_a_step_or_adam(monkeypatch, add_at_calls, kind, k, kd, gamma):
    """A step of 12 positives in 2-positive chunks and an Adam step on its
    gradients, without and with a helper: with it, the helper scatters the
    relation-row terms and this thread the entity-row terms, in complex pairs
    at even width and in float64 cells at odd width.  The batch holds a
    self-loop, whose angle terms are degenerate."""
    rng = np.random.default_rng(31)
    model = init_model(kind, k, 20, 3, seed=1)
    batch = np.stack([rng.integers(0, 20, 12), rng.integers(0, 3, 12), rng.integers(0, 20, 12)], axis=1)
    batch[0, 2] = batch[0, 0]
    negatives = corrupt_batch(batch, 3, np.arange(20), rng)
    angles = triple_angles(init_model(kind, k, 20, 3, seed=2), batch) if kd else None
    config = TrainConfig(kind=kind, k=k, eta=3, gamma=gamma)
    monkeypatch.setattr(kgex.optim, "_CHUNK_ELEMS", 2 * 4 * model.width)
    results, threads = [], []
    with ThreadPoolExecutor(1, "kgex-step") as helper:
        for given in (None, helper):
            add_at_calls.clear()
            losses, degenerate, rows, grad = batch_gradients(model, batch, negatives, config, None, angles, 2.0,
                                                             helper=given)
            threads.append(scatter_threads(add_at_calls, len(rows), np.searchsorted(rows, model.n_entities)))
            assert {dtype for _, dtype, *_ in add_at_calls} == {np.complex128 if model.width % 2 == 0 else np.float64}
            table, adam = model.table.copy(), SparseAdam(model.table.shape, 0.1)
            updated = adam.apply(table, rows, grad.copy(), given)
            results.append((losses, degenerate, rows.tobytes(), grad.tobytes(), updated.tobytes(), table.tobytes(),
                            adam.m.tobytes(), adam.v.tobytes()))
    assert (sum(results[0][1]) > 0) == kd and len(rows) > kgex.optim._chunk_rows(model.width)
    here = threading.current_thread().name
    assert threads == [({here}, {here}), ({here}, {"kgex-step_0"})]
    assert results[1] == results[0]


@pytest.mark.parametrize("gamma", [0.0, 1e-3])
def test_step_heap_holds_no_candidate_block(gamma):
    """One ComplEx step's traced peak, against two (n, W) arrays and a few chunks.

    n = 2,000 positives, eta = 10 and W = 100 make the (n, 1 + eta, W)
    candidate block 17.6 MB; a step that held ten (n, W) arrays until the
    scatter (the positive rows, the queries q_obj and q_sub, the sums over
    eta and the kept rows' gradients) peaked at 20.6 MB.  The bound adds:

    - 2 float64 (n, W) arrays, the sums over eta sum_obj and sum_sub (3.2 MB);
    - the buffer of touched rows (1,010 at most) and, for gamma > 0, the L2
      gather of its rows (1.6 MB);
    - 4 chunks of `optim._CHUNK_ELEMS` float64 (512 KiB each): a chunk's
      gathered candidates and queries on this thread and on the helper, or, in
      the scatter, this thread's block of entity-row gradients (a subject's,
      object's or candidates') and the positive rows it is made from, and the
      helper's block of relation-row gradients and its positive rows (2.1 MB);
    - 3 float64 (n, 1 + eta) arrays: the candidate ids, their side mask and
      their loss gradients (0.5 MB);
    - 1.1 MB, once 5 copies of the 14n int64 row ids of `np.unique`: the
      threads' scatter indices and the temporaries of their products.

    That bound is 8.6 MB, under half the block.  The peak was 6.4 MB without
    the helper and 7.1-8.2 MB with it, highest when the helper makes a block
    of relation-row gradients (two products and their sum) while this thread
    makes a subject's or object's block; 7.2-7.8 MB when the threads split
    each row's components between them; 9.4 MB when each made its half's row
    terms in chunks of its own width, and 8.8 MB when each held its last block
    while making the next.
    """
    n, eta, k, n_entities = 2000, 10, 50, 1000
    rng = np.random.default_rng(0)
    model = init_model("complex", k, n_entities, 10, seed=1)
    batch = np.stack([rng.integers(0, n_entities, n), rng.integers(0, 10, n), rng.integers(0, n_entities, n)], 1)
    negatives = corrupt_batch(batch, eta, np.arange(n_entities), rng)
    config = TrainConfig(kind="complex", k=k, eta=eta, gamma=gamma)
    with ThreadPoolExecutor(1) as helper:
        tracemalloc.start()
        try:
            batch_gradients(model, batch, negatives, config, helper=helper)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    block, row_bytes = n * (1 + eta) * model.width * 8, model.width * 8
    bound = (2 * n * row_bytes + 2 * len(model.table) * row_bytes + 4 * kgex.optim._CHUNK_ELEMS * 8
             + 3 * n * (1 + eta) * 8 + 5 * 14 * n * 8)
    assert block >= 16e6 and bound < block / 2
    assert peak <= bound, f"heap peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("kind", ["transe-l1", "transe-l2"])
def test_transe_step_heap_in_candidate_blocks(kind):
    """One TransE step's traced peak, in (n, 1 + eta, W) float64 candidate blocks.

    TransE differentiates every negative row by row.  The peak, 3.9 blocks at
    n = 2,000, eta = 10 and W = 100, is the negatives' gathered subject and
    object rows, their residual and one temporary of its size (4 * 10/11 of a
    block), plus the positives' rows and the scatter's index.  A step that
    gathered the negatives' relation rows and copied the subject and relation
    gradients apart peaked at 7.6 blocks.
    """
    n, eta, k, n_entities = 2000, 10, 100, 1000
    rng = np.random.default_rng(0)
    model = init_model(kind, k, n_entities, 10, seed=1)
    batch = np.stack([rng.integers(0, n_entities, n), rng.integers(0, 10, n), rng.integers(0, n_entities, n)], 1)
    negatives = corrupt_batch(batch, eta, np.arange(n_entities), rng)
    tracemalloc.start()
    try:
        batch_gradients(model, batch, negatives, TrainConfig(kind=kind, k=k, eta=eta))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = n * (1 + eta) * model.width * 8
    assert peak < 4.5 * block, f"heap peak {peak / block:.2f} candidate blocks"


@pytest.mark.parametrize("kind", ["complex", "distmult"])
def test_epoch_heap_peak_is_a_few_candidate_arrays(kind):
    """One epoch's heap peak, in units of one float64 (batch, 1 + eta, width) array.

    Scoring and scattering the candidates in chunks holds no such array, and
    the positive rows, queries and kept rows' gradients are made a chunk at a
    time: the peak, about 0.6 (ComplEx) and 0.75 (DistMult), is the batch's two
    (batch, width) sums over eta, a few chunks and the tables.  Holding ten
    (batch, width) arrays took about 1.35; the whole block, gathered and as
    queries, about 3.2; a gather and a gradient per negative and side needs
    about ten.
    """
    g = random_graph(500, 10, 4000, seed=12)
    config = TrainConfig(kind=kind, k=50, eta=10, epochs=1, batch_size=2000, seed=0)
    width = config.k * (2 if kind == "complex" else 1)
    unit = config.batch_size * (1 + config.eta) * width * 8
    tracemalloc.start()
    try:
        run_training(g, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * unit, f"heap peak {peak / unit:.1f} candidate arrays"


class TestThreads:
    """Where the process may run on two CPUs, a step of several chunks shares its
    scoring, its scatter and its Adam chunks with a helper thread, which moves no
    byte and ends with the `run_training` call."""

    @staticmethod
    def without_and_with_helper(monkeypatch, train, width, eta=3):
        """`train()` on one CPU, then on two, with chunks of 2 positives' candidates."""
        monkeypatch.setattr(kgex.optim, "_CHUNK_ELEMS", 2 * (1 + eta) * width)
        submitted = []

        class Helper(ThreadPoolExecutor):
            def submit(self, *args):
                submitted.append(args)
                return super().submit(*args)

        monkeypatch.setattr(kgex.optim, "ThreadPoolExecutor", Helper)
        results = []
        for cpus in (1, 2):
            monkeypatch.setattr(kgex.optim, "_cpus", lambda: cpus)
            results.append(train())
            assert bool(submitted) == (cpus == 2)  # the helper was handed work
        return results

    @pytest.mark.parametrize("variant", ["plain", "kd", "focuse"])
    @pytest.mark.parametrize("kind", ["complex", "distmult"])
    def test_run_training_gives_the_same_bytes(self, monkeypatch, kind, variant):
        """20-positive batches in 10 chunks and 5 query groups; each step's up
        to 15 touched rows make 2 Adam chunks of 8.  The graph's self-loops
        make degenerate angle terms."""
        g = random_graph(12, 3, 48, seed=4)
        g.weights = np.random.default_rng(1).uniform(size=g.n_triples)
        teacher = init_model(kind, 3, g.n_entities, g.n_relations, seed=5) if variant == "kd" else None
        config = TrainConfig(
            kind=kind, k=3, eta=3, epochs=2, batch_size=20, gamma=0.0 if variant == "plain" else 1e-3,
            seed=2, focuse=FocusEConfig(decay=1.0) if variant == "focuse" else None,
        )

        def train():
            model, stats = run_training(g, config, teacher=teacher, kd_lambda=2.0)
            return model.table.tobytes(), stats.epoch_losses, stats.degenerate_kd_terms

        want, got = self.without_and_with_helper(monkeypatch, train, 3 * (2 if kind == "complex" else 1))
        assert (want[2] > 0) == (variant == "kd")
        assert got == want

    def test_two_run_lockstep_gives_the_same_bytes(self, monkeypatch):
        """Two runs on disjoint rows of one table, stacked into each step."""
        graphs = [random_graph(10, 2, 30, seed=s) for s in (6, 7)]

        def train():
            model = init_model("complex", 3, 20, 4, seed=1)
            runs = [
                LockstepRun(g.triples + [10 * j, 2 * j, 10 * j], np.arange(10 * j, 10 * j + 10),
                            np.random.default_rng(j), (10 * j, 2 * j))
                for j, g in enumerate(graphs)
            ]
            config = TrainConfig(kind="complex", k=3, eta=3, epochs=2, batch_size=16, gamma=1e-3)
            with kgex.optim.step_helper() as helper:
                stats = train_lockstep(model, runs, config, helper=helper)
            return model.table.tobytes(), [s.epoch_losses for s in stats]

        want, got = self.without_and_with_helper(monkeypatch, train, 6)
        assert got == want

    def test_one_helper_where_the_process_may_run_on_two_cpus(self, monkeypatch):
        """The CPUs are those of the process's affinity mask, not the host's: one
        takes no helper, two or more take one helper thread."""
        def name():
            time.sleep(0.01)  # each task finds the one before still running
            return threading.current_thread().name

        monkeypatch.setattr(kgex.optim.os, "cpu_count", lambda: 64)
        for cpus in (1, 2, 64):
            monkeypatch.setattr(kgex.optim.os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)), raising=False)
            assert kgex.optim._cpus() == cpus
            with kgex.optim.step_helper() as helper:
                assert (helper is None) == (cpus == 1)
                if helper is not None:
                    names = [f.result() for f in [helper.submit(name) for _ in range(3)]]
                    assert set(names) == {names[0]} and names[0].startswith("kgex-step")

    def test_one_item_takes_no_helper(self):
        """One item runs on this thread; two hand the helper one task."""
        calls = []
        with ThreadPoolExecutor(1) as executor:
            submit = executor.submit
            executor.submit = lambda fn: calls.append(fn) or submit(fn)
            assert kgex.optim._spread(lambda x: 2 * x, [1], executor) == [2] and calls == []
            assert kgex.optim._spread(lambda x: 2 * x, [1, 2], executor) == [2, 4]
        assert len(calls) == 1

    @pytest.mark.parametrize("raiser", ["calling", "helper"])
    def test_an_item_error_comes_out_once_both_threads_stop(self, raiser):
        """Each thread takes one of two items (a barrier holds each until the
        other has one); the item on `raiser`'s thread raises at once, the other
        finishes 50 ms later, before the error comes out of `_spread`."""
        barrier, finished = threading.Barrier(2, timeout=10), []

        def item(i):
            barrier.wait()
            if threading.current_thread().name.startswith("kgex-step") == (raiser == "helper"):
                raise ValueError(f"item {i}")
            time.sleep(0.05)
            finished.append(i)

        with ThreadPoolExecutor(1, "kgex-step") as helper:
            with pytest.raises(ValueError, match="item"):
                kgex.optim._spread(item, [0, 1], helper)
            assert len(finished) == 1

    def test_items_split_in_halves(self):
        """This thread runs the first ceil(n/2) of 5 items and the helper the
        other 2, each half in order; every item sleeps, so threads that each
        took the next item left would interleave them."""
        ran = []

        def item(i):
            time.sleep(0.01)
            ran.append((threading.current_thread().name, i))
            return 10 * i

        with ThreadPoolExecutor(1, "kgex-step") as helper:
            assert kgex.optim._spread(item, range(5), helper) == [0, 10, 20, 30, 40]
        here = threading.current_thread().name
        assert [i for name, i in ran if name == here] == [0, 1, 2]
        assert [i for name, i in ran if name != here] == [3, 4]
        assert {name for name, _ in ran} == {here, "kgex-step_0"}

    def test_each_thread_stops_at_its_first_failed_item(self):
        """Of 6 items, 1 (this thread's half) and 4 (the helper's) raise:
        neither thread runs an item after its failure, and item 1's error
        comes out."""
        ran = {}

        def item(i):
            time.sleep(0.01)
            ran[i] = threading.current_thread().name
            if i in (1, 4):
                raise ValueError(f"item {i}")

        with ThreadPoolExecutor(1, "kgex-step") as helper:
            with pytest.raises(ValueError, match="item 1"):
                kgex.optim._spread(item, range(6), helper)
        assert sorted(ran) == [0, 1, 3, 4] and ran[3] == ran[4] == "kgex-step_0"

    def test_the_lowest_numbered_error_comes_out_once_both_halves_stop(self):
        """Of 4 items, this thread's item 0 raises at once and the helper's
        item 2 raises 50 ms later: item 0's error comes out, once item 2 has
        ended, and neither thread runs another item."""
        ended = []

        def item(i):
            if i == 0:
                raise ValueError("item 0")
            time.sleep(0.05)
            ended.append(i)
            raise ValueError(f"item {i}")

        with ThreadPoolExecutor(1, "kgex-step") as helper:
            with pytest.raises(ValueError, match="item 0"):
                kgex.optim._spread(item, range(4), helper)
            assert ended == [2]

    def test_an_interrupt_comes_out_once_the_helpers_half_has_ended(self):
        """This thread is interrupted on item 0 of 6 while the helper's items
        3-5 each take 20 ms: all three end before the interrupt comes out."""
        ended = []

        def item(i):
            if i == 0:
                raise KeyboardInterrupt
            time.sleep(0.02)
            ended.append(i)

        with ThreadPoolExecutor(1, "kgex-step") as helper:
            with pytest.raises(KeyboardInterrupt):
                kgex.optim._spread(item, range(6), helper)
            assert ended == [3, 4, 5]

    def test_two_threads_switching_often(self, monkeypatch):
        """This thread and the helper hand the interpreter lock over every
        microsecond: a lost, doubled or misplaced write to a shared array would
        move a byte."""
        g = random_graph(12, 3, 48, seed=4)
        config = TrainConfig(kind="complex", k=3, eta=3, epochs=2, batch_size=20, gamma=1e-3, seed=2)
        monkeypatch.setattr(kgex.optim, "_CHUNK_ELEMS", 2 * 4 * 6)
        monkeypatch.setattr(kgex.optim, "_cpus", lambda: 1)
        want = run_training(g, config)[0].table.tobytes()
        monkeypatch.setattr(kgex.optim, "_cpus", lambda: 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = run_training(g, config)[0].table.tobytes()
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    @pytest.mark.parametrize("lr", [0.1, math.inf])
    def test_no_helper_thread_outlives_run_training(self, monkeypatch, lr):
        """The helper lived through the call, and no `kgex-step` thread is left
        once it returns or raises `TrainingDivergedError` (`lr` inf)."""
        g = random_graph(12, 3, 48, seed=4)
        config = TrainConfig(kind="distmult", k=4, eta=3, lr=lr, epochs=2, batch_size=20, seed=2)
        monkeypatch.setattr(kgex.optim, "_CHUNK_ELEMS", 2 * 4 * 4)
        monkeypatch.setattr(kgex.optim, "_cpus", lambda: 2)
        alive, make = [], kgex.training.step_helper

        @contextlib.contextmanager
        def watched():
            with make() as helper:
                try:
                    yield helper
                finally:
                    alive.append([t.name for t in threading.enumerate() if t.name.startswith("kgex-step")])

        monkeypatch.setattr(kgex.training, "step_helper", watched)
        with np.errstate(all="ignore"), contextlib.suppress(TrainingDivergedError):
            run_training(g, config)
            assert lr < math.inf, "an infinite learning rate diverges"
        assert len(alive) == 1 and len(alive[0]) == 1
        assert not [t for t in threading.enumerate() if t.name.startswith("kgex-step")]

    def test_a_fork_child_trains_as_its_parent(self, monkeypatch):
        """A fork child of a process that has trained with a helper trains
        with its own helper, to the same bytes."""
        g = random_graph(12, 3, 48, seed=4)
        config = TrainConfig(kind="distmult", k=4, eta=3, epochs=2, batch_size=20, seed=2)
        monkeypatch.setattr(kgex.optim, "_CHUNK_ELEMS", 2 * 4 * 4)
        monkeypatch.setattr(kgex.optim, "_cpus", lambda: 2)
        want = run_training(g, config)[0].table.tobytes()
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(target=lambda: sender.send(run_training(g, config)[0].table.tobytes()))
        child.start()
        child.join(timeout=60)
        hung = child.is_alive()
        if hung:
            child.kill()
            child.join()
        assert not hung, "the fork child's training hung"
        assert child.exitcode == 0 and receiver.recv() == want
