"""Weight modulation: softplus transform, modulating factors, focused loss."""

import math
from dataclasses import replace

import numpy as np
import pytest

from kgex.focuse import alpha_batch, beta_schedule, focused_nll_batch, softplus_score
from kgex.losses import softmax_nll_batch
from kgex.training import TrainConfig, run_training

from oracles import fd_gradients, max_relative_error
from toygraphs import random_graph

# frozen from a 30-digit evaluation of ln(1 + e^10)
SOFTPLUS_AT_10 = 10.000045398899218


def factors(w, beta):
    """(positive, corruption) modulating factors of one weight."""
    alpha = alpha_batch(np.array([w]), beta, 1)
    return alpha[0, 0], alpha[0, 1]


def focused_loss_of(pos, negs, w, beta):
    """Modulated NLL and score gradients of one positive and its corruptions."""
    alpha = alpha_batch(np.array([w]), beta, len(negs))
    loss, grad = focused_nll_batch(np.array([[pos, *negs]]), alpha)
    return loss[0], grad[0, 0], grad[0, 1:]


class TestSoftplus:
    def test_zero(self):
        assert softplus_score(0.0) == pytest.approx(math.log(2), abs=1e-15)

    def test_deep_negative_stays_positive(self):
        value = softplus_score(-100.0)
        assert value > 0.0
        assert value == pytest.approx(math.exp(-100.0), rel=1e-12)

    def test_at_ten_matches_high_precision_oracle(self):
        assert softplus_score(10.0) == pytest.approx(SOFTPLUS_AT_10, abs=1e-12)

    def test_large_positive_no_overflow(self):
        with np.errstate(over="raise"):
            assert softplus_score(1000.0) == 1000.0  # additive term below resolution
        assert softplus_score(30.0) == pytest.approx(30.0 + math.exp(-30.0), abs=1e-16)


class TestModulatingFactor:
    def test_beta_one_ignores_weights(self):
        for w in (0.0, 0.3, 1.0):
            assert factors(w, 1.0) == (1.0, 1.0)

    def test_substitution_examples(self):
        assert factors(0.8, 0.0)[0] == pytest.approx(0.2, abs=1e-15)
        assert factors(0.8, 0.0)[1] == pytest.approx(0.8, abs=1e-15)
        assert factors(1.0, 0.5) == (0.5, 1.0)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            factors(1.5, 0.5)
        with pytest.raises(ValueError):
            factors(0.5, -0.1)

    def test_identity_alpha_sums_to_one_plus_beta(self):
        # dyadic grid: every product and sum is exact in float64
        grid = [i / 128.0 for i in range(100)] + [1.0]
        for w in grid:
            for beta in grid:
                a_pos, a_neg = factors(w, beta)
                assert a_pos + a_neg == 1.0 + beta

    def test_alpha_between_beta_and_one(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            w, beta = rng.uniform(size=2)
            for a in factors(w, beta):
                assert beta - 1e-15 <= a <= 1.0 + 1e-15


class TestFocusedScore:
    def test_beta_one_reduces_to_softplus(self):
        assert factors(0.4, 1.0)[0] * softplus_score(1.7) == softplus_score(1.7)

    def test_alpha_one_branch(self):
        assert factors(1.0, 0.0)[1] * softplus_score(0.0) == pytest.approx(math.log(2), abs=1e-15)

    def test_alpha_zero_branch(self):
        assert factors(1.0, 0.0)[0] * softplus_score(0.0) == 0.0

    def test_never_negative(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            f = float(rng.normal(scale=5))
            w, beta = rng.uniform(size=2)
            assert factors(w, beta)[1 - int(rng.integers(2))] * softplus_score(f) >= 0.0


class TestBetaSchedule:
    def test_endpoints_and_linearity(self):
        assert beta_schedule(0, 10) == 1.0
        assert beta_schedule(5, 10) == 0.5
        assert beta_schedule(10, 10) == 0.0
        assert beta_schedule(25, 10) == 0.0

    def test_zero_decay_starts_at_zero(self):
        assert beta_schedule(0, 0) == 0.0
        assert beta_schedule(3, 0) == 0.0

    def test_always_in_unit_interval(self):
        for decay in (0, 1, 7, 1000):
            for epoch in range(0, 50, 3):
                assert 0.0 <= beta_schedule(epoch, decay) <= 1.0


class TestFocuseLoss:
    def test_beta_one_equals_nll_of_softplus(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            pos = float(rng.normal())
            negs = rng.normal(size=3)
            w = float(rng.uniform())
            focused, _, _ = focused_loss_of(pos, negs, w, beta=1.0)
            baseline = softmax_nll_batch(softplus_score(np.array([[pos, *negs]])))[0][0]
            assert focused == pytest.approx(baseline, abs=1e-12)

    def test_symmetric_half_weight_gives_ln2(self):
        loss, _, _ = focused_loss_of(0.0, [0.0], w=0.5, beta=0.0)
        assert loss == pytest.approx(math.log(2), abs=1e-15)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            scores = rng.normal(size=(1, 4))
            w = rng.uniform(size=1)
            beta = float(rng.uniform())
            alpha = alpha_batch(w, beta, 3)
            _, grad = focused_nll_batch(scores, alpha)
            fd = fd_gradients(
                lambda: float(focused_nll_batch(scores, alpha)[0][0]), [scores]
            )[0]
            assert max_relative_error(grad, fd) <= 1e-5

    def test_positive_weight_zero_drops_positive_pull(self):
        # w=0, beta=0: the positive's factor is 1, corruption factor 0
        loss, d_pos, d_neg = focused_loss_of(0.3, [0.1, -0.2], w=0.0, beta=0.0)
        assert d_pos < 0.0
        assert np.all(d_neg == 0.0)  # corruptions contribute a constant


class TestFocuseTraining:
    def test_uniform_weights_beta_one_bitwise_equals_softplus_baseline(self):
        g = random_graph(12, 2, 50, seed=3)
        g.weights = np.full(g.n_triples, 0.7)
        base_cfg = TrainConfig(
            kind="distmult", k=4, eta=2, lr=0.05, epochs=4, batch_size=32, seed=11,
            loss="softplus_nll",
        )
        baseline, _ = run_training(g, base_cfg)
        focuse_cfg = TrainConfig(
            kind="distmult", k=4, eta=2, lr=0.05, epochs=4, batch_size=32, seed=11,
            focuse_decay=float("inf"),
        )
        modulated, _ = run_training(g, focuse_cfg)
        assert np.array_equal(baseline.entity_table, modulated.entity_table)
        assert np.array_equal(baseline.relation_table, modulated.relation_table)

    def test_decay_zero_modulates_and_decay_inf_does_not(self):
        # 0.0 is a modulated setting (beta = 0 throughout), not "off": only `None` is off
        g = random_graph(12, 2, 50, seed=3)
        g.weights = np.random.default_rng(6).permutation(g.n_triples) / g.n_triples  # distinct
        base_cfg = TrainConfig(
            kind="distmult", k=4, eta=2, lr=0.05, epochs=4, batch_size=32, seed=11, loss="softplus_nll",
        )
        baseline = run_training(g, base_cfg)[0].table
        at_zero = run_training(g, replace(base_cfg, focuse_decay=0.0))[0].table
        at_inf = run_training(g, replace(base_cfg, focuse_decay=float("inf")))[0].table
        assert not np.array_equal(at_zero, baseline)
        assert np.array_equal(at_inf, baseline)

    def test_focuse_without_weights_aborts(self):
        g = random_graph(12, 2, 30, seed=4)
        cfg = TrainConfig(focuse_decay=5, epochs=1)
        with pytest.raises(ValueError, match="weights"):
            run_training(g, cfg)

    def test_focuse_training_runs_with_decay(self):
        g = random_graph(12, 2, 50, seed=5)
        g.weights = np.random.default_rng(0).uniform(size=g.n_triples)
        cfg = TrainConfig(
            kind="transe-l2", k=4, eta=2, lr=0.05, epochs=6, batch_size=32, seed=2,
            focuse_decay=3,
        )
        model, _ = run_training(g, cfg)
        assert np.isfinite(model.entity_table).all()
