"""Corruption generation and the Adam training loop for embedding models."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .focuse import FocusEConfig, alpha_batch, focused_nll_batch
from .graph import KnowledgeGraph
from .losses import l2_regularizer, softmax_nll_batch
from .models import EmbeddingModel, ModelKind, init_model, score_grad_rows
from .optim import SparseAdam


class TrainingDivergedError(RuntimeError):
    """Raised when the batch loss or an updated embedding row stops being finite."""


@dataclass
class TrainConfig:
    """Hyperparameters for one training run.

    `eta` is the total number of corruptions per positive (side chosen by a
    uniform coin each).  `pool` optionally restricts corruption entities; by
    default corruptions are drawn from the entities occurring in the training
    triples.  `loss` is `multiclass_nll` (raw scores) or `softplus_nll`
    (scores passed through softplus first).
    """

    kind: ModelKind | str = ModelKind.TRANSE_L2
    k: int = 50
    eta: int = 2
    lr: float = 0.1
    epochs: int = 200
    batch_size: int = 512
    gamma: float = 0.0
    loss: str = "multiclass_nll"
    seed: int = 0
    pool: np.ndarray | None = None
    focuse: FocusEConfig | None = None

    def validate(self) -> None:
        if self.k < 1:
            raise ValueError("embedding dimensionality must be >= 1")
        if self.eta < 1:
            raise ValueError("eta must be >= 1")
        if self.lr <= 0:
            raise ValueError("learning rate must be > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.loss not in ("multiclass_nll", "softplus_nll"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.focuse is not None and self.focuse.decay < 0:
            raise ValueError("decay must be >= 0")


@dataclass
class TrainStats:
    epoch_losses: list[float] = field(default_factory=list)


def corrupt_batch(
    triples: np.ndarray, eta: int, pool: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw eta corruptions per positive, vectorized.

    For each negative a fair coin picks the side to replace, then the
    replacement entity is drawn uniformly from `pool`, redrawing while it
    collides with the original entity on that side.  Returns the (n, eta)
    subject/predicate/object id arrays of the negatives.
    """
    if len(pool) < 2:
        raise ValueError("corruption pool must contain at least 2 entities")
    n = len(triples)
    sides = rng.integers(0, 2, size=(n, eta))  # 0 replaces subject, 1 object
    original = np.where(sides == 0, triples[:, 0:1], triples[:, 2:3])
    replacement = pool[rng.integers(0, len(pool), size=(n, eta))]
    colliding = replacement == original
    while colliding.any():
        replacement[colliding] = pool[rng.integers(0, len(pool), size=int(colliding.sum()))]
        colliding = replacement == original
    neg_s = np.where(sides == 0, replacement, triples[:, 0:1])
    neg_o = np.where(sides == 1, replacement, triples[:, 2:3])
    neg_p = np.broadcast_to(triples[:, 1:2], (n, eta)).copy()
    return neg_s, neg_p, neg_o


def _summed_gradients(terms, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Sum one table's `(ids, weight, grads)` terms over the rows they touch.

    Returns the sorted unique ids and their `(len(rows), width)` gradients;
    each row sums `weight * grads` in term order, as a full-table scatter would.
    """
    rows, inverse = np.unique(
        np.concatenate([ids.ravel() for ids, _, _ in terms]), return_inverse=True
    )
    summed = np.zeros((len(rows), width))
    start = 0
    for ids, weight, grads in terms:
        stop = start + ids.size
        np.add.at(summed, inverse[start:stop], (weight * grads).reshape(-1, width))
        start = stop
    return rows, summed


def run_training(
    g: KnowledgeGraph,
    config: TrainConfig,
    teacher: EmbeddingModel | None = None,
    kd_lambda: float = 0.0,
    progress=None,
) -> tuple[EmbeddingModel, TrainStats]:
    """Epoch loop: corrupt, score, combined loss, sparse Adam step per batch.

    The per-batch objective is mean NLL over positives, plus gamma * squared
    norms of the touched rows, plus kd_lambda times the mean teacher
    angle-matching loss when a teacher is given.  Single-threaded and
    bit-reproducible for a fixed seed.
    """
    from .distill import rkd_loss_batch

    config.validate()
    if g.n_triples == 0:
        raise ValueError("cannot train on an empty graph")
    kind = ModelKind(config.kind)
    pool = g.entities_in_triples() if config.pool is None else np.unique(np.int64(config.pool))

    focuse = config.focuse
    if focuse is not None and g.weights is None:
        raise ValueError(
            "weight-modulated training requested but the graph has no weights column"
        )

    seed_root = np.random.SeedSequence(config.seed)
    init_seq, loop_seq = seed_root.spawn(2)
    model = init_model(kind, config.k, g.n_entities, g.n_relations, init_seq)
    rng = np.random.default_rng(loop_seq)

    ent_opt = SparseAdam(model.entity_table.shape, config.lr)
    rel_opt = SparseAdam(model.relation_table.shape, config.lr)

    triples = g.triples
    n = len(triples)
    stats = TrainStats()

    for epoch in range(config.epochs):
        beta = focuse.beta_at(epoch) if focuse is not None else None
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            batch = triples[batch_idx]
            bs = len(batch)
            neg_s, neg_p, neg_o = corrupt_batch(batch, config.eta, pool, rng)

            s_ids, p_ids, o_ids = batch[:, 0], batch[:, 1], batch[:, 2]
            pos_f, pos_gs, pos_gp, pos_go = score_grad_rows(
                kind, config.k,
                model.entity_table[s_ids],
                model.relation_table[p_ids],
                model.entity_table[o_ids],
            )
            neg_f, neg_gs, neg_gp, neg_go = score_grad_rows(
                kind, config.k,
                model.entity_table[neg_s],
                model.relation_table[neg_p],
                model.entity_table[neg_o],
            )

            scores = np.concatenate([pos_f[:, None], neg_f], axis=1)
            if focuse is not None:
                alpha = alpha_batch(g.weights[batch_idx], beta, config.eta)
                loss_rows, dscores = focused_nll_batch(scores, alpha)
            elif config.loss == "softplus_nll":
                alpha = np.ones_like(scores)
                loss_rows, dscores = focused_nll_batch(scores, alpha)
            else:
                loss_rows, dscores = softmax_nll_batch(scores)

            scale = 1.0 / bs
            d_pos = dscores[:, 0, None] * scale
            d_neg = dscores[:, 1:, None] * scale
            ent_terms = [(s_ids, d_pos, pos_gs), (o_ids, d_pos, pos_go),
                         (neg_s, d_neg, neg_gs), (neg_o, d_neg, neg_go)]
            rel_terms = [(p_ids, d_pos, pos_gp), (neg_p, d_neg, neg_gp)]
            batch_loss = float(loss_rows.sum()) * scale

            if teacher is not None and kd_lambda > 0.0:
                kd_rows, kd_gs, kd_gp, kd_go, _ = rkd_loss_batch(
                    (
                        teacher.entity_table[s_ids],
                        teacher.relation_table[p_ids],
                        teacher.entity_table[o_ids],
                    ),
                    (
                        model.entity_table[s_ids],
                        model.relation_table[p_ids],
                        model.entity_table[o_ids],
                    ),
                )
                kd_scale = kd_lambda * scale
                ent_terms += [(s_ids, kd_scale, kd_gs), (o_ids, kd_scale, kd_go)]
                rel_terms.append((p_ids, kd_scale, kd_gp))
                batch_loss += kd_scale * float(kd_rows.sum())

            updates = [
                (model.entity_table, ent_opt, *_summed_gradients(ent_terms, model.width)),
                (model.relation_table, rel_opt, *_summed_gradients(rel_terms, model.width)),
            ]
            if config.gamma > 0.0:
                l2 = []
                for table, _, rows, grad in updates:
                    l2_loss, l2_grad = l2_regularizer(table[rows], config.gamma)
                    grad += l2_grad
                    l2.append(l2_loss)
                batch_loss += l2[0] + l2[1]

            where = f"epoch {epoch}, batch {start // config.batch_size}"
            if not np.isfinite(batch_loss):
                raise TrainingDivergedError(f"non-finite loss at {where}")
            # only the updated rows can change, and the initial tables are finite
            for table, opt, rows, grad in updates:
                opt.apply(table, rows, grad)
                if not np.isfinite(table[rows]).all():
                    raise TrainingDivergedError(f"non-finite embeddings at {where}")
            loss_sum += batch_loss * bs

        epoch_mean = loss_sum / n
        stats.epoch_losses.append(epoch_mean)
        if progress is not None:
            progress(epoch, epoch_mean)

    return model, stats

