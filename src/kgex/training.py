"""Corruption generation and the Adam training loop for embedding models."""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import distill
from .focuse import alpha_batch, beta_schedule, focused_nll_batch
from .graph import KnowledgeGraph
from .losses import l2_regularizer_into, softmax_nll_batch
from .models import EmbeddingModel, ModelKind, bilinear_product, init_model, query_pairs, score_grad_rows
from .optim import SparseAdam, _chunk_rows, _spread, step_helper


class TrainingDivergedError(RuntimeError):
    """Raised when the batch loss or an updated embedding row stops being finite."""


@dataclass
class TrainConfig:
    """Hyperparameters for one training run.

    `eta` is the total number of corruptions per positive (side chosen by a
    uniform coin each).  `pool` optionally restricts corruption entities; by
    default corruptions are drawn from the entities occurring in the training
    triples.  `loss` is `multiclass_nll` (raw scores) or `softplus_nll`
    (scores passed through softplus first).  `focuse_decay`, unless `None`,
    weights training by the graph's weights (FocusE): beta falls from 1 to 0
    over that many epochs: 0 at `0`, 1 at `inf`.  For DistMult and ComplEx, one
    step holds two float64 `(rows, width)` arrays, the sums over eta (with the
    angle term, also the three positive rows, their two queries and their three
    angle-term gradients), and the buffer of touched rows (for gamma > 0, also
    one gather of them for the L2 loss); its `(rows, 1 + eta, width)` candidate
    block, its other `(rows, width)` arrays and the Adam update are held only in
    chunks of at most `optim._CHUNK_ELEMS` elements (`_chunk_rows`): train-fb237
    (10,000 rows, eta 10, width 200) peaks at about 206 MiB resident, tables
    included.  `run_training` shares a step of more than one candidate chunk
    with an `optim.step_helper` thread, which scores the second half of its
    query groups, scatters its relation-row terms and runs the second half of
    its Adam row chunks (`optim._spread`); no byte depends on it.  The steps of
    `mc_explain`'s students take none: its worker processes train whole lockstep
    groups instead.  TransE gathers and differentiates every negative
    row by row, about four float64 arrays of `rows * (1 + eta)` rows.  `rows`
    is `batch_size`, or, for the lockstep students of `mc_explain`, the batch
    rows of a group, whose stacked `(rows, width)` arrays hold about one budget
    (`explain._lockstep_groups`); with the angle term, such a step peaks at
    about 16 budgets of traced heap.  With a teacher, a run also keeps the
    teacher's angles, a float64 and a bool (3, n_triples) array, computed in
    chunks of the one budget's rows (`distill.triple_angles`).
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
    focuse_decay: float | None = None

    def validate(self) -> None:
        if self.k < 1:
            raise ValueError("embedding dimensionality must be >= 1")
        if self.eta < 1:
            raise ValueError("eta must be >= 1")
        if not self.lr > 0:  # inf is legal: the first step's rows fail the finiteness check
            raise ValueError("learning rate must be > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if not 0.0 <= self.gamma < np.inf:
            raise ValueError("gamma must be finite and >= 0")
        if self.loss not in ("multiclass_nll", "softplus_nll"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.focuse_decay is not None and not self.focuse_decay >= 0:  # inf is beta = 1
            raise ValueError("decay must be >= 0")


@dataclass
class TrainStats:
    epoch_losses: list[float] = field(default_factory=list)
    degenerate_kd_terms: int = 0  # angle terms skipped for coincident points, all batches


def corruption_pool(config: TrainConfig, triples: np.ndarray, n_entities: int) -> np.ndarray:
    """The sorted ids of `config.pool`, or else of the entities of `triples`."""
    pool = np.unique(triples[:, [0, 2]]) if config.pool is None else np.unique(np.int64(config.pool))
    if np.any((pool < 0) | (pool >= n_entities)):
        raise ValueError(f"corruption pool ids must lie in [0, {n_entities})")
    return pool


def corrupt_batch(
    triples: np.ndarray, eta: int, pool: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw eta corruptions per positive, vectorized.

    For each negative a fair coin picks the side to replace, then the
    replacement entity is drawn uniformly from `pool`, redrawing while it
    collides with the original entity on that side.  Returns the (n, eta)
    subject/predicate/object id arrays of the negatives; the predicate array
    is a read-only broadcast of the positives' predicates.  Because of the
    redraw, a negative replaced its subject exactly when its subject differs
    from the positive's.
    """
    if len(pool) < 2 or pool.min() == pool.max():
        raise ValueError("corruption pool must contain at least 2 distinct entities")
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
    return neg_s, np.broadcast_to(triples[:, 1:2], (n, eta)), neg_o


def _touched_rows(id_arrays, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """`np.unique` of `id_arrays`, rows of a table of `n_rows`, from a presence mask: the
    sorted distinct ids and each row's position among them (`position[ids]` is the inverse)."""
    touched = np.zeros(n_rows, dtype=bool)
    for ids in id_arrays:
        touched[ids] = True
    return np.flatnonzero(touched), np.cumsum(touched, dtype=np.intp) - 1


def _summed_gradients(entity_terms, relation_terms, n_rows: int, width: int, helper=None):
    """Sum `(ids, grads)` terms over the rows of a table of `n_rows` they touch: the sorted distinct
    ids and their `(len(rows), width)` gradients.  A term's grads are an array, scattered in blocks of
    `optim._chunk_rows(width)` rows, or an iterable of its consecutive blocks, each made as the scatter
    reaches it.  The entity-row and relation-row terms touch disjoint rows; with `helper`, it scatters
    the relation-row terms while this thread scatters the entity-row terms.  A 1-D `np.add.at` into
    the flat buffer adds in index order from 0.0, so each cell sums its grads in term order, as a
    full-table scatter would, whatever thread adds them.  Rows of even width add complex128 pairs,
    each two float64 adds: the index and the element count halve."""
    rows, position = _touched_rows([ids for ids, _ in entity_terms + relation_terms], n_rows)
    summed, step = np.zeros((len(rows), width)), _chunk_rows(width)
    cells, stride = summed.reshape(-1), width
    if width % 2 == 0:
        cells, stride = cells.view(np.complex128), width // 2
    cols = np.arange(stride)

    def scatter(terms):
        for ids, grads in terms:
            if isinstance(grads, np.ndarray):
                flat = grads.reshape(-1, width)
                grads = (flat[lo : lo + step] for lo in range(0, len(flat), step))
            ids, start = ids.reshape(-1), 0
            for block in grads:
                block = np.ascontiguousarray(block).reshape(-1, width).view(cells.dtype)
                index = position[ids[start : start + len(block)], None] * stride + cols
                np.add.at(cells, index.ravel(), block.ravel())
                start += len(block)
                del index, block  # freed before the next block is made

    _spread(scatter, [entity_terms, relation_terms], helper)
    return rows, summed


def _score_batch(model: EmbeddingModel, batch: np.ndarray, negatives, positive_rows, row_loss, helper):
    """Loss rows of a batch and its negatives, and their gradient terms.

    `positive_rows` holds the batch's subject, predicate and object rows, or
    is None: each chunk then gathers its own from the table, which does not
    change before the Adam step.  `row_loss(rows, scores)` takes the
    (len(rows), 1 + eta) scores of a slice of positives, positive in column 0,
    and returns their loss rows and scaled loss gradients.  Returns the (n,)
    loss rows and the entity-row and relation-row `(ids, grads)` terms of
    `_summed_gradients`, relation ids offset by |E|.
    """
    kind, k, n_ent = model.kind, model.k, model.n_entities
    ent, rel = model.entity_table, model.relation_table
    s_ids, p_ids, o_ids = batch.T
    neg_s, neg_p, neg_o = negatives

    def positive(side, rows=slice(None)):  # the subject (0), predicate (1) or object (2) rows of positives `rows`
        if positive_rows is not None:
            return positive_rows[side][rows]
        return np.take(rel if side == 1 else ent, batch[rows, side], axis=0)

    if kind in (ModelKind.TRANSE_L1, ModelKind.TRANSE_L2):
        # a distance is not linear in the replaced row: one gradient row per negative,
        # whose relation row is its positive's, read in place.  The subject and
        # relation gradients of a row are one array, scaled by its loss gradient in place
        pos_p = positive(1)
        pos_f, pos_gsp, _, pos_go = score_grad_rows(kind, k, positive(0), pos_p, positive(2))
        neg_f, neg_gsp, _, neg_go = score_grad_rows(kind, k, ent[neg_s], pos_p[:, None], ent[neg_o])
        loss, d = row_loss(slice(None), np.concatenate([pos_f[:, None], neg_f], axis=1))
        d_pos, d_neg = d[:, 0, None], d[:, 1:, None]
        for grads, d_rows in ((pos_gsp, d_pos), (pos_go, d_pos), (neg_gsp, d_neg), (neg_go, d_neg)):
            grads *= d_rows
        entity_terms = [(s_ids, pos_gsp), (o_ids, pos_go), (neg_s, neg_gsp), (neg_o, neg_go)]
        return loss, entity_terms, [(p_ids + n_ent, pos_gsp), (neg_p + n_ent, neg_gsp)]

    # DistMult and ComplEx are linear in each entity row.  A candidate e scores
    # q_obj . e in the object slot and q_sub . e in the subject slot, where the
    # queries are the positive's own gradients q_obj = es∘rp and q_sub = conj(rp)∘eo.
    # Column 0 holds the positive as its own object-side candidate.
    obj_side = np.ones((len(batch), 1 + neg_s.shape[1]), dtype=bool)
    obj_side[:, 1:] = neg_s == batch[:, :1]  # exact: a drawn subject never equals the positive's
    cand = np.concatenate([o_ids[:, None], np.where(obj_side[:, 1:], neg_o, neg_s)], axis=1)
    # the (n, 1 + eta, width) candidate block is never held: chunks of positives
    # of at most `optim._CHUNK_ELEMS` elements (one positive, if wider) each gather,
    # score and sum their candidates over eta, and make their candidates'
    # gradients again when the scatter reaches them
    n, width = cand.shape[0], model.width
    step = _chunk_rows(cand.shape[1] * width)
    chunks = [slice(lo, lo + step) for lo in range(0, n, step)]
    # a query group, consecutive chunks whose positives' two queries fit one
    # chunk, builds them at once: each small NumPy call hands the GIL over, and
    # per-chunk queries left the step's threads waiting on each other
    per_group = max(1, _chunk_rows(2 * width) // step)
    groups = [chunks[i : i + per_group] for i in range(0, len(chunks), per_group)]
    pair = lambda rows: query_pairs(kind, k, positive(0, rows), positive(1, rows), positive(2, rows))

    # with the positive rows held whole for the angle term, their queries are
    # built whole too, so a step of many chunks builds them once
    held = None if positive_rows is None else pair(slice(None))

    def group_queries(group):  # the candidates' queries of each chunk of `group`, made as read
        lo = group[0].start
        pairs, first = (pair(slice(lo, group[-1].stop)), lo) if held is None else (held, 0)
        for rows in group:
            own = np.arange(rows.start - first, min(rows.stop, n) - first)[:, None]
            yield np.take(pairs, np.where(obj_side[rows], own, own + len(pairs) // 2), axis=0)

    loss, d = np.empty(n), np.empty(cand.shape)
    sum_obj, sum_sub = np.empty((n, width)), np.empty((n, width))

    def score(group):  # fills the group's rows alone
        for rows, q in zip(group, group_queries(group)):
            cand_rows = np.take(ent, cand[rows], axis=0)
            loss[rows], d[rows] = row_loss(rows, np.einsum("ncw,ncw->nc", q, cand_rows))
            # the gradients of the kept rows are linear in the candidates: sum over eta first
            np.einsum("nc,ncw->nw", np.where(obj_side[rows], d[rows], 0.0), cand_rows, out=sum_obj[rows])
            np.einsum("nc,ncw->nw", np.where(obj_side[rows], 0.0, d[rows]), cand_rows, out=sum_sub[rows])

    _spread(score, groups, helper)

    def cand_grads():  # written over each chunk's queries
        for group in groups:
            for rows, q in zip(group, group_queries(group)):
                yield np.multiply(q, d[rows, :, None], out=q)
                del q  # freed before the next block is made

    def by_rows(grads):  # a kept row's gradients, made a row chunk at a time as the scatter reaches them
        size = _chunk_rows(width)
        return (grads(slice(lo, lo + size)) for lo in range(0, n, size))

    g_s = by_rows(lambda rows: bilinear_product(kind, k, positive(1, rows), sum_obj[rows], conj=True))
    g_o = by_rows(lambda rows: bilinear_product(kind, k, sum_sub[rows], positive(1, rows)))
    g_p = by_rows(lambda rows: bilinear_product(kind, k, positive(0, rows), sum_obj[rows], conj=True)
                  + bilinear_product(kind, k, sum_sub[rows], positive(2, rows), conj=True))
    return loss, [(s_ids, g_s), (o_ids, g_o), (cand, cand_grads())], [(p_ids + n_ent, g_p)]


def batch_gradients(
    model: EmbeddingModel, batch: np.ndarray, negatives: tuple[np.ndarray, np.ndarray, np.ndarray],
    config: TrainConfig, alpha: np.ndarray | None = None,
    teacher_angles: tuple[np.ndarray, np.ndarray] | None = None, kd_lambda: float = 0.0,
    sizes: list[int] | None = None, bounds: list[int] | None = None, helper=None,
) -> tuple[list[float], list[int], np.ndarray, np.ndarray]:
    """Objective of one batch and its gradients, summed over the rows it touches.

    The objective is the mean NLL over positives (FocusE-weighted by `alpha` when given), plus
    kd_lambda times the mean angle-matching loss against the frozen teacher's `(phi, valid)` of the
    batch's triples when given, plus gamma times the squared norms of the touched rows.  The batch
    may stack runs on disjoint table rows: run j has `sizes[j]` consecutive triples, and its entity
    and relation rows start at table rows `bounds[j]` and `bounds[len(sizes) + j]` (`bounds[-1]`
    ends the table); by default one run has the whole table.  Returns each run's objective and count
    of degenerate angle terms, the sorted ids of the touched `model.table` rows and their gradients.
    A step of several candidate chunks is shared with `helper`, a `step_helper` executor, if given.
    """
    s_ids, p_ids, o_ids = batch.T
    if len(batch) <= _chunk_rows((1 + negatives[0].shape[1]) * model.width):
        helper = None  # a step of one candidate chunk runs on this thread alone
    sizes, bounds = sizes or [len(batch)], bounds or [0, model.n_entities, len(model.table)]
    runs = [(slice(end - n, end), 1.0 / n) for n, end in zip(sizes, np.cumsum(sizes).tolist())]
    scale = np.repeat([s for _, s in runs], sizes)[:, None]
    # The angle term reads the positive rows whole (without it the scorer gathers them a chunk at
    # a time) and runs before the candidate arrays exist.  Run after them, its many small temporaries
    # land in heap pages that freeing those arrays has just returned to the system, and fault them
    # back in on every batch.
    kd_terms, losses, degenerate, positive_rows = ([], []), [0.0] * len(runs), [0] * len(runs), None
    if teacher_angles is not None and kd_lambda > 0.0:
        positive_rows = (model.entity_table[s_ids], model.relation_table[p_ids], model.entity_table[o_ids])
        kd_rows, gs, gp, go, _, invalid = distill.rkd_loss_batch(teacher_angles, positive_rows)
        kd_scale = kd_lambda * scale
        kd_terms = ([(s_ids, np.multiply(kd_scale, gs, out=gs)), (o_ids, np.multiply(kd_scale, go, out=go))],
                    [(p_ids + model.n_entities, np.multiply(kd_scale, gp, out=gp))])
        del gs, gp, go
        losses = [kd_lambda * s * float(kd_rows[sl].sum()) for sl, s in runs]
        degenerate = np.add.reduceat(invalid, [sl.start for sl, _ in runs]).tolist()

    if alpha is None and config.loss == "softplus_nll":
        alpha = np.ones((len(batch), 1 + negatives[0].shape[1]))

    def row_loss(rows, scores):
        loss, d = softmax_nll_batch(scores) if alpha is None else focused_nll_batch(scores, alpha[rows])
        return loss, d * scale[rows]

    loss_rows, *terms = _score_batch(model, batch, negatives, positive_rows, row_loss, helper)
    losses = [float(loss_rows[sl].sum()) * s + kd for (sl, s), kd in zip(runs, losses)]
    terms = [own + kd for own, kd in zip(terms, kd_terms)]  # entity-row, then relation-row terms
    rows, grad = _summed_gradients(*terms, len(model.table), model.width, helper)
    del positive_rows, terms, kd_terms  # the L2 gather does not stack on them
    if config.gamma > 0.0:
        # each run's L2 loss sums its entity rows and its relation rows apart
        cuts, l2 = np.searchsorted(rows, bounds).tolist(), []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            part = model.table[rows[lo:hi]]
            l2.append(l2_regularizer_into(part, config.gamma, grad[lo:hi]))
        losses = [loss + (l2[j] + l2[len(runs) + j]) for j, loss in enumerate(losses)]
    return losses, degenerate, rows, grad


# a `train_lockstep` run: triples and pool in table ids, generator, row starts, FocusE weights, angles
LockstepRun = namedtuple("LockstepRun", "triples pool rng starts weights angles", defaults=(None, None))


def train_lockstep(
    model: EmbeddingModel, runs: list[LockstepRun], config: TrainConfig, kd_lambda: float = 0.0, progress=None,
    helper=None,
) -> list[TrainStats]:
    """The epoch loop of runs on disjoint rows of one table, in lockstep.

    Each step stacks the next batch of every run that has one (permutation, corruptions, FocusE
    factors, teacher angles) for one `batch_gradients` call and one Adam step.  A run keeps its
    own generator, scale, loss and finiteness checks, so its rows come out as trained alone; all
    runs take their first step together, so the shared Adam step count is each one's.  A
    diverging run stops, with the runs after it: the error raised is the first diverging run's,
    as when the runs train one after another.  `progress(epoch, mean loss)` follows each epoch.
    Steps and Adam updates of several chunks are shared with `helper` when given.
    """
    bs, decay = config.batch_size, config.focuse_decay
    optimizer = SparseAdam(model.table.shape, config.lr)
    stats, per_epoch = [TrainStats() for _ in runs], [-(-len(run.triples) // bs) for run in runs]
    orders, loss_sums, errors, active = [None] * len(runs), [0.0] * len(runs), {}, range(len(runs))
    for step in itertools.count():
        last = min(errors, default=len(runs))  # the runs after a diverged one stop
        active = [j for j in active if j < last and step < config.epochs * per_epoch[j]]
        if not active:
            break
        parts = []
        for j in active:
            run, (epoch, b) = runs[j], divmod(step, per_epoch[j])
            if b == 0:
                orders[j] = run.rng.permutation(len(run.triples))
            idx = orders[j][b * bs : (b + 1) * bs]
            batch = run.triples[idx]
            alpha = None if decay is None else alpha_batch(run.weights[idx], beta_schedule(epoch, decay), config.eta)
            angles = run.angles and tuple(a[:, idx] for a in run.angles)
            parts.append((batch, corrupt_batch(batch, config.eta, run.pool, run.rng), alpha, angles))
        batches, negatives, alphas, angles = zip(*parts)
        sizes = [len(batch) for batch in batches]
        bounds = [runs[j].starts[0] for j in active] + [model.n_entities + runs[j].starts[1] for j in active]
        losses, degenerate, rows, grad = batch_gradients(
            model, np.concatenate(batches), tuple(map(np.concatenate, zip(*negatives))), config,
            None if decay is None else np.concatenate(alphas), angles[0] and tuple(map(np.hstack, zip(*angles))),
            kd_lambda, sizes, bounds + [len(model.table)], helper,
        )
        failed = {j: "loss" for j, loss in zip(active, losses) if not np.isfinite(loss)}
        # only the updated rows can change, and the initial table is finite
        finite = np.isfinite(optimizer.apply(model.table, rows, grad, helper)).all(axis=1)
        del grad  # freed before the next step makes its own
        for seg in np.searchsorted(bounds, rows[~finite], side="right") - 1:
            failed.setdefault(active[seg % len(active)], "embeddings")
        for j, what in failed.items():
            errors[j] = "non-finite {} at epoch {}, batch {}".format(what, *divmod(step, per_epoch[j]))
        for j, loss, size, count in zip(active, losses, sizes, degenerate):
            stats[j].degenerate_kd_terms += count
            loss_sums[j] += loss * size
            if (step + 1) % per_epoch[j] == 0 and j not in errors:
                stats[j].epoch_losses.append(loss_sums[j] / len(runs[j].triples))
                loss_sums[j] = 0.0
                if progress is not None:
                    progress(step // per_epoch[j], stats[j].epoch_losses[-1])
    if errors:
        raise TrainingDivergedError(errors[min(errors)])
    return stats


def run_training(
    g: KnowledgeGraph,
    config: TrainConfig,
    teacher: EmbeddingModel | None = None,
    kd_lambda: float = 0.0,
    progress=None,
) -> tuple[EmbeddingModel, TrainStats]:
    """Train one model on a graph: `train_lockstep` of one run over the full table and a `step_helper`."""
    config.validate()
    distill.check_kd_lambda(kd_lambda)
    if g.n_triples == 0:
        raise ValueError("cannot train on an empty graph")
    kind, pool = ModelKind(config.kind), corruption_pool(config, g.triples, g.n_entities)
    if config.focuse_decay is not None and g.weights is None:
        raise ValueError("weight-modulated training requested but the graph has no weights column")
    if teacher is not None:
        distill.check_teacher(teacher, g)
    init_seq, loop_seq = np.random.SeedSequence(config.seed).spawn(2)
    model = init_model(kind, config.k, g.n_entities, g.n_relations, init_seq)
    # the frozen teacher's angles never change: computed once, each batch reads its columns
    kd = teacher is not None and kd_lambda > 0.0
    angles = distill.triple_angles(teacher, g.triples) if kd else None
    run = LockstepRun(g.triples, pool, np.random.default_rng(loop_seq), (0, 0), g.weights, angles)
    with step_helper() as helper:
        (stats,) = train_lockstep(model, [run], config, kd_lambda, progress, helper)
    return model, stats
