"""Built-in invariant checks, runnable without test infrastructure."""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import distill, evaluation, focuse, losses, models, optim, sampling, training
from .graph import Vocabulary, build_filter, graph_from_triples, one_hop_positions
from .optim import SparseAdam

_DEMO_TRIPLES = [(0, 0, 1), (1, 0, 2), (0, 1, 2), (3, 0, 0), (2, 1, 3)]

# (case, kind, k, entity rows, relation row, subject, object, expected score)
_SPOT_SCORES = [
    ("TransE-L2 3-4-5 norm", "transe-l2", 2, [[0.0, 0.0], [0.0, 0.0]], [3.0, 4.0], 0, 1, -5.0),
    ("DistMult product", "distmult", 2, [[1.0, 2.0], [1.0, 1.0]], [1.0, 1.0], 0, 1, 3.0),
    ("ComplEx conjugation", "complex", 1, [[0.0, 1.0]], [1.0, 0.0], 0, 0, 1.0),
]


def _demo_graph():
    return graph_from_triples(_DEMO_TRIPLES, Vocabulary("ABCD"), Vocabulary(["r1", "r2"]))


def _as_set(triples) -> set:
    return set(map(tuple, np.asarray(triples).tolist()))


def _check_graph_indices() -> str | None:
    g = _demo_graph()
    demo = np.array(_DEMO_TRIPLES)
    for e in range(4):
        from_index = _as_set(g.triples[one_hop_positions(g, e, e)])
        by_scan = _as_set(demo[(demo[:, 0] == e) | (demo[:, 2] == e)])
        if from_index != by_scan:
            return f"entity {e}: index {from_index} != scan {by_scan}"
    for p in range(2):
        if _as_set(g.triples[g.predicate_positions(p)]) != _as_set(demo[demo[:, 1] == p]):
            return f"predicate {p} index mismatch"
    return None


def _check_score_values() -> str | None:
    for case, kind, k, entity_rows, relation_row, s, o, expected in _SPOT_SCORES:
        table = np.array([*entity_rows, relation_row])
        m = models.EmbeddingModel(models.ModelKind(kind), k, table, len(entity_rows))
        if models.score_many(m, s, 0, o) != expected:
            return f"{case} failed"
    return None


def _check_score_gradients_fd() -> str | None:
    rng = np.random.default_rng(7)
    h = 1e-6
    for kind in models.ModelKind:
        k = 4
        width = k * kind.row_width_factor
        rows = rng.normal(size=(3, width))
        _, *grads = models.score_grad_rows(kind, k, *rows)
        # steps[0, j] and steps[1, j] move coordinate j up and down by h
        steps = h * np.array([1.0, -1.0])[:, None, None] * np.eye(width)
        for i, g in enumerate(grads):
            moved = list(rows)
            moved[i] = rows[i] + steps
            up, down = models.score_rows(kind, k, *moved)
            fd = (up - down) / (2 * h)
            bad = np.flatnonzero(np.abs(fd - g) > 1e-4 * (1 + np.abs(fd)))
            if len(bad):
                return f"{kind.value}: fd {fd[bad[0]]} vs analytic {g[bad[0]]}"
    return None


def _check_nll() -> str | None:
    loss, grad = losses.softmax_nll_batch(np.array([[1.0, 1.0]]))
    d_pos, d_neg = grad[0, 0], grad[0, 1:]
    if abs(loss[0] - math.log(2)) > 1e-12:
        return f"equal-score loss {loss[0]} != ln 2"
    if not (-1 < d_pos < 0) or abs(d_pos + 1 - d_neg.sum()) > 1e-12:
        return "softmax gradient structure violated"
    big = losses.softmax_nll_batch(np.array([[1000.0, 0.0, 0.0]]))[0][0]
    if not (0 <= big < 1e-300):
        return f"stabilization failed: {big}"
    return None


def _check_alpha_identity() -> str | None:
    grid = np.array([i / 128.0 for i in range(100)] + [1.0])
    for b in grid:
        alpha = focuse.alpha_batch(grid, float(b), 1)
        broken = alpha[:, 0] + alpha[:, 1] != 1.0 + b
        if broken.any():
            return f"alpha identity broken at w={grid[broken][0]}, beta={b}"
    if focuse.beta_schedule(0, 10.0) != 1.0 or focuse.beta_schedule(10, 10.0) != 0.0:
        return "beta schedule endpoints wrong"
    return None


def _check_angle_invariance() -> str | None:
    rng = np.random.default_rng(11)
    for _ in range(100):
        pts = rng.normal(size=(3, 5))
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        scale = float(rng.uniform(0.1, 10.0))
        shift = rng.normal(size=5)
        before = distill._cyclic_angles(pts)[0]
        after = distill._cyclic_angles(scale * (pts @ q.T) + shift)[0]
        drift = float(np.abs(before - after).max())
        if drift > 1e-10:
            return f"angle potential drifted by {drift}"
    return None


def _check_rkd_zero() -> str | None:
    rng = np.random.default_rng(3)
    rows = tuple(rng.normal(size=(1, 6)) for _ in range(3))
    angles = distill._cyclic_angles(rows)[:2]
    loss = distill.rkd_loss_batch(angles, rows)[0][0]
    if loss != 0.0:
        return f"identical rows give loss {loss}"
    moved = tuple(2.0 * r + 7.5 for r in rows)
    loss2 = distill.rkd_loss_batch(angles, moved)[0][0]
    if abs(loss2) > 1e-12:
        return f"scaled+translated rows give loss {loss2}"
    # a student with s == p leaves only the (p, o, s) term, at potential -1;
    # teacher potentials 1 and -1/2 then hit the linear and quadratic branches
    student = (np.zeros((2, 4)), np.zeros((2, 4)), np.ones((2, 4)))
    teacher_s = -np.array([[1.0, 0.0, 0.0, 0.0], [-1.0, 1.0, 1.0, 1.0]])
    teacher = distill._cyclic_angles((teacher_s, np.eye(4)[[0, 0]], np.zeros((2, 4))))[:2]
    loss, *_, degenerate, per_triple = distill.rkd_loss_batch(teacher, student)
    if loss.tolist() != [1.5, 0.125]:
        return "huber branch values wrong"
    if degenerate != 4 or per_triple.tolist() != [2, 2]:
        return f"degenerate terms {per_triple.tolist()}, {degenerate} in all; want 2 a triple"
    return None


def _check_samplers() -> str | None:
    g = _demo_graph()
    target = (0, 0, 1)
    hood = _as_set(g.triples[one_hop_positions(g, 0, 1)])
    for method in ("pn", "rw"):
        spec = sampling.SubgraphSpec(method, 0, seed=5)
        sub = sampling.sample_subgraph(g, target, spec)
        if _as_set(sub.triple_array()) != hood:
            return f"{method} n=0 is not the 1-hop neighborhood"
        spec = sampling.SubgraphSpec(method, 4, seed=5)
        a = sampling.sample_subgraph(g, target, spec)
        b = sampling.sample_subgraph(g, target, spec)
        if not np.array_equal(a.positions, b.positions):
            return f"{method} not deterministic per seed"
        if not _as_set(a.triple_array()) >= hood:
            return f"{method} lost the 1-hop neighborhood"
    return None


def _check_adam() -> str | None:
    params = np.array([[1.0, -2.0]])
    opt = SparseAdam(params.shape, lr=0.1)
    opt.apply(params, np.array([0]), np.zeros((1, 2)))
    if not np.array_equal(params, [[1.0, -2.0]]) or opt.t != 1:
        return "zero gradient moved parameters"
    opt2 = SparseAdam(params.shape, lr=0.0)
    opt2.apply(params, np.array([0]), np.ones((1, 2)))
    if not np.array_equal(params, [[1.0, -2.0]]):
        return "lr=0 moved parameters"
    return None


def _check_ranking() -> str | None:
    rng = np.random.default_rng(23)
    pool = np.arange(12)
    known = {(int(rng.integers(12)), int(rng.integers(2)), int(rng.integers(12))) for _ in range(20)}
    g = graph_from_triples(sorted(known), Vocabulary(f"e{i}" for i in pool), Vocabulary(["p0", "p1"]))
    s, p, o = t = g.triple_at(0)
    for kind in (models.ModelKind.DISTMULT, models.ModelKind.COMPLEX):
        m = models.init_model(kind, 4, 12, 2, 0)
        res = evaluation.rank_triple(m, t, pool, build_filter(g))
        # brute force: every candidate scoring at least the positive, except
        # the known triples, which include the positive itself
        for side, rank, scores, own, candidates in (
            ("object", res.object_rank, models.score_many(m, s, p, pool), o, [(s, p, e) for e in pool]),
            ("subject", res.subject_rank, models.score_many(m, pool, p, o), s, [(e, p, o) for e in pool]),
        ):
            unknown = np.array([c not in known for c in candidates])
            brute = 1 + int(np.count_nonzero((scores >= scores[own]) & unknown))
            if brute != rank:
                return f"{kind.value} {side} rank {rank} != brute force {brute}"
    metrics = evaluation.metrics_from_ranks([1, 2, 4])
    if abs(metrics.mr - 7 / 3) > 1e-12 or abs(metrics.mrr - 7 / 12) > 1e-12:
        return "metrics arithmetic wrong"
    return None


def _check_corruptions() -> str | None:
    rng = np.random.default_rng(4)
    # a subject-side draw from this pool collides half the time: a missed redraw shows
    negatives = training.corrupt_batch(np.array([[3, 1, 7]]), 30, np.array([3, 9]), rng)
    negatives = np.stack(negatives, axis=-1)[0]
    neg_s, neg_p, neg_o = negatives.T
    # each negative keeps the predicate and replaces exactly one side
    bad = (neg_p != 1) | ((neg_s != 3) == (neg_o != 7))
    if bad.any():
        return f"invalid corruption {tuple(negatives[bad][0].tolist())}"
    return None


def _step_bytes(model, batch, negatives, config, angles=None, helper=None) -> bytes:
    """The bytes of one `batch_gradients` call and of one Adam step on its gradients."""
    losses, degenerate, rows, grad = training.batch_gradients(
        model, batch, negatives, config, None, angles, 2.0, helper=helper
    )
    table, adam = model.table.copy(), SparseAdam(model.table.shape, 0.1)
    updated = adam.apply(table, rows, grad.copy(), helper)
    parts = [losses, degenerate, rows, grad.ravel(), updated.ravel(), adam.m.ravel(), adam.v.ravel()]
    return np.r_[tuple(parts)].tobytes()


def _check_split_step() -> str | None:
    # training's byte identity rests on einsum giving each row the same bits for any row
    # slice, on each thread taking each chunk once and on the threads scattering disjoint rows
    rng = np.random.default_rng(13)
    model = models.init_model(models.ModelKind.COMPLEX, 4, 20, 3, 0)
    batch = np.stack([rng.integers(0, 20, 12), rng.integers(0, 3, 12), rng.integers(0, 20, 12)], axis=1)
    negatives = training.corrupt_batch(batch, 3, np.arange(20), rng)
    angles = distill.triple_angles(models.init_model(models.ModelKind.COMPLEX, 4, 20, 3, 1), batch)
    budget = optim._CHUNK_ELEMS
    try:
        with ThreadPoolExecutor(1, "kgex-step") as helper:
            # adding the L2 loss can round away a last-bit change of the NLL in
            # the batch loss: gamma 0 keeps that change in sight
            for gamma, kd in itertools.product((0.0, 1e-3), (None, angles)):
                config = training.TrainConfig(kind="complex", k=4, eta=3, gamma=gamma)
                steps = []
                # one chunk of 12 positives; one positive or touched row a chunk; 2
                # positives or 8 touched rows a chunk, and the relation rows' terms
                # scattered on the helper (complex pairs)
                for elems, h in ((budget, None), (1, None), (2 * 4 * 8, helper)):
                    optim._CHUNK_ELEMS = elems
                    steps.append(_step_bytes(model, batch, negatives, config, kd, h))
                for split, step in (("1-row chunks", steps[1]), ("a helper thread", steps[2])):
                    if step != steps[0]:
                        term = "off" if kd is None else "on"
                        return f"{split} moved the step's or Adam's bytes (gamma {gamma}, angle term {term})"
    finally:
        optim._CHUNK_ELEMS = budget
    return None


CHECKS = [
    ("graph indices match linear scan", _check_graph_indices),
    ("scoring spot values", _check_score_values),
    ("score gradients vs finite differences", _check_score_gradients_fd),
    ("multiclass NLL values and stabilization", _check_nll),
    ("modulating factor identity and beta schedule", _check_alpha_identity),
    ("angle potential invariance", _check_angle_invariance),
    ("angle-matching loss zero cases", _check_rkd_zero),
    ("sampler contracts", _check_samplers),
    ("adam fixed points", _check_adam),
    ("ranking vs brute force and metrics", _check_ranking),
    ("corruption invariants", _check_corruptions),
    ("training step and Adam invariant to row chunks and threads", _check_split_step),
]


def run_selftest(out=print) -> int:
    """Run all invariant suites; returns the number of failures."""
    failures = 0
    for name, check in CHECKS:
        detail = check()
        if detail is None:
            out(f"PASS  {name}")
        else:
            failures += 1
            out(f"FAIL  {name}: {detail}")
    out(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return failures
