"""Independent oracles the tests check the implementation against."""

from __future__ import annotations

import numpy as np

from kgex.explain import ExplanationEntry
from kgex.focuse import focused_nll_batch
from kgex.losses import softmax_nll_batch
from kgex.models import EmbeddingModel, ModelKind, score_many


def fd_gradients(loss_fn, params: list[np.ndarray], h: float = 1e-6) -> list[np.ndarray]:
    """Central finite differences of loss_fn() w.r.t. each array, in place."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat_p, flat_g = p.ravel(), g.ravel()
        for i in range(flat_p.size):
            original = flat_p[i]
            flat_p[i] = original + h
            up = loss_fn()
            flat_p[i] = original - h
            down = loss_fn()
            flat_p[i] = original
            flat_g[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def max_relative_error(analytic: np.ndarray, fd: np.ndarray) -> float:
    """|a - f| relative to max(1, |a|, |f|), elementwise maximum."""
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(fd)))
    return float(np.max(np.abs(analytic - fd) / denom))


def brute_force_side_rank(
    model: EmbeddingModel,
    t: tuple[int, int, int],
    pool,
    flt,
    replace_subject: bool,
) -> int:
    """Sort-based pessimistic rank: score every candidate, sort, walk ties."""
    s, p, o = t
    positive = score_many(model, *t)
    candidate_scores = []
    for e in map(int, pool):
        if replace_subject:
            if e == s:
                continue
            candidate = (e, p, o)
        else:
            if e == o:
                continue
            candidate = (s, p, e)
        if flt is not None and candidate in flt:
            continue
        candidate_scores.append(score_many(model, *candidate))
    rank = 1
    for value in sorted(candidate_scores, reverse=True):
        if value >= positive:
            rank += 1
        else:
            break
    return rank


class ScalarAdam:
    """Reference single-parameter Adam, kept independent of the package."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = 0.0
        self.v = 0.0
        self.t = 0

    def step(self, theta: float, grad: float) -> float:
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad * grad
        m_hat = self.m / (1 - self.beta1**self.t)
        v_hat = self.v / (1 - self.beta2**self.t)
        return theta - self.lr * m_hat / (v_hat**0.5 + self.eps)


def normalized_difference_dot(a, b, c) -> float:
    """Direct vector-math evaluation of the angle potential."""
    a, b, c = (np.asarray(x, dtype=np.float64) for x in (a, b, c))
    ab = a - b
    bc = b - c
    ab = ab / np.sqrt((ab * ab).sum())
    bc = bc / np.sqrt((bc * bc).sum())
    return float((ab * bc).sum())


def huber(a: float, b: float) -> float:
    """Quadratic within |a-b| <= 1, linear with matched value/slope outside."""
    d = abs(a - b)
    if d <= 1.0:
        return 0.5 * d * d
    return d - 0.5


def stacked_orderings_rkd(teacher_rows, student_rows):
    """Reference angle-matching loss that stacks the three cyclic orderings of
    the points, as `rkd_loss_batch` once did; returns its six outputs."""

    def potentials(x, y, z):
        u, v = x - y, y - z
        nu, nv = np.sqrt((u * u).sum(axis=-1)), np.sqrt((v * v).sum(axis=-1))
        valid = (nu != 0.0) & (nv != 0.0)
        su, sv = np.where(nu == 0.0, 1.0, nu), np.where(nv == 0.0, 1.0, nv)
        uh, vh = u / su[..., None], v / sv[..., None]
        phi = np.where(valid, (uh * vh).sum(axis=-1), 0.0)
        d_u = (vh - phi[..., None] * uh) / su[..., None]
        d_v = (uh - phi[..., None] * vh) / sv[..., None]
        d_u[~valid] = 0.0
        d_v[~valid] = 0.0
        return phi, valid, d_u, -d_u + d_v, -d_v

    def orderings(rows):
        spo = np.array(rows)
        return spo, spo[[1, 2, 0]], spo[[2, 0, 1]]

    phi_t, valid_t, *_ = potentials(*orderings(teacher_rows))
    phi_s, valid_s, g1, g2, g3 = potentials(*orderings(student_rows))
    valid = valid_t & valid_s
    per_triple = (~valid).sum(axis=0)
    diff = phi_s - phi_t
    quad = np.abs(diff) <= 1.0
    term = np.where(valid, np.where(quad, 0.5 * diff * diff, np.abs(diff) - 0.5), 0.0)
    dterm = np.where(valid, np.where(quad, diff, np.sign(diff)), 0.0)[..., None]
    n, d = student_rows[0].shape
    loss, gs, gp, go = np.zeros(n), np.zeros((n, d)), np.zeros((n, d)), np.zeros((n, d))
    for i, (first, second, third) in enumerate(((gs, gp, go), (gp, go, gs), (go, gs, gp))):
        loss += term[i]
        first += dterm[i] * g1[i]
        second += dterm[i] * g2[i]
        third += dterm[i] * g3[i]
    return loss, gs, gp, go, int((~valid).sum()), per_triple


def reference_bilinear_score_grad_rows(kind, k, es, rp, eo):
    """DistMult/ComplEx scores and their (g_es, g_rp, g_eo) gradients, each
    written out in full, as `score_grad_rows` once computed them."""
    if kind is ModelKind.DISTMULT:
        f = (es * eo * rp).sum(axis=-1)
        return f, rp * eo, es * eo, es * rp
    a, b = es[..., :k], es[..., k:]
    c, d = rp[..., :k], rp[..., k:]
    e, f_im = eo[..., :k], eo[..., k:]
    score = (a * e * c - b * e * d + a * f_im * d + b * f_im * c).sum(axis=-1)
    g_es = np.concatenate([c * e + d * f_im, -d * e + c * f_im], axis=-1)
    g_rp = np.concatenate([a * e + b * f_im, -b * e + a * f_im], axis=-1)
    g_eo = np.concatenate([a * c - b * d, a * d + b * c], axis=-1)
    return score, g_es, g_rp, g_eo


def reference_transe_score_grad_rows(kind, es, rp, eo):
    """TransE scores and their (g_es, g_rp, g_eo) gradients, each written out in
    full: the sign (L1) or the unit vector (L2, zero at a zero residual) of the
    residual es + rp - eo for the object, negated for the subject and relation."""
    d = es + rp - eo
    if kind is ModelKind.TRANSE_L1:
        return -np.abs(d).sum(axis=-1), -np.sign(d), -np.sign(d), np.sign(d)
    norm = np.sqrt((d * d).sum(axis=-1))
    unit = np.where(norm[..., None] == 0.0, 0.0, d / np.where(norm == 0.0, 1.0, norm)[..., None])
    return -norm, -unit, -unit, unit


def per_term_scatter(terms, width):
    """Sorted unique ids of `(ids, grads)` terms and their summed gradients, one
    2-D `np.add.at` of whole rows per term, as `_summed_gradients` once did."""
    rows, inverse = np.unique(np.concatenate([ids.ravel() for ids, _ in terms]), return_inverse=True)
    out = np.zeros((len(rows), width))
    start = 0
    for ids, grads in terms:
        stop = start + ids.size
        np.add.at(out, inverse[start:stop], grads.reshape(-1, width))
        start = stop
    return rows, out


def per_negative_batch_gradients(model, batch, negatives, config, alpha=None, teacher=None, kd_lambda=0.0):
    """Reference batch objective that scores every negative as a full triple and
    scatters one weighted gradient row per negative and side, as `run_training`
    once did; the angle term is `stacked_orderings_rkd` of the teacher's rows.
    Returns `(loss, degenerate, [(table, rows, grad) per table])`."""

    kind, k = model.kind, model.k
    if kind in (ModelKind.TRANSE_L1, ModelKind.TRANSE_L2):
        score_grad_rows = lambda es, rp, eo: reference_transe_score_grad_rows(kind, es, rp, eo)
    else:
        score_grad_rows = lambda es, rp, eo: reference_bilinear_score_grad_rows(kind, k, es, rp, eo)
    ent, rel = model.entity_table, model.relation_table
    neg_s, neg_p, neg_o = negatives
    s_ids, p_ids, o_ids = batch[:, 0], batch[:, 1], batch[:, 2]
    pos_f, pos_gs, pos_gp, pos_go = score_grad_rows(ent[s_ids], rel[p_ids], ent[o_ids])
    neg_f, neg_gs, neg_gp, neg_go = score_grad_rows(ent[neg_s], rel[neg_p], ent[neg_o])
    scores = np.concatenate([pos_f[:, None], neg_f], axis=1)
    if alpha is not None:
        loss_rows, dscores = focused_nll_batch(scores, alpha)
    elif config.loss == "softplus_nll":
        loss_rows, dscores = focused_nll_batch(scores, np.ones_like(scores))
    else:
        loss_rows, dscores = softmax_nll_batch(scores)

    scale = 1.0 / len(batch)
    d_pos = dscores[:, 0, None] * scale
    d_neg = dscores[:, 1:, None] * scale
    ent_terms = [(s_ids, d_pos * pos_gs), (o_ids, d_pos * pos_go),
                 (neg_s, d_neg * neg_gs), (neg_o, d_neg * neg_go)]
    rel_terms = [(p_ids, d_pos * pos_gp), (neg_p, d_neg * neg_gp)]
    loss = float(loss_rows.sum()) * scale
    degenerate = 0
    if teacher is not None and kd_lambda > 0.0:
        kd_rows, kd_gs, kd_gp, kd_go, degenerate, _ = stacked_orderings_rkd(
            (teacher.entity_table[s_ids], teacher.relation_table[p_ids], teacher.entity_table[o_ids]),
            (ent[s_ids], rel[p_ids], ent[o_ids]),
        )
        kd_scale = kd_lambda * scale
        ent_terms += [(s_ids, kd_scale * kd_gs), (o_ids, kd_scale * kd_go)]
        rel_terms.append((p_ids, kd_scale * kd_gp))
        loss += kd_scale * float(kd_rows.sum())

    updates = [
        (ent, *per_term_scatter(ent_terms, model.width)),
        (rel, *per_term_scatter(rel_terms, model.width)),
    ]
    if config.gamma > 0.0:
        l2 = []
        for table, rows, grad in updates:
            gathered = table[rows]
            grad += 2.0 * config.gamma * gathered
            l2.append(config.gamma * float((gathered * gathered).sum()))
        loss += l2[0] + l2[1]
    return loss, degenerate, updates


def subgraph_triples(sub) -> set[tuple[int, int, int]]:
    """A subgraph's triples as id tuples, looked up one position at a time."""
    return {sub.source.triple_at(int(pos)) for pos in sub.positions}


def incident_triples(g, *entities) -> set[tuple[int, int, int]]:
    """Linear scan: every triple with one of `entities` as subject or object."""
    return {t for t in map(tuple, g.triples.tolist()) if t[0] in entities or t[2] in entities}


class SetFilter:
    """Reference filter: a set of id tuples plus per-side lookup by scan."""

    def __init__(self, triples) -> None:
        self.triples = {tuple(map(int, t)) for t in triples}

    def __contains__(self, t) -> bool:
        return tuple(map(int, t)) in self.triples

    def __len__(self) -> int:
        return len(self.triples)

    def objects_for(self, s: int, p: int) -> set[int]:
        return {o for (s2, p2, o) in self.triples if (s2, p2) == (s, p)}

    def subjects_for(self, p: int, o: int) -> set[int]:
        return {s for (s, p2, o2) in self.triples if (p2, o2) == (p, o)}


def ingest_loop(rows, entity_labels=None, relation_labels=None):
    """Reference ingest of (s, p, o, weight) label rows, one row at a time.

    Without label lists, labels get ids in first-appearance order; with them,
    rows using an unknown label are skipped as OOV.  Later copies of a triple
    are dropped.  Returns (entity labels, relation labels, id triples,
    kept weights, duplicates dropped, OOV skipped).
    """
    grow = entity_labels is None
    entities = {} if grow else {label: i for i, label in enumerate(entity_labels)}
    relations = {} if grow else {label: i for i, label in enumerate(relation_labels)}
    seen, triples, weights = set(), [], []
    dropped = oov = 0
    for s, p, o, w in rows:
        if grow:
            for label, ids in ((s, entities), (p, relations), (o, entities)):
                ids.setdefault(label, len(ids))
        if s not in entities or p not in relations or o not in entities:
            oov += 1
            continue
        t = (entities[s], relations[p], entities[o])
        if t in seen:
            dropped += 1
            continue
        seen.add(t)
        triples.append(t)
        weights.append(w)
    return list(entities), list(relations), triples, weights, dropped, oov


def dict_loop_aggregate(records, sub):
    """Reference contribution aggregation: one dict update per run position.

    Returns (entries, tail) as `aggregate_contributions` builds them: each
    position's rank sum adds its runs' ranks in record order.
    """
    rank_sum: dict[int, float] = {}
    count: dict[int, int] = {}
    for rec in records:
        for pos in rec.positions:
            pos = int(pos)
            rank_sum[pos] = rank_sum.get(pos, 0.0) + rec.rank
            count[pos] = count.get(pos, 0) + 1
    entries = [
        ExplanationEntry(
            triple=sub.source.triple_at(pos),
            position=pos,
            rank_sum=rank_sum[pos],
            runs_containing=count[pos],
        )
        for pos in sorted(count)
    ]
    entries.sort(key=lambda e: (e.avg_target_rank, -e.runs_containing, e.position))
    tail = [
        (sub.source.triple_at(int(pos)), int(pos))
        for pos in sub.positions
        if int(pos) not in count
    ]
    return entries, tail


def sequential_runs(teacher, g, target, config, records, flt=None):
    """The Monte Carlo runs of `records` one at a time on full-vocabulary
    students, as `mc_explain` ran them before lockstep groups and compact
    tables: `graph_from_triples`, `run_training`, then `rank_triple`.

    Returns the reference `RunRecord`s and the trained students, in record
    order; raises the error of the first run that raises.
    """
    from dataclasses import replace

    from kgex.evaluation import rank_triple
    from kgex.explain import RunRecord
    from kgex.graph import build_filter, graph_from_triples
    from kgex.training import run_training

    flt = build_filter(g) if flt is None else flt
    out, students = [], []
    for rec in records:
        seed = int(np.random.SeedSequence([config.seed, 2, rec.run]).generate_state(1, np.uint64)[0])
        sub_graph = graph_from_triples(g.triples[rec.positions], g.entity_vocab, g.relation_vocab)
        student, stats = run_training(
            sub_graph, replace(config.student, seed=seed, focuse=None), teacher=teacher, kd_lambda=config.kd_lambda
        )
        result = rank_triple(student, target, sub_graph.entities_in_triples(), flt)
        out.append(RunRecord(rec.run, rec.positions, result.mean_rank, result.subject_rank,
                             result.object_rank, stats.degenerate_kd_terms))
        students.append(student)
    return out, students
