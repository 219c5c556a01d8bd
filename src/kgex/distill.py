"""Relational distillation: angle potentials, angle matching, student training.

A frozen teacher model constrains a student trained on a subgraph: for every
training triple, the angles formed by its three embedding rows in the student
space are pulled toward the teacher's via a Huber loss, cyclically over the
three orderings, which share the differences s - p, p - o and o - s.  The
potential is invariant to translation, rotation, and uniform scaling, so
teacher and student dimensionalities may differ.
"""

from __future__ import annotations

import numpy as np

from .graph import KnowledgeGraph
from .models import EmbeddingModel
from .optim import _chunk_rows

_NEXT = [1, 2, 0]


def _shifted(op, a, b, out):
    """`out[i] = op(a[i + 1], b[i])` over the three cyclic orderings (i + 1 mod 3),
    made from slices, without the copy that `a[_NEXT]` makes."""
    op(a[1:], b[:2], out=out[:2])
    op(a[0], b[2], out=out[2])
    return out


def _cyclic_angles(rows):
    """(phi, valid, unit, norm) of the cyclic orderings of points (x, y, z).

    Ordering i's potential is the dot product of unit differences i and i + 1
    of [x - y, y - z, z - x], stacked on a leading axis; a zero difference
    (coincident points) gives phi = 0, valid = False, and a norm of 1.  The
    differences are written into one buffer and made unit in place; the
    products of neighbours are made in a second one.
    """
    x, y, z = rows
    unit = np.empty((3,) + np.shape(x))
    np.subtract(x, y, out=unit[0])
    np.subtract(y, z, out=unit[1])
    np.subtract(z, x, out=unit[2])
    work = unit * unit
    norm = np.sqrt(work.sum(axis=-1))
    nonzero = norm != 0.0
    valid = nonzero & nonzero[_NEXT]
    safe = np.where(nonzero, norm, 1.0)
    unit /= safe[..., None]
    phi = np.where(valid, _shifted(np.multiply, unit, unit, work).sum(axis=-1), 0.0)
    return phi, valid, unit, safe


def triple_angles(model: EmbeddingModel, triples: np.ndarray):
    """`(phi, valid)` of `_cyclic_angles` for the rows of each (s, p, o) triple,
    each (3, len(triples)), computed `optim._chunk_rows(3 * width)` triples at a
    time, so that a chunk's gathered rows fit the one budget."""
    chunk = _chunk_rows(3 * model.width)
    parts = [
        _cyclic_angles((model.entity_table[s], model.relation_table[p], model.entity_table[o]))[:2]
        for s, p, o in (triples[i : i + chunk].T for i in range(0, len(triples), chunk))
    ]
    return tuple(np.concatenate(part, axis=1) for part in zip(*parts))


def rkd_loss_batch(
    teacher_angles: tuple[np.ndarray, np.ndarray],
    student_rows: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int, np.ndarray]:
    """Cyclic angle-matching loss per triple with student-row gradients.

    Inputs are the frozen teacher's `(phi, valid)` of `_cyclic_angles`, each
    (3, n), and the (n, d) subject/predicate/object rows of the n triples in
    the student space.  Each of the three cyclic orderings adds a Huber term
    (quadratic within |diff| <= 1, linear with matched value and slope
    outside) on the difference of student and teacher potentials.  Returns
    per-triple losses, the gradients w.r.t. the three student rows, the
    count of degenerate (coincident point) terms that contributed 0, and each
    triple's count of them, an (n,) array.
    """
    phi_t, valid_t = teacher_angles
    phi_s, valid_s, unit, norm = _cyclic_angles(student_rows)
    valid = valid_t & valid_s
    degenerate = 3 - valid.sum(axis=0)
    diff = phi_s - phi_t
    quad = np.abs(diff) <= 1.0
    term = np.where(valid, np.where(quad, 0.5 * diff * diff, np.abs(diff) - 0.5), 0.0)
    dterm = np.where(valid, np.where(quad, diff, np.sign(diff)), 0.0)[..., None]
    # gradients of unit[i] . unit[i + 1] w.r.t. differences i and i + 1, made in
    # place: d_u[i] = (unit[i + 1] - phi[i] unit[i]) / norm[i] and
    # d_v[i] = (unit[i] - phi[i] unit[i + 1]) / norm[i + 1]; `unit` then takes d_v - d_u
    d_u = phi_s[..., None] * unit
    _shifted(np.subtract, unit, d_u, d_u)
    d_u /= norm[..., None]
    d_v = _shifted(np.multiply, unit, phi_s[..., None], np.empty_like(unit))
    np.subtract(unit, d_v, out=d_v)
    d_v /= norm[_NEXT][..., None]
    # ordering i adds dterm[i] times d_u, d_v - d_u and -d_v to the rows it visits
    # first, second and third (s, p, o turned i times), summed in place from +0.0
    # as from zeros; subtracting dterm * d_v adds dterm * -d_v, bit for bit.  Each
    # slot of u, v and w is read by one sum, so the sums are made in them, and end
    # in w: gs in w[2], gp in w[0] and go in w[1]
    u, v, w = d_u, d_v, np.subtract(d_v, d_u, out=unit)
    for part in (u, v, w):
        part *= dterm
    gs = np.add(0.0, u[0], out=u[0])
    gs -= v[1]
    gs = np.add(gs, w[2], out=w[2])
    gp = np.add(0.0, w[0], out=w[0])
    gp += u[1]
    gp -= v[2]
    go = np.subtract(0.0, v[0], out=v[0])
    go = np.add(go, w[1], out=w[1])
    go += u[2]
    return 0.0 + term[0] + term[1] + term[2], gs, gp, go, int(degenerate.sum()), degenerate


def check_kd_lambda(kd_lambda: float) -> None:
    if kd_lambda < 0 or not np.isfinite(kd_lambda):
        raise ValueError("kd_lambda must be finite and >= 0")


def check_teacher(teacher: EmbeddingModel, g: KnowledgeGraph) -> None:
    if teacher.n_entities != g.n_entities or teacher.n_relations != g.n_relations:
        raise ValueError("teacher tables do not match the graph vocabularies")


def train_student(
    teacher: EmbeddingModel,
    subgraph: KnowledgeGraph,
    config,
    kd_lambda: float,
    progress=None,
) -> EmbeddingModel:
    """Train a student on a subgraph, angle-regularized by the frozen teacher.

    The student's tables cover the teacher's full vocabularies but only rows
    touched by subgraph triples are updated.  kd_lambda = 0 skips the teacher
    term entirely and reduces to plain training on the subgraph.
    """
    from .training import run_training  # local import to avoid a cycle

    model, _ = run_training(
        subgraph, config, teacher=teacher, kd_lambda=kd_lambda, progress=progress
    )
    return model
