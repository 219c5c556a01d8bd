"""Relational distillation: angle potentials, angle matching, student training.

A frozen teacher model constrains a student trained on a subgraph: for every
training triple, the angles formed by its three embedding rows in the student
space are pulled toward the teacher's via a Huber loss, cyclically over the
three orderings.  The potential is invariant to translation, rotation, and
uniform scaling, so teacher and student dimensionalities may differ.
"""

from __future__ import annotations

import numpy as np

from .graph import KnowledgeGraph
from .models import EmbeddingModel


def angle_potentials(x: np.ndarray, y: np.ndarray, z: np.ndarray, with_grads: bool = False):
    """Dot products of the unit-normalized differences (x - y) and (y - z).

    Works row-wise over any leading axes.  Returns (phi, valid) or
    (phi, valid, gx, gy, gz).  Rows where either difference norm is zero
    (coincident points) get phi = 0, valid = False, and zero gradients.
    """
    u = x - y
    v = y - z
    nu = np.sqrt((u * u).sum(axis=-1))
    nv = np.sqrt((v * v).sum(axis=-1))
    valid = (nu != 0.0) & (nv != 0.0)
    su = np.where(nu == 0.0, 1.0, nu)
    sv = np.where(nv == 0.0, 1.0, nv)
    uh = u / su[..., None]
    vh = v / sv[..., None]
    phi = np.where(valid, (uh * vh).sum(axis=-1), 0.0)
    if not with_grads:
        return phi, valid
    d_u = (vh - phi[..., None] * uh) / su[..., None]
    d_v = (uh - phi[..., None] * vh) / sv[..., None]
    d_u[~valid] = 0.0
    d_v[~valid] = 0.0
    return phi, valid, d_u, -d_u + d_v, -d_v


def _cyclic(rows: tuple[np.ndarray, np.ndarray, np.ndarray]):
    """The orderings (s, p, o), (p, o, s), (o, s, p) stacked on a leading axis."""
    spo = np.array(rows)
    return spo, spo[[1, 2, 0]], spo[[2, 0, 1]]


def rkd_loss_batch(
    teacher_rows: tuple[np.ndarray, np.ndarray, np.ndarray],
    student_rows: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Cyclic angle-matching loss per triple with student-row gradients.

    Inputs are the (n, d) subject/predicate/object rows of n triples in the
    teacher and student spaces.  Each of the three cyclic orderings adds a
    Huber term (quadratic within |diff| <= 1, linear with matched value and
    slope outside) on the difference of student and teacher potentials.
    Returns per-triple losses, the gradients w.r.t. the three student rows,
    and the count of degenerate (coincident point) terms that contributed 0.
    """
    phi_t, valid_t = angle_potentials(*_cyclic(teacher_rows))
    phi_s, valid_s, g1, g2, g3 = angle_potentials(*_cyclic(student_rows), with_grads=True)
    valid = valid_t & valid_s
    degenerate = int(valid.size - valid.sum())
    diff = phi_s - phi_t
    quad = np.abs(diff) <= 1.0
    term = np.where(valid, np.where(quad, 0.5 * diff * diff, np.abs(diff) - 0.5), 0.0)
    dterm = np.where(valid, np.where(quad, diff, np.sign(diff)), 0.0)[..., None]
    n, d = student_rows[0].shape
    loss = np.zeros(n)
    gs = np.zeros((n, d))
    gp = np.zeros((n, d))
    go = np.zeros((n, d))
    # ordering i contributes g1/g2/g3 to the rows it visits first/second/third
    for i, (first, second, third) in enumerate(((gs, gp, go), (gp, go, gs), (go, gs, gp))):
        loss += term[i]
        first += dterm[i] * g1[i]
        second += dterm[i] * g2[i]
        third += dterm[i] * g3[i]
    return loss, gs, gp, go, degenerate


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

    if subgraph.n_triples == 0:
        raise ValueError("cannot train a student on an empty subgraph")
    if kd_lambda < 0 or not np.isfinite(kd_lambda):
        raise ValueError("kd_lambda must be finite and >= 0")
    teacher_ref = teacher if kd_lambda > 0 else None
    model, _ = run_training(
        subgraph, config, teacher=teacher_ref, kd_lambda=kd_lambda, progress=progress
    )
    return model
