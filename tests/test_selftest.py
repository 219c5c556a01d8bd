"""The built-in selftest: each check fails when the kernel it exercises breaks."""

import dataclasses

import numpy as np
import pytest

from kgex import distill, evaluation, focuse, losses, models, optim, sampling, selftest, training
from kgex.graph import KnowledgeGraph

NAMES = [
    "graph indices match linear scan",
    "scoring spot values",
    "score gradients vs finite differences",
    "multiclass NLL values and stabilization",
    "modulating factor identity and beta schedule",
    "angle potential invariance",
    "angle-matching loss zero cases",
    "sampler contracts",
    "adam fixed points",
    "ranking vs brute force and metrics",
    "corruption invariants",
    "training step and Adam invariant to row chunks and threads",
]
SPLIT = NAMES[-1]


def _patch(monkeypatch, owner, attr, make):
    """Replace owner.attr by make(original)."""
    monkeypatch.setattr(owner, attr, make(getattr(owner, attr)))


def _first_scaled(fn):
    def broken(*args, **kwargs):
        first, *rest = fn(*args, **kwargs)
        return (1.01 * first, *rest)

    return broken


def _gradients_scaled(fn):
    def broken(*args):
        score, *grads = fn(*args)
        return (score, *(1.01 * g for g in grads))

    return broken


def _rotation_variant(fn):
    """Adds a term in components 2 and 3 of the unit differences: translations
    and scalings keep it, rotations change it."""

    def broken(rows):
        phi, valid, unit, norm = fn(rows)
        u, v = unit, unit[[1, 2, 0]]
        return phi + 1e-6 * (u[..., 2] * v[..., 3] - u[..., 3] * v[..., 2]), valid, unit, norm

    return broken


def _first_position_dropped(fn):
    def broken(g, target, spec):
        sub = fn(g, target, spec)
        sub.positions = sub.positions[1:]
        return sub

    return broken


def _object_rank_off_by_one(fn):
    def broken(*args, **kwargs):
        res = fn(*args, **kwargs)
        return dataclasses.replace(res, object_rank=res.object_rank + 1)

    return broken


def _both_sides_replaced(fn):
    def broken(triples, eta, pool, rng):
        neg_s, neg_p, neg_o = fn(triples, eta, pool, rng)
        drawn = np.where(neg_s != triples[:, 0:1], neg_s, neg_o)
        return drawn, neg_p, drawn

    return broken


def _no_redraw(fn):
    """Keeps the first draw of every negative, collisions included."""

    def broken(triples, eta, pool, rng):
        n = len(triples)
        sides = rng.integers(0, 2, size=(n, eta))
        replacement = pool[rng.integers(0, len(pool), size=(n, eta))]
        neg_s = np.where(sides == 0, replacement, triples[:, 0:1])
        neg_o = np.where(sides == 1, replacement, triples[:, 2:3])
        return neg_s, np.broadcast_to(triples[:, 1:2], (n, eta)).copy(), neg_o

    return broken


def _conj_imaginary_flipped(fn):
    """Flips the sign of the imaginary half of conj(x)∘y, for ComplEx only."""

    def broken(kind, k, x, y, conj=False, out=None):
        out = fn(kind, k, x, y, conj, out)
        if conj and kind is models.ModelKind.COMPLEX:
            out[..., k:] *= -1.0
        return out

    return broken


def _loss_reads_across_rows(fn):
    """Shifts every loss row by the largest score of the rows scored with it."""

    def broken(scores):
        loss, grad = fn(scores)
        return loss + 1e-9 * scores.max(), grad

    return broken


def _einsum_rounds_single_rows(fn):
    """Rounds a 1-row result up one ulp, as a NumPy build whose reduction
    order depends on the row count might."""

    def broken(subscripts, *operands, **kwargs):
        out = fn(subscripts, *operands, **kwargs)
        return np.nextafter(out, np.inf) if operands[0].shape[0] == 1 else out

    return broken


def _adam_stops_after_one_chunk(fn):
    """Updates only the first chunk of rows, as a chunk loop that returns early might."""

    def broken(self, params, rows, grads, helper=None):
        size = optim._chunk_rows(params.shape[1])
        fn(self, params, rows[:size], grads[:size], helper)
        return grads

    return broken


def _helper_rows_shifted(fn):
    """With a helper, scatters the relation-row terms one touched row off: each
    id at the next touched relation row, the last at the first."""

    def broken(entity_terms, relation_terms, n_rows, width, helper=None):
        if helper is not None:
            touched = np.unique(np.concatenate([ids.ravel() for ids, _ in relation_terms]))
            shifted = lambda ids: touched[(np.searchsorted(touched, ids) + 1) % len(touched)]
            relation_terms = [(shifted(ids), grads) for ids, grads in relation_terms]
        return fn(entity_terms, relation_terms, n_rows, width, helper)

    return broken


def _items_handed_out_twice(fn):
    """With a helper, runs each Adam chunk twice, as a racy work queue might."""

    def broken(work, items, helper):
        if helper is None:
            return fn(work, items, helper)
        return fn(work, [item for item in items for _ in range(2)], helper)[::2]

    return broken


FAULTS = {
    "graph indices match linear scan": (
        KnowledgeGraph, "predicate_positions", lambda fn: lambda g, p: fn(g, p)[:-1]),
    "scoring spot values": (models, "score_many", lambda fn: lambda *a: fn(*a) + 1.0),
    "score gradients vs finite differences": (models, "score_grad_rows", _gradients_scaled),
    "multiclass NLL values and stabilization": (losses, "softmax_nll_batch", _first_scaled),
    "modulating factor identity and beta schedule": (
        focuse, "alpha_batch", lambda fn: lambda *a: 1.01 * fn(*a)),
    "angle potential invariance": (distill, "_cyclic_angles", _rotation_variant),
    "angle-matching loss zero cases": (distill, "rkd_loss_batch", _first_scaled),
    "sampler contracts": (sampling, "sample_subgraph", _first_position_dropped),
    "adam fixed points": (
        optim.SparseAdam, "apply",
        lambda fn: lambda self, params, rows, grads, helper=None: fn(self, params, rows, grads + 1e-3, helper)),
    "ranking vs brute force and metrics": (evaluation, "rank_triple", _object_rank_off_by_one),
    "corruption invariants": (training, "corrupt_batch", _both_sides_replaced),
    SPLIT: (training, "softmax_nll_batch", _loss_reads_across_rows),
}


def test_clean_run_passes_every_check_in_order():
    lines = []
    assert selftest.run_selftest(lines.append) == 0
    assert lines == [f"PASS  {name}" for name in NAMES] + ["12/12 checks passed"]


# one broken kernel per check, plus more for the gradient, corruption and split-step checks;
# a flipped conjugate breaks the gradients and the ComplEx ranking queries built from them
CASES = [pytest.param([name], FAULTS[name], id=name) for name in NAMES] + [
    pytest.param(
        ["score gradients vs finite differences", "ranking vs brute force and metrics"],
        (models, "bilinear_product", _conj_imaginary_flipped),
        id="score gradients with a flipped conjugate",
    ),
    pytest.param(
        ["corruption invariants"], (training, "corrupt_batch", _no_redraw),
        id="corruption invariants without redraw",
    ),
    pytest.param([SPLIT], (np, "einsum", _einsum_rounds_single_rows), id="chunking with a row-count-dependent einsum"),
    pytest.param(
        [SPLIT], (optim.SparseAdam, "apply", _adam_stops_after_one_chunk),
        id="chunking with an Adam step that stops after one chunk",
    ),
    pytest.param(
        [SPLIT], (training, "_summed_gradients", _helper_rows_shifted),
        id="the helper's relation rows scattered one touched row off",
    ),
    pytest.param([SPLIT], (optim, "_spread", _items_handed_out_twice), id="threads handed a chunk twice"),
]


@pytest.mark.parametrize("names, fault", CASES)
def test_fault_fails_exactly_its_check(names, fault, monkeypatch):
    _patch(monkeypatch, *fault)
    lines = []
    assert selftest.run_selftest(lines.append) != 0
    assert [line.split(":")[0] for line in lines if line.startswith("FAIL")] == [f"FAIL  {n}" for n in names]
    assert lines[-1] == f"{len(NAMES) - len(names)}/{len(NAMES)} checks passed"
