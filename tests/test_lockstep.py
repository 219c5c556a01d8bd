"""Lockstep students on compact tables against the one-run-at-a-time reference."""

import contextlib
import itertools
import math
import multiprocessing
import pickle
import re
import tempfile
import threading
import tracemalloc
from pathlib import Path
from dataclasses import replace

import numpy as np
import pytest

import kgex.optim
import kgex.training
from kgex.distill import triple_angles
from kgex.explain import ExplainConfig, _lockstep_groups, mc_explain
from kgex.models import ModelKind, init_model
from kgex.sampling import SubgraphSpec
from kgex.training import TrainConfig, TrainingDivergedError, batch_gradients, corrupt_batch

from oracles import sequential_runs
from toygraphs import block_graph

KINDS = [kind.value for kind in ModelKind]


@pytest.fixture(scope="module")
def graph():
    g, held_out = block_graph(20, 10, 3, n_train=80, n_test=16, seed=13)
    return g, tuple(map(int, held_out[2]))


def explain_config(kind, kd_lambda=3.0, mc_runs=6, **student):
    student = {"k": 3, "eta": 2, "lr": 0.1, "epochs": 8, "batch_size": 64, "seed": 0, **student}
    return ExplainConfig(
        mc_runs=mc_runs, partitions=3, student=TrainConfig(kind=kind, **student), kd_lambda=kd_lambda,
        sampler=SubgraphSpec("pn", 2), seed=4,
    )


def traced_explain(monkeypatch, tmp_path, teacher, g, target, config):
    """`mc_explain`, and the trained stack and runs of each lockstep group, in group
    order, whichever process trained it: each group is pickled to a file named by
    its first run's seed, also by a worker (a fork child, which inherits the patch)."""
    folder, train = Path(tempfile.mkdtemp(dir=tmp_path)), kgex.explain.train_lockstep

    def recording_train(model, runs, *args):
        stats = train(model, runs, *args)
        (folder / str(runs[0].rng.bit_generator.seed_seq.entropy)).write_bytes(pickle.dumps((model, runs)))
        return stats

    monkeypatch.setattr(kgex.explain, "train_lockstep", recording_train)
    report = mc_explain(teacher, g, target, config)
    seeds = [str(kgex.explain._derive_seed(config.seed, 2, run)) for run in range(config.mc_runs)]
    return report, [pickle.loads((folder / seed).read_bytes()) for seed in seeds if (folder / seed).exists()]


def record_bytes(records):
    return [(r.run, r.positions.tobytes(), r.rank.hex(), r.subject_rank, r.object_rank,
             r.degenerate_kd_terms) for r in records]


def compact_rows(g, target, config, positions):
    """The entity and relation ids a run's compact table holds, sorted."""
    sub = g.triples[positions]
    pool = sub[:, [0, 2]].ravel() if config.student.pool is None else config.student.pool
    ents = np.unique(np.r_[sub[:, [0, 2]].ravel(), pool, target[0], target[2]])
    return ents, np.union1d(sub[:, 1], target[1])


def assert_matches_sequential(monkeypatch, tmp_path, g, target, config):
    teacher = init_model(config.student.kind, 4, g.n_entities, g.n_relations, seed=9)
    report, groups = traced_explain(monkeypatch, tmp_path, teacher, g, target, config)
    reference, students = sequential_runs(teacher, g, target, config, report.records)
    assert record_bytes(report.records) == record_bytes(reference)
    runs = [(model, run) for model, group in groups for run in group]
    assert len(runs) == len(students)
    for rec, (model, run), student in zip(report.records, runs, students, strict=True):
        ents, rels = compact_rows(g, target, config, rec.positions)
        (e0, r0) = run.starts
        assert model.entity_table[e0 : e0 + len(ents)].tobytes() == student.entity_table[ents].tobytes()
        assert model.relation_table[r0 : r0 + len(rels)].tobytes() == student.relation_table[rels].tobytes()
    return report, groups


@pytest.mark.parametrize("kd_lambda", [0.0, 3.0], ids=["plain", "kd"])
@pytest.mark.parametrize("kind", KINDS)
def test_lockstep_runs_match_sequential_runs(monkeypatch, tmp_path, graph, kind, kd_lambda):
    monkeypatch.setattr(kgex.optim, "_cpus", lambda: 1)  # one worker: the calling thread, in one group
    report, groups = assert_matches_sequential(monkeypatch, tmp_path, *graph, explain_config(kind, kd_lambda))
    assert len(groups) == 1 and len(groups[0][1]) == 6  # every run in one stack


@pytest.mark.parametrize(
    "kind, student",
    [("complex", {"gamma": 1e-3}), ("distmult", {"batch_size": 4}), ("transe-l2", {"batch_size": 4, "gamma": 1e-3}),
     ("complex", {"pool": np.arange(0, 20, 3)})],
    ids=["gamma", "batches-per-epoch", "batches-and-gamma", "explicit-pool"],
)
def test_lockstep_options_match_sequential_runs(monkeypatch, tmp_path, graph, kind, student):
    config = explain_config(kind, **student)
    monkeypatch.setattr(kgex.optim, "_cpus", lambda: 1)
    report, _ = assert_matches_sequential(monkeypatch, tmp_path, *graph, config)
    if student.get("batch_size") == 4:  # runs take different numbers of Adam steps
        assert len({-(-len(r.positions) // 4) for r in report.records}) > 1


@pytest.mark.parametrize("per_group", [1, 2, 6])
def test_groups_do_not_change_any_run(monkeypatch, tmp_path, graph, per_group):
    g, target = graph
    config = explain_config("complex", batch_size=4)
    # every run stacks 4 rows of width 6 a step, so for one worker the bound holds `per_group` runs
    monkeypatch.setattr(kgex.optim, "_cpus", lambda: 1)
    monkeypatch.setattr(kgex.optim, "_CHUNK_ELEMS", per_group * 4 * 6)
    teacher = init_model("complex", 4, g.n_entities, g.n_relations, seed=9)
    report, groups = traced_explain(monkeypatch, tmp_path, teacher, g, target, config)
    assert [len(runs) for _, runs in groups] == [per_group] * (6 // per_group)
    monkeypatch.setattr(kgex.optim, "_CHUNK_ELEMS", 1 << 30)
    together, _ = traced_explain(monkeypatch, tmp_path, teacher, g, target, config)
    assert record_bytes(report.records) == record_bytes(together.records)


def plans_of(sizes):
    """Plans (run, subset, seed) of runs whose subsets hold `sizes` triples."""
    return [(run, np.arange(size), run) for run, size in enumerate(sizes)]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_groups_are_the_fewest_that_fit_in_a_multiple_of_the_workers(monkeypatch, workers):
    """A group's step holds its stacked (rows, width) arrays whole, a run's rows
    being its batch, or its subset when smaller: the groups are the fewest whose
    rows fit the budget, rounded up to a multiple of the workers that train
    them, at most one a run, in plan order."""
    config = TrainConfig(kind="complex", k=5, eta=2, batch_size=8)  # rows of width 10
    plans = plans_of([12, 3, 8, 8, 5, 9, 8])  # 48 rows a step, 480 floats
    for budget in [1440, 480, 479, 240, 239, 100, 10]:
        monkeypatch.setattr(kgex.optim, "_CHUNK_ELEMS", budget)
        fewest = next(count for count in itertools.count(1) if count * budget >= 480)
        rounded = next(count for count in itertools.count(fewest) if count % workers == 0)
        groups = _lockstep_groups(config, plans, workers)
        assert len(groups) == min(rounded, len(plans))
        assert [run for group in groups for run, _, _ in group] == list(range(len(plans)))


@pytest.mark.parametrize(
    "runs, workers, sizes",
    [(20, 1, [10, 10]), (20, 2, [10, 10]), (100, 1, [13] * 4 + [12] * 4), (100, 2, [13] * 4 + [12] * 4),
     (5, 1, [5]), (5, 2, [3, 2]), (2, 2, [1, 1]), (1, 1, [1]), (20, 3, [7, 7, 6])],
)
def test_rows_are_split_evenly(monkeypatch, runs, workers, sizes):
    """Runs of explain-fb237's shape (ComplEx k=50, eta 2, 47-triple subsets):
    20 runs fill 1.4 budgets and make 2 groups for one worker and for two, 100
    runs 7.2 budgets and 8 groups, and groups differ by at most one run.  5 runs,
    or 2, fit one budget, and make a group for each of two workers."""
    monkeypatch.setattr(kgex.optim, "_CHUNK_ELEMS", 1 << 16)
    groups = _lockstep_groups(TrainConfig(kind="complex", k=50), plans_of([47] * runs), workers)
    assert [len(group) for group in groups] == sizes


def test_group_step_heap_in_budgets():
    """One step of a lockstep group that fills the budget, with the angle term:
    10 ComplEx k=50 runs of 65 rows (65,000 of the 65,536 floats of
    `optim._CHUNK_ELEMS`), each on 130 entity and 10 relation rows of its own.
    Its traced peak, 16.0 budgets of 512 KiB, is reached in the scatter: the
    positive rows (3 budgets), their angle-term gradients (3), the sums over
    eta (2) and the queries (2), the touched rows' gradient buffer (up to 2.2),
    and two candidate chunks with a scatter index (3).  The angle kernel's own
    peak is lower.  It was 21.0 budgets before the kernel made its buffers in
    place, and 17.0 while the scatter held each index through the making of
    the next block."""
    runs, rows, ents, rels, k = 10, 65, 130, 10, 50
    rng = np.random.default_rng(0)
    model = init_model("complex", k, runs * ents, runs * rels, seed=1)
    teacher = init_model("complex", 20, runs * ents, runs * rels, seed=2)
    parts = []
    for j in range(runs):
        triples = np.stack([rng.integers(0, ents, rows) + j * ents, rng.integers(0, rels, rows) + j * rels,
                            rng.integers(0, ents, rows) + j * ents], axis=1)
        parts.append((triples, corrupt_batch(triples, 2, np.arange(j * ents, (j + 1) * ents), rng)))
    batch = np.concatenate([triples for triples, _ in parts])
    negatives = tuple(map(np.concatenate, zip(*(negs for _, negs in parts))))
    bounds = [j * ents for j in range(runs)] + [runs * ents + j * rels for j in range(runs)] + [len(model.table)]
    angles = triple_angles(teacher, batch)
    config = TrainConfig(kind="complex", k=k, eta=2)
    tracemalloc.start()
    try:
        batch_gradients(model, batch, negatives, config, None, angles, 3.0, [rows] * runs, bounds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    budget = kgex.optim._CHUNK_ELEMS * 8
    assert len(batch) * model.width <= kgex.optim._CHUNK_ELEMS
    assert peak <= 16.5 * budget, f"heap peak {peak / budget:.1f} budgets"


def test_students_train_on_the_calling_thread(monkeypatch, graph):
    """Student steps of many chunks get no step helper, even where the process
    may run on two CPUs: one run takes one worker, the calling thread, which
    trains it with no helper."""
    g, target = graph
    monkeypatch.setattr(kgex.optim, "_cpus", lambda: 2)
    monkeypatch.setattr(kgex.optim, "_CHUNK_ELEMS", 2 * 3 * 6)  # 2 positives, or 2 rows, a chunk
    steps, updates = [], []
    step, update = kgex.training.batch_gradients, kgex.optim.SparseAdam.apply

    def recording_step(model, batch, *args):  # args end with `helper`, as `train_lockstep` passes them
        steps.append((len(batch), args[-1], threading.current_thread()))
        return step(model, batch, *args)

    def recording_update(self, params, rows, grads, helper=None):
        updates.append((len(rows), helper, threading.current_thread()))
        return update(self, params, rows, grads, helper)

    monkeypatch.setattr(kgex.training, "batch_gradients", recording_step)
    monkeypatch.setattr(kgex.optim.SparseAdam, "apply", recording_update)
    teacher = init_model("complex", 4, g.n_entities, g.n_relations, seed=9)
    report = mc_explain(teacher, g, target, explain_config("complex", mc_runs=1))
    assert (report.workers, report.groups) == (1, 1)
    # several chunks: a ComplEx k=4 chunk holds one positive's 3 candidates, or 4 rows
    assert max(rows for rows, _, _ in steps) > 1 and max(rows for rows, _, _ in updates) > 4
    assert all(helper is None and thread is threading.main_thread() for _, helper, thread in steps + updates)


def two_runs_a_group(kind):
    """A `_CHUNK_ELEMS` that holds two runs of `explain_config(kind, batch_size=4)`
    a group: every run stacks 4 rows of width 3 (6 for ComplEx) a step."""
    return 2 * 4 * 3 * ModelKind(kind).row_width_factor


@pytest.mark.parametrize("kd_lambda", [0.0, 3.0], ids=["plain", "kd"])
@pytest.mark.parametrize("kind", KINDS)
def test_processes_train_the_groups_to_the_same_bytes(monkeypatch, tmp_path, graph, kind, kd_lambda):
    """Four groups of two runs (an even count: the same groups for one worker and
    for two), on two worker processes, then on the calling thread alone: the
    same records and trained stacks, each the runs trained one by one."""
    g, target = graph
    config = explain_config(kind, kd_lambda, mc_runs=8, batch_size=4)
    monkeypatch.setattr(kgex.optim, "_CHUNK_ELEMS", two_runs_a_group(kind))
    results = []
    for cpus in (2, 1):
        monkeypatch.setattr(kgex.optim, "_cpus", lambda: cpus)
        report, groups = assert_matches_sequential(monkeypatch, tmp_path, g, target, config)
        assert (report.workers, report.groups) == (cpus, 4)
        results.append((record_bytes(report.records), [model.table.tobytes() for model, _ in groups]))
    assert results[0] == results[1]


@pytest.mark.parametrize("lr", [0.1, math.inf])
def test_no_worker_process_outlives_mc_explain(monkeypatch, graph, lr):
    """Two worker processes trained the groups, and none is left once the call
    returns or raises `TrainingDivergedError` (`lr` inf)."""
    g, target = graph
    monkeypatch.setattr(kgex.optim, "_CHUNK_ELEMS", two_runs_a_group("distmult"))
    monkeypatch.setattr(kgex.optim, "_cpus", lambda: 2)
    started, pool = [], kgex.explain.ProcessPoolExecutor

    def watched(max_workers):
        started.append(max_workers)
        return pool(max_workers=max_workers)

    monkeypatch.setattr(kgex.explain, "ProcessPoolExecutor", watched)
    teacher = init_model("distmult", 4, g.n_entities, g.n_relations, seed=9)
    with np.errstate(all="ignore"), contextlib.suppress(TrainingDivergedError):
        mc_explain(teacher, g, target, explain_config("distmult", lr=lr, batch_size=4))
        assert lr < math.inf, "an infinite learning rate diverges"
    assert started == [2] and multiprocessing.active_children() == []


def test_worker_processes_open_no_helper(monkeypatch, graph):
    """At `threads` 1 and 2 alike, neither the calling process nor a worker (a
    fork child, which inherits the patches) opens a step helper: two processes
    run two threads."""
    g, target = graph
    monkeypatch.setattr(kgex.optim, "_CHUNK_ELEMS", two_runs_a_group("distmult"))
    monkeypatch.setattr(kgex.optim, "_cpus", lambda: 2)

    def refused(*args, **kwargs):
        raise AssertionError("a step helper was opened")

    monkeypatch.setattr(kgex.optim, "ThreadPoolExecutor", refused)
    teacher = init_model("distmult", 4, g.n_entities, g.n_relations, seed=9)
    for threads in (2, 1):
        report = mc_explain(teacher, g, target, replace(explain_config("distmult", batch_size=4), threads=threads))
        # 6 runs of two a group make 3 groups, 4 for two workers: groups of 2, 2, 1 and 1
        assert (report.workers, report.groups) == (2, 4)


def test_processes_train_what_one_thread_trains(monkeypatch, graph):
    """5 runs at `threads` 4 on four CPUs start 4 processes, at `threads` 1 two,
    and on one CPU none; the reports' records and entries are the same."""
    g, target = graph
    started, pool = [], kgex.explain.ProcessPoolExecutor
    monkeypatch.setattr(kgex.explain, "ProcessPoolExecutor", lambda max_workers: started.append(max_workers)
                        or pool(max_workers=max_workers))
    teacher = init_model("distmult", 4, g.n_entities, g.n_relations, seed=9)
    config = explain_config("distmult", mc_runs=5)
    reports = []
    for threads, cpus in [(4, 4), (1, 4), (4, 1)]:
        monkeypatch.setattr(kgex.optim, "_cpus", lambda: cpus)
        reports.append(mc_explain(teacher, g, target, replace(config, threads=threads)))
    assert started == [4, 2] and [report.workers for report in reports] == [4, 2, 1]
    entries = lambda report: [(e.position, e.rank_sum.hex(), e.runs_containing) for e in report.entries]
    for report in reports[:2]:
        assert record_bytes(report.records) == record_bytes(reports[2].records)
        assert entries(report) == entries(reports[2]) and report.tail == reports[2].tail


@pytest.mark.parametrize("kind", KINDS)
def test_compact_init_is_the_sliced_full_draw(kind):
    full = init_model(kind, 5, 40, 7, seed=np.random.SeedSequence(3))
    rows = np.array([0, 3, 4, 5, 17, 39, 40, 43, 46])  # entity rows, then 40 + relation rows
    compact = init_model(kind, 5, 40, 7, seed=np.random.SeedSequence(3), rows=rows)
    assert compact.n_entities == 6 and compact.n_relations == 3
    assert compact.table.tobytes() == full.table[rows].tobytes()
    for bad in ([3, 3], [4, 3], [-1, 2], [0, 47]):
        with pytest.raises(ValueError, match="sorted, distinct rows"):
            init_model(kind, 5, 40, 7, seed=0, rows=np.array(bad))


@pytest.mark.parametrize("split", ["one group", "a group a run, two processes"])
def test_divergence_raises_the_lowest_numbered_runs_error(monkeypatch, graph, split):
    """Run 1 diverges many steps before run 0; one at a time, run 0's error
    comes first, and the lockstep group raises that one.  So does an explanation
    whose runs are groups of their own, shared by two worker processes."""
    g, target = graph
    if split == "one group":
        monkeypatch.setattr(kgex.optim, "_cpus", lambda: 1)
    else:
        monkeypatch.setattr(kgex.optim, "_cpus", lambda: 2)
        monkeypatch.setattr(kgex.optim, "_CHUNK_ELEMS", two_runs_a_group("distmult") // 2)
    teacher = init_model("distmult", 4, g.n_entities, g.n_relations, seed=9)
    plans = mc_explain(teacher, g, target, explain_config("distmult", mc_runs=3, batch_size=4)).records
    # Adam moves each row by about lr a step: near 3e102 the scores overflow
    # after a number of steps that differs from run to run
    config = explain_config("distmult", mc_runs=3, batch_size=4, lr=2.85e102, epochs=30)
    errors = []
    for rec in plans:
        with pytest.raises(TrainingDivergedError) as caught, np.errstate(all="ignore"):
            sequential_runs(teacher, g, target, config, [rec])
        errors.append(str(caught.value))
    epochs = [int(re.search(r"epoch (\d+)", error).group(1)) for error in errors]
    assert epochs[1] < epochs[0]
    with pytest.raises(TrainingDivergedError) as caught, np.errstate(all="ignore"):
        mc_explain(teacher, g, target, config)
    assert str(caught.value) == errors[0]
