"""Lockstep students on compact tables against the one-run-at-a-time reference."""

import contextlib
import itertools
import math
import re
import sys
import threading
import tracemalloc
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


def traced_explain(monkeypatch, teacher, g, target, config):
    """`mc_explain`, and the trained stack and runs of each lockstep group, in group
    order, whichever thread trained it."""
    groups, trained = {}, threading.local()
    train, run_group = kgex.explain.train_lockstep, kgex.explain._run_group

    def recording_train(model, runs, *args):
        stats = train(model, runs, *args)
        trained.group = (model, runs)
        return stats

    def recording_group(*args):
        records = run_group(*args)
        groups[records[0].run] = trained.group  # trained on this thread
        return records

    monkeypatch.setattr(kgex.explain, "train_lockstep", recording_train)
    monkeypatch.setattr(kgex.explain, "_run_group", recording_group)
    report = mc_explain(teacher, g, target, config)
    return report, [groups[run] for run in sorted(groups)]


def record_bytes(records):
    return [(r.run, r.positions.tobytes(), r.rank.hex(), r.subject_rank, r.object_rank,
             r.degenerate_kd_terms) for r in records]


def compact_rows(g, target, config, positions):
    """The entity and relation ids a run's compact table holds, sorted."""
    sub = g.triples[positions]
    pool = sub[:, [0, 2]].ravel() if config.student.pool is None else config.student.pool
    ents = np.unique(np.r_[sub[:, [0, 2]].ravel(), pool, target[0], target[2]])
    return ents, np.union1d(sub[:, 1], target[1])


def assert_matches_sequential(monkeypatch, g, target, config):
    teacher = init_model(config.student.kind, 4, g.n_entities, g.n_relations, seed=9)
    report, groups = traced_explain(monkeypatch, teacher, g, target, config)
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
def test_lockstep_runs_match_sequential_runs(monkeypatch, graph, kind, kd_lambda):
    report, groups = assert_matches_sequential(monkeypatch, *graph, explain_config(kind, kd_lambda))
    assert len(groups) == 1 and len(groups[0][1]) == 6  # every run in one stack


@pytest.mark.parametrize(
    "kind, student",
    [("complex", {"gamma": 1e-3}), ("distmult", {"batch_size": 4}), ("transe-l2", {"batch_size": 4, "gamma": 1e-3}),
     ("complex", {"pool": np.arange(0, 20, 3)})],
    ids=["gamma", "batches-per-epoch", "batches-and-gamma", "explicit-pool"],
)
def test_lockstep_options_match_sequential_runs(monkeypatch, graph, kind, student):
    config = explain_config(kind, **student)
    report, _ = assert_matches_sequential(monkeypatch, *graph, config)
    if student.get("batch_size") == 4:  # runs take different numbers of Adam steps
        assert len({-(-len(r.positions) // 4) for r in report.records}) > 1


@pytest.mark.parametrize("per_group", [1, 2, 6])
def test_groups_do_not_change_any_run(monkeypatch, graph, per_group):
    g, target = graph
    config = explain_config("complex", batch_size=4)
    # every run stacks 4 rows of width 6 a step, so on one thread the bound holds `per_group` runs
    monkeypatch.setattr(kgex.optim, "_cpus", lambda: 1)
    monkeypatch.setattr(kgex.optim, "_CHUNK_ELEMS", per_group * 4 * 6)
    teacher = init_model("complex", 4, g.n_entities, g.n_relations, seed=9)
    report, groups = traced_explain(monkeypatch, teacher, g, target, config)
    assert [len(runs) for _, runs in groups] == [per_group] * (6 // per_group)
    monkeypatch.setattr(kgex.optim, "_CHUNK_ELEMS", 1 << 30)
    together, _ = traced_explain(monkeypatch, teacher, g, target, config)
    assert record_bytes(report.records) == record_bytes(together.records)


def plans_of(sizes):
    """Plans (run, subset, seed) of runs whose subsets hold `sizes` triples."""
    return [(run, np.arange(size), run) for run, size in enumerate(sizes)]


@pytest.mark.parametrize("threads", [1, 2])
def test_groups_are_the_fewest_that_fit_in_a_multiple_of_the_threads(monkeypatch, threads):
    """A group's step holds its stacked (rows, width) arrays whole, a run's rows
    being its batch, or its subset when smaller: the groups are the fewest whose
    rows fit the budget, at most one a run, in plan order.  Where the candidate
    block of all the rows (1 + eta = 3 floats for each row float) exceeds the
    budget, the count is rounded up to a multiple of the threads that train them."""
    config = TrainConfig(kind="complex", k=5, eta=2, batch_size=8)  # rows of width 10
    plans = plans_of([12, 3, 8, 8, 5, 9, 8])  # 48 rows a step, 480 floats, 1,440 candidate floats
    for budget in [1440, 1439, 480, 479, 240, 239, 100, 10]:
        monkeypatch.setattr(kgex.optim, "_CHUNK_ELEMS", budget)
        fewest = next(count for count in itertools.count(1) if count * budget >= 480)
        rounded = next(count for count in itertools.count(fewest) if count % threads == 0)
        groups = _lockstep_groups(config, plans, threads)
        assert len(groups) == min(fewest if budget >= 1440 else rounded, len(plans))
        assert [run for group in groups for run, _, _ in group] == list(range(len(plans)))


@pytest.mark.parametrize(
    "runs, threads, sizes",
    [(20, 1, [10, 10]), (20, 2, [10, 10]), (100, 1, [13] * 4 + [12] * 4), (100, 2, [13] * 4 + [12] * 4),
     (5, 1, [5]), (5, 2, [3, 2]), (4, 2, [4])],
)
def test_rows_are_split_evenly(monkeypatch, runs, threads, sizes):
    """Runs of explain-fb237's shape (ComplEx k=50, eta 2, 47-triple subsets):
    20 runs fill 1.4 budgets and make 2 groups on one thread and on two, 100
    runs 7.2 budgets and 8 groups, and groups differ by at most one run.  5 runs
    fit one budget, but their candidate block does not: 2 groups on two threads.
    4 runs' candidate block fits: one group, one step of one chunk."""
    monkeypatch.setattr(kgex.optim, "_CHUNK_ELEMS", 1 << 16)
    groups = _lockstep_groups(TrainConfig(kind="complex", k=50), plans_of([47] * runs), threads)
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
    may run on two CPUs: an in-process explanation hands the helper whole
    lockstep groups (here two, of one run each), never a step's chunks."""
    g, target = graph
    monkeypatch.setattr(kgex.optim, "_cpus", lambda: 2)
    monkeypatch.setattr(kgex.optim, "_CHUNK_ELEMS", 2 * 3 * 6)  # 2 positives, or 2 rows, a chunk
    steps, updates = [], []
    step, update = kgex.training.batch_gradients, kgex.optim.SparseAdam.apply

    def recording_step(model, batch, *args):  # args end with `helper`, as `train_lockstep` passes them
        steps.append((len(batch), args[-1]))
        return step(model, batch, *args)

    def recording_update(self, params, rows, grads, helper=None):
        updates.append((len(rows), helper))
        return update(self, params, rows, grads, helper)

    monkeypatch.setattr(kgex.training, "batch_gradients", recording_step)
    monkeypatch.setattr(kgex.optim.SparseAdam, "apply", recording_update)
    teacher = init_model("complex", 4, g.n_entities, g.n_relations, seed=9)
    mc_explain(teacher, g, target, explain_config("complex", mc_runs=2))
    # several chunks: a ComplEx k=4 chunk holds one positive's 3 candidates, or 4 rows
    assert max(rows for rows, _ in steps) > 1 and max(rows for rows, _ in updates) > 4
    assert all(helper is None for _, helper in steps + updates)


def two_runs_a_group(kind):
    """A `_CHUNK_ELEMS` that holds two runs of `explain_config(kind, batch_size=4)`
    a group: every run stacks 4 rows of width 3 (6 for ComplEx) a step."""
    return 2 * 4 * 3 * ModelKind(kind).row_width_factor


@pytest.mark.parametrize("kd_lambda", [0.0, 3.0], ids=["plain", "kd"])
@pytest.mark.parametrize("kind", KINDS)
def test_two_threads_train_the_groups_to_the_same_bytes(monkeypatch, graph, kind, kd_lambda):
    """Four groups of two runs (an even count: the same groups on one thread and
    on two), shared by the calling thread and the step helper, which hand the
    interpreter lock over every microsecond, then on the calling thread alone:
    the same records and compact-table rows, each those of the runs trained one
    by one."""
    g, target = graph
    config = explain_config(kind, kd_lambda, mc_runs=8, batch_size=4)
    monkeypatch.setattr(kgex.optim, "_CHUNK_ELEMS", two_runs_a_group(kind))
    results, interval = [], sys.getswitchinterval()
    for cpus in (2, 1):
        monkeypatch.setattr(kgex.optim, "_cpus", lambda: cpus)
        sys.setswitchinterval(1e-6 if cpus == 2 else interval)
        try:
            report, groups = assert_matches_sequential(monkeypatch, g, target, config)
        finally:
            sys.setswitchinterval(interval)
        assert (report.workers, report.groups, report.group_threads) == (1, 4, cpus)
        results.append((record_bytes(report.records), [model.table.tobytes() for model, _ in groups]))
    assert results[0] == results[1]


@pytest.mark.parametrize("lr", [0.1, math.inf])
def test_no_helper_thread_outlives_mc_explain(monkeypatch, graph, lr):
    """The helper lived through the call and was handed the groups once, and no
    `kgex-step` thread is left once it returns or raises `TrainingDivergedError`
    (`lr` inf)."""
    g, target = graph
    monkeypatch.setattr(kgex.optim, "_CHUNK_ELEMS", two_runs_a_group("distmult"))
    monkeypatch.setattr(kgex.optim, "_cpus", lambda: 2)
    alive, handed, make = [], [], kgex.optim.step_helper

    @contextlib.contextmanager
    def watched():
        with make() as helper:
            submit = helper.submit
            helper.submit = lambda fn: handed.append(fn) or submit(fn)
            try:
                yield helper
            finally:
                alive.append([t.name for t in threading.enumerate() if t.name.startswith("kgex-step")])

    monkeypatch.setattr(kgex.optim, "step_helper", watched)
    teacher = init_model("distmult", 4, g.n_entities, g.n_relations, seed=9)
    with np.errstate(all="ignore"), contextlib.suppress(TrainingDivergedError):
        mc_explain(teacher, g, target, explain_config("distmult", lr=lr, batch_size=4))
        assert lr < math.inf, "an infinite learning rate diverges"
    assert len(alive) == 1 and len(alive[0]) == 1 and len(handed) == 1
    assert not [t for t in threading.enumerate() if t.name.startswith("kgex-step")]


def test_worker_processes_open_no_helper(monkeypatch, graph):
    """With `threads` 2, neither the calling process nor a worker (a fork child,
    which inherits the patches) opens a step helper: two processes run two threads."""
    g, target = graph
    monkeypatch.setattr(kgex.optim, "_CHUNK_ELEMS", two_runs_a_group("distmult"))
    monkeypatch.setattr(kgex.optim, "_cpus", lambda: 2)

    def refused(*args, **kwargs):
        raise AssertionError("a step helper was opened")

    monkeypatch.setattr(kgex.optim, "ThreadPoolExecutor", refused)
    teacher = init_model("distmult", 4, g.n_entities, g.n_relations, seed=9)
    config = replace(explain_config("distmult", batch_size=4), threads=2)
    report = mc_explain(teacher, g, target, config)
    # each worker's 3 runs make a group of 2 and one of 1
    assert (report.workers, report.groups, report.group_threads) == (2, 4, 1)
    with pytest.raises(AssertionError, match="helper was opened"):
        mc_explain(teacher, g, target, replace(config, threads=1))


def test_processes_are_the_chunks_sent(monkeypatch, graph):
    """5 runs asked onto 4 processes make chunks of 2, 2 and 1 runs: 3 processes
    start, the report counts 3 workers and its records and entries are those
    of the runs trained in-process."""
    g, target = graph
    monkeypatch.setattr(kgex.optim, "_cpus", lambda: 4)
    started, pool = [], kgex.explain.ProcessPoolExecutor
    monkeypatch.setattr(kgex.explain, "ProcessPoolExecutor", lambda max_workers: started.append(max_workers)
                        or pool(max_workers=max_workers))
    teacher = init_model("distmult", 4, g.n_entities, g.n_relations, seed=9)
    config = explain_config("distmult", mc_runs=5)
    spread, alone = (mc_explain(teacher, g, target, replace(config, threads=n)) for n in (4, 1))
    assert started == [3] and (spread.workers, alone.workers) == (3, 1)
    assert record_bytes(spread.records) == record_bytes(alone.records)
    entries = lambda report: [(e.position, e.rank_sum.hex(), e.runs_containing) for e in report.entries]
    assert entries(spread) == entries(alone) and spread.tail == alone.tail


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


@pytest.mark.parametrize("split", ["one group", "a group a run, two threads"])
def test_divergence_raises_the_lowest_numbered_runs_error(monkeypatch, graph, split):
    """Run 1 diverges many steps before run 0; one at a time, run 0's error
    comes first, and the lockstep group raises that one.  So does an explanation
    whose runs are groups of their own, shared by this thread and the helper."""
    g, target = graph
    if split != "one group":
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
