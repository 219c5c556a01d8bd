"""The package's public surface: one export per concept, none dangling.

Also pins what the benchmark's outside-in tracer relies on: every attribute
it patches exists where it looks, and calls go through those attributes.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import kgex
from kgex import evaluation, graph, training
from kgex.models import init_model

from toygraphs import random_graph

PUBLIC = [
    "EmbeddingModel",
    "ExplainConfig",
    "ExplanationReport",
    "KnowledgeGraph",
    "Metrics",
    "ModelKind",
    "RankResult",
    "RunRecord",
    "SparseAdam",
    "Subgraph",
    "SubgraphSpec",
    "TrainConfig",
    "TrueTripleSet",
    "Vocabulary",
    "aggregate_contributions",
    "beta_schedule",
    "build_filter",
    "evaluate",
    "graph_from_triples",
    "init_model",
    "load_graph",
    "load_model",
    "load_split",
    "mc_explain",
    "metrics_from_ranks",
    "rank_triple",
    "run_training",
    "sample_pn",
    "sample_rw",
    "sample_subgraph",
    "save_model",
    "train_student",
]


def test_all_is_pinned():
    assert sorted(kgex.__all__) == PUBLIC


def test_every_export_resolves():
    for name in kgex.__all__:
        assert getattr(kgex, name) is not None, name


def load_tracer():
    """The benchmark's tracer module, loaded by path without running the benchmark."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_resolve():
    for module_name, attr, _ in load_tracer().PATCHES:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert callable(owner.__dict__[leaf]), f"{module_name}.{attr}"


def test_tracer_sees_filtered_ranking():
    g = random_graph(10, 2, 30, seed=1)
    pool = np.arange(g.n_entities)
    distmult = init_model("distmult", 3, g.n_entities, g.n_relations, seed=2)
    transe = init_model("transe-l2", 3, g.n_entities, g.n_relations, seed=2)
    tracer = load_tracer().Tracer()

    def spans(call):
        with tracer.installed():
            call()
        names = {span.name for span in tracer.spans}
        tracer.spans.clear()
        return names

    # evaluate ranks blocks of triples through the batched kernel, not rank_triple
    assert {"graph.build_filter", "evaluation.evaluate", "evaluation.filter_lookup"} <= spans(
        lambda: evaluation.evaluate(distmult, g.triples[:3], pool, graph.build_filter(g))
    )
    assert "evaluation.rank_triple" in spans(
        lambda: evaluation.rank_triple(distmult, g.triple_at(0), pool)
    )
    # TransE keeps elementwise distances through score_many
    assert "models.score_many" in spans(lambda: evaluation.evaluate(transe, g.triples[:3], pool))


def test_tracer_counts_the_sparse_training_step(monkeypatch):
    g = random_graph(12, 3, 40, seed=3)
    teacher = init_model("distmult", 3, g.n_entities, g.n_relations, seed=4)
    config = training.TrainConfig(kind="distmult", k=3, eta=2, epochs=2, batch_size=16, seed=5)
    corrupt_batch = training.corrupt_batch
    corruptions = []

    def recording_corrupt_batch(batch, eta, pool, rng):
        neg = corrupt_batch(batch, eta, pool, rng)
        corruptions.append((batch, neg))
        return neg

    monkeypatch.setattr(training, "corrupt_batch", recording_corrupt_batch)
    tracer = load_tracer().Tracer()
    with tracer.installed():
        training.run_training(g, config, teacher=teacher, kd_lambda=2.0)

    adam = [span.counts["optim.adam_rows"] for span in tracer.spans if span.name == "optim.adam_apply"]
    expected = []
    for batch, (neg_s, neg_p, neg_o) in corruptions:
        entities = np.unique(np.concatenate([batch[:, [0, 2]].ravel(), neg_s.ravel(), neg_o.ravel()]))
        relations = np.unique(np.concatenate([batch[:, 1], neg_p.ravel()]))
        expected.append(len(entities) + len(relations))
    assert len(corruptions) == config.epochs * -(-g.n_triples // config.batch_size)
    assert adam == expected  # one step per batch over the entity and relation rows
    rkd = [span.counts["distill.rkd_triples"] for span in tracer.spans if span.name == "distill.rkd_loss_batch"]
    assert len(rkd) == len(corruptions)
    assert sum(rkd) == config.epochs * g.n_triples


def test_by_entity_is_a_dict(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("a\tr\tb\nb\tr\tb\n", encoding="utf-8")
    g = graph.load_graph(path)
    assert isinstance(g.by_entity, dict)
    assert {e: v.tolist() for e, v in g.by_entity.items()} == {0: [0], 1: [0, 1]}


def test_benchmark_script_imports_resolve():
    """`scripts/reproduce_benchmarks.py` imports the library; `--help` runs those imports."""
    root = Path(__file__).resolve().parent.parent
    pythonpath = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "reproduce_benchmarks.py"), "--help"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    assert "--dataset" in proc.stdout
