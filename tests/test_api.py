"""The package's public surface: one export per concept, none dangling.

Also pins what the benchmark's outside-in tracer relies on: every attribute
it patches exists where it looks, and calls go through those attributes.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

import kgex
from kgex import evaluation, graph
from kgex.models import init_model

from toygraphs import random_graph

PUBLIC = [
    "EmbeddingModel",
    "ExplainConfig",
    "ExplanationReport",
    "FocusEConfig",
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
    "angle_potentials",
    "beta_schedule",
    "build_filter",
    "evaluate",
    "graph_from_triples",
    "init_model",
    "l2_regularizer",
    "load_graph",
    "load_model",
    "load_split",
    "mc_explain",
    "metrics_from_ranks",
    "rank_triple",
    "sample_pn",
    "sample_rw",
    "sample_subgraph",
    "save_model",
    "train",
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
    model = init_model("distmult", 3, g.n_entities, g.n_relations, seed=2)
    tracer = load_tracer().Tracer()
    with tracer.installed():
        evaluation.evaluate(model, g.triples[:3], np.arange(g.n_entities), graph.build_filter(g))
    names = {span.name for span in tracer.spans}
    assert {"graph.build_filter", "evaluation.evaluate", "evaluation.rank_triple",
            "evaluation.filter_lookup", "models.score_many"} <= names


def test_by_entity_is_a_dict(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("a\tr\tb\nb\tr\tb\n", encoding="utf-8")
    g = graph.load_graph(path)
    assert isinstance(g.by_entity, dict)
    assert {e: v.tolist() for e, v in g.by_entity.items()} == {0: [0], 1: [0, 1]}
