"""The package's public surface: one export per concept, none dangling."""

import kgex

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
