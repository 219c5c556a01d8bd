"""Knowledge-graph-embedding engine with weighted training, relational
distillation, and Monte Carlo explanations of individual link predictions."""

from .distill import train_student
from .evaluation import Metrics, RankResult, evaluate, metrics_from_ranks, rank_triple
from .explain import ExplainConfig, ExplanationReport, RunRecord, aggregate_contributions, mc_explain
from .focuse import FocusEConfig, beta_schedule, softplus_score
from .graph import (
    KnowledgeGraph, TrueTripleSet, Vocabulary, build_filter, graph_from_triples, load_graph, load_split,
)
from .modelio import load_model, save_model
from .models import EmbeddingModel, ModelKind, init_model
from .optim import SparseAdam
from .sampling import Subgraph, SubgraphSpec, sample_pn, sample_rw, sample_subgraph
from .training import TrainConfig, run_training

__version__ = "0.1.0"

# the names imported above, by module, except `softplus_score`
__all__ = [
    "train_student",
    "Metrics", "RankResult", "evaluate", "metrics_from_ranks", "rank_triple",
    "ExplainConfig", "ExplanationReport", "RunRecord", "aggregate_contributions", "mc_explain",
    "FocusEConfig", "beta_schedule",
    "KnowledgeGraph", "TrueTripleSet", "Vocabulary", "build_filter", "graph_from_triples",
    "load_graph", "load_split",
    "load_model", "save_model",
    "EmbeddingModel", "ModelKind", "init_model",
    "SparseAdam",
    "Subgraph", "SubgraphSpec", "sample_pn", "sample_rw", "sample_subgraph",
    "TrainConfig", "run_training",
]
