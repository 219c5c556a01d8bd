"""Outside-in span tracer for the benchmark's traced run.

The tracer replaces public attributes of kgex modules with wrappers that
record a span per call: name, start, end, parent span and run id.  Nothing
inside ``src/`` changes.  A wrapper has to be installed in every module
namespace the caller reads the name from (``kgex.explain.rank_triple`` as
well as ``kgex.evaluation.rank_triple``), which is what `PATCHES` lists.

Work done by NumPy itself, such as the ``np.add.at`` scatter in
``run_training``, has no kgex boundary and so stays in the self time of the
enclosing kgex span.  Calls made in worker processes (``--threads 2``)
record into the worker's copy of the tracer and are lost: their time shows
as self time of ``explain.mc_explain`` in the parent.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, attribute, span name); "Class.method" attributes patch the class
PATCHES = [
    ("kgex.graph", "load_graph", "graph.load_graph"),
    ("kgex.graph", "load_split", "graph.load_split"),
    ("kgex.graph", "build_filter", "graph.build_filter"),
    ("kgex.explain", "build_filter", "graph.build_filter"),
    ("kgex.graph", "graph_from_triples", "graph.graph_from_triples"),
    ("kgex.explain", "graph_from_triples", "graph.graph_from_triples"),
    ("kgex.graph", "TrueTripleSet.objects_for", "evaluation.filter_lookup"),
    ("kgex.graph", "TrueTripleSet.subjects_for", "evaluation.filter_lookup"),
    ("kgex.modelio", "load_model", "modelio.load_model"),
    ("kgex.training", "run_training", "training.run_training"),
    ("kgex.training", "corrupt_batch", "training.corrupt_batch"),
    ("kgex.training", "score_grad_rows", "models.score_grad_rows"),
    ("kgex.training", "softmax_nll_batch", "losses.softmax_nll_batch"),
    ("kgex.optim", "SparseAdam.apply", "optim.adam_apply"),
    ("kgex.distill", "rkd_loss_batch", "distill.rkd_loss_batch"),
    ("kgex.explain", "train_student", "distill.train_student"),
    ("kgex.explain", "sample_subgraph", "sampling.sample_subgraph"),
    ("kgex.explain", "mc_explain", "explain.mc_explain"),
    ("kgex.explain", "aggregate_contributions", "explain.aggregate_contributions"),
    ("kgex.explain", "rank_triple", "evaluation.rank_triple"),
    ("kgex.evaluation", "rank_triple", "evaluation.rank_triple"),
    ("kgex.evaluation", "evaluate", "evaluation.evaluate"),
    ("kgex.evaluation", "score_many", "models.score_many"),
]


def _count_adam_rows(args, result):
    return {"optim.adam_rows": len(args[2])}


def _count_rkd(args, result):
    return {"distill.rkd_triples": len(args[1][0]), "distill.degenerate_terms": int(result[4])}


def _count_subgraph(args, result):
    return {"sampling.subgraph_triples": len(result)}


# counters read from a call's arguments and return value
COUNTERS = {
    "optim.adam_apply": _count_adam_rows,
    "distill.rkd_loss_batch": _count_rkd,
    "sampling.sample_subgraph": _count_subgraph,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    run: str
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; `run` labels the spans of one operation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = "setup"
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.run)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span.counts = count(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every `PATCHES` entry for the duration of the block."""
        undo = []
        try:
            for module_name, attr, span_name in PATCHES:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                setattr(owner, leaf, self.wrap(span_name, original))
                undo.append((owner, leaf, original))
            yield self
        finally:
            for owner, leaf, original in reversed(undo):
                setattr(owner, leaf, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def dump(self) -> list[dict]:
        selfs = self.self_times()
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "run": s.run,
                "self_s": st,
                **({"counts": s.counts} if s.counts else {}),
            }
            for s, st in zip(self.spans, selfs)
        ]
