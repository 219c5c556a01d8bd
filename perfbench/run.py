#!/usr/bin/env python3
"""kgex benchmark: layered timings of teacher training, explanation and evaluation.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see ``workloads.py``): ``train-fb237``, ``explain-fb237`` and
``evaluate-fb237`` are listed in ``BENCHMARK.json``; ``explain-wn18rr-par``
runs on request only (see README.md).  Each is one closed-loop caller that
repeats its main library call until ``--seconds`` of calls have been
measured (at least one call, and one pass over a fixed input set).  Inputs are synthetic graphs at
FB15K-237 or WN18RR shape generated from ``--seed`` and cached under
``.perfbench_cache/``; generation happens in a child process and is not
timed.

With ``--trace 0`` the end-to-end metrics are measured with no tracing:

- ``setup_s``: median over three set-ups of what the CLI command body does
  before its main call (loading files, building the filter);
- ``call_s``: median wall time of one main call: one teacher epoch, one
  explained target, or one evaluate call over 10 test triples;
- ``peak_rss_mib``: peak resident memory of this process (worker processes
  of the parallel workload are not included).

With ``--trace 1`` a separate traced pass reports the per-layer metrics,
derived from spans recorded around kgex's public functions (``tracer.py``),
and ``trace.overhead_s``: traced minus untraced time of one set-up plus one
call.  Counters marked "computed" are derived from inputs and return values.

Every output is checked (``workloads.py``); a failed check or a raised
exception counts the call's operations as failed.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--size tiny`` runs the same code on tiny
graphs for the smoke test.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from gen import DONE_MARKER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"
SETUP_REPS = 3
KEEP_DATASETS = 3

END_TO_END = {"setup_s": "s", "call_s": "s", "peak_rss_mib": "MiB"}

# per-layer metric -> unit; layer time metrics are seconds per set-up plus
# seconds per call, counters are per call
PER_LAYER = {
    "graph.load_graph_s": "s",
    "graph.load_split_s": "s",
    "modelio.load_model_s": "s",
    "graph.build_filter_s": "s",
    "graph.graph_from_triples_s": "s",
    "models.score_grad_rows_s": "s",
    "models.rows_scored": "count",
    "training.run_training_self_s": "s",
    "training.corrupt_batch_s": "s",
    "training.batches": "count",
    "training.scatter_rows": "count",
    "losses.softmax_nll_batch_s": "s",
    "optim.adam_apply_s": "s",
    "optim.adam_rows": "count",
    "distill.rkd_loss_batch_s": "s",
    "distill.rkd_triples": "count",
    "distill.degenerate_terms": "count",
    "distill.train_student_s_p50": "s",
    "sampling.sample_subgraph_s": "s",
    "sampling.subgraph_triples": "count",
    "explain.mc_explain_self_s": "s",
    "explain.task_pickle_bytes": "B",
    "explain.aggregate_contributions_s": "s",
    "evaluation.rank_triple_ms_p50": "ms",
    "evaluation.rank_triple_ms_p90": "ms",
    "evaluation.rank_triple_self_s": "s",
    "models.score_many_s": "s",
    "evaluation.filter_lookup_s": "s",
    "evaluation.candidates_scored": "count",
    "trace.overhead_s": "s",
}

SPAN_TOTAL = {
    "graph.load_graph_s": "graph.load_graph",
    "graph.load_split_s": "graph.load_split",
    "modelio.load_model_s": "modelio.load_model",
    "graph.build_filter_s": "graph.build_filter",
    "graph.graph_from_triples_s": "graph.graph_from_triples",
    "models.score_grad_rows_s": "models.score_grad_rows",
    "training.corrupt_batch_s": "training.corrupt_batch",
    "losses.softmax_nll_batch_s": "losses.softmax_nll_batch",
    "optim.adam_apply_s": "optim.adam_apply",
    "distill.rkd_loss_batch_s": "distill.rkd_loss_batch",
    "sampling.sample_subgraph_s": "sampling.sample_subgraph",
    "explain.aggregate_contributions_s": "explain.aggregate_contributions",
    "models.score_many_s": "models.score_many",
    "evaluation.filter_lookup_s": "evaluation.filter_lookup",
}
SPAN_SELF = {
    "training.run_training_self_s": "training.run_training",
    "explain.mc_explain_self_s": "explain.mc_explain",
    "evaluation.rank_triple_self_s": "evaluation.rank_triple",
}
# metric -> (span, percentile, scale)
SPAN_PERCENTILE = {
    "distill.train_student_s_p50": ("distill.train_student", 50, 1.0),
    "evaluation.rank_triple_ms_p50": ("evaluation.rank_triple", 50, 1e3),
    "evaluation.rank_triple_ms_p90": ("evaluation.rank_triple", 90, 1e3),
}
SPAN_COUNTS = ("optim.adam_rows", "distill.rkd_triples", "distill.degenerate_terms", "sampling.subgraph_triples")
COMPUTED = (
    "training.batches", "training.scatter_rows", "models.rows_scored",
    "evaluation.candidates_scored", "explain.task_pickle_bytes", "distill.degenerate_terms",
)


def import_program():
    """Put the checkout's ``src`` first on the path and import kgex from it."""
    if not (SRC / "kgex" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no kgex sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kgex

    if Path(kgex.__file__).resolve().parent != SRC / "kgex":
        raise SystemExit(f"perfbench: imported kgex from {kgex.__file__}, not from {SRC}")


def ensure_data(shape: str, seed: int) -> Path:
    """Generated inputs for (shape, seed), made by a child process on a miss."""
    data_root = CACHE / "data"
    target = data_root / f"{shape}-seed{seed}"
    if not (target / DONE_MARKER).is_file():
        tmp = data_root / f".tmp-{shape}-seed{seed}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.parent.mkdir(parents=True, exist_ok=True)
        subprocess.run(
            [sys.executable, str(HERE / "gen.py"), shape, str(seed), str(tmp)],
            check=True, timeout=600,
        )
        shutil.rmtree(target, ignore_errors=True)
        os.replace(tmp, target)
    os.utime(target)
    kept = sorted(
        (d for d in data_root.iterdir() if d.is_dir() and not d.name.startswith(".")),
        key=lambda d: d.stat().st_mtime, reverse=True,
    )
    for old in kept[KEEP_DATASETS:]:
        shutil.rmtree(old, ignore_errors=True)
    return target


def timed_setups(make, reps: int):
    """Run `reps` fresh set-ups; return the last workload and each duration."""
    times = []
    for _ in range(reps):
        w = None  # free the previous set-up before building the next
        gc.collect()
        w = make()
        t0 = time.perf_counter()
        w.setup()
        times.append(time.perf_counter() - t0)
    return w, times


def timed_calls(w, seconds: float, tracer=None):
    """Closed loop of main calls until `seconds` of calls are measured.

    A workload may ask for a minimum number of calls, such as one pass over
    a fixed input set.
    """
    gc.collect()
    times: list[float] = []
    attempted = failed = 0
    i = 0
    while len(times) < w.min_calls or sum(times) < seconds:
        if tracer is not None:
            tracer.run = f"call-{i}"
        t0 = time.perf_counter()
        try:
            result = w.call(i)
        except Exception:
            traceback.print_exc()
            result = None
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.run = "check"
        n = w.ops_per_call
        attempted += n
        if result is None:
            failed += n
        else:
            try:
                failed += w.check(i, result)
            except Exception:
                traceback.print_exc()
                failed += n
        i += 1
    return times, attempted, failed


def invocation_checks(w) -> tuple[int, int]:
    try:
        return w.check_invocation()
    except Exception:
        traceback.print_exc()
        return 1, 1


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_plain(make, seconds: float):
    w, setups = timed_setups(make, SETUP_REPS)
    w.prepare()
    calls, attempted, failed = timed_calls(w, seconds)
    a, f = invocation_checks(w)
    metrics = {
        "setup_s": statistics.median(setups),
        "call_s": statistics.median(calls),
        "peak_rss_mib": peak_rss_mib(),
    }
    notes = [f"{len(setups)} set-ups, {len(calls)} calls"]
    notes += [f"{name} = {value:.6g} {unit}" for name, value, unit in w.headline(metrics["call_s"])]
    return metrics, attempted + a, failed + f, notes


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer values: seconds per set-up plus per call; counters per call."""
    selfs = tracer.self_times()
    n_calls = len({s.run for s in tracer.spans if s.run.startswith("call-")}) or 1
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    for span, self_s in zip(tracer.spans, selfs):
        if span.run == "setup":
            weight = 1.0
        elif span.run.startswith("call-"):
            weight = 1.0 / n_calls
            durations.setdefault(span.name, []).append(span.duration)
            for key, value in span.counts.items():
                counts[key] = counts.get(key, 0) + value
        else:
            continue
        total[span.name] = total.get(span.name, 0.0) + weight * span.duration
        self_total[span.name] = self_total.get(span.name, 0.0) + weight * self_s
    out = {m: total.get(name, 0.0) for m, name in SPAN_TOTAL.items()}
    out.update({m: self_total.get(name, 0.0) for m, name in SPAN_SELF.items()})
    for m, (name, q, scale) in SPAN_PERCENTILE.items():
        values = durations.get(name)
        out[m] = scale * float(np.percentile(values, q)) if values else 0.0
    out.update({m: counts.get(m, 0) / n_calls for m in SPAN_COUNTS})
    return out


def run_traced(make, seconds: float, workload: str, seed: int):
    from tracer import Tracer

    # untraced reference for the overhead: one set-up and the minimum calls
    w, (setup_plain,) = timed_setups(make, 1)
    w.prepare()
    calls_plain, attempted, failed = timed_calls(w, 0.0)

    tracer = Tracer()
    with tracer.installed():
        w, (setup_traced,) = timed_setups(make, 1)
        tracer.run = "prepare"
        w.prepare()
        calls, a, f = timed_calls(w, seconds, tracer)
    attempted, failed = attempted + a, failed + f
    a, f = invocation_checks(w)
    attempted, failed = attempted + a, failed + f

    metrics = {m: 0 for m in PER_LAYER}
    metrics.update(layer_metrics(tracer))
    metrics.update(w.computed_counters())
    metrics["trace.overhead_s"] = (
        setup_traced + statistics.median(calls) - setup_plain - statistics.median(calls_plain)
    )

    workers = getattr(w, "threads", 1) > 1
    notes = [f"1 traced set-up, {len(calls)} traced calls, {len(tracer.spans)} spans"]
    if workers:
        notes.append("worker-side spans are not collected: Monte Carlo runs execute in worker "
                     "processes, and their time shows as explain.mc_explain self time")
    training_s = sum(
        s.duration for s in tracer.spans if s.name == "training.run_training" and s.run.startswith("call-")
    ) / len(calls)
    if training_s:
        share = (metrics["models.score_grad_rows_s"] + metrics["training.run_training_self_s"]) / training_s
        notes.append(f"score_grad_rows + run_training self time = {share:.1%} of training time")

    trace_dir = CACHE / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_path = trace_dir / f"{workload}.json"
    trace_path.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "worker_spans_collected": not workers,
        "computed": list(COMPUTED),
        "spans": tracer.dump(),
    }), encoding="utf-8")
    notes.append(f"spans written to {trace_path.relative_to(ROOT)}")
    return metrics, attempted, failed, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    args = parser.parse_args(argv)

    import_program()
    from workloads import SIZES, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    size = SIZES[args.size]
    data = ensure_data(cls.shape(size), args.seed)

    def make():
        return cls(size, data, args.seed)

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    print(f"env nproc={os.cpu_count()} python={platform.python_version()} numpy={np.__version__}")
    if args.trace:
        metrics, attempted, failed, notes = run_traced(make, args.seconds, args.workload, args.seed)
        units = PER_LAYER
    else:
        metrics, attempted, failed, notes = run_plain(make, args.seconds)
        units = END_TO_END
    for note in notes:
        print(f"  {note}")
    for name, unit in units.items():
        label = " (computed)" if args.trace and name in COMPUTED else ""
        print(f"{name:36s} {metrics[name]:>16.6f} {unit}{label}")
    print(f"failed_frac {failed / attempted if attempted else 1.0:.6f} ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
