"""Command-line interface: train, distill-train, sample-subgraph, explain,
evaluate, selftest.

Option precedence is CLI flag > config file (`key = value` lines) > built-in
default.  Every file-producing command writes a `<output>.manifest.json`
recording the resolved configuration, the seed actually used, and SHA-256
digests of inputs and outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import sys
from pathlib import Path

import numpy as np

from .distill import train_student
from .evaluation import evaluate
from .explain import ExplainConfig, mc_explain, write_report_tsv
from .focuse import FocusEConfig
from .graph import KnowledgeGraph, Triple, build_filter, graph_from_triples, load_graph, load_split
from .manifest import RunManifest, manifest_path
from .modelio import load_model, save_model
from .models import ModelKind
from .sampling import SubgraphSpec, read_subgraph_tsv, sample_subgraph, write_subgraph_tsv
from .selftest import run_selftest
from .training import TrainConfig, train

_MODEL_CHOICES = [m.value for m in ModelKind]
_LOSS_CHOICES = ["multiclass_nll", "softplus_nll"]


def _parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected `key = value`")
            key, _, value = stripped.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolve(args: argparse.Namespace, spec: dict[str, tuple]) -> dict:
    """Merge CLI > config file > defaults for the given option table."""
    file_cfg = _parse_config_file(args.config) if getattr(args, "config", None) else {}
    resolved = {}
    for key, (caster, default) in spec.items():
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            resolved[key] = cli_value
        elif key in file_cfg:
            raw = file_cfg[key]
            resolved[key] = raw.lower() in ("1", "true", "yes") if caster is bool else caster(raw)
        else:
            resolved[key] = default
    return resolved


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    seed = secrets.randbits(31)
    print(f"no --seed given; drew seed {seed}", file=sys.stderr)
    return seed


def _resolve_threads(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("KGEX_THREADS")
    return int(env) if env else 1


def _parse_target(raw: str, g: KnowledgeGraph) -> Triple:
    parts = raw.split()
    if len(parts) != 3:
        raise ValueError(f'target must be "s p o" (3 whitespace-separated labels), got {raw!r}')
    s_lbl, p_lbl, o_lbl = parts
    for lbl, vocab, what in (
        (s_lbl, g.entity_vocab, "entity"),
        (p_lbl, g.relation_vocab, "relation"),
        (o_lbl, g.entity_vocab, "entity"),
    ):
        if lbl not in vocab:
            raise ValueError(f"unknown {what} label {lbl!r}")
    return (g.entity_vocab.id_of(s_lbl), g.relation_vocab.id_of(p_lbl), g.entity_vocab.id_of(o_lbl))


# options of every training command; keys match the TrainConfig fields
_TRAIN_OPTS = {
    "model": (str, None),  # None: students inherit the teacher's kind
    "k": (int, 50),
    "eta": (int, 2),
    "lr": (float, 0.1),
    "epochs": (int, 200),
    "batch_size": (int, 512),
    "gamma": (float, 0.0),
    "loss": (str, "multiclass_nll"),
}


def _train_config(opts: dict, kind, **extra) -> TrainConfig:
    fields = {key: opts[key] for key in _TRAIN_OPTS if key != "model"}
    return TrainConfig(kind=kind, **fields, **extra)


def _add_student_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--model", choices=_MODEL_CHOICES)
    sub.add_argument("--k", type=int)
    sub.add_argument("--eta", type=int)
    sub.add_argument("--lr", type=float)
    sub.add_argument("--epochs", type=int)
    sub.add_argument("--batch-size", dest="batch_size", type=int)
    sub.add_argument("--gamma", type=float)
    sub.add_argument("--loss", choices=_LOSS_CHOICES)


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int)
    sub.add_argument("--config", help="key = value configuration file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kgex", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("train", help="train an embedding model on a triple TSV")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    _add_student_flags(p)
    p.add_argument("--weights", action="store_true", default=None,
                   help="the graph file has a fourth numeric-weight column")
    p.add_argument("--weight-policy", dest="weight_policy", choices=["strict", "clamp", "minmax"])
    p.add_argument("--focuse", action="store_true", default=None,
                   help="modulate training by the per-triple weights")
    p.add_argument("--focuse-decay", dest="focuse_decay", type=float,
                   help="epochs over which structural influence decays to 0")
    _common_flags(p)

    p = commands.add_parser("distill-train", help="train a student on a subgraph with a frozen teacher")
    p.add_argument("--teacher", required=True)
    p.add_argument("--subgraph", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kd-lambda", dest="kd_lambda", type=float)
    _add_student_flags(p)
    _common_flags(p)

    p = commands.add_parser("sample-subgraph", help="sample an explanation subgraph around a target")
    p.add_argument("--graph", required=True)
    p.add_argument("--target", required=True, help='"s p o" labels')
    p.add_argument("--method", choices=["pn", "rw"])
    p.add_argument("--n", type=int)
    p.add_argument("--out", required=True)
    _common_flags(p)

    p = commands.add_parser("explain", help="rank training triples by contribution to a prediction")
    p.add_argument("--teacher", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--target", required=True, help='"s p o" labels')
    p.add_argument("--method", choices=["pn", "rw"])
    p.add_argument("--n", type=int)
    p.add_argument("--mc-runs", dest="mc_runs", type=int)
    p.add_argument("--partitions", type=int)
    p.add_argument("--kd-lambda", dest="kd_lambda", type=float)
    p.add_argument("--threads", type=int, help="parallel MC runs (KGEX_THREADS fallback)")
    p.add_argument("--out", required=True)
    _add_student_flags(p)
    _common_flags(p)

    p = commands.add_parser("evaluate", help="filtered MR/MRR/Hits@N of a model on a test TSV")
    p.add_argument("--model", required=True, help="model file (vocabulary sidecars required)")
    p.add_argument("--test", required=True)
    p.add_argument("--pool", default="all", help='"all" or "subgraph:<tsv>"')
    p.add_argument("--filter", nargs="*", default=[], help="TSVs of known true triples")
    p.add_argument("--out", help="write metrics JSON here (default: stdout only)")
    _common_flags(p)

    commands.add_parser("selftest", help="run built-in invariant suites")
    return parser


def _cmd_train(args, argv) -> int:
    opts = _resolve(
        args,
        {
            **_TRAIN_OPTS,
            "model": (str, "transe-l2"),
            "weights": (bool, False),
            "weight_policy": (str, "strict"),
            "focuse": (bool, False),
            "focuse_decay": (float, 0.0),
        },
    )
    seed = _resolve_seed(args.seed)
    manifest = RunManifest("train", argv)
    manifest.add_input(args.graph)

    g = load_graph(args.graph, has_weights=opts["weights"], weight_policy=opts["weight_policy"])
    focuse_cfg = FocusEConfig(decay=opts["focuse_decay"]) if opts["focuse"] else None
    cfg = _train_config(opts, opts["model"], seed=seed, focuse=focuse_cfg)
    manifest.set_config(seed=seed, graph=str(args.graph), out=str(args.out), **opts)

    log_path = Path(str(args.out) + ".train.log")
    with open(log_path, "w", encoding="utf-8") as log:
        model = train(g, cfg, progress=lambda e, l: log.write(f"{e}\t{l:.10g}\n"))
    save_model(model, args.out, g.entity_vocab, g.relation_vocab)
    print(
        f"trained {opts['model']} on {g.n_triples} triples "
        f"({g.n_entities} entities, {g.n_relations} relations) -> {args.out}"
    )
    for out in (args.out, log_path):
        manifest.add_output(out)
    manifest.write(manifest_path(args.out))
    return 0


def _cmd_distill_train(args, argv) -> int:
    opts = _resolve(args, {**_TRAIN_OPTS, "kd_lambda": (float, 3.0)})
    seed = _resolve_seed(args.seed)
    manifest = RunManifest("distill-train", argv)
    manifest.add_input(args.teacher)
    manifest.add_input(args.subgraph)

    teacher, ev, rv = load_model(args.teacher)
    if ev is None or rv is None:
        raise ValueError(f"{args.teacher}: vocabulary sidecars are required")
    triples = read_subgraph_tsv(args.subgraph, ev, rv)
    sub_g = graph_from_triples(triples, ev, rv)
    cfg = _train_config(opts, opts["model"] or teacher.kind, seed=seed)
    manifest.set_config(seed=seed, teacher=str(args.teacher), subgraph=str(args.subgraph), **opts)

    student = train_student(teacher, sub_g, cfg, opts["kd_lambda"])
    save_model(student, args.out, ev, rv)
    print(f"distilled student on {sub_g.n_triples} subgraph triples -> {args.out}")
    manifest.add_output(args.out)
    manifest.write(manifest_path(args.out))
    return 0


def _cmd_sample_subgraph(args, argv) -> int:
    opts = _resolve(args, {"method": (str, "pn"), "n": (int, 5)})
    seed = _resolve_seed(args.seed)
    manifest = RunManifest("sample-subgraph", argv)
    manifest.add_input(args.graph)

    g = load_graph(args.graph)
    target = _parse_target(args.target, g)
    sub = sample_subgraph(g, target, SubgraphSpec(opts["method"], opts["n"], seed))
    write_subgraph_tsv(sub, args.out)
    print(f"sampled {len(sub)} triples around {args.target!r} -> {args.out}")
    manifest.set_config(seed=seed, target=args.target, **opts)
    manifest.add_output(args.out)
    manifest.write(manifest_path(args.out))
    return 0


def _cmd_explain(args, argv) -> int:
    opts = _resolve(
        args,
        {
            **_TRAIN_OPTS,
            "method": (str, "pn"),
            "n": (int, 5),
            "mc_runs": (int, 100),
            "partitions": (int, 10),
            "kd_lambda": (float, 3.0),
        },
    )
    seed = _resolve_seed(args.seed)
    threads = _resolve_threads(args.threads)
    manifest = RunManifest("explain", argv)
    manifest.add_input(args.teacher)
    manifest.add_input(args.graph)

    g = load_graph(args.graph)
    teacher, _, _ = load_model(args.teacher)
    if teacher.n_entities != g.n_entities or teacher.n_relations != g.n_relations:
        raise ValueError("teacher tables do not match the graph vocabularies")
    target = _parse_target(args.target, g)
    student = _train_config(opts, opts["model"] or teacher.kind)
    config = ExplainConfig(
        mc_runs=opts["mc_runs"], partitions=opts["partitions"], student=student,
        kd_lambda=opts["kd_lambda"], sampler=SubgraphSpec(opts["method"], opts["n"]),
        seed=seed, threads=threads,
    )
    manifest.set_config(seed=seed, threads=threads, target=args.target, **opts)

    report = mc_explain(teacher, g, target, config)
    write_report_tsv(report, g, args.out)
    print(
        f"explained {args.target!r}: {len(report.entries)} ranked triples, "
        f"{len(report.tail)} never sampled -> {args.out}"
    )
    manifest.add_output(args.out)
    manifest.write(manifest_path(args.out))
    return 0


def _cmd_evaluate(args, argv) -> int:
    manifest = RunManifest("evaluate", argv)
    manifest.add_input(args.model)
    manifest.add_input(args.test)

    model, ev, rv = load_model(args.model)
    if ev is None or rv is None:
        raise ValueError(f"{args.model}: vocabulary sidecars are required")
    test = load_split(args.test, ev, rv)

    if args.pool == "all":
        pool = np.arange(model.n_entities)
    elif args.pool.startswith("subgraph:"):
        sub_path = args.pool.split(":", 1)[1]
        manifest.add_input(sub_path)
        triples = read_subgraph_tsv(sub_path, ev, rv)
        pool = np.unique(np.asarray(triples, dtype=np.int64)[:, [0, 2]])
    else:
        raise ValueError(f'--pool must be "all" or "subgraph:<tsv>", got {args.pool!r}')

    flt = None
    if args.filter:
        graphs = []
        for path in args.filter:
            manifest.add_input(path)
            graphs.append(load_split(path, ev, rv))
        flt = build_filter(*graphs)

    metrics, skipped = evaluate(model, test.triples, pool, flt)
    payload = {**metrics.as_dict(), "skipped": skipped + test.oov_skipped}
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    manifest.set_config(pool=args.pool, filters=list(args.filter))
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        manifest.add_output(args.out)
        manifest.write(manifest_path(args.out))
    return 0


def run_cli(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "train": _cmd_train,
        "distill-train": _cmd_distill_train,
        "sample-subgraph": _cmd_sample_subgraph,
        "explain": _cmd_explain,
        "evaluate": _cmd_evaluate,
        "selftest": lambda a, v: (1 if run_selftest() else 0),
    }
    try:
        return handlers[args.command](args, list(argv))
    except BrokenPipeError:
        return 1
    except Exception as exc:  # surface module errors as clean diagnostics
        print(f"kgex {args.command}: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
