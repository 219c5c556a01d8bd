"""Command-line interface: train, distill-train, sample-subgraph, explain,
evaluate, selftest.

Options resolve as CLI flag > config file (`key = value` lines) > built-in
default, `seed` and `threads` included; a config-file key that no command
takes is an error.  Without a seed one is drawn and printed; threads fall back
to `KGEX_THREADS`, then 1.  `evaluate` takes no `--seed` or `--config`.  Every
file-producing command writes a `<output>.manifest.json` recording the
resolved configuration, the seed actually used, and SHA-256 digests of inputs
(the config file included) and outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import sys
from pathlib import Path

import numpy as np

from .distill import check_kd_lambda
from .evaluation import evaluate
from .explain import ExplainConfig, mc_explain, write_report_tsv
from .graph import (
    KnowledgeGraph, Triple, build_filter, graph_from_triples, load_graph, load_split,
    triple_of_labels,
)
from .manifest import RunManifest, manifest_path
from .modelio import entity_sidecar, load_model, relation_sidecar, save_model
from .models import ModelKind
from .sampling import SubgraphSpec, read_subgraph_tsv, sample_subgraph, write_subgraph_tsv
from .selftest import run_selftest
from .training import TrainConfig, run_training


def _resolve_seed() -> int:
    seed = secrets.randbits(31)
    print(f"no --seed given; drew seed {seed}", file=sys.stderr)
    return seed


def _resolve_threads() -> int:
    raw = os.environ.get("KGEX_THREADS") or "1"
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"KGEX_THREADS must be an integer, got {raw!r}") from None


# Every option, declared once: key -> (type, default, choices, help).  The flag
# is `--key` with `-` for `_`; a config file sets it as `key = value`.  A
# callable default is called only when neither the flag nor the file sets it.
_OPTIONS = {
    "model": (str, None, [m.value for m in ModelKind], None),  # None: teacher's, or transe-l2
    "k": (int, 50, None, None),
    "eta": (int, 2, None, None),
    "lr": (float, 0.1, None, None),
    "epochs": (int, 200, None, None),
    "batch_size": (int, 512, None, None),
    "gamma": (float, 0.0, None, None),
    "loss": (str, "multiclass_nll", ["multiclass_nll", "softplus_nll"], None),
    "weights": (bool, False, None, "the graph file has a fourth numeric-weight column"),
    "weight_policy": (str, "strict", ["strict", "clamp", "minmax"], None),
    "focuse": (bool, False, None, "modulate training by the per-triple weights"),
    "focuse_decay": (float, 0.0, None, "epochs over which structural influence decays to 0"),
    "method": (str, "pn", ["pn", "rw"], None),
    "n": (int, 5, None, None),
    "mc_runs": (int, 100, None, None),
    "partitions": (int, 10, None, None),
    "kd_lambda": (float, 3.0, None, None),
    "threads": (int, _resolve_threads, None,
                "most worker processes for MC runs, 2 at 1, capped by runs and CPUs (KGEX_THREADS fallback)"),
    "seed": (int, _resolve_seed, None, None),
}

# the TrainConfig fields, with `model` standing for `kind`
_TRAIN_FIELDS = ("model", "k", "eta", "lr", "epochs", "batch_size", "gamma", "loss")


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_config_file(path: str) -> dict:
    """The file's options, each cast by its `_OPTIONS` type and checked against its choices."""
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected `key = value`")
            key, _, raw = stripped.partition("=")
            key, raw = key.strip().replace("-", "_"), raw.strip()
            if key not in _OPTIONS:
                raise ValueError(f"{path}:{lineno}: unknown option {key!r}")
            caster, _, choices, _ = _OPTIONS[key]
            try:
                values[key] = _BOOLEANS[raw.lower()] if caster is bool else caster(raw)
                if choices is not None and values[key] not in choices:
                    raise ValueError(raw)
            except (KeyError, ValueError):
                raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {raw!r}") from None
    return values


def _resolve(args: argparse.Namespace) -> dict:
    """The command's options: CLI flag > config file > default."""
    file_cfg = _parse_config_file(args.config) if getattr(args, "config", None) else {}
    resolved = {}
    for key in _COMMANDS[args.command][2] if args.command in _COMMANDS else ():
        default = _OPTIONS[key][1]
        value = getattr(args, key)
        if value is None and key in file_cfg:
            value = file_cfg[key]
        elif value is None:
            value = default() if callable(default) else default
        resolved[key] = value
    return resolved


def _add_options(p: argparse.ArgumentParser, keys) -> None:
    for key in keys:
        caster, _, choices, help_text = _OPTIONS[key]
        flag = "--" + key.replace("_", "-")
        if caster is bool:
            p.add_argument(flag, action="store_true", default=None, help=help_text)
        else:
            p.add_argument(flag, type=caster, choices=choices, help=help_text)
    p.add_argument("--config", help="key = value configuration file")


def _parse_target(raw: str, g: KnowledgeGraph) -> Triple:
    parts = raw.split("\t") if "\t" in raw else raw.split()  # tabs let a label hold a space
    if len(parts) != 3:
        raise ValueError(f'target must be "s p o" (3 tab- or else whitespace-separated labels), got {raw!r}')
    return triple_of_labels(parts, g.entity_vocab, g.relation_vocab)


def _train_config(opts: dict, kind, **extra) -> TrainConfig:
    fields = {key: opts[key] for key in _TRAIN_FIELDS if key != "model"}
    return TrainConfig(kind=kind, **fields, **extra)


def _batches(n_triples: int, cfg: TrainConfig) -> int:
    return cfg.epochs * -(-n_triples // cfg.batch_size)


def _load_with_vocabularies(path):
    model, ev, rv = load_model(path)
    if ev is None or rv is None:
        raise ValueError(f"{path}: vocabulary sidecars are required")
    return model, ev, rv


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kgex", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, paths, keys, handler) in _COMMANDS.items():
        p = commands.add_parser(command, help=help_text)
        for path in paths.split():
            path_help = '"s p o" labels, tab-separated if one holds a space' if path == "target" else None
            p.add_argument("--" + path, required=True, help=path_help)
        _add_options(p, keys)
        p.set_defaults(handler=handler)

    p = commands.add_parser("evaluate", help="filtered MR/MRR/Hits@N of a model on a test TSV")
    p.add_argument("--model", required=True, help="model file (vocabulary sidecars required)")
    p.add_argument("--test", required=True)
    p.add_argument("--pool", default="all", help='"all" or "subgraph:<tsv>"')
    p.add_argument("--filter", nargs="*", default=[], help="TSVs of known true triples")
    p.add_argument("--out", help="write metrics JSON here (default: stdout only)")
    p.set_defaults(handler=_cmd_evaluate)

    commands.add_parser("selftest", help="run built-in invariant suites")
    return parser


# A handler gets the parsed paths, the resolved options and the manifest; it checks the
# options, then records its inputs and any further configuration, and returns its outputs.


def _cmd_train(args, opts, manifest) -> list:
    kind = opts["model"] or ModelKind.TRANSE_L2.value
    cfg = _train_config(opts, kind, seed=opts["seed"], focuse_decay=opts["focuse_decay"] if opts["focuse"] else None)
    cfg.validate()
    if opts["focuse"] and not opts["weights"]:
        raise ValueError("--focuse needs --weights: it modulates training by the graph's weights column")
    manifest.add_input(args.graph)
    with manifest.stage("load"):
        g = load_graph(args.graph, has_weights=opts["weights"], weight_policy=opts["weight_policy"])
    manifest.set_config(model=kind, graph=str(args.graph), out=str(args.out))

    log_path = Path(str(args.out) + ".train.log")
    with open(log_path, "w", encoding="utf-8") as log, manifest.stage("train"):
        model, _ = run_training(g, cfg, progress=lambda e, l: log.write(f"{e}\t{l:.10g}\n"))
    with manifest.stage("save"):
        save_model(model, args.out, g.entity_vocab, g.relation_vocab)
    manifest.count(
        triples=g.n_triples, batches=_batches(g.n_triples, cfg), duplicates_dropped=g.duplicates_dropped
    )
    print(
        f"trained {kind} on {g.n_triples} triples "
        f"({g.n_entities} entities, {g.n_relations} relations) -> {args.out}"
    )
    return [args.out, log_path]


def _cmd_distill_train(args, opts, manifest) -> list:
    cfg = _train_config(opts, opts["model"], seed=opts["seed"])
    cfg.validate()
    check_kd_lambda(opts["kd_lambda"])
    manifest.add_input(args.teacher)
    manifest.add_input(args.subgraph)
    with manifest.stage("load"):
        teacher, ev, rv = _load_with_vocabularies(args.teacher)
        sub_g = graph_from_triples(read_subgraph_tsv(args.subgraph, ev, rv), ev, rv)
    cfg.kind = cfg.kind or teacher.kind
    manifest.set_config(teacher=str(args.teacher), subgraph=str(args.subgraph))

    with manifest.stage("train"):
        student, stats = run_training(sub_g, cfg, teacher=teacher, kd_lambda=opts["kd_lambda"])
    with manifest.stage("save"):
        save_model(student, args.out, ev, rv)
    manifest.count(
        triples=sub_g.n_triples, batches=_batches(sub_g.n_triples, cfg),
        degenerate_kd_terms=stats.degenerate_kd_terms,
    )
    print(f"distilled student on {sub_g.n_triples} subgraph triples -> {args.out}")
    return [args.out]


def _cmd_sample_subgraph(args, opts, manifest) -> list:
    spec = SubgraphSpec(opts["method"], opts["n"], opts["seed"])
    spec.validate()
    manifest.add_input(args.graph)
    with manifest.stage("load"):
        g = load_graph(args.graph)
    target = _parse_target(args.target, g)
    with manifest.stage("sample"):
        sub = sample_subgraph(g, target, spec)
    with manifest.stage("write"):
        write_subgraph_tsv(sub, args.out)
    manifest.count(subgraph_triples=len(sub), duplicates_dropped=g.duplicates_dropped)
    if sub.steps_taken is not None:
        manifest.count(steps_taken=sub.steps_taken)
    print(f"sampled {len(sub)} triples around {args.target!r} -> {args.out}")
    manifest.set_config(target=args.target)
    return [args.out]


def _cmd_explain(args, opts, manifest) -> list:
    config = ExplainConfig(
        mc_runs=opts["mc_runs"], partitions=opts["partitions"],
        student=_train_config(opts, opts["model"]),
        kd_lambda=opts["kd_lambda"], sampler=SubgraphSpec(opts["method"], opts["n"]),
        seed=opts["seed"], threads=opts["threads"],
    )
    config.validate()
    manifest.add_input(args.teacher)
    manifest.add_input(args.graph)
    with manifest.stage("load"):
        g = load_graph(args.graph)
        teacher, ev, rv = load_model(args.teacher)
    for vocab, graph_vocab, sidecar in (
        (ev, g.entity_vocab, entity_sidecar), (rv, g.relation_vocab, relation_sidecar)
    ):
        if vocab is not None and vocab != graph_vocab:
            raise ValueError(f"{sidecar(args.teacher)}: labels or ids differ from the graph's")
    target = _parse_target(args.target, g)
    config.student.kind = config.student.kind or teacher.kind
    manifest.set_config(target=args.target)

    with manifest.stage("explain"):
        report = mc_explain(teacher, g, target, config)
    with manifest.stage("write"):
        write_report_tsv(report, g, args.out)
    subset_sizes = [len(rec.positions) for rec in report.records]
    manifest.count(
        subgraph_triples=report.provenance["subgraph_size"], ranked_triples=len(report.entries),
        never_sampled=len(report.tail), min_subset=min(subset_sizes), max_subset=max(subset_sizes),
        duplicates_dropped=g.duplicates_dropped, workers=report.workers, groups=report.groups,
        degenerate_kd_terms=sum(rec.degenerate_kd_terms for rec in report.records),
        target_held_out=int(report.target_held_out),
    )
    print(
        f"explained {args.target!r}: {len(report.entries)} ranked triples, "
        f"{len(report.tail)} never sampled -> {args.out}"
    )
    return [args.out]


def _cmd_evaluate(args, opts, manifest) -> list:
    manifest.add_input(args.model)
    manifest.add_input(args.test)
    with manifest.stage("load"):
        model, ev, rv = _load_with_vocabularies(args.model)
        test = load_split(args.test, ev, rv)
        if args.pool == "all":
            pool = np.arange(model.n_entities)
        elif args.pool.startswith("subgraph:"):
            sub_path = args.pool.split(":", 1)[1]
            manifest.add_input(sub_path)
            pool = graph_from_triples(read_subgraph_tsv(sub_path, ev, rv), ev, rv).entities_in_triples()
        else:
            raise ValueError(f'--pool must be "all" or "subgraph:<tsv>", got {args.pool!r}')

    for path in args.filter:
        manifest.add_input(path)
    with manifest.stage("filter"):
        filters = [test if path == args.test else load_split(path, ev, rv) for path in args.filter]
        flt = build_filter(*filters) if filters else None

    with manifest.stage("rank"):
        metrics, skipped = evaluate(model, test.triples, pool, flt)
    manifest.count(
        ranked_triples=test.n_triples - skipped, out_of_table_skipped=skipped,
        oov_skipped=test.oov_skipped, filter_oov_skipped=sum(f.oov_skipped for f in filters),
    )
    payload = {**metrics.as_dict(), "skipped": skipped + test.oov_skipped}
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    manifest.set_config(pool=args.pool, filters=list(args.filter))
    if not args.out:
        return []
    Path(args.out).write_text(text + "\n", encoding="utf-8")
    return [args.out]


# Each command with options, declared once: name -> (help, required path flags, `_OPTIONS` keys, handler).
_COMMANDS = {
    "train": (
        "train an embedding model on a triple TSV", "graph out",
        (*_TRAIN_FIELDS, "weights", "weight_policy", "focuse", "focuse_decay", "seed"), _cmd_train,
    ),
    "distill-train": (
        "train a student on a subgraph with a frozen teacher", "teacher subgraph out",
        ("kd_lambda", *_TRAIN_FIELDS, "seed"), _cmd_distill_train,
    ),
    "sample-subgraph": (
        "sample an explanation subgraph around a target", "graph target out",
        ("method", "n", "seed"), _cmd_sample_subgraph,
    ),
    "explain": (
        "rank training triples by contribution to a prediction", "teacher graph target out",
        ("method", "n", "mc_runs", "partitions", "kd_lambda", "threads", *_TRAIN_FIELDS, "seed"),
        _cmd_explain,
    ),
}


def run_cli(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            return 1 if run_selftest() else 0
        opts = _resolve(args)
        manifest = RunManifest(args.command, list(argv))
        if getattr(args, "config", None):
            manifest.add_input(args.config)
        manifest.set_config(**opts)
        outputs = args.handler(args, opts, manifest)
        for out in outputs:
            manifest.add_output(out)
        if outputs:
            manifest.write(manifest_path(args.out))
        return 0
    except BrokenPipeError:
        return 1
    except Exception as exc:  # surface module errors as clean diagnostics
        print(f"kgex {args.command}: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
