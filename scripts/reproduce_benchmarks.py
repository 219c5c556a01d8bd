#!/usr/bin/env python3
"""Full-scale benchmark pipeline (hours of compute; not part of CI).

Trains a black-box model on FB15K-237 or WN18RR with the shipped best
hyperparameters, selects rank-1 test triples, and runs the explanation
pipeline over them, reporting surrogate MR/MRR/Hits@{1,10} against the
black-box.  Dataset directories must contain train.txt/valid.txt/test.txt
as tab-separated label triples.

Example:
    python3 scripts/reproduce_benchmarks.py --data ~/data/FB15K-237 \
        --dataset fb15k-237 --model complex --out runs/fb-complex \
        --targets 100 --mc-runs 100
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from kgex.evaluation import metrics_from_ranks, rank_blocks
from kgex.explain import ExplainConfig, mc_explain
from kgex.graph import build_filter, load_graph, load_split
from kgex.modelio import load_model, save_model
from kgex.sampling import SubgraphSpec
from kgex.training import TrainConfig, run_training

# best training combinations per dataset/model
BEST = {
    ("fb15k-237", "transe-l2"): dict(k=400, eta=30, lr=1e-4, epochs=1000),
    ("fb15k-237", "distmult"): dict(k=300, eta=50, lr=5e-5, epochs=1000),
    ("fb15k-237", "complex"): dict(k=350, eta=30, lr=5e-5, epochs=1000),
    ("wn18rr", "transe-l2"): dict(k=350, eta=30, lr=1e-4, epochs=2000),
    ("wn18rr", "distmult"): dict(k=350, eta=30, lr=1e-4, epochs=2000),
    ("wn18rr", "complex"): dict(k=200, eta=20, lr=5e-5, epochs=2000),
}
SAMPLER_N = {"fb15k-237": 5, "wn18rr": 3}  # predicate neighbors


def select_rank1(teacher, triples, pool, flt, targets: int) -> list[tuple[int, int, int]]:
    """The first `targets` triples, in file order, that the teacher ranks first on both sides.

    Triples are ranked block by block; ranking stops after the block that
    reaches `targets`.
    """
    found: list[tuple[int, int, int]] = []
    for block, ranks in rank_blocks(teacher, triples, pool, flt):
        found += [tuple(t) for t, r in zip(block.tolist(), ranks.tolist()) if r == [1, 1]]
        if len(found) >= targets:
            break
    return found[:targets]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--data", required=True, help="dataset directory")
    ap.add_argument("--dataset", required=True, choices=["fb15k-237", "wn18rr"])
    ap.add_argument("--model", default="complex", choices=["transe-l2", "distmult", "complex"])
    ap.add_argument("--out", required=True)
    ap.add_argument("--targets", type=int, default=100)
    ap.add_argument("--mc-runs", type=int, default=100)
    ap.add_argument("--partitions", type=int, default=10)
    ap.add_argument("--kd-lambda", type=float, default=3.0)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--teacher", help="reuse an already trained teacher file")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data = Path(args.data)

    print("loading graphs ...")
    g = load_graph(data / "train.txt")
    valid = load_split(data / "valid.txt", g.entity_vocab, g.relation_vocab)
    test = load_split(data / "test.txt", g.entity_vocab, g.relation_vocab)
    print(
        f"train {g.n_triples} triples, {g.n_entities} entities, {g.n_relations} relations; "
        f"test OOV skipped {test.oov_skipped}"
    )
    flt = build_filter(g, valid, test)

    teacher_path = Path(args.teacher) if args.teacher else out / "teacher.kgex"
    if teacher_path.exists():
        print(f"loading teacher from {teacher_path}")
        teacher, _, _ = load_model(teacher_path)
    else:
        hp = BEST[(args.dataset, args.model)]
        print(f"training teacher {args.model} {hp} ...")
        cfg = TrainConfig(
            kind=args.model, gamma=1e-4, batch_size=10000, seed=args.seed,
            loss="multiclass_nll", **hp,
        )
        t0 = time.time()
        teacher, _ = run_training(
            g, cfg, progress=lambda e, l: print(f"  epoch {e}: {l:.5f}", flush=True)
            if e % 50 == 0 else None
        )
        print(f"teacher trained in {time.time() - t0:.0f}s")
        save_model(teacher, teacher_path, g.entity_vocab, g.relation_vocab)

    print("selecting rank-1 test triples ...")
    rank1 = select_rank1(teacher, test.triples, np.arange(g.n_entities), flt, args.targets)
    print(f"found {len(rank1)} rank-1 targets")
    if not rank1:
        print(f"no test triple ranks first on both sides; the teacher is in {teacher_path}", file=sys.stderr)
        raise SystemExit(1)

    student = TrainConfig(kind=args.model, k=50, eta=2, lr=0.1, epochs=200, batch_size=512)
    ranks: list[float] = []
    sizes: list[int] = []
    for i, target in enumerate(rank1):
        cfg = ExplainConfig(
            mc_runs=args.mc_runs, partitions=args.partitions, student=student,
            kd_lambda=args.kd_lambda,
            sampler=SubgraphSpec("pn", SAMPLER_N[args.dataset]),
            seed=args.seed + i, threads=args.threads,
        )
        report = mc_explain(teacher, g, target, cfg, flt)
        for rec in report.records:
            ranks.extend([rec.subject_rank, rec.object_rank])
        sizes.append(report.provenance["subgraph_size"])
        if (i + 1) % 10 == 0:
            m = metrics_from_ranks(ranks)
            print(f"  {i + 1}/{len(rank1)} targets: running MRR {m.mrr:.3f}")

    metrics = metrics_from_ranks(ranks)
    payload = {
        **metrics.as_dict(),
        "targets": len(rank1),
        "avg_subgraph_size": float(np.mean(sizes)),
        "mc_runs": args.mc_runs,
        "kd_lambda": args.kd_lambda,
    }
    (out / "surrogate_metrics.json").write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))


if __name__ == "__main__":
    main()
