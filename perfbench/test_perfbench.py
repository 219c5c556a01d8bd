"""Smoke and consistency tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Every workload runs at ``--size tiny`` so the whole file takes seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 5


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert all(WORKLOADS[w["name"]].why == w["why"] for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert any(m["name"] == "setup_s" and m["bound"] == max(x["bound"] for x in spec["end_to_end"])
               for m in spec["end_to_end"])


@pytest.mark.parametrize("shape", ["fb237", "wn18rr"])
def test_generator_covers_vocabularies_without_duplicates(shape):
    sh = gen.SHAPES[shape]
    rng = np.random.default_rng(SEED)
    train = gen.draw_train(sh, rng)
    assert len(train) == sh.triples
    assert len(np.unique(gen.keys(train, sh))) == sh.triples
    assert len(np.unique(train[:, [0, 2]])) == sh.entities
    assert len(np.unique(train[:, 1])) == sh.relations
    test = gen.draw_test(sh, train, rng)
    test_keys = gen.keys(test, sh)
    assert len(np.unique(test_keys)) == sh.test
    assert not np.isin(test_keys, gen.keys(train, sh)).any()


def test_generated_files_load_at_exact_shape(tmp_path):
    from kgex.graph import load_graph, load_split
    from kgex.modelio import load_model

    sh = gen.SHAPES["wn18rr-tiny"]
    gen.generate(sh.name, SEED, tmp_path)
    g = load_graph(tmp_path / "train.tsv")
    assert (g.n_triples, g.n_entities, g.n_relations, g.duplicates_dropped) == (
        sh.triples, sh.entities, sh.relations, 0)
    model, ev, rv = load_model(tmp_path / "teacher.kgex")
    assert ev == g.entity_vocab and rv == g.relation_vocab
    test = load_split(tmp_path / "test.tsv", ev, rv)
    assert (test.n_triples, test.oov_skipped) == (sh.test, 0)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_runs_correctly_and_counters_repeat(workload):
    plain = result_of(bench(workload, 0))
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert set(plain["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = [result_of(bench(workload, 1)) for _ in range(2)]
    for r in traced:
        assert r["correct"] and r["failed"] == 0
        assert set(r["metrics"]) == set(run.PER_LAYER)
    for name in run.COMPUTED + run.SPAN_COUNTS:
        assert traced[0]["metrics"][name] == traced[1]["metrics"][name], name


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("train-fb237", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
