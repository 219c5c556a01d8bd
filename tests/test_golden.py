"""Golden output digests: refactors must keep every CLI output byte.

Each command below runs through `run_cli` on seeded synthetic graphs and the
SHA-256 of each output file is compared with a constant recorded before the
refactor.  Manifests hold timings and absolute paths, so they are not
digested.  The digests depend on NumPy's summation kernels, so they are only
checked under the NumPy version they were recorded with.
"""

import json

import numpy as np
import pytest

from kgex import optim
from kgex.cli import run_cli
from kgex.manifest import file_digest, manifest_path

from toygraphs import random_graph

GOLDEN_NUMPY = "2.4.6"

GOLDEN = {
    "complex.kgex":
        "ca52669e2244d580bacf6fe1af3872e9f62564461349399712d7e1d244dae09a",
    "complex.kgex.train.log":
        "401d71a3e16dab15b2b81d8c33af774f3962399ff8030de1d2d4ccb8372e79b4",
    "transe.kgex":
        "5d4b23d6c5f9823402ab3f5301f9e2b257a781f9a26d978d832312a46671fb74",
    "transe.kgex.train.log":
        "2cb0968265b819191754aa8290ade12cc70f7feaf4b541188abcce87e2637b1b",
    "focuse.kgex":
        "ee956a269580d45a6581ef5091c8b6912e9c9437237560f04696313b1deee8b9",
    "focuse.kgex.train.log":
        "0cd09536fab52a07cc5c7fb147c2909215298b24a6478e69b4e59e8a0f7071e0",
    "student.kgex":
        "ed52250d4656ea85945e703519fdeeae4e1fac9398e0d6db2d000e466844d75d",
    "report.tsv":
        "fc0bc57079747166f0f169f263feccf90781cca732a3a0895b198c10e8a7c221",
    "metrics.json":
        "2bb1830238f08095ca9488bf307330cb8f275ca21b3f2e2702d50ad7cc1ac289",
}


def _labels(g, t):
    s, p, o = map(int, t)
    return g.entity_vocab.label_of(s), g.relation_vocab.label_of(p), g.entity_vocab.label_of(o)


def _write(path, rows):
    path.write_text("".join("\t".join(r) + "\n" for r in rows), encoding="utf-8")
    return str(path)


def _explain(root, target, threads, out):
    """The explain command's argv on `root`'s TransE teacher and training graph."""
    return ("explain", "--teacher", str(root / "transe.kgex"), "--graph", str(root / "train.tsv"),
            "--target", target, "--method", "pn", "--n", "2", "--mc-runs", "4",
            "--partitions", "2", "--kd-lambda", "3", "--k", "4", "--epochs", "8",
            "--threads", threads, "--seed", "6", "--out", str(out))


def _run_commands(root):
    """Run every command into `root`; returns it."""
    if np.__version__ != GOLDEN_NUMPY:
        pytest.skip(f"digests recorded under NumPy {GOLDEN_NUMPY}, running {np.__version__}")
    g = random_graph(24, 3, 90, seed=41)
    rows = [_labels(g, t) for t in g.triples]
    train = _write(root / "train.tsv", rows[:80])
    test = _write(root / "test.tsv", rows[80:])
    weights = np.random.default_rng(42).uniform(size=80)
    weighted = _write(root / "weighted.tsv", [(*r, f"{w:.4f}") for r, w in zip(rows, weights)])
    target = " ".join(rows[3])

    def run(*argv):
        assert run_cli(list(argv)) == 0, argv

    run("train", "--graph", train, "--model", "complex", "--k", "4", "--eta", "3",
        "--epochs", "15", "--batch-size", "32", "--gamma", "0.001", "--seed", "1",
        "--out", str(root / "complex.kgex"))
    run("train", "--graph", train, "--model", "transe-l2", "--k", "4", "--epochs", "15",
        "--batch-size", "32", "--seed", "2", "--out", str(root / "transe.kgex"))
    run("train", "--graph", weighted, "--weights", "--focuse", "--focuse-decay", "5",
        "--model", "distmult", "--k", "4", "--epochs", "10", "--batch-size", "32",
        "--seed", "3", "--out", str(root / "focuse.kgex"))
    run("sample-subgraph", "--graph", train, "--target", target, "--method", "pn",
        "--n", "2", "--seed", "4", "--out", str(root / "sub.tsv"))
    run("distill-train", "--teacher", str(root / "complex.kgex"), "--subgraph",
        str(root / "sub.tsv"), "--kd-lambda", "3", "--k", "3", "--epochs", "10",
        "--batch-size", "16", "--gamma", "0.01", "--seed", "5",
        "--out", str(root / "student.kgex"))
    run(*_explain(root, target, "1", root / "report.tsv"))
    run("evaluate", "--model", str(root / "complex.kgex"), "--test", test,
        "--filter", train, test, "--out", str(root / "metrics.json"))
    return root


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return _run_commands(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def split_outputs(tmp_path_factory):
    """The commands with chunks of 16 elements on two threads: every training step
    of more than one chunk scatters half of each row's components on each thread,
    and the explanation trains a lockstep group a run on two worker processes."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optim, "_CHUNK_ELEMS", 16)
        patch.setattr(optim, "_cpus", lambda: 2)
        return _run_commands(tmp_path_factory.mktemp("golden-split"))


@pytest.fixture(scope="module")
def process_report(outputs, tmp_path_factory):
    """The explanation with `--threads 1` on two CPUs: its 4 runs go to two worker processes."""
    g = random_graph(24, 3, 90, seed=41)
    out = tmp_path_factory.mktemp("golden-processes") / "report.tsv"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optim, "_cpus", lambda: 2)
        assert run_cli(list(_explain(outputs, " ".join(_labels(g, g.triples[3])), "1", out))) == 0
    assert json.loads(manifest_path(out).read_text())["counters"]["workers"] == 2
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_digest_unchanged(outputs, name):
    assert file_digest(outputs / name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_digest_unchanged_on_two_threads_in_tiny_chunks(split_outputs, name):
    assert file_digest(split_outputs / name) == GOLDEN[name]


def test_report_digest_unchanged_on_two_processes(process_report):
    assert file_digest(process_report) == GOLDEN["report.tsv"]
