"""Model persistence, manifests, and the end-to-end command pipeline."""

import argparse
import json
import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest

import kgex.optim
from kgex.cli import build_parser, run_cli
from kgex.explain import ExplainConfig, mc_explain
from kgex.graph import load_graph, triple_of_labels
from kgex.manifest import file_digest
from kgex.modelio import (
    MAGIC, ModelFormatError, entity_sidecar, load_model, relation_sidecar, save_model,
)
from kgex.models import init_model
from kgex.sampling import SubgraphSpec, sample_subgraph
from kgex.training import TrainConfig

from oracles import sequential_runs
from toygraphs import block_graph


def write_graph_tsv(g, path):
    ev, rv = g.entity_vocab, g.relation_vocab
    with open(path, "w", encoding="utf-8") as fh:
        for s, p, o in g.triples:
            fh.write(f"{ev.label_of(int(s))}\t{rv.label_of(int(p))}\t{ev.label_of(int(o))}\n")
    return path


def teacher_with_extra_entity_label(g, directory):
    """A model over g's vocabularies whose entity sidecar has one label too many."""
    path = directory / "teacher.kgex"
    model = init_model("distmult", 2, g.n_entities, g.n_relations, seed=0)
    save_model(model, path, g.entity_vocab, g.relation_vocab)
    with open(entity_sidecar(path), "a", encoding="utf-8") as fh:
        fh.write(f"extra\t{g.n_entities}\n")
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    g, held_out = block_graph(20, 10, 3, n_train=80, n_test=16, seed=13)
    write_graph_tsv(g, root / "train.tsv")
    ev, rv = g.entity_vocab, g.relation_vocab
    with open(root / "test.tsv", "w", encoding="utf-8") as fh:
        for s, p, o in held_out:
            fh.write(f"{ev.label_of(int(s))}\t{rv.label_of(int(p))}\t{ev.label_of(int(o))}\n")
    return root, g, held_out


def label_target(g, triple):
    s, p, o = map(int, triple)
    return f"{g.entity_vocab.label_of(s)} {g.relation_vocab.label_of(p)} {g.entity_vocab.label_of(o)}"


def train_argv(root):
    return [
        "train", "--graph", str(root / "train.tsv"), "--model", "transe-l2",
        "--k", "8", "--eta", "2", "--lr", "0.1", "--epochs", "60",
        "--seed", "3", "--out", str(root / "teacher.kgex"),
    ]


def sample_argv(root, g, held_out):
    return [
        "sample-subgraph", "--graph", str(root / "train.tsv"),
        "--target", label_target(g, held_out[0]),
        "--method", "pn", "--n", "3", "--seed", "11", "--out", str(root / "sub.tsv"),
    ]


@pytest.fixture(scope="module")
def pipeline(workspace):
    """The workspace plus the teacher.kgex and sub.tsv that the train and
    sample-subgraph tests write, written here by the same argv so that every
    test reading them also runs on its own."""
    assert run_cli(train_argv(workspace[0])) == 0
    assert run_cli(sample_argv(*workspace)) == 0
    return workspace


# every option string of every command, so that a flag the option table drops fails
OPTION_STRINGS = {
    "train": "--graph --out --model --k --eta --lr --epochs --batch-size --gamma --loss "
             "--weights --weight-policy --focuse --focuse-decay --seed --config",
    "distill-train": "--teacher --subgraph --out --kd-lambda --model --k --eta --lr --epochs "
                     "--batch-size --gamma --loss --seed --config",
    "sample-subgraph": "--graph --target --method --n --out --seed --config",
    "explain": "--teacher --graph --target --method --n --mc-runs --partitions --kd-lambda "
               "--threads --out --model --k --eta --lr --epochs --batch-size --gamma --loss "
               "--seed --config",
    "evaluate": "--model --test --pool --filter --out",
    "selftest": "",
}


class TestModelPersistence:
    def test_round_trip_bitwise(self, tmp_path):
        model = init_model("complex", 5, 9, 4, seed=3)
        path = tmp_path / "m.kgex"
        save_model(model, path)
        loaded, ev, rv = load_model(path)
        assert loaded.kind == model.kind
        assert loaded.k == model.k
        assert (loaded.n_entities, loaded.n_relations) == (9, 4)
        assert loaded.table.tobytes() == model.table.tobytes()
        assert path.read_bytes().endswith(model.table.tobytes())  # entity rows first
        assert loaded.table.flags.writeable
        assert ev is None and rv is None

    def test_sidecar_vocabularies(self, tmp_path):
        from kgex.graph import Vocabulary

        ev, rv = Vocabulary(), Vocabulary()
        for x in ("a", "b", "c"):
            ev.add(x)
        rv.add("r")
        model = init_model("distmult", 2, 3, 1, seed=0)
        path = tmp_path / "m.kgex"
        save_model(model, path, ev, rv)
        _, ev2, rv2 = load_model(path)
        assert ev2.labels == ["a", "b", "c"]
        assert rv2.labels == ["r"]

    def test_load_holds_one_copy_of_the_table(self, tmp_path):
        """The table is read straight into its array: a 4 MB table peaks at
        one copy, where the file's bytes and their float64 copy took two."""
        model = init_model("complex", 50, 5000, 10, seed=1)
        path = tmp_path / "m.kgex"
        save_model(model, path)
        tracemalloc.start()
        try:
            loaded, _, _ = load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.table.tobytes() == model.table.tobytes() and loaded.table.flags.writeable
        assert peak <= model.table.nbytes + 2**20, f"heap peak {peak / 1e6:.1f} MB"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("trailing", [b"", b"\0\0\0"])
    def test_load_from_a_pipe(self, tmp_path, trailing):
        """A pipe has no size to check first: the bytes read are counted."""
        model = init_model("distmult", 2, 3, 1, seed=0)
        save_model(model, tmp_path / "m.kgex")
        blob, pipe = (tmp_path / "m.kgex").read_bytes() + trailing, tmp_path / "pipe"
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_bytes, args=(blob,))
        writer.start()
        try:
            if trailing:
                with pytest.raises(ModelFormatError, match="expected 101 bytes, found 104"):
                    load_model(pipe)
            else:
                assert load_model(pipe)[0].table.tobytes() == model.table.tobytes()
        finally:
            writer.join(timeout=60)
        assert not writer.is_alive()

    def test_trailing_data_rejected(self, tmp_path):
        model = init_model("distmult", 2, 3, 1, seed=0)
        path = tmp_path / "m.kgex"
        save_model(model, path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ModelFormatError, match="expected 101 bytes, found 102"):
            load_model(path)

    def test_corrupted_magic_rejected(self, tmp_path):
        model = init_model("distmult", 2, 3, 1, seed=0)
        path = tmp_path / "m.kgex"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[:5] = b"WRONG"
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        model = init_model("distmult", 2, 3, 1, seed=0)
        path = tmp_path / "m.kgex"
        save_model(model, path)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(ModelFormatError, match="truncated"):
            load_model(path)

    def test_file_size_layout_arithmetic(self, tmp_path):
        # header = 5-byte magic + 4 u64 fields; tables row-major f64
        n_entities, n_relations, k = 3, 2, 350
        model = init_model("complex", k, n_entities, n_relations, seed=1)
        path = tmp_path / "m.kgex"
        save_model(model, path)
        expected = 5 + 4 * 8 + (n_entities + n_relations) * (2 * k) * 8
        assert path.stat().st_size == expected

    def test_unknown_kind_tag_rejected(self, tmp_path):
        path = tmp_path / "m.kgex"
        path.write_bytes(MAGIC + struct.pack("<4Q", 99, 2, 1, 1) + b"\0" * 32)
        with pytest.raises(ModelFormatError, match="kind"):
            load_model(path)

    @pytest.mark.parametrize("k, n_entities, n_relations", [(0, 3, 1), (2, 0, 1), (2, 3, 0)])
    def test_empty_sizes_rejected(self, tmp_path, k, n_entities, n_relations):
        """k = 0, |E| = 0 or |R| = 0, which `init_model` refuses, with a table of the size the header gives."""
        path = tmp_path / "m.kgex"
        table = bytes(8 * k * (n_entities + n_relations))
        path.write_bytes(MAGIC + struct.pack("<4Q", 3, k, n_entities, n_relations) + table)
        with pytest.raises(ModelFormatError, match="must each be >= 1") as caught:
            load_model(path)
        assert str(caught.value).startswith(f"{path}: ")


class TestPipeline:
    def test_train_subcommand(self, workspace):
        root, g, _ = workspace
        status = run_cli(train_argv(root))
        assert status == 0
        assert (root / "teacher.kgex").exists()
        log = (root / "teacher.kgex.train.log").read_text().strip().splitlines()
        assert len(log) == 60
        epoch, loss = log[0].split("\t")
        assert epoch == "0" and float(loss) > 0
        manifest = json.loads((root / "teacher.kgex.manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["config"]["seed"] == 3
        assert str(root / "train.tsv") in manifest["inputs"]

    def test_train_manifest_records_peak_memory(self, workspace):
        root, _, _ = workspace
        assert run_cli(train_argv(root)) == 0
        manifest = json.loads((root / "teacher.kgex.manifest.json").read_text())
        assert isinstance(manifest["peak_rss_mib"], float) and manifest["peak_rss_mib"] > 0

    def test_sample_subgraph_subcommand(self, workspace):
        root, g, held_out = workspace
        status = run_cli(sample_argv(root, g, held_out))
        assert status == 0
        lines = (root / "sub.tsv").read_text().splitlines()
        assert sum(1 for l in lines if not l.startswith("#")) > 0

    @pytest.mark.parametrize("method", ["pn", "rw"])
    def test_sample_subgraph_manifest_stages_and_counters(self, workspace, tmp_path, method):
        root, g, held_out = workspace
        out = tmp_path / "sub.tsv"
        status = run_cli([
            "sample-subgraph", "--graph", str(root / "train.tsv"), "--target", label_target(g, held_out[0]),
            "--method", method, "--n", "6", "--seed", "11", "--out", str(out),
        ])
        assert status == 0
        manifest = json.loads((tmp_path / "sub.tsv.manifest.json").read_text())
        assert set(manifest["stages_s"]) == {"load", "sample", "write"}
        assert all(t >= 0 for t in manifest["stages_s"].values())
        loaded = load_graph(root / "train.tsv")  # ids in file order, not g's
        target = triple_of_labels(label_target(g, held_out[0]).split(), loaded.entity_vocab,
                                  loaded.relation_vocab)
        sub = sample_subgraph(loaded, target, SubgraphSpec(method, 6, 11))
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == len(sub)
        expected = {"subgraph_triples": len(sub), "duplicates_dropped": 0}
        if method == "rw":
            expected["steps_taken"] = sub.steps_taken
        assert manifest["counters"] == expected

    def test_distill_train_subcommand(self, pipeline):
        root, _, _ = pipeline
        status = run_cli([
            "distill-train", "--teacher", str(root / "teacher.kgex"),
            "--subgraph", str(root / "sub.tsv"), "--kd-lambda", "3",
            "--k", "4", "--epochs", "30", "--seed", "5",
            "--out", str(root / "student.kgex"),
        ])
        assert status == 0
        student, ev, rv = load_model(root / "student.kgex")
        assert student.k == 4
        assert ev is not None

    def test_evaluate_subcommand(self, pipeline, capsys):
        root, _, _ = pipeline
        status = run_cli([
            "evaluate", "--model", str(root / "teacher.kgex"), "--test", str(root / "test.tsv"),
            "--pool", "all", "--filter", str(root / "train.tsv"), str(root / "test.tsv"),
            "--out", str(root / "metrics.json"),
        ])
        assert status == 0
        payload = json.loads((root / "metrics.json").read_text())
        assert set(payload) == {"mr", "mrr", "hits1", "hits10", "skipped"}
        assert payload["mrr"] > 0.3  # the teacher actually learned the toy graph
        assert payload["skipped"] == 0

    def test_evaluate_subgraph_pool(self, pipeline, capsys):
        root, _, _ = pipeline
        status = run_cli([
            "evaluate", "--model", str(root / "teacher.kgex"), "--test", str(root / "test.tsv"),
            "--pool", f"subgraph:{root / 'sub.tsv'}",
        ])
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mr"] >= 1.0

    def test_evaluate_manifest_stages_and_counters(self, pipeline, tmp_path, capsys):
        root, _, held_out = pipeline
        test = tmp_path / "test.tsv"
        # one row with an unknown label: skipped as OOV while loading
        test.write_text((root / "test.tsv").read_text() + "nosuch\tr0\te1\n", encoding="utf-8")
        out = tmp_path / "metrics.json"
        status = run_cli([
            "evaluate", "--model", str(root / "teacher.kgex"), "--test", str(test),
            "--filter", str(root / "train.tsv"), "--out", str(out),
        ])
        assert status == 0
        manifest = json.loads((tmp_path / "metrics.json.manifest.json").read_text())
        assert set(manifest["stages_s"]) == {"load", "filter", "rank"}
        assert all(t >= 0 for t in manifest["stages_s"].values())
        assert manifest["counters"] == {
            "ranked_triples": len(held_out), "out_of_table_skipped": 0, "oov_skipped": 1,
            "filter_oov_skipped": 0,
        }
        assert json.loads(out.read_text())["skipped"] == 1

    def test_manifests_count_duplicate_and_filter_oov_rows(self, pipeline, tmp_path, capsys):
        root, g, held_out = pipeline
        rows = (root / "train.tsv").read_text().splitlines(keepends=True)
        train = tmp_path / "train.tsv"
        train.write_text("".join(rows[:40] + rows[3:4] + rows[40:]), encoding="utf-8")  # row 4 twice
        status = run_cli([
            "train", "--graph", str(train), "--k", "2", "--epochs", "1", "--batch-size", "40",
            "--seed", "1", "--out", str(tmp_path / "m.kgex"),
        ])
        assert status == 0
        manifest = json.loads((tmp_path / "m.kgex.manifest.json").read_text())
        assert manifest["counters"] == {"triples": g.n_triples, "batches": 2, "duplicates_dropped": 1}
        status = run_cli([
            "sample-subgraph", "--graph", str(train), "--target", label_target(g, held_out[0]),
            "--n", "2", "--seed", "3", "--out", str(tmp_path / "sub.tsv"),
        ])
        assert status == 0
        manifest = json.loads((tmp_path / "sub.tsv.manifest.json").read_text())
        assert manifest["counters"]["duplicates_dropped"] == 1

        flt = tmp_path / "filter.tsv"  # the test rows plus one row with an unknown label
        flt.write_text((root / "test.tsv").read_text() + "e1\tnosuch\te2\n", encoding="utf-8")
        status = run_cli([
            "evaluate", "--model", str(root / "teacher.kgex"), "--test", str(root / "test.tsv"),
            "--filter", str(flt), str(root / "test.tsv"), "--out", str(tmp_path / "metrics.json"),
        ])
        assert status == 0
        manifest = json.loads((tmp_path / "metrics.json.manifest.json").read_text())
        assert manifest["counters"]["filter_oov_skipped"] == 1
        assert manifest["counters"]["oov_skipped"] == 0

    def test_training_manifests_record_stages_and_counters(self, pipeline, tmp_path):
        root, g, _ = pipeline
        status = run_cli([
            "train", "--graph", str(root / "train.tsv"), "--model", "distmult", "--k", "4",
            "--epochs", "3", "--batch-size", "32", "--seed", "1", "--out", str(tmp_path / "m.kgex"),
        ])
        assert status == 0
        manifest = json.loads((tmp_path / "m.kgex.manifest.json").read_text())
        assert set(manifest["stages_s"]) == {"load", "train", "save"}
        assert all(t >= 0 for t in manifest["stages_s"].values())
        assert manifest["counters"] == {  # 80 triples, 32 a batch
            "triples": g.n_triples, "batches": 3 * 3, "duplicates_dropped": 0,
        }

        # a self-loop's object-to-subject difference is zero, which makes two of
        # its three angle terms degenerate in every epoch
        rows = [l.split("\t") for l in (root / "sub.tsv").read_text().splitlines() if not l.startswith("#")]
        loop = (g.entity_vocab.label_of(0), g.relation_vocab.label_of(0), g.entity_vocab.label_of(0))
        triples = {tuple(r) for r in rows} | {loop}
        sub = tmp_path / "sub.tsv"
        sub.write_text("".join("\t".join(t) + "\n" for t in sorted(triples)), encoding="utf-8")
        status = run_cli([
            "distill-train", "--teacher", str(root / "teacher.kgex"), "--subgraph", str(sub),
            "--kd-lambda", "3", "--k", "4", "--epochs", "5", "--batch-size", "8", "--seed", "5",
            "--out", str(tmp_path / "student.kgex"),
        ])
        assert status == 0
        manifest = json.loads((tmp_path / "student.kgex.manifest.json").read_text())
        assert set(manifest["stages_s"]) == {"load", "train", "save"}
        assert manifest["counters"] == {
            "triples": len(triples),
            "batches": 5 * -(-len(triples) // 8),
            "degenerate_kd_terms": 5 * 2 * sum(s == o for s, _, o in triples),
        }

    def test_explain_subcommand_and_replay_determinism(self, pipeline, monkeypatch):
        root, g, held_out = pipeline
        monkeypatch.setattr(kgex.optim, "_cpus", lambda: 2)  # `--threads 1` on two CPUs: two workers
        ev, rv = g.entity_vocab, g.relation_vocab
        s, p, o = map(int, held_out[1])
        target = f"{ev.label_of(s)} {rv.label_of(p)} {ev.label_of(o)}"
        argv = [
            "explain", "--teacher", str(root / "teacher.kgex"), "--graph", str(root / "train.tsv"),
            "--target", target, "--method", "pn", "--n", "2", "--mc-runs", "4",
            "--partitions", "2", "--kd-lambda", "3", "--k", "4", "--epochs", "30",
            "--seed", "21", "--out", str(root / "report.tsv"),
        ]
        assert run_cli(argv) == 0
        first_digest = file_digest(root / "report.tsv")
        manifest = json.loads((root / "report.tsv.manifest.json").read_text())
        assert manifest["config"]["mc_runs"] == 4
        # replaying the manifest's argv reproduces the report byte for byte
        assert run_cli(manifest["argv"]) == 0
        assert file_digest(root / "report.tsv") == first_digest
        body = [
            l for l in (root / "report.tsv").read_text().splitlines() if not l.startswith("#")
        ]
        assert all(len(l.split("\t")) == 6 for l in body)

        assert set(manifest["stages_s"]) == {"load", "explain", "write"}
        assert all(t >= 0 for t in manifest["stages_s"].values())
        header = dict(l[2:].split("\t", 1) for l in (root / "report.tsv").read_text().splitlines()
                      if l.startswith("# ") and "\t" in l)
        size = int(header["subgraph_size"])
        never = sum(l.startswith("-\t") for l in body)
        # 4 runs over 2 partitions: each subset is one half of the subgraph; a group a worker
        assert manifest["counters"] == {
            "subgraph_triples": size, "ranked_triples": len(body) - never, "never_sampled": never,
            "min_subset": size // 2, "max_subset": -(-size // 2), "duplicates_dropped": 0,
            "workers": 2, "groups": 2, "degenerate_kd_terms": 0, "target_held_out": 0,
        }
        # the workers trained the students, and the manifest counts their memory
        assert isinstance(manifest["workers_peak_rss_mib"], float) and manifest["workers_peak_rss_mib"] > 0

    def test_explain_threads_match_serial(self, pipeline):
        root, g, held_out = pipeline
        ev, rv = g.entity_vocab, g.relation_vocab
        s, p, o = map(int, held_out[2])
        target = f"{ev.label_of(s)} {rv.label_of(p)} {ev.label_of(o)}"
        base = [
            "explain", "--teacher", str(root / "teacher.kgex"), "--graph", str(root / "train.tsv"),
            "--target", target, "--method", "rw", "--n", "10", "--mc-runs", "4",
            "--partitions", "2", "--k", "4", "--epochs", "20", "--seed", "31",
        ]
        assert run_cli(base + ["--threads", "1", "--out", str(root / "serial.tsv")]) == 0
        assert run_cli(base + ["--threads", "2", "--out", str(root / "parallel.tsv")]) == 0
        assert file_digest(root / "serial.tsv") == file_digest(root / "parallel.tsv")

    def test_explain_counts_the_degenerate_terms_of_every_run(self, workspace, tmp_path):
        root, g, held_out = workspace
        # self-loops at the target's subject: two of each loop's three angle terms degenerate
        s = g.entity_vocab.label_of(int(held_out[1][0]))
        with open(write_graph_tsv(g, tmp_path / "loops.tsv"), "a", encoding="utf-8") as fh:
            fh.writelines(f"{s}\t{r}\t{s}\n" for r in g.relation_vocab.labels)
        loops = load_graph(tmp_path / "loops.tsv")
        teacher = init_model("distmult", 4, loops.n_entities, loops.n_relations, seed=0)
        save_model(teacher, tmp_path / "t.kgex", loops.entity_vocab, loops.relation_vocab)
        assert run_cli([
            "explain", "--teacher", str(tmp_path / "t.kgex"), "--graph", str(tmp_path / "loops.tsv"),
            "--target", label_target(g, held_out[1]), "--n", "3", "--mc-runs", "4", "--partitions", "2",
            "--k", "4", "--epochs", "5", "--batch-size", "8", "--seed", "3", "--out", str(tmp_path / "r.tsv"),
        ]) == 0
        counters = json.loads((tmp_path / "r.tsv.manifest.json").read_text())["counters"]
        target = triple_of_labels(label_target(g, held_out[1]).split(), loops.entity_vocab, loops.relation_vocab)
        config = ExplainConfig(
            mc_runs=4, partitions=2, student=TrainConfig(kind="distmult", k=4, epochs=5, batch_size=8),
            sampler=SubgraphSpec("pn", 3), seed=3,
        )
        records = mc_explain(teacher, loops, target, config).records
        reference, _ = sequential_runs(teacher, loops, target, config, records)
        total = sum(rec.degenerate_kd_terms for rec in reference)
        assert total > 0 and counters["degenerate_kd_terms"] == total
        assert counters["workers"] == min(2, kgex.optim._cpus())  # `--threads 1` takes two CPUs where it may

    def test_selftest_subcommand(self, capsys):
        assert run_cli(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out


class TestCliBehavior:
    def test_unknown_flag_usage_error(self, workspace):
        root, _, _ = workspace
        for argv in (
            ["train", "--graph", str(root / "train.tsv"), "--frobnicate"],
            # evaluate has no options beyond its paths, so no --seed or --config
            ["evaluate", "--model", str(root / "teacher.kgex"), "--test", str(root / "test.tsv"),
             "--seed", "1"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                run_cli(argv)
            assert excinfo.value.code == 2

    def test_module_error_returns_one(self, tmp_path, capsys):
        missing = tmp_path / "nope.tsv"
        status = run_cli(["train", "--graph", str(missing), "--out", str(tmp_path / "m")])
        assert status == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_subgraph_label(self, workspace, tmp_path, capsys):
        _, g, _ = workspace
        teacher = tmp_path / "teacher.kgex"
        model = init_model("distmult", 2, g.n_entities, g.n_relations, seed=0)
        save_model(model, teacher, g.entity_vocab, g.relation_vocab)
        sub = tmp_path / "bad_sub.tsv"
        sub.write_text("# subgraph\ne0\tr0\te1\nZZZ\tr0\te1\n", encoding="utf-8")
        status = run_cli([
            "distill-train", "--teacher", str(teacher), "--subgraph", str(sub),
            "--epochs", "1", "--seed", "1", "--out", str(tmp_path / "student.kgex"),
        ])
        assert status == 1
        err = capsys.readouterr().err
        assert f"{sub}:3: unknown entity label 'ZZZ'" in err

    def test_extra_sidecar_label_distill_train(self, workspace, tmp_path, capsys):
        _, g, _ = workspace
        teacher = teacher_with_extra_entity_label(g, tmp_path)
        sub = tmp_path / "sub.tsv"
        sub.write_text("e0\tr0\te1\n", encoding="utf-8")
        status = run_cli([
            "distill-train", "--teacher", str(teacher), "--subgraph", str(sub),
            "--epochs", "1", "--seed", "1", "--out", str(tmp_path / "student.kgex"),
        ])
        assert status == 1
        err = capsys.readouterr().err
        assert f"{entity_sidecar(teacher)}: {g.n_entities + 1} entity labels" in err
        assert f"{g.n_entities} entity rows" in err

    def test_extra_sidecar_label_evaluate(self, workspace, tmp_path, capsys):
        root, g, _ = workspace
        teacher = teacher_with_extra_entity_label(g, tmp_path)
        status = run_cli([
            "evaluate", "--model", str(teacher), "--test", str(root / "test.tsv"), "--pool", "all",
        ])
        assert status == 1
        err = capsys.readouterr().err
        assert f"{entity_sidecar(teacher)}: {g.n_entities + 1} entity labels" in err
        assert f"{g.n_entities} entity rows" in err

    def test_non_integer_sidecar_id(self, workspace, tmp_path, capsys):
        root, g, _ = workspace
        teacher = tmp_path / "teacher.kgex"
        model = init_model("distmult", 2, g.n_entities, g.n_relations, seed=0)
        save_model(model, teacher, g.entity_vocab, g.relation_vocab)
        sidecar = relation_sidecar(teacher)
        lines = sidecar.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = lines[1].split("\t")[0] + "\tone\n"
        sidecar.write_text("".join(lines), encoding="utf-8")
        status = run_cli([
            "evaluate", "--model", str(teacher), "--test", str(root / "test.tsv"), "--pool", "all",
        ])
        assert status == 1
        assert f"{sidecar}:2: bad id 'one'" in capsys.readouterr().err

    def test_explain_rejects_teacher_with_other_vocabularies(self, workspace, tmp_path, capsys):
        root, g, _ = workspace
        teacher = tmp_path / "teacher.kgex"
        save_model(init_model("distmult", 2, g.n_entities, g.n_relations, seed=0), teacher,
                   g.entity_vocab, g.relation_vocab)
        # the same triples in reversed line order: same table sizes, other ids
        lines = (root / "train.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
        graph = tmp_path / "reversed.tsv"
        graph.write_text("".join(reversed(lines)), encoding="utf-8")
        out = tmp_path / "report.tsv"
        status = run_cli([
            "explain", "--teacher", str(teacher), "--graph", str(graph),
            "--target", label_target(g, g.triples[0]), "--mc-runs", "1", "--epochs", "1",
            "--seed", "1", "--out", str(out),
        ])
        assert status == 1
        assert f"{entity_sidecar(teacher)}: " in capsys.readouterr().err
        assert not out.exists()

    def test_bad_target_label(self, workspace, capsys):
        root, _, _ = workspace
        status = run_cli([
            "sample-subgraph", "--graph", str(root / "train.tsv"),
            "--target", "nosuch r0 e1", "--out", str(root / "x.tsv"), "--seed", "1",
        ])
        assert status == 1
        assert "unknown entity" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sample-subgraph", "explain"])
    def test_tab_separated_target_labels_may_hold_spaces(self, tmp_path, command):
        """A graph's labels are tab-separated, so they may hold spaces; a target
        with a tab splits on tabs alone."""
        graph = tmp_path / "train.tsv"
        rows = ["New York\tin\tUSA", "Paris\tin\tFrance", "New York\tnear\tBoston", "Boston\tin\tUSA",
                "USA\tnear\tFrance", "Paris\tnear\tNew York"]
        graph.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
        g, teacher, out = load_graph(graph), tmp_path / "teacher.kgex", tmp_path / "out.tsv"
        save_model(init_model("distmult", 2, g.n_entities, g.n_relations, seed=0), teacher, g.entity_vocab,
                   g.relation_vocab)
        options = {"sample-subgraph": [], "explain": ["--teacher", str(teacher), "--mc-runs", "2", "--partitions",
                                                      "2", "--k", "2", "--epochs", "2"]}
        assert run_cli([
            command, "--graph", str(graph), "--target", "New York\tin\tUSA", *options[command],
            "--method", "pn", "--n", "2", "--seed", "1", "--out", str(out),
        ]) == 0
        manifest = json.loads((tmp_path / "out.tsv.manifest.json").read_text())
        assert manifest["config"]["target"] == "New York\tin\tUSA"
        if command == "sample-subgraph":
            assert "# target\tNew York\tin\tUSA\n" in out.read_text(encoding="utf-8")
        else:
            assert "New York" in out.read_text(encoding="utf-8")

    def test_config_file_precedence(self, workspace, tmp_path):
        root, _, _ = workspace
        config = tmp_path / "kgex.conf"
        config.write_text("epochs = 5\nk = 6\nlr = 0.05\n", encoding="utf-8")
        out = tmp_path / "m.kgex"
        status = run_cli([
            "train", "--graph", str(root / "train.tsv"), "--config", str(config),
            "--k", "3", "--seed", "1", "--out", str(out),
        ])
        assert status == 0
        model, _, _ = load_model(out)
        assert model.k == 3  # CLI wins over the config file
        manifest = json.loads((out.parent / "m.kgex.manifest.json").read_text())
        assert manifest["config"]["epochs"] == 5  # config file wins over default
        assert manifest["config"]["lr"] == 0.05

    def test_threads_env_fallback(self, pipeline, tmp_path, monkeypatch):
        root, g, held_out = pipeline
        ev, rv = g.entity_vocab, g.relation_vocab
        s, p, o = map(int, held_out[4])
        target = f"{ev.label_of(s)} {rv.label_of(p)} {ev.label_of(o)}"
        monkeypatch.setenv("KGEX_THREADS", "2")
        out = tmp_path / "env_report.tsv"
        status = run_cli([
            "explain", "--teacher", str(root / "teacher.kgex"), "--graph", str(root / "train.tsv"),
            "--target", target, "--method", "pn", "--n", "1", "--mc-runs", "2",
            "--partitions", "2", "--k", "4", "--epochs", "10", "--seed", "51",
            "--out", str(out),
        ])
        assert status == 0
        manifest = json.loads((tmp_path / "env_report.tsv.manifest.json").read_text())
        assert manifest["config"]["threads"] == 2

    def test_threads_below_one_rejected(self, workspace, tmp_path, monkeypatch, capsys):
        root, g, held_out = workspace
        teacher = tmp_path / "teacher.kgex"
        model = init_model("distmult", 2, g.n_entities, g.n_relations, seed=0)
        # the vocabularies explain reads from train.tsv, in its first-appearance order
        loaded = load_graph(root / "train.tsv")
        save_model(model, teacher, loaded.entity_vocab, loaded.relation_vocab)
        ev, rv = g.entity_vocab, g.relation_vocab
        s, p, o = map(int, held_out[4])
        base = [
            "explain", "--teacher", str(teacher), "--graph", str(root / "train.tsv"),
            "--target", f"{ev.label_of(s)} {rv.label_of(p)} {ev.label_of(o)}",
            "--mc-runs", "2", "--partitions", "2", "--seed", "1",
            "--out", str(tmp_path / "report.tsv"),
        ]
        assert run_cli(base + ["--threads", "0"]) == 1
        assert "threads must be >= 1" in capsys.readouterr().err
        monkeypatch.setenv("KGEX_THREADS", "0")
        assert run_cli(base) == 1
        assert "threads must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "report.tsv").exists()

    def test_threads_variable_not_an_integer_named(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("KGEX_THREADS", "abc")
        status = run_cli([
            "explain", "--teacher", "missing.kgex", "--graph", "missing.tsv", "--target", "a r b",
            "--seed", "1", "--out", "out",
        ])
        assert status == 1
        assert "kgex explain: error: KGEX_THREADS must be an integer, got 'abc'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_missing_seed_is_drawn_and_recorded(self, workspace, tmp_path, capsys):
        root, _, _ = workspace
        out = tmp_path / "m.kgex"
        status = run_cli([
            "train", "--graph", str(root / "train.tsv"), "--epochs", "2",
            "--k", "2", "--out", str(out),
        ])
        assert status == 0
        assert "drew seed" in capsys.readouterr().err
        manifest = json.loads(json.dumps(json.loads((tmp_path / "m.kgex.manifest.json").read_text())))
        assert isinstance(manifest["config"]["seed"], int)

    def test_config_file_seed_reproduces_and_is_recorded(self, workspace, tmp_path, capsys):
        root, _, _ = workspace
        config = tmp_path / "kgex.conf"
        config.write_text("seed = 3\nepochs = 2\nk = 2\n", encoding="utf-8")
        outs = [tmp_path / "a.kgex", tmp_path / "b.kgex"]
        for out in outs:
            argv = ["train", "--graph", str(root / "train.tsv"), "--config", str(config)]
            assert run_cli(argv + ["--out", str(out)]) == 0
            manifest = json.loads((tmp_path / f"{out.name}.manifest.json").read_text())
            assert manifest["config"]["seed"] == 3
            assert manifest["inputs"][str(config)] == file_digest(config)
        assert "drew seed" not in capsys.readouterr().err
        assert file_digest(outs[0]) == file_digest(outs[1])

    def test_config_file_threads(self, pipeline, tmp_path, monkeypatch):
        root, g, held_out = pipeline
        monkeypatch.delenv("KGEX_THREADS", raising=False)
        config = tmp_path / "kgex.conf"
        config.write_text("threads = 2\n", encoding="utf-8")
        status = run_cli([
            "explain", "--teacher", str(root / "teacher.kgex"), "--graph", str(root / "train.tsv"),
            "--target", label_target(g, held_out[4]), "--method", "pn", "--n", "1",
            "--mc-runs", "2", "--partitions", "2", "--k", "4", "--epochs", "10", "--seed", "51",
            "--config", str(config), "--out", str(tmp_path / "report.tsv"),
        ])
        assert status == 0
        manifest = json.loads((tmp_path / "report.tsv.manifest.json").read_text())
        assert manifest["config"]["threads"] == 2

    def test_unknown_config_key_rejected(self, workspace, tmp_path, capsys):
        root, _, _ = workspace
        config = tmp_path / "kgex.conf"
        # mc_runs is an explain option: allowed in a file that train also reads
        config.write_text("mc_runs = 4\nepoch = 2\n", encoding="utf-8")
        status = run_cli([
            "train", "--graph", str(root / "train.tsv"), "--config", str(config),
            "--seed", "1", "--out", str(tmp_path / "m.kgex"),
        ])
        assert status == 1
        assert f"{config}:2: unknown option 'epoch'" in capsys.readouterr().err
        assert not (tmp_path / "m.kgex").exists()

    @pytest.mark.parametrize("line", ["weights = maybe", "k = abc", "model = foo"])
    def test_bad_config_value_rejected(self, tmp_path, capsys, line):
        config = tmp_path / "kgex.conf"
        config.write_text(f"epochs = 2\n{line}\n", encoding="utf-8")
        key, _, raw = (part.strip() for part in line.partition("="))
        # the graph does not exist: the value is rejected before any input is read
        status = run_cli([
            "train", "--graph", str(tmp_path / "missing.tsv"), "--config", str(config),
            "--seed", "1", "--out", str(tmp_path / "m.kgex"),
        ])
        assert status == 1
        assert f"{config}:2: bad value for {key!r}: {raw!r}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize("command, options, message", [
        ("explain", ["--threads", "0"], "threads must be >= 1"),
        ("explain", ["--kd-lambda", "-1"], "kd_lambda must be finite and >= 0"),
        ("explain", ["--partitions", "1"], "partitions must be >= 2"),
        ("train", ["--epochs", "0"], "epochs must be >= 1"),
        ("train", ["--k", "0"], "embedding dimensionality must be >= 1"),
        ("train", ["--focuse", "--focuse-decay", "-1"], "decay must be >= 0"),
        ("train", ["--focuse", "--focuse-decay", "nan"], "decay must be >= 0"),
        ("train", ["--lr", "nan"], "learning rate must be > 0"),
        ("explain", ["--lr", "nan"], "learning rate must be > 0"),
        ("train", ["--gamma", "nan"], "gamma must be finite and >= 0"),
        ("distill-train", ["--kd-lambda", "nan"], "kd_lambda must be finite and >= 0"),
        ("sample-subgraph", ["--n", "-1"], "neighbor/step count must be >= 0"),
    ])
    def test_bad_option_rejected_before_inputs(self, tmp_path, monkeypatch, capsys, command, options, message):
        # no input exists: the value must be reported first, and nothing written
        monkeypatch.chdir(tmp_path)
        inputs = {
            "train": ["--graph", "missing.tsv"],
            "distill-train": ["--teacher", "missing.kgex", "--subgraph", "missing.tsv"],
            "sample-subgraph": ["--graph", "missing.tsv", "--target", "a r b"],
            "explain": ["--teacher", "missing.kgex", "--graph", "missing.tsv", "--target", "a r b"],
        }
        assert run_cli([command, *inputs[command], *options, "--seed", "1", "--out", "out"]) == 1
        err = capsys.readouterr().err
        assert f"kgex {command}: error: {message}" in err
        assert "No such file" not in err
        assert list(tmp_path.iterdir()) == []

    def test_option_strings_pinned(self):
        commands = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        assert set(commands.choices) == set(OPTION_STRINGS)
        for name, expected in OPTION_STRINGS.items():
            actions = commands.choices[name]._actions
            got = [flag for a in actions for flag in a.option_strings if flag not in ("-h", "--help")]
            assert sorted(got) == sorted(expected.split()), name
