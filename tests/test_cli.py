import gc
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import threading
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import holdscan
from holdscan import cli, tuning
from holdscan.cli import run_cli
from holdscan.classifier import Checkpoint, FeatureSpec, save_checkpoint, write_proba
from holdscan.corpus import (
    Call,
    PhraseTurn,
    generate_synthetic,
    ingest_transcripts,
    load_fold_plan,
    write_transcripts,
)

from conftest import corpus_from_labels, tree_bytes

HEADER = "call_id,turn_index,channel,start_ms,end_ms,text,label\n"


def run(argv):
    """Invoke the CLI in-process; return the exit code."""
    try:
        run_cli(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    return 0


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """A small synthetic corpus written to disk once for all CLI tests."""
    out = tmp_path_factory.mktemp("corpus")
    code = run(["generate", "--calls", "60", "--seed", "11", "--out-dir", str(out)])
    assert code == 0
    return out


def smoothed_gold_proba(corpus, path):
    """Predictions file derived from gold labels, slightly off one-hot."""
    probs = np.full((corpus.n_turns(), 3), 0.05)
    probs[np.arange(corpus.n_turns()), corpus.table.label] = 0.9
    write_proba(path, corpus.table.keys, probs)


class TestValidate:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "ok.csv"
        path.write_text(HEADER + "a,0,agent,0,1000,hello,0\n")
        assert run(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "calls: 1" in out
        assert "rows per class" in out

    def test_clean_file_is_read_once(self, tmp_path):
        """A clean file, one with a bad row and one with a bad header: each
        is opened once, whether it is summarized or its errors are listed."""
        files = {
            "ok.csv": (HEADER + "a,0,agent,0,1000,hello,0\n", 0),
            "bad_label.csv": (HEADER + "a,0,agent,0,1000,hello,7\na,1,agent,1000,2000,x,0\n", 2),
            "no_text.csv": (HEADER.replace(",text", "") + "a,0,agent,0,1000,0\n", 2),
        }
        for name, (content, code) in files.items():
            path = tmp_path / name
            path.write_text(content)
            with mock.patch("builtins.open", wraps=open) as opened:
                assert run(["validate", str(path)]) == code, name
            assert [c.args[0] for c in opened.call_args_list].count(str(path)) == 1, name

    def test_bad_row_exits_two_and_names_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(HEADER + "a,0,agent,0,1000,hello,0\na,1,agent,9000,2000,bad,0\n")
        assert run(["validate", str(path)]) == 2
        assert "line 3" in capsys.readouterr().out

    @pytest.mark.parametrize("content", ["", "# only a comment\n\n"], ids=["empty", "comment_only"])
    def test_headerless_file_names_line_one(self, tmp_path, capsys, content):
        path = tmp_path / "headerless.csv"
        path.write_text(content)
        assert run(["validate", str(path)]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "line 1: file has no header row",
            "1 invalid row(s)",
        ]

    def test_header_without_a_required_column_names_line_one(self, tmp_path, capsys):
        path = tmp_path / "no_text.csv"
        path.write_text(HEADER.replace(",text", "") + "a,0,agent,0,1000,0\n")
        assert run(["validate", str(path)]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "line 1: missing required column(s): text",
            "1 invalid row(s)",
        ]

    def test_nonexistent_path_exits_one(self, tmp_path):
        assert run(["validate", str(tmp_path / "missing.csv")]) == 1

    def test_names_every_call_with_a_bad_turn_order(self, tmp_path, capsys):
        path = tmp_path / "order.csv"
        path.write_text(HEADER + "a,0,agent,0,10,x,0\na,1,agent,20,30,x,0\n"
                        "a,1,agent,40,50,x,0\nb,0,client,0,10,x,0\n"
                        "b,1,client,30,40,x,0\nb,2,client,20,25,x,0\n")
        assert run(["validate", str(path)]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "line 4: call 'a': duplicate turn_index 1",
            "line 7: call 'b': start_ms decreases along turn_index order",
            "2 invalid row(s)",
        ]


class TestStats:
    def test_emits_plot_data(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "stats"
        code = run(["stats", "--transcripts", str(corpus_dir / "transcripts.csv"),
                    "--out-dir", str(out)])
        assert code == 0
        for name in ("rows_per_call.csv", "words_per_row.csv", "script_count_matrix.csv"):
            assert (out / name).exists()
        # words-per-row partitions the rows exactly once
        corpus = ingest_transcripts(corpus_dir / "transcripts.csv")
        lines = (out / "words_per_row.csv").read_text().splitlines()[2:]
        total = sum(int(line.split(",")[2]) for line in lines)
        assert total == corpus.n_turns()

    def test_single_call_histogram(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text(HEADER + "a,0,agent,0,1000,x,0\na,1,agent,1500,2000,y z,0\n"
                        "a,2,agent,2500,3000,w,0\n")
        out = tmp_path / "stats"
        assert run(["stats", "--transcripts", str(path), "--out-dir", str(out)]) == 0
        body = (out / "rows_per_call.csv").read_text().splitlines()[2:]
        assert body == ["3,1"]


class TestGenerate:
    def test_artifacts_exist(self, corpus_dir):
        assert (corpus_dir / "transcripts.csv").exists()
        assert (corpus_dir / "holds.csv").exists()
        ledger = json.loads((corpus_dir / "violations.json").read_text())
        assert "violations" in ledger and ledger["tool_version"]

    def test_seed_required(self, tmp_path):
        assert run(["generate", "--calls", "5", "--out-dir", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize("profile, digests", [
        (None, {
            "transcripts.csv": "b6ee50b2150be55bd876f02fae66009ea3b9066d331cfdb518a0b537b465cb93",
            "holds.csv": "6e92f545a3a61f847e2005f660e91a4e7342a8e7a5b396d1ff73f9f46fef20c5",
            "violations.json": "45d18a6fce461aebbb4d949e84509a9609b9160c82ecd9dcd88b445478a17809",
        }),
        ("rows_per_call_median = 12\nunregistered_rate = 0.3\nbare_hold_rate = 0.2\n"
         "quarantine_ms = 25000\njoint_counts = 5 3 1; 4 6 2; 1 2 3\n", {
            "transcripts.csv": "5feafabd5ff019eaeb03c0390d6a1b7b00ef68acb45833d010328d22c3e673cb",
            "holds.csv": "60ce5eb9119740bebbf0d2fd3779b920471fe7d4b255e7958dff05947fa10561",
            "violations.json": "98cb10c677c72a45b3767afc172ea70e5e1625a41b41f496bbbbc586289c8b4f",
        }),
    ], ids=["default", "profile"])
    def test_bytes_are_pinned(self, tmp_path, profile, digests):
        """generate --calls 60 --seed 7 writes the same bytes as every earlier
        version, with the default profile and with a profile file."""
        args = ["generate", "--calls", "60", "--seed", "7", "--out-dir", str(tmp_path / "out")]
        if profile:
            (tmp_path / "profile.txt").write_text(profile, encoding="utf-8")
            args += ["--profile", str(tmp_path / "profile.txt")]
        assert run(args) == 0
        assert {name: hashlib.sha256(data).hexdigest()
                for name, data in tree_bytes(tmp_path / "out").items()} == digests


class TestSplitTrainPredict:
    def test_split_writes_plan(self, corpus_dir, tmp_path):
        plan_file = tmp_path / "plan.json"
        code = run(["split", "--transcripts", str(corpus_dir / "transcripts.csv"),
                    "--folds", "4", "--seed", "3", "--out", str(plan_file)])
        assert code == 0
        plan = json.loads(plan_file.read_text())
        assert plan["k"] == 4
        corpus = ingest_transcripts(corpus_dir / "transcripts.csv")
        assert len(plan["assignment"]) == corpus.n_turns()

    @pytest.mark.parametrize("case", ["fewer_calls_than_folds", "unbalanced_fold"])
    def test_infeasible_call_grouped_split_exits_two(self, tmp_path, capsys, case):
        transcripts = tmp_path / "transcripts.csv"
        if case == "fewer_calls_than_folds":
            assert run(["generate", "--calls", "6", "--seed", "11", "--out-dir", str(tmp_path)]) == 0
            folds, want = "10", "cannot spread 6 calls over 10 folds"
        else:
            write_transcripts(corpus_from_labels({"a": [1, 0], "b": [0, 0, 0]}), transcripts)
            folds, want = "2", "fold 0 class 0 proportion 0.5000 deviates 38% from global 0.8000"
        capsys.readouterr()
        code = run(["split", "--transcripts", str(transcripts), "--split-mode", "call_grouped",
                    "--folds", folds, "--seed", "1", "--out", str(tmp_path / "plan.json")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {want}\n"
        assert not (tmp_path / "plan.json").exists()

    def test_train_then_predict_then_tune_then_evaluate(self, corpus_dir, tmp_path, capsys):
        transcripts = str(corpus_dir / "transcripts.csv")
        model = tmp_path / "model.npz"
        code = run(["train", "--transcripts", transcripts, "--folds", "4", "--seed", "3",
                    "--val-fold", "1", "--hash-dim", "2048", "--epochs", "2",
                    "--model-out", str(model)])
        assert code == 0
        assert model.exists()

        proba = tmp_path / "proba.csv"
        assert run(["predict", "--model", str(model), "--transcripts", transcripts,
                    "--out", str(proba)]) == 0
        assert proba.exists()

        threshold_file = tmp_path / "threshold.json"
        assert run(["tune-threshold", "--transcripts", transcripts, "--proba", str(proba),
                    "--folds", "4", "--seed", "3", "--out", str(threshold_file)]) == 0
        threshold = json.loads(threshold_file.read_text())["shared_threshold"]

        metrics_file = tmp_path / "metrics.json"
        assert run(["evaluate", "--transcripts", transcripts, "--proba", str(proba),
                    "--threshold", str(threshold), "--out", str(metrics_file)]) == 0
        metrics = json.loads(metrics_file.read_text())["metrics"]
        assert 0.0 <= metrics["f1_macro"] <= 1.0

    def test_model_out_is_written_at_the_path_given(self, corpus_dir, tmp_path):
        """A --model-out path without the .npz suffix is the file predict reads."""
        transcripts = str(corpus_dir / "transcripts.csv")
        model = tmp_path / "fold_1.model"
        assert run(["train", "--transcripts", transcripts, "--folds", "4", "--seed", "3",
                    "--val-fold", "1", "--hash-dim", "2048", "--epochs", "1",
                    "--model-out", str(model)]) == 0
        assert [p.name for p in tmp_path.iterdir()] == [model.name]
        assert run(["predict", "--model", str(model), "--transcripts", transcripts,
                    "--out", str(tmp_path / "proba.csv")]) == 0

    @pytest.mark.parametrize("split_mode", ["row", "call_grouped"])
    def test_train_writes_the_pipeline_fold_model(self, corpus_dir, tmp_path, split_mode):
        transcripts = str(corpus_dir / "transcripts.csv")
        flags = ["--transcripts", transcripts, "--folds", "4", "--seed", "3",
                 "--split-mode", split_mode, "--hash-dim", "2048", "--epochs", "2"]
        model = tmp_path / "model.npz"
        assert run(["train", *flags, "--val-fold", "1", "--model-out", str(model)]) == 0
        assert run(["pipeline", *flags, "--out-dir", str(tmp_path / "run")]) == 0
        assert model.read_bytes() == (tmp_path / "run" / "models" / "fold_1.npz").read_bytes()

    @pytest.mark.parametrize("damage", ["weights_for_other_hash_dim", "two_element_bias",
                                        "no_meta", "no_epoch", "no_validation_auc",
                                        "no_feature_spec", "unknown_spec_key", "no_spec_key",
                                        "meta_is_a_list", "null_epoch", "list_validation_auc",
                                        "string_hash_dim", "string_weights", "truncated_file",
                                        "empty_file", "unsorted_columns", "duplicate_columns",
                                        "negative_column", "column_at_hash_dim",
                                        "float_columns", "two_dim_columns",
                                        "columns_longer_than_weights", "no_columns",
                                        "format_version_1", "hash_dim_above_2_24",
                                        "nan_weight", "inf_bias"])
    def test_malformed_model_file_exits_two(self, corpus_dir, tmp_path, damage, capsys):
        spec = FeatureSpec(hash_dim=4096)
        model = tmp_path / "model.npz"
        save_checkpoint(model, Checkpoint(epoch=1, columns=np.array([3, 17, 900, 4095]),
                                          weights=np.ones((4, 3)), bias=np.zeros(3),
                                          validation_auc=0.5, feature_spec=spec))
        with np.load(model) as bundle:
            arrays = dict(bundle)
        bad_columns = {"unsorted_columns": [3, 900, 17, 4095], "duplicate_columns": [3, 17, 17, 900],
                       "negative_column": [-1, 17, 900, 4095], "column_at_hash_dim": [3, 17, 900, 4096],
                       "float_columns": [3.0, 17.0, 900.0, 4095.0],
                       "two_dim_columns": [[3, 17], [900, 4095]],
                       "columns_longer_than_weights": [3, 17, 900, 1000, 4095]}
        if damage in bad_columns:
            arrays["columns"] = np.array(bad_columns[damage])
        elif damage == "weights_for_other_hash_dim":
            arrays["weights"] = np.zeros((1024, 3))
        elif damage == "two_element_bias":
            arrays["bias"] = np.zeros(2)
        elif damage == "string_weights":
            arrays["weights"] = np.full((4, 3), "x")
        elif damage == "nan_weight":
            arrays["weights"][2, 1] = np.nan
        elif damage == "inf_bias":
            arrays["bias"][0] = -np.inf
        elif damage in ("no_meta", "no_columns"):
            del arrays[damage.removeprefix("no_")]
        else:
            meta = json.loads(arrays["meta"].tobytes())
            if damage == "format_version_1":
                # A format 1 file: dense (hash_dim, 3) weights and no columns.
                meta["format_version"] = 1
                del arrays["columns"]
                arrays["weights"] = np.zeros((4096, 3))
            elif damage == "unknown_spec_key":
                meta["feature_spec"]["ngram_step"] = 1
            elif damage == "no_spec_key":
                del meta["feature_spec"]["max_tokens"]
            elif damage == "meta_is_a_list":
                meta = [meta]
            elif damage == "null_epoch":
                meta["epoch"] = None
            elif damage == "list_validation_auc":
                meta["validation_auc"] = [1]
            elif damage == "string_hash_dim":
                meta["feature_spec"]["hash_dim"] = "abc"
            elif damage == "hash_dim_above_2_24":
                meta["feature_spec"]["hash_dim"] = 2 ** 25
            elif damage.startswith("no_"):
                del meta[damage.removeprefix("no_")]
            arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez_compressed(model, **arrays)
        if damage == "truncated_file":
            model.write_bytes(model.read_bytes()[:-100])
        elif damage == "empty_file":
            model.write_bytes(b"")
        code = run(["predict", "--model", str(model),
                    "--transcripts", str(corpus_dir / "transcripts.csv"),
                    "--out", str(tmp_path / "proba.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(model) in err
        if damage == "format_version_1":
            assert "unsupported model format version 1" in err
        if damage == "hash_dim_above_2_24":
            assert "hash_dim must be a power of two from 1024 to 16777216" in err

    @pytest.mark.parametrize("fold", ["99", "-1"])
    def test_evaluate_rejects_fold_outside_plan(self, corpus_dir, tmp_path, fold, capsys):
        transcripts = str(corpus_dir / "transcripts.csv")
        proba = tmp_path / "proba.csv"
        smoothed_gold_proba(ingest_transcripts(transcripts), proba)
        code = run(["evaluate", "--transcripts", transcripts, "--proba", str(proba),
                    "--threshold", "0.5", "--folds", "4", "--seed", "3", "--fold", fold])
        assert code == 1
        assert "--fold must be in [0, 4)" in capsys.readouterr().err


class TestAudit:
    def test_gold_audit_matches_ledger(self, corpus_dir, tmp_path, capsys):
        report_file = tmp_path / "report.json"
        code = run(["audit", "--transcripts", str(corpus_dir / "transcripts.csv"),
                    "--holds", str(corpus_dir / "holds.csv"), "--gold",
                    "--out", str(report_file)])
        assert code == 0
        report = json.loads(report_file.read_text())
        ledger = json.loads((corpus_dir / "violations.json").read_text())["violations"]
        assert sum(report["summary"].values()) == len(ledger)

    def test_proba_audit(self, corpus_dir, tmp_path):
        corpus = ingest_transcripts(corpus_dir / "transcripts.csv")
        proba = tmp_path / "proba.csv"
        smoothed_gold_proba(corpus, proba)
        code = run(["audit", "--transcripts", str(corpus_dir / "transcripts.csv"),
                    "--holds", str(corpus_dir / "holds.csv"),
                    "--proba", str(proba), "--threshold", "0.5"])
        assert code == 0

    def test_overlapping_holds_exit_two_and_name_the_row(self, corpus_dir, tmp_path, capsys):
        call_id = ingest_transcripts(corpus_dir / "transcripts.csv").calls[0].call_id
        holds = tmp_path / "holds.csv"
        holds.write_text(f"call_id,hold_start_ms,hold_end_ms\n{call_id},9000,12000\n"
                         f"{call_id},1000,2000\n{call_id},1500,3000\n")
        code = run(["audit", "--transcripts", str(corpus_dir / "transcripts.csv"),
                    "--holds", str(holds), "--gold"])
        assert code == 2
        assert capsys.readouterr().err == f"error: line 4: call {call_id!r}: overlapping holds\n"

    @pytest.mark.parametrize("fmt", ["holds", "proba"])
    def test_integer_outside_int64_exits_two(self, corpus_dir, tmp_path, capsys, fmt):
        corpus = ingest_transcripts(corpus_dir / "transcripts.csv")
        call_id = corpus.table.call_ids[0]
        holds, proba = corpus_dir / "holds.csv", tmp_path / "proba.csv"
        smoothed_gold_proba(corpus, proba)
        if fmt == "holds":
            holds = tmp_path / "holds.csv"
            holds.write_text(f"call_id,hold_start_ms,hold_end_ms\n{call_id},0,1000\n"
                             f"{call_id},5000,99999999999999999999\n")
        else:
            proba.write_text(f"{proba.read_text()}{call_id},99999999999999999999,0.5,0.25,0.25\n")
        line = len((holds if fmt == "holds" else proba).read_text().splitlines())
        code = run(["audit", "--transcripts", str(corpus_dir / "transcripts.csv"),
                    "--holds", str(holds), "--proba", str(proba), "--threshold", "0.5"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: line {line}: integer field outside the 64-bit range\n")

    def test_needs_gold_or_proba(self, corpus_dir, tmp_path):
        """--gold or --proba with a threshold, not both, checked before the
        files are read; under --gold a threshold, from a flag or a config
        file, is ignored."""
        transcripts = str(corpus_dir / "transcripts.csv")
        args = ["audit", "--transcripts", transcripts, "--holds", str(corpus_dir / "holds.csv")]
        proba = tmp_path / "proba.csv"
        smoothed_gold_proba(ingest_transcripts(transcripts), proba)
        config = tmp_path / "run.cfg"
        config.write_text("threshold = 0.5\n")
        assert run(args) == 1
        assert run([*args, "--proba", str(proba)]) == 1
        assert run([*args, "--gold", "--proba", str(proba)]) == 1
        assert run([*args, "--gold", "--proba", str(proba), "--threshold", "0.5"]) == 1
        assert run([*args, "--gold", "--threshold", "0.5"]) == 0
        assert run([*args, "--gold", "--config", str(config)]) == 0
        bad = tmp_path / "bad.csv"
        bad.write_text(HEADER + "a,0,agent,0,1000,hi,7\n")
        args[2] = str(bad)
        assert run(args) == 1
        assert run([*args, "--gold", "--proba", str(proba)]) == 1
        assert run([*args, "--gold"]) == 2

    def test_gold_audit_of_an_unlabeled_turn_names_the_turn(self, tmp_path, capsys):
        transcripts, holds = tmp_path / "t.csv", tmp_path / "h.csv"
        transcripts.write_text(HEADER + "a,0,agent,0,1000,hello,\na,1,client,1500,2500,hi,\n")
        holds.write_text("call_id,hold_start_ms,hold_end_ms\na,3000,9000\n")
        code = run(["audit", "--transcripts", str(transcripts), "--holds", str(holds), "--gold"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: turn ('a', 0) has no label; --gold needs a labeled transcript\n")


class TestPipeline:
    def test_artifacts_and_determinism(self, tmp_path):
        args = ["pipeline", "--synthetic-calls", "80", "--seed", "21", "--folds", "4",
                "--hash-dim", "2048", "--epochs", "2"]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run(args + ["--out-dir", str(out_a)]) == 0
        assert run(args + ["--out-dir", str(out_b)]) == 0
        for name in ("fold_plan.json", "shared_threshold.json", "metrics.json",
                     "results_table.txt"):
            assert (out_a / name).exists()
        assert (out_a / "models").is_dir()
        artifacts = tree_bytes(out_a)
        assert sum(name.startswith("models/") for name in artifacts) == 3
        assert artifacts == tree_bytes(out_b)
        assert artifacts["fold_plan.json"].count(b"\n") == 1  # written without indentation
        payload = json.loads((out_a / "metrics.json").read_text())
        assert payload["mode"] == "trained"
        assert len(payload["per_fold_test_metrics"]) == 3

    def test_pool_and_in_process_trees_are_identical(self, tmp_path):
        """Pooled and in-process runs write the same bytes; the unmocked run
        takes its worker count from this process's CPU affinity."""
        args = ["pipeline", "--synthetic-calls", "80", "--seed", "23", "--folds", "4",
                "--hash-dim", "2048", "--epochs", "2"]
        for workers in (2, 1):
            with mock.patch.object(tuning, "_worker_count", return_value=workers):
                assert run(args + ["--out-dir", str(tmp_path / f"w{workers}")]) == 0
        assert run(args + ["--out-dir", str(tmp_path / "affinity")]) == 0
        artifacts = tree_bytes(tmp_path / "w2")
        assert sum(name.startswith("models/") for name in artifacts) == 3
        assert artifacts == tree_bytes(tmp_path / "w1") == tree_bytes(tmp_path / "affinity")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_model_write_exits_one(self, tmp_path, capsys, workers):
        """A model file that cannot be written, after a pooled or in-process
        run, is a clean exit 1 with no thread left, and the run leaves
        --out-dir as it was."""
        out = tmp_path / "out"
        out.mkdir()

        def save_refused(path, *a, **kw):
            if Path(path).name == "fold_2.npz":
                raise IsADirectoryError(21, "Is a directory", str(path))
            save_checkpoint(path, *a, **kw)

        threads = threading.active_count()
        with mock.patch.object(tuning, "_worker_count", return_value=workers), \
                mock.patch.object(cli, "save_checkpoint", save_refused):
            code = run(["pipeline", "--synthetic-calls", "80", "--seed", "23", "--folds", "4",
                        "--hash-dim", "2048", "--epochs", "1", "--out-dir", str(out)])
        assert code == 1
        assert list(out.iterdir()) == []
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 21] Is a directory: ")
        assert "fold_2.npz" in err
        assert "Traceback" not in err
        assert threading.active_count() == threads

    @pytest.mark.parametrize("second", ["external", "trained"])
    def test_failed_run_keeps_an_earlier_runs_files(self, tmp_path, second):
        """A run that fails in a directory holding a finished trained run,
        here after writing two fold models before a full disk stopped it,
        leaves every earlier file byte for byte and no staging directory."""
        corpus, _ = generate_synthetic(50, 5)
        transcripts = tmp_path / "t.csv"
        write_transcripts(corpus, transcripts)
        out = tmp_path / "out"
        args = ["pipeline", "--transcripts", str(transcripts), "--folds", "4", "--seed", "9",
                "--out-dir", str(out)]
        trained = ["--hash-dim", "2048", "--epochs", "1"]
        assert run(args + trained) == 0
        earlier = tree_bytes(out)
        test_fold = json.loads((out / "metrics.json").read_text())["test_fold"]
        models = [f"models/fold_{v}.npz" for v in range(4) if v != test_fold]
        assert set(models) < set(earlier)
        if second == "external":
            proba = tmp_path / "p.csv"
            smoothed_gold_proba(corpus, proba)
            lines = proba.read_text().splitlines(keepends=True)
            proba.write_text("".join(lines[:-1]))  # the last turn has no prediction
            assert run(args + ["--external-proba", str(proba)]) == 2
        else:
            def save_until_disk_full(path, *a, **kw):
                if Path(path).name == Path(models[-1]).name:
                    raise OSError(28, "No space left on device")
                save_checkpoint(path, *a, **kw)

            with mock.patch.object(tuning, "_worker_count", return_value=1), \
                    mock.patch.object(cli, "save_checkpoint", save_until_disk_full):
                assert run(args + trained) == 1
        assert tree_bytes(out) == earlier
        assert not list(out.glob(".run-*"))

    def test_out_dir_holds_only_the_last_run(self, tmp_path):
        """A k=4 run over a k=10 run's directory leaves what a fresh k=4 run
        leaves, an interrupted run changes nothing, and an external run
        removes models/ and keeps files the pipeline does not write. No
        staging directory outlives a run."""
        corpus, _ = generate_synthetic(50, 5)
        transcripts = tmp_path / "t.csv"
        write_transcripts(corpus, transcripts)
        out = tmp_path / "out"
        args = ["pipeline", "--transcripts", str(transcripts), "--seed", "9"]
        trained = args + ["--hash-dim", "2048", "--epochs", "1"]

        def files(root):
            assert not list(root.glob(".run-*"))
            return tree_bytes(root)

        assert run(trained + ["--folds", "10", "--out-dir", str(out)]) == 0
        assert run(trained + ["--folds", "4", "--out-dir", str(out)]) == 0
        assert run(trained + ["--folds", "4", "--out-dir", str(tmp_path / "fresh")]) == 0
        earlier = files(out)
        assert earlier == files(tmp_path / "fresh")
        with mock.patch.object(cli, "run_cross_validation", side_effect=KeyboardInterrupt):
            assert run(trained + ["--folds", "4", "--out-dir", str(out)]) == 1
        assert files(out) == earlier
        proba = out / "p.csv"
        smoothed_gold_proba(corpus, proba)
        assert run(args + ["--folds", "4", "--external-proba", str(proba),
                           "--out-dir", str(out)]) == 0
        assert set(files(out)) == {"p.csv", "fold_plan.json", "shared_threshold.json",
                                   "metrics.json", "results_table.txt"}
        assert not (out / "models").exists()

    @pytest.mark.parametrize("command", ["pipeline", "sweep"])
    def test_dead_fold_worker_exits_one(self, tmp_path, capsys, monkeypatch, command):
        """A fold worker that dies, as an OOM kill would end it, ends the run
        with one error line and exit 1, and leaves no worker running."""
        parent = os.getpid()

        def die(*args, **kwargs):
            assert os.getpid() != parent, "the fold model was trained in-process"
            os._exit(9)

        monkeypatch.setattr(tuning, "_fold_model", die)  # the forked workers inherit it
        args = [command, "--synthetic-calls", "40", "--seed", "23", "--folds", "4",
                "--hash-dim", "2048", "--epochs", "1", "--out-dir", str(tmp_path / "out")]
        if command == "sweep":
            args += ["--axis", "learning_rate", "--values", "0.1;0.2"]
        with mock.patch.object(tuning, "_worker_count", return_value=2):
            code = run(args)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a fold worker process died: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert multiprocessing.active_children() == []

    def test_external_proba_mode(self, tmp_path):
        corpus, _ = generate_synthetic(50, 5)
        transcripts = tmp_path / "t.csv"
        write_transcripts(corpus, transcripts)
        proba = tmp_path / "p.csv"
        smoothed_gold_proba(corpus, proba)
        for out in (tmp_path / "ext", tmp_path / "ext_again"):
            code = run(["pipeline", "--transcripts", str(transcripts), "--external-proba",
                        str(proba), "--folds", "4", "--seed", "9", "--out-dir", str(out)])
            assert code == 0
        payload = json.loads((tmp_path / "ext" / "metrics.json").read_text())
        assert payload["mode"] == "external"
        assert payload["mean_test_metrics"]["f1_macro"] == pytest.approx(1.0)
        artifacts = tree_bytes(tmp_path / "ext")
        assert set(artifacts) == {"fold_plan.json", "shared_threshold.json", "metrics.json",
                                  "results_table.txt"}
        assert artifacts == tree_bytes(tmp_path / "ext_again")

    @pytest.mark.parametrize("hash_dim", ["33554432", "1099511627776"])
    def test_hash_dim_above_2_24_exits_two(self, tmp_path, capsys, hash_dim):
        out = tmp_path / "run"
        code = run(["pipeline", "--synthetic-calls", "60", "--seed", "3", "--folds", "3",
                    "--hash-dim", hash_dim, "--out-dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err == ("error: hash_dim must be a power of two from 1024 to "
                                           f"16777216 (2**24), got {hash_dim}\n")
        assert not out.exists()

    @pytest.mark.parametrize("field, flags", [
        ("weight_decay", ["--config", "nan.cfg"]),
        ("class_weights", ["--class-weights", "nan,1,1"]),
        ("learning_rate", ["--learning-rate", "inf", "--weight-decay", "0"]),
    ], ids=["weight_decay_nan_in_config", "class_weight_nan", "learning_rate_inf"])
    def test_non_finite_train_value_exits_two(self, tmp_path, capsys, monkeypatch, field, flags):
        """A value that is not finite is refused before training, naming its
        field, and no --out-dir is made."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "nan.cfg").write_text("weight_decay = nan\n")
        out = tmp_path / "run"
        assert run(["pipeline", "--synthetic-calls", "40", "--seed", "3", "--folds", "3",
                    "--hash-dim", "2048", "--epochs", "1", *flags, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("case", ["hash_dim", "folds", "external_proba"])
    def test_failed_run_leaves_no_new_out_dir(self, tmp_path, case):
        """A run refused for a config value or failed on its input exits 2
        and removes the directories it made for a new --out-dir a/b."""
        corpus, _ = generate_synthetic(50, 5)
        transcripts = tmp_path / "t.csv"
        write_transcripts(corpus, transcripts)
        proba = tmp_path / "p.csv"
        smoothed_gold_proba(corpus, proba)
        lines = proba.read_text().splitlines(keepends=True)
        proba.write_text("".join(lines[:-1]))  # the last turn has no prediction
        flags = {"hash_dim": ["--folds", "4", "--hash-dim", "3000"],
                 "folds": ["--folds", "2", "--hash-dim", "2048"],
                 "external_proba": ["--folds", "4", "--external-proba", str(proba)]}[case]
        out = tmp_path / "a" / "b"
        assert run(["pipeline", "--transcripts", str(transcripts), "--seed", "9", "--epochs", "1",
                    *flags, "--out-dir", str(out)]) == 2
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("command", ["pipeline", "sweep", "tune-threshold",
                                         "pipeline-external"])
    def test_two_folds_exit_two(self, corpus_dir, tmp_path, capsys, command):
        """k=2 leaves a trained run no validation fold beside its train and
        test folds, and k=1 leaves a threshold search on external
        probabilities none beside the test fold: a bad config value, exit 2
        with one error line, and no output written."""
        out = tmp_path / "out"
        if command in ("pipeline", "sweep"):
            k = 2
            args = [command, "--synthetic-calls", "40", "--seed", "23", "--folds", "2",
                    "--hash-dim", "2048", "--epochs", "1", "--out-dir", str(out)]
            if command == "sweep":
                args += ["--axis", "learning_rate", "--values", "0.1"]
        else:
            k = 1
            transcripts = corpus_dir / "transcripts.csv"
            proba = tmp_path / "proba.csv"
            smoothed_gold_proba(ingest_transcripts(transcripts), proba)
            source = ["--transcripts", str(transcripts), "--folds", "1", "--seed", "23"]
            args = (["tune-threshold", *source, "--proba", str(proba), "--out", str(out)]
                    if command == "tune-threshold" else
                    ["pipeline", *source, "--external-proba", str(proba), "--out-dir", str(out)])
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: k={k}: ")
        if k == 1:
            assert "need a validation fold besides the test fold" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_requires_exactly_one_source(self, tmp_path):
        assert run(["pipeline", "--seed", "1", "--out-dir", str(tmp_path / "x")]) == 1


class TestProbabilityArrays:
    def test_consumers_receive_arrays(self, corpus_dir, tmp_path):
        """A predictions file reaches the threshold search and the decision
        rule as (n, 3) arrays, converted once by the command."""
        transcripts = str(corpus_dir / "transcripts.csv")
        holds = str(corpus_dir / "holds.csv")
        proba = tmp_path / "proba.csv"
        smoothed_gold_proba(ingest_transcripts(transcripts), proba)
        called = set()

        def folds_of_arrays(module, name):
            search = getattr(module, name)

            def wrapper(per_fold_predictions):
                assert all(isinstance(p, np.ndarray) for p, _ in per_fold_predictions)
                called.add((module.__name__, name))
                return search(per_fold_predictions)
            return mock.patch.object(module, name, wrapper)

        def array_rows(module, name):
            decide = getattr(module, name)

            def wrapper(probs, rule):
                assert isinstance(probs, np.ndarray)
                called.add((module.__name__, name))
                return decide(probs, rule)
            return mock.patch.object(module, name, wrapper)

        patches = [folds_of_arrays(cli, "shared_threshold_search"),
                   folds_of_arrays(tuning, "shared_threshold_search"),
                   array_rows(cli, "decide_batch"), array_rows(tuning, "decide_batch")]
        with ExitStack() as stack:
            for patch in patches:
                stack.enter_context(patch)
            split = ["--folds", "4", "--seed", "9"]
            assert run(["pipeline", "--transcripts", transcripts, "--external-proba", str(proba),
                        *split, "--out-dir", str(tmp_path / "ext")]) == 0
            assert run(["tune-threshold", "--transcripts", transcripts, "--proba", str(proba),
                        *split]) == 0
            assert run(["evaluate", "--transcripts", transcripts, "--proba", str(proba),
                        "--threshold", "0.5"]) == 0
            assert run(["audit", "--transcripts", transcripts, "--holds", holds,
                        "--proba", str(proba), "--threshold", "0.5"]) == 0
        assert called == {(m.__name__, name) for m in (cli, tuning)
                          for name in ("shared_threshold_search", "decide_batch")}


class TestScoringChain:
    def test_commands_build_no_per_turn_objects(self, tmp_path, monkeypatch):
        """On valid input every command reads or builds the corpus's turn
        table: no PhraseTurn and no Call is constructed."""
        built = {"PhraseTurn": 0, "Call": 0}
        for cls in (PhraseTurn, Call):
            def counting(self, _post_init=cls.__post_init__, _name=cls.__name__):
                built[_name] += 1
                _post_init(self)
            monkeypatch.setattr(cls, "__post_init__", counting)

        corpus_dir = tmp_path / "corpus"
        assert run(["generate", "--calls", "40", "--seed", "11", "--out-dir", str(corpus_dir)]) == 0
        transcripts, holds = str(corpus_dir / "transcripts.csv"), str(corpus_dir / "holds.csv")
        model, preds = tmp_path / "model.npz", tmp_path / "preds.csv"
        split = ["--folds", "4", "--seed", "3"]
        small = [*split, "--hash-dim", "2048", "--epochs", "1"]
        plan = tmp_path / "plan.json"
        commands = [
            ["validate", transcripts],
            ["stats", "--transcripts", transcripts, "--out-dir", str(tmp_path / "stats")],
            ["split", "--transcripts", transcripts, *split, "--out", str(plan)],
            ["train", "--transcripts", transcripts, *small, "--val-fold", "1",
             "--model-out", str(model)],
            ["predict", "--model", str(model), "--transcripts", transcripts, "--out", str(preds)],
            ["tune-threshold", "--transcripts", transcripts, "--proba", str(preds), *split],
            ["tune-threshold", "--transcripts", transcripts, "--proba", str(preds),
             "--fold-plan", str(plan)],
            ["evaluate", "--transcripts", transcripts, "--proba", str(preds), "--threshold", "0.5"],
            ["evaluate", "--transcripts", transcripts, "--proba", str(preds), "--threshold", "0.5",
             *split, "--fold", "2"],
            ["sweep", "--synthetic-calls", "30", *small, "--axis", "learning_rate",
             "--values", "0.1", "--out-dir", str(tmp_path / "sweep")],
            ["audit", "--transcripts", transcripts, "--holds", holds, "--gold"],
            ["audit", "--transcripts", transcripts, "--holds", holds, "--proba", str(preds),
             "--threshold", "0.5", "--out", str(tmp_path / "audit.json")],
            ["pipeline", "--transcripts", transcripts, *small, "--out-dir", str(tmp_path / "tr")],
            ["pipeline", "--synthetic-calls", "30", *small, "--out-dir", str(tmp_path / "syn")],
            ["pipeline", "--transcripts", transcripts, "--external-proba", str(preds), *split,
             "--out-dir", str(tmp_path / "ext")],
        ]
        assert built == {"PhraseTurn": 0, "Call": 0}, "generate"
        for argv in commands:
            assert run(argv) == 0, argv
            assert built == {"PhraseTurn": 0, "Call": 0}, argv


class TestSweepCommand:
    def test_learning_rate_sweep_writes_table(self, tmp_path):
        out = tmp_path / "sweep"
        code = run(["sweep", "--synthetic-calls", "40", "--seed", "13", "--folds", "3",
                    "--axis", "learning_rate", "--values", "0.1;0.3",
                    "--hash-dim", "1024", "--epochs", "1", "--out-dir", str(out)])
        assert code == 0
        payload = json.loads((out / "sweep.json").read_text())
        assert payload["axis"] == "learning_rate"
        assert len(payload["rows"]) == 2
        val_f1 = [row["validation_mean_f1"] for row in payload["rows"]]
        assert payload["best_index"] == val_f1.index(max(val_f1))
        table = (out / "sweep_table.txt").read_text()
        assert "Best threshold" in table and "Balanced Accuracy" in table


class TestFoldPlanReuse:
    def test_tune_threshold_accepts_saved_plan(self, corpus_dir, tmp_path):
        transcripts = str(corpus_dir / "transcripts.csv")
        plan_file = tmp_path / "plan.json"
        assert run(["split", "--transcripts", transcripts, "--folds", "4", "--seed", "3",
                    "--out", str(plan_file)]) == 0
        corpus = ingest_transcripts(corpus_dir / "transcripts.csv")
        proba = tmp_path / "proba.csv"
        smoothed_gold_proba(corpus, proba)
        out_file = tmp_path / "threshold.json"
        code = run(["tune-threshold", "--transcripts", transcripts, "--proba", str(proba),
                    "--fold-plan", str(plan_file), "--out", str(out_file)])
        assert code == 0
        assert 0.0 <= json.loads(out_file.read_text())["shared_threshold"] <= 1.0 + 1e-9

    def test_plan_is_one_line_and_an_indented_plan_loads_the_same(self, corpus_dir, tmp_path):
        """split writes the plan without indentation; the same JSON value written
        with indent=2, as earlier versions wrote it, loads to the same FoldPlan."""
        plan_file = tmp_path / "plan.json"
        assert run(["split", "--transcripts", str(corpus_dir / "transcripts.csv"),
                    "--folds", "4", "--seed", "3", "--out", str(plan_file)]) == 0
        text = plan_file.read_text()
        assert text.endswith("}\n") and text.count("\n") == 1
        indented = tmp_path / "indented.json"
        indented.write_text(json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n")
        assert load_fold_plan(indented) == load_fold_plan(plan_file)

    @pytest.mark.parametrize("damage", ["no_assignment", "two_element_rows", "non_integer_fold",
                                        "duplicate_row", "not_an_object", "fractional_k",
                                        "fractional_test_fold", "fractional_turn_index",
                                        "fractional_fold", "boolean_fold", "non_string_call_id"])
    def test_malformed_plan_exits_two(self, corpus_dir, tmp_path, damage, capsys):
        transcripts = str(corpus_dir / "transcripts.csv")
        plan_file = tmp_path / "plan.json"
        assert run(["split", "--transcripts", transcripts, "--folds", "4", "--seed", "3",
                    "--out", str(plan_file)]) == 0
        plan = json.loads(plan_file.read_text())
        if damage == "no_assignment":
            del plan["assignment"]
        elif damage == "two_element_rows":
            plan["assignment"] = [row[:2] for row in plan["assignment"]]
        elif damage == "non_integer_fold":
            plan["assignment"][0][2] = "first"
        elif damage == "duplicate_row":
            cid, idx, fold = plan["assignment"][0]
            plan["assignment"].append([cid, idx, (fold + 1) % 4])
        elif damage == "fractional_k":
            plan["k"] += 0.9
        elif damage == "fractional_test_fold":
            plan["test_fold"] += 0.5
        elif damage == "fractional_turn_index":
            plan["assignment"][0][1] += 0.7
        elif damage == "fractional_fold":
            plan["assignment"][0][2] += 0.9
        elif damage == "boolean_fold":
            plan["assignment"][0][2] = plan["assignment"][0][2] == 1
        elif damage == "non_string_call_id":
            plan["assignment"][0][0] = 7
        else:
            plan = plan["assignment"]
        plan_file.write_text(json.dumps(plan))
        proba = tmp_path / "proba.csv"
        smoothed_gold_proba(ingest_transcripts(transcripts), proba)
        code = run(["tune-threshold", "--transcripts", transcripts, "--proba", str(proba),
                    "--fold-plan", str(plan_file)])
        assert code == 2
        assert "fold plan" in capsys.readouterr().err


class TestConfigFile:
    def test_flags_override_file(self, corpus_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("folds = 10\nseed = 4\n")
        plan_file = tmp_path / "plan.json"
        code = run(["split", "--config", str(cfg),
                    "--transcripts", str(corpus_dir / "transcripts.csv"),
                    "--folds", "4", "--out", str(plan_file)])
        assert code == 0
        assert json.loads(plan_file.read_text())["k"] == 4

    def test_unknown_key_exits_two(self, corpus_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wibble = 3\n")
        code = run(["split", "--config", str(cfg),
                    "--transcripts", str(corpus_dir / "transcripts.csv"),
                    "--folds", "4", "--seed", "1", "--out", str(tmp_path / "p.json")])
        assert code == 2


class TestCollectorPause:
    """A command runs with the cyclic garbage collector paused, and run_cli
    leaves the collector as it found it on every exit path."""

    @pytest.fixture(params=[True, False], ids=["gc_enabled", "gc_disabled"])
    def gc_state(self, request):
        was_enabled = gc.isenabled()
        gc.enable() if request.param else gc.disable()
        yield request.param
        gc.enable() if was_enabled else gc.disable()

    @pytest.mark.parametrize("case, code", [
        ("clean", 0), ("usage_error", 1), ("bad_label", 2), ("uncaught", None),
    ])
    def test_state_is_restored_on_every_exit(self, tmp_path, gc_state, case, code):
        """code None: the command raises an exception run_cli does not catch."""
        path = tmp_path / "t.csv"
        path.write_text(HEADER + f"a,0,agent,0,1000,hello,{7 if case == 'bad_label' else 0}\n")
        argv = ["validate", "--wibble", str(path)] if case == "usage_error" else ["validate", str(path)]
        if code is None:
            with mock.patch.object(cli, "check_transcripts", side_effect=RuntimeError("boom")), \
                    pytest.raises(RuntimeError, match="boom"):
                run(argv)
        else:
            assert run(argv) == code
        assert gc.isenabled() is gc_state

    def test_command_body_runs_with_the_collector_paused(self, corpus_dir, tmp_path, gc_state):
        seen = []

        def ingest(path):
            seen.append(gc.isenabled())
            return ingest_transcripts(path)

        with mock.patch.object(cli, "ingest_transcripts", side_effect=ingest):
            assert run(["stats", "--transcripts", str(corpus_dir / "transcripts.csv"),
                        "--out-dir", str(tmp_path / "stats")]) == 0
        assert seen == [False]
        assert gc.isenabled() is gc_state


def _probe(code, *args):
    """The stdout of a fresh python -c code, importing this holdscan."""
    src = str(Path(holdscan.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_import_leaves_the_thread_pool_unloaded():
    """concurrent.futures is imported when fold models train on a worker
    pool, not when the CLI starts, so every command's start-up stays
    without it."""
    out = _probe("import sys, holdscan.cli; print('concurrent.futures' in sys.modules)")
    assert out.strip() == "False"


_ONE_CPU_PROBE = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from holdscan.classifier import FeatureSpec, TrainConfig
from holdscan.corpus import generate_synthetic, stratified_split
from holdscan.tuning import run_cross_validation

corpus, _ = generate_synthetic(30, 1)
run = run_cross_validation(corpus, stratified_split(corpus, 4, seed=1), TrainConfig(epochs=1),
                           FeatureSpec(hash_dim=2 ** 10))
print(len(run.models), "multiprocessing" in sys.modules)
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="the platform has no CPU affinity")
def test_one_cpu_run_leaves_multiprocessing_unloaded():
    """On one CPU no fold pool is possible, so run_cross_validation never
    imports multiprocessing (5-14 ms)."""
    assert _probe(_ONE_CPU_PROBE).split() == ["3", "False"]


_NO_AFFINITY_PROBE = """
import os, sys
if hasattr(os, "sched_getaffinity"):
    del os.sched_getaffinity
from holdscan.classifier import FeatureSpec, TrainConfig, _featurize_many, _usable_cpus
from holdscan.corpus import generate_synthetic, stratified_split
from holdscan.tuning import run_cross_validation

spec = FeatureSpec(hash_dim=2 ** 10)
_, text_of = _featurize_many([f"hold {i}" for i in range(2049)], spec)
corpus, _ = generate_synthetic(30, 1)
run = run_cross_validation(corpus, stratified_split(corpus, 4, seed=1), TrainConfig(epochs=1), spec)
print(_usable_cpus(), len(text_of), len(run.models),
      "concurrent.futures" in sys.modules, "multiprocessing" in sys.modules)
"""


def test_without_cpu_affinity_both_pools_run_in_process():
    """Where os has no sched_getaffinity (macOS, Windows), one CPU is
    usable, so three blocks of texts and three fold tasks run in-process
    and neither pool module is imported. That is the only guard against a
    fork pool on a platform without fork."""
    assert _probe(_NO_AFFINITY_PROBE).split() == ["1", "2049", "3", "False", "False"]


_NUMPY_MA_PROBE = """
import json, sys
from pathlib import Path
from unittest import mock
import numpy
if "numpy.ma" in sys.modules:
    print("loaded by import numpy")
    sys.exit()
from holdscan import tuning
from holdscan.cli import run_cli

corpus, out = Path(sys.argv[1]), Path(sys.argv[2])
transcripts, preds = str(corpus / "transcripts.csv"), str(out / "preds.csv")

def run(argv):
    try:
        run_cli(argv)
    except SystemExit as exc:
        assert not exc.code, (argv, exc.code)

with mock.patch.object(tuning, "_worker_count", return_value=1):  # fold tasks in this process
    run(["pipeline", "--transcripts", transcripts, "--folds", "4", "--seed", "3",
         "--out-dir", str(out / "trained")])
run(["predict", "--model", str(out / "trained" / "models" / "fold_1.npz"),
     "--transcripts", transcripts, "--out", preds])
run(["pipeline", "--transcripts", transcripts, "--external-proba", preds, "--folds", "4",
     "--seed", "3", "--out-dir", str(out / "external")])
threshold = json.loads((out / "external" / "shared_threshold.json").read_text())["shared_threshold"]
run(["audit", "--transcripts", transcripts, "--holds", str(corpus / "holds.csv"), "--proba", preds,
     "--threshold", repr(threshold), "--out", str(out / "audit.json")])
print("numpy.ma" in sys.modules)
"""


def test_chains_never_import_numpy_ma(corpus_dir, tmp_path):
    """A trained pipeline with its fold tasks in-process, then predict,
    pipeline --external-proba and audit, never import numpy.ma, which costs
    ~20 ms a process; np.unique imports it on numpy 2.x."""
    out = _probe(_NUMPY_MA_PROBE, str(corpus_dir), str(tmp_path))
    last = out.splitlines()[-1]  # the commands print their reports first
    if last == "loaded by import numpy":
        pytest.skip("import numpy alone loads numpy.ma on this numpy")
    assert last == "False"
