"""CLI subcommands: exit codes, outputs, and reproducibility."""

import json
import os

import pytest

from ctie.cli import main

from helpers import DANGLING_I, FIG_CORPUS, SMOKE_CORPUS


def run(*argv) -> int:
    return main([str(a) for a in argv])


class TestValidate:
    def test_clean_corpus_exit_zero(self, capsys):
        assert run("validate", "--dataset", FIG_CORPUS) == 0
        out = capsys.readouterr().out
        assert "structural errors: 0" in out

    def test_dangling_i_exit_one_single_label_error(self, capsys):
        assert run("validate", "--dataset", DANGLING_I) == 1
        out = capsys.readouterr().out
        assert out.count("LabelError") == 1
        assert "structural errors: 1" in out

    def test_strict_escalates_ontology_violations(self, tmp_path, capsys):
        record = {
            "text": "2014 saw Mimikatz",
            "entities": [[0, 1, "Time"], [2, 3, "Tool"]],
            "relations": [[0, "uses", 1]],
            "entity_labels": ["B-Time", "O", "B-Tool"],
        }
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps([record]))
        assert run("validate", "--dataset", path) == 0
        assert "warning" in capsys.readouterr().out
        assert run("validate", "--dataset", path, "--strict") == 1

    def test_boolean_indices_exit_one(self, tmp_path, capsys):
        record = {
            "text": "APT29 uses Mimikatz",
            "entities": [[False, True, "HackOrg"], [2, 3, "Tool"]],
            "relations": [[0, "uses", True]],
            "entity_labels": ["B-HackOrg", "O", "B-Tool"],
        }
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps([record]))
        assert run("validate", "--dataset", path) == 1
        assert capsys.readouterr().out.count("SchemaError") == 1

    def test_missing_file_exit_one(self, tmp_path, capsys):
        # a directory, or a path under a file, is as unreadable as a missing file
        (tmp_path / "file").write_text("[]")
        for path in ("/nonexistent/corpus.json", tmp_path, tmp_path / "file" / "corpus.json"):
            assert run("validate", "--dataset", path) == 1
            assert capsys.readouterr().err.startswith("error: ")
        assert run("extract", "--checkpoint", tmp_path, "--input", tmp_path / "file") == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_reads_and_decodes_the_corpus_once(self, monkeypatch, tmp_path, capsys):
        import ctie.corpus

        reads = []
        original = ctie.corpus._read_document
        monkeypatch.setattr(ctie.corpus, "_read_document",
                            lambda source: reads.append(source) or original(source))
        assert run("validate", "--dataset", FIG_CORPUS) == 0
        assert reads == [str(FIG_CORPUS)]

        # a corpus with an ontology warning still takes the one pass
        record = {
            "text": "2014 saw Mimikatz",
            "entities": [[0, 1, "Time"], [2, 3, "Tool"]],
            "relations": [[0, "uses", 1]],
            "entity_labels": ["B-Time", "O", "B-Tool"],
        }
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps([record]))
        reads.clear()
        assert run("validate", "--dataset", path) == 0
        assert "warning: record 0" in capsys.readouterr().out
        assert reads == [str(path)]


    def test_unknown_relation_is_listed_per_record_and_checking_goes_on(self, tmp_path,
                                                                        capsys):
        records = json.loads(SMOKE_CORPUS.read_text())[:4]
        records[1]["relations"][0][1] = "pwns"
        records[3]["relations"][0][1] = "owns"
        head = records[2]["relations"][0][0]  # no domain holds Time: two violations
        start, end, name = records[2]["entities"][head]
        records[2]["entities"][head][2] = "Time"
        records[2]["entity_labels"][start:end] = [
            tag.replace(name, "Time") for tag in records[2]["entity_labels"][start:end]]
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(records))
        for flags in ((), ("--strict",)):
            assert run("validate", "--dataset", path, *flags) == 1
            out = capsys.readouterr().out.splitlines()
            assert "error: record 1: relation 'pwns' not in ontology schema" in out
            assert "error: record 3: relation 'owns' not in ontology schema" in out
            assert any(line.startswith("warning: record 2:") != bool(flags) for line in out)
            assert out[-1] == ("structural errors: 0; records with a relation not in the "
                               "ontology: 2; ontology domain/range violations: 2")


class TestUsageErrors:
    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            run("stats")
        assert err.value.code == 2

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as err:
            run("frobnicate")
        assert err.value.code == 2

    def test_extract_requires_input_or_dataset(self):
        with pytest.raises(SystemExit) as err:
            run("extract", "--checkpoint", "whatever.ckpt")
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("--input", "s.txt", "--dataset", FIG_CORPUS),
        ("--input", "s.txt", "--gold-spans"),
    ], ids=["input-and-dataset", "gold-spans-with-input"])
    def test_extract_source_conflicts_exit_two(self, argv):
        with pytest.raises(SystemExit) as err:
            run("extract", "--checkpoint", "whatever.ckpt", *argv)
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("validate", "--dataset", FIG_CORPUS, "--out", "unused"),
        ("validate", "--dataset", FIG_CORPUS, "--seed", "1"),
        ("export", "--extractions", "x.json", "--out", "unused", "--ontology", "o.json"),
        ("ablate", "--dataset", FIG_CORPUS, "--out", "unused",
         "--pretrained-embeddings", "vectors.emb"),
        ("stats", "--dataset", FIG_CORPUS, "--seed", "1"),
        ("mslr", "--dataset", FIG_CORPUS, "--out", "unused", "--seed", "1"),
        ("eval", "--dataset", FIG_CORPUS, "--checkpoint", "m.ckpt", "--seed", "1"),
        ("extract", "--checkpoint", "m.ckpt", "--input", "s.txt", "--seed", "1"),
        ("export", "--extractions", "x.json", "--out", "unused", "--seed", "1"),
    ], ids=["validate-out", "validate-seed", "export-ontology", "ablate-pretrained-embeddings",
            "stats-seed", "mslr-seed", "eval-seed", "extract-seed", "export-seed"])
    def test_removed_flags_exit_two(self, argv):
        with pytest.raises(SystemExit) as err:
            run(*argv)
        assert err.value.code == 2

    def test_export_requires_out(self):
        with pytest.raises(SystemExit) as err:
            run("export", "--extractions", "x.json")
        assert err.value.code == 2

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("argv, file_config, message", [
        (("--max-len", "0"), None, "max_len"),
        (("--dropout", "1.0"), None, "dropout"),
        ((), {"train_ratio": -0.2, "val_ratio": 0.6, "test_ratio": 0.6}, "split ratios"),
        ((), {"epochs": 1.5}, "epochs must be an integer"),
        ((), {"grad_clip_norm": "1"}, "grad_clip_norm must be a number"),
        ((), {"use_entity_mask": "no"}, "use_entity_mask must be true or false"),
        ((), {"batch_size": True}, "batch_size must be an integer"),
        ((), {"max_len": 2.5}, "max_len must be an integer"),
        (("--lr", "nan"), None, "learning_rate must be finite"),
        ((), {"learning_rate": float("inf")}, "learning_rate must be finite"),
        (("--grad-clip-norm", "-1"), None, "grad_clip_norm must be null, or finite and >= 0"),
        ((), {"grad_clip_norm": float("nan")}, "grad_clip_norm must be null, or finite"),
        ((), {"beta1": 1.5}, "beta1 must be in [0, 1)"),
        ((), {"beta2": -0.1}, "beta2 must be in [0, 1)"),
        ((), {"epsilon": 0}, "epsilon must be finite and > 0"),
        (("--weight-decay", "-0.5"), None, "weight_decay must be finite and >= 0"),
        ((), {"checkpoint_every": -2}, "checkpoint_every must be >= 0"),
        (("--alpha", "nan"), None, "alpha must be finite and >= 0"),
        ((), {"beta": float("inf")}, "beta must be finite and >= 0"),
    ], ids=["max-len-zero", "dropout-one", "negative-split-ratio", "epochs-float",
            "grad-clip-norm-str", "use-entity-mask-str", "batch-size-bool", "max-len-float",
            "lr-nan", "lr-inf", "grad-clip-norm-negative", "grad-clip-norm-nan", "beta1-above-one",
            "beta2-negative", "epsilon-zero", "weight-decay-negative", "checkpoint-every-negative",
            "alpha-nan", "beta-inf"])
    def test_rejected_config_values_exit_two_before_writing(
            self, tmp_path, capsys, command, argv, file_config, message):
        if file_config is not None:
            config = tmp_path / "config.json"
            config.write_text(json.dumps(file_config))
            argv = (*argv, "--config", config)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            run(command, "--dataset", FIG_CORPUS, "--out", out, *argv)
        assert err.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestStats:
    def test_table_and_files(self, tmp_path, capsys):
        out = tmp_path / "stats"
        assert run("stats", "--dataset", FIG_CORPUS, "--out", out) == 0
        stdout = capsys.readouterr().out
        assert "relation type" in stdout
        payload = json.loads((out / "stats.json").read_text())
        assert payload["sentence_count"] == 3
        assert payload["relation_counts"]["targets"] == 2
        assert (out / "run_config.json").exists()
        assert (out / "stats.txt").exists()


class TestMslr:
    def test_dump(self, tmp_path):
        out = tmp_path / "mslr"
        assert run("mslr", "--dataset", FIG_CORPUS, "--out", out) == 0
        lines = (out / "instances.jsonl").read_text().strip().splitlines()
        assert len(lines) == 4  # 3 + 1 + 0 relations
        first = json.loads(lines[0])
        assert set(first) == {
            "token_ids", "attention_mask", "entity_mask", "head_type", "tail_type",
            "ner_labels", "relation_label", "length", "head_span", "tail_span", "origin",
        }
        assert (out / "vocab.json").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--max-len", "0"), ("--min-freq", "0"), ("--max-len", "-3"), ("--min-freq", "-1"),
    ], ids=["max-len-zero", "min-freq-zero", "max-len-negative", "min-freq-negative"])
    def test_value_below_one_is_a_usage_error(self, flag, value, tmp_path, capsys):
        # was read as the default (0), wrote no instances (-3) or exit 3 (-1)
        out = tmp_path / "mslr"
        with pytest.raises(SystemExit) as err:
            run("mslr", "--dataset", FIG_CORPUS, "--out", out, flag, value)
        assert err.value.code == 2
        assert "at least 1" in capsys.readouterr().err
        assert not out.exists()


TRAIN_FLAGS = [
    "--epochs", "2", "--batch-size", "8", "--lr", "0.005",
    "--embed-dim", "8", "--hidden-dim", "4", "--dropout", "0.0",
    "--max-len", "64",
]


class TestTrain:
    def test_train_writes_everything(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run("train", "--dataset", SMOKE_CORPUS, "--out", out, *TRAIN_FLAGS)
        assert code == 0
        for name in ("best.ckpt", "final.ckpt", "training_log.csv",
                     "training_log.json", "run_config.json"):
            assert (out / name).exists(), name
        run_config = json.loads((out / "run_config.json").read_text())
        assert run_config["command"] == "train"
        assert run_config["seed"] == 42
        csv_text = (out / "training_log.csv").read_text()
        assert csv_text.splitlines()[0] == "epoch,split,metric,value"

    def test_identical_seeds_identical_outputs(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run("train", "--dataset", SMOKE_CORPUS, "--out", out,
                       "--seed", "7", *TRAIN_FLAGS) == 0
        for name in ("best.ckpt", "final.ckpt", "training_log.csv", "training_log.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_config_file_and_flag_precedence(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"epochs": 1, "hidden_dim": 4, "embed_dim": 8,
                                      "dropout": 0.0, "batch_size": 8,
                                      "learning_rate": 0.005, "max_len": 64}))
        out = tmp_path / "run"
        assert run("train", "--dataset", SMOKE_CORPUS, "--out", out,
                   "--config", config, "--epochs", "2") == 0
        resolved = json.loads((out / "run_config.json").read_text())
        assert resolved["train_config"]["epochs"] == 2      # flag beats file
        assert resolved["train_config"]["batch_size"] == 8  # file beats default
        log = (out / "training_log.csv").read_text()
        assert ",2," in log.splitlines()[-1] or log.count("\n2,")  # epoch 2 trained

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"learning_rat": 0.1}))
        out = tmp_path / "run"
        assert run("train", "--dataset", SMOKE_CORPUS, "--out", out,
                   "--config", config) == 1

    def test_pretrained_embeddings_workflow(self, tmp_path):
        import numpy as np
        from ctie.model import load_checkpoint, save_embedding_file
        from ctie.mslr import Vocabulary

        # first run exposes the training vocabulary
        first = tmp_path / "first"
        assert run("train", "--dataset", SMOKE_CORPUS, "--out", first,
                   "--epochs", "1", *TRAIN_FLAGS[2:]) == 0
        vocab = Vocabulary(json.loads((first / "vocab.json").read_text()))
        vectors = np.random.default_rng(0).normal(size=(len(vocab), 8))
        emb_path = tmp_path / "vectors.emb"
        save_embedding_file(emb_path, vectors, vocab.content_hash())

        # frozen pretrained table survives training untouched
        out = tmp_path / "second"
        assert run("train", "--dataset", SMOKE_CORPUS, "--out", out,
                   "--epochs", "1", *TRAIN_FLAGS[2:],
                   "--pretrained-embeddings", emb_path,
                   "--freeze-embeddings") == 0
        ckpt = load_checkpoint(out / "final.ckpt")
        np.testing.assert_array_equal(ckpt.params["embed"], vectors)

        # hash mismatch is a data error
        bad = tmp_path / "bad.emb"
        save_embedding_file(bad, vectors, "deadbeef")
        assert run("train", "--dataset", SMOKE_CORPUS, "--out", tmp_path / "third",
                   "--epochs", "1", *TRAIN_FLAGS[2:],
                   "--pretrained-embeddings", bad) == 1

        # so is one flipped bit in the header
        blob = bytearray(emb_path.read_bytes())
        blob[blob.index(b'"embed"') + 1] ^= 0x01
        flipped = tmp_path / "flipped.emb"
        flipped.write_bytes(bytes(blob))
        assert run("train", "--dataset", SMOKE_CORPUS, "--out", tmp_path / "flipped",
                   "--epochs", "1", *TRAIN_FLAGS[2:],
                   "--pretrained-embeddings", flipped) == 1

    def test_embedding_dim_mismatch_names_the_file(self, tmp_path, capsys):
        import numpy as np
        from ctie.model import save_embedding_file
        from ctie.mslr import Vocabulary

        first = tmp_path / "first"
        assert run("train", "--dataset", SMOKE_CORPUS, "--out", first,
                   "--epochs", "1", *TRAIN_FLAGS[2:]) == 0
        vocab = Vocabulary(json.loads((first / "vocab.json").read_text()))
        emb_path = tmp_path / "vectors.emb"
        save_embedding_file(emb_path, np.zeros((len(vocab), 8)), vocab.content_hash())
        capsys.readouterr()
        assert run("train", "--dataset", SMOKE_CORPUS, "--out", tmp_path / "second",
                   "--epochs", "1", *TRAIN_FLAGS[2:], "--embed-dim", "16",
                   "--pretrained-embeddings", emb_path) == 1
        err = capsys.readouterr().err
        assert f"{emb_path}: embedding file holds 8-dim vectors, but embed_dim is 16" in err

    @pytest.mark.parametrize("freeze", [(), ("--freeze-embeddings",)], ids=["tuned", "frozen"])
    def test_non_finite_embedding_names_the_file(self, freeze, tmp_path, capsys):
        import numpy as np
        from ctie.model import save_embedding_file
        from ctie.mslr import Vocabulary

        first = tmp_path / "first"
        assert run("train", "--dataset", SMOKE_CORPUS, "--out", first,
                   "--epochs", "1", *TRAIN_FLAGS[2:]) == 0
        vocab = Vocabulary(json.loads((first / "vocab.json").read_text()))
        vectors = np.zeros((len(vocab), 8))
        vectors[-1, 3] = np.nan
        emb_path = tmp_path / "vectors.emb"
        save_embedding_file(emb_path, vectors, vocab.content_hash())
        capsys.readouterr()
        assert run("train", "--dataset", SMOKE_CORPUS, "--out", tmp_path / "second",
                   "--epochs", "1", *TRAIN_FLAGS[2:], *freeze,
                   "--pretrained-embeddings", emb_path) == 1
        err = capsys.readouterr().err
        assert f"{emb_path}: embedding file contains non-finite values" in err

    def test_one_log_line_per_skipped_sentence(self, tmp_path, capsys):
        assert run("train", "--dataset", SMOKE_CORPUS, "--out", tmp_path / "run",
                   "--epochs", "1", *TRAIN_FLAGS[2:-2], "--max-len", "12") == 0
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("skipped overlong sentence")]
        # numbered by corpus record: records 6 and 46 are the 13-token ones
        # (both in the training split, which lists them as its 3rd and 33rd)
        assert lines == [
            "skipped overlong sentence 6 (length 13, 4 rows)",
            "skipped overlong sentence 46 (length 13, 4 rows)",
        ]

    def test_checkpoint_cadence(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"checkpoint_every": 1}))
        out = tmp_path / "run"
        assert run("train", "--dataset", SMOKE_CORPUS, "--out", out,
                   "--config", config, *TRAIN_FLAGS) == 0
        assert (out / "epoch_001.ckpt").exists()
        assert (out / "epoch_002.ckpt").exists()


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    code = main([
        "train", "--dataset", str(SMOKE_CORPUS), "--out", str(out),
        "--epochs", "12", "--batch-size", "8", "--lr", "0.01",
        "--embed-dim", "16", "--hidden-dim", "8", "--dropout", "0.0",
        "--max-len", "64",
    ])
    assert code == 0
    return out


class TestEval:
    def test_eval_writes_metrics(self, trained_run, tmp_path, capsys):
        out = tmp_path / "eval"
        code = run(
            "eval", "--dataset", SMOKE_CORPUS,
            "--checkpoint", trained_run / "best.ckpt",
            "--split", "train", "--out", out,
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "NER P" in stdout and "RE P" in stdout
        payload = json.loads((out / "metrics.json").read_text())
        assert set(payload) == {"ner", "re"}
        assert 0.0 <= payload["re"]["f1"] <= 1.0

    def test_eval_pipeline_mode(self, trained_run, capsys):
        code = run(
            "eval", "--dataset", SMOKE_CORPUS,
            "--checkpoint", trained_run / "best.ckpt",
            "--split", "test", "--re-mode", "pipeline",
        )
        assert code == 0

    def test_empty_split_is_a_data_error(self, trained_run, tmp_path, capsys):
        # int(2 * 0.15) = 0 test sentences; an empty corpus has no sentence at all
        two = tmp_path / "two.json"
        two.write_text(json.dumps(json.loads(SMOKE_CORPUS.read_text())[:2]))
        empty = tmp_path / "empty.json"
        empty.write_text("[]")
        for dataset, split, message in (
                (two, "test", "the test split holds 0 of the corpus's 2 sentences"),
                (empty, "all", "the all split holds 0 of the corpus's 0 sentences")):
            out = tmp_path / f"eval-{split}"
            assert run("eval", "--dataset", dataset, "--checkpoint", trained_run / "best.ckpt",
                       "--split", split, "--out", out) == 1
            captured = capsys.readouterr()
            assert captured.err == f"error: {message}: nothing to evaluate\n"
            assert "NER P" not in captured.out
            assert not (out / "metrics.json").exists()

    def test_eval_writes_aligned_table(self, trained_run, tmp_path):
        out = tmp_path / "eval"
        assert run(
            "eval", "--dataset", SMOKE_CORPUS,
            "--checkpoint", trained_run / "best.ckpt",
            "--split", "train", "--out", out,
        ) == 0
        table = (out / "metrics.txt").read_text().splitlines()
        assert table[0].split() == ["task", "P", "R", "F1", "Acc"]
        assert table[2].startswith("ner") and table[3].startswith("re")


class TestEvalHonoursMaxLen:
    def test_eval_uses_the_stored_max_len(self, tmp_path):
        from ctie.corpus import TypeSystem, load_corpus
        from ctie.evaluation import evaluate_model
        from ctie.model import load_checkpoint
        from ctie.mslr import Vocabulary

        model = tmp_path / "model"
        assert run("train", "--dataset", SMOKE_CORPUS, "--out", model,
                   "--epochs", "1", *TRAIN_FLAGS[2:-2], "--max-len", "8") == 0
        out = tmp_path / "eval"
        assert run("eval", "--dataset", SMOKE_CORPUS, "--checkpoint", model / "best.ckpt",
                   "--split", "all", "--out", out) == 0
        got = json.loads((out / "metrics.json").read_text())

        ckpt = load_checkpoint(model / "best.ckpt")
        args = (ckpt.params, ckpt.config, Vocabulary(ckpt.extras["vocab"]),
                TypeSystem.from_dict(ckpt.extras["types"]),
                load_corpus(SMOKE_CORPUS).sentences)
        reports = {
            max_len: {task: json.loads(r.to_json())
                      for task, r in evaluate_model(*args, max_len=max_len).items()}
            for max_len in (8, 256)
        }
        assert reports[8] != reports[256]
        assert got == reports[8]


class TestExtractExport:
    def test_gold_span_extraction_and_export(self, trained_run, tmp_path):
        out = tmp_path / "extract"
        code = run(
            "extract", "--dataset", SMOKE_CORPUS,
            "--checkpoint", trained_run / "best.ckpt",
            "--gold-spans", "--out", out,
        )
        assert code == 0
        extractions = json.loads((out / "extractions.json").read_text())
        assert len(extractions) == 50
        total = sum(len(e["triples"]) for e in extractions)
        assert total > 0

        graph_out = tmp_path / "graph"
        assert run("export", "--extractions", out / "extractions.json",
                   "--format", "json", "--out", graph_out) == 0
        doc = json.loads((graph_out / "graph.json").read_text())
        assert len(doc["edges"]) == total

        csv_out = tmp_path / "csv"
        assert run("export", "--extractions", out / "extractions.json",
                   "--format", "csv", "--out", csv_out) == 0
        lines = (csv_out / "edges.csv").read_text().splitlines()
        assert len(lines) == total + 1

    def test_text_input(self, trained_run, tmp_path):
        text = tmp_path / "sentences.txt"
        text.write_text("APT28 used Mimikatz to target banking networks in Europe .\n"
                        "FireEye discovered Turla attacking telecom operators since 2015 .\n")
        out = tmp_path / "extract"
        code = run(
            "extract", "--input", text,
            "--checkpoint", trained_run / "best.ckpt",
            "--out", out,
        )
        assert code == 0
        extractions = json.loads((out / "extractions.json").read_text())
        assert len(extractions) == 2


class TestMalformedExtractions:
    @pytest.mark.parametrize("blob", [
        b'[{"tokens": ["caf\xe9"]}]', b"{not json", b'[{"sentence_index": 0}]', b'{"a": 1}',
        b'[{"sentence_index": "0", "tokens": [], "triples": []}]',
    ], ids=["not-utf8", "not-json", "no-triples", "not-a-list", "sentence-index-str"])
    def test_export_exits_one_naming_the_file(self, blob, tmp_path, capsys):
        extractions = tmp_path / "extractions.json"
        extractions.write_bytes(blob)
        out = tmp_path / "graph"
        assert run("export", "--extractions", extractions, "--out", out) == 1
        assert str(extractions) in capsys.readouterr().err
        assert not out.exists()


def _triple(**fields) -> dict:
    triple = {
        "head": "APT28", "head_type": "HackOrg", "relation": "uses",
        "tail": "Mimikatz", "tail_type": "Tool", "confidence": 0.75,
        "sentence_index": 0, "head_span": [0, 1], "tail_span": [2, 3],
    }
    return {**triple, **fields}


def _extractions(*triples) -> str:
    return json.dumps([{"sentence_index": 0, "tokens": ["APT28", "used", "Mimikatz"],
                        "triples": list(triples)}])


class TestExportFieldTypes:
    @pytest.mark.parametrize("fields", [
        {"confidence": "high"}, {"confidence": 1.5}, {"confidence": -0.1},
        {"confidence": float("nan")}, {"confidence": True}, {"head": 7},
        {"relation": None}, {"tail_type": ["Tool"]}, {"sentence_index": "0"},
        {"sentence_index": 0.0}, {"head_span": [0, "1"]}, {"tail_span": [2.0, 3]},
        {"head_span": [0, True]},
    ], ids=["confidence-str", "confidence-above-1", "confidence-negative",
            "confidence-nan", "confidence-bool", "head-int", "relation-null",
            "tail-type-list", "sentence-index-str", "sentence-index-float",
            "head-span-str", "tail-span-float", "head-span-bool"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_mistyped_field_exits_one_naming_the_file(self, fields, fmt, tmp_path, capsys):
        extractions = tmp_path / "extractions.json"
        extractions.write_text(_extractions(_triple(), _triple(**fields)))
        out = tmp_path / "graph"
        assert run("export", "--extractions", extractions, "--format", fmt, "--out", out) == 1
        err = capsys.readouterr().err
        assert str(extractions) in err and next(iter(fields)) in err
        assert not out.exists()

    def test_well_typed_triples_export(self, tmp_path):
        extractions = tmp_path / "extractions.json"
        extractions.write_text(_extractions(_triple(), _triple(confidence=1)))
        out = tmp_path / "graph"
        assert run("export", "--extractions", extractions, "--format", "csv", "--out", out) == 0
        assert (out / "edges.csv").read_text().splitlines()[1:] == [
            "APT28,HackOrg,uses,Mimikatz,Tool,0.75,0", "APT28,HackOrg,uses,Mimikatz,Tool,1,0"]


class TestAtomicOutputs:
    @pytest.mark.parametrize("command, name", [
        ("stats", "run_config.json"), ("stats", "stats.json"), ("stats", "stats.txt"),
        ("mslr", "instances.jsonl"), ("mslr", "vocab.json"),
        ("export-json", "graph.json"), ("export-csv", "edges.csv"),
    ])
    def test_failed_replace_keeps_the_previous_file(self, command, name, tmp_path, monkeypatch):
        out = tmp_path / "out"

        def invoke(second: bool) -> int:
            if command in ("stats", "mslr"):
                return run(command, "--dataset", SMOKE_CORPUS if second else FIG_CORPUS,
                           "--out", out)
            extractions = tmp_path / "extractions.json"
            triples = [_triple(), _triple(confidence=0.5)] if second else [_triple()]
            extractions.write_text(_extractions(*triples))
            return run("export", "--extractions", extractions, "--out", out,
                       "--format", command.split("-")[1])

        assert invoke(False) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert name in before
        replace = os.replace

        def fail_on_target(src, dst):
            if os.path.basename(dst) == name:
                raise OSError("no space left on device")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", fail_on_target)
        assert invoke(True) == 3
        assert sorted(path.name for path in out.iterdir()) == sorted(before)
        assert (out / name).read_bytes() == before[name]


class TestCustomOntology:
    def test_ontology_flag_changes_validation(self, tmp_path, capsys):
        # a schema where uses: Time -> Tool is legal
        ontology = tmp_path / "ontology.json"
        ontology.write_text(json.dumps(
            {"uses": {"domain": ["Time"], "range": ["Tool"]}}
        ))
        record = {
            "text": "2014 saw Mimikatz",
            "entities": [[0, 1, "Time"], [2, 3, "Tool"]],
            "relations": [[0, "uses", 1]],
            "entity_labels": ["B-Time", "O", "B-Tool"],
        }
        dataset = tmp_path / "corpus.json"
        dataset.write_text(json.dumps([record]))
        # bundled schema flags the pair; the custom one accepts it
        assert run("validate", "--dataset", dataset, "--strict") == 1
        capsys.readouterr()
        assert run("validate", "--dataset", dataset, "--strict",
                   "--ontology", ontology) == 0

    def test_broken_ontology_file(self, tmp_path):
        ontology = tmp_path / "ontology.json"
        ontology.write_text("{not json")
        assert run("validate", "--dataset", FIG_CORPUS, "--ontology", ontology) == 1


class TestUnreadableInputFiles:
    """Undecodable bytes or JSON in any input file exit 1 naming the file,
    never 3 with a raw decoding error."""

    NOT_UTF8 = b'[{"text": "caf\xe9"}]\n'

    @pytest.mark.parametrize("kind", ["corpus", "ontology", "config", "input"])
    def test_non_utf8_file_exits_one_naming_it(self, kind, tmp_path, capsys, request):
        bad = tmp_path / f"bad-{kind}.json"
        bad.write_bytes(self.NOT_UTF8)
        argv = {
            "corpus": ("validate", "--dataset", bad),
            "ontology": ("validate", "--dataset", FIG_CORPUS, "--ontology", bad),
            "config": ("train", "--dataset", FIG_CORPUS, "--out", tmp_path / "out",
                       "--config", bad),
            "input": ("extract", "--input", bad, "--checkpoint",
                      request.getfixturevalue("trained_run") / "best.ckpt"),
        }[kind]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and "not UTF-8" in err

    def test_malformed_config_json_exits_one_naming_it(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("{not json")
        assert run("train", "--dataset", FIG_CORPUS, "--out", tmp_path / "out",
                   "--config", config) == 1
        assert str(config) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("payload", [[1, 2], "epochs", None], ids=["array", "string", "null"])
    def test_config_that_is_not_an_object_exits_one_naming_it(self, payload, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        assert run("train", "--dataset", FIG_CORPUS, "--out", tmp_path / "out",
                   "--config", config) == 1
        assert f"config file {config} must hold a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("ontology_doc, message", [
        ({"uses": {"domain": ["Tool"]}}, "'uses'"),
        ({"uses": ["Tool", "Tool"]}, "'uses'"),
        ({"uses": {"domain": "Tool", "range": ["Tool"]}}, "'uses'"),
        ({"uses": {"domain": [], "range": ["Tool"]}}, "'uses'"),
        (["uses"], "expected a JSON object"),
    ], ids=["no-range", "list-rule", "string-domain", "empty-domain", "not-an-object"])
    def test_malformed_ontology_rule_exits_one(self, ontology_doc, message, tmp_path, capsys):
        ontology = tmp_path / "ontology.json"
        ontology.write_text(json.dumps(ontology_doc))
        assert run("validate", "--dataset", FIG_CORPUS, "--ontology", ontology) == 1
        assert message in capsys.readouterr().err


class TestConfidenceFloorRange:
    @pytest.mark.parametrize("value", ["nan", "7"])
    @pytest.mark.parametrize("command", ["eval", "extract"])
    def test_out_of_range_floor_is_a_usage_error(self, command, value, tmp_path, capsys):
        # with NaN every `confidence < floor` is False: the floor would be ignored
        source = ("--dataset", FIG_CORPUS) if command == "eval" else ("--input", "s.txt")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            run(command, *source, "--checkpoint", "m.ckpt", "--confidence-floor", value,
                "--out", out)
        assert err.value.code == 2
        assert "[0, 1]" in capsys.readouterr().err
        assert not out.exists()


class TestCheckpointTables:
    """The vocab/type tables saved with a checkpoint: missing, malformed or
    sized unlike the stored ModelConfig is a data error on eval and extract."""

    TABLES = {
        "no-tables": {},
        "no-vocab": {"types": {"entity_types": ["Org", "Tool"], "relations": ["uses"]}},
        "vocab-not-a-list": {"vocab": 5,
                             "types": {"entity_types": ["Org", "Tool"], "relations": ["uses"]}},
        "types-not-an-object": {"vocab": ["<pad>", "<unk>"] + [f"w{i}" for i in range(7)],
                                "types": ["Org", "Tool"]},
        "vocab-repeats": {"vocab": ["<pad>", "<unk>"] + [f"w{i}" for i in range(6)] + ["w0"],
                          "types": {"entity_types": ["Org", "Tool"], "relations": ["uses"]}},
        "vocab-size": {"vocab": ["<pad>", "<unk>", "w0"],
                       "types": {"entity_types": ["Org", "Tool"], "relations": ["uses"]}},
        # read in stored order, or every embedding row would be shifted
        "vocab-specials-not-first": {"vocab": ["w0", "<pad>", "<unk>"]
                                     + [f"w{i}" for i in range(1, 7)],
                                     "types": {"entity_types": ["Org", "Tool"],
                                               "relations": ["uses"]}},
        "type-count": {"vocab": ["<pad>", "<unk>"] + [f"w{i}" for i in range(7)],
                       "types": {"entity_types": ["Org", "Tool", "Area"], "relations": ["uses"]}},
        "relation-count": {"vocab": ["<pad>", "<unk>"] + [f"w{i}" for i in range(7)],
                           "types": {"entity_types": ["Org", "Tool"],
                                     "relations": ["uses", "targets"]}},
    }

    @pytest.mark.parametrize("command", ["eval", "extract"])
    @pytest.mark.parametrize("tables", sorted(TABLES))
    def test_bad_tables_exit_one(self, command, tables, tmp_path, capsys):
        from ctie.model import ModelConfig, init_params, save_checkpoint

        # 9 tokens, 2 entity types (5 BIO labels), uses + noRelation
        config = ModelConfig(vocab_size=9, num_ner_labels=5, num_relations=2,
                             num_entity_types=2, embed_dim=4, hidden_dim=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(config, seed=0), config, extras=self.TABLES[tables])
        text = tmp_path / "s.txt"
        text.write_text("hello world\n")
        argv = {
            # --split all: the checkpoint stores no train_config to rebuild a split from
            "eval": ("eval", "--dataset", FIG_CORPUS, "--checkpoint", path, "--split", "all"),
            "extract": ("extract", "--checkpoint", path, "--input", text),
        }[command]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        # the message after the path, which names this test's tables too
        assert err.startswith(f"error: {path}: checkpoint ")
        assert "table" in err[len(f"error: {path}"):]


class TestFeatureToggleFlags:
    def test_no_use_entity_type_recorded_and_applied(self, tmp_path):
        from ctie.model import load_checkpoint

        out = tmp_path / "run"
        assert run("train", "--dataset", SMOKE_CORPUS, "--out", out,
                   "--epochs", "1", *TRAIN_FLAGS[2:],
                   "--no-use-entity-type", "--no-use-entity-mask") == 0
        resolved = json.loads((out / "run_config.json").read_text())
        assert resolved["model_kwargs"]["use_entity_type"] is False
        assert resolved["model_kwargs"]["use_entity_mask"] is False
        ckpt = load_checkpoint(out / "best.ckpt")
        assert ckpt.config.use_entity_type is False
        assert ckpt.config.use_entity_mask is False
        # relation head consumes only the pooled vector in this configuration
        assert ckpt.params["re_w"].shape[0] == 2 * ckpt.config.hidden_dim


class TestNoTrainableRow:
    """A training split with no MSLR row left is a data error (exit 1) that
    counts the training sentences, not a runtime error (exit 3)."""

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_empty_corpus(self, command, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("[]")
        assert run(command, "--dataset", empty, "--out", tmp_path / "run", *TRAIN_FLAGS) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: no trainable MSLR row: of 0 training sentences, 0 have no relation "
            "and 0 are longer than max_len 64")

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_every_sentence_longer_than_max_len(self, command, tmp_path, capsys):
        assert run(command, "--dataset", SMOKE_CORPUS, "--out", tmp_path / "run",
                   *TRAIN_FLAGS[:-2], "--max-len", "2") == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: no trainable MSLR row: of 36 training sentences, 0 have no relation "
            "and 36 are longer than max_len 2")


class TestAblate:
    def test_four_metric_files_named_by_flags(self, tmp_path):
        out = tmp_path / "ablation"
        code = run(
            "ablate", "--dataset", SMOKE_CORPUS, "--out", out,
            "--epochs", "1", "--batch-size", "8", "--lr", "0.005",
            "--embed-dim", "8", "--hidden-dim", "4", "--dropout", "0.0",
            "--max-len", "64",
        )
        assert code == 0
        for mask in ("false", "true"):
            for typ in ("false", "true"):
                path = out / f"ablation_mask-{mask}_type-{typ}.json"
                assert path.exists(), path.name
                payload = json.loads(path.read_text())
                assert set(payload) == {"ner", "re"}
        assert (out / "ablation.txt").exists()

    def test_empty_test_split_fails_before_training(self, tmp_path, monkeypatch, capsys):
        import ctie.evaluation

        trained = []
        monkeypatch.setattr(ctie.evaluation, "train_loop",
                            lambda *a, **k: trained.append(a) or pytest.fail("trained"))
        dataset = tmp_path / "three.json"
        dataset.write_text(json.dumps(json.loads(SMOKE_CORPUS.read_text())[:3]))
        out = tmp_path / "ablation"
        assert run("ablate", "--dataset", dataset, "--out", out, "--epochs", "1",
                   "--embed-dim", "8", "--hidden-dim", "4") == 1
        assert capsys.readouterr().err == (
            "error: the test split holds 0 of the corpus's 3 sentences: nothing to evaluate\n")
        assert not trained and not (out / "ablation.txt").exists()


def _perturbed_checkpoint(path, types, sentences, seed):
    """A checkpoint with ``bio_constrained_decode`` on and NER weights that
    drive an unconstrained Viterbi into I- tags without a matching B-."""
    import numpy as np

    from ctie.model import ModelConfig, init_params, save_checkpoint
    from ctie.mslr import build_vocab

    vocab = build_vocab(sentences)
    config = ModelConfig(
        vocab_size=len(vocab), num_ner_labels=types.num_bio_labels,
        num_relations=types.num_relations, num_entity_types=types.num_entity_types,
        embed_dim=8, hidden_dim=4, dropout=0.0, bio_constrained_decode=True,
    )
    params = init_params(config, seed=seed)
    rng = np.random.default_rng(seed)
    params["ner_w"] = rng.normal(scale=5.0, size=params["ner_w"].shape)
    inside = [i for i, tag in enumerate(types.bio_labels) if tag.startswith("I-")]
    params["ner_b"][inside] += 3.0
    save_checkpoint(path, params, config,
                    extras={"vocab": vocab.to_list(), "types": types.to_dict()})
    return params, vocab


def _constrained_reference(params, vocab, types, sentences, allowed):
    """NER report from an explicit encoder pass and ``crf_decode``."""
    import numpy as np

    from ctie.crf import crf_decode
    from ctie.evaluation import decode_spans, gold_spans, ner_metrics
    from ctie.model import bigru, embed, ner_logits

    labels = []
    for sentence in sentences:
        ids = [vocab.id(t) for t in sentence.tokens]
        [h] = bigru(embed([ids], params["embed"]), np.ones((1, len(ids))), params)
        emissions = ner_logits(h, params["ner_w"], params["ner_b"])
        path = crf_decode(emissions, params["crf_trans"], allowed=allowed)
        labels.append([types.bio_tag(i) for i in path])
    spans = [s for i, tags in enumerate(labels) for s in decode_spans(tags, sentence_index=i)]
    report = ner_metrics(gold_spans(sentences), spans,
                         [list(s.labels) for s in sentences], labels)
    return json.loads(report.to_json()), labels


class TestEvalHonoursBioConstraint:
    def test_eval_decodes_under_each_checkpoints_constraint(self, tmp_path):
        from ctie.corpus import OntologySchema, load_corpus
        from ctie.crf import bio_allowed_transitions

        # a second corpus whose entity types are renamed: its type system has
        # the same BIO label count as the original but different label names
        records = json.loads(SMOKE_CORPUS.read_text())
        for record in records:
            record["entities"] = [[s, e, f"X{name}"] for s, e, name in record["entities"]]
            record["entity_labels"] = [
                tag if tag == "O" else f"{tag[:2]}X{tag[2:]}" for tag in record["entity_labels"]
            ]
        renamed_corpus = tmp_path / "renamed.json"
        renamed_corpus.write_text(json.dumps(records))
        renamed_ontology = tmp_path / "renamed_ontology.json"
        renamed_ontology.write_text(json.dumps({
            name: {"domain": [f"X{t}" for t in sorted(rule.domain)],
                   "range": [f"X{t}" for t in sorted(rule.range)]}
            for name, rule in OntologySchema.default().rules.items()
        }))
        original = load_corpus(SMOKE_CORPUS, OntologySchema.default())
        renamed = load_corpus(renamed_corpus, OntologySchema.load(renamed_ontology))
        assert renamed.types.num_bio_labels == original.types.num_bio_labels
        assert renamed.types.bio_labels != original.types.bio_labels

        for k, (dataset, ontology, corpus) in enumerate((
            (SMOKE_CORPUS, None, original),
            (renamed_corpus, renamed_ontology, renamed),
        )):
            types, sentences = corpus.types, corpus.sentences
            ckpt = tmp_path / f"model{k}.ckpt"
            params, vocab = _perturbed_checkpoint(ckpt, types, sentences, seed=50 + k)
            out = tmp_path / f"eval{k}"
            ontology_flag = ("--ontology", ontology) if ontology else ()
            assert run("eval", "--dataset", dataset, "--checkpoint", ckpt, *ontology_flag,
                       "--split", "all", "--out", out) == 0
            got = json.loads((out / "metrics.json").read_text())["ner"]

            expected, _ = _constrained_reference(
                params, vocab, types, sentences, bio_allowed_transitions(types.bio_labels)
            )
            unconstrained, labels = _constrained_reference(
                params, vocab, types, sentences, None
            )
            dangling = sum(
                tag.startswith("I-") and (pos == 0 or tags[pos - 1][2:] != tag[2:])
                for tags in labels for pos, tag in enumerate(tags)
            )
            assert dangling > 0
            assert unconstrained != expected
            assert got["support"]["predicted"] > 0
            assert got == expected


class TestCorruptCheckpoint:
    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        from ctie.corpus import OntologySchema, load_corpus

        corpus = load_corpus(SMOKE_CORPUS, OntologySchema.default())
        path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
        _perturbed_checkpoint(path, corpus.types, corpus.sentences, seed=60)
        return path.read_bytes()

    def _eval(self, tmp_path, blob, capsys) -> int:
        path = tmp_path / "corrupt.ckpt"
        path.write_bytes(blob)
        code = run("eval", "--dataset", SMOKE_CORPUS, "--checkpoint", path, "--split", "all")
        assert "error:" in capsys.readouterr().err
        return code

    def test_intact_checkpoint_evaluates(self, checkpoint, tmp_path):
        path = tmp_path / "intact.ckpt"
        path.write_bytes(checkpoint)
        assert run("eval", "--dataset", SMOKE_CORPUS, "--checkpoint", path,
                   "--split", "all") == 0

    def test_cut_anywhere_exits_one(self, checkpoint, tmp_path, capsys):
        import struct

        (header_len,) = struct.unpack_from("<Q", checkpoint, 12)
        payload_start = 20 + header_len
        cuts = (0, 5, 8, 15, 20, 20 + header_len // 2, payload_start - 1,
                payload_start, payload_start + 7, (payload_start + len(checkpoint)) // 2,
                len(checkpoint) - 1)
        for cut in cuts:
            assert self._eval(tmp_path, checkpoint[:cut], capsys) == 1, cut

    def test_trailing_bytes_exit_one(self, checkpoint, tmp_path, capsys):
        for junk in (b"\0", b"x" * 8, b"\0" * 1000):
            assert self._eval(tmp_path, checkpoint + junk, capsys) == 1, len(junk)

    def test_undecodable_header_exits_one(self, checkpoint, tmp_path, capsys):
        assert checkpoint[20:21] == b"{"
        for bad in (b"[", b"\xff"):
            blob = checkpoint[:20] + bad + checkpoint[21:]
            assert self._eval(tmp_path, blob, capsys) == 1, bad

    def test_flipped_payload_byte_exits_one(self, checkpoint, tmp_path, capsys):
        import struct

        (header_len,) = struct.unpack_from("<Q", checkpoint, 12)
        payload_start = 20 + header_len
        for pos in (payload_start, (payload_start + len(checkpoint)) // 2, len(checkpoint) - 1):
            blob = bytearray(checkpoint)
            blob[pos] ^= 0x01
            assert self._eval(tmp_path, bytes(blob), capsys) == 1, pos

    @pytest.mark.parametrize("version", [1, 2])
    def test_version_one_file_exits_one_naming_the_version(self, version, checkpoint, tmp_path,
                                                           capsys):
        import struct

        path = tmp_path / "old.ckpt"
        path.write_bytes(checkpoint[:8] + struct.pack("<I", version) + checkpoint[12:])
        assert run("eval", "--dataset", SMOKE_CORPUS, "--checkpoint", path,
                   "--split", "all") == 1
        err = capsys.readouterr().err
        assert f"version {version}" in err and "retrain" in err

    def test_flipped_header_bit_exits_one_in_eval_and_extract(self, checkpoint, tmp_path,
                                                              capsys):
        # "APT28" -> "@PT28" in the stored vocabulary: a reader that trusts
        # the header loads it and reads the word as unknown
        blob = bytearray(checkpoint)
        blob[blob.index(b'"APT28"') + 1] ^= 0x01
        path = tmp_path / "flipped.ckpt"
        path.write_bytes(bytes(blob))
        text = tmp_path / "sentences.txt"
        text.write_text("APT28 used Mimikatz to target banking networks in Europe .\n")
        for argv in (("eval", "--dataset", SMOKE_CORPUS, "--split", "all"),
                     ("extract", "--input", text)):
            assert run(*argv, "--checkpoint", path, "--out", tmp_path / argv[0]) == 1, argv
            assert f"error: {path}: SHA-256" in capsys.readouterr().err
            assert not (tmp_path / argv[0]).exists()


class TestEvalSplitNeedsTrainConfig:
    """Without a stored train_config, eval cannot rebuild the train/val/test
    split; it refuses every split but ``all``."""

    def test_table_only_checkpoint(self, tmp_path, capsys):
        from ctie.corpus import OntologySchema, load_corpus

        corpus = load_corpus(SMOKE_CORPUS, OntologySchema.default())
        path = tmp_path / "model.ckpt"
        _perturbed_checkpoint(path, corpus.types, corpus.sentences, seed=61)
        assert run("eval", "--dataset", SMOKE_CORPUS, "--checkpoint", path,
                   "--split", "test") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "train_config" in err and "'test'" in err
        assert run("eval", "--dataset", SMOKE_CORPUS, "--checkpoint", path,
                   "--split", "all") == 0


class TestEvalUsesCheckpointTypes:
    """``ctie eval`` reads head/tail type ids from the checkpoint's type
    system, looked up by name, not from the evaluated corpus's."""

    @pytest.fixture(scope="class")
    def model(self, tmp_path_factory):
        from ctie.corpus import load_corpus

        # sentences without an Area entity: trained without an ontology,
        # the checkpoint knows fewer entity types than the evaluated corpus,
        # whose type system also holds every ontology type
        root = tmp_path_factory.mktemp("subset")
        records = [r for r in json.loads(SMOKE_CORPUS.read_text())
                   if all(name != "Area" for _s, _e, name in r["entities"])]
        dataset = root / "no_area.json"
        dataset.write_text(json.dumps(records))
        corpus = load_corpus(dataset)
        ckpt = root / "model.ckpt"
        params, vocab = _perturbed_checkpoint(ckpt, corpus.types, corpus.sentences, seed=70)
        return dataset, ckpt, records, corpus, params, vocab

    def test_subset_type_inventory_evaluates_with_checkpoint_ids(self, model, tmp_path):
        from ctie.corpus import OntologySchema, load_corpus
        from ctie.evaluation import evaluate_model
        from ctie.model import load_checkpoint

        dataset, ckpt, _records, corpus, params, vocab = model
        evaluated = load_corpus(dataset, OntologySchema.default()).types
        assert [e.name for e in evaluated.entity_types] != [
            e.name for e in corpus.types.entity_types]

        out = tmp_path / "eval"
        assert run("eval", "--dataset", dataset, "--checkpoint", ckpt,
                   "--split", "all", "--out", out) == 0
        got = json.loads((out / "metrics.json").read_text())
        config = load_checkpoint(ckpt).config
        expected = evaluate_model(params, config, vocab, corpus.types, corpus.sentences)
        assert got["re"]["support"]["predicted"] > 0
        assert got == {task: json.loads(r.to_json()) for task, r in expected.items()}

    @pytest.mark.parametrize("second", ["uses", "noRelation"])
    def test_pair_annotated_twice_exits_one_in_every_command(self, model, second, tmp_path,
                                                             capsys):
        # one pass parses and validates: `validate` rejects what the others do
        _dataset, ckpt, records, *_ = model
        records = json.loads(json.dumps(records))
        k = next(k for k, r in enumerate(records) if r["relations"])
        head, _name, tail = records[k]["relations"][0]
        records[k]["relations"].append([head, second, tail])
        dataset = tmp_path / "twice.json"
        dataset.write_text(json.dumps(records))
        issue = (f"relations[{len(records[k]['relations']) - 1}] ordered entity pair "
                 f"({head}, {tail}) annotated twice")
        assert run("validate", "--dataset", dataset) == 1
        out = capsys.readouterr().out
        assert f"record {k}: [DuplicatePairError] {issue}\n" in out
        assert "structural errors: 1;" in out
        for command, *flags in (
            ("stats",), ("mslr", "--out", tmp_path / "mslr"),
            ("train", "--out", tmp_path / "train", *TRAIN_FLAGS),
            ("eval", "--checkpoint", ckpt, "--split", "all"),
            ("eval", "--checkpoint", ckpt, "--split", "all", "--re-mode", "pipeline"),
        ):
            assert run(command, "--dataset", dataset, *flags) == 1, command
            assert capsys.readouterr().err == f"error: record {k}: {issue}\n"

    def test_unknown_entity_type_exits_one(self, model, capsys):
        _dataset, ckpt, *_ = model
        assert run("eval", "--dataset", SMOKE_CORPUS, "--checkpoint", ckpt,
                   "--split", "all") == 1
        err = capsys.readouterr().err
        assert "'Area'" in err and "checkpoint" in err

    def test_unknown_relation_exits_one(self, model, tmp_path, capsys):
        _dataset, ckpt, records, corpus, *_ = model
        assert "associatedWith" not in {r.name for r in corpus.types.relations}
        records = json.loads(json.dumps(records))
        head, _name, tail = records[0]["relations"][0]
        records[0]["relations"][0] = [head, "associatedWith", tail]
        dataset = tmp_path / "new_relation.json"
        dataset.write_text(json.dumps(records))
        assert run("eval", "--dataset", dataset, "--checkpoint", ckpt, "--split", "all") == 1
        assert "'associatedWith'" in capsys.readouterr().err


def _bundled_ontology(tmp_path):
    """The bundled ontology, written to a file for ``--ontology``."""
    from importlib import resources

    path = tmp_path / "ontology.json"
    path.write_text(resources.files("ctie.data").joinpath("ontology.json").read_text("utf-8"))
    return path


class TestOneSettingsPath:
    """Every setting resolves defaults < --config file < flags, and
    run_config.json records every parsed argument."""

    def test_config_file_seed_trains_like_the_seed_flag(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 7}))
        outs = {name: tmp_path / name for name in ("file", "flag", "both", "flag3")}
        assert run("train", "--dataset", SMOKE_CORPUS, "--out", outs["file"],
                   "--config", config, *TRAIN_FLAGS) == 0
        assert run("train", "--dataset", SMOKE_CORPUS, "--out", outs["flag"],
                   "--seed", "7", *TRAIN_FLAGS) == 0
        # a --seed flag still beats the file
        assert run("train", "--dataset", SMOKE_CORPUS, "--out", outs["both"],
                   "--config", config, "--seed", "3", *TRAIN_FLAGS) == 0
        assert run("train", "--dataset", SMOKE_CORPUS, "--out", outs["flag3"],
                   "--seed", "3", *TRAIN_FLAGS) == 0
        for a, b in (("file", "flag"), ("both", "flag3")):
            for name in ("best.ckpt", "final.ckpt", "training_log.csv", "training_log.json"):
                assert (outs[a] / name).read_bytes() == (outs[b] / name).read_bytes(), (a, name)
        assert (outs["flag"] / "training_log.csv").read_bytes() != (
            outs["flag3"] / "training_log.csv").read_bytes()
        for name, seed in (("file", 7), ("both", 3)):
            resolved = json.loads((outs[name] / "run_config.json").read_text())
            assert resolved["seed"] == resolved["train_config"]["seed"] == seed

    @pytest.mark.parametrize("flags", [
        ("--ontology-filter",), ("--confidence-floor", "0.5"),
        ("--ontology-filter", "--confidence-floor", "0.9"),
    ], ids=["ontology-filter", "confidence-floor", "both"])
    def test_filter_flags_need_pipeline_mode(self, flags, trained_run, tmp_path, capsys):
        from ctie.corpus import OntologySchema, load_corpus
        from ctie.evaluation import evaluate_model
        from ctie.model import checkpoint_tables, load_checkpoint
        from ctie.train import TrainConfig

        checkpoint = trained_run / "best.ckpt"
        for mode in (("--re-mode", "gold"), ()):  # gold is the default mode
            out = tmp_path / "gold"
            with pytest.raises(SystemExit) as err:
                run("eval", "--dataset", SMOKE_CORPUS, "--checkpoint", checkpoint,
                    *mode, *flags, "--out", out)
            assert err.value.code == 2
            assert "--re-mode pipeline" in capsys.readouterr().err
            assert not out.exists()

        out = tmp_path / "pipeline"
        assert run("eval", "--dataset", SMOKE_CORPUS, "--checkpoint", checkpoint,
                   "--re-mode", "pipeline", *flags, "--out", out) == 0
        recorded = json.loads((out / "run_config.json").read_text())
        ontology_filter = "--ontology-filter" in flags
        floor = float(flags[-1]) if "--confidence-floor" in flags else 0.0
        assert recorded["ontology_filter"] is ontology_filter
        assert recorded["confidence_floor"] == floor
        ckpt = load_checkpoint(checkpoint)
        vocab, types = checkpoint_tables(ckpt, checkpoint)
        ontology = OntologySchema.default()
        test = TrainConfig.from_dict(ckpt.extras["train_config"]).split(
            load_corpus(SMOKE_CORPUS, ontology).sentences)[2]
        expected = evaluate_model(
            ckpt.params, ckpt.config, vocab, types, test, re_mode="pipeline",
            max_len=64, ontology=ontology, ontology_filter=ontology_filter,
            confidence_floor=floor,
        )
        got = json.loads((out / "metrics.json").read_text())
        assert got == {task: json.loads(r.to_json()) for task, r in expected.items()}

    def test_run_config_records_ontology_config_input_and_dataset(self, trained_run, tmp_path):
        ontology = _bundled_ontology(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"checkpoint_every": 0}))
        out = tmp_path / "train"
        assert run("train", "--dataset", SMOKE_CORPUS, "--out", out, "--ontology", ontology,
                   "--config", config, *TRAIN_FLAGS) == 0
        recorded = json.loads((out / "run_config.json").read_text())
        assert recorded["ontology"] == str(ontology) and recorded["config"] == str(config)

        checkpoint = trained_run / "best.ckpt"
        assert run("eval", "--dataset", SMOKE_CORPUS, "--checkpoint", checkpoint,
                   "--ontology", ontology, "--out", tmp_path / "eval") == 0
        recorded = json.loads((tmp_path / "eval" / "run_config.json").read_text())
        assert recorded["ontology"] == str(ontology)

        text = tmp_path / "s.txt"
        text.write_text("APT29 uses Mimikatz\n")
        assert run("extract", "--checkpoint", checkpoint, "--input", text,
                   "--out", tmp_path / "text") == 0
        assert run("extract", "--checkpoint", checkpoint, "--dataset", SMOKE_CORPUS,
                   "--ontology", ontology, "--out", tmp_path / "corpus") == 0
        by_text = json.loads((tmp_path / "text" / "run_config.json").read_text())
        by_corpus = json.loads((tmp_path / "corpus" / "run_config.json").read_text())
        assert (by_text["input"], by_text["dataset"], by_text["ontology"]) == (
            str(text), None, None)
        assert (by_corpus["input"], by_corpus["dataset"], by_corpus["ontology"]) == (
            None, str(SMOKE_CORPUS), str(ontology))

    def test_identical_runs_write_identical_run_configs(self, tmp_path):
        outs = (tmp_path / "a", tmp_path / "b")
        for out in outs:
            assert run("train", "--dataset", SMOKE_CORPUS, "--out", out, *TRAIN_FLAGS) == 0
        blobs = [(out / "run_config.json").read_bytes() for out in outs]
        assert blobs[0] == blobs[1]
        # every parsed argument but --out and the raw training flags,
        # which the resolved train_config and model_kwargs replace
        assert set(json.loads(blobs[0])) == {
            "command", "dataset", "ontology", "config", "pretrained_embeddings",
            "seed", "train_config", "model_kwargs",
        }


class TestStoredTrainConfig:
    """A checkpoint's stored train_config is parsed and validated in one
    step; a malformed one is a data error naming the checkpoint."""

    @pytest.mark.parametrize("stored", [
        {"train_ratio": 0.7, "val_ratio": 0.15, "test_ratio": 0.15, "bogus": 1},
        [0.7, 0.15, 0.15],
        {"train_ratio": "x"},
    ], ids=["unknown-key", "list", "mistyped-ratio"])
    @pytest.mark.parametrize("split", ["test", "all"])
    def test_malformed_train_config_exits_one(self, stored, split, trained_run, tmp_path,
                                              capsys):
        from ctie.model import load_checkpoint, save_checkpoint

        ckpt = load_checkpoint(trained_run / "best.ckpt")
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt.params, ckpt.config,
                        extras={**ckpt.extras, "train_config": stored})
        out = tmp_path / "eval"
        assert run("eval", "--dataset", SMOKE_CORPUS, "--checkpoint", path,
                   "--split", split, "--out", out) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {path}: checkpoint train_config is malformed")
        assert not out.exists()


BAD_SEEDS = [{"seed": "x"}, {"seed": -1}, {"seed": 1.5}, {"seed": True},
             {"shuffle_seed": "y"}, {"split_seed": -2}, {"shuffle_seed": False}]
BAD_SEED_IDS = ["seed-str", "seed-negative", "seed-float", "seed-bool",
                "shuffle-seed-str", "split-seed-negative", "shuffle-seed-bool"]


class TestSeedValues:
    """A seed that is not a non-negative int is rejected like any other bad
    config value: a usage error (exit 2) before anything is written, and a
    data error (exit 1) in a checkpoint's stored train_config, as an
    out-of-range value there is."""

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("config", BAD_SEEDS, ids=BAD_SEED_IDS)
    def test_config_file_seed_is_a_usage_error(self, command, config, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as err:
            run(command, "--dataset", SMOKE_CORPUS, "--out", out, "--config", path,
                *TRAIN_FLAGS)
        assert err.value.code == 2
        assert f"{next(iter(config))} must be a non-negative integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_negative_seed_flag_is_a_usage_error(self, command, tmp_path, capsys):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as err:
            run(command, "--dataset", SMOKE_CORPUS, "--out", out, "--seed", "-1", *TRAIN_FLAGS)
        assert err.value.code == 2
        assert "seed must be a non-negative integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config", BAD_SEEDS, ids=BAD_SEED_IDS)
    @pytest.mark.parametrize("split", ["test", "all"])
    def test_stored_seed_is_a_data_error(self, config, split, trained_run, tmp_path, capsys):
        from ctie.model import load_checkpoint, save_checkpoint

        ckpt = load_checkpoint(trained_run / "best.ckpt")
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt.params, ckpt.config, extras={
            **ckpt.extras, "train_config": {**ckpt.extras["train_config"], **config}})
        out = tmp_path / "eval"
        assert run("eval", "--dataset", SMOKE_CORPUS, "--checkpoint", path,
                   "--split", split, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: checkpoint train_config is malformed")
        assert "must be a non-negative integer" in err
        assert not out.exists()

    @pytest.mark.parametrize("config, message", [
        ({"learning_rate": float("nan")}, "learning_rate must be finite and > 0"),
        ({"grad_clip_norm": -1.0}, "grad_clip_norm must be null, or finite and >= 0"),
        ({"beta2": 1.0}, "beta2 must be in [0, 1)"),
        ({"checkpoint_every": -2}, "checkpoint_every must be >= 0"),
    ], ids=["lr-nan", "grad-clip-norm-negative", "beta2-one", "checkpoint-every-negative"])
    def test_stored_out_of_range_value_is_a_data_error(self, config, message, trained_run,
                                                       tmp_path, capsys):
        from ctie.model import load_checkpoint, save_checkpoint

        ckpt = load_checkpoint(trained_run / "best.ckpt")
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt.params, ckpt.config, extras={
            **ckpt.extras, "train_config": {**ckpt.extras["train_config"], **config}})
        out = tmp_path / "eval"
        assert run("eval", "--dataset", SMOKE_CORPUS, "--checkpoint", path, "--split", "test",
                   "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: checkpoint train_config is malformed")
        assert message in err
        assert not out.exists()


# every subcommand's option strings, as the CLI has accepted them since
# the training flags were last added
OPTION_STRINGS = {
    "validate": {"--dataset", "--ontology", "--strict"},
    "stats": {"--dataset", "--ontology", "--out"},
    "mslr": {"--dataset", "--ontology", "--out", "--max-len", "--min-freq"},
    "train": {
        "--dataset", "--ontology", "--out", "--seed", "--config", "--epochs", "--batch-size",
        "--lr", "--weight-decay", "--max-len", "--min-freq", "--grad-clip-norm",
        "--embed-dim", "--hidden-dim", "--dropout", "--alpha", "--beta",
        "--use-entity-mask", "--no-use-entity-mask", "--use-entity-type",
        "--no-use-entity-type", "--bio-constrained-decode", "--no-bio-constrained-decode",
        "--freeze-embeddings", "--no-freeze-embeddings", "--pretrained-embeddings",
    },
    "eval": {"--dataset", "--ontology", "--out", "--checkpoint", "--re-mode", "--split",
             "--ontology-filter", "--confidence-floor"},
    "extract": {"--ontology", "--out", "--checkpoint", "--input", "--dataset", "--gold-spans",
                "--ontology-filter", "--confidence-floor"},
    "export": {"--out", "--extractions", "--format"},
}
OPTION_STRINGS["ablate"] = OPTION_STRINGS["train"] - {"--pretrained-embeddings"}
# the flags of train and ablate that set no TrainConfig or ModelConfig field
NON_FIELD_DESTS = {"help", "dataset", "ontology", "out", "config", "pretrained_embeddings"}


def _subcommands():
    import argparse

    from ctie.cli import build_parser

    parser = build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


class TestTrainingFlagTable:
    """The training flags are declared once, from the config fields."""

    @pytest.mark.parametrize("command", ["train", "ablate", "mslr"])
    def test_each_training_flag_sets_its_field_and_has_no_default(self, command):
        from dataclasses import fields

        from ctie.model import ModelConfig
        from ctie.train import TrainConfig

        names = {f.name for f in fields(TrainConfig)} | {f.name for f in fields(ModelConfig)}
        actions = [a for a in _subcommands()[command]._actions
                   if a.dest not in NON_FIELD_DESTS]
        assert actions
        for action in actions:
            assert action.dest in names, action.option_strings
            assert action.default is None, action.option_strings

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_every_model_config_default_has_a_flag(self, command):
        from dataclasses import MISSING, fields

        from ctie.model import ModelConfig

        dests = {a.dest for a in _subcommands()[command]._actions}
        defaults = {f.name for f in fields(ModelConfig) if f.default is not MISSING}
        assert defaults <= dests

    def test_option_strings_are_unchanged(self):
        got = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
               for name, p in _subcommands().items()}
        assert got == OPTION_STRINGS
