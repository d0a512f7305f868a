"""CLI subcommands: exit codes, outputs, and reproducibility."""

import json

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

    def test_missing_file_exit_one(self, capsys):
        assert run("validate", "--dataset", "/nonexistent/corpus.json") == 1
        assert "error" in capsys.readouterr().err


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


class TestRuntimeErrorExit:
    def test_checkpoint_without_tables_exits_three(self, tmp_path, capsys):
        import numpy as np
        from ctie.model import save_checkpoint, init_params
        from helpers import tiny_config

        config = tiny_config()
        path = tmp_path / "bare.ckpt"
        save_checkpoint(path, init_params(config, seed=0), config)  # no vocab/types
        text = tmp_path / "s.txt"
        text.write_text("hello world\n")
        assert run("extract", "--checkpoint", path, "--input", text) == 3
        assert "runtime error" in capsys.readouterr().err


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
        h = bigru(embed(ids, params["embed"]), np.ones(len(ids)), params)
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

    def test_unknown_entity_type_exits_one(self, model, capsys):
        _dataset, ckpt, *_ = model
        assert run("eval", "--dataset", SMOKE_CORPUS, "--checkpoint", ckpt,
                   "--split", "all") == 1
        err = capsys.readouterr().err
        assert "'Area'" in err and "checkpoint" in err

    def test_unknown_relation_exits_one(self, model, tmp_path, capsys):
        _dataset, ckpt, records, corpus, *_ = model
        assert not corpus.types.has_relation("associatedWith")
        records = json.loads(json.dumps(records))
        head, _name, tail = records[0]["relations"][0]
        records[0]["relations"][0] = [head, "associatedWith", tail]
        dataset = tmp_path / "new_relation.json"
        dataset.write_text(json.dumps(records))
        assert run("eval", "--dataset", dataset, "--checkpoint", ckpt, "--split", "all") == 1
        assert "'associatedWith'" in capsys.readouterr().err
