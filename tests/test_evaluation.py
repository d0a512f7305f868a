"""Span decoding, NER/RE metrics, and the ablation harness shape."""

from dataclasses import replace

import numpy as np
import pytest

from ctie.corpus import load_corpus
from ctie.evaluation import (
    ABLATION_CONFIGS,
    PairPrediction,
    SpanPrediction,
    decode_spans,
    evaluate_model,
    gold_pairs,
    gold_spans,
    ner_metrics,
    re_metrics,
    run_ablation,
    spans_to_bio,
)
from ctie.model import init_params
from ctie.train import TrainConfig

from helpers import SMOKE_CORPUS, random_corpus


def span(i, s, e, t):
    return SpanPrediction(i, s, e, t)


def pair(i, hs, ts, rel):
    return PairPrediction(i, tuple(hs), tuple(ts), rel)


class TestDecodeSpans:
    def test_basic(self):
        spans = decode_spans(["B-Tool", "I-Tool", "O", "B-Area"])
        assert spans == [span(0, 0, 2, "Tool"), span(0, 3, 4, "Area")]

    def test_all_outside(self):
        assert decode_spans(["O", "O"]) == []

    def test_lenient_dangling_i(self):
        assert decode_spans(["I-Tool"]) == [span(0, 0, 1, "Tool")]

    def test_lenient_type_switch(self):
        spans = decode_spans(["B-Tool", "I-Exp", "I-Exp"])
        assert spans == [span(0, 0, 1, "Tool"), span(0, 1, 3, "Exp")]

    def test_adjacent_b_tags(self):
        spans = decode_spans(["B-Org", "B-Org", "I-Org"])
        assert spans == [span(0, 0, 1, "Org"), span(0, 1, 3, "Org")]

    def test_round_trip_with_span_encoding(self):
        rng = np.random.default_rng(0)
        corpus = random_corpus(rng, 60)
        for i, sentence in enumerate(corpus.sentences):
            expected = [
                span(i, e.start, e.end, e.entity_type.name) for e in sentence.entities
            ]
            rebuilt = decode_spans(
                spans_to_bio(expected, len(sentence.tokens)), sentence_index=i
            )
            assert rebuilt == expected


class TestNerMetrics:
    def test_two_thirds_fixture(self):
        gold = [span(0, 0, 1, "a"), span(0, 2, 3, "b"), span(1, 0, 1, "d")]
        pred = [span(0, 0, 1, "a"), span(0, 2, 3, "b"), span(1, 4, 5, "c")]
        report = ner_metrics(gold, pred)
        assert report.precision == pytest.approx(2 / 3, abs=1e-12)
        assert report.recall == pytest.approx(2 / 3, abs=1e-12)
        assert report.f1 == pytest.approx(2 / 3, abs=1e-12)

    def test_perfect(self):
        gold = [span(0, 0, 2, "Tool"), span(1, 1, 3, "Org")]
        report = ner_metrics(gold, list(gold))
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)

    def test_empty_prediction_convention(self):
        gold = [span(0, 0, 1, "Tool")]
        report = ner_metrics(gold, [])
        assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)

    def test_token_accuracy(self):
        gold_labels = [["B-Tool", "O", "O"]]
        pred_labels = [["B-Tool", "B-Org", "O"]]
        report = ner_metrics(
            decode_spans(gold_labels[0]),
            decode_spans(pred_labels[0]),
            gold_labels,
            pred_labels,
        )
        assert report.accuracy == pytest.approx(2 / 3)

    def test_per_class_breakdown(self):
        gold = [span(0, 0, 1, "Tool"), span(0, 2, 3, "Org")]
        pred = [span(0, 0, 1, "Tool"), span(0, 4, 5, "Org")]
        report = ner_metrics(gold, pred)
        assert report.per_class["Tool"].f1 == 1.0
        assert report.per_class["Org"].f1 == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        gold = [span(i, 2 * i, 2 * i + 1, "T") for i in range(10)]
        pred = [span(i, 2 * i, 2 * i + 1, "T") for i in range(0, 10, 2)]
        shuffled = list(pred)
        rng.shuffle(shuffled)
        a, b = ner_metrics(gold, pred), ner_metrics(gold, shuffled)
        assert (a.precision, a.recall, a.f1) == (b.precision, b.recall, b.f1)


class TestReMetrics:
    def test_identical_sets(self):
        gold = [pair(0, (0, 1), (2, 3), "uses")] + [
            pair(i, (0, 1), (4, 5), "targets") for i in range(1, 5)
        ]
        report = re_metrics(gold, list(gold))
        assert report.f1 == 1.0
        assert report.accuracy == 1.0

    def test_all_no_relation_prediction(self):
        gold = [
            pair(0, (0, 1), (2, 3), "uses"),
            pair(0, (2, 3), (0, 1), "noRelation"),
            pair(1, (0, 1), (2, 3), "targets"),
            pair(1, (2, 3), (0, 1), "noRelation"),
        ]
        pred = [
            PairPrediction(p.sentence_index, p.head_span, p.tail_span, "noRelation")
            for p in gold
        ]
        report = re_metrics(gold, pred)
        assert report.recall == 0.0
        assert report.f1 == 0.0
        assert report.accuracy == pytest.approx(0.5)  # the two gold-noRelation pairs

    def test_hand_counts_fixture(self):
        # 4 gold positives, 5 predicted positives, 3 correct
        gold = [
            pair(0, (0, 1), (2, 3), "uses"),
            pair(0, (0, 1), (4, 5), "targets"),
            pair(1, (0, 1), (2, 3), "uses"),
            pair(2, (0, 1), (2, 3), "analyses"),
        ]
        pred = [
            pair(0, (0, 1), (2, 3), "uses"),
            pair(0, (0, 1), (4, 5), "targets"),
            pair(1, (0, 1), (2, 3), "uses"),
            pair(2, (0, 1), (2, 3), "monitors"),
            pair(2, (4, 5), (2, 3), "uses"),
        ]
        report = re_metrics(gold, pred)
        assert report.precision == pytest.approx(0.6, abs=1e-12)
        assert report.recall == pytest.approx(0.75, abs=1e-12)
        assert report.f1 == pytest.approx(2 * 0.6 * 0.75 / 1.35, abs=1e-12)

    def test_f1_is_harmonic_mean(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n_gold, n_pred = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            gold = [pair(i, (0, 1), (2, 3), "uses") for i in range(n_gold)]
            pred = [pair(i, (0, 1), (2, 3), "uses") for i in range(n_pred)]
            report = re_metrics(gold, pred)
            p, r = report.precision, report.recall
            expected = 2 * p * r / (p + r) if p + r else 0.0
            assert report.f1 == pytest.approx(expected, abs=1e-12)

    def test_missing_pair_counts_wrong_in_accuracy(self):
        gold = [pair(0, (0, 1), (2, 3), "uses"), pair(0, (2, 3), (0, 1), "noRelation")]
        pred = [pair(0, (0, 1), (2, 3), "uses")]
        report = re_metrics(gold, pred)
        assert report.accuracy == pytest.approx(0.5)
        assert report.f1 == 1.0


class TestGoldViews:
    def test_gold_spans_and_pairs(self):
        corpus = load_corpus(SMOKE_CORPUS)
        sentences = corpus.sentences[:3]
        spans = gold_spans(sentences)
        assert len(spans) == sum(len(s.entities) for s in sentences)
        pairs = gold_pairs(sentences)
        assert len(pairs) == sum(len(s.relations) for s in sentences)
        report = re_metrics(pairs, pairs)
        assert report.f1 == 1.0


class TestEvaluateModel:
    def test_untrained_model_produces_reports(self):
        corpus = load_corpus(SMOKE_CORPUS)
        sentences = corpus.sentences[:4]
        from ctie.model import ModelConfig
        from ctie.mslr import build_vocab

        vocab = build_vocab(sentences)
        config = ModelConfig(
            vocab_size=len(vocab),
            num_ner_labels=corpus.types.num_bio_labels,
            num_relations=corpus.types.num_relations,
            num_entity_types=corpus.types.num_entity_types,
            embed_dim=8, hidden_dim=4, dropout=0.0,
        )
        params = init_params(config, seed=3)
        reports = evaluate_model(params, config, vocab, corpus.types, sentences)
        assert 0.0 <= reports["ner"].f1 <= 1.0
        assert 0.0 <= reports["re"].f1 <= 1.0
        assert reports["re"].accuracy is not None


    @pytest.mark.parametrize("chunk", [4, 32])
    def test_batched_ner_decode_matches_per_sentence(self, monkeypatch, chunk):
        import ctie.evaluation as evaluation
        from ctie.crf import bio_allowed_transitions
        from ctie.model import ModelConfig, ner_predict
        from ctie.mslr import build_vocab

        corpus = load_corpus(SMOKE_CORPUS)
        types, sentences = corpus.types, corpus.sentences[:41]
        vocab = build_vocab(sentences)
        config = ModelConfig(
            vocab_size=len(vocab), num_ner_labels=types.num_bio_labels,
            num_relations=types.num_relations, num_entity_types=types.num_entity_types,
            embed_dim=8, hidden_dim=4, dropout=0.0,
        )
        params = init_params(config, seed=4)
        params["ner_w"] = np.random.default_rng(4).normal(scale=3.0, size=params["ner_w"].shape)
        encodings = evaluation.encode_sentences(params, vocab, [s.tokens for s in sentences])
        assert len({len(h) for h in encodings}) > 1

        decoded = []
        real = evaluation.predict_ner_labels

        def spy(*args):
            decoded.append(real(*args))
            return decoded[-1]

        monkeypatch.setattr(evaluation, "ENCODE_BATCH", chunk)
        monkeypatch.setattr(evaluation, "predict_ner_labels", spy)
        for constrained in (False, True):
            allowed = bio_allowed_transitions(types.bio_labels) if constrained else None
            one_by_one = [
                [types.bio_tag(i) for i in ner_predict(h[None], np.ones((1, len(h))),
                                                       params, allowed)[0]]
                for h in encodings
            ]
            decoded.clear()
            evaluate_model(
                params, replace(config, bio_constrained_decode=constrained), vocab, types,
                sentences,
            )
            assert [len(d) for d in decoded] == [min(chunk, 41 - lo) for lo in range(0, 41, chunk)]
            assert [tags for d in decoded for tags in d] == one_by_one


class TestAblationHarness:
    def test_report_shape_and_ner_equivalence(self):
        corpus = load_corpus(SMOKE_CORPUS)
        config = TrainConfig(
            seed=11, epochs=1, batch_size=8, learning_rate=1e-3,
            train_ratio=0.7, val_ratio=0.15, test_ratio=0.15, max_len=64,
        )
        result = run_ablation(
            corpus.sentences[:20], corpus.types, config,
            model_kwargs=dict(embed_dim=8, hidden_dim=4, dropout=0.0),
        )
        assert set(result.reports) == {name for name, _m, _t in ABLATION_CONFIGS}
        for tasks in result.reports.values():
            assert set(tasks) == {"ner", "re"}
            for report in tasks.values():
                for value in (report.precision, report.recall, report.f1):
                    assert 0.0 <= value <= 1.0
        table = result.to_table()
        assert table.count("\n") == 5  # header + rule + 4 config rows

    def test_ner_metrics_identical_at_initialization(self):
        # before any training step the feature toggles must not touch the
        # NER branch: identical seeds give identical NER reports
        corpus = load_corpus(SMOKE_CORPUS)
        sentences = corpus.sentences[:6]
        from ctie.model import ModelConfig
        from ctie.mslr import build_vocab

        vocab = build_vocab(sentences)
        reports = []
        for use_mask, use_type in ((False, False), (True, False), (False, True), (True, True)):
            config = ModelConfig(
                vocab_size=len(vocab),
                num_ner_labels=corpus.types.num_bio_labels,
                num_relations=corpus.types.num_relations,
                num_entity_types=corpus.types.num_entity_types,
                embed_dim=8, hidden_dim=4, dropout=0.0,
                use_entity_mask=use_mask, use_entity_type=use_type,
            )
            params = init_params(config, seed=21)
            reports.append(
                evaluate_model(params, config, vocab, corpus.types, sentences)["ner"]
            )
        base = reports[0]
        for report in reports[1:]:
            assert report.precision == base.precision
            assert report.recall == base.recall
            assert report.f1 == base.f1
