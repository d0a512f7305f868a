"""Span decoding, NER/RE metrics, and the ablation harness shape."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import ctie.evaluation as evaluation
from ctie.corpus import TypeSystem, load_corpus
from ctie.evaluation import (
    ABLATION_CONFIGS,
    PairPrediction,
    SpanPrediction,
    decode_spans,
    evaluate_model,
    gold_pair_report,
    gold_pairs,
    gold_spans,
    ner_metrics,
    re_metrics,
    run_ablation,
)
from ctie.model import ModelConfig, init_params, score_pairs
from ctie.mslr import build_vocab, sentence_rows
from ctie.train import TrainConfig

from helpers import (
    SMOKE_CORPUS,
    bio_for_spans,
    entity_masks,
    random_corpus,
    relation_head,
    span_layouts,
)


def span(i, s, e, t):
    return SpanPrediction(i, s, e, t)


def pair(i, hs, ts, rel):
    return PairPrediction(i, tuple(hs), tuple(ts), rel)


def tiny_model(sentences, types, seed=3, **kwargs):
    """(params, config, vocab) of an untrained 8/4 model for ``sentences``."""
    vocab = build_vocab(sentences)
    config = ModelConfig(
        vocab_size=len(vocab), num_ner_labels=types.num_bio_labels,
        num_relations=types.num_relations, num_entity_types=types.num_entity_types,
        embed_dim=8, hidden_dim=4, dropout=0.0, **kwargs,
    )
    return init_params(config, seed=seed), config, vocab


def no_encoding(*args):
    raise AssertionError("encoded before the arguments were checked")


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
            # load_corpus has checked the labels against the spans
            assert decode_spans(sentence.labels, sentence_index=i) == expected

    @given(span_layouts(), st.integers(0, 50))
    def test_decode_inverts_span_encoding(self, layout, index):
        spans, length = layout
        expected = [span(index, s, e, t) for s, e, t in spans]
        assert decode_spans(bio_for_spans(length, spans), sentence_index=index) == expected


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


class TestEncodeBatches:
    """``encode_batches`` cuts its input into consecutive chunks, each as
    many sentences as fit ``ENCODE_CELLS`` padded cells (at least one), and
    encodes each sentence as it would be encoded alone."""

    def test_empty_input_yields_nothing(self):
        corpus = load_corpus(SMOKE_CORPUS)
        params, _, vocab = tiny_model(corpus.sentences, corpus.types)
        assert list(evaluation.encode_batches(params, [])) == []

    def test_chunks_are_maximal_within_the_budget_and_rows_match_lone_encodings(self):
        from ctie.model import encode

        corpus = load_corpus(SMOKE_CORPUS)
        params, _, vocab = tiny_model(corpus.sentences, corpus.types, seed=5)
        rng = np.random.default_rng(5)
        params["gru.u"] = rng.normal(scale=1.0, size=params["gru.u"].shape)
        words = sorted({t for s in corpus.sentences for t in s.tokens}) + ["never-seen"]

        @settings(max_examples=40, deadline=None)
        @given(cells=st.integers(1, 60),
               seqs=st.lists(st.lists(st.sampled_from(words), min_size=1, max_size=14),
                             max_size=12))
        def check(cells, seqs):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(evaluation, "ENCODE_CELLS", cells)
                chunks = list(evaluation.encode_batches(params, [vocab.ids(t) for t in seqs]))
            lengths = [len(tokens) for tokens in seqs]
            lo = 0
            for h, mask in chunks:
                b, t = mask.shape
                assert b >= 1 and h.shape[:2] == (b, t) and t == max(lengths[lo : lo + b])
                assert b * t <= cells or b == 1
                if lo + b < len(seqs):  # the next sentence would break the budget
                    assert (b + 1) * max(t, lengths[lo + b]) > cells
                assert np.array_equal(mask, np.arange(t) < np.array(lengths[lo : lo + b])[:, None])
                for row, tokens in zip(h, seqs[lo : lo + b]):
                    ids = np.array([[vocab.id(token) for token in tokens]])
                    alone = encode(ids, np.ones(ids.shape), params)[0]
                    np.testing.assert_allclose(row[: len(tokens)], alone, rtol=1e-12, atol=1e-12)
                    assert not row[len(tokens) :].any()
                lo += b
            assert lo == len(seqs)

        check()


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

    @pytest.mark.parametrize("floor", [float("nan"), -0.1, 1.5, "0.5", None, True])
    def test_floor_outside_unit_interval_rejected_before_encoding(self, monkeypatch, floor):
        from ctie.model import ModelConfig
        from ctie.mslr import build_vocab

        corpus = load_corpus(SMOKE_CORPUS)
        sentences = corpus.sentences[:4]
        vocab = build_vocab(sentences)
        config = ModelConfig(
            vocab_size=len(vocab), num_ner_labels=corpus.types.num_bio_labels,
            num_relations=corpus.types.num_relations,
            num_entity_types=corpus.types.num_entity_types,
            embed_dim=8, hidden_dim=4, dropout=0.0,
        )

        def no_encoding(*args):
            raise AssertionError("encoded under a confidence floor outside [0, 1]")

        monkeypatch.setattr("ctie.evaluation.encode_batches", no_encoding)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            evaluate_model(init_params(config, seed=3), config, vocab, corpus.types, sentences,
                           re_mode="pipeline", confidence_floor=floor)

    def test_unknown_re_mode_rejected_before_encoding(self, monkeypatch):
        corpus = load_corpus(SMOKE_CORPUS)
        sentences = corpus.sentences[:4]
        model = tiny_model(sentences, corpus.types)
        monkeypatch.setattr("ctie.evaluation.encode_batches", no_encoding)
        with pytest.raises(ValueError, match="unknown re_mode 'oracle'"):
            evaluate_model(*model, corpus.types, sentences, re_mode="oracle")

    @pytest.mark.parametrize("option", [dict(ontology_filter=True), dict(confidence_floor=0.3)])
    def test_pipeline_options_rejected_in_gold_mode(self, monkeypatch, option):
        corpus = load_corpus(SMOKE_CORPUS)
        sentences = corpus.sentences[:4]
        model = tiny_model(sentences, corpus.types)
        monkeypatch.setattr("ctie.evaluation.encode_batches", no_encoding)
        with pytest.raises(ValueError, match="need re_mode='pipeline'"):
            evaluate_model(*model, corpus.types, sentences, re_mode="gold", **option)

    @pytest.mark.parametrize("unknown", ["relation", "entity type"])
    def test_unknown_name_in_the_last_chunk_raises_before_any_encoding(self, monkeypatch,
                                                                       unknown):
        # gold mode builds its row table, which checks every name, before the encoder loop
        from ctie.corpus import EntityType, RelationType
        from ctie.errors import DataError

        corpus = load_corpus(SMOKE_CORPUS)
        sentences = list(corpus.sentences[:8])
        model = tiny_model(sentences, corpus.types)
        last = sentences[-1]
        rel = last.relations[0]
        if unknown == "relation":
            relations = (replace(rel, relation=RelationType("mystery", 99)),) + last.relations[1:]
            sentences[-1] = replace(last, relations=relations)
        else:
            entities = list(last.entities)
            entities[rel.head_index] = replace(entities[rel.head_index],
                                               entity_type=EntityType("Odd", 99))
            sentences[-1] = replace(last, entities=tuple(entities))
        encoded = []
        real = evaluation.encode

        def spy(*args, **kwargs):
            encoded.append(len(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluation, "encode", spy)
        # about one sentence a chunk: the last sentence is its own, last chunk
        monkeypatch.setattr(evaluation, "ENCODE_CELLS", max(len(s) for s in sentences))
        with pytest.raises(DataError, match=f"sentence 7: {unknown} '(mystery|Odd)' is not"):
            evaluate_model(*model, corpus.types, sentences)
        assert encoded == []
        evaluate_model(*model, corpus.types, sentences[:-1])
        assert len(encoded) >= 4

    def test_unknown_type_of_an_unpaired_entity_is_an_ner_miss_in_both_modes(self):
        # gold mode reads no BIO label, so such an entity is only an NER miss
        from ctie.corpus import EntitySpan, EntityType

        corpus = load_corpus(SMOKE_CORPUS)
        known = corpus.sentences[:8]
        model = tiny_model(known, corpus.types)
        sentences, sentence = list(known), known[-1]
        t = sentence.labels.index("O")
        odd = EntitySpan(t, t + 1, EntityType("Odd", 99), sentence.tokens[t])
        sentences[-1] = replace(sentence, entities=sentence.entities + (odd,), labels=(
            sentence.labels[:t] + ("B-Odd",) + sentence.labels[t + 1:]))
        gold = evaluate_model(*model, corpus.types, sentences)
        pipeline = evaluate_model(*model, corpus.types, sentences, re_mode="pipeline")
        assert gold["ner"] == pipeline["ner"]
        assert gold["ner"].gold_total == sum(len(s.entities) for s in sentences)
        assert gold["re"] == evaluate_model(*model, corpus.types, known)["re"]

    @pytest.mark.parametrize("re_mode", ["gold", "pipeline"])
    def test_holds_one_chunk_encoding_at_a_time(self, monkeypatch, re_mode):
        # when a chunk is yielded, every chunk before the previous one is gone
        import weakref

        corpus = load_corpus(SMOKE_CORPUS)
        sentences = corpus.sentences
        model = tiny_model(sentences, corpus.types)
        real = evaluation.encode_batches
        refs, older_alive = [], []

        def spy(*args):
            for h, mask in real(*args):
                older_alive.append(sum(ref() is not None for ref in refs[:-1]))
                refs.append(weakref.ref(h))
                yield h, mask

        monkeypatch.setattr(evaluation, "ENCODE_CELLS",
                            4 * max(len(s.tokens) for s in sentences))
        monkeypatch.setattr(evaluation, "encode_batches", spy)
        evaluate_model(*model, corpus.types, sentences, re_mode=re_mode)
        assert len(refs) >= 4
        assert older_alive == [0] * len(refs)

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
        encodings = [next(evaluation.encode_batches(params, [vocab.ids(s.tokens)]))[0][0]
                     for s in sentences]
        assert len({len(h) for h in encodings}) > 1

        decoded = []
        real = evaluation.predict_ner_labels

        def spy(*args):
            decoded.append(real(*args))
            return decoded[-1]

        # chunks of at least ``chunk`` sentences, padded to different lengths
        monkeypatch.setattr(evaluation, "ENCODE_CELLS", chunk * max(map(len, encodings)))
        sizes = [len(h) for h, _ in
                 evaluation.encode_batches(params, [vocab.ids(s.tokens) for s in sentences])]
        assert len(sizes) >= 2
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
            assert [len(d) for d in decoded] == sizes
            assert [tags for d in decoded for tags in d] == one_by_one


@pytest.mark.parametrize("use_mask, use_type",
                         [(False, False), (True, False), (False, True), (True, True)])
def test_span_scorer_matches_the_mask_reference(use_mask, use_type):
    # random multi-sentence chunks, every ordered pair of each sentence's
    # spans: the span pools and split logits of score_pairs against
    # one mask product and one concatenated-feature product per pair
    config = ModelConfig(vocab_size=5, num_ner_labels=3, num_relations=4, num_entity_types=3,
                         embed_dim=4, hidden_dim=3, use_entity_mask=use_mask,
                         use_entity_type=use_type)
    params = init_params(config, seed=9)
    rng = np.random.default_rng(9)
    for name in ("re_w", "type_embed"):
        params[name] = rng.normal(scale=3.0, size=params[name].shape)

    @settings(max_examples=30, deadline=None)
    @given(layouts=st.lists(span_layouts(), min_size=1, max_size=5),
           seed=st.integers(0, 2**32 - 1), pad=st.integers(0, 2))
    def check(layouts, seed, pad):
        rng = np.random.default_rng(seed)
        lengths = np.array([max(n, 1) for _, n in layouts])
        width = int(lengths.max()) + pad
        mask = (np.arange(width) < lengths[:, None]).astype(float)
        h = rng.normal(size=(len(layouts), width, 2 * config.hidden_dim)) * mask[..., None]
        span_rows, bounds, heads, tails = [], [], [], []
        for b, (spans, _) in enumerate(layouts):
            ids = range(len(bounds), len(bounds) + len(spans))
            heads += [i for i in ids for j in ids if i != j]
            tails += [j for i in ids for j in ids if i != j]
            bounds += [(start, end) for start, end, _ in spans]
            span_rows += [b] * len(spans)
        assume(heads)
        span_rows, bounds, heads, tails = map(np.array, (span_rows, bounds, heads, tails))
        types = rng.integers(0, config.num_entity_types, size=len(bounds))
        probs = score_pairs(h, mask, span_rows, bounds, heads, tails, types[heads], types[tails],
                            params, config).probs
        rows = span_rows[heads]
        expected = relation_head(h[rows], entity_masks(width, bounds[heads], bounds[tails]),
                                 types[heads], types[tails], params, config,
                                 attention_mask=mask[rows])
        np.testing.assert_allclose(probs, expected, rtol=1e-12, atol=0)

    check()


class TestGoldPairScoring:
    """Gold-pair evaluation scores each encoder chunk's rows in one
    ``score_pairs`` call and counts its RE report from relation
    ids; the references are per-sentence calls of the mask-based
    ``helpers.relation_head`` and ``re_metrics`` over ``PairPrediction``
    objects."""

    @pytest.mark.parametrize("use_mask, use_type",
                             [(False, False), (True, False), (False, True), (True, True)])
    @pytest.mark.parametrize("chunk", [4, 32])
    def test_chunk_scorer_matches_per_sentence_relation_head(self, monkeypatch, chunk,
                                                             use_mask, use_type):
        corpus = load_corpus(SMOKE_CORPUS)
        types, sentences = corpus.types, corpus.sentences[:41]
        params, config, vocab = tiny_model(sentences, types, seed=4, use_entity_mask=use_mask,
                                           use_entity_type=use_type)
        rng = np.random.default_rng(4)
        for name in ("re_w", "type_embed"):
            params[name] = rng.normal(scale=3.0, size=params[name].shape)
        max_len = 12
        token_ids = [vocab.ids(s.tokens) for s in sentences]
        rows, skipped = sentence_rows(sentences, token_ids, range(len(sentences)), types,
                                      max_len)
        assert skipped and len(set(rows.lengths.tolist())) > 1
        index = rows.records  # each table sentence's i
        expected, predictions = [], []
        for u, i in enumerate(index):
            own = rows.sentence_range(u, u + 1)
            h = next(evaluation.encode_batches(params, [token_ids[i]]))[0][0]
            heads, tails = own.spans[own.head], own.spans[own.tail]
            masks = entity_masks(len(sentences[i]), heads, tails)
            probs = relation_head(np.broadcast_to(h, masks.shape + h.shape[-1:]), masks,
                                  own.head_type, own.tail_type, params, config,
                                  attention_mask=np.ones(masks.shape))
            expected.append(probs)
            predictions.extend(
                pair(i, head, tail, types.relations[k].name)
                for head, tail, k in zip(heads, tails, np.argmax(probs, axis=1)))
        expected = np.concatenate(expected)

        monkeypatch.setattr(evaluation, "ENCODE_CELLS",
                            chunk * max(len(s.tokens) for s in sentences))
        chunks = list(evaluation.encode_batches(params, token_ids))
        assert len(chunks) >= 2
        scored, ids, lo = [], [], 0
        for h, mask in chunks:
            # the table sentences of corpus sentences [lo, lo + len(h))
            first, last = np.searchsorted(index, (lo, lo + len(h)))
            chunk, chunk_rows = rows.sentence_range(first, last), index[first:last] - lo
            probs = score_pairs(h, mask, chunk_rows[chunk.span_rows], chunk.spans, chunk.head,
                                chunk.tail, chunk.head_type, chunk.tail_type, params, config).probs
            assert probs.shape == (chunk.size, types.num_relations)
            scored.append(probs)
            ids.append(evaluation.predict_relations_gold_pairs(params, config, chunk, h, mask,
                                                               chunk_rows))
            lo += len(h)
        scored = np.concatenate(scored)
        np.testing.assert_allclose(scored, expected, rtol=1e-12, atol=0)
        assert np.array_equal(np.argmax(scored, axis=1), np.argmax(expected, axis=1))
        gold, predicted = (np.concatenate(column) for column in zip(*ids))
        assert np.array_equal(gold, rows.relation_label)
        assert np.array_equal(predicted, np.argmax(expected, axis=1))
        report = evaluate_model(params, config, vocab, types, sentences, max_len=max_len)["re"]
        assert report == re_metrics(gold_pairs(sentences), predictions)

    def test_every_sentence_overlong(self):
        corpus = load_corpus(SMOKE_CORPUS)
        sentences = corpus.sentences[:6]
        report = evaluate_model(*tiny_model(sentences, corpus.types), corpus.types, sentences,
                                max_len=2)["re"]
        assert report == re_metrics(gold_pairs(sentences), [])
        assert report.predicted_total == 0 and report.gold_total > 0

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_sentences=st.integers(0, 10),
           max_len=st.integers(2, 16), data=st.data())
    def test_report_from_ids_matches_re_metrics(self, seed, n_sentences, max_len, data):
        sentences = random_corpus(np.random.default_rng(seed), n_sentences).sentences
        # two relations no sentence is annotated with: only predictions name them
        types = TypeSystem(["HackOrg", "Tool", "Org", "Time"],
                           ["uses", "targets", "aaPredictedOnly", "zzPredictedOnly"])
        table, _ = sentence_rows(sentences, [[0] * len(s) for s in sentences],
                                 range(len(sentences)), types, max_len)
        gold = table.relation_label
        ids = st.integers(0, types.num_relations - 1)
        predicted = np.array(data.draw(st.one_of(
            st.lists(ids, min_size=len(gold), max_size=len(gold)),
            st.just([types.no_relation.id] * len(gold)),
            st.just(gold.tolist()),
        )), dtype=np.int64)
        rows = zip([i for i, _ in table.origins], table.spans[table.head],
                   table.spans[table.tail])
        predictions = [pair(i, head, tail, types.relations[k].name)
                       for (i, head, tail), k in zip(rows, predicted)]
        expected = re_metrics(gold_pairs(sentences), predictions)
        report = gold_pair_report(types, sentences, gold, predicted)
        assert report == expected
        assert report.to_dict() == expected.to_dict()


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
