"""End-to-end extraction mechanics and graph export."""

import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ctie
import ctie.evaluation as evaluation
from ctie.corpus import NO_RELATION, OntologySchema, candidate_pairs, load_corpus
from ctie.errors import EmptyInput, SchemaError, SpanError, UnknownFormat
from ctie.evaluation import SpanPrediction
from ctie.extract import (
    ExtractionResult,
    Extractor,
    Triple,
    export_graph,
    import_graph,
)
from ctie.model import ModelConfig, PairScores, init_params, save_checkpoint, score_pairs
from ctie.mslr import build_vocab, make_entity_mask

from helpers import SMOKE_CORPUS, entity_masks, reference_extract_many


@pytest.fixture(scope="module")
def extractor():
    corpus = load_corpus(SMOKE_CORPUS, OntologySchema.default())
    vocab = build_vocab(corpus.sentences)
    config = ModelConfig(
        vocab_size=len(vocab),
        num_ner_labels=corpus.types.num_bio_labels,
        num_relations=corpus.types.num_relations,
        num_entity_types=corpus.types.num_entity_types,
        embed_dim=8, hidden_dim=4, dropout=0.0,
    )
    params = init_params(config, seed=77)
    return Extractor(
        params=params, config=config, vocab=vocab, types=corpus.types,
        ontology=OntologySchema.default(),
    )


def g_span(i, s, e, t):
    return SpanPrediction(i, s, e, t)


class TestExtract:
    def test_empty_input(self, extractor):
        with pytest.raises(EmptyInput):
            extractor.extract_text("   ")

    def test_fewer_than_two_entities_yields_no_triples(self, extractor):
        result = extractor.extract_tokens(
            ("just", "words"), spans=[g_span(0, 0, 1, "Tool")]
        )
        assert result.triples == []
        assert len(result.spans) == 1

    def test_confidence_floor_of_one_drops_everything(self, extractor):
        spans = [g_span(0, 0, 1, "HackOrg"), g_span(0, 2, 3, "Tool")]
        result = extractor.extract_tokens(
            ("APT28", "uses", "Mimikatz"), spans=spans, confidence_floor=1.0
        )
        assert result.triples == []
        assert len(result.dropped) == 2

    def test_deterministic(self, extractor):
        tokens = tuple("APT28 used Mimikatz to target banking networks".split())
        spans = [g_span(0, 0, 1, "HackOrg"), g_span(0, 2, 3, "Tool"),
                 g_span(0, 5, 7, "Org")]
        a = extractor.extract_tokens(tokens, spans=spans)
        b = extractor.extract_tokens(tokens, spans=spans)
        assert [t.key for t in a.triples] == [t.key for t in b.triples]
        assert [t.confidence for t in a.triples] == [t.confidence for t in b.triples]

    def test_every_pair_classified(self, extractor):
        tokens = tuple("APT28 used Mimikatz against banks".split())
        spans = [g_span(0, 0, 1, "HackOrg"), g_span(0, 2, 3, "Tool"),
                 g_span(0, 4, 5, "Org")]
        result = extractor.extract_tokens(tokens, spans=spans)
        assert len(result.triples) + len(result.dropped) == 6

    def test_triples_never_no_relation_and_confidence_positive(self, extractor):
        tokens = tuple("APT28 used Mimikatz against banks in 2014".split())
        spans = [g_span(0, 0, 1, "HackOrg"), g_span(0, 2, 3, "Tool"),
                 g_span(0, 4, 5, "Org"), g_span(0, 6, 7, "Time")]
        result = extractor.extract_tokens(tokens, spans=spans)
        for t in result.triples:
            assert t.relation != NO_RELATION
            assert 0.0 < t.confidence <= 1.0

    def test_ontology_filter_invariant(self, extractor):
        # with the filter on, every emitted triple satisfies domain/range
        schema = extractor.ontology
        tokens = tuple("APT28 used Mimikatz against banks in 2014 says FireEye".split())
        spans = [g_span(0, 0, 1, "HackOrg"), g_span(0, 2, 3, "Tool"),
                 g_span(0, 4, 5, "Org"), g_span(0, 6, 7, "Time"),
                 g_span(0, 8, 9, "SecTeam")]
        result = extractor.extract_tokens(tokens, spans=spans, ontology_filter=True)
        for t in result.triples:
            assert schema.admits(t.relation, t.head_type, t.tail_type)

    def test_ontology_argmax_matches_candidate_loop(self, extractor, monkeypatch):
        # tied probabilities; the reference is a per-pair max over the
        # admissible relations plus noRelation, the lowest id winning ties
        rng = np.random.default_rng(0)
        blocks = []

        def tied_head(h, mask, span_rows, span_bounds, heads, *rest):
            n_relations = len(extractor.types.relations)
            blocks.append(rng.integers(1, 4, size=(len(heads), n_relations)) / 10)
            return PairScores(*[None] * 7, probs=blocks[-1])

        monkeypatch.setattr("ctie.extract.score_pairs", tied_head)
        tokens = tuple("APT28 used Mimikatz against banks in 2014 says FireEye".split())
        spans = [g_span(0, 0, 1, "HackOrg"), g_span(0, 2, 3, "Tool"),
                 g_span(0, 4, 5, "Org"), g_span(0, 6, 7, "Time"),
                 g_span(0, 8, 9, "SecTeam")]
        result = extractor.extract_tokens(tokens, spans=spans, ontology_filter=True)
        names = [r.name for r in extractor.types.relations]
        no_rel = extractor.types.no_relation.id
        expected = []
        pairs = candidate_pairs([s.entity_type for s in spans], extractor.ontology, True)
        for (i, j), row in zip(pairs, blocks[0]):
            admissible = set(extractor.ontology.admissible_relations(
                spans[i].entity_type, spans[j].entity_type))
            best = max((k for k, name in enumerate(names) if name in admissible or k == no_rel),
                       key=lambda k: (row[k], -k))
            if best != no_rel:
                expected.append(((spans[i].start, spans[i].end), (spans[j].start, spans[j].end),
                                 names[best], row[best]))
        assert [(t.head_span, t.tail_span, t.relation, t.confidence)
                for t in result.triples] == expected
        assert len(result.dropped) == len(pairs) - len(expected) > 0

    def test_decoded_spans_used_when_none_supplied(self, extractor):
        result = extractor.extract_text("APT28 used Mimikatz against banks")
        assert isinstance(result, ExtractionResult)
        for t in result.triples:
            span_keys = {(s.start, s.end) for s in result.spans}
            assert t.head_span in span_keys and t.tail_span in span_keys

    def test_surface_text_joins_tokens(self, extractor):
        tokens = tuple("Cozy Bear used Cobalt Strike".split())
        spans = [g_span(0, 0, 2, "HackOrg"), g_span(0, 3, 5, "Tool")]
        result = extractor.extract_tokens(tokens, spans=spans)
        surfaces = {t.head for t in result.triples} | {t.tail for t in result.triples}
        if surfaces:
            assert surfaces <= {"Cozy Bear", "Cobalt Strike"}

    def test_empty_sequence_rejected_before_encoding(self, extractor, monkeypatch):
        def no_encoding(*args):
            raise AssertionError("encoded a batch holding an empty sentence")

        monkeypatch.setattr("ctie.extract.encode_batches", no_encoding)
        with pytest.raises(EmptyInput, match="sentence 6 "):
            extractor.extract_many([("a", "b"), ()], first_index=5)

    @pytest.mark.parametrize("floor", [float("nan"), -0.1, 1.5, "0.5", None, True])
    def test_floor_outside_unit_interval_rejected_before_encoding(self, extractor, monkeypatch,
                                                                   floor):
        # with NaN every `confidence < floor` is False: the floor would be ignored
        def no_encoding(*args):
            raise AssertionError("encoded under a confidence floor outside [0, 1]")

        monkeypatch.setattr("ctie.extract.encode_batches", no_encoding)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            extractor.extract_tokens(("APT28", "used", "Mimikatz"), confidence_floor=floor)

    def test_unknown_span_type_rejected(self, extractor):
        spans = [g_span(0, 0, 1, "HackOrg"), g_span(0, 2, 3, "NotAType")]
        with pytest.raises(SchemaError, match="'NotAType'"):
            extractor.extract_tokens(("a", "b", "c"), spans=spans)

    @pytest.mark.parametrize("spans, ontology_filter", [
        # no admissible pair, so no pair is enumerated
        ([g_span(0, 0, 1, "HackOrg"), g_span(0, 2, 3, "NotAType")], True),
        # one span, so no pair at all
        ([g_span(0, 2, 3, "NotAType")], False),
    ], ids=["ontology-filter", "single-span"])
    def test_unknown_span_type_rejected_without_pairs(self, extractor, spans, ontology_filter):
        with pytest.raises(SchemaError, match="'NotAType'"):
            extractor.extract_tokens(("a", "b", "c"), spans=spans,
                                     ontology_filter=ontology_filter)

    def test_unknown_span_type_rejected_before_encoding(self, extractor, monkeypatch):
        def no_encoding(*args):
            raise AssertionError("encoded a batch whose spans hold an unknown type")

        monkeypatch.setattr("ctie.extract.encode_batches", no_encoding)
        spans = [[g_span(0, 0, 1, "Tool")], [g_span(1, 0, 1, "NotAType")]]
        with pytest.raises(SchemaError, match="sentence 6: "):
            extractor.extract_many([("a", "b"), ("c",)], first_index=5, spans=spans)

    _BAD_SPANS = {
        "out-of-range": ([g_span(0, 0, 1, "HackOrg"), g_span(0, 5, 9, "Tool")], "out of range"),
        "reversed": ([g_span(0, 0, 1, "HackOrg"), g_span(0, 3, 2, "Tool")], "out of range"),
        "overlapping": ([g_span(0, 0, 2, "HackOrg"), g_span(0, 1, 3, "Tool")], "overlapping"),
        "single-out-of-range": ([g_span(0, 5, 9, "Tool")], "out of range"),
    }

    @pytest.mark.parametrize("ontology_filter", [False, True], ids=["all-pairs", "ontology-filter"])
    @pytest.mark.parametrize("case", sorted(_BAD_SPANS))
    def test_bad_span_rejected(self, extractor, case, ontology_filter):
        spans, match = self._BAD_SPANS[case]
        with pytest.raises(SpanError, match=f"sentence 0: .*{match}"):
            extractor.extract_tokens(("a", "b", "c"), spans=spans,
                                     ontology_filter=ontology_filter)

    @pytest.mark.parametrize("case", sorted(_BAD_SPANS))
    def test_bad_span_rejected_before_encoding(self, extractor, monkeypatch, case):
        def no_encoding(*args):
            raise AssertionError("encoded a batch whose spans are invalid")

        monkeypatch.setattr("ctie.extract.encode_batches", no_encoding)
        spans = [[g_span(0, 0, 1, "Tool")], self._BAD_SPANS[case][0]]
        with pytest.raises(SpanError, match="sentence 6: "):
            extractor.extract_many([("a", "b"), ("a", "b", "c")], first_index=5, spans=spans)

    def test_checkpoint_round_trip(self, extractor, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(
            path, extractor.params, extractor.config,
            extras={
                "vocab": extractor.vocab.to_list(),
                "types": extractor.types.to_dict(),
            },
        )
        loaded = Extractor.from_checkpoint(path)
        a = extractor.extract_text("APT28 used Mimikatz against banks")
        b = loaded.extract_text("APT28 used Mimikatz against banks")
        assert [t.key for t in a.triples] == [t.key for t in b.triples]


def _tagging_extractor(extractor, constrained):
    """The fixture model with emissions large enough that its Viterbi paths
    hold several entities."""
    params = dict(extractor.params)
    params["ner_w"] = np.random.default_rng(4).normal(scale=3.0, size=params["ner_w"].shape)
    return replace(extractor, params=params,
                   config=replace(extractor.config, bio_constrained_decode=constrained))


_WORDS = ("APT28", "used", "Mimikatz", "against", "banks", "in", "2014", "Cozy", "Bear",
          "FireEye", "unseenword", ".")


@st.composite
def _sentence_and_spans(draw, entity_types):
    tokens = tuple(draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=11)))
    cuts = sorted(draw(st.sets(st.integers(0, len(tokens)), max_size=8)))
    spans = [
        SpanPrediction(0, start, end, draw(st.sampled_from(entity_types)))
        for start, end in zip(cuts[::2], cuts[1::2]) if start < end
    ]
    return tokens, spans


def _same_result(a, b):
    assert (a.sentence_index, a.tokens, a.spans) == (b.sentence_index, b.tokens, b.spans)
    assert [(t.key, t.head_span, t.tail_span, t.sentence_index) for t in a.triples] == [
        (t.key, t.head_span, t.tail_span, t.sentence_index) for t in b.triples]
    for x, y in zip(a.triples, b.triples):
        assert abs(x.confidence - y.confidence) <= 1e-12
    assert [(d["head_span"], d["tail_span"]) for d in a.dropped] == [
        (d["head_span"], d["tail_span"]) for d in b.dropped]
    for x, y in zip(a.dropped, b.dropped):
        assert abs(x["no_relation_confidence"] - y["no_relation_confidence"]) <= 1e-12


@pytest.mark.parametrize("constrained", [False, True], ids=["free", "bio-constrained"])
@pytest.mark.parametrize("with_spans", [False, True], ids=["decoded", "given-spans"])
def test_extract_many_matches_one_sentence_calls(extractor, constrained, with_spans):
    tagger = _tagging_extractor(extractor, constrained)
    entity_types = [e.name for e in tagger.types.entity_types]

    @settings(max_examples=25, deadline=None)
    @given(
        cells=st.integers(1, 44),
        items=st.lists(_sentence_and_spans(entity_types), min_size=1, max_size=9),
        first_index=st.integers(0, 3),
        ontology_filter=st.booleans(),
    )
    def check(cells, items, first_index, ontology_filter):
        seqs = [tokens for tokens, _ in items]
        spans = [s for _, s in items] if with_spans else None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluation, "ENCODE_CELLS", cells)
            many = tagger.extract_many(seqs, first_index=first_index,
                                       ontology_filter=ontology_filter, spans=spans)
        one_by_one = [
            tagger.extract_tokens(tokens, sentence_index=first_index + i,
                                  ontology_filter=ontology_filter,
                                  spans=None if spans is None else spans[i])
            for i, tokens in enumerate(seqs)
        ]
        assert len(many) == len(one_by_one)
        for a, b in zip(many, one_by_one):
            _same_result(a, b)

    check()


@pytest.mark.parametrize("use_mask, use_type",
                         [(False, False), (True, False), (False, True), (True, True)])
def test_chunk_scorer_matches_per_sentence_reference(extractor, use_mask, use_type):
    # the reference scores each sentence's pairs in a mask-based
    # relation-head call of its own, on its row of the chunk encoding trimmed
    # to its length: one mask product and one concatenated-feature product per
    # pair, where the scorer pools each span once and splits the logits
    config = replace(extractor.config, use_entity_mask=use_mask, use_entity_type=use_type)
    params = init_params(config, seed=12)
    rng = np.random.default_rng(12)
    for name in ("ner_w", "re_w", "type_embed"):
        params[name] = rng.normal(scale=3.0, size=params[name].shape)
    model = replace(extractor, params=params, config=config)
    entity_types = [e.name for e in model.types.entity_types]
    seen = set()

    @settings(max_examples=40, deadline=None)
    @given(
        cells=st.sampled_from([1, 30, 2048]),
        items=st.lists(_sentence_and_spans(entity_types), min_size=1, max_size=7),
        first_index=st.integers(0, 3),
        ontology_filter=st.booleans(),
        floor=st.sampled_from([0.0, 0.5, 1.0]),
        decoded=st.booleans(),
    )
    def check(cells, items, first_index, ontology_filter, floor, decoded):
        seqs = [tokens for tokens, _ in items]
        spans = None if decoded else [s for _, s in items]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluation, "ENCODE_CELLS", cells)
            got = model.extract_many(seqs, first_index=first_index,
                                     ontology_filter=ontology_filter, confidence_floor=floor,
                                     spans=spans)
            want = reference_extract_many(model, seqs, first_index, ontology_filter, floor,
                                          spans)
        assert len(got) == len(want)
        if cells > 1 and len(seqs) > 1:
            seen.add("multi-sentence chunk")
        for a, b in zip(got, want):
            seen.add(min(len(b.spans), 2))
            if b.triples:
                seen.add("triples")
            if b.dropped:
                seen.add("dropped")
            assert (a.sentence_index, a.tokens, a.spans) == (b.sentence_index, b.tokens, b.spans)
            assert [(t.key, t.head_span, t.tail_span, t.sentence_index) for t in a.triples] == [
                (t.key, t.head_span, t.tail_span, t.sentence_index) for t in b.triples]
            np.testing.assert_allclose([t.confidence for t in a.triples],
                                       [t.confidence for t in b.triples], rtol=1e-12, atol=0)
            assert [(d["head_span"], d["tail_span"]) for d in a.dropped] == [
                (d["head_span"], d["tail_span"]) for d in b.dropped]
            np.testing.assert_allclose([d["no_relation_confidence"] for d in a.dropped],
                                       [d["no_relation_confidence"] for d in b.dropped],
                                       rtol=1e-12, atol=0)

    check()
    assert seen == {0, 1, 2, "triples", "dropped", "multi-sentence chunk"}


def test_one_extractor_matches_a_fresh_one_per_call(extractor):
    # an Extractor keeps one InputProjection over all its calls; a fresh
    # extractor computes every id's input pre-activations anew
    kept = _tagging_extractor(extractor, constrained=False)
    rng = np.random.default_rng(8)
    texts = [" ".join(rng.choice(_WORDS, size=int(rng.integers(1, 12)))) for _ in range(40)]
    for i, text in enumerate(texts):
        _same_result(kept.extract_text(text, sentence_index=i),
                     replace(kept).extract_text(text, sentence_index=i))
    assert sum(len(kept.extract_text(t).triples) for t in texts) > 0


def test_extraction_depends_only_on_the_checkpoint_and_the_sentence(extractor):
    # an Extractor's InputProjection computes an id's row the first time the
    # id is seen, among whichever ids are new with it; the result for a
    # sentence must be the same bits after any history of earlier calls
    tagger = _tagging_extractor(extractor, constrained=False)
    words = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=11).map(" ".join)

    @settings(max_examples=30, deadline=None)
    # a one-word call sees at most one new id
    @given(history=st.lists(st.one_of(st.sampled_from(_WORDS), words), max_size=4), text=words)
    def check(history, text):
        warm = replace(tagger)
        for earlier in history:
            warm.extract_text(earlier)
        assert warm.extract_text(text).to_dict() == replace(tagger).extract_text(text).to_dict()

    check()


def test_reassigned_params_get_a_fresh_projection(extractor):
    first = _tagging_extractor(extractor, constrained=False)
    second = _tagging_extractor(replace(extractor, params=init_params(extractor.config, seed=5)),
                                constrained=False)
    text = "APT28 used Mimikatz against banks in 2014 ."
    warm = replace(first)
    warm.extract_text(text)
    projection = warm.projection()
    warm.params = second.params
    assert warm.projection() is not projection
    _same_result(warm.extract_text(text), second.extract_text(text))


def test_evaluation_and_extraction_leave_numpy_ma_unimported(tmp_path):
    # numpy.ma is imported lazily by some numpy functions (np.unique among
    # them) and adds about 1.6 MB of resident memory to every run
    script = tmp_path / "run.py"
    script.write_text(textwrap.dedent(f"""
        import sys
        from ctie.corpus import OntologySchema, load_corpus
        from ctie.evaluation import evaluate_model
        from ctie.extract import Extractor
        from ctie.model import ModelConfig, init_params
        from ctie.mslr import build_vocab

        corpus = load_corpus({str(SMOKE_CORPUS)!r}, OntologySchema.default())
        types, vocab = corpus.types, build_vocab(corpus.sentences)
        config = ModelConfig(vocab_size=len(vocab), num_ner_labels=types.num_bio_labels,
                             num_relations=types.num_relations,
                             num_entity_types=types.num_entity_types,
                             embed_dim=8, hidden_dim=4, dropout=0.0)
        params = init_params(config, seed=3)
        evaluate_model(params, config, vocab, types, corpus.sentences[:6])
        extractor = Extractor(params, config, vocab, types, OntologySchema.default())
        extractor.extract_text(" ".join(corpus.sentences[0].tokens))
        print("numpy.ma" in sys.modules)
    """))
    src = Path(ctie.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("ontology_filter", [False, True], ids=["all-pairs", "ontology-filter"])
def test_pairs_and_masks_match_candidate_loop(extractor, ontology_filter):
    # the reference is the per-pair path: corpus.candidate_pairs on the type
    # names, one make_entity_mask per pair, type ids looked up by name; the
    # scorer gets each span once and the pairs as indices into the spans
    entity_types = [e.name for e in extractor.types.entity_types]

    @settings(max_examples=60, deadline=None)
    @given(item=_sentence_and_spans(entity_types))
    def check(item):
        tokens, spans = item
        calls = []

        def spy(h, mask, span_rows, span_bounds, heads, tails, head_ids, tail_ids, *rest):
            calls.append((span_rows, span_bounds, heads, tails, head_ids, tail_ids))
            return score_pairs(h, mask, span_rows, span_bounds, heads, tails, head_ids,
                               tail_ids, *rest)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("ctie.extract.score_pairs", spy)
            result = extractor.extract_tokens(tokens, spans=spans, ontology_filter=ontology_filter)
        pairs = candidate_pairs([s.entity_type for s in spans], extractor.ontology, ontology_filter)
        bounds = [((spans[i].start, spans[i].end), (spans[j].start, spans[j].end))
                  for i, j in pairs]
        classified = [(t.head_span, t.tail_span) for t in result.triples] + [
            (tuple(d["head_span"]), tuple(d["tail_span"])) for d in result.dropped]
        assert sorted(classified) == sorted(bounds)
        if not pairs:
            assert calls == []
            return
        [(span_rows, span_bounds, heads, tails, head_ids, tail_ids)] = calls
        assert span_rows.tolist() == [0] * len(spans)
        assert span_bounds.tolist() == [[s.start, s.end] for s in spans]
        assert list(zip(heads.tolist(), tails.tolist())) == pairs
        masks = entity_masks(len(tokens), span_bounds[heads], span_bounds[tails])
        assert np.array_equal(
            masks, [make_entity_mask(len(tokens), spans[i], spans[j]) for i, j in pairs])
        type_id = {name: extractor.types.entity_type(name).id for name in entity_types}
        assert list(head_ids) == [type_id[spans[i].entity_type] for i, _ in pairs]
        assert list(tail_ids) == [type_id[spans[j].entity_type] for _, j in pairs]

    check()


def make_triple(head, head_type, rel, tail, tail_type, conf=0.9, sent=0):
    return Triple(
        head=head, head_type=head_type, relation=rel, tail=tail,
        tail_type=tail_type, confidence=conf, sentence_index=sent,
        head_span=(0, 1), tail_span=(2, 3),
    )


def wrap(triples, sent=0):
    return ExtractionResult(
        sentence_index=sent, tokens=("x",), spans=[], triples=list(triples)
    )


class TestExportGraph:
    def test_one_triple_two_nodes_one_edge(self):
        blob = export_graph([wrap([make_triple("APT28", "HackOrg", "uses", "Mimikatz", "Tool")])])
        graph = import_graph(blob)
        assert graph == [("APT28", "HackOrg", "uses", "Mimikatz", "Tool")]
        import json

        doc = json.loads(blob)
        assert len(doc["nodes"]) == 2
        assert len(doc["edges"]) == 1

    def test_shared_head_deduplicated(self):
        triples = [
            make_triple("APT28", "HackOrg", "uses", "Mimikatz", "Tool"),
            make_triple("APT28", "HackOrg", "targets", "banks", "Org"),
        ]
        import json

        doc = json.loads(export_graph([wrap(triples)]))
        assert len(doc["nodes"]) == 3
        assert len(doc["edges"]) == 2

    def test_empty_results_are_valid_documents(self):
        import json

        doc = json.loads(export_graph([]))
        assert doc == {"edges": [], "nodes": []}
        csv_blob = export_graph([], fmt="csv").decode()
        assert csv_blob.splitlines()[0].startswith("head,")

    def test_csv_columns(self):
        blob = export_graph(
            [wrap([make_triple("APT28", "HackOrg", "uses", "Mimikatz", "Tool", conf=0.75)])],
            fmt="csv",
        ).decode()
        lines = blob.splitlines()
        assert lines[0] == "head,head_type,relation,tail,tail_type,confidence,sentence_id"
        assert lines[1] == "APT28,HackOrg,uses,Mimikatz,Tool,0.75,0"

    def test_round_trip_multiset(self):
        triples = [
            make_triple("APT28", "HackOrg", "uses", "Mimikatz", "Tool"),
            make_triple("APT28", "HackOrg", "uses", "Mimikatz", "Tool", sent=1),
            make_triple("banks", "Org", "targetedBy", "APT28", "HackOrg"),
        ]
        results = [wrap([t], sent=t.sentence_index) for t in triples]
        rebuilt = import_graph(export_graph(results))
        assert sorted(rebuilt) == sorted(t.key for t in triples)

    def test_unknown_format(self):
        with pytest.raises(UnknownFormat):
            export_graph([], fmt="graphml")

    def test_deterministic_bytes(self):
        triples = [make_triple("A", "Org", "locatedAt", "B", "Area")]
        results = [wrap(triples)]
        assert export_graph(results) == export_graph(results)
