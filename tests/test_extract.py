"""End-to-end extraction mechanics and graph export."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ctie.evaluation as evaluation
from ctie.corpus import NO_RELATION, OntologySchema, candidate_pairs, load_corpus
from ctie.errors import EmptyInput, SchemaError, UnknownFormat
from ctie.evaluation import SpanPrediction
from ctie.extract import (
    ExtractionResult,
    Extractor,
    Triple,
    export_graph,
    import_graph,
)
from ctie.model import ModelConfig, init_params, save_checkpoint
from ctie.mslr import build_vocab

from helpers import SMOKE_CORPUS


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

    def test_confidence_floor_above_one_drops_everything(self, extractor):
        spans = [g_span(0, 0, 1, "HackOrg"), g_span(0, 2, 3, "Tool")]
        result = extractor.extract_tokens(
            ("APT28", "uses", "Mimikatz"), spans=spans, confidence_floor=1.0 + 1e-9
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

        def tied_head(h, masks, *rest):
            n_relations = len(extractor.types.relations)
            blocks.append(rng.integers(1, 4, size=(len(masks), n_relations)) / 10)
            return None, None, None, blocks[-1]

        monkeypatch.setattr("ctie.extract.relation_head", tied_head)
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
        batch=st.integers(1, 4),
        items=st.lists(_sentence_and_spans(entity_types), min_size=1, max_size=9),
        first_index=st.integers(0, 3),
        ontology_filter=st.booleans(),
    )
    def check(batch, items, first_index, ontology_filter):
        seqs = [tokens for tokens, _ in items]
        spans = [s for _, s in items] if with_spans else None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluation, "ENCODE_BATCH", batch)
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
