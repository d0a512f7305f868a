"""Corpus parsing and validation in one pass, the ontology schema, and
statistics; a loaded corpus fails no later check."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctie.corpus import (
    NO_RELATION,
    OntologySchema,
    TypeSystem,
    check_corpus,
    dataset_stats,
    load_corpus,
    validate_bio,
    validate_ontology,
    validate_records,
)
from ctie.errors import (
    DataError,
    DuplicatePairError,
    LabelError,
    MalformedDocument,
    RelationIndexError,
    SchemaError,
    SpanError,
    UnknownRelation,
)
from ctie.mslr import build_vocab, expand, sentence_rows

from helpers import (
    FIG_CORPUS,
    NAMES,
    bio_for_spans,
    candidate_pairs,
    random_corpus,
    random_record,
    sentence_records,
    span_layouts,
)


def as_bytes(records) -> bytes:
    return json.dumps(records).encode("utf-8")


FIG_RECORD = {
    "text": "APT29 uses Mimikatz , targeting XYZ Bank",
    "entities": [[0, 1, "HackOrg"], [2, 3, "Tool"], [5, 7, "Org"]],
    "relations": [[0, "uses", 1], [0, "targets", 2], [1, "targets", 2]],
    "entity_labels": ["B-HackOrg", "O", "B-Tool", "O", "O", "B-Org", "I-Org"],
}


class TestParseDataset:
    def test_fig_record(self):
        sentences = load_corpus(as_bytes([FIG_RECORD])).sentences
        assert len(sentences) == 1
        s = sentences[0]
        assert len(s.entities) == 3
        assert len(s.relations) == 3
        assert s.tokens == tuple("APT29 uses Mimikatz , targeting XYZ Bank".split())
        assert s.entities[2].surface == "XYZ Bank"
        assert s.relations[0].relation.name == "uses"
        assert [r.relation.name for r in s.relations] == ["uses", "targets", "targets"]

    def test_empty_array(self):
        assert load_corpus(b"[]").sentences == ()

    def test_relation_index_out_of_range(self):
        bad = dict(FIG_RECORD, relations=[[5, "uses", 1]])
        with pytest.raises(RelationIndexError) as err:
            load_corpus(as_bytes([bad]))
        assert "record 0" in str(err.value)
        assert "relations[0]" in str(err.value)

    def test_head_equals_tail_rejected(self):
        bad = dict(FIG_RECORD, relations=[[1, "uses", 1]])
        with pytest.raises(RelationIndexError):
            load_corpus(as_bytes([bad]))

    def test_malformed_json(self):
        with pytest.raises(MalformedDocument):
            load_corpus(b"{not json")

    def test_missing_field(self):
        bad = {k: v for k, v in FIG_RECORD.items() if k != "relations"}
        with pytest.raises(SchemaError) as err:
            load_corpus(as_bytes([bad]))
        assert "record 0" in str(err.value)

    @pytest.mark.parametrize("field, value, message", [
        ("entities", [[False, True, "HackOrg"], [2, 3, "Tool"], [5, 7, "Org"]], r"entities\[0\]"),
        ("entities", [[0, 1, "HackOrg"], [2, True, "Tool"], [5, 7, "Org"]], r"entities\[1\]"),
        ("relations", [[0, "uses", True], [0, "targets", 2]], r"relations\[0\]"),
        ("relations", [[0, "uses", 1], [False, "targets", 2]], r"relations\[1\]"),
    ], ids=["entity-start-end", "entity-end", "relation-tail", "relation-head"])
    def test_json_booleans_are_not_integers(self, field, value, message):
        # Python's bool is an int: false and true would load as indices 0 and 1
        bad = as_bytes([dict(FIG_RECORD, **{field: value})])
        with pytest.raises(SchemaError, match=message):
            load_corpus(bad)
        assert [issue.kind for issue in validate_records(bad)] == ["SchemaError"]

    def test_label_length_mismatch(self):
        bad = dict(FIG_RECORD, entity_labels=FIG_RECORD["entity_labels"][:-1])
        with pytest.raises(LabelError):
            load_corpus(as_bytes([bad]))

    def test_malformed_tag(self):
        labels = list(FIG_RECORD["entity_labels"])
        labels[0] = "X-HackOrg"
        with pytest.raises(LabelError):
            load_corpus(as_bytes([dict(FIG_RECORD, entity_labels=labels)]))

    def test_span_out_of_range(self):
        bad = dict(FIG_RECORD, entities=[[0, 1, "HackOrg"], [2, 3, "Tool"], [5, 8, "Org"]])
        with pytest.raises(SpanError):
            load_corpus(as_bytes([bad]))

    def test_overlapping_spans_rejected(self):
        record = {
            "text": "alpha beta gamma",
            "entities": [[0, 2, "Tool"], [1, 3, "Org"]],
            "relations": [],
            "entity_labels": ["B-Tool", "I-Tool", "O"],
        }
        with pytest.raises(SpanError):
            load_corpus(as_bytes([record]))

    def test_labels_span_mismatch(self):
        labels = list(FIG_RECORD["entity_labels"])
        labels[2] = "B-Org"
        with pytest.raises(SpanError):
            load_corpus(as_bytes([dict(FIG_RECORD, entity_labels=labels)]))

    def test_relation_order_header(self):
        doc = {
            "relation_order": ["head", "tail", "relation"],
            "records": [dict(FIG_RECORD, relations=[[0, 1, "uses"]])],
        }
        sentences = load_corpus(as_bytes(doc)).sentences
        assert sentences[0].relations[0].relation.name == "uses"
        assert sentences[0].relations[0].tail_index == 1

    @pytest.mark.parametrize("doc, message", [
        ({"records": [], "relation_order": 5}, "relation_order"),
        ({"records": [], "relation_order": [1, "head", None]}, "relation_order"),
        ({"records": [], "relation_order": [["head"], "relation", "tail"]}, "relation_order"),
        ({"records": [], "relation_order": "relation"}, "relation_order"),
        ({"records": [], "relation_order": ["head", "head", "tail"]}, "relation_order"),
        ({"relation_order": ["head", "relation", "tail"]}, "'records'"),
        ("records", "JSON array"),
        (5, "JSON array"),
    ], ids=["order-int", "order-mixed", "order-nested", "order-string", "order-repeats",
            "no-records", "document-string", "document-int"])
    def test_malformed_document_is_a_schema_error(self, doc, message):
        with pytest.raises(SchemaError, match=message):
            load_corpus(as_bytes(doc))

    def test_path_input(self):
        sentences = load_corpus(FIG_CORPUS).sentences
        assert len(sentences) == 3

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        corpus = random_corpus(rng, 30)
        again = load_corpus(as_bytes(sentence_records(corpus.sentences)))
        assert again.sentences == corpus.sentences

    @given(st.data())
    def test_round_trip_random_corpora(self, data):
        # tokens are any non-space text; relations join distinct entities, and
        # each ordered pair at most once
        token = st.text(st.characters(blacklist_categories=("Z", "C")), min_size=1,
                        max_size=5).filter(lambda t: t.split() == [t])
        records = []
        for _ in range(data.draw(st.integers(0, 5))):
            spans, length = data.draw(span_layouts(max_spans=4))
            length = max(length, 1)
            pairs = [(h, t) for h in range(len(spans)) for t in range(len(spans)) if h != t]
            chosen = data.draw(st.lists(st.sampled_from(pairs), max_size=4, unique=True)) if pairs else []
            records.append({
                "text": " ".join(data.draw(st.lists(token, min_size=length, max_size=length))),
                "entities": [list(s) for s in spans],
                "relations": [[h, data.draw(NAMES | st.just(NO_RELATION)), t] for h, t in chosen],
                "entity_labels": bio_for_spans(length, spans),
            })
        ontology = data.draw(st.sampled_from([None, OntologySchema.default()]))
        corpus = load_corpus(as_bytes(records), ontology).sentences
        assert len(corpus) == len(records)
        assert load_corpus(as_bytes(sentence_records(corpus)), ontology).sentences == corpus

    def test_labels_rebuild_from_spans(self):
        rng = np.random.default_rng(12)
        corpus = random_corpus(rng, 40)
        for s in corpus.sentences:
            rebuilt = bio_for_spans(
                len(s.tokens), [(e.start, e.end, e.entity_type.name) for e in s.entities]
            )
            assert list(s.labels) == rebuilt


class TestTypeSystem:
    def test_ids_dense_and_sorted(self):
        types = TypeSystem(["Tool", "HackOrg", "Org"], ["uses", "targets"])
        assert [e.name for e in types.entity_types] == ["HackOrg", "Org", "Tool"]
        assert [e.id for e in types.entity_types] == [0, 1, 2]
        assert types.bio_labels[0] == "O"
        assert types.bio_labels[1:3] == ("B-HackOrg", "I-HackOrg")

    def test_no_relation_always_present(self):
        types = TypeSystem(["Tool"], ["uses"])
        flagged = [r for r in types.relations if r.is_no_relation]
        assert len(flagged) == 1
        assert flagged[0].name == NO_RELATION

    def test_vocab_includes_ontology_types(self):
        corpus = load_corpus(
            as_bytes([dict(FIG_RECORD, relations=[])]), OntologySchema.default()
        )
        names = {e.name for e in corpus.types.entity_types}
        assert "Way" in names and "Purp" in names
        assert corpus.types.num_relations == 16

    def test_dict_round_trip(self):
        types = TypeSystem(["Tool", "Org"], ["uses"])
        assert TypeSystem.from_dict(types.to_dict()) == types


class TestValidateBio:
    def test_valid(self):
        assert validate_bio(["B-Tool", "I-Tool", "O"]).ok

    def test_dangling_i(self):
        report = validate_bio(["O", "I-Tool"])
        assert not report.ok
        assert report.violations[0].position == 1

    def test_type_switch(self):
        report = validate_bio(["B-Tool", "I-Exp"])
        assert [v.position for v in report.violations] == [1]


class TestOntology:
    def test_bundled_schema_matches_published_rules(self):
        schema = OntologySchema.default()
        assert len(schema.rules) == 15
        assert schema.rules["analyses"].domain == frozenset({"SecTeam"})
        assert schema.rules["analyses"].range == frozenset({"SamFile"})
        assert schema.rules["uses"].domain == frozenset(
            {"HackOrg", "OffAct", "Exp", "Way", "Tool", "SamFile"}
        )
        assert schema.rules["hasAttackTime"].range == frozenset({"Time"})
        assert schema.rules["locatedAt"] == schema.rules["locatedAt"]
        # every type the schema refers to is a known entity type name
        assert schema.entity_type_names() <= {
            "Area", "Exp", "Features", "HackOrg", "OffAct", "Org",
            "Purp", "SamFile", "SecTeam", "Time", "Tool", "Way",
        }

    def test_uses_hackorg_tool_ok(self):
        schema = OntologySchema.default()
        corpus = load_corpus(as_bytes([FIG_RECORD]), schema)
        assert validate_ontology(corpus.sentences[0], schema) == []

    def test_time_uses_tool_violation(self):
        schema = OntologySchema.default()
        record = {
            "text": "2014 saw Mimikatz",
            "entities": [[0, 1, "Time"], [2, 3, "Tool"]],
            "relations": [[0, "uses", 1]],
            "entity_labels": ["B-Time", "O", "B-Tool"],
        }
        corpus = load_corpus(as_bytes([record]), schema)
        violations = validate_ontology(corpus.sentences[0], schema)
        assert len(violations) == 1
        assert violations[0].head_type == "Time"

    def test_no_relation_exempt(self):
        schema = OntologySchema.default()
        record = {
            "text": "2014 saw Mimikatz",
            "entities": [[0, 1, "Time"], [2, 3, "Tool"]],
            "relations": [[0, "noRelation", 1]],
            "entity_labels": ["B-Time", "O", "B-Tool"],
        }
        corpus = load_corpus(as_bytes([record]), schema)
        assert validate_ontology(corpus.sentences[0], schema) == []

    def test_unknown_relation(self):
        schema = OntologySchema.default()
        record = {
            "text": "APT29 pwns Mimikatz",
            "entities": [[0, 1, "HackOrg"], [2, 3, "Tool"]],
            "relations": [[0, "pwns", 1]],
            "entity_labels": ["B-HackOrg", "O", "B-Tool"],
        }
        corpus = load_corpus(as_bytes([record]), schema)
        with pytest.raises(UnknownRelation):
            validate_ontology(corpus.sentences[0], schema)


    @pytest.mark.parametrize("rule", [
        {"domain": ["Tool"]},
        ["Tool", "Tool"],
        {"domain": "Tool", "range": ["Tool"]},
        {"domain": [], "range": ["Tool"]},
        {"domain": ["Tool"], "range": []},
    ], ids=["no-range", "list-rule", "string-domain", "empty-domain", "empty-range"])
    def test_malformed_rule_names_the_relation(self, rule):
        # a string domain would otherwise read as the set of its characters
        with pytest.raises(SchemaError, match="'uses'"):
            OntologySchema.from_mapping({"uses": rule})


def type_names(sentence):
    return [e.entity_type.name for e in sentence.entities]


class TestCandidatePairs:
    """The reference pair enumeration that ``Extractor``'s is checked against."""

    def test_three_entities_unfiltered(self):
        corpus = load_corpus(as_bytes([FIG_RECORD]))
        pairs = candidate_pairs(type_names(corpus.sentences[0]))
        assert pairs == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]

    def test_time_org_filtered_to_zero(self):
        schema = OntologySchema.default()
        record = {
            "text": "2014 hit banks",
            "entities": [[0, 1, "Time"], [2, 3, "Org"]],
            "relations": [],
            "entity_labels": ["B-Time", "O", "B-Org"],
        }
        corpus = load_corpus(as_bytes([record]), schema)
        assert candidate_pairs(type_names(corpus.sentences[0]), schema) == []
        assert len(candidate_pairs(type_names(corpus.sentences[0]))) == 2

    def test_single_entity(self):
        record = {
            "text": "only Mimikatz here",
            "entities": [[1, 2, "Tool"]],
            "relations": [],
            "entity_labels": ["O", "B-Tool", "O"],
        }
        corpus = load_corpus(as_bytes([record]))
        assert candidate_pairs(type_names(corpus.sentences[0])) == []

    def test_filtered_pairs_labeled_by_schema_pass_validation(self):
        # any sentence whose relations come from the filtered reference pairs
        # and a schema lookup validates clean against the same schema
        schema = OntologySchema.default()
        rng = np.random.default_rng(5)
        for _ in range(25):
            record = random_record(rng)
            corpus = load_corpus(as_bytes([dict(record, relations=[])]), schema)
            sentence = corpus.sentences[0]
            relations = []
            for i, j in candidate_pairs(type_names(sentence), schema):
                name = schema.admissible_relations(
                    sentence.entities[i].entity_type.name,
                    sentence.entities[j].entity_type.name,
                )[0]
                relations.append([i, name, j])
            rebuilt = load_corpus(
                as_bytes([dict(record, relations=relations)]), schema
            ).sentences[0]
            assert validate_ontology(rebuilt, schema) == []


class TestDatasetStats:
    def test_counts(self):
        corpus = load_corpus(FIG_CORPUS)
        stats = dataset_stats(corpus.sentences)
        assert stats.sentence_count == 3
        assert stats.entity_counts == {
            "HackOrg": 1, "Tool": 1, "Org": 1, "SecTeam": 1, "SamFile": 1,
        }
        assert stats.relation_counts == {"uses": 1, "targets": 2, "analyses": 1}
        assert stats.token_count == 7 + 6 + 8

    def test_empty(self):
        stats = dataset_stats([])
        assert stats.sentence_count == 0
        assert stats.entity_counts == {}
        assert stats.relation_total == 0

    def test_relation_counts_sum(self):
        rng = np.random.default_rng(3)
        corpus = random_corpus(rng, 50)
        stats = dataset_stats(corpus.sentences)
        assert stats.relation_total == sum(len(s.relations) for s in corpus.sentences)
        table = stats.to_table()
        assert "sentences 50" in table


class TestValidateRecords:
    def test_clean_file(self):
        assert validate_records(FIG_CORPUS, OntologySchema.default()) == []

    def test_dangling_i_single_label_error(self):
        from helpers import DANGLING_I

        issues = validate_records(DANGLING_I, OntologySchema.default())
        assert len(issues) == 1
        assert issues[0].kind == "LabelError"
        assert issues[0].record_index == 1

    def test_collects_multiple_records(self):
        bad1 = dict(FIG_RECORD, entity_labels=FIG_RECORD["entity_labels"][:-1])
        bad2 = dict(FIG_RECORD, relations=[[9, "uses", 1]])
        issues = validate_records(as_bytes([FIG_RECORD, bad1, bad2]))
        assert [i.record_index for i in issues] == [1, 2]
        assert issues[1].kind == "RelationIndexError"

    def test_bio_failure_is_one_issue_listing_every_position(self):
        labels = ["I-HackOrg", "O", "B-Tool", "O", "O", "I-Org", "I-Org"]
        issues = validate_records(as_bytes([dict(FIG_RECORD, entity_labels=labels)]))
        assert len(issues) == 1
        assert issues[0].kind == "LabelError"
        assert "position 0" in issues[0].message and "position 5" in issues[0].message
        assert str(issues[0]).count("record 0") == 1


# Every kind of corruption the parser must report, with the error it maps to.
CORRUPTIONS = {
    "shape": SchemaError,
    "relation_fields": SchemaError,
    "label_count": LabelError,
    "tag_form": LabelError,
    "dangling_i": LabelError,
    "span_range": SpanError,
    "span_overlap": SpanError,
    "span_disagreement": SpanError,
    "relation_index": RelationIndexError,
    "duplicate_pair": DuplicatePairError,
}


def _corrupt(record: dict, kind: str, draw) -> dict | list:
    """A copy of a well-formed ``random_record`` with one defect of ``kind``;
    every choice below is guaranteed to break the record in exactly that way."""
    r = json.loads(json.dumps(record))
    entities, labels = r["entities"], r["entity_labels"]
    n = len(labels)
    if kind == "shape":
        variant = draw(st.integers(0, 7))
        if variant == 0:
            return ["not", "an", "object"]
        if variant == 1:
            del r[draw(st.sampled_from(sorted(r)))]
        elif variant == 2:
            r["text"] = 5
        elif variant == 3:
            r[draw(st.sampled_from(["entities", "relations", "entity_labels"]))] = {}
        elif variant == 4:
            entities.append([0, 1])
        elif variant == 5:
            entities.append(draw(st.sampled_from([[0, "1", "Tool"], [False, True, "Tool"]])))
        elif variant == 6:
            labels.append(7)
        else:
            r["relations"].append([0, "uses"])
    elif kind == "relation_fields":
        r["relations"].append(draw(st.sampled_from([["0", "uses", 1], [0, 5, 1], [0, "uses", 1.0],
                                                    [0, "uses", True], [False, "uses", 1]])))
    elif kind == "label_count":
        if draw(st.booleans()):
            labels.append("O")
        else:
            labels.pop()
    elif kind == "tag_form":
        labels[draw(st.integers(0, n - 1))] = draw(st.sampled_from(["X-Tool", "B-", "b-Tool", "OO"]))
    elif kind == "dangling_i":
        # no record uses the type Zzz, so no tag before it can continue it
        labels[draw(st.integers(0, n - 1))] = "I-Zzz"
    elif kind == "span_range":
        entities.append(draw(st.sampled_from([[0, n + 1, "Tool"], [-1, 1, "Tool"], [2, 2, "Tool"]])))
    elif kind == "span_overlap":
        entities.extend([[0, 2, "Tool"], [1, 3, "Org"]])
    elif kind == "span_disagreement":
        if entities:
            entities[0][2] = "Zzz"
        else:
            labels[0] = "B-Tool"
    elif kind == "relation_index":
        bad = [len(entities), "uses", 0]
        if entities and draw(st.booleans()):
            bad = [0, "uses", 0]
        r["relations"].append(bad)
    elif kind == "duplicate_pair":
        if len(entities) < 2:
            entities[:] = [[0, 1, "Tool"], [1, 2, "Org"]]
            labels[:] = bio_for_spans(n, entities)
        head, tail = draw(st.sampled_from([(0, 1), (1, 0)]))
        names = st.sampled_from(["uses", "targets", NO_RELATION])
        r["relations"] += [[head, draw(names), tail], [head, draw(names), tail]]
    return r


@st.composite
def corrupted_documents(draw):
    """(document bytes, kind per record or None): random records, some
    corrupted, under the default or a declared relation field order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kinds = draw(st.lists(st.one_of(st.none(), st.sampled_from(sorted(CORRUPTIONS))),
                          max_size=8))
    records = [random_record(rng) for _ in kinds]
    records = [r if k is None else _corrupt(r, k, draw) for r, k in zip(records, kinds)]
    order = draw(st.permutations(["head", "relation", "tail"]))
    for r in records:
        if isinstance(r, dict) and isinstance(r.get("relations"), list):
            r["relations"] = [
                [dict(zip(("head", "relation", "tail"), rel))[k] for k in order]
                if len(rel) == 3 else rel
                for rel in r["relations"]
            ]
    doc = {"relation_order": order, "records": records}
    if order == ["head", "relation", "tail"] and draw(st.booleans()):
        doc = records
    return as_bytes(doc), kinds


class TestOneParser:
    @settings(max_examples=300)
    @given(corrupted_documents())
    def test_validate_records_and_load_corpus_agree(self, case):
        doc, kinds = case
        issues = validate_records(doc)
        assert [(i.record_index, i.kind) for i in issues] == [
            (index, CORRUPTIONS[kind].__name__) for index, kind in enumerate(kinds) if kind
        ]
        assert all(not i.message.startswith("record") for i in issues)
        if not issues:
            assert len(load_corpus(doc).sentences) == len(kinds)
            return
        with pytest.raises(DataError) as err:
            load_corpus(doc)
        first = issues[0]
        assert type(err.value).__name__ == first.kind
        assert str(err.value) == f"record {first.record_index}: {first.message}"

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**16), st.integers(0, 8), st.integers(1, 16), st.data())
    def test_a_loaded_corpus_fails_no_later_check(self, seed, n_records, max_len, data):
        # random records, some annotating a pair a second time under any name:
        # the parser and the loader agree, and the MSLR rows of whatever loads
        # (the train/eval table and the `ctie mslr` examples) raise nothing
        rng = np.random.default_rng(seed)
        records = [random_record(rng) for _ in range(n_records)]
        for r in records:
            if r["relations"] and data.draw(st.booleans()):
                head, _name, tail = data.draw(st.sampled_from(r["relations"]))
                name = data.draw(st.sampled_from(["uses", "targets", NO_RELATION]))
                r["relations"].insert(data.draw(st.integers(0, len(r["relations"]))),
                                      [head, name, tail])
        ontology = data.draw(st.sampled_from([None, OntologySchema.default()]))
        doc = as_bytes(records)
        checked, issues = check_corpus(doc, ontology)
        try:
            corpus = load_corpus(doc, ontology)
        except DataError:
            assert issues
            return
        assert not issues and corpus == checked
        sentences = corpus.sentences
        vocab = build_vocab(sentences)
        sentence_rows(sentences, [vocab.ids(s.tokens) for s in sentences],
                      range(len(sentences)), corpus.types, max_len)
        for i, sentence in enumerate(sentences):
            expand(sentence, corpus.types, sentence_index=i)

    def test_check_corpus_keeps_sound_records(self):
        bad = dict(FIG_RECORD, relations=[[9, "uses", 1]])
        corpus, issues = check_corpus(as_bytes([FIG_RECORD, bad, FIG_RECORD]))
        assert [i.record_index for i in issues] == [1]
        assert corpus.sentences == load_corpus(as_bytes([FIG_RECORD, FIG_RECORD])).sentences
