"""Jointly annotated corpus loading, validation, and statistics.

A corpus file is a JSON array of records in the DNRTI-JE layout:

    {
      "text": "APT29 uses Mimikatz , targeting XYZ Bank",
      "entities": [[0, 1, "HackOrg"], [2, 3, "Tool"], [5, 7, "Org"]],
      "relations": [[0, "uses", 1], [0, "targets", 2], [1, "targets", 2]],
      "entity_labels": ["B-HackOrg", "O", "B-Tool", "O", "O", "B-Org", "I-Org"]
    }

Tokens are the whitespace split of ``text``. Entity spans are token-level
and end-exclusive; they are cross-checked against ``entity_labels`` at load
time. Relation triples index into the record's entity list and default to
``[head, relation, tail]`` order; a document may instead be an object
``{"relation_order": ["head", "relation", "tail"], "records": [...]}`` to
declare a different field order.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

from .errors import (
    DataError,
    LabelError,
    MalformedDocument,
    RelationIndexError,
    SchemaError,
    SpanError,
    UnknownRelation,
)

NO_RELATION = "noRelation"

_BIO_TAG = re.compile(r"^(O|[BI]-\S+)$")


@dataclass(frozen=True)
class EntityType:
    name: str
    id: int


@dataclass(frozen=True)
class RelationType:
    name: str
    id: int
    is_no_relation: bool = False


@dataclass(frozen=True)
class EntitySpan:
    """Token-level span, end-exclusive."""

    start: int
    end: int
    entity_type: EntityType
    surface: str

    def __len__(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class RelationInstance:
    head_index: int
    tail_index: int
    relation: RelationType


@dataclass(frozen=True)
class AnnotatedSentence:
    tokens: tuple[str, ...]
    entities: tuple[EntitySpan, ...]
    relations: tuple[RelationInstance, ...]
    labels: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.tokens)


class TypeSystem:
    """Entity-type, relation, and BIO-label vocabularies with dense ids.

    Ids are assigned by sorted name so that two corpora with the same label
    inventory always agree. BIO label 0 is "O"; batch padding relies on that.
    """

    def __init__(self, entity_type_names: Iterable[str], relation_names: Iterable[str]):
        ent_names = sorted(set(entity_type_names))
        rel_names = sorted(set(relation_names) | {NO_RELATION})
        self.entity_types: tuple[EntityType, ...] = tuple(
            EntityType(name, i) for i, name in enumerate(ent_names)
        )
        self.relations: tuple[RelationType, ...] = tuple(
            RelationType(name, i, is_no_relation=(name == NO_RELATION))
            for i, name in enumerate(rel_names)
        )
        bio = ["O"]
        for ent in self.entity_types:
            bio.append(f"B-{ent.name}")
            bio.append(f"I-{ent.name}")
        self.bio_labels: tuple[str, ...] = tuple(bio)
        self._ent_by_name = {e.name: e for e in self.entity_types}
        self._rel_by_name = {r.name: r for r in self.relations}
        self._bio_ids = {tag: i for i, tag in enumerate(self.bio_labels)}

    @property
    def num_entity_types(self) -> int:
        return len(self.entity_types)

    @property
    def num_relations(self) -> int:
        return len(self.relations)

    @property
    def num_bio_labels(self) -> int:
        return len(self.bio_labels)

    @property
    def no_relation(self) -> RelationType:
        return self._rel_by_name[NO_RELATION]

    def entity_type(self, name: str) -> EntityType:
        return self._ent_by_name[name]

    def has_entity_type(self, name: str) -> bool:
        return name in self._ent_by_name

    def relation(self, name: str) -> RelationType:
        return self._rel_by_name[name]

    def has_relation(self, name: str) -> bool:
        return name in self._rel_by_name

    def bio_id(self, tag: str) -> int:
        return self._bio_ids[tag]

    def bio_tag(self, label_id: int) -> str:
        return self.bio_labels[label_id]

    def to_dict(self) -> dict:
        return {
            "entity_types": [e.name for e in self.entity_types],
            "relations": [r.name for r in self.relations],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TypeSystem":
        return cls(payload["entity_types"], payload["relations"])

    def __eq__(self, other) -> bool:
        return isinstance(other, TypeSystem) and self.to_dict() == other.to_dict()


@dataclass(frozen=True)
class OntologyRule:
    domain: frozenset[str]
    range: frozenset[str]


@dataclass(frozen=True)
class OntologySchema:
    """Domain/range constraints per relation name. noRelation has no rule."""

    rules: dict[str, OntologyRule] = field(default_factory=dict)

    def __post_init__(self):
        for name, rule in self.rules.items():
            if not rule.domain or not rule.range:
                raise SchemaError(f"ontology rule for {name!r} has an empty domain or range")

    @classmethod
    def from_mapping(cls, mapping: dict) -> "OntologySchema":
        """Rules from ``{relation: {"domain": [type, ...], "range": [type, ...]}}``;
        ``SchemaError`` naming the relation for a rule of any other shape."""
        rules = {}
        for name, spec in mapping.items():
            if name == NO_RELATION:
                continue
            sides = [spec.get(side) if isinstance(spec, dict) else None
                     for side in ("domain", "range")]
            if not all(isinstance(types, list) and all(isinstance(t, str) for t in types)
                       for types in sides):
                raise SchemaError(f"ontology rule for {name!r} must be an object whose "
                                  f"'domain' and 'range' are lists of type names, got {spec!r}")
            rules[name] = OntologyRule(frozenset(sides[0]), frozenset(sides[1]))
        return cls(rules)

    @classmethod
    def load(cls, path: str | Path) -> "OntologySchema":
        try:
            mapping = json.loads(read_utf8(path, "ontology file"))
        except json.JSONDecodeError as exc:
            raise MalformedDocument(f"ontology file {path}: {exc}") from exc
        if not isinstance(mapping, dict):
            raise SchemaError(f"ontology file {path}: expected a JSON object")
        return cls.from_mapping(mapping)

    @classmethod
    def default(cls) -> "OntologySchema":
        text = resources.files("ctie.data").joinpath("ontology.json").read_text("utf-8")
        return cls.from_mapping(json.loads(text))

    def entity_type_names(self) -> set[str]:
        names: set[str] = set()
        for rule in self.rules.values():
            names |= rule.domain
            names |= rule.range
        return names

    def admits(self, relation_name: str, head_type: str, tail_type: str) -> bool:
        rule = self.rules.get(relation_name)
        if rule is None:
            raise UnknownRelation(f"relation {relation_name!r} not in ontology schema")
        return head_type in rule.domain and tail_type in rule.range

    def admissible_relations(self, head_type: str, tail_type: str) -> list[str]:
        return [
            name
            for name, rule in sorted(self.rules.items())
            if head_type in rule.domain and tail_type in rule.range
        ]

    def pair_admissible(self, head_type: str, tail_type: str) -> bool:
        return any(
            head_type in rule.domain and tail_type in rule.range
            for rule in self.rules.values()
        )


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_DEFAULT_RELATION_ORDER = ("head", "relation", "tail")


def read_utf8(path: str | Path, what: str) -> str:
    """The text of the file ``path``; ``MalformedDocument`` naming it (as
    ``what``, e.g. "config file") when its bytes are not UTF-8."""
    return _decode(Path(path).read_bytes(), f"{what} {path}")


def _decode(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedDocument(f"{what} is not UTF-8 text ({exc})") from None


def _read_document(source) -> dict | list:
    if hasattr(source, "read"):
        raw = source.read()
    elif isinstance(source, bytes):
        raw = source
    else:
        raw = read_utf8(source, "corpus file")
    if isinstance(raw, bytes):
        raw = _decode(raw, "document")
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"not valid JSON: {exc}") from exc


def _document_records(doc) -> tuple[list, tuple[str, str, str]]:
    order = _DEFAULT_RELATION_ORDER
    if isinstance(doc, dict):
        if "records" not in doc:
            raise SchemaError("document object must contain a 'records' array")
        declared = doc.get("relation_order", list(order))
        if (not isinstance(declared, list) or not all(isinstance(x, str) for x in declared)
                or sorted(declared) != sorted(order)):
            raise SchemaError(
                f"relation_order must be a permutation of {list(order)}, got {declared}"
            )
        order = tuple(declared)
        doc = doc["records"]
    if not isinstance(doc, list):
        raise SchemaError("document must be a JSON array of records")
    return doc, order


def is_int(value) -> bool:
    """Whether a parsed JSON value is an integer: ``true`` and ``false``
    are not, though Python's bool is an int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_record_shape(record, order: tuple[str, str, str]) -> list[tuple[int, str, int]]:
    """Check field presence and types; return the relations as (head, name, tail)."""
    if not isinstance(record, dict):
        raise SchemaError("expected an object")
    for key in ("text", "entities", "relations", "entity_labels"):
        if key not in record:
            raise SchemaError(f"missing field {key!r}")
    if not isinstance(record["text"], str):
        raise SchemaError("'text' must be a string")
    for key in ("entities", "relations", "entity_labels"):
        if not isinstance(record[key], list):
            raise SchemaError(f"{key!r} must be a list")
    for j, ent in enumerate(record["entities"]):
        if not isinstance(ent, (list, tuple)) or len(ent) != 3:
            raise SchemaError(f"entities[{j}] must be [start, end, type]")
        start, end, name = ent
        if not is_int(start) or not is_int(end) or not isinstance(name, str):
            raise SchemaError(f"entities[{j}] must be [int, int, str]")
    for j, tag in enumerate(record["entity_labels"]):
        if not isinstance(tag, str):
            raise SchemaError(f"entity_labels[{j}] must be a string")
    relations = []
    for j, rel in enumerate(record["relations"]):
        if not isinstance(rel, (list, tuple)) or len(rel) != 3:
            raise SchemaError(f"relations[{j}] must be a 3-item list")
        by_name = dict(zip(order, rel))
        head, name, tail = by_name["head"], by_name["relation"], by_name["tail"]
        if not is_int(head) or not is_int(tail) or not isinstance(name, str):
            raise SchemaError(
                f"relations[{j}] fields must be (int head, str relation, int tail)"
            )
        relations.append((head, name, tail))
    return relations


def _labels_for_spans(n_tokens: int, spans: Sequence[tuple[int, int, str]]) -> list[str]:
    labels = ["O"] * n_tokens
    for start, end, name in spans:
        labels[start] = f"B-{name}"
        for pos in range(start + 1, end):
            labels[pos] = f"I-{name}"
    return labels


def check_spans(bounds: Sequence[tuple[int, int]], n_tokens: int) -> None:
    """``SpanError`` unless every span [start, end) is non-empty, lies in the
    sentence's ``n_tokens`` and intersects no other span."""
    for j, (start, end) in enumerate(bounds):
        if not (0 <= start < end <= n_tokens):
            raise SpanError(
                f"entities[{j}] span [{start}, {end}) out of range for {n_tokens} tokens"
            )
    occupied = sorted(bounds)
    for (_s1, e1), (s2, _e2) in zip(occupied, occupied[1:]):
        if s2 < e1:
            raise SpanError(f"overlapping entity spans at tokens {s2} < {e1}")


def _build_sentence(
    record: dict, relations: list[tuple[int, str, int]], types: TypeSystem
) -> AnnotatedSentence:
    """Every per-record check after the shape check, in order: label count,
    tag form, BIO continuity, spans, relation indices."""
    tokens = tuple(record["text"].split())
    labels = tuple(record["entity_labels"])
    if len(labels) != len(tokens):
        raise LabelError(f"{len(labels)} entity_labels for {len(tokens)} tokens")
    for pos, tag in enumerate(labels):
        if not _BIO_TAG.match(tag):
            raise LabelError(f"malformed tag {tag!r} at position {pos}")
    bio = validate_bio(labels)
    if not bio.ok:
        raise LabelError("; ".join(f"position {v.position}: {v.reason}" for v in bio.violations))

    raw_spans = [tuple(ent) for ent in record["entities"]]
    check_spans([(start, end) for start, end, _name in raw_spans], len(tokens))
    reconstructed = _labels_for_spans(len(tokens), raw_spans)
    if list(labels) != reconstructed:
        diff = next(i for i, (a, b) in enumerate(zip(labels, reconstructed)) if a != b)
        raise SpanError(
            f"entity_labels disagree with entity spans at token {diff} "
            f"({labels[diff]!r} vs {reconstructed[diff]!r})"
        )

    entities = tuple(
        EntitySpan(start, end, types.entity_type(name), " ".join(tokens[start:end]))
        for start, end, name in raw_spans
    )
    instances = []
    for j, (head, name, tail) in enumerate(relations):
        if not (0 <= head < len(entities)) or not (0 <= tail < len(entities)):
            raise RelationIndexError(
                f"relations[{j}] head/tail ({head}, {tail}) out of range "
                f"for {len(entities)} entities"
            )
        if head == tail:
            raise RelationIndexError(f"relations[{j}] head and tail are the same entity")
        instances.append(RelationInstance(head, tail, types.relation(name)))
    return AnnotatedSentence(tokens, entities, tuple(instances), labels)


@dataclass(frozen=True)
class Corpus:
    sentences: tuple[AnnotatedSentence, ...]
    types: TypeSystem


@dataclass(frozen=True)
class RecordIssue:
    record_index: int
    kind: str
    message: str

    def __str__(self) -> str:
        return f"record {self.record_index}: [{self.kind}] {self.message}"

    def error(self) -> DataError:
        """The exception ``load_corpus`` raises for this issue."""
        return _RECORD_ERRORS[self.kind](f"record {self.record_index}: {self.message}")


_RECORD_ERRORS = {
    cls.__name__: cls for cls in (SchemaError, LabelError, SpanError, RelationIndexError)
}


def check_corpus(
    source, ontology: OntologySchema | None = None
) -> tuple[Corpus, list[RecordIssue]]:
    """Read a corpus document once: the sentences of its sound records and
    one issue per bad record, in record order.

    Entity-type and relation vocabularies are the union of what the data
    mentions and what the ontology (when given) defines, so every type the
    schema refers to exists even if the corpus never uses it.
    """
    records, order = _document_records(_read_document(source))
    ent_names: set[str] = set()
    rel_names: set[str] = set()
    shaped: list[list | RecordIssue] = []  # per record: its relations or its shape issue
    for i, record in enumerate(records):
        try:
            relations = _check_record_shape(record, order)
        except SchemaError as exc:
            shaped.append(RecordIssue(i, "SchemaError", str(exc)))
            continue
        shaped.append(relations)
        ent_names.update(name for _s, _e, name in record["entities"])
        ent_names.update(
            tag[2:] for tag in record["entity_labels"] if tag != "O" and _BIO_TAG.match(tag)
        )
        rel_names.update(name for _h, name, _t in relations)
    if ontology is not None:
        ent_names |= ontology.entity_type_names()
        rel_names |= set(ontology.rules)
    types = TypeSystem(ent_names, rel_names)

    sentences: list[AnnotatedSentence] = []
    issues: list[RecordIssue] = []
    for i, (record, relations) in enumerate(zip(records, shaped)):
        if isinstance(relations, RecordIssue):
            issues.append(relations)
            continue
        try:
            sentences.append(_build_sentence(record, relations, types))
        except (LabelError, SpanError, RelationIndexError) as exc:
            issues.append(RecordIssue(i, type(exc).__name__, str(exc)))
    return Corpus(tuple(sentences), types), issues


def load_corpus(source, ontology: OntologySchema | None = None) -> Corpus:
    """Parse a corpus document and derive its type system; raise the first
    record issue ``check_corpus`` finds."""
    corpus, issues = check_corpus(source, ontology)
    if issues:
        raise issues[0].error()
    return corpus


def validate_records(source, ontology: OntologySchema | None = None) -> list[RecordIssue]:
    """Collect one issue per bad record, in record order, instead of raising."""
    return check_corpus(source, ontology)[1]


def parse_dataset(source, ontology: OntologySchema | None = None) -> list[AnnotatedSentence]:
    return list(load_corpus(source, ontology).sentences)


def sentence_to_record(sentence: AnnotatedSentence) -> dict:
    return {
        "text": " ".join(sentence.tokens),
        "entities": [[e.start, e.end, e.entity_type.name] for e in sentence.entities],
        "relations": [
            [r.head_index, r.relation.name, r.tail_index] for r in sentence.relations
        ],
        "entity_labels": list(sentence.labels),
    }


def serialize_corpus(sentences: Sequence[AnnotatedSentence]) -> str:
    return json.dumps([sentence_to_record(s) for s in sentences], indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BioViolation:
    position: int
    tag: str
    reason: str


@dataclass(frozen=True)
class BioReport:
    violations: tuple[BioViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_bio(labels: Sequence[str]) -> BioReport:
    """Flag every I- tag that does not continue a same-type B-/I- run."""
    violations = []
    for pos, tag in enumerate(labels):
        if not tag.startswith("I-"):
            continue
        prev = labels[pos - 1] if pos > 0 else "O"
        if prev == f"B-{tag[2:]}" or prev == tag:
            continue
        violations.append(BioViolation(pos, tag, f"{tag!r} does not continue a {tag[2:]} span"))
    return BioReport(tuple(violations))


@dataclass(frozen=True)
class OntologyViolation:
    relation_index: int
    relation: str
    head_type: str
    tail_type: str

    def __str__(self) -> str:
        return (
            f"relations[{self.relation_index}]: ({self.head_type}) -{self.relation}-> "
            f"({self.tail_type}) outside the relation's domain/range"
        )


def validate_ontology(
    sentence: AnnotatedSentence, schema: OntologySchema
) -> list[OntologyViolation]:
    violations = []
    for j, rel in enumerate(sentence.relations):
        if rel.relation.is_no_relation:
            continue
        head_type = sentence.entities[rel.head_index].entity_type.name
        tail_type = sentence.entities[rel.tail_index].entity_type.name
        if not schema.admits(rel.relation.name, head_type, tail_type):
            violations.append(OntologyViolation(j, rel.relation.name, head_type, tail_type))
    return violations


# ---------------------------------------------------------------------------
# Candidate pairs and statistics
# ---------------------------------------------------------------------------


def candidate_pairs(
    entity_types: Sequence[str],
    schema: OntologySchema | None = None,
    ontology_filter: bool = False,
) -> list[tuple[int, int]]:
    """All ordered pairs (i, j), i != j, i then j ascending, of entities
    whose type names are ``entity_types`` in span order.

    With ``ontology_filter`` the pairs whose type combination matches no
    relation's (domain, range) are dropped.
    """
    n = len(entity_types)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    if ontology_filter:
        if schema is None:
            raise ValueError("ontology_filter requires a schema")
        pairs = [
            (i, j) for i, j in pairs if schema.pair_admissible(entity_types[i], entity_types[j])
        ]
    return pairs


@dataclass(frozen=True)
class CorpusStats:
    sentence_count: int
    token_count: int
    entity_counts: dict[str, int]
    relation_counts: dict[str, int]

    @property
    def entity_total(self) -> int:
        return sum(self.entity_counts.values())

    @property
    def relation_total(self) -> int:
        return sum(self.relation_counts.values())

    def to_dict(self) -> dict:
        return {
            "sentence_count": self.sentence_count,
            "token_count": self.token_count,
            "entity_total": self.entity_total,
            "relation_total": self.relation_total,
            "entity_counts": dict(sorted(self.entity_counts.items())),
            "relation_counts": dict(sorted(self.relation_counts.items())),
        }

    def to_table(self) -> str:
        lines = [
            f"sentences {self.sentence_count}",
            f"tokens    {self.token_count}",
            "",
            "entity type        count",
            "-----------        -----",
        ]
        for name, count in sorted(self.entity_counts.items()):
            lines.append(f"{name:<18} {count:>5}")
        lines += ["", "relation type      count", "-------------      -----"]
        for name, count in sorted(self.relation_counts.items()):
            lines.append(f"{name:<18} {count:>5}")
        return "\n".join(lines)


def dataset_stats(sentences: Sequence[AnnotatedSentence]) -> CorpusStats:
    entity_counts: Counter = Counter()
    relation_counts: Counter = Counter()
    tokens = 0
    for sentence in sentences:
        tokens += len(sentence.tokens)
        for span in sentence.entities:
            entity_counts[span.entity_type.name] += 1
        for rel in sentence.relations:
            relation_counts[rel.relation.name] += 1
    return CorpusStats(len(sentences), tokens, dict(entity_counts), dict(relation_counts))
