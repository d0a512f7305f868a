"""End-to-end inference: sentence text -> decoded spans -> classified
entity pairs -> relation triples -> graph-ready export.

Every ordered pair of decoded entities is classified; a pair survives as
a triple when its argmax relation is not noRelation and its probability
clears the confidence floor. With the ontology filter on, pairs whose
type combination no relation admits are skipped outright, and the argmax
is restricted to relations admissible for the pair (plus noRelation) so
every emitted triple satisfies the schema.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .corpus import OntologySchema, TypeSystem
from .errors import EmptyInput, ModelNotLoaded, SchemaError, UnknownFormat
from .evaluation import SpanPrediction, decode_spans, encode_sentences
from .model import (
    ModelConfig,
    Params,
    checkpoint_tables,
    decode_constraint,
    load_checkpoint,
    ner_predict,
    relation_head,
)
from .mslr import Vocabulary, make_entity_mask


@dataclass(frozen=True)
class Triple:
    head: str
    head_type: str
    relation: str
    tail: str
    tail_type: str
    confidence: float
    sentence_index: int
    head_span: tuple[int, int]
    tail_span: tuple[int, int]

    @property
    def key(self) -> tuple:
        return (self.head, self.head_type, self.relation, self.tail, self.tail_type)

    def to_dict(self) -> dict:
        return {
            "head": self.head,
            "head_type": self.head_type,
            "relation": self.relation,
            "tail": self.tail,
            "tail_type": self.tail_type,
            "confidence": self.confidence,
            "sentence_index": self.sentence_index,
            "head_span": list(self.head_span),
            "tail_span": list(self.tail_span),
        }


@dataclass
class ExtractionResult:
    sentence_index: int
    tokens: tuple[str, ...]
    spans: list[SpanPrediction]
    triples: list[Triple]
    dropped: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "sentence_index": self.sentence_index,
            "tokens": list(self.tokens),
            "spans": [
                {"start": s.start, "end": s.end, "entity_type": s.entity_type}
                for s in self.spans
            ],
            "triples": [t.to_dict() for t in self.triples],
            "dropped": self.dropped,
        }


@dataclass
class Extractor:
    params: Params | None
    config: ModelConfig | None
    vocab: Vocabulary | None
    types: TypeSystem | None
    ontology: OntologySchema

    @classmethod
    def from_checkpoint(cls, path, ontology: OntologySchema | None = None) -> "Extractor":
        ckpt = load_checkpoint(path)
        vocab, types = checkpoint_tables(ckpt, path)
        return cls(
            params=ckpt.params,
            config=ckpt.config,
            vocab=vocab,
            types=types,
            ontology=ontology or OntologySchema.default(),
        )

    def _require_loaded(self) -> None:
        if self.params is None or self.config is None or self.vocab is None or self.types is None:
            raise ModelNotLoaded("extractor has no loaded checkpoint")

    @cached_property
    def _allowed(self) -> np.ndarray | None:
        return decode_constraint(self.config, self.types.bio_labels)

    def decode_entities(
        self, tokens: Sequence[str], sentence_index: int = 0, h: np.ndarray | None = None
    ) -> list[SpanPrediction]:
        """Tag one sentence; ``h`` is its encoding if the caller has it."""
        self._require_loaded()
        if h is None:
            h = encode_sentences(self.params, self.vocab, [tokens])[0]
        path = ner_predict(h[None], np.ones((1, len(h))), self.params, self._allowed)[0]
        tags = [self.types.bio_tag(i) for i in path]
        return decode_spans(tags, sentence_index=sentence_index)

    def extract_text(
        self,
        text: str,
        sentence_index: int = 0,
        ontology_filter: bool = False,
        confidence_floor: float = 0.0,
    ) -> ExtractionResult:
        tokens = tuple(text.split())
        return self.extract_tokens(
            tokens,
            sentence_index=sentence_index,
            ontology_filter=ontology_filter,
            confidence_floor=confidence_floor,
        )

    def extract_tokens(
        self,
        tokens: Sequence[str],
        sentence_index: int = 0,
        ontology_filter: bool = False,
        confidence_floor: float = 0.0,
        spans: Sequence[SpanPrediction] | None = None,
        h: np.ndarray | None = None,
    ) -> ExtractionResult:
        """Run the pipeline on one tokenized sentence: one encoder pass, then
        NER and every candidate pair scored from that encoding ``h``
        (pass it if the caller already has it).

        Pass ``spans`` to skip NER and classify a known entity set (gold
        spans, or spans from an external tagger).
        """
        self._require_loaded()
        tokens = tuple(tokens)
        if not tokens:
            raise EmptyInput("sentence has no tokens")
        if h is None:
            h = encode_sentences(self.params, self.vocab, [tokens])[0]
        if spans is None:
            spans = self.decode_entities(tokens, sentence_index, h=h)
        spans = list(spans)

        result = ExtractionResult(
            sentence_index=sentence_index, tokens=tokens, spans=spans, triples=[]
        )
        if len(spans) < 2:
            return result

        pairs = [
            (i, j)
            for i in range(len(spans))
            for j in range(len(spans))
            if i != j
        ]
        if ontology_filter:
            pairs = [
                (i, j)
                for i, j in pairs
                if self.ontology.pair_admissible(spans[i].entity_type, spans[j].entity_type)
            ]
        if not pairs:
            return result

        for s in spans:
            if not self.types.has_entity_type(s.entity_type):
                raise SchemaError(
                    f"span [{s.start}, {s.end}) has entity type {s.entity_type!r} "
                    "unknown to this checkpoint's type system"
                )
        type_id = [self.types.entity_type(s.entity_type).id for s in spans]
        *_, probs = relation_head(
            h,
            [make_entity_mask(len(tokens), spans[i], spans[j]) for i, j in pairs],
            [type_id[i] for i, _ in pairs],
            [type_id[j] for _, j in pairs],
            self.params,
            self.config,
        )

        rel_names = [r.name for r in self.types.relations]
        no_rel_idx = self.types.no_relation.id
        for k, (i, j) in enumerate(pairs):
            head, tail = spans[i], spans[j]
            row = probs[k]
            if ontology_filter:
                admissible = set(
                    self.ontology.admissible_relations(head.entity_type, tail.entity_type)
                )
                candidates = [
                    idx
                    for idx, name in enumerate(rel_names)
                    if name in admissible or idx == no_rel_idx
                ]
            else:
                candidates = list(range(len(rel_names)))
            best = max(candidates, key=lambda idx: (row[idx], -idx))
            confidence = float(row[best])
            if best == no_rel_idx or confidence < confidence_floor:
                result.dropped.append(
                    {
                        "head_span": [head.start, head.end],
                        "tail_span": [tail.start, tail.end],
                        "no_relation_confidence": float(row[no_rel_idx]),
                    }
                )
                continue
            result.triples.append(
                Triple(
                    head=" ".join(tokens[head.start : head.end]),
                    head_type=head.entity_type,
                    relation=rel_names[best],
                    tail=" ".join(tokens[tail.start : tail.end]),
                    tail_type=tail.entity_type,
                    confidence=confidence,
                    sentence_index=sentence_index,
                    head_span=(head.start, head.end),
                    tail_span=(tail.start, tail.end),
                )
            )
        return result


# ---------------------------------------------------------------------------
# Graph export
# ---------------------------------------------------------------------------

_CSV_COLUMNS = (
    "head", "head_type", "relation", "tail", "tail_type", "confidence", "sentence_id",
)


def export_graph(results: Sequence[ExtractionResult], fmt: str = "json") -> bytes:
    """Deterministic edge list; nodes are deduplicated by (surface, type)."""
    triples = [t for r in results for t in r.triples]
    if fmt == "json":
        node_ids: dict[tuple[str, str], int] = {}
        nodes = []
        for t in triples:
            for surface, type_name in ((t.head, t.head_type), (t.tail, t.tail_type)):
                if (surface, type_name) not in node_ids:
                    node_ids[(surface, type_name)] = len(nodes)
                    nodes.append({"id": len(nodes), "surface": surface, "type": type_name})
        edges = [
            {
                "head": node_ids[(t.head, t.head_type)],
                "tail": node_ids[(t.tail, t.tail_type)],
                "relation": t.relation,
                "confidence": t.confidence,
                "sentence_id": t.sentence_index,
            }
            for t in triples
        ]
        doc = {"nodes": nodes, "edges": edges}
        return (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode("utf-8")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for t in triples:
            writer.writerow(
                [t.head, t.head_type, t.relation, t.tail, t.tail_type,
                 repr(t.confidence), t.sentence_index]
            )
        return buf.getvalue().encode("utf-8")
    raise UnknownFormat(f"unknown export format {fmt!r} (expected 'json' or 'csv')")


def import_graph(data: bytes) -> list[tuple]:
    """Rebuild (head, head_type, relation, tail, tail_type) tuples from a
    JSON graph export; used for round-trip checks."""
    doc = json.loads(data.decode("utf-8"))
    nodes = {n["id"]: n for n in doc["nodes"]}
    out = []
    for e in doc["edges"]:
        head, tail = nodes[e["head"]], nodes[e["tail"]]
        out.append(
            (head["surface"], head["type"], e["relation"], tail["surface"], tail["type"])
        )
    return out
