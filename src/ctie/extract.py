"""End-to-end inference: sentence text -> decoded spans -> classified
entity pairs -> relation triples -> graph-ready export.

``Extractor.extract_many`` is the one inference path: each padded batch
of ``ENCODE_BATCH`` sentences takes one encoder call and one batched
Viterbi call, and each sentence's pairs are then scored from its row of
that encoding. ``extract_tokens`` and ``extract_text`` run it on a batch
of one.

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

from .corpus import OntologySchema, TypeSystem, candidate_pairs
from .errors import EmptyInput, SchemaError, UnknownFormat
from .evaluation import SpanPrediction, decode_spans, encode_batches, predict_ner_labels
from .model import (
    ModelConfig,
    Params,
    checkpoint_tables,
    decode_constraint,
    load_checkpoint,
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
    params: Params
    config: ModelConfig
    vocab: Vocabulary
    types: TypeSystem
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

    @cached_property
    def _allowed(self) -> np.ndarray | None:
        return decode_constraint(self.config, self.types.bio_labels)

    @cached_property
    def _admissible(self) -> np.ndarray:
        """(head type id, tail type id, relation id) -> the ontology admits
        that relation for the pair; noRelation is always admitted."""
        entity_types, relations = self.types.entity_types, self.types.relations
        table = np.zeros((len(entity_types), len(entity_types), len(relations)), dtype=bool)
        for head in entity_types:
            for tail in entity_types:
                names = set(self.ontology.admissible_relations(head.name, tail.name))
                table[head.id, tail.id] = [r.name in names for r in relations]
        table[..., self.types.no_relation.id] = True
        return table

    def decode_entities(
        self, h: np.ndarray, mask: np.ndarray, first_index: int = 0
    ) -> list[list[SpanPrediction]]:
        """Spans of each row of one padded encoder batch, in one batched
        Viterbi call; row b is sentence ``first_index + b``."""
        tags = predict_ner_labels(self.params, self.types, h, mask, self._allowed)
        return [decode_spans(t, sentence_index=first_index + b) for b, t in enumerate(tags)]

    def extract_many(
        self,
        token_seqs: Sequence[Sequence[str]],
        first_index: int = 0,
        ontology_filter: bool = False,
        confidence_floor: float = 0.0,
        spans: Sequence[Sequence[SpanPrediction]] | None = None,
    ) -> list[ExtractionResult]:
        """Run the pipeline on tokenized sentences, numbered from
        ``first_index``: one encoder pass per ``ENCODE_BATCH`` sentences,
        then NER and every candidate pair scored from that encoding.

        Pass ``spans`` (one span list per sentence) to skip NER and
        classify known entity sets (gold spans, or spans from an external
        tagger); a span whose entity type the checkpoint does not know is a
        ``SchemaError``, raised before anything is encoded.
        """
        token_seqs = [tuple(tokens) for tokens in token_seqs]
        for k, tokens in enumerate(token_seqs):
            if not tokens:
                raise EmptyInput(f"sentence {first_index + k} has no tokens")
        if spans is not None:
            if len(spans) != len(token_seqs):
                raise ValueError(f"{len(spans)} span lists for {len(token_seqs)} sentences")
            for k, row in enumerate(spans):
                for s in row:
                    if not self.types.has_entity_type(s.entity_type):
                        raise SchemaError(
                            f"sentence {first_index + k}: span [{s.start}, {s.end}) has "
                            f"entity type {s.entity_type!r} unknown to this checkpoint"
                        )
        results: list[ExtractionResult] = []
        for h, mask in encode_batches(self.params, self.vocab, token_seqs):
            lo = len(results)
            batch_spans = (
                self.decode_entities(h, mask, first_index + lo) if spans is None
                else spans[lo : lo + len(h)]
            )
            for b, sentence_spans in enumerate(batch_spans):
                tokens = token_seqs[lo + b]
                results.append(self.score_pairs(
                    tokens, h[b, : len(tokens)], sentence_spans, first_index + lo + b,
                    ontology_filter, confidence_floor,
                ))
        return results

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
    ) -> ExtractionResult:
        """``extract_many`` on one sentence."""
        return self.extract_many(
            [tokens], first_index=sentence_index, ontology_filter=ontology_filter,
            confidence_floor=confidence_floor, spans=None if spans is None else [spans],
        )[0]

    def score_pairs(
        self,
        tokens: tuple[str, ...],
        h: np.ndarray,
        spans: Sequence[SpanPrediction],
        sentence_index: int,
        ontology_filter: bool,
        confidence_floor: float,
    ) -> ExtractionResult:
        """Classify every candidate pair of ``spans`` from the sentence's
        (length, 2h) encoding ``h``. The spans' entity types are the
        checkpoint's: decoded spans always are, and ``extract_many`` checks
        given ones before it encodes."""
        spans = list(spans)
        result = ExtractionResult(
            sentence_index=sentence_index, tokens=tuple(tokens), spans=spans, triples=[]
        )
        pairs = candidate_pairs([s.entity_type for s in spans], self.ontology, ontology_filter)
        if not pairs:
            return result

        type_id = np.array([self.types.entity_type(s.entity_type).id for s in spans])
        head_ids, tail_ids = type_id[np.array(pairs).T]
        *_, probs = relation_head(
            h,
            [make_entity_mask(len(tokens), spans[i], spans[j]) for i, j in pairs],
            head_ids,
            tail_ids,
            self.params,
            self.config,
        )
        scores = probs
        if ontology_filter:
            # argmax takes the first maximal index, as a max over the admissible ids would
            scores = np.where(self._admissible[head_ids, tail_ids], probs, -np.inf)
        best = np.argmax(scores, axis=1)

        rel_names = [r.name for r in self.types.relations]
        no_rel_idx = self.types.no_relation.id
        for (i, j), row, k in zip(pairs, probs, best):
            head, tail = spans[i], spans[j]
            confidence = float(row[k])
            if k == no_rel_idx or confidence < confidence_floor:
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
                    relation=rel_names[k],
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
