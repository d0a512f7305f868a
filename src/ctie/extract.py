"""End-to-end inference: sentence text -> decoded spans -> classified
entity pairs -> relation triples -> graph-ready export.

``Extractor.extract_many`` is the one inference path: each padded chunk
of consecutive sentences (as many as fit ``evaluation.ENCODE_CELLS``
padded cells) takes one encoder call, one batched Viterbi call and one
relation-head call that scores the chunk's candidate pairs, each from
its sentence's row of that encoding (``Extractor.score_chunk``).
``extract_tokens`` and ``extract_text`` run it on a batch of one. An
``Extractor`` keeps one ``InputProjection`` of its ``params`` over all
its calls, so a token id's GRU input pre-activations are computed once
per extractor, not once per sentence.

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

from .corpus import OntologySchema, TypeSystem, check_spans
from .errors import EmptyInput, SchemaError, SpanError, UnknownFormat
from .evaluation import (
    SpanPrediction, check_confidence_floor, decode_spans, encode_batches,
    predict_ner_labels,
)
from .model import (
    InputProjection,
    ModelConfig,
    Params,
    checkpoint_tables,
    decode_constraint,
    load_checkpoint,
    score_pairs,
)
from .mslr import Vocabulary


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
    _projection: InputProjection | None = field(
        default=None, init=False, repr=False, compare=False
    )

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

    @cached_property
    def _relatable(self) -> list[list[bool]]:
        """[head type id][tail type id] -> the ontology admits a relation
        other than noRelation for the pair; nested lists, read per pair."""
        table = self._admissible.copy()
        table[..., self.types.no_relation.id] = False
        return table.any(axis=-1).tolist()

    def projection(self) -> InputProjection:
        """The encoder's ``InputProjection`` of ``params``, kept across
        calls; a new one once ``params`` is another dict. Change the
        weights by assigning a new dict: the projection does not see
        arrays changed in place."""
        if self._projection is None or self._projection.params is not self.params:
            self._projection = InputProjection(self.params)
        return self._projection

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
        ``first_index``: one encoder pass per chunk of ``encode_batches``,
        then NER and every candidate pair scored from that encoding.

        Pass ``spans`` (one span list per sentence) to skip NER and
        classify known entity sets (gold spans, or spans from an external
        tagger). Before anything is encoded, a span whose entity type the
        checkpoint does not know is a ``SchemaError``, and a span out of its
        sentence's range, empty or overlapping another is a ``SpanError``,
        and a ``confidence_floor`` outside [0, 1] is a ``ValueError``.
        """
        check_confidence_floor(confidence_floor)
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
                try:
                    check_spans([(s.start, s.end) for s in row], len(token_seqs[k]))
                except SpanError as exc:
                    raise SpanError(f"sentence {first_index + k}: {exc}") from None
        results: list[ExtractionResult] = []
        token_ids = [self.vocab.ids(tokens) for tokens in token_seqs]
        for h, mask in encode_batches(self.params, token_ids, self.projection()):
            lo, hi = len(results), len(results) + len(h)
            batch_spans = (
                self.decode_entities(h, mask, first_index + lo) if spans is None
                else spans[lo:hi]
            )
            results.extend(self.score_chunk(h, mask, token_seqs[lo:hi], batch_spans,
                                            first_index + lo, ontology_filter,
                                            confidence_floor))
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

    def score_chunk(
        self, h: np.ndarray, mask: np.ndarray, token_seqs: Sequence[tuple[str, ...]],
        spans: Sequence[Sequence[SpanPrediction]], first_index: int, ontology_filter: bool,
        confidence_floor: float,
    ) -> list[ExtractionResult]:
        """The results of the sentences of one padded encoder chunk ``h``
        (B, T, 2h) with ``mask`` (B, T), as ``encode_batches`` yields it: row
        b is sentence ``first_index + b``, with ``token_seqs[b]`` and
        ``spans[b]``. A sentence's candidate pairs are the ordered pairs of
        its distinct spans, head index ascending then tail index, and with
        ``ontology_filter`` only pairs whose type ids the ontology relates;
        one ``model.score_pairs`` call scores the chunk's pairs, given each
        span once. The spans' entity types are the checkpoint's, and the
        spans are disjoint and in range: decoded spans always are, and
        ``extract_many`` checks given ones before it encodes."""
        results = [
            ExtractionResult(sentence_index=first_index + b, tokens=tokens, spans=list(row),
                             triples=[])
            for b, (tokens, row) in enumerate(zip(token_seqs, spans))
        ]
        flat = [s for row in spans for s in row]
        type_id = [self.types.entity_type(s.entity_type).id for s in flat]
        relatable = self._relatable
        # per-sentence comprehensions: on a one-sentence chunk they cost less
        # than the numpy calls of index arithmetic over the chunk
        pairs, span_rows = [], []
        for b, row in enumerate(spans):
            ids = range(len(span_rows), len(span_rows) + len(row))
            pairs += [(b, i, j) for i in ids for j in ids
                      if i != j and (not ontology_filter or relatable[type_id[i]][type_id[j]])]
            span_rows += [b] * len(row)
        if not pairs:
            return results

        sentence_of, heads, tails = np.array(pairs).T
        bounds, type_id = np.array([(s.start, s.end) for s in flat]), np.array(type_id)
        head_ids, tail_ids = type_id[heads], type_id[tails]
        probs = score_pairs(h, mask, np.array(span_rows), bounds, heads, tails, head_ids,
                            tail_ids, self.params, self.config).probs
        scores = probs
        if ontology_filter:
            # argmax takes the first maximal index, as a max over the admissible ids would
            scores = np.where(self._admissible[head_ids, tail_ids], probs, -np.inf)
        best = np.argmax(scores, axis=1)

        rel_names = [r.name for r in self.types.relations]
        no_rel_idx = self.types.no_relation.id
        for b, i, j, row, k in zip(sentence_of.tolist(), heads.tolist(), tails.tolist(), probs,
                                   best):
            result, head, tail = results[b], flat[i], flat[j]
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
                    head=" ".join(result.tokens[head.start : head.end]),
                    head_type=head.entity_type,
                    relation=rel_names[k],
                    tail=" ".join(result.tokens[tail.start : tail.end]),
                    tail_type=tail.entity_type,
                    confidence=confidence,
                    sentence_index=result.sentence_index,
                    head_span=(head.start, head.end),
                    tail_span=(tail.start, tail.end),
                )
            )
        return results


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
