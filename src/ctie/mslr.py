"""Multisequence labeling representation.

Every relation annotated on a sentence becomes one training row: a full
copy of the token sequence that keeps the original BIO labels and adds
the pair's entity mask (1 on head and tail tokens) plus the (head type,
tail type) id pair. A sentence with three relations therefore yields
three rows that differ only in those pair features and the relation
label, which is what lets one classifier head answer "which relation
holds for *this* pair" without destroying the NER signal.

Training (``make_batches``), validation and gold-pair evaluation read
their rows from ``sentence_rows``: ``pair_rows`` arrays, with the one
overlong rule. ``expand`` and ``encode`` build the ``ctie mslr`` dump.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .corpus import AnnotatedSentence, TypeSystem
from .errors import DuplicatePairError, LengthError, OverlapError, SchemaError, UnknownRelation

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_ID = 0
UNK_ID = 1


class Vocabulary:
    """Token-to-id table with fixed PAD=0 / UNK=1 specials."""

    def __init__(self, tokens: Sequence[str]):
        if list(tokens[:2]) != [PAD_TOKEN, UNK_TOKEN]:
            tokens = [PAD_TOKEN, UNK_TOKEN] + [
                t for t in tokens if t not in (PAD_TOKEN, UNK_TOKEN)
            ]
        self.tokens: tuple[str, ...] = tuple(tokens)
        self._ids = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self._ids) != len(self.tokens):
            raise ValueError("vocabulary contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.tokens)

    def id(self, token: str) -> int:
        return self._ids.get(token, UNK_ID)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def content_hash(self) -> str:
        digest = hashlib.sha256("\n".join(self.tokens).encode("utf-8"))
        return digest.hexdigest()

    def to_list(self) -> list[str]:
        return list(self.tokens)


def build_vocab(sentences: Iterable[AnnotatedSentence], min_freq: int = 1) -> Vocabulary:
    """Frequency-thresholded vocabulary; ids ordered by count desc then token."""
    if min_freq < 1:
        raise ValueError("min_freq must be >= 1")
    counts: Counter = Counter()
    for sentence in sentences:
        counts.update(sentence.tokens)
    kept = [tok for tok, c in counts.items() if c >= min_freq]
    kept.sort(key=lambda tok: (-counts[tok], tok))
    return Vocabulary([PAD_TOKEN, UNK_TOKEN] + kept)


def _span_bounds(span) -> tuple[int, int]:
    if hasattr(span, "start"):
        return int(span.start), int(span.end)
    start, end = span
    return int(start), int(end)


def make_entity_mask(sentence_length: int, head, tail) -> tuple[int, ...]:
    """1 on every token of both spans, 0 elsewhere."""
    hs, he = _span_bounds(head)
    ts, te = _span_bounds(tail)
    for s, e in ((hs, he), (ts, te)):
        if not (0 <= s < e <= sentence_length):
            raise ValueError(f"span [{s}, {e}) out of range for length {sentence_length}")
    if hs < te and ts < he:
        raise OverlapError(f"entity spans [{hs},{he}) and [{ts},{te}) intersect")
    mask = [0] * sentence_length
    for s, e in ((hs, he), (ts, te)):
        for pos in range(s, e):
            mask[pos] = 1
    return tuple(mask)


@dataclass(frozen=True)
class PairRows:
    """One sentence's MSLR rows as arrays, one entry per annotated pair in
    relation order: the head and tail entity indices into the sentence's
    entities, and the head type, tail type and relation ids, (P,)."""

    head: np.ndarray
    tail: np.ndarray
    head_type: np.ndarray
    tail_type: np.ndarray
    label: np.ndarray

    def __len__(self) -> int:
        return len(self.label)

    @classmethod
    def concat(cls, parts: Sequence["PairRows"]) -> "PairRows":
        """The rows of ``parts``, in order, as one ``PairRows``."""
        return cls(*(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(cls)))


@dataclass(frozen=True)
class MslrExample:
    """One per-relation row before token-id encoding."""

    tokens: tuple[str, ...]
    ner_tags: tuple[str, ...]
    ner_labels: tuple[int, ...]
    entity_mask: tuple[int, ...]
    head_type: int
    tail_type: int
    head_span: tuple[int, int]
    tail_span: tuple[int, int]
    relation_label: int
    origin: tuple[int, int]


@dataclass(frozen=True)
class MslrInstance:
    """Encoded row: parallel id sequences, optionally padded."""

    token_ids: tuple[int, ...]
    attention_mask: tuple[int, ...]
    entity_mask: tuple[int, ...]
    head_type: int
    tail_type: int
    ner_labels: tuple[int, ...]
    relation_label: int
    length: int
    head_span: tuple[int, int]
    tail_span: tuple[int, int]
    origin: tuple[int, int]

    def to_json(self) -> str:
        payload = {
            "token_ids": list(self.token_ids),
            "attention_mask": list(self.attention_mask),
            "entity_mask": list(self.entity_mask),
            "head_type": self.head_type,
            "tail_type": self.tail_type,
            "ner_labels": list(self.ner_labels),
            "relation_label": self.relation_label,
            "length": self.length,
            "head_span": list(self.head_span),
            "tail_span": list(self.tail_span),
            "origin": list(self.origin),
        }
        return json.dumps(payload, sort_keys=True)


def relation_pairs(sentence: AnnotatedSentence, sentence_index: int = 0) -> list[tuple]:
    """(relation, head entity, tail entity) per annotated relation, in
    relation order; an ordered entity pair annotated twice raises
    ``DuplicatePairError``."""
    seen: set[tuple[int, int]] = set()
    pairs = []
    for rel in sentence.relations:
        pair = (rel.head_index, rel.tail_index)
        if pair in seen:
            raise DuplicatePairError(
                f"sentence {sentence_index}: ordered entity pair {pair} annotated twice"
            )
        seen.add(pair)
        pairs.append((rel, sentence.entities[rel.head_index], sentence.entities[rel.tail_index]))
    return pairs


def pair_rows(sentence: AnnotatedSentence, types: TypeSystem, sentence_index: int = 0) -> PairRows:
    """The gold-pair rows of ``sentence``, with type and relation ids looked
    up by name in ``types``, the type system a checkpoint stores. An entity
    type or relation that ``types`` does not know raises a ``DataError``;
    each pair checks its head type, tail type and relation in that order,
    and the first pair that fails names the error."""
    pairs = relation_pairs(sentence, sentence_index)
    type_ids = [types.entity_type(e.entity_type.name).id
                if types.has_entity_type(e.entity_type.name) else None
                for e in sentence.entities]
    rows = []
    for rel, head, tail in pairs:
        for index, entity in ((rel.head_index, head), (rel.tail_index, tail)):
            if type_ids[index] is None:
                raise SchemaError(
                    f"sentence {sentence_index}: entity type {entity.entity_type.name!r} is not "
                    "in the checkpoint's type system"
                )
        if not types.has_relation(rel.relation.name):
            raise UnknownRelation(
                f"sentence {sentence_index}: relation {rel.relation.name!r} is not in the "
                "checkpoint's type system"
            )
        rows.append((rel.head_index, rel.tail_index, type_ids[rel.head_index],
                     type_ids[rel.tail_index], types.relation(rel.relation.name).id))
    return PairRows(*np.array(rows, dtype=np.int64).reshape(-1, 5).T)


def expand(
    sentence: AnnotatedSentence, types: TypeSystem, sentence_index: int = 0
) -> list[MslrExample]:
    """One example per relation, in relation order, labels preserved verbatim."""
    label_ids = tuple(types.bio_id(tag) for tag in sentence.labels)
    return [
        MslrExample(
            tokens=sentence.tokens,
            ner_tags=sentence.labels,
            ner_labels=label_ids,
            entity_mask=make_entity_mask(len(sentence.tokens), head, tail),
            head_type=head.entity_type.id,
            tail_type=tail.entity_type.id,
            head_span=(head.start, head.end),
            tail_span=(tail.start, tail.end),
            relation_label=rel.relation.id,
            origin=(sentence_index, j),
        )
        for j, (rel, head, tail) in enumerate(relation_pairs(sentence, sentence_index))
    ]


def encode(
    example: MslrExample,
    vocab: Vocabulary,
    max_len: int = 256,
    pad_to: int | None = None,
) -> MslrInstance:
    """Look up token ids (UNK fallback) and pad all parallel sequences.

    Overlong sentences raise ``LengthError``; they are never truncated
    because truncation could drop entity tokens.
    """
    n = len(example.tokens)
    if n == 0:
        raise ValueError("cannot encode an empty token sequence")
    if n > max_len:
        raise LengthError(
            f"sentence of length {n} exceeds max_len {max_len} (origin {example.origin})"
        )
    width = n if pad_to is None else pad_to
    if width < n:
        raise ValueError(f"pad_to {width} smaller than sentence length {n}")
    pad = width - n
    return MslrInstance(
        token_ids=tuple(vocab.id(t) for t in example.tokens) + (PAD_ID,) * pad,
        attention_mask=(1,) * n + (0,) * pad,
        entity_mask=tuple(example.entity_mask) + (0,) * pad,
        head_type=example.head_type,
        tail_type=example.tail_type,
        ner_labels=tuple(example.ner_labels) + (0,) * pad,
        relation_label=example.relation_label,
        length=n,
        head_span=example.head_span,
        tail_span=example.tail_span,
        origin=example.origin,
    )


def encode_all(
    examples: Sequence[MslrExample], vocab: Vocabulary, max_len: int = 256
) -> tuple[list[MslrInstance], list[tuple[tuple[int, int], int]]]:
    """Encode every example, skipping (and reporting) overlong ones.

    Returns (instances, skipped) where each skipped item is (origin, length).
    """
    instances = []
    skipped = []
    for example in examples:
        try:
            instances.append(encode(example, vocab, max_len=max_len))
        except LengthError:
            skipped.append((example.origin, len(example.tokens)))
    return instances, skipped


@dataclass
class Batch:
    """A batch of B MSLR rows in the span-table layout that ``score_pairs``
    reads. The sentence arrays hold each of the batch's U distinct
    sentences once, in order of first appearance among the rows, padded to
    the longest. The span table holds each entity span the rows name once,
    in order of first naming (each row's head, then its tail, row by row):
    span s is [``spans[s, 0]``, ``spans[s, 1]``) of sentence
    ``span_rows[s]``. Row b pairs spans ``head[b]`` and ``tail[b]``."""

    token_ids: np.ndarray       # (U, T) int64
    attention_mask: np.ndarray  # (U, T) float64
    ner_labels: np.ndarray      # (U, T) int64
    lengths: np.ndarray         # (U,) int64
    span_rows: np.ndarray       # (S,) int64 the sentence of each span
    spans: np.ndarray           # (S, 2) int64 [start, end) of each span
    head: np.ndarray            # (B,) int64 the head entity's span
    tail: np.ndarray            # (B,) int64 the tail entity's span
    head_type: np.ndarray       # (B,) int64
    tail_type: np.ndarray       # (B,) int64
    relation_label: np.ndarray  # (B,) int64
    origins: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.head)

    @property
    def max_len(self) -> int:
        return self.token_ids.shape[1]

    @property
    def sentence_of(self) -> np.ndarray:
        """(B,) each row's sentence."""
        return self.span_rows[self.head]


def sentence_rows(
    sentences: Sequence[AnnotatedSentence], indices: Iterable[int], types: TypeSystem,
    max_len: int,
) -> tuple[list[tuple[int, AnnotatedSentence, PairRows]], list[tuple[tuple[int, int], int]]]:
    """(kept, skipped) over ``sentences[i]`` for each i of ``indices``.
    ``kept`` holds (i, sentence, its ``pair_rows``) for each sentence with a
    row and at most ``max_len`` tokens. An overlong sentence is never
    truncated, which could drop entity tokens: it goes into ``skipped`` once
    per row, as ((i, row), length)."""
    kept, skipped = [], []
    for i in indices:
        rows, n = pair_rows(sentences[i], types, i), len(sentences[i])
        if n > max_len:
            skipped.extend(((i, j), n) for j in range(len(rows)))
        elif len(rows):
            kept.append((i, sentences[i], rows))
    return kept, skipped


def pair_spans(
    kept: Sequence[tuple[int, AnnotatedSentence, PairRows]],
) -> tuple[np.ndarray, np.ndarray, PairRows]:
    """(sentence (S,), spans (S, 2), pairs) of ``kept`` (``sentence_rows``):
    each entity span of its sentences once, as its sentence's position in
    ``kept`` and its [start, end); the rows as one ``PairRows`` over them."""
    n_spans = [len(sentence.entities) for _, sentence, _ in kept]
    spans = np.array([(e.start, e.end) for _, sentence, _ in kept for e in sentence.entities],
                     dtype=np.int64).reshape(-1, 2)
    pairs = PairRows.concat([rows for *_, rows in kept])
    shift = np.repeat(np.cumsum(n_spans) - n_spans, [len(rows) for *_, rows in kept])
    for index in (pairs.head, pairs.tail):  # concat's own arrays
        index += shift
    return np.repeat(np.arange(len(kept)), n_spans), spans, pairs


def _first_appearance(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct, index): the distinct values of ``ids`` in order of first
    appearance, and each entry's position among them."""
    local: dict[int, int] = {}
    index = [local.setdefault(k, len(local)) for k in ids.tolist()]
    return np.array(list(local), dtype=np.int64), np.array(index, dtype=np.int64)


def make_batches(
    kept: Sequence[tuple[int, AnnotatedSentence, PairRows]], types: TypeSystem,
    vocab: Vocabulary, batch_size: int, shuffle_seed: int | None = None,
) -> list[Batch]:
    """The rows of ``kept`` (from ``sentence_rows``) in batches of
    ``batch_size``, the last maybe short; with a ``shuffle_seed``, in the
    order of ``default_rng(shuffle_seed).permutation``. Token and BIO label
    ids fill one table of ``kept``'s sentences and ``pair_spans`` numbers
    their entity spans; each batch gathers the sentences and spans its rows
    name, each once, in the order ``Batch`` states."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if not kept:
        return []
    lengths = np.array([len(sentence) for _, sentence, _ in kept], dtype=np.int64)
    tokens, labels = np.zeros((2, len(kept), lengths.max()), dtype=np.int64)
    for k, (_, sentence, _) in enumerate(kept):
        tokens[k, : lengths[k]] = [vocab.id(t) for t in sentence.tokens]
        labels[k, : lengths[k]] = [types.bio_id(tag) for tag in sentence.labels]
    span_sentence, spans, pairs = pair_spans(kept)
    origins = [(i, j) for i, _, rows in kept for j in range(len(rows))]
    order = np.arange(len(origins))
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(len(origins))
    batches = []
    for lo in range(0, len(order), batch_size):
        idx = order[lo : lo + batch_size]
        named, ends = _first_appearance(np.stack((pairs.head[idx], pairs.tail[idx]), 1).ravel())
        sentences, span_rows = _first_appearance(span_sentence[named])
        n = lengths[sentences]
        width = int(n.max())
        head, tail = ends.reshape(-1, 2).T
        batches.append(Batch(
            token_ids=tokens[sentences, :width], ner_labels=labels[sentences, :width],
            attention_mask=(np.arange(width) < n[:, None]).astype(np.float64), lengths=n,
            span_rows=span_rows, spans=spans[named], head=head, tail=tail,
            head_type=pairs.head_type[idx], tail_type=pairs.tail_type[idx],
            relation_label=pairs.label[idx], origins=tuple(origins[k] for k in idx),
        ))
    return batches


def dump_jsonl(instances: Sequence[MslrInstance]) -> str:
    return "\n".join(inst.to_json() for inst in instances) + ("\n" if instances else "")
