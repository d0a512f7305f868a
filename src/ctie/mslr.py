"""Multisequence labeling representation.

Every relation annotated on a sentence becomes one training row: a full
copy of the token sequence that keeps the original BIO labels and adds
the pair's entity mask (1 on head and tail tokens) plus the (head type,
tail type) id pair. A sentence with three relations therefore yields
three rows that differ only in those pair features and the relation
label, which is what lets one classifier head answer "which relation
holds for *this* pair" without destroying the NER signal.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .corpus import AnnotatedSentence, TypeSystem, UNLABELED_RELATION_ID
from .errors import DuplicatePairError, LengthError, OverlapError

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

    @property
    def size(self) -> int:
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
    """Stacked instance fields padded to the batch max length."""

    token_ids: np.ndarray       # (B, T) int64
    attention_mask: np.ndarray  # (B, T) float64
    entity_mask: np.ndarray     # (B, T) float64
    head_type: np.ndarray       # (B,) int64
    tail_type: np.ndarray       # (B,) int64
    ner_labels: np.ndarray      # (B, T) int64
    relation_label: np.ndarray  # (B,) int64
    lengths: np.ndarray         # (B,) int64
    origins: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return self.token_ids.shape[0]

    @property
    def max_len(self) -> int:
        return self.token_ids.shape[1]

    @property
    def labeled(self) -> bool:
        return bool(np.all(self.relation_label != UNLABELED_RELATION_ID))


def collate(instances: Sequence[MslrInstance]) -> Batch:
    if not instances:
        raise ValueError("cannot collate an empty instance list")
    width = max(inst.length for inst in instances)

    def stack(field: str) -> np.ndarray:
        rows = []
        for inst in instances:
            seq = list(getattr(inst, field))[: inst.length]
            rows.append(seq + [0] * (width - inst.length))
        return np.asarray(rows, dtype=np.int64)

    return Batch(
        token_ids=stack("token_ids"),
        attention_mask=stack("attention_mask").astype(np.float64),
        entity_mask=stack("entity_mask").astype(np.float64),
        head_type=np.asarray([i.head_type for i in instances], dtype=np.int64),
        tail_type=np.asarray([i.tail_type for i in instances], dtype=np.int64),
        ner_labels=stack("ner_labels"),
        relation_label=np.asarray([i.relation_label for i in instances], dtype=np.int64),
        lengths=np.asarray([i.length for i in instances], dtype=np.int64),
        origins=tuple(i.origin for i in instances),
    )


def make_batches(
    instances: Sequence[MslrInstance], batch_size: int, shuffle_seed: int | None = None
) -> list[Batch]:
    """Deterministically shuffled fixed-size batches; the last may be short."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = list(range(len(instances)))
    if shuffle_seed is not None:
        order = list(np.random.default_rng(shuffle_seed).permutation(len(instances)))
    batches = []
    for lo in range(0, len(order), batch_size):
        chunk = [instances[k] for k in order[lo : lo + batch_size]]
        batches.append(collate(chunk))
    return batches


def dump_jsonl(instances: Sequence[MslrInstance]) -> str:
    return "\n".join(inst.to_json() for inst in instances) + ("\n" if instances else "")
