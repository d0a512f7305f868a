"""Multisequence labeling representation.

Every relation annotated on a sentence becomes one training row: a full
copy of the token sequence that keeps the original BIO labels and adds
the pair's entity mask (1 on head and tail tokens) plus the (head type,
tail type) id pair. A sentence with three relations therefore yields
three rows that differ only in those pair features and the relation
label, which is what lets one classifier head answer "which relation
holds for *this* pair" without destroying the NER signal.

Training (``make_batches``), validation and gold-pair evaluation read
their rows from slices of one ``sentence_rows`` table per sentence set,
with the one overlong rule. ``expand`` and ``encode`` build the ``ctie
mslr`` dump.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Sequence

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
        self.tokens: tuple[str, ...] = tuple(tokens)
        if self.tokens[:2] != (PAD_TOKEN, UNK_TOKEN):
            # a stored table read in another order would shift every embedding row
            raise ValueError(f"vocabulary must start with {PAD_TOKEN!r}, {UNK_TOKEN!r}")
        self._ids = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self._ids) != len(self.tokens):
            raise ValueError("vocabulary contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.tokens)

    def id(self, token: str) -> int:
        return self._ids.get(token, UNK_ID)

    def ids(self, tokens: Iterable[str]) -> list[int]:
        """The id of each token, UNK for one not in the table."""
        return [self._ids.get(token, UNK_ID) for token in tokens]

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
        token_ids=tuple(vocab.ids(example.tokens)) + (PAD_ID,) * pad,
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
    """B MSLR rows in the span-table layout that ``score_pairs`` reads. The
    sentence arrays hold each of the U sentences the rows name once, padded
    to the longest. Span s is [``spans[s, 0]``, ``spans[s, 1]``) of sentence
    ``span_rows[s]``; row b pairs spans ``head[b]`` and ``tail[b]``.

    The table of ``sentence_rows`` holds its sentences in corpus order,
    every entity span of each in entity order, and its rows in sentence
    then relation order; so the sentences [lo, hi) own one run of spans and
    one of rows (``sentence_range``). A ``make_batches`` batch holds its
    sentences in order of first appearance among its rows, and the spans
    they name in order of first naming (each row's head, then its tail)."""

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

    @property
    def records(self) -> np.ndarray:
        """(U,) each sentence's corpus record, the i of its rows' origins (i, j)."""
        records = np.zeros(len(self.lengths), dtype=np.int64)
        records[self.sentence_of] = [i for i, _ in self.origins]
        return records

    def sentence_range(self, lo: int, hi: int) -> "Batch":
        """The sentences [lo, hi) of a ``sentence_rows`` table, with their
        spans and rows, numbered from 0 and padded to their longest: the
        table ``sentence_rows`` builds of those sentences alone."""
        r0, r1 = np.searchsorted(self.sentence_of, (lo, hi)).tolist()
        s0, s1 = np.searchsorted(self.span_rows, (lo, hi)).tolist()
        width = int(self.lengths[lo:hi].max(initial=0))
        return Batch(
            token_ids=self.token_ids[lo:hi, :width], ner_labels=self.ner_labels[lo:hi, :width],
            attention_mask=self.attention_mask[lo:hi, :width], lengths=self.lengths[lo:hi],
            span_rows=self.span_rows[s0:s1] - lo, spans=self.spans[s0:s1],
            head=self.head[r0:r1] - s0, tail=self.tail[r0:r1] - s0,
            head_type=self.head_type[r0:r1], tail_type=self.tail_type[r0:r1],
            relation_label=self.relation_label[r0:r1], origins=self.origins[r0:r1],
        )


def sentence_rows(
    sentences: Sequence[AnnotatedSentence],
    token_ids: Mapping[int, Sequence[int]] | Sequence[Sequence[int]],
    indices: Iterable[int], types: TypeSystem, max_len: int,
) -> tuple[Batch, list[tuple[tuple[int, int], int]]]:
    """(table, skipped): the ``Batch`` of the gold-pair rows of each
    ``sentences[i]``, i of ``indices`` in order, with token ids
    ``token_ids[i]``, that has a row and at most ``max_len`` tokens. An
    overlong sentence is never truncated, which could drop entity tokens:
    it goes into ``skipped`` once per row, as ((i, row), length). Type,
    relation and BIO ids are looked up by name in ``types``, a checkpoint's
    type system. Each pair checks its head type, tail type and relation in
    that order, and the first that fails names the ``DataError``. Only the
    pairs are checked: gold evaluation reads no BIO id, so the tag of an
    unpaired entity whose type ``types`` lacks gets the out-of-range id
    ``types.num_bio_labels``, which training's ``model._check_batch`` rejects."""
    entity_id = {t.name: t.id for t in types.entity_types}
    relation_id = {r.name: r.id for r in types.relations}
    bio_id = {tag: k for k, tag in enumerate(types.bio_labels)}
    kept, rows, span_rows, spans, origins, skipped = [], [], [], [], [], []
    for i in indices:
        sentence = sentences[i]
        type_ids = [entity_id.get(e.entity_type.name) for e in sentence.entities]
        own = []
        for rel, head, tail in relation_pairs(sentence, i):
            pair = (type_ids[rel.head_index], type_ids[rel.tail_index],
                    relation_id.get(rel.relation.name))
            for entity, type_id in ((head, pair[0]), (tail, pair[1])):
                if type_id is None:
                    raise SchemaError(f"sentence {i}: entity type {entity.entity_type.name!r} "
                                      "is not in the checkpoint's type system")
            if pair[2] is None:
                raise UnknownRelation(f"sentence {i}: relation {rel.relation.name!r} is not in "
                                      "the checkpoint's type system")
            # entity indices shifted to the sentence's first span in the table
            own.append((len(spans) + rel.head_index, len(spans) + rel.tail_index) + pair)
        if len(sentence) > max_len:
            skipped.extend(((i, j), len(sentence)) for j in range(len(own)))
        elif own:
            span_rows += [len(kept)] * len(sentence.entities)
            spans += [(e.start, e.end) for e in sentence.entities]
            origins += [(i, j) for j in range(len(own))]
            rows += own
            kept.append(i)
    lengths = np.array([len(sentences[i]) for i in kept], dtype=np.int64)
    mask = np.arange(lengths.max(initial=0)) < lengths[:, None]
    tokens, labels = np.zeros((2,) + mask.shape, dtype=np.int64)
    tokens[mask] = np.fromiter(chain.from_iterable(token_ids[i] for i in kept), np.int64,
                               count=int(lengths.sum()))
    # an unpaired entity's unknown type: a label id no config has (``_check_batch``)
    labels[mask] = [bio_id.get(tag, len(bio_id)) for i in kept for tag in sentences[i].labels]
    head, tail, head_type, tail_type, label = np.array(rows, dtype=np.int64).reshape(-1, 5).T
    return Batch(
        token_ids=tokens, attention_mask=mask.astype(np.float64), ner_labels=labels,
        lengths=lengths, span_rows=np.array(span_rows, dtype=np.int64),
        spans=np.array(spans, dtype=np.int64).reshape(-1, 2), head=head, tail=tail,
        head_type=head_type, tail_type=tail_type, relation_label=label, origins=tuple(origins),
    ), skipped


def _first_appearance(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct, index): the distinct values of ``ids`` in order of first
    appearance, and each entry's position among them."""
    local: dict[int, int] = {}
    index = [local.setdefault(k, len(local)) for k in ids.tolist()]
    return np.array(list(local), dtype=np.int64), np.array(index, dtype=np.int64)


def make_batches(table: Batch, batch_size: int, shuffle_seed: int | None = None) -> list[Batch]:
    """The rows of ``table`` (from ``sentence_rows``) in batches of
    ``batch_size``, the last maybe short; with a ``shuffle_seed``, in the
    order of ``default_rng(shuffle_seed).permutation``. Each batch gathers
    the sentences and spans its rows name, each once, in the order
    ``Batch`` states."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = np.arange(table.size)
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(table.size)
    batches = []
    for lo in range(0, len(order), batch_size):
        idx = order[lo : lo + batch_size]
        named, ends = _first_appearance(np.stack((table.head[idx], table.tail[idx]), 1).ravel())
        sentences, span_rows = _first_appearance(table.span_rows[named])
        width = int(table.lengths[sentences].max())
        head, tail = ends.reshape(-1, 2).T
        batches.append(Batch(
            token_ids=table.token_ids[sentences, :width],
            attention_mask=table.attention_mask[sentences, :width],
            ner_labels=table.ner_labels[sentences, :width], lengths=table.lengths[sentences],
            span_rows=span_rows, spans=table.spans[named], head=head, tail=tail,
            head_type=table.head_type[idx], tail_type=table.tail_type[idx],
            relation_label=table.relation_label[idx],
            origins=tuple(table.origins[k] for k in idx),
        ))
    return batches


def dump_jsonl(instances: Sequence[MslrInstance]) -> str:
    return "\n".join(inst.to_json() for inst in instances) + ("\n" if instances else "")
