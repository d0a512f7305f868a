"""Metrics: span+type NER P/R/F1, triple-level RE P/R/F1, and the
expert-feature ablation harness.

An NER prediction counts only when (sentence, start, end, type) all match
a gold span. An RE prediction counts only when the (sentence, head span,
tail span, relation) quadruple matches; noRelation is a rejection class
and never enters the positive sets, but it does count toward accuracy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .corpus import NO_RELATION, AnnotatedSentence, OntologySchema, TypeSystem
from .errors import SchemaError, UnknownRelation
from .model import ModelConfig, Params, decode_constraint, encode, ner_predict, relation_head
from .mslr import Vocabulary, make_entity_mask, relation_pairs
from .train import TrainConfig, TrainResult, split, train_loop


@dataclass(frozen=True)
class SpanPrediction:
    sentence_index: int
    start: int
    end: int
    entity_type: str

    @property
    def key(self) -> tuple:
        return (self.sentence_index, self.start, self.end, self.entity_type)


@dataclass(frozen=True)
class PairPrediction:
    """One classified entity pair; ``relation`` may be noRelation."""

    sentence_index: int
    head_span: tuple[int, int]
    tail_span: tuple[int, int]
    relation: str

    @property
    def pair_key(self) -> tuple:
        return (self.sentence_index, tuple(self.head_span), tuple(self.tail_span))

    @property
    def key(self) -> tuple:
        return self.pair_key + (self.relation,)


@dataclass
class ClassStats:
    gold: int = 0
    predicted: int = 0
    correct: int = 0

    @property
    def precision(self) -> float:
        return self.correct / self.predicted if self.predicted else 0.0

    @property
    def recall(self) -> float:
        return self.correct / self.gold if self.gold else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) > 0 else 0.0


@dataclass
class MetricReport:
    precision: float
    recall: float
    f1: float
    accuracy: float | None
    per_class: dict[str, ClassStats]
    gold_total: int
    predicted_total: int
    correct_total: int

    def to_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "accuracy": self.accuracy,
            "support": {
                "gold": self.gold_total,
                "predicted": self.predicted_total,
                "correct": self.correct_total,
            },
            "per_class": {
                name: {
                    "precision": cs.precision,
                    "recall": cs.recall,
                    "f1": cs.f1,
                    "gold": cs.gold,
                    "predicted": cs.predicted,
                    "correct": cs.correct,
                }
                for name, cs in sorted(self.per_class.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)


def metrics_table(reports: dict[str, MetricReport]) -> str:
    """Aligned text table, one row per task (P, R, F1, Acc columns)."""
    header = f"{'task':<10} {'P':>7} {'R':>7} {'F1':>7} {'Acc':>7}"
    lines = [header, "-" * len(header)]
    for task, report in sorted(reports.items()):
        acc = f"{report.accuracy:>7.3f}" if report.accuracy is not None else f"{'-':>7}"
        lines.append(
            f"{task:<10} {report.precision:>7.3f} {report.recall:>7.3f} "
            f"{report.f1:>7.3f} {acc}"
        )
    return "\n".join(lines)


def _micro(gold_keys: set, pred_keys: set, class_of, accuracy=None) -> MetricReport:
    correct = gold_keys & pred_keys
    per_class: dict[str, ClassStats] = {}
    for key in gold_keys:
        per_class.setdefault(class_of(key), ClassStats()).gold += 1
    for key in pred_keys:
        per_class.setdefault(class_of(key), ClassStats()).predicted += 1
    for key in correct:
        per_class[class_of(key)].correct += 1
    n_gold, n_pred, n_ok = len(gold_keys), len(pred_keys), len(correct)
    precision = n_ok / n_pred if n_pred else 0.0
    recall = n_ok / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) > 0 else 0.0
    return MetricReport(
        precision=precision, recall=recall, f1=f1, accuracy=accuracy,
        per_class=per_class, gold_total=n_gold, predicted_total=n_pred,
        correct_total=n_ok,
    )


def decode_spans(bio_labels: Sequence[str], sentence_index: int = 0) -> list[SpanPrediction]:
    """Lenient BIO decode: B starts a span, same-type I continues it, and an
    I with no compatible predecessor starts a new span."""
    spans = []
    start = None
    current = None
    for pos, tag in enumerate(bio_labels):
        if tag == "O":
            if current is not None:
                spans.append(SpanPrediction(sentence_index, start, pos, current))
                current = None
            continue
        kind, name = tag[0], tag[2:]
        if kind == "B" or current != name:
            if current is not None:
                spans.append(SpanPrediction(sentence_index, start, pos, current))
            start, current = pos, name
    if current is not None:
        spans.append(SpanPrediction(sentence_index, start, len(bio_labels), current))
    return spans


def spans_to_bio(spans: Iterable[SpanPrediction], length: int) -> list[str]:
    labels = ["O"] * length
    for span in spans:
        labels[span.start] = f"B-{span.entity_type}"
        for pos in range(span.start + 1, span.end):
            labels[pos] = f"I-{span.entity_type}"
    return labels


def ner_metrics(
    gold: Iterable[SpanPrediction],
    predicted: Iterable[SpanPrediction],
    gold_labels: Sequence[Sequence[str]] | None = None,
    predicted_labels: Sequence[Sequence[str]] | None = None,
) -> MetricReport:
    """Micro-averaged exact span+type match. Token-level accuracy is
    reported when the per-token label sequences are supplied."""
    accuracy = None
    if gold_labels is not None and predicted_labels is not None:
        correct = total = 0
        for g_seq, p_seq in zip(gold_labels, predicted_labels):
            correct += sum(1 for g, p in zip(g_seq, p_seq) if g == p)
            total += len(g_seq)
        accuracy = correct / total if total else 0.0
    return _micro(
        {s.key for s in gold},
        {s.key for s in predicted},
        class_of=lambda key: key[3],
        accuracy=accuracy,
    )


def re_metrics(
    gold: Iterable[PairPrediction], predicted: Iterable[PairPrediction]
) -> MetricReport:
    """Micro P/R/F1 over non-noRelation triples; accuracy over all gold
    pairs including noRelation (a pair the prediction never classified
    counts as wrong)."""
    gold = list(gold)
    predicted = list(predicted)
    pred_by_pair = {p.pair_key: p.relation for p in predicted}
    agree = sum(1 for g in gold if pred_by_pair.get(g.pair_key) == g.relation)
    accuracy = agree / len(gold) if gold else 0.0
    return _micro(
        {g.key for g in gold if g.relation != NO_RELATION},
        {p.key for p in predicted if p.relation != NO_RELATION},
        class_of=lambda key: key[3],
        accuracy=accuracy,
    )


# ---------------------------------------------------------------------------
# Model evaluation on annotated sentences
# ---------------------------------------------------------------------------


def gold_spans(sentences: Sequence[AnnotatedSentence]) -> list[SpanPrediction]:
    return [
        SpanPrediction(i, e.start, e.end, e.entity_type.name)
        for i, sentence in enumerate(sentences)
        for e in sentence.entities
    ]


def gold_pairs(sentences: Sequence[AnnotatedSentence]) -> list[PairPrediction]:
    return [
        PairPrediction(
            i,
            (s.entities[r.head_index].start, s.entities[r.head_index].end),
            (s.entities[r.tail_index].start, s.entities[r.tail_index].end),
            r.relation.name,
        )
        for i, s in enumerate(sentences)
        for r in s.relations
    ]


ENCODE_BATCH = 32  # sentences per padded encoder batch


def encode_batches(params: Params, vocab: Vocabulary, token_seqs: Sequence[Sequence[str]]):
    """Yield (h (B, T, 2h), mask (B, T)) for each ``ENCODE_BATCH`` sentences:
    one deterministic encoder pass per sentence, padded to the chunk's
    longest."""
    for lo in range(0, len(token_seqs), ENCODE_BATCH):
        chunk = token_seqs[lo : lo + ENCODE_BATCH]
        ids = np.zeros((len(chunk), max(map(len, chunk))), dtype=np.int64)
        mask = np.zeros(ids.shape)
        for b, tokens in enumerate(chunk):
            ids[b, : len(tokens)] = [vocab.id(t) for t in tokens]
            mask[b, : len(tokens)] = 1.0
        yield encode(ids, mask, params), mask


def _unpad(h: np.ndarray, mask: np.ndarray) -> list[np.ndarray]:
    return [row[: int(n)] for row, n in zip(h, mask.sum(axis=1))]


def encode_sentences(
    params: Params, vocab: Vocabulary, token_seqs: Sequence[Sequence[str]]
) -> list[np.ndarray]:
    """Each sentence's (length, 2h) encoding."""
    return [e for h, mask in encode_batches(params, vocab, token_seqs) for e in _unpad(h, mask)]


def predict_ner_labels(
    params: Params,
    types: TypeSystem,
    h: np.ndarray,
    attention_mask: np.ndarray,
    allowed: np.ndarray | None = None,
) -> list[list[str]]:
    """CRF-decoded BIO tags of each row of one padded encoder batch, in one
    batched Viterbi call."""
    return [
        [types.bio_tag(i) for i in path] for path in ner_predict(h, attention_mask, params, allowed)
    ]


def _checkpoint_pairs(sentence: AnnotatedSentence, types: TypeSystem, index: int) -> list[tuple]:
    """(head, tail) entities per annotated relation, each of whose entity
    types and relation the checkpoint's ``types`` must know."""
    pairs = []
    for rel, head, tail in relation_pairs(sentence, index):
        for entity in (head, tail):
            if not types.has_entity_type(entity.entity_type.name):
                raise SchemaError(
                    f"sentence {index}: entity type {entity.entity_type.name!r} is not "
                    "in the checkpoint's type system"
                )
        if not types.has_relation(rel.relation.name):
            raise UnknownRelation(
                f"sentence {index}: relation {rel.relation.name!r} is not in the "
                "checkpoint's type system"
            )
        pairs.append((head, tail))
    return pairs


def predict_relations_gold_pairs(
    params: Params,
    config: ModelConfig,
    types: TypeSystem,
    sentences: Sequence[AnnotatedSentence],
    encodings: Sequence[np.ndarray],
    max_len: int = 256,
) -> list[PairPrediction]:
    """Classify each annotated entity pair using gold spans and gold types
    as features (mirrors the training instances); like training, skip
    sentences longer than ``max_len``. ``types`` is the checkpoint's: type
    ids are looked up there by name, and a pair whose relation or entity
    types it does not know raises a ``DataError``."""
    preds: list[PairPrediction] = []
    for i, (sentence, h) in enumerate(zip(sentences, encodings)):
        pairs = _checkpoint_pairs(sentence, types, i)
        n = len(sentence.tokens)
        if not pairs or n > max_len:
            continue
        *_, probs = relation_head(
            h, [make_entity_mask(n, head, tail) for head, tail in pairs],
            [types.entity_type(head.entity_type.name).id for head, _ in pairs],
            [types.entity_type(tail.entity_type.name).id for _, tail in pairs],
            params, config,
        )
        preds.extend(
            PairPrediction(i, (head.start, head.end), (tail.start, tail.end),
                           types.relations[k].name)
            for (head, tail), k in zip(pairs, np.argmax(probs, axis=1))
        )
    return preds


def evaluate_model(
    params: Params,
    config: ModelConfig,
    vocab: Vocabulary,
    types: TypeSystem,
    sentences: Sequence[AnnotatedSentence],
    re_mode: str = "gold",
    ontology: OntologySchema | None = None,
    ontology_filter: bool = False,
    confidence_floor: float = 0.0,
    max_len: int = 256,
) -> dict[str, MetricReport]:
    """NER and RE reports for one sentence set, from one encoding per
    sentence; decoding honours the config's ``bio_constrained_decode``.

    ``re_mode="gold"`` scores relation classification on the annotated
    pairs; ``re_mode="pipeline"`` runs the end-to-end extractor (decoded
    spans, enumerated pairs) and scores its positive triples.
    """
    allowed = decode_constraint(config, types.bio_labels)
    encodings: list[np.ndarray] = []
    predicted_labels: list[list[str]] = []
    for h, mask in encode_batches(params, vocab, [s.tokens for s in sentences]):
        predicted_labels.extend(predict_ner_labels(params, types, h, mask, allowed))
        encodings.extend(_unpad(h, mask))
    sentence_spans = [decode_spans(t, sentence_index=i) for i, t in enumerate(predicted_labels)]
    gold_label_seqs = [list(s.labels) for s in sentences]
    ner = ner_metrics(
        gold_spans(sentences), [span for spans in sentence_spans for span in spans],
        gold_label_seqs, predicted_labels,
    )

    if re_mode == "gold":
        predicted_pairs = predict_relations_gold_pairs(
            params, config, types, sentences, encodings, max_len=max_len
        )
    elif re_mode == "pipeline":
        from .extract import Extractor

        extractor = Extractor(
            params=params, config=config, vocab=vocab, types=types,
            ontology=ontology or OntologySchema.default(),
        )
        predicted_pairs = [
            PairPrediction(i, triple.head_span, triple.tail_span, triple.relation)
            for i, (sentence, h, spans) in enumerate(zip(sentences, encodings, sentence_spans))
            for triple in extractor.extract_tokens(
                sentence.tokens,
                sentence_index=i,
                ontology_filter=ontology_filter,
                confidence_floor=confidence_floor,
                spans=spans,
                h=h,
            ).triples
        ]
    else:
        raise ValueError(f"unknown re_mode {re_mode!r}")
    re = re_metrics(gold_pairs(sentences), predicted_pairs)
    return {"ner": ner, "re": re}


# ---------------------------------------------------------------------------
# Ablation harness
# ---------------------------------------------------------------------------

ABLATION_CONFIGS = (
    ("disabled", False, False),
    ("mask_only", True, False),
    ("type_only", False, True),
    ("enabled", True, True),
)


@dataclass
class AblationResult:
    reports: dict[str, dict[str, MetricReport]] = field(default_factory=dict)
    train_results: dict[str, TrainResult] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            name: {task: report.to_dict() for task, report in tasks.items()}
            for name, tasks in self.reports.items()
        }

    def to_table(self) -> str:
        header = (
            f"{'configuration':<18} {'mask':<5} {'type':<5} "
            f"{'NER P':>7} {'NER R':>7} {'NER F1':>7} {'RE P':>7} {'RE R':>7} {'RE F1':>7}"
        )
        lines = [header, "-" * len(header)]
        flags = {name: (m, t) for name, m, t in ABLATION_CONFIGS}
        for name, tasks in self.reports.items():
            mask, typ = flags[name]
            ner, re = tasks["ner"], tasks["re"]
            lines.append(
                f"{name:<18} {str(mask).lower():<5} {str(typ).lower():<5} "
                f"{ner.precision:>7.3f} {ner.recall:>7.3f} {ner.f1:>7.3f} "
                f"{re.precision:>7.3f} {re.recall:>7.3f} {re.f1:>7.3f}"
            )
        return "\n".join(lines)


def run_ablation(
    sentences: Sequence[AnnotatedSentence],
    types: TypeSystem,
    train_config: TrainConfig,
    model_kwargs: dict | None = None,
    eval_split: str = "test",
) -> AblationResult:
    """Train four models differing only in (use_entity_mask, use_entity_type)
    with shared seeds and data; report NER and RE metrics per configuration."""
    base_kwargs = dict(model_kwargs or {})
    result = AblationResult()
    for name, use_mask, use_type in ABLATION_CONFIGS:
        kwargs = dict(base_kwargs, use_entity_mask=use_mask, use_entity_type=use_type)
        trained = train_loop(sentences, types, train_config, model_kwargs=kwargs)
        train_s, val_s, test_s = split(
            sentences,
            (train_config.train_ratio, train_config.val_ratio, train_config.test_ratio),
            seed=train_config.effective_split_seed,
        )
        target = {"train": train_s, "val": val_s, "test": test_s}[eval_split]
        result.train_results[name] = trained
        result.reports[name] = evaluate_model(
            trained.best_params, trained.config, trained.vocab, types, target,
            re_mode="gold", max_len=train_config.max_len,
        )
    return result
