"""Metrics: span+type NER P/R/F1, triple-level RE P/R/F1, and the
expert-feature ablation harness.

An NER prediction counts only when (sentence, start, end, type) all match
a gold span. An RE prediction counts only when the (sentence, head span,
tail span, relation) quadruple matches; noRelation is a rejection class
and never enters the positive sets, but it does count toward accuracy.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .corpus import NO_RELATION, AnnotatedSentence, OntologySchema, TypeSystem
from .model import (
    InputProjection,
    ModelConfig,
    Params,
    decode_constraint,
    encode,
    ner_predict,
    score_pairs,
)
from .mslr import Batch, Vocabulary, sentence_rows
from .train import TrainConfig, TrainResult, train_loop


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
    total = ClassStats(len(gold_keys), len(pred_keys), len(correct))
    return MetricReport(
        precision=total.precision, recall=total.recall, f1=total.f1, accuracy=accuracy,
        per_class=per_class, gold_total=total.gold, predicted_total=total.predicted,
        correct_total=total.correct,
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


def gold_pair_report(
    types: TypeSystem, sentences: Sequence[AnnotatedSentence], gold: np.ndarray,
    predicted: np.ndarray,
) -> MetricReport:
    """``re_metrics(gold_pairs(sentences), predictions)``, counted from
    relation ids (``types.relations`` order) for predictions that classify
    some annotated pairs of ``sentences``, those with ids ``gold``, as
    ``predicted``. The other annotated pairs (those of skipped sentences)
    count as gold misses. Every relation name must be in ``types``, and no
    two annotated pairs of a sentence may share their spans (a loaded
    corpus and ``mslr.sentence_rows`` ensure both)."""
    n = types.num_relations
    annotated = Counter(r.relation.name for s in sentences for r in s.relations)
    n_predicted = np.bincount(predicted, minlength=n)
    n_correct = np.bincount(predicted[predicted == gold], minlength=n)
    per_class = {
        rel.name: ClassStats(annotated[rel.name], int(n_predicted[k]), int(n_correct[k]))
        for k, rel in enumerate(types.relations)
        if not rel.is_no_relation and (annotated[rel.name] or n_predicted[k])
    }
    total = ClassStats(sum(c.gold for c in per_class.values()),
                       sum(c.predicted for c in per_class.values()),
                       sum(c.correct for c in per_class.values()))
    n_annotated = sum(annotated.values())
    return MetricReport(
        precision=total.precision, recall=total.recall, f1=total.f1,
        accuracy=int(n_correct.sum()) / n_annotated if n_annotated else 0.0,
        per_class=per_class, gold_total=total.gold, predicted_total=total.predicted,
        correct_total=total.correct,
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


ENCODE_CELLS = 2048  # padded (sentence, step) cells per encoder chunk


def encode_batches(params: Params, token_ids: Sequence[Sequence[int]],
                   projection: InputProjection | None = None):
    """Yield (h (B, T, 2h), mask (B, T)) for consecutive chunks of
    ``token_ids``, in order: one deterministic encoder pass per sentence,
    padded to the chunk's longest. A chunk takes sentences while B * T
    stays within ``ENCODE_CELLS``, and always takes at least one, so a
    sentence longer than the budget is a chunk of its own. Few, full chunks
    mean few walks of the recurrence, each on many rows; the budget also
    bounds a chunk's arrays. At 768/256, 32 sentences of 256 tokens in one
    chunk gather (2, 8192, 768) float64 gate pre-activations, 100 MB; under
    2048 cells they are at most (2, 2048, 768), 25 MB. Extraction,
    validation and ``evaluate_model`` each consume a chunk before they ask
    for the next, so they hold one chunk's encoding at a time. Every chunk
    reads one ``projection`` of ``params`` (a new one when none is given),
    so a token id repeated across the sentences has its input
    pre-activations computed once."""
    if projection is None:
        projection = InputProjection(params)
    lo = 0
    while lo < len(token_ids):
        hi, longest = lo + 1, len(token_ids[lo])
        while hi < len(token_ids) and (
                (hi + 1 - lo) * max(longest, len(token_ids[hi])) <= ENCODE_CELLS):
            longest = max(longest, len(token_ids[hi]))
            hi += 1
        ids = np.zeros((hi - lo, longest), dtype=np.int64)
        mask = np.zeros(ids.shape)
        for b, seq in enumerate(token_ids[lo:hi]):
            ids[b, : len(seq)] = seq
            mask[b, : len(seq)] = 1.0
        yield encode(ids, mask, params, projection), mask
        lo = hi


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


def predict_relations_gold_pairs(
    params: Params,
    config: ModelConfig,
    rows: Batch,
    h: np.ndarray,
    mask: np.ndarray,
    chunk_rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Classify the annotated entity pairs of one encoder chunk using gold
    spans and gold types as features. ``rows`` is a ``Batch.sentence_range``
    of the ``mslr.sentence_rows`` table, the rows training reads; its
    sentence u is row ``chunk_rows[u]`` of ``(h, mask)``, one chunk
    ``encode_batches`` yields. The rows are scored in one
    ``model.score_pairs`` call.

    Returns the (gold, predicted) relation ids of the rows, in sentence and
    relation order (``gold_pair_report`` counts them)."""
    if not rows.size:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    probs = score_pairs(h, mask, chunk_rows[rows.span_rows], rows.spans, rows.head, rows.tail,
                        rows.head_type, rows.tail_type, params, config).probs
    return rows.relation_label, np.argmax(probs, axis=1)


def check_confidence_floor(value: float) -> float:
    """``value``, if it is a number in [0, 1]; else ``ValueError``. NaN is
    rejected too: ``confidence < nan`` is always False, so it would keep
    every pair."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
        raise ValueError(f"confidence floor must be a number in [0, 1], got {value!r}")
    return value


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
    One pass over ``encode_batches``: each chunk is NER-decoded, then
    RE-scored, and released before the next is encoded, so evaluation
    holds one chunk's encoding at a time.

    ``re_mode="gold"`` scores relation classification on the annotated
    pairs; ``re_mode="pipeline"`` runs the end-to-end extractor (decoded
    spans, enumerated pairs) and scores its positive triples.
    ``confidence_floor`` must lie in [0, 1] (``check_confidence_floor``).
    ``ontology_filter`` and ``confidence_floor`` act on the pipeline's
    enumerated pairs only, so gold mode rejects them. Arguments, and in gold
    mode the pairs' rows (``mslr.sentence_rows``, of ``types`` ids), are
    checked before anything is encoded.
    """
    if re_mode not in ("gold", "pipeline"):
        raise ValueError(f"unknown re_mode {re_mode!r}")
    check_confidence_floor(confidence_floor)
    if re_mode == "gold" and (ontology_filter or confidence_floor):
        raise ValueError("ontology_filter and confidence_floor need re_mode='pipeline'")
    allowed = decode_constraint(config, types.bio_labels)
    if re_mode == "pipeline":
        from .extract import Extractor  # extract imports this module
        extractor = Extractor(params=params, config=config, vocab=vocab, types=types,
                              ontology=ontology or OntologySchema.default())
    token_ids = [vocab.ids(s.tokens) for s in sentences]
    if re_mode == "gold":
        rows = sentence_rows(sentences, token_ids, range(len(sentences)), types, max_len)[0]
        records = rows.records
    labels, spans, pairs, ids = [], [], [], [(np.zeros(0, dtype=np.int64),) * 2]
    first = 0
    for h, mask in encode_batches(params, token_ids):
        tags = predict_ner_labels(params, types, h, mask, allowed)
        chunk_spans = [decode_spans(t, sentence_index=first + b) for b, t in enumerate(tags)]
        labels += tags
        spans += [span for row in chunk_spans for span in row]
        if re_mode == "gold":
            lo, hi = np.searchsorted(records, (first, first + len(h))).tolist()
            ids.append(predict_relations_gold_pairs(params, config, rows.sentence_range(lo, hi),
                                                    h, mask, records[lo:hi] - first))
        else:
            pairs += [PairPrediction(t.sentence_index, t.head_span, t.tail_span, t.relation)
                      for result in extractor.score_chunk(
                          h, mask, [s.tokens for s in sentences[first:first + len(h)]],
                          chunk_spans, first, ontology_filter, confidence_floor)
                      for t in result.triples]
        first += len(h)
    ner = ner_metrics(gold_spans(sentences), spans, [s.labels for s in sentences], labels)
    re = (gold_pair_report(types, sentences, *map(np.concatenate, zip(*ids)))
          if re_mode == "gold" else re_metrics(gold_pairs(sentences), pairs))
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
) -> AblationResult:
    """Train four models differing only in (use_entity_mask, use_entity_type)
    with shared seeds and data; report NER and RE metrics per configuration
    on the test split."""
    base_kwargs = dict(model_kwargs or {})
    result = AblationResult()
    test_s = train_config.split(sentences)[2]
    for name, use_mask, use_type in ABLATION_CONFIGS:
        kwargs = dict(base_kwargs, use_entity_mask=use_mask, use_entity_type=use_type)
        trained = train_loop(sentences, types, train_config, model_kwargs=kwargs)
        result.train_results[name] = trained
        result.reports[name] = evaluate_model(
            trained.best_params, trained.config, trained.vocab, types, test_s,
            re_mode="gold", max_len=train_config.max_len,
        )
    return result
