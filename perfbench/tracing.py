"""Span tracer that wraps ctie's public functions from outside the package.

Modules bind imported names at import time (``ctie.train`` holds its own
reference to ``forward``), so ``install`` replaces every reference to a
wrapped function in every loaded ``ctie`` module, and methods on their
class. Spans (name, start, end, parent, phase) stay in memory; ``save``
writes them out when the run ends and ``layer_metrics`` reduces them to
the per-layer metrics named in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from contextlib import contextmanager
from time import perf_counter

# Span record fields. IN_STEP marks spans inside a training step (a
# train-mode forward or a backward), where log-partition calls are counted.
NAME, START, END, PARENT, PHASE, IN_STEP, INFO = range(7)

PHASES = ("setup", "train", "eval", "extract")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.phase = "setup"

    def open(self, name: str, info: dict | None = None, step: bool = False) -> int:
        parent = self._stack[-1] if self._stack else -1
        in_step = step or (parent >= 0 and self.spans[parent][IN_STEP])
        idx = len(self.spans)
        span = [name, 0.0, 0.0, parent, self.phase, in_step, info]
        self.spans.append(span)
        self._stack.append(idx)
        span[START] = perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][NAME]} closed out of order")

    @contextmanager
    def phase_span(self, phase: str):
        """Root span of one benchmark phase; everything opened inside it
        is attributed to ``phase``."""
        self.phase = phase
        idx = self.open(f"bench.{phase}")
        try:
            yield
        finally:
            self.close(idx)

    def save(self, path) -> None:
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "fields": ["name", "start", "end", "parent", "phase"],
            "names": names,
            "spans": [
                [index[s[NAME]], s[START], s[END], s[PARENT], s[PHASE]] for s in self.spans
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------------------------
# What gets wrapped
# ---------------------------------------------------------------------------


def _batch_info(a: dict) -> dict:
    batch = a["batch"]
    return {"rows": batch.size, "tokens": int(batch.lengths.sum())}


def _bigru_info(a: dict) -> dict:
    mask = a["attention_mask"]
    rows = 1 if getattr(mask, "ndim", 1) == 1 else mask.shape[0]
    return {"rows": rows, "tokens": int(mask.sum())}


def _extract_info(result) -> dict:
    n = len(result.spans)
    return {
        "spans": n,
        "pairs_enumerated": n * (n - 1),
        "pairs_classified": len(result.triples) + len(result.dropped),
        "triples_kept": len(result.triples),
    }


# (module, attribute, layer, info from bound arguments, info from result,
#  is a training step)
WRAPPED = (
    ("ctie.corpus", "load_corpus", "corpus", None, None, None),
    ("ctie.mslr", "expand", "mslr", None, lambda r: {"rows": len(r)}, None),
    ("ctie.mslr", "encode_all", "mslr", None, None, None),
    ("ctie.mslr", "make_batches", "mslr", None, None, None),
    ("ctie.crf", "crf_nll", "crf", None, None, None),
    ("ctie.crf", "crf_nll_grad", "crf", None, None, None),
    ("ctie.crf", "crf_decode", "crf", None, None, None),
    ("ctie.crf", "crf_log_partition", "crf", None, None, None),
    ("ctie.crf", "crf_marginals", "crf", None, None, None),
    ("ctie.model", "forward", "model", _batch_info, None,
     lambda a: a.get("mode", "train") == "train"),
    ("ctie.model", "backward", "model", lambda a: {"rows": a["trace"].batch.size}, None,
     lambda a: True),
    ("ctie.model", "bigru", "model", _bigru_info, None, None),
    ("ctie.model", "ner_predict", "model", None, None, None),
    ("ctie.train", "train_loop", "train", None, None, None),
    ("ctie.train", "adamw_step", "train", None, None, None),
    ("ctie.train", "evaluate_split", "train", None, None, None),
    ("ctie.evaluation", "evaluate_model", "evaluation", None, None, None),
    ("ctie.evaluation", "predict_ner_labels", "evaluation", None, None, None),
    ("ctie.evaluation", "predict_relations_gold_pairs", "evaluation", None, None, None),
    ("ctie.extract", "Extractor.extract_text", "extract", None, None, None),
    ("ctie.extract", "Extractor.extract_tokens", "extract", None, _extract_info, None),
    ("ctie.extract", "Extractor.decode_entities", "extract", None, None, None),
)


def _wrap(tracer: Tracer, fn, span_name: str, before, after, step):
    signature = inspect.signature(fn) if before or step else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        info, is_step = None, False
        if signature is not None:
            bound = signature.bind(*args, **kwargs).arguments
            info = before(bound) if before else None
            is_step = bool(step(bound)) if step else False
        idx = tracer.open(span_name, info, is_step)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            tracer.spans[idx][INFO] = dict(info or {}, **after(result))
        return result
    return wrapper


@contextmanager
def install(tracer: Tracer):
    """Wrap every function in ``WRAPPED`` wherever a ctie module bound it;
    restore the originals on exit."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "ctie" or name.startswith("ctie."))]
    undo: list[tuple[object, str, object]] = []
    try:
        for module_name, attr, layer, before, after, step in WRAPPED:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                span_name = f"{layer}.{meth}"
                undo.append((cls, meth, original))
                setattr(cls, meth, _wrap(tracer, original, span_name, before, after, step))
                continue
            original = getattr(owner, attr)
            wrapped = _wrap(tracer, original, f"{layer}.{attr}", before, after, step)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, name, original))
                        setattr(module, name, wrapped)
        yield tracer
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)


# ---------------------------------------------------------------------------
# Reduction to per-layer metrics
# ---------------------------------------------------------------------------

def _stat(phases, layer, fn, stats, unit, better):
    return [(f"{p}.{layer}.{fn}.{s}", unit, better) for p in phases for s in stats]


# (name, unit, better) for every per-layer metric, in report order.
PER_LAYER = (
    _stat(["setup"], "corpus", "load_corpus", ["s"], "s", "lower")
    + _stat(["train", "eval"], "mslr", "expand", ["s"], "s", "lower")
    + _stat(["train", "eval"], "mslr", "encode_all", ["s"], "s", "lower")
    + _stat(["train"], "mslr", "make_batches", ["s"], "s", "lower")
    + [("train.mslr.rows", "count", "higher"),
       ("train.mslr.rows_per_sentence", "ratio", "higher"),
       ("train.mslr.sentences_without_rows", "count", "lower")]
    + _stat(["train", "eval"], "crf", "crf_nll", ["calls"], "count", "lower")
    + _stat(["train", "eval"], "crf", "crf_nll", ["s"], "s", "lower")
    + _stat(["train"], "crf", "crf_nll_grad", ["calls"], "count", "lower")
    + _stat(["train"], "crf", "crf_nll_grad", ["s"], "s", "lower")
    + _stat(["train", "eval", "extract"], "crf", "crf_decode", ["calls"], "count", "lower")
    + _stat(["train", "eval", "extract"], "crf", "crf_decode", ["s"], "s", "lower")
    + [("train.crf.logz_per_row", "ratio", "lower"),
       ("eval.crf.decode_useful_ratio", "ratio", "higher"),
       ("extract.crf.decode_useful_ratio", "ratio", "higher")]
    + _stat(["train", "eval", "extract"], "model", "forward", ["calls", "rows"], "count", "lower")
    + _stat(["train", "eval", "extract"], "model", "forward", ["self_s"], "s", "lower")
    + _stat(["train", "eval", "extract"], "model", "bigru", ["calls", "rows", "tokens"],
            "count", "lower")
    + _stat(["train", "eval", "extract"], "model", "bigru", ["s"], "s", "lower")
    + [("train.model.backward.self_s", "s", "lower")]
    + _stat(["eval", "extract"], "model", "ner_predict", ["s"], "s", "lower")
    + [("eval.model.bigru_rows_per_sentence", "ratio", "lower"),
       ("extract.model.bigru_rows_per_sentence", "ratio", "lower")]
    + [("train.train.adamw_step.calls", "count", "lower"),
       ("train.train.adamw_step.s", "s", "lower"),
       ("train.train.evaluate_split.s", "s", "lower")]
    + [("eval.evaluation.predict_ner_labels.s", "s", "lower"),
       ("eval.evaluation.predict_relations_gold_pairs.s", "s", "lower")]
    + [("extract.extract.decode_entities.s", "s", "lower"),
       ("extract.extract.extract_tokens.calls", "count", "lower"),
       ("extract.extract.extract_tokens.s", "s", "lower"),
       ("extract.extract.spans", "count", "higher"),
       ("extract.extract.pairs_enumerated", "count", "lower"),
       ("extract.extract.pairs_classified", "count", "lower"),
       ("extract.extract.triples_kept", "count", "higher")]
    + _stat(PHASES, "trace", "phase", ["coverage"], "ratio", "higher")
    + _stat(PHASES, "trace", "phase", ["overhead_s"], "s", "lower")
)


def aggregate(spans: list[list]) -> dict[tuple[str, str], dict]:
    """Per (phase, span name): calls, inclusive s, self s, summed info counts,
    and the number of log-partition computations inside training steps."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    table: dict[tuple[str, str], dict] = {}
    for span, child in zip(spans, covered):
        key = (span[PHASE], span[NAME])
        row = table.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0, "in_step": 0})
        dur = span[END] - span[START]
        row["calls"] += 1
        row["s"] += dur
        row["self_s"] += dur - child
        row["in_step"] += bool(span[IN_STEP])
        for k, v in (span[INFO] or {}).items():
            row[k] = row.get(k, 0) + v
    return table


def top_level_coverage(spans: list[list], phase: str) -> float:
    """Share of the phase's wall time covered by the phase root's children."""
    roots = [i for i, s in enumerate(spans) if s[NAME] == f"bench.{phase}"]
    wall = sum(spans[i][END] - spans[i][START] for i in roots)
    root_set = set(roots)
    inside = sum(s[END] - s[START] for s in spans if s[PARENT] in root_set)
    return inside / wall if wall > 0 else 0.0


def layer_metrics(spans: list[list], sentences: dict[str, int],
                  overhead_s: dict[str, float]) -> dict[str, float]:
    """Every ``PER_LAYER`` metric. ``sentences`` maps eval/extract to the
    number of sentences those phases processed."""
    table = aggregate(spans)

    def get(phase, name, stat):
        return table.get((phase, name), {}).get(stat, 0)

    out: dict[str, float] = {}
    for metric, _unit, _better in PER_LAYER:
        parts = metric.split(".")
        if len(parts) == 4 and parts[1] != "trace":
            phase, layer, fn, stat = parts
            out[metric] = get(phase, f"{layer}.{fn}", stat)

    expands = table.get(("train", "mslr.expand"), {})
    rows = expands.get("rows", 0)
    out["train.mslr.rows"] = rows
    out["train.mslr.rows_per_sentence"] = rows / expands["calls"] if expands else 0.0
    out["train.mslr.sentences_without_rows"] = sum(
        1 for s in spans
        if s[PHASE] == "train" and s[NAME] == "mslr.expand" and s[INFO]["rows"] == 0
    )
    logz = get("train", "crf.crf_log_partition", "in_step") + get(
        "train", "crf.crf_marginals", "in_step")
    trained_rows = sum(
        s[INFO]["rows"] for s in spans
        if s[PHASE] == "train" and s[NAME] == "model.forward" and s[IN_STEP]
    )
    out["train.crf.logz_per_row"] = logz / trained_rows if trained_rows else 0.0
    for phase in ("eval", "extract"):
        decodes = get(phase, "crf.crf_decode", "calls")
        out[f"{phase}.crf.decode_useful_ratio"] = (
            sentences[phase] / decodes if decodes else 0.0)
        out[f"{phase}.model.bigru_rows_per_sentence"] = (
            get(phase, "model.bigru", "rows") / sentences[phase])
    for key in ("spans", "pairs_enumerated", "pairs_classified", "triples_kept"):
        out[f"extract.extract.{key}"] = get("extract", "extract.extract_tokens", key)
    for phase in PHASES:
        out[f"{phase}.trace.phase.coverage"] = top_level_coverage(spans, phase)
    for phase in PHASES:
        out[f"{phase}.trace.phase.overhead_s"] = overhead_s[phase]
    return out
