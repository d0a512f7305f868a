"""Seeded corpus generator and the three workload definitions.

Sentences come from the template pools of ``tools/make_fixtures.py``
(imported, not copied), so the benchmark corpora have the same shape as
the frozen test fixtures:

* sparse: one template clause per sentence, 6-13 tokens, 3-4 entities and
  2-5 labelled pairs (the ``smoke_corpus`` shape);
* dense: two template clauses joined into one sentence, 6-8 entities and
  every ordered pair labelled, the unlisted ones as ``noRelation`` (the
  ``use_case_corpus`` shape).

Templates cycle in a fixed order and the seed draws the entity surfaces,
so every seed gives the same mix of sentence shapes; the same seed always
gives the same records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import make_fixtures as fixtures


@dataclass(frozen=True)
class Workload:
    name: str
    shape: str               # "sparse" or "dense"
    n_sentences: int
    epochs: int
    learning_rate: float
    model_kwargs: dict
    ner_f1_floor: float
    re_f1_floor: float
    # Gauge kernel (gauge.py): scans per run, and its duration on the
    # unloaded 2-vCPU Xeon guest the benchmark was written on.
    gauge_scans: int
    gauge_nominal_s: float


# Why each workload exists, and its traced layer split, is in
# BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="small-sparse",
            shape="sparse",
            n_sentences=64,
            epochs=14,
            learning_rate=0.01,
            model_kwargs=dict(embed_dim=32, hidden_dim=16, dropout=0.0),
            ner_f1_floor=0.9,
            re_f1_floor=0.9,
            gauge_scans=4,
            gauge_nominal_s=0.003,
        ),
        Workload(
            name="small-dense",
            shape="dense",
            n_sentences=16,
            epochs=8,
            learning_rate=0.025,
            model_kwargs=dict(embed_dim=32, hidden_dim=16, dropout=0.0),
            ner_f1_floor=0.85,
            re_f1_floor=0.5,
            gauge_scans=4,
            gauge_nominal_s=0.003,
        ),
        Workload(
            name="paper-sparse",
            shape="sparse",
            n_sentences=40,
            epochs=6,
            learning_rate=0.002,
            model_kwargs=dict(embed_dim=768, hidden_dim=256, dropout=0.3),
            ner_f1_floor=0.85,
            re_f1_floor=0.85,
            gauge_scans=2,
            gauge_nominal_s=0.015,
        ),
    )
}


def _clause(k: int, rng: np.random.Generator) -> dict:
    return fixtures.fill_template(*fixtures.TEMPLATES[k % len(fixtures.TEMPLATES)], rng)


def _positives(record: dict, offset: int = 0) -> list[tuple[int, str, int]]:
    return [
        (h + offset, r, t + offset)
        for h, r, t in record["relations"]
        if r != "noRelation"
    ]


def _dense_record(k: int, rng: np.random.Generator) -> dict:
    """Two different clauses joined by ", and"; every unlisted ordered pair
    is noRelation."""
    n_templates = len(fixtures.TEMPLATES)
    first = _clause(k, rng)
    second = _clause(k + 1 + (k // n_templates) % (n_templates - 1), rng)
    head_tokens = first["text"].split()[:-1] + [",", "and"]
    tokens = head_tokens + second["text"].split()
    spans = [tuple(e) for e in first["entities"]]
    spans += [(s + len(head_tokens), e + len(head_tokens), n) for s, e, n in second["entities"]]
    positives = _positives(first) + _positives(second, offset=len(first["entities"]))
    return fixtures.record(tokens, spans, positives)


def make_records(shape: str, count: int, rng: np.random.Generator) -> list[dict]:
    """Templates cycle in a fixed order, as in ``smoke_corpus``; the
    generator only draws the entity surfaces."""
    if shape == "sparse":
        return [_clause(k, rng) for k in range(count)]
    if shape == "dense":
        return [_dense_record(k, rng) for k in range(count)]
    raise ValueError(f"unknown sentence shape {shape!r}")


def generate(workload: Workload, seed: int) -> list[dict]:
    """The annotated corpus records for one seed."""
    return make_records(workload.shape, workload.n_sentences, np.random.default_rng(seed))
