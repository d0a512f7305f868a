#!/usr/bin/env python3
"""ctie benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload small-sparse --seed 1 --seconds 25 --trace 0

Load model: one process, one closed-loop client, no threads beyond BLAS
(capped at the number of usable cores through the environment, before
numpy loads). A run has three parts:

* set-up, made SETUP_REPEATS times (median reported), the first before
  anything else and the rest at even intervals through the timed units:
  generate the corpus from the seed, write it as JSON,
  ``validate_records`` (must find zero issues), ``load_corpus``, and one
  untimed warm-up pass of training, evaluation and extraction on the
  first WARM_SENTENCES sentences;
* the model: one ``train_loop`` call with the workload's epochs, whose
  parameters the eval and extract units use, and an untimed reference
  extraction pass that every timed extraction must reproduce;
* timed units, interleaved for --seconds after the model is trained:
  train (one ``train_loop`` call of TIMED_EPOCHS epochs), eval (one
  ``evaluate_model(re_mode="gold")`` call over the whole corpus) and
  extract (one pass over the corpus texts, one
  ``Extractor.extract_text`` call each, as ``ctie extract
  --ontology-filter --confidence-floor 0.5`` runs them). The scheduler
  always runs the phase furthest below its share of the time, so every
  phase is sampled across the whole run and the machine's slow and fast
  spells hit all of them alike. A machine-speed gauge (``gauge.py``)
  runs between units; every duration is scaled to the nominal machine
  speed (``corrected``) and the metrics are medians over the run.

The last line of stdout is the JSON result. With ``--trace 0`` it holds
the end-to-end metrics. With ``--trace 1`` the run is made twice,
untraced and then traced with the same unit schedule, and it holds the
per-layer metrics and the tracing overhead. Machine facts, work counts
and the span file go to stderr and ``perfbench/out/``.

Exit status: 0 when every output is correct, 1 when the correctness gate
fails, 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

SETUP_REPEATS = 5
WARM_SENTENCES = 4
TIMED_EPOCHS = 1
SHARES = {"train": 0.5, "eval": 0.25, "extract": 0.25}
MIN_UNITS = {"train": 4, "eval": 4, "extract": 8}
UNIT_PHASES = ("setup", "train", "eval", "extract")
CONFIDENCE_FLOOR = 0.5
MIN_COVERAGE = 0.9

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_rows_per_s": "rows/s",
    "train_joint_loss": "nats",
    "eval_pairs_per_s": "pairs/s",
    "ner_f1": "ratio",
    "re_f1": "ratio",
    "extract_sentences_per_s": "sentences/s",
    "extract_sentence_ms_p50": "ms",
    "extract_sentence_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def cap_blas_threads() -> int:
    """Cap BLAS/OpenMP pools at the usable core count; must run before
    numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        cap = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(cap)
    return nproc


def blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, when it exports one."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_facts(nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
        "system": platform.system(),
    }


@dataclass
class Run:
    """Measurements and checks of one set-up plus its timed units."""

    setup_s: list[float] = field(default_factory=list)
    model_train_s: float = 0.0
    train_s: list[float] = field(default_factory=list)
    eval_s: list[float] = field(default_factory=list)
    pass_latencies_s: list[list[float]] = field(default_factory=list)
    # Gauge factor of each unit, per phase, in the order of its durations.
    scale: dict = field(default_factory=lambda: {p: [] for p in UNIT_PHASES})
    gauge_s: list[float] = field(default_factory=list)
    schedule: list[str] = field(default_factory=list)
    rows_per_call: int = 0
    steps_per_call: int = 0
    gold_pairs: int = 0
    n_sentences: int = 0
    train_log: list | None = None
    reports: dict | None = None
    reference: list | None = None
    train_joint_loss: float = math.nan
    ner_f1: float = math.nan
    re_f1: float = math.nan
    counts: dict = field(default_factory=dict)
    phase_wall_s: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    gate: list[str] = field(default_factory=list)

    def attempt(self, what: str, fn, *args, **kwargs):
        """Call fn; a raised error is counted as a failed operation."""
        try:
            return fn(*args, **kwargs)
        except Exception:  # the harness keeps going and reports the failure
            self.failed += 1
            self.check(False, f"{what} raised")
            log(traceback.format_exc())
            return None

    def check(self, ok: bool, message: str) -> None:
        if not ok and message not in self.gate:
            self.gate.append(message)


@contextmanager
def span(tracer, name: str):
    if tracer is None:
        yield
        return
    idx = tracer.open(name)
    try:
        yield
    finally:
        tracer.close(idx)


class Bench:
    """One workload on one seed: set-up, the model the eval and extract
    phases use, and the timed units the scheduler interleaves."""

    def __init__(self, ctie, workloads, wl, seed: int, tracer=None):
        self.ctie, self.workloads, self.wl, self.seed = ctie, workloads, wl, seed
        self.tracer = tracer
        self.run = Run()
        self.ontology = ctie.OntologySchema.default()
        from gauge import Gauge  # imports numpy: only after cap_blas_threads

        self.gauge = Gauge(wl.model_kwargs["embed_dim"], wl.model_kwargs["hidden_dim"],
                           wl.gauge_scans, wl.gauge_nominal_s)
        self.doc = None

    @contextmanager
    def phase(self, name: str):
        start = perf_counter()
        with self.tracer.phase_span(name) if self.tracer is not None else nullcontext():
            yield
        wall = self.run.phase_wall_s
        wall[name] = wall.get(name, 0.0) + perf_counter() - start

    def read_gauge(self) -> float:
        self.run.gauge_s.append(self.gauge())
        return self.run.gauge_s[-1]

    def gauged(self, name: str, unit, before: float):
        """Run one unit of phase ``name`` after a gauge run that took
        ``before`` seconds, run the gauge again and record the factor that
        scales the unit's duration to the nominal machine speed. Returns
        the unit's result and the second gauge time."""
        with self.phase(name):
            result = unit()
        after = self.read_gauge()
        self.run.scale[name].append(self.gauge.scale(before, after))
        return result, after

    def extract(self, i: int):
        return self.run.attempt(
            "extract_text", self.extractor.extract_text, self.texts[i], sentence_index=i,
            ontology_filter=True, confidence_floor=CONFIDENCE_FLOOR)

    # -- set-up ----------------------------------------------------------

    def warm_up(self, corpus, texts) -> None:
        """One small untimed pass of every phase, so lazy set-up, first-touch
        allocation and BLAS thread start-up are paid before timing."""
        ctie, wl = self.ctie, self.wl
        sentences = corpus.sentences[:WARM_SENTENCES]
        config = ctie.TrainConfig(epochs=1, learning_rate=wl.learning_rate)
        trained = ctie.train_loop(sentences, corpus.types, config,
                                  model_kwargs=wl.model_kwargs)
        ctie.evaluate_model(trained.params, trained.config, trained.vocab, corpus.types,
                            sentences, re_mode="gold")
        extractor = ctie.Extractor(params=trained.params, config=trained.config,
                                   vocab=trained.vocab, types=corpus.types,
                                   ontology=self.ontology)
        for i, text in enumerate(texts[:WARM_SENTENCES]):
            extractor.extract_text(text, sentence_index=i, ontology_filter=True,
                                   confidence_floor=CONFIDENCE_FLOOR)

    def setup_unit(self):
        """One set-up: generate the corpus, write it, ``validate_records``,
        ``load_corpus`` and the warm-up pass."""
        run, ctie = self.run, self.ctie
        corpus_path = OUT_DIR / f"{self.wl.name}-seed{self.seed}-corpus.json"
        started = perf_counter()
        with span(self.tracer, "bench.generate"):
            records = self.workloads.generate(self.wl, self.seed)
            texts = [record["text"] for record in records]
            doc = json.dumps(records)
            corpus_path.write_text(doc, encoding="utf-8")
        with span(self.tracer, "bench.validate"):
            issues = ctie.corpus.validate_records(corpus_path, self.ontology)
        corpus = ctie.load_corpus(corpus_path, self.ontology)
        run.attempt("warm-up", self.warm_up, corpus, texts)
        run.setup_s.append(perf_counter() - started)
        run.check(not issues, f"generated corpus has {len(issues)} issues: "
                              f"{issues[0] if issues else ''}")
        run.check(self.doc in (None, doc), "corpus generation is not deterministic")
        self.doc = doc
        return corpus, texts

    def set_up(self) -> None:
        """The first set-up; ``run_units`` spreads the others over the run."""
        run, ctie = self.run, self.ctie
        (corpus, texts), _ = self.gauged("setup", self.setup_unit, self.read_gauge())
        self.corpus, self.texts = corpus, texts
        run.n_sentences = len(corpus.sentences)
        run.gold_pairs = sum(len(s.relations) for s in corpus.sentences)
        config = ctie.TrainConfig(epochs=TIMED_EPOCHS, learning_rate=self.wl.learning_rate)
        train_split = ctie.split(
            corpus.sentences, (config.train_ratio, config.val_ratio, config.test_ratio),
            seed=config.effective_split_seed,
        )[0]
        rows_per_epoch = sum(len(s.relations) for s in train_split)
        run.rows_per_call = rows_per_epoch * TIMED_EPOCHS
        run.steps_per_call = TIMED_EPOCHS * math.ceil(rows_per_epoch / config.batch_size)

    def train_model(self) -> bool:
        """The workload's full training; eval and extract use its model, and
        an untimed reference extraction pass records what it must emit."""
        ctie, run, wl = self.ctie, self.run, self.wl
        config = ctie.TrainConfig(epochs=wl.epochs, learning_rate=wl.learning_rate)
        with self.phase("train"):
            started = perf_counter()
            trained = run.attempt("train_loop", ctie.train_loop, self.corpus.sentences,
                                  self.corpus.types, config, model_kwargs=wl.model_kwargs)
            run.model_train_s = perf_counter() - started
        model_steps = run.steps_per_call // TIMED_EPOCHS * wl.epochs
        run.attempted += model_steps
        if trained is None:
            run.failed += model_steps - 1
            return False
        self.model = (trained.params, trained.config, trained.vocab, self.corpus.types)
        self.extractor = ctie.Extractor(params=trained.params, config=trained.config,
                                        vocab=trained.vocab, types=self.corpus.types,
                                        ontology=self.ontology)
        with self.phase("extract"):
            run.reference = [self.extract(i) for i in range(len(self.texts))]
        run.attempted += len(self.texts)
        return True

    # -- timed units -----------------------------------------------------

    def train_unit(self) -> None:
        ctie, run = self.ctie, self.run
        config = ctie.TrainConfig(epochs=TIMED_EPOCHS, learning_rate=self.wl.learning_rate)
        started = perf_counter()
        trained = run.attempt("train_loop", ctie.train_loop, self.corpus.sentences,
                              self.corpus.types, config, model_kwargs=self.wl.model_kwargs)
        run.train_s.append(perf_counter() - started)
        run.attempted += run.steps_per_call
        if trained is None:
            run.failed += run.steps_per_call - 1
            return
        losses = trained.log.rows()
        if run.train_log is None:
            run.train_log = losses
            run.train_joint_loss = trained.log.entries[-1].train_joint_loss
        run.check(all(math.isfinite(v) for *_key, v in losses),
                  "non-finite loss in the training log")
        run.check(losses == run.train_log, "train_loop is not deterministic")

    def eval_unit(self) -> None:
        run = self.run
        started = perf_counter()
        reports = run.attempt("evaluate_model", self.ctie.evaluate_model, *self.model,
                              self.corpus.sentences, re_mode="gold")
        run.eval_s.append(perf_counter() - started)
        run.attempted += run.gold_pairs
        if reports is None:
            run.failed += run.gold_pairs - 1
            return
        scored = {task: r.to_dict() for task, r in reports.items()}
        if run.reports is None:
            run.reports = scored
            run.ner_f1, run.re_f1 = reports["ner"].f1, reports["re"].f1
        run.check(scored == run.reports, "evaluate_model is not deterministic")

    def extract_unit(self) -> None:
        """One pass over the extraction texts, one call each, so every
        unit does the same work."""
        run = self.run
        latencies = []
        for i in range(len(self.texts)):
            started = perf_counter()
            result = self.extract(i)
            latencies.append(perf_counter() - started)
            run.check(result == run.reference[i],
                      "an extraction output differs from the reference pass")
        run.pass_latencies_s.append(latencies)
        run.attempted += len(self.texts)

    def run_units(self, seconds: float, started: float, schedule: list[str] | None) -> None:
        """Interleave the timed units until ``seconds`` have passed since
        ``started``, always running the phase furthest below its share of
        the time, and the remaining set-ups at even intervals, so every
        metric is sampled across the whole run; or replay ``schedule``."""
        units = {"setup": self.setup_unit, "train": self.train_unit,
                 "eval": self.eval_unit, "extract": self.extract_unit}
        spent = dict.fromkeys(units, 0.0)
        done = dict.fromkeys(units, 0)
        gauge_s = self.read_gauge()
        for step in range(len(schedule) if schedule is not None else sys.maxsize):
            elapsed = perf_counter() - started
            setups = len(self.run.setup_s)
            if schedule is not None:
                name = schedule[step]
            elif setups < SETUP_REPEATS and elapsed >= seconds * setups / SETUP_REPEATS:
                name = "setup"
            elif elapsed >= seconds and all(done[p] >= MIN_UNITS[p] for p in SHARES):
                break
            else:
                name = min(SHARES, key=lambda p: (done[p] >= MIN_UNITS[p],
                                                  spent[p] / SHARES[p]))
            unit_started = perf_counter()
            _, gauge_s = self.gauged(name, units[name], gauge_s)
            spent[name] += perf_counter() - unit_started
            done[name] += 1
            self.run.schedule.append(name)

    def finish_checks(self) -> None:
        run, wl = self.run, self.wl
        run.check(run.ner_f1 >= wl.ner_f1_floor,
                  f"ner_f1 {run.ner_f1:.4f} below floor {wl.ner_f1_floor}")
        run.check(run.re_f1 >= wl.re_f1_floor,
                  f"re_f1 {run.re_f1:.4f} below floor {wl.re_f1_floor}")
        done = [r for r in run.reference if r is not None]
        inadmissible = [t for r in done for t in r.triples
                        if not self.ontology.admits(t.relation, t.head_type, t.tail_type)]
        run.check(not inadmissible,
                  f"{len(inadmissible)} emitted triples violate the ontology")
        run.counts = {
            "model_train_s": run.model_train_s,
            "units": {p: run.schedule.count(p) for p in ("setup", *SHARES)},
            "mslr_rows_trained_per_call": run.rows_per_call,
            "train_steps_per_call": run.steps_per_call,
            "eval_gold_pairs_per_call": run.gold_pairs,
            "extract_sentences": len(self.texts),
            "extract_spans": sum(len(r.spans) for r in done),
            "extract_pairs_classified": sum(len(r.triples) + len(r.dropped) for r in done),
            "extract_triples_kept": sum(len(r.triples) for r in done),
        }


def run_once(ctie, workloads, wl, seed: int, seconds: float, tracer=None,
             schedule: list[str] | None = None) -> Run:
    """Set-up, the workload's model, then interleaved timed units for
    ``seconds`` (or exactly ``schedule``, so a traced run repeats an
    untraced one)."""
    bench = Bench(ctie, workloads, wl, seed, tracer)
    bench.set_up()
    if bench.train_model():
        bench.run_units(seconds, perf_counter(), schedule)
        bench.finish_checks()
    return bench.run


def corrected(durations: list[float], scale: list[float]) -> list[float]:
    """Unit durations at the nominal machine speed (``gauge.py``)."""
    return [d * f for d, f in zip(durations, scale, strict=True)]


def end_to_end(run: Run, nominal: bool = True) -> dict[str, float]:
    """The end-to-end metrics: medians over the units of the run, each unit
    scaled to the nominal machine speed (``nominal=False``: as timed)."""
    scale = run.scale if nominal else {p: [1.0] * len(v) for p, v in run.scale.items()}
    passes = [[latency * f for latency in latencies]
              for latencies, f in zip(run.pass_latencies_s, scale["extract"], strict=True)]
    latencies = [latency for latencies in passes for latency in latencies]
    return {
        "setup_s": statistics.median(corrected(run.setup_s, scale["setup"])),
        "train_rows_per_s": run.rows_per_call / statistics.median(
            corrected(run.train_s, scale["train"])),
        "train_joint_loss": run.train_joint_loss,
        "eval_pairs_per_s": run.gold_pairs / statistics.median(
            corrected(run.eval_s, scale["eval"])),
        "ner_f1": run.ner_f1,
        "re_f1": run.re_f1,
        "extract_sentences_per_s": run.n_sentences / statistics.median(
            [sum(latencies) for latencies in passes]),
        "extract_sentence_ms_p50": 1e3 * statistics.median(latencies),
        "extract_sentence_ms_p90": 1e3 * statistics.quantiles(latencies, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_metrics(run: Run, base: Run, tracer, tracing) -> dict[str, float]:
    overhead = {p: run.phase_wall_s.get(p, 0.0) - base.phase_wall_s.get(p, 0.0)
                for p in tracing.PHASES}
    sentences = {
        "eval": run.n_sentences * len(run.eval_s),
        "extract": run.n_sentences * (1 + len(run.pass_latencies_s)),
    }
    metrics = tracing.layer_metrics(tracer.spans, sentences, overhead)
    for p in tracing.PHASES:
        coverage = metrics[f"{p}.trace.phase.coverage"]
        run.check(coverage >= MIN_COVERAGE,
                  f"top-level spans cover only {coverage:.3f} of the {p} phase")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = cap_blas_threads()
    missing = [p for p in (ROOT / "src" / "ctie" / "__init__.py",
                           ROOT / "tools" / "make_fixtures.py") if not p.is_file()]
    if missing:
        log(f"program sources not found: {', '.join(str(p) for p in missing)}")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools")]

    import ctie
    import ctie.corpus
    import tracing
    import workloads

    if Path(ctie.__file__).resolve().parent != ROOT / "src" / "ctie":
        log(f"imported ctie from {ctie.__file__}, not from this checkout")
        return 2
    if args.workload not in workloads.WORKLOADS:
        log(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
        return 2
    wl = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    facts = machine_facts(nproc)
    log(f"machine: {json.dumps(facts, sort_keys=True)}")

    run = run_once(ctie, workloads, wl, args.seed, args.seconds)
    metrics: dict[str, float] = {}
    as_timed: dict[str, float] = {}
    if args.trace:
        base = run
        tracer = tracing.Tracer()
        with tracing.install(tracer):
            run = run_once(ctie, workloads, wl, args.seed, args.seconds, tracer,
                           schedule=base.schedule)
        tracer.save(OUT_DIR / f"{wl.name}-seed{args.seed}-spans.json.gz")
        run.gate += [f"untraced run: {g}" for g in base.gate]
        if not run.gate:
            metrics = traced_metrics(run, base, tracer, tracing)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        if not run.gate:
            metrics = end_to_end(run)
            as_timed = end_to_end(run, nominal=False)
            log(f"as timed, not scaled to the nominal speed: {json.dumps(as_timed)}")
        units = END_TO_END_UNITS

    log(f"work counts: {json.dumps(run.counts, sort_keys=True)}")
    log(f"phase wall s: {json.dumps(run.phase_wall_s, sort_keys=True)}")
    for failure in run.gate:
        log(f"CHECK FAILED: {failure}")
    correct = not run.gate
    result = {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": ({name: {"value": value, "unit": units[name]}
                     for name, value in metrics.items()} if correct else {}),
    }
    report = dict(result, workload=wl.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=facts, counts=run.counts,
                  phase_wall_s=run.phase_wall_s, checks_failed=run.gate, schedule=run.schedule,
                  unit_s={"setup": run.setup_s, "train": run.train_s, "eval": run.eval_s},
                  pass_latencies_s=run.pass_latencies_s, scale=run.scale,
                  gauge_s=run.gauge_s, as_timed=as_timed)
    (OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
