"""Command-line front-end.

One binary, eight subcommands: validate, stats, mslr, train, eval, ablate,
extract, export. Configuration precedence is defaults < --config file <
explicit flags; every output-writing run drops the fully resolved
configuration next to its outputs as run_config.json.

Exit codes: 0 ok, 1 validation/data error, 2 usage error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import MISSING, fields
from pathlib import Path

from . import evaluation, extract as extract_mod
from .corpus import (
    OntologySchema, check_corpus, dataset_stats, is_int, load_corpus, read_utf8,
    validate_ontology,
)
from .errors import DataError, SchemaError, UnknownRelation
from .model import ModelConfig, checkpoint_tables, load_checkpoint, write_atomic
from .mslr import build_vocab, dump_jsonl, encode_all, expand
from .train import TrainConfig, train_loop

_TRAIN_KEYS = {f.name for f in fields(TrainConfig)}
# the fields without a default (vocabulary and label counts) come from the data
_MODEL_KEYS = {f.name for f in fields(ModelConfig) if f.default is not MISSING}

# The training flags: (flag, the TrainConfig or ModelConfig field it sets,
# type), plus a --x/--no-x flag per boolean ModelConfig field. No flag has a
# default, so an unset flag leaves the config file's value or the field's.
_TRAIN_FLAGS = (
    ("--seed", "seed", int), ("--epochs", "epochs", int),
    ("--batch-size", "batch_size", int), ("--lr", "learning_rate", float),
    ("--weight-decay", "weight_decay", float), ("--max-len", "max_len", int),
    ("--min-freq", "min_freq", int), ("--grad-clip-norm", "grad_clip_norm", float),
    ("--embed-dim", "embed_dim", int), ("--hidden-dim", "hidden_dim", int),
    ("--dropout", "dropout", float), ("--alpha", "alpha", float), ("--beta", "beta", float),
)
_BOOL_FIELDS = [f.name for f in fields(ModelConfig) if isinstance(f.default, bool)]
_FLAG_FIELDS = {name for _flag, name, _type in _TRAIN_FLAGS} | set(_BOOL_FIELDS)


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        payload = json.loads(read_utf8(path, "config file"))
    except json.JSONDecodeError as exc:
        raise DataError(f"config file {path} is not valid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise DataError(f"config file {path} must hold a JSON object")
    unknown = set(payload) - _TRAIN_KEYS - _MODEL_KEYS
    if unknown:
        raise DataError(f"config file {path}: unknown keys {sorted(unknown)}")
    return payload


class UsageError(Exception):
    """A flag or config-file value that the configuration rejects (exit 2)."""


def _probability(text: str) -> float:
    """An argparse type: a confidence floor (``evaluation.check_confidence_floor``)."""
    try:
        return evaluation.check_confidence_floor(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number in [0, 1], got {text!r}") from None


def _resolve(args, file_config: dict) -> tuple[TrainConfig, dict]:
    """defaults < config file < flags, validated: a rejected value is a
    ``UsageError``, raised before anything is written."""
    given = {k: v for k, v in vars(args).items() if k in _FLAG_FIELDS and v is not None}
    merged = {**file_config, **given}
    train_config = TrainConfig(**{k: v for k, v in merged.items() if k in _TRAIN_KEYS})
    model_kwargs = {k: v for k, v in merged.items() if k in _MODEL_KEYS}
    try:
        train_config.validate()
        # the vocabulary and label counts come from the data: 1 stands in for them
        ModelConfig(vocab_size=1, num_ner_labels=1, num_relations=1, num_entity_types=1,
                    **model_kwargs).validate()
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from None
    return train_config, model_kwargs


def _write_run_config(out_dir: Path, args, **resolved) -> None:
    """run_config.json: every parsed argument but the raw training flags,
    then the settings resolved from them."""
    doc = {k: v for k, v in vars(args).items() if k not in {"func", "out", *_FLAG_FIELDS}}
    out_dir.mkdir(parents=True, exist_ok=True)
    write_atomic(out_dir / "run_config.json",
                 json.dumps({**doc, **resolved}, indent=1, sort_keys=True) + "\n")


def _ontology(args) -> OntologySchema:
    if args.ontology:
        return OntologySchema.load(args.ontology)
    return OntologySchema.default()


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _log_skipped(skipped) -> None:
    """One line per overlong sentence, however many MSLR rows it had."""
    rows = Counter(origin[0] for origin, _length in skipped)
    lengths = {origin[0]: length for origin, length in skipped}
    for index, count in rows.items():
        _log(f"skipped overlong sentence {index} (length {lengths[index]}, {count} rows)")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    ontology = _ontology(args)
    corpus, issues = check_corpus(args.dataset, ontology)
    for issue in issues:
        print(str(issue))
    unknown = ontology_violations = 0
    if not issues:
        for i, sentence in enumerate(corpus.sentences):
            try:
                violations = validate_ontology(sentence, ontology)
            except UnknownRelation as exc:  # no rule to check: an error, strict or not
                unknown += 1
                print(f"error: record {i}: {exc}")
                continue
            for violation in violations:
                ontology_violations += 1
                prefix = "error" if args.strict else "warning"
                print(f"{prefix}: record {i}: {violation}")
    print(
        f"structural errors: {len(issues)}; "
        f"records with a relation not in the ontology: {unknown}; "
        f"ontology domain/range violations: {ontology_violations}"
    )
    if issues or unknown:
        return 1
    if args.strict and ontology_violations:
        return 1
    return 0


def cmd_stats(args) -> int:
    corpus = load_corpus(args.dataset, _ontology(args))
    stats = dataset_stats(corpus.sentences)
    print(stats.to_table())
    if args.out:
        out = Path(args.out)
        _write_run_config(out, args)
        write_atomic(out / "stats.json",
                     json.dumps(stats.to_dict(), indent=1, sort_keys=True) + "\n")
        write_atomic(out / "stats.txt", stats.to_table() + "\n")
    return 0


def cmd_mslr(args) -> int:
    config, _ = _resolve(args, {})  # the rule train applies to the same two settings
    corpus = load_corpus(args.dataset, _ontology(args))
    vocab = build_vocab(corpus.sentences, min_freq=config.min_freq)
    examples = [example for i, sentence in enumerate(corpus.sentences)
                for example in expand(sentence, corpus.types, sentence_index=i)]
    instances, skipped = encode_all(examples, vocab, max_len=config.max_len)
    _log_skipped(skipped)
    out = Path(args.out)
    _write_run_config(out, args, max_len=config.max_len, min_freq=config.min_freq)
    write_atomic(out / "instances.jsonl", dump_jsonl(instances))
    write_atomic(out / "vocab.json", json.dumps(vocab.to_list(), indent=1) + "\n")
    print(f"wrote {len(instances)} instances ({len(skipped)} skipped) to {out}")
    return 0


def cmd_train(args) -> int:
    train_config, model_kwargs = _resolve(args, _load_config_file(args.config))
    corpus = load_corpus(args.dataset, _ontology(args))
    out = Path(args.out)
    _write_run_config(out, args, seed=train_config.seed,
                      train_config=train_config.to_dict(), model_kwargs=model_kwargs)
    result = train_loop(
        corpus.sentences, corpus.types, train_config,
        model_kwargs=model_kwargs, out_dir=out, log_fn=_log,
        pretrained_embeddings=args.pretrained_embeddings,
    )
    write_atomic(out / "training_log.csv", result.log.to_csv())
    write_atomic(out / "training_log.json", result.log.to_json() + "\n")
    write_atomic(out / "vocab.json", json.dumps(result.vocab.to_list(), indent=1) + "\n")
    _log_skipped(result.skipped_instances)
    print(f"best epoch {result.best_epoch}; checkpoint {result.best_checkpoint}")
    return 0


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    vocab, types = checkpoint_tables(ckpt, args.checkpoint)
    stored = ckpt.extras.get("train_config")
    if stored is None and args.split != "all":
        raise SchemaError(
            f"{args.checkpoint}: checkpoint stores no train_config, so the "
            f"{args.split!r} split cannot be rebuilt; pass --split all"
        )
    try:
        cfg = TrainConfig() if stored is None else TrainConfig.from_dict(stored)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{args.checkpoint}: checkpoint train_config is malformed "
                          f"({type(exc).__name__}: {exc})") from None
    ontology = _ontology(args)
    corpus = load_corpus(args.dataset, ontology)
    if args.split == "all":
        target = list(corpus.sentences)
    else:
        train_s, val_s, test_s = cfg.split(corpus.sentences)
        target = {"train": train_s, "val": val_s, "test": test_s}[args.split]
    evaluation.check_split(args.split, target, len(corpus.sentences))
    reports = evaluation.evaluate_model(
        ckpt.params, ckpt.config, vocab, types, target,
        re_mode=args.re_mode,
        max_len=cfg.max_len,
        ontology=ontology,
        ontology_filter=args.ontology_filter,
        confidence_floor=args.confidence_floor,
    )
    summary = {task: report.to_dict() for task, report in reports.items()}
    print(
        f"NER P {reports['ner'].precision:.4f} R {reports['ner'].recall:.4f} "
        f"F1 {reports['ner'].f1:.4f} | RE P {reports['re'].precision:.4f} "
        f"R {reports['re'].recall:.4f} F1 {reports['re'].f1:.4f}"
    )
    if args.out:
        out = Path(args.out)
        _write_run_config(out, args)
        write_atomic(out / "metrics.json", json.dumps(summary, indent=1, sort_keys=True) + "\n")
        write_atomic(out / "metrics.txt", evaluation.metrics_table(reports) + "\n")
    return 0


def cmd_ablate(args) -> int:
    train_config, model_kwargs = _resolve(args, _load_config_file(args.config))
    corpus = load_corpus(args.dataset, _ontology(args))
    out = Path(args.out)
    _write_run_config(out, args, seed=train_config.seed,
                      train_config=train_config.to_dict(), model_kwargs=model_kwargs)
    result = evaluation.run_ablation(
        corpus.sentences, corpus.types, train_config, model_kwargs=model_kwargs
    )
    payloads = result.to_dict()
    for name, mask, typ in evaluation.ABLATION_CONFIGS:
        path = out / f"ablation_mask-{str(mask).lower()}_type-{str(typ).lower()}.json"
        write_atomic(path, json.dumps(payloads[name], indent=1, sort_keys=True) + "\n")
    write_atomic(out / "ablation.txt", result.to_table() + "\n")
    print(result.to_table())
    return 0


def cmd_extract(args) -> int:
    ontology = _ontology(args)
    extractor = extract_mod.Extractor.from_checkpoint(args.checkpoint, ontology)
    spans = None
    if args.input:
        lines = read_utf8(args.input, "input file").splitlines()
        token_seqs = [tuple(line.split()) for line in lines if line.strip()]
    else:
        sentences = load_corpus(args.dataset, ontology).sentences
        token_seqs = [sentence.tokens for sentence in sentences]
        if args.gold_spans:
            spans = [
                [evaluation.SpanPrediction(i, e.start, e.end, e.entity_type.name)
                 for e in sentence.entities]
                for i, sentence in enumerate(sentences)
            ]
    results = extractor.extract_many(
        token_seqs, ontology_filter=args.ontology_filter,
        confidence_floor=args.confidence_floor, spans=spans,
    )
    total = sum(len(r.triples) for r in results)
    print(f"extracted {total} triples from {len(results)} sentences")
    if args.out:
        out = Path(args.out)
        _write_run_config(out, args)
        write_atomic(out / "extractions.json",
                     json.dumps([r.to_dict() for r in results], indent=1, sort_keys=True) + "\n")
    return 0


def _read_triple(t: dict) -> extract_mod.Triple:
    """One triple of an extractions file, every field checked for its type:
    a ``ValueError`` names the fields that do not match."""
    bad = [k for k in ("head", "head_type", "relation", "tail", "tail_type")
           if not isinstance(t[k], str)]
    confidence = t["confidence"]
    if not (isinstance(confidence, (int, float)) and not isinstance(confidence, bool)
            and 0.0 <= confidence <= 1.0):  # NaN fails the comparison
        bad.append("confidence")
    if not is_int(t["sentence_index"]):
        bad.append("sentence_index")
    bad += [k for k in ("head_span", "tail_span")
            if not (isinstance(t[k], list) and len(t[k]) == 2 and all(map(is_int, t[k])))]
    if bad:
        raise ValueError(f"triple fields of the wrong type: {', '.join(bad)}")
    return extract_mod.Triple(
        head=t["head"], head_type=t["head_type"], relation=t["relation"],
        tail=t["tail"], tail_type=t["tail_type"],
        confidence=confidence, sentence_index=t["sentence_index"],
        head_span=tuple(t["head_span"]), tail_span=tuple(t["tail_span"]),
    )


def cmd_export(args) -> int:
    text = read_utf8(args.extractions, "extractions file")
    results = []
    try:
        for item in json.loads(text):
            if not is_int(item["sentence_index"]):
                raise ValueError("sentence_index is not an int")
            results.append(
                extract_mod.ExtractionResult(
                    sentence_index=item["sentence_index"],
                    tokens=tuple(item["tokens"]), spans=[],
                    triples=[_read_triple(t) for t in item["triples"]],
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"extractions file {args.extractions} does not hold extract's "
                        f"output ({type(exc).__name__}: {exc})") from None
    blob = extract_mod.export_graph(results, args.format)
    out = Path(args.out)
    _write_run_config(out, args)
    name = "graph.json" if args.format == "json" else "edges.csv"
    write_atomic(out / name, blob)
    print(f"wrote {out / name}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctie",
        description="Joint entity and relation extraction for threat intelligence text.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def field_flags(p, names):
        """The training flags that set the fields ``names``."""
        for flag, name, kind in _TRAIN_FLAGS:
            if name in names:
                p.add_argument(flag, type=kind, dest=name)
        for name in _BOOL_FIELDS:
            if name in names:
                p.add_argument("--" + name.replace("_", "-"), dest=name,
                               action=argparse.BooleanOptionalAction)

    def common(p, dataset=True, ontology=True, out=True, out_required=False):
        if dataset:
            p.add_argument("--dataset", required=True, help="corpus JSON file")
        if ontology:
            p.add_argument("--ontology", help="ontology JSON (default: bundled schema)")
        if out:
            p.add_argument("--out", required=out_required, help="output directory")

    p = sub.add_parser("validate", help="structural + ontology validation")
    common(p, out=False)
    p.add_argument("--strict", action="store_true",
                   help="treat domain/range violations as errors")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("stats", help="entity/relation distribution report")
    common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("mslr", help="dump the multisequence labeling instances")
    common(p, out_required=True)
    field_flags(p, {"max_len", "min_freq"})
    p.set_defaults(func=cmd_mslr)

    def train_flags(p):
        p.add_argument("--config", help="JSON config file (defaults < file < flags)")
        field_flags(p, _FLAG_FIELDS)

    p = sub.add_parser("train", help="train the joint model")
    common(p, out_required=True)
    train_flags(p)
    p.add_argument("--pretrained-embeddings", default=None,
                   dest="pretrained_embeddings",
                   help="embedding container built for the training vocabulary")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--re-mode", choices=("gold", "pipeline"), default="gold",
                   dest="re_mode")
    p.add_argument("--split", choices=("train", "val", "test", "all"), default="test")
    p.add_argument("--ontology-filter", action="store_true", dest="ontology_filter")
    p.add_argument("--confidence-floor", type=_probability, default=0.0,
                   dest="confidence_floor")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="four-configuration expert-feature ablation")
    common(p, out_required=True)
    train_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("extract", help="end-to-end triple extraction")
    common(p, dataset=False)
    p.add_argument("--checkpoint", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="plain text file, one sentence per line")
    source.add_argument("--dataset", help="corpus JSON (use --gold-spans for gold entities)")
    p.add_argument("--gold-spans", action="store_true", dest="gold_spans",
                   help="classify pairs over the --dataset gold entities")
    p.add_argument("--ontology-filter", action="store_true", dest="ontology_filter")
    p.add_argument("--confidence-floor", type=_probability, default=0.0,
                   dest="confidence_floor")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("export", help="export extractions as a graph file")
    common(p, dataset=False, ontology=False, out_required=True)
    p.add_argument("--extractions", required=True, help="extractions.json from extract")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "extract" and args.gold_spans and args.input:
        parser.error("--gold-spans needs --dataset, not --input")
    if args.command == "eval" and args.re_mode == "gold" and (
            args.ontology_filter or args.confidence_floor):
        parser.error("--ontology-filter and --confidence-floor need --re-mode pipeline")
    try:
        return args.func(args)
    except UsageError as exc:
        parser.error(str(exc))
    except (DataError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
