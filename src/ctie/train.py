"""Dataset splitting, AdamW optimization, and the training loop."""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, asdict, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import AnnotatedSentence, TypeSystem
from .crf import crf_decode, crf_nll
from .errors import DataError, NonFiniteLoss, SchemaError
from .model import (
    AT_LEAST_ONE,
    FINITE_NON_NEGATIVE,
    FINITE_POSITIVE,
    UNIT_INTERVAL,
    ModelConfig,
    Params,
    backward,
    check_field_ranges,
    check_field_types,
    decode_constraint,
    forward,
    init_params,
    load_embedding_file,
    ner_logits,
    save_checkpoint,
    score_pairs,
)
from .mslr import Vocabulary, build_vocab, make_batches, pair_spans, sentence_rows


@dataclass
class TrainConfig:
    train_ratio: float = 0.70
    val_ratio: float = 0.15
    test_ratio: float = 0.15
    seed: int = 42
    split_seed: int | None = None     # defaults to seed
    shuffle_seed: int | None = None   # defaults to seed
    learning_rate: float = 1e-5
    epsilon: float = 1e-8
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    batch_size: int = 16
    epochs: int = 3
    grad_clip_norm: float | None = None
    checkpoint_every: int = 0         # 0 = only best + final
    max_len: int = 256
    min_freq: int = 1

    def validate(self) -> None:
        for name in ("seed", "split_seed", "shuffle_seed"):
            value = getattr(self, name)
            if value is None and name != "seed":
                continue
            if type(value) is not int or value < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
        check_field_types(self)
        check_split_ratios((self.train_ratio, self.val_ratio, self.test_ratio))
        check_field_ranges(self, _TRAIN_RANGES)

    @property
    def effective_split_seed(self) -> int:
        return self.seed if self.split_seed is None else self.split_seed

    @property
    def effective_shuffle_seed(self) -> int:
        return self.seed if self.shuffle_seed is None else self.shuffle_seed

    def split(self, sentences: Sequence[AnnotatedSentence]) -> tuple[list, list, list]:
        """This configuration's train/val/test split of ``sentences``."""
        return split(
            sentences, (self.train_ratio, self.val_ratio, self.test_ratio),
            seed=self.effective_split_seed,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "TrainConfig":
        """A validated configuration; ``TypeError`` or ``ValueError`` when
        ``payload`` is not an object of known, well-formed fields."""
        config = cls(**payload)
        config.validate()
        return config


_TRAIN_RANGES = {
    "learning_rate": FINITE_POSITIVE,
    "epsilon": FINITE_POSITIVE,
    "weight_decay": FINITE_NON_NEGATIVE,
    "beta1": UNIT_INTERVAL,
    "beta2": UNIT_INTERVAL,
    "grad_clip_norm": (lambda v: v is None or 0 <= v < math.inf,
                       "null, or finite and >= 0 (0: no clipping)"),
    "checkpoint_every": (lambda v: v >= 0, ">= 0 (0: only the best and final checkpoints)"),
    **dict.fromkeys(("batch_size", "epochs", "max_len", "min_freq"), AT_LEAST_ONE),
}


def check_split_ratios(ratios: tuple[float, float, float]) -> None:
    """Raise ``ValueError`` unless each ratio lies in [0, 1] and they sum to 1."""
    if not all(0.0 <= r <= 1.0 for r in ratios):
        raise ValueError(f"split ratios must each lie in [0, 1], got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios must sum to 1, got {sum(ratios)}")


def split(
    sentences: Sequence[AnnotatedSentence],
    ratios: tuple[float, float, float] = (0.70, 0.15, 0.15),
    seed: int = 42,
) -> tuple[list, list, list]:
    """Sentence-level split so MSLR copies of one sentence stay together.

    Validation and test sizes are floored; the remainder goes to train.
    """
    check_split_ratios(ratios)
    n = len(sentences)
    order = np.random.default_rng(seed).permutation(n)
    n_val = int(n * ratios[1])
    n_test = int(n * ratios[2])
    n_train = n - n_val - n_test
    train_idx = sorted(order[:n_train])
    val_idx = sorted(order[n_train : n_train + n_val])
    test_idx = sorted(order[n_train + n_val :])
    return (
        [sentences[i] for i in train_idx],
        [sentences[i] for i in val_idx],
        [sentences[i] for i in test_idx],
    )


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------


@dataclass
class AdamWState:
    m: Params
    v: Params
    step: int = 0


def init_adamw(params: Params) -> AdamWState:
    return AdamWState(
        m={k: np.zeros_like(v) for k, v in params.items()},
        v={k: np.zeros_like(v) for k, v in params.items()},
    )


ADAMW_CHUNK = 32768  # 256 KiB of float64: a block's six arrays take 1.5 MiB, within a 2 MiB L2


def _flat(a: np.ndarray) -> np.ndarray:
    """The flat in-place view of a C-contiguous array."""
    if not a.flags.c_contiguous:
        raise ValueError("AdamW updates C-contiguous arrays in place")
    return a.reshape(-1)


def adamw_step(
    params: Params,
    grads: Params,
    state: AdamWState,
    config: TrainConfig,
    skip: frozenset[str] = frozenset(),
) -> None:
    """One in-place decoupled-weight-decay update.

    param <- param - lr * m_hat / (sqrt(v_hat) + eps) - lr * wd * param

    An array larger than ``ADAMW_CHUNK`` elements is walked in blocks of
    that many through its flat view, so a block's passes run from cache;
    a smaller array is one block, updated in its own shape. Two scratch
    blocks hold every temporary. The per-element order of operations is
    that of the unblocked formula, so the result is bit-identical to it.
    """
    state.step += 1
    t = state.step
    b1, b2 = config.beta1, config.beta2
    lr, eps, wd = config.learning_rate, config.epsilon, config.weight_decay
    c1, c2, bias1, bias2, decay = 1.0 - b1, 1.0 - b2, 1.0 - b1**t, 1.0 - b2**t, lr * wd
    names = [name for name in params if name not in skip]
    size = min(ADAMW_CHUNK, max((params[name].size for name in names), default=0))
    scratch_a, scratch_b = np.empty(size), np.empty(size)

    def update(p, g, m, v, a, b):
        m *= b1
        np.multiply(g, c1, out=a)
        m += a
        v *= b2
        np.multiply(g, g, out=a)
        a *= c2
        v += a
        np.divide(v, bias2, out=a)
        np.sqrt(a, out=a)
        a += eps
        np.divide(m, bias1, out=b)
        b /= a
        b *= lr
        p -= b
        np.multiply(p, decay, out=a)
        p -= a

    for name in names:
        p, g, m, v = params[name], grads[name], state.m[name], state.v[name]
        if p.size <= ADAMW_CHUNK:
            n = p.size
            update(p, g, m, v, scratch_a[:n].reshape(p.shape), scratch_b[:n].reshape(p.shape))
            continue
        p, m, v = _flat(p), _flat(m), _flat(v)
        g = np.ascontiguousarray(g).reshape(-1)
        for lo in range(0, p.size, ADAMW_CHUNK):
            block = slice(lo, lo + ADAMW_CHUNK)
            n = p[block].size
            update(p[block], g[block], m[block], v[block], scratch_a[:n], scratch_b[:n])


def clip_gradients(grads: Params, max_norm: float, skip: frozenset[str] = frozenset()) -> float:
    """Scale the gradients of the arrays not in ``skip`` (the ones
    ``adamw_step`` updates under the same ``skip``) in place, so that their
    joint L2 norm is at most ``max_norm``; return that norm before scaling.
    A frozen array's gradient neither counts nor changes."""
    trained = [g for name, g in grads.items() if name not in skip]
    total = float(np.sqrt(sum(float(np.sum(g * g)) for g in trained)))
    if total > max_norm > 0:
        scale = max_norm / total
        for g in trained:
            g *= scale
    return total


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass
class EpochStats:
    epoch: int
    train_ner_loss: float
    train_re_loss: float
    train_joint_loss: float
    train_re_acc: float
    val_ner_loss: float | None
    val_re_loss: float | None
    val_joint_loss: float | None
    val_ner_acc: float | None
    val_re_acc: float | None
    wall_clock_s: float


@dataclass
class TrainingLog:
    entries: list[EpochStats] = field(default_factory=list)

    _METRICS = ("ner_loss", "re_loss", "joint_loss", "ner_acc", "re_acc")

    def rows(self) -> list[tuple[int, str, str, float]]:
        # Wall-clock stays out of the emitted rows so reports are
        # byte-identical across reruns; it is printed in log lines only.
        out = []
        for e in self.entries:
            for split_name in ("train", "val"):
                for metric in self._METRICS:
                    # training rows have no ner_acc: training batches are not decoded
                    value = getattr(e, f"{split_name}_{metric}", None)
                    if value is not None:
                        out.append((e.epoch, split_name, metric, float(value)))
        return out

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["epoch", "split", "metric", "value"])
        for row in self.rows():
            writer.writerow([row[0], row[1], row[2], repr(row[3])])
        return buf.getvalue()

    def to_json(self) -> str:
        payload = [
            {"epoch": r[0], "split": r[1], "metric": r[2], "value": r[3]}
            for r in self.rows()
        ]
        return json.dumps(payload, indent=1, sort_keys=True)


@dataclass
class TrainResult:
    params: Params
    config: ModelConfig
    vocab: Vocabulary
    types: TypeSystem
    log: TrainingLog
    best_epoch: int
    best_params: Params
    best_checkpoint: Path | None
    skipped_instances: list


@dataclass
class _Sums:
    """Row-weighted loss sums and relation hits over a run of batches."""

    ner: float = 0.0
    re: float = 0.0
    joint: float = 0.0
    rows: int = 0
    re_hits: int = 0

    def add(self, ner: float, re: float, joint: float, re_probs, labels) -> None:
        """Add the loss sums and the relation probabilities of some rows."""
        self.ner += ner
        self.re += re
        self.joint += joint
        self.rows += len(labels)
        self.re_hits += int(np.sum(np.argmax(re_probs, axis=1) == labels))

    def means(self) -> dict:
        """Per-row means (None when no row was added)."""
        sums = {"ner_loss": self.ner, "re_loss": self.re, "joint_loss": self.joint,
                "re_acc": self.re_hits}
        return {k: v / self.rows if self.rows else None for k, v in sums.items()}


def evaluate_split(params, config, vocab, types, sentences, allowed=None) -> dict:
    """Mean losses and accuracies over the MSLR rows of ``sentences``, a
    list of (index, sentence, ``PairRows``) as ``sentence_rows`` keeps them.

    A sentence's rows share one encoding (``encode_batches``). Its CRF NLL
    and its Viterbi token hits (under the ``allowed`` transition mask) are
    computed once and weighted by its row count, and the relation head
    scores the rows of each encoder chunk in one call
    (``model.score_pairs``, as gold-pair evaluation does): the
    means are those of a dropout-free forward over every row, to rounding.
    """
    from .evaluation import encode_batches  # evaluation imports this

    sums = _Sums()
    tok_correct = tok_total = done = 0
    for h, mask in encode_batches(params, vocab, [s.tokens for _, s, _ in sentences]):
        chunk = sentences[done : done + len(h)]
        done += len(h)
        gold = np.zeros(mask.shape, dtype=np.int64)
        for b, (_, sentence, _) in enumerate(chunk):
            gold[b, : len(sentence)] = [types.bio_id(tag) for tag in sentence.labels]
        logits = ner_logits(h, params["ner_w"], params["ner_b"])
        nlls = crf_nll(logits, gold, params["crf_trans"], mask).tolist()
        paths = crf_decode(logits, params["crf_trans"], mask, allowed=allowed)
        span_rows, spans, rows = pair_spans(chunk)
        probs = score_pairs(h, mask, span_rows, spans, rows.head, rows.tail, rows.head_type,
                            rows.tail_type, params, config).probs
        ce = -np.log(probs[np.arange(len(rows)), rows.label])
        lo = 0
        for (_, sentence, own), y, path, nll in zip(chunk, gold, paths, nlls):
            n, w = len(sentence), len(own)
            re = float(np.sum(ce[lo : lo + w]))
            sums.add(w * nll, re, config.alpha * w * nll + config.beta * re,
                     probs[lo : lo + w], own.label)
            lo += w
            tok_correct += w * int(np.sum(np.asarray(path) == y[:n]))
            tok_total += w * n
    return dict(sums.means(), ner_acc=tok_correct / tok_total if tok_total else None)


def train_loop(
    sentences: Sequence[AnnotatedSentence],
    types: TypeSystem,
    train_config: TrainConfig,
    model_kwargs: dict | None = None,
    out_dir: Path | str | None = None,
    pretrained_embeddings: Path | str | None = None,
    log_fn=None,
) -> TrainResult:
    """Split, build the MSLR rows and optimize the joint loss. Training and
    validation read ``mslr.sentence_rows``, ids looked up by name in
    ``types`` (which the checkpoints store); overlong sentences go into
    ``skipped_instances``. A training split with no row is a ``DataError``.

    The best checkpoint is the epoch with the lowest validation joint loss
    (training joint loss when the validation split is empty). Fully
    deterministic for fixed seeds. ``pretrained_embeddings`` is an embedding
    file; its vocabulary hash must match the vocabulary built here.
    """
    train_config.validate()
    # split record indices, so every row's origin names its corpus record
    train_idx, val_idx, _test_idx = train_config.split(range(len(sentences)))
    train_rows, skipped = sentence_rows(sentences, train_idx, types, train_config.max_len)
    if not train_rows:
        overlong = len({origin[0] for origin, _ in skipped})
        raise DataError(f"no trainable MSLR row: of {len(train_idx)} training sentences, "
                        f"{len(train_idx) - overlong} have no relation and {overlong} are "
                        f"longer than max_len {train_config.max_len}")
    val_rows, val_skipped = sentence_rows(sentences, val_idx, types, train_config.max_len)
    skipped.extend(val_skipped)

    vocab = build_vocab([sentences[i] for i in train_idx], min_freq=train_config.min_freq)
    pretrained_embed = None
    if pretrained_embeddings is not None:
        pretrained_embed = load_embedding_file(
            pretrained_embeddings, expected_vocab_hash=vocab.content_hash()
        )
    model_kwargs = dict(model_kwargs or {})
    config = ModelConfig(
        vocab_size=len(vocab),
        num_ner_labels=types.num_bio_labels,
        num_relations=types.num_relations,
        num_entity_types=types.num_entity_types,
        **model_kwargs,
    )
    if pretrained_embed is not None and pretrained_embed.shape[1] != config.embed_dim:
        raise SchemaError(f"{pretrained_embeddings}: embedding file holds "
                          f"{pretrained_embed.shape[1]}-dim vectors, but embed_dim is "
                          f"{config.embed_dim}")
    allowed = decode_constraint(config, types.bio_labels)
    params = init_params(config, seed=train_config.seed, pretrained_embed=pretrained_embed)
    state = init_adamw(params)
    skip = frozenset(["embed"]) if config.freeze_embeddings else frozenset()

    extras = {
        "vocab": vocab.to_list(),
        "types": types.to_dict(),
        "train_config": train_config.to_dict(),
    }

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    dropout_rng = np.random.default_rng(train_config.seed + 1)
    log = TrainingLog()
    best_epoch = -1
    best_score = np.inf
    best_params = {k: v.copy() for k, v in params.items()}
    grads = {k: np.empty_like(v) for k, v in params.items()}  # backward overwrites it

    for epoch in range(1, train_config.epochs + 1):
        started = time.perf_counter()
        batches = make_batches(
            train_rows, types, vocab, train_config.batch_size,
            shuffle_seed=train_config.effective_shuffle_seed + epoch,
        )
        sums = _Sums()
        for batch in batches:
            result = forward(batch, params, config, mode="train", rng=dropout_rng)
            if not np.isfinite(result.joint):
                raise NonFiniteLoss(
                    f"non-finite loss at epoch {epoch}", origins=batch.origins
                )
            backward(result.trace, params, grads)
            if train_config.grad_clip_norm:
                clip_gradients(grads, train_config.grad_clip_norm, skip=skip)
            adamw_step(params, grads, state, train_config, skip=skip)
            sums.add(result.ner_nll * batch.size, result.re_ce * batch.size,
                     result.joint * batch.size, result.re_probs, batch.relation_label)

        val = evaluate_split(params, config, vocab, types, val_rows, allowed)
        stats = EpochStats(
            epoch=epoch,
            **{f"train_{k}": v for k, v in sums.means().items()},
            **{f"val_{k}": v for k, v in val.items()},
            wall_clock_s=time.perf_counter() - started,
        )
        log.entries.append(stats)
        if log_fn is not None:
            log_fn(
                f"epoch {epoch}: train joint {stats.train_joint_loss:.4f} "
                f"(ner {stats.train_ner_loss:.4f}, re {stats.train_re_loss:.4f}) "
                + (
                    f"val joint {stats.val_joint_loss:.4f} "
                    if stats.val_joint_loss is not None
                    else ""
                )
                + f"[{stats.wall_clock_s:.2f}s]"
            )

        score = stats.val_joint_loss if stats.val_joint_loss is not None else stats.train_joint_loss
        if score < best_score:
            best_score = score
            best_epoch = epoch
            best_params = {k: v.copy() for k, v in params.items()}
        if (
            out_path is not None
            and train_config.checkpoint_every
            and epoch % train_config.checkpoint_every == 0
        ):
            save_checkpoint(out_path / f"epoch_{epoch:03d}.ckpt", params, config, extras)

    best_path = None
    if out_path is not None:
        best_path = out_path / "best.ckpt"
        save_checkpoint(best_path, best_params, config, dict(extras, best_epoch=best_epoch))
        save_checkpoint(out_path / "final.ckpt", params, config, extras)

    return TrainResult(
        params=params,
        config=config,
        vocab=vocab,
        types=types,
        log=log,
        best_epoch=best_epoch,
        best_params=best_params,
        best_checkpoint=best_path,
        skipped_instances=skipped,
    )
