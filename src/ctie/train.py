"""Dataset splitting, AdamW optimization, and the training loop."""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, asdict, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import AnnotatedSentence, TypeSystem
from .crf import crf_decode
from .errors import NonFiniteLoss
from .model import (
    ModelConfig,
    Params,
    backward,
    decode_constraint,
    forward,
    init_params,
    load_embedding_file,
    save_checkpoint,
)
from .mslr import Vocabulary, build_vocab, expand_and_encode, make_batches


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
        total = self.train_ratio + self.val_ratio + self.test_ratio
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"split ratios must sum to 1, got {total}")
        if self.learning_rate <= 0 or self.batch_size < 1 or self.epochs < 1:
            raise ValueError("learning rate, batch size, and epochs must be positive")

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
        return cls(**payload)


def split(
    sentences: Sequence[AnnotatedSentence],
    ratios: tuple[float, float, float] = (0.70, 0.15, 0.15),
    seed: int = 42,
) -> tuple[list, list, list]:
    """Sentence-level split so MSLR copies of one sentence stay together.

    Validation and test sizes are floored; the remainder goes to train.
    """
    if not sentences:
        raise ValueError("cannot split an empty corpus")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {sum(ratios)}")
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

    Each array is walked in blocks of ``ADAMW_CHUNK`` elements, so a
    block's passes run from cache; two scratch blocks hold every
    temporary. The per-element order of operations is that of the
    unblocked formula, so the result is bit-identical to it.
    """
    state.step += 1
    t = state.step
    b1, b2 = config.beta1, config.beta2
    lr, eps, wd = config.learning_rate, config.epsilon, config.weight_decay
    c1, c2, bias1, bias2, decay = 1.0 - b1, 1.0 - b2, 1.0 - b1**t, 1.0 - b2**t, lr * wd
    names = [name for name in params if name not in skip]
    size = min(ADAMW_CHUNK, max((params[name].size for name in names), default=0))
    scratch_a, scratch_b = np.empty(size), np.empty(size)
    for name in names:
        p, m, v = _flat(params[name]), _flat(state.m[name]), _flat(state.v[name])
        g = np.ascontiguousarray(grads[name]).reshape(-1)
        for lo in range(0, p.size, ADAMW_CHUNK):
            hi = min(lo + ADAMW_CHUNK, p.size)
            pc, gc, mc, vc = p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
            a, b = scratch_a[: hi - lo], scratch_b[: hi - lo]
            mc *= b1
            np.multiply(gc, c1, out=a)
            mc += a
            vc *= b2
            np.multiply(gc, gc, out=a)
            a *= c2
            vc += a
            np.divide(vc, bias2, out=a)
            np.sqrt(a, out=a)
            a += eps
            np.divide(mc, bias1, out=b)
            b /= a
            b *= lr
            pc -= b
            np.multiply(pc, decay, out=a)
            pc -= a


def clip_gradients(grads: Params, max_norm: float) -> float:
    total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
    if total > max_norm > 0:
        scale = max_norm / total
        for g in grads.values():
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

    def add(self, result, batch) -> None:
        self.ner += result.ner_nll * batch.size
        self.re += result.re_ce * batch.size
        self.joint += result.joint * batch.size
        self.rows += batch.size
        self.re_hits += int(np.sum(np.argmax(result.re_probs, axis=1) == batch.relation_label))

    def means(self) -> dict:
        """Per-row means (None when no row was added)."""
        sums = {"ner_loss": self.ner, "re_loss": self.re, "joint_loss": self.joint,
                "re_acc": self.re_hits}
        return {k: v / self.rows if self.rows else None for k, v in sums.items()}


def evaluate_split(params, config, batches, allowed=None) -> dict:
    """Mean losses and accuracies over batches (eval mode); token accuracy
    decodes each batch's emissions under the ``allowed`` transition mask."""
    sums = _Sums()
    tok_correct = tok_total = 0
    for batch in batches:
        result = forward(batch, params, config, mode="eval")
        sums.add(result, batch)
        paths = crf_decode(result.ner_scores, params["crf_trans"], batch.attention_mask,
                           allowed=allowed)
        for path, n, gold in zip(paths, batch.lengths, batch.ner_labels):
            tok_correct += int(np.sum(np.asarray(path) == gold[:n]))
            tok_total += int(n)
    return dict(sums.means(), ner_acc=tok_correct / tok_total if tok_total else None)


def train_loop(
    sentences: Sequence[AnnotatedSentence],
    types: TypeSystem,
    train_config: TrainConfig,
    model_kwargs: dict | None = None,
    out_dir: Path | str | None = None,
    pretrained_embeddings: Path | str | None = None,
    checkpoint_extras: dict | None = None,
    log_fn=None,
) -> TrainResult:
    """Split, expand to MSLR rows, and optimize the joint loss.

    The best checkpoint is the epoch with the lowest validation joint loss
    (training joint loss when the validation split is empty). Fully
    deterministic for fixed seeds. ``pretrained_embeddings`` is an embedding
    file; its vocabulary hash must match the vocabulary built here.
    """
    train_config.validate()
    # split record indices, so every row's origin names its corpus record
    train_idx, val_idx, _test_idx = train_config.split(range(len(sentences)))
    train_sents = [sentences[i] for i in train_idx]

    vocab = build_vocab(train_sents, min_freq=train_config.min_freq)
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
    allowed = decode_constraint(config, types.bio_labels)
    params = init_params(config, seed=train_config.seed, pretrained_embed=pretrained_embed)
    state = init_adamw(params)
    skip = frozenset(["embed"]) if config.freeze_embeddings else frozenset()

    train_instances, skipped = expand_and_encode(
        zip(train_idx, train_sents), types, vocab, train_config.max_len
    )
    val_instances, val_skipped = expand_and_encode(
        ((i, sentences[i]) for i in val_idx), types, vocab, train_config.max_len
    )
    skipped = skipped + val_skipped
    if not train_instances:
        raise ValueError("no trainable instances (every sentence has zero relations?)")
    val_batches = make_batches(val_instances, train_config.batch_size) if val_instances else []

    extras = dict(checkpoint_extras or {})
    extras.setdefault("vocab", vocab.to_list())
    extras.setdefault("types", types.to_dict())
    extras.setdefault("train_config", train_config.to_dict())

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    dropout_rng = np.random.default_rng(train_config.seed + 1)
    log = TrainingLog()
    best_epoch = -1
    best_score = np.inf
    best_params = {k: v.copy() for k, v in params.items()}

    for epoch in range(1, train_config.epochs + 1):
        started = time.perf_counter()
        batches = make_batches(
            train_instances,
            train_config.batch_size,
            shuffle_seed=train_config.effective_shuffle_seed + epoch,
        )
        sums = _Sums()
        for batch in batches:
            result = forward(batch, params, config, mode="train", rng=dropout_rng)
            if not np.isfinite(result.joint):
                raise NonFiniteLoss(
                    f"non-finite loss at epoch {epoch}", origins=batch.origins
                )
            grads = backward(result.trace, params)
            if train_config.grad_clip_norm:
                clip_gradients(grads, train_config.grad_clip_norm)
            adamw_step(params, grads, state, train_config, skip=skip)
            sums.add(result, batch)

        val = evaluate_split(params, config, val_batches, allowed)
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
