"""Joint NER + relation model: embedding, BiGRU, CRF head, relation head.

    encode:         token ids -> embedding -> BiGRU -> H
    NER head:       H -> dense -> CRF, decoded by Viterbi (``ner_predict``)
    relation head:  H -> masked sum over the pair's entity tokens -> pool
                    [pool ; type_emb(head) ; type_emb(tail)] -> dense -> softmax

Inference encodes a sentence once and scores all its candidate pairs from
that H: pairs differ only in entity mask and type ids, which the encoder
never reads. Training (``forward``) keeps one MSLR row per annotated pair,
with dropout after the embedding and after the BiGRU. Viterbi takes an
optional BIO transition mask as an argument; callers build it once from
their ``TypeSystem`` with ``decode_constraint``.

The joint training loss is ``alpha * crf_nll + beta * re_cross_entropy``.
Everything is plain float64 numpy; ``backward`` returns exact analytic
gradients for every parameter array (checked against finite differences
in the test suite).
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, asdict, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .crf import bio_allowed_transitions, crf_decode, crf_nll, crf_nll_grad
from .errors import EmptyMask, IdOutOfRange, SchemaError
from .mslr import Batch

Params = dict[str, np.ndarray]

_GRU_KEYS = ("w_z", "w_r", "w_c", "u_z", "u_r", "u_c", "b_z", "b_r", "b_c")


@dataclass
class ModelConfig:
    vocab_size: int
    num_ner_labels: int
    num_relations: int
    num_entity_types: int
    embed_dim: int = 768
    hidden_dim: int = 256
    dropout: float = 0.3
    use_entity_mask: bool = True
    use_entity_type: bool = True
    alpha: float = 1.0
    beta: float = 1.0
    bio_constrained_decode: bool = False
    freeze_embeddings: bool = False

    @property
    def entity_type_dim(self) -> int:
        return 2 * self.hidden_dim

    @property
    def concat_dim(self) -> int:
        base = 2 * self.hidden_dim
        if self.use_entity_type:
            base += 2 * self.entity_type_dim
        return base

    @property
    def crf_size(self) -> int:
        return self.num_ner_labels + 2

    def validate(self) -> None:
        for name in ("vocab_size", "num_ner_labels", "num_relations",
                     "num_entity_types", "embed_dim", "hidden_dim"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("loss weights must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ModelConfig":
        return cls(**payload)


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    d, h = config.embed_dim, config.hidden_dim
    shapes: dict[str, tuple[int, ...]] = {"embed": (config.vocab_size, d)}
    for direction in ("gru_fwd", "gru_bwd"):
        shapes[f"{direction}.w_z"] = (d, h)
        shapes[f"{direction}.w_r"] = (d, h)
        shapes[f"{direction}.w_c"] = (d, h)
        shapes[f"{direction}.u_z"] = (h, h)
        shapes[f"{direction}.u_r"] = (h, h)
        shapes[f"{direction}.u_c"] = (h, h)
        shapes[f"{direction}.b_z"] = (h,)
        shapes[f"{direction}.b_r"] = (h,)
        shapes[f"{direction}.b_c"] = (h,)
    shapes["type_embed"] = (config.num_entity_types, config.entity_type_dim)
    shapes["ner_w"] = (2 * h, config.num_ner_labels)
    shapes["ner_b"] = (config.num_ner_labels,)
    shapes["crf_trans"] = (config.crf_size, config.crf_size)
    shapes["re_w"] = (config.concat_dim, config.num_relations)
    shapes["re_b"] = (config.num_relations,)
    return shapes


def init_params(
    config: ModelConfig,
    seed: int = 42,
    pretrained_embed: np.ndarray | None = None,
) -> Params:
    """Seeded initialization in a fixed draw order.

    Embedding tables are uniform(-0.1, 0.1); dense/GRU matrices use
    Xavier-scaled uniform; biases and CRF transitions start at zero. The
    relation head is drawn last so that NER-side parameters are identical
    across feature-toggle configurations sharing a seed.
    """
    config.validate()
    rng = np.random.default_rng(seed)
    params: Params = {}

    def embedding(shape):
        return rng.uniform(-0.1, 0.1, size=shape)

    def xavier(shape):
        limit = np.sqrt(6.0 / (shape[0] + shape[1]))
        return rng.uniform(-limit, limit, size=shape)

    shapes = param_shapes(config)
    params["embed"] = embedding(shapes["embed"])
    for direction in ("gru_fwd", "gru_bwd"):
        for key in _GRU_KEYS:
            name = f"{direction}.{key}"
            shape = shapes[name]
            params[name] = np.zeros(shape) if key.startswith("b_") else xavier(shape)
    params["type_embed"] = embedding(shapes["type_embed"])
    params["ner_w"] = xavier(shapes["ner_w"])
    params["ner_b"] = np.zeros(shapes["ner_b"])
    params["crf_trans"] = np.zeros(shapes["crf_trans"])
    params["re_w"] = xavier(shapes["re_w"])
    params["re_b"] = np.zeros(shapes["re_b"])

    if pretrained_embed is not None:
        if pretrained_embed.shape != params["embed"].shape:
            raise SchemaError(
                f"pretrained embedding shape {pretrained_embed.shape} does not match "
                f"(vocab_size, embed_dim) = {params['embed'].shape}"
            )
        params["embed"] = np.asarray(pretrained_embed, dtype=np.float64).copy()
    return params


def validate_params(params: Params, config: ModelConfig) -> None:
    shapes = param_shapes(config)
    missing = sorted(set(shapes) - set(params))
    extra = sorted(set(params) - set(shapes))
    if missing or extra:
        raise SchemaError(f"parameter keys mismatch: missing={missing} extra={extra}")
    for name, shape in shapes.items():
        if tuple(params[name].shape) != shape:
            raise SchemaError(
                f"parameter {name!r} has shape {params[name].shape}, expected {shape}"
            )
        if not np.all(np.isfinite(params[name])):
            raise SchemaError(f"parameter {name!r} contains non-finite values")


def zeros_like_params(params: Params) -> Params:
    return {k: np.zeros_like(v) for k, v in params.items()}


# ---------------------------------------------------------------------------
# Layer operations
# ---------------------------------------------------------------------------


def embed(token_ids, table: np.ndarray) -> np.ndarray:
    ids = np.asarray(token_ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IdOutOfRange(
            f"token id out of range [0, {table.shape[0]}): "
            f"min={ids.min()}, max={ids.max()}"
        )
    return table[ids]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass
class GruTrace:
    x: np.ndarray        # (B, T, d) inputs in processing order
    mask: np.ndarray     # (B, T) in processing order
    z: np.ndarray        # (B, T, h)
    r: np.ndarray
    c: np.ndarray
    h: np.ndarray        # state after each step


def _gru_run(x: np.ndarray, mask: np.ndarray, params: Params, prefix: str) -> tuple[np.ndarray, GruTrace]:
    """One direction. Masked steps leave the recurrent state untouched and
    emit zeros."""
    p = {k: params[f"{prefix}.{k}"] for k in _GRU_KEYS}
    n_batch, n_steps, _ = x.shape
    n_hidden = p["u_z"].shape[0]
    z = np.empty((n_batch, n_steps, n_hidden))
    r = np.empty_like(z)
    c = np.empty_like(z)
    h = np.empty_like(z)
    out = np.empty_like(z)
    h_prev = np.zeros((n_batch, n_hidden))
    for t in range(n_steps):
        xt = x[:, t]
        m = mask[:, t][:, None]
        zt = _sigmoid(xt @ p["w_z"] + h_prev @ p["u_z"] + p["b_z"])
        rt = _sigmoid(xt @ p["w_r"] + h_prev @ p["u_r"] + p["b_r"])
        ct = np.tanh(xt @ p["w_c"] + (rt * h_prev) @ p["u_c"] + p["b_c"])
        h_new = (1.0 - zt) * ct + zt * h_prev
        ht = m * h_new + (1.0 - m) * h_prev
        z[:, t], r[:, t], c[:, t], h[:, t] = zt, rt, ct, ht
        out[:, t] = m * ht
        h_prev = ht
    return out, GruTrace(x=x, mask=mask, z=z, r=r, c=c, h=h)


def _gru_backprop(trace: GruTrace, d_out: np.ndarray, params: Params, prefix: str,
                  grads: Params) -> np.ndarray:
    p = {k: params[f"{prefix}.{k}"] for k in _GRU_KEYS}
    n_batch, n_steps, _ = trace.x.shape
    n_hidden = p["u_z"].shape[0]
    dx = np.zeros_like(trace.x)
    dh = np.zeros((n_batch, n_hidden))
    for t in range(n_steps - 1, -1, -1):
        m = trace.mask[:, t][:, None]
        h_prev = trace.h[:, t - 1] if t > 0 else np.zeros((n_batch, n_hidden))
        zt, rt, ct = trace.z[:, t], trace.r[:, t], trace.c[:, t]
        dht = dh + d_out[:, t] * m
        dh_new = dht * m
        dc = dh_new * (1.0 - zt)
        dz = dh_new * (h_prev - ct)
        da_c = dc * (1.0 - ct * ct)
        da_z = dz * zt * (1.0 - zt)
        drh = da_c @ p["u_c"].T
        dr = drh * h_prev
        da_r = dr * rt * (1.0 - rt)
        xt = trace.x[:, t]
        grads[f"{prefix}.w_z"] += xt.T @ da_z
        grads[f"{prefix}.w_r"] += xt.T @ da_r
        grads[f"{prefix}.w_c"] += xt.T @ da_c
        grads[f"{prefix}.u_z"] += h_prev.T @ da_z
        grads[f"{prefix}.u_r"] += h_prev.T @ da_r
        grads[f"{prefix}.u_c"] += (rt * h_prev).T @ da_c
        grads[f"{prefix}.b_z"] += da_z.sum(axis=0)
        grads[f"{prefix}.b_r"] += da_r.sum(axis=0)
        grads[f"{prefix}.b_c"] += da_c.sum(axis=0)
        dx[:, t] = da_z @ p["w_z"].T + da_r @ p["w_r"].T + da_c @ p["w_c"].T
        dh = dht * (1.0 - m) + dh_new * zt + drh * rt + da_z @ p["u_z"].T + da_r @ p["u_r"].T
    return dx


def bigru(h_in: np.ndarray, attention_mask, params: Params, *, with_trace: bool = False):
    """Bidirectional GRU encoding: row t is [forward state t ; backward state t]."""
    squeeze = h_in.ndim == 2
    x = h_in[None] if squeeze else h_in
    mask = np.asarray(attention_mask, dtype=np.float64)
    mask = mask[None] if mask.ndim == 1 else mask
    out_f, trace_f = _gru_run(x, mask, params, "gru_fwd")
    out_b_rev, trace_b = _gru_run(x[:, ::-1], mask[:, ::-1], params, "gru_bwd")
    out = np.concatenate([out_f, out_b_rev[:, ::-1]], axis=2)
    if squeeze:
        out = out[0]
    if with_trace:
        return out, (trace_f, trace_b)
    return out


def encode(token_ids, attention_mask, params: Params) -> np.ndarray:
    """Deterministic encoder pass: embedding then BiGRU, (B, T, 2h)."""
    return bigru(embed(token_ids, params["embed"]), attention_mask, params)


def ner_logits(h_bigru: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    return h_bigru @ w + b


def ner_predict(
    h: np.ndarray,
    attention_mask,
    params: Params,
    allowed: np.ndarray | None = None,
) -> list[list[int]]:
    """NER head: one Viterbi path per row of ``h`` (B, T, 2h), decoded in
    one batched call."""
    logits = ner_logits(h, params["ner_w"], params["ner_b"])
    return crf_decode(logits, params["crf_trans"], attention_mask, allowed=allowed)


def decode_constraint(config: ModelConfig, bio_labels: Sequence[str]) -> np.ndarray | None:
    """The BIO transition mask if the config asks for constrained decoding."""
    return bio_allowed_transitions(bio_labels) if config.bio_constrained_decode else None


def entity_pool(h_bigru: np.ndarray, entity_mask) -> np.ndarray:
    """Masked sum of hidden states over the pair's tokens."""
    mask = np.asarray(entity_mask, dtype=np.float64)
    if h_bigru.ndim == 2:
        if mask.sum() == 0:
            raise EmptyMask("entity mask selects no tokens")
        return (h_bigru * mask[:, None]).sum(axis=0)
    if np.any(mask.sum(axis=1) == 0):
        raise EmptyMask("entity mask selects no tokens in at least one row")
    return np.einsum("btk,bt->bk", h_bigru, mask)


def relation_features(
    e_pool: np.ndarray,
    head_type,
    tail_type,
    type_embed: np.ndarray,
    use_entity_type: bool = True,
) -> np.ndarray:
    """[pool ; type(head) ; type(tail)], or just the pool when types are off.

    The type embedding is a static lookup: the same type id always maps to
    the same vector, independent of sentence context.
    """
    if not use_entity_type:
        return e_pool
    head_vec = embed(head_type, type_embed)
    tail_vec = embed(tail_type, type_embed)
    return np.concatenate([e_pool, head_vec, tail_vec], axis=-1)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=-1, keepdims=True)


def relation_logits_and_probs(
    features: np.ndarray, w: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    logits = features @ w + b
    return logits, softmax(logits)


def relation_head(
    h: np.ndarray,
    entity_mask,
    head_type,
    tail_type,
    params: Params,
    config: ModelConfig,
    attention_mask=None,
) -> tuple[np.ndarray, ...]:
    """(pool mask, features, logits, probs) for B pair rows. ``h`` is
    (B, T, 2h) or one sentence's encoding shared by every row; with entity
    masks off the pool covers ``attention_mask`` (default: all of ``h``)."""
    entity_mask = np.asarray(entity_mask, dtype=np.float64)
    h = np.broadcast_to(h, entity_mask.shape + h.shape[-1:])
    pool_mask = entity_mask
    if not config.use_entity_mask:
        pool_mask = np.ones(entity_mask.shape) if attention_mask is None else attention_mask
    features = relation_features(entity_pool(h, pool_mask), head_type, tail_type,
                                 params["type_embed"], config.use_entity_type)
    logits, probs = relation_logits_and_probs(features, params["re_w"], params["re_b"])
    return pool_mask, features, logits, probs


def joint_loss(ner_nll: float, re_ce: float, alpha: float = 1.0, beta: float = 1.0) -> float:
    return alpha * ner_nll + beta * re_ce


# ---------------------------------------------------------------------------
# Full forward / backward
# ---------------------------------------------------------------------------


@dataclass
class ForwardTrace:
    config: ModelConfig
    batch: Batch
    emb: np.ndarray
    drop_emb: np.ndarray | None
    emb_d: np.ndarray
    gru_traces: tuple[GruTrace, GruTrace]
    h_bigru: np.ndarray
    drop_h: np.ndarray | None
    h_d: np.ndarray
    logits_ner: np.ndarray
    d_logits_ner: np.ndarray | None   # d sum-of-row-NLLs / d logits_ner
    d_crf_trans: np.ndarray | None    # d sum-of-row-NLLs / d crf_trans
    pool_mask: np.ndarray
    features: np.ndarray
    logits_re: np.ndarray
    probs_re: np.ndarray


@dataclass
class ForwardResult:
    ner_nll: float | None
    re_ce: float | None
    joint: float | None
    decoded: list[list[int]]
    re_probs: np.ndarray
    re_logits: np.ndarray
    ner_scores: np.ndarray
    trace: ForwardTrace | None


def _dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    keep = 1.0 - rate
    return (rng.random(shape) < keep).astype(np.float64) / keep


def forward(
    batch: Batch,
    params: Params,
    config: ModelConfig,
    mode: str = "train",
    rng: np.random.Generator | None = None,
    allowed: np.ndarray | None = None,
) -> ForwardResult:
    """Run the whole network on one batch of MSLR rows.

    Dropout is active only in train mode (after the embedding and after the
    BiGRU); eval mode is fully deterministic. Losses are computed only for
    labeled batches: a train-mode forward gets the CRF NLL and its gradients
    from one batched forward-backward pass (kept in the trace for
    ``backward``), an eval-mode forward runs the forward recursion only. The
    batch is also Viterbi-decoded under ``allowed`` (see
    ``decode_constraint``) for the training log's token accuracy.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    train = mode == "train"
    if train and config.dropout > 0.0 and rng is None:
        raise ValueError("train-mode forward with dropout > 0 needs an rng")

    mask = batch.attention_mask
    emb = embed(batch.token_ids, params["embed"])

    drop_emb = None
    emb_d = emb
    if train and config.dropout > 0.0:
        drop_emb = _dropout_mask(emb.shape, config.dropout, rng)
        emb_d = emb * drop_emb

    h_bigru, gru_traces = bigru(emb_d, mask, params, with_trace=True)

    drop_h = None
    h_d = h_bigru
    if train and config.dropout > 0.0:
        drop_h = _dropout_mask(h_bigru.shape, config.dropout, rng)
        h_d = h_bigru * drop_h

    logits = ner_logits(h_d, params["ner_w"], params["ner_b"])
    decoded = crf_decode(logits, params["crf_trans"], mask, allowed=allowed)
    pool_mask, features, logits_re, probs_re = relation_head(
        h_d, batch.entity_mask, batch.head_type, batch.tail_type, params, config,
        attention_mask=mask,
    )

    ner_nll_mean = re_ce_mean = joint = None
    d_logits = d_trans = None
    if batch.labeled:
        if train:
            nlls, d_logits, d_trans = crf_nll_grad(
                logits, batch.ner_labels, params["crf_trans"], mask
            )
        else:
            nlls = crf_nll(logits, batch.ner_labels, params["crf_trans"], mask)
        ner_nll_mean = float(np.mean(nlls))
        gold = batch.relation_label
        picked = probs_re[np.arange(batch.size), gold]
        re_ce_mean = float(np.mean(-np.log(picked)))
        joint = joint_loss(ner_nll_mean, re_ce_mean, config.alpha, config.beta)

    trace = None
    if train:
        trace = ForwardTrace(
            config=config, batch=batch, emb=emb, drop_emb=drop_emb, emb_d=emb_d,
            gru_traces=gru_traces, h_bigru=h_bigru, drop_h=drop_h, h_d=h_d,
            logits_ner=logits, d_logits_ner=d_logits, d_crf_trans=d_trans,
            pool_mask=pool_mask, features=features, logits_re=logits_re, probs_re=probs_re,
        )
    return ForwardResult(
        ner_nll=ner_nll_mean, re_ce=re_ce_mean, joint=joint, decoded=decoded,
        re_probs=probs_re, re_logits=logits_re, ner_scores=logits, trace=trace,
    )


def backward(trace: ForwardTrace, params: Params) -> Params:
    """Analytic gradients of the joint loss for every parameter array.

    The joint loss is the batch mean of alpha * NER-NLL + beta * RE-CE, so
    every per-row contribution is scaled by 1/B. Shared-encoder arrays
    accumulate contributions from both heads.
    """
    config = trace.config
    batch = trace.batch
    if not batch.labeled:
        raise ValueError("backward needs a labeled train-mode trace")
    n_batch = batch.size
    n_hidden = config.hidden_dim
    grads = zeros_like_params(params)

    # Relation head.
    d_logits_re = trace.probs_re.copy()
    d_logits_re[np.arange(n_batch), batch.relation_label] -= 1.0
    d_logits_re *= config.beta / n_batch
    grads["re_w"] += trace.features.T @ d_logits_re
    grads["re_b"] += d_logits_re.sum(axis=0)
    d_features = d_logits_re @ params["re_w"].T

    d_pool = d_features[:, : 2 * n_hidden]
    if config.use_entity_type:
        dt = config.entity_type_dim
        d_head = d_features[:, 2 * n_hidden : 2 * n_hidden + dt]
        d_tail = d_features[:, 2 * n_hidden + dt :]
        np.add.at(grads["type_embed"], batch.head_type, d_head)
        np.add.at(grads["type_embed"], batch.tail_type, d_tail)

    d_h_d = d_pool[:, None, :] * trace.pool_mask[:, :, None]

    # NER head through the CRF, whose gradients the forward pass computed.
    scale = config.alpha / n_batch
    d_logits_ner = trace.d_logits_ner * scale
    grads["crf_trans"] += trace.d_crf_trans * scale
    grads["ner_w"] += np.einsum("btk,btl->kl", trace.h_d, d_logits_ner)
    grads["ner_b"] += d_logits_ner.sum(axis=(0, 1))
    d_h_d = d_h_d + d_logits_ner @ params["ner_w"].T

    d_h_bigru = d_h_d if trace.drop_h is None else d_h_d * trace.drop_h

    trace_f, trace_b = trace.gru_traces
    d_x_f = _gru_backprop(trace_f, d_h_bigru[:, :, :n_hidden], params, "gru_fwd", grads)
    d_x_b_rev = _gru_backprop(
        trace_b, d_h_bigru[:, ::-1, n_hidden:], params, "gru_bwd", grads
    )
    d_emb_d = d_x_f + d_x_b_rev[:, ::-1]

    d_emb = d_emb_d if trace.drop_emb is None else d_emb_d * trace.drop_emb
    flat_ids = batch.token_ids.reshape(-1)
    np.add.at(grads["embed"], flat_ids, d_emb.reshape(len(flat_ids), -1))
    return grads


# ---------------------------------------------------------------------------
# Checkpoint and pretrained-embedding containers
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"CTIECKPT"
_EMB_MAGIC = b"CTIEEMBD"
_FORMAT_VERSION = 1


def _write_container(path: Path, magic: bytes, header: dict, arrays: list[np.ndarray]) -> None:
    """Write to a temporary file beside ``path``, then rename it into place:
    a write that fails midway leaves any previous file at ``path`` intact."""
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(magic)
            fh.write(struct.pack("<I", _FORMAT_VERSION))
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            for arr in arrays:
                fh.write(np.ascontiguousarray(arr).tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_container(path: Path, magic: bytes) -> tuple[dict, bytes]:
    """(JSON header, payload bytes). A file cut inside the fixed or the
    JSON header, or a header that does not decode, raises SchemaError."""
    raw = Path(path).read_bytes()
    fixed = len(magic) + 12
    if len(raw) < fixed:
        raise SchemaError(f"{path}: {len(raw)} bytes, shorter than a container header")
    if raw[: len(magic)] != magic:
        raise SchemaError(f"{path}: bad magic, not a {magic.decode()} file")
    version, header_len = struct.unpack_from("<IQ", raw, len(magic))
    if version != _FORMAT_VERSION:
        raise SchemaError(f"{path}: unsupported container version {version}")
    end = fixed + header_len
    if len(raw) < end:
        raise SchemaError(f"{path}: file ends inside its {header_len}-byte JSON header")
    try:
        header = json.loads(raw[fixed:end].decode("utf-8"))
    except ValueError as exc:
        raise SchemaError(f"{path}: JSON header does not decode ({exc})") from None
    if not isinstance(header, dict):
        raise SchemaError(f"{path}: JSON header is not an object")
    return header, raw[end:]


def _check_payload(path, payload: bytes, nbytes: int) -> None:
    if len(payload) != nbytes:
        raise SchemaError(
            f"{path}: payload holds {len(payload)} bytes, the header declares {nbytes}"
        )


@dataclass
class Checkpoint:
    config: ModelConfig
    params: Params
    extras: dict = field(default_factory=dict)


def save_checkpoint(path, params: Params, config: ModelConfig, extras: dict | None = None) -> None:
    names = sorted(params)
    manifest = []
    offset = 0
    for name in names:
        arr = params[name]
        nbytes = arr.size * 8
        manifest.append(
            {"name": name, "dtype": "float64", "shape": list(arr.shape), "offset": offset}
        )
        offset += nbytes
    header = {
        "kind": "checkpoint",
        "config": config.to_dict(),
        "extras": extras or {},
        "arrays": manifest,
    }
    _write_container(Path(path), _CKPT_MAGIC, header, [
        np.asarray(params[n], dtype=np.float64) for n in names
    ])


def load_checkpoint(path) -> Checkpoint:
    header, payload = _read_container(Path(path), _CKPT_MAGIC)
    try:
        config = ModelConfig.from_dict(header["config"])
        manifest = [(e["name"], tuple(e["shape"]), e["offset"]) for e in header["arrays"]]
        _check_payload(path, payload, sum(8 * math.prod(shape) for _, shape, _ in manifest))
        params: Params = {
            name: np.frombuffer(
                payload, dtype=np.float64, count=math.prod(shape), offset=offset
            ).reshape(shape).copy()
            for name, shape, offset in manifest
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed checkpoint manifest ({exc})") from None
    validate_params(params, config)
    return Checkpoint(config=config, params=params, extras=header.get("extras", {}))


def save_embedding_file(path, vectors: np.ndarray, vocab_hash: str) -> None:
    vectors = np.asarray(vectors, dtype=np.float64)
    header = {
        "kind": "token-embeddings",
        "vocab_hash": vocab_hash,
        "count": int(vectors.shape[0]),
        "dim": int(vectors.shape[1]),
    }
    _write_container(Path(path), _EMB_MAGIC, header, [vectors])


def load_embedding_file(path, expected_vocab_hash: str | None = None) -> np.ndarray:
    header, payload = _read_container(Path(path), _EMB_MAGIC)
    try:
        vocab_hash = str(header["vocab_hash"])
        if expected_vocab_hash is not None and vocab_hash != expected_vocab_hash:
            raise SchemaError(
                "embedding file was built for a different vocabulary "
                f"(hash {vocab_hash[:12]}... != {expected_vocab_hash[:12]}...)"
            )
        count, dim = int(header["count"]), int(header["dim"])
        _check_payload(path, payload, 8 * count * dim)
        return np.frombuffer(payload, dtype=np.float64).reshape(count, dim).copy()
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed embedding header ({exc})") from None
