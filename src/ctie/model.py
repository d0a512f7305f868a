"""Joint NER + relation model: embedding, BiGRU, CRF head, relation head.

    encode:         token ids -> embedding -> BiGRU -> H
    NER head:       H -> dense -> CRF, decoded by Viterbi (``ner_predict``)
    relation head:  H -> sum over each entity span's tokens -> span pool
                    [pool(head) + pool(tail) ; type_emb(head) ; type_emb(tail)]
                    -> dense -> softmax, split into per-span and per-type terms

Inference and validation encode a sentence once (``encode``) and score all
its pairs, candidate or annotated, from that H: pairs differ only in entity
spans and type ids, which the encoder never reads; every path scores them
with ``score_pairs``, which pools each span once. Without dropout and with
fixed weights a token's GRU input pre-activations depend on its id only, so
``encode`` gathers them from an ``InputProjection``, which computes each
id's once, and runs only the recurrence. Training (``forward``,
which has no eval mode) keeps one MSLR row per annotated pair, with dropout
after the embedding and after the BiGRU; it encodes and CRF-scores each
distinct sentence of a batch once, under masks its rows share. Viterbi takes an
optional BIO transition mask as an argument; callers build it once from
their ``TypeSystem`` with ``decode_constraint``.

The joint training loss is ``alpha * crf_nll + beta * re_cross_entropy``.
Everything is plain float64 numpy; ``backward`` returns exact analytic
gradients for every parameter array (checked against finite differences
in the test suite).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import struct
from dataclasses import dataclass, asdict, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import TypeSystem
from .crf import bio_allowed_transitions, check_padding_mask, crf_decode, crf_nll_grad
from .errors import EmptyMask, IdOutOfRange, SchemaError
from .mslr import Batch, Vocabulary

Params = dict[str, np.ndarray]


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
        check_field_types(self)
        check_field_ranges(self, _MODEL_RANGES)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ModelConfig":
        return cls(**payload)


_FIELD_TYPES = {"int": ((int,), "an integer"), "float": ((int, float), "a number"),
                "bool": ((bool,), "true or false")}


def check_field_types(config) -> None:
    """ValueError naming the first field of the dataclass ``config`` whose
    value is not of its annotated type: an int field takes ints, a float
    field ints and floats, a bool field only bools, and no other field a
    bool; a field annotated ``X | None`` also takes None."""
    for f in fields(config):
        value = getattr(config, f.name)
        kind, _, optional = f.type.partition(" | ")
        accepted, described = _FIELD_TYPES[kind]
        if value is None and optional:
            continue
        if not isinstance(value, accepted) or isinstance(value, bool) != (kind == "bool"):
            raise ValueError(f"{f.name} must be {described}"
                             f"{' or null' if optional else ''}, got {value!r}")


POSITIVE = (lambda v: v > 0, "positive")
AT_LEAST_ONE = (lambda v: v >= 1, "at least 1")
FINITE_POSITIVE = (lambda v: 0 < v < math.inf, "finite and > 0")
FINITE_NON_NEGATIVE = (lambda v: 0 <= v < math.inf, "finite and >= 0")
UNIT_INTERVAL = (lambda v: 0 <= v < 1, "in [0, 1)")

_MODEL_RANGES = {
    **dict.fromkeys(("vocab_size", "num_ner_labels", "num_relations", "num_entity_types",
                     "embed_dim", "hidden_dim"), POSITIVE),
    "dropout": UNIT_INTERVAL,
    "alpha": FINITE_NON_NEGATIVE,
    "beta": FINITE_NON_NEGATIVE,
}


def check_field_ranges(config, ranges: dict) -> None:
    """ValueError naming the first field of ``config`` whose value fails its
    (test, description) in ``ranges``; NaN fails every test, since every
    comparison with it is false."""
    for name, (test, described) in ranges.items():
        value = getattr(config, name)
        if not test(value):
            raise ValueError(f"{name} must be {described}, got {value!r}")


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    d, h = config.embed_dim, config.hidden_dim
    return {
        "embed": (config.vocab_size, d),
        # both GRU directions, forward then backward; columns in gate order [z | r | c]
        "gru.w": (2, d, 3 * h),
        "gru.u": (2, h, 3 * h),
        "gru.b": (2, 3 * h),
        "type_embed": (config.num_entity_types, config.entity_type_dim),
        "ner_w": (2 * h, config.num_ner_labels),
        "ner_b": (config.num_ner_labels,),
        "crf_trans": (config.crf_size, config.crf_size),
        "re_w": (config.concat_dim, config.num_relations),
        "re_b": (config.num_relations,),
    }


def init_params(
    config: ModelConfig,
    seed: int = 42,
    pretrained_embed: np.ndarray | None = None,
) -> Params:
    """Seeded initialization in a fixed draw order.

    Embedding tables are uniform(-0.1, 0.1); dense matrices and each GRU
    gate's block use Xavier-scaled uniform; biases and CRF transitions
    start at zero. The GRU blocks are drawn z, r, c for ``w`` then for
    ``u``, the forward direction's first. The relation head is drawn last
    so that NER-side parameters are identical across feature-toggle
    configurations sharing a seed.
    """
    config.validate()
    rng = np.random.default_rng(seed)
    params: Params = {}

    def embedding(shape):
        return rng.uniform(-0.1, 0.1, size=shape)

    def xavier(shape):
        limit = np.sqrt(6.0 / (shape[0] + shape[1]))
        return rng.uniform(-limit, limit, size=shape)

    h = config.hidden_dim
    shapes = param_shapes(config)
    params["embed"] = embedding(shapes["embed"])
    params["gru.w"] = w = np.empty(shapes["gru.w"])
    params["gru.u"] = u = np.empty(shapes["gru.u"])
    for blocks in (w[0], u[0], w[1], u[1]):  # the draw order
        for gate in range(3):
            blocks[:, gate * h:(gate + 1) * h] = xavier((len(blocks), h))
    params["gru.b"] = np.zeros(shapes["gru.b"])
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


# ---------------------------------------------------------------------------
# Layer operations
# ---------------------------------------------------------------------------


def _check_ids(ids: np.ndarray, n_ids: int) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= n_ids):
        raise IdOutOfRange(
            f"token id out of range [0, {n_ids}): min={ids.min()}, max={ids.max()}"
        )


def embed(token_ids, table: np.ndarray) -> np.ndarray:
    ids = np.asarray(token_ids)
    _check_ids(ids, table.shape[0])
    return table[ids]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, written over ``x`` and returned; ``exp`` only ever
    sees ``-|x|``, so it cannot overflow. Per element this is 1 / (1 + e)
    for x >= 0 and e / (1 + e) below, with e = exp(-|x|). The numerator is
    ``max(e, x >= 0)``, that is 1 or e since e <= 1, with no per-element
    branch to mispredict on random signs."""
    e = np.copysign(x, -1.0)
    np.exp(e, out=e)
    numerator = np.maximum(e, x >= 0)
    e += 1.0
    return np.divide(numerator, e, out=x)


def _gate_slices(n_hidden: int) -> tuple[slice, slice, slice, slice]:
    """Column slices of the z, r and c gates, and of z|r, in a
    gate-concatenated (..., 3h) array."""
    z, r, c = (slice(k * n_hidden, (k + 1) * n_hidden) for k in range(3))
    return z, r, c, slice(0, 2 * n_hidden)


# above half of one core's 2 MiB L2, both u arrays of a lockstep step evict each other
LOCKSTEP_MAX_BYTES = 1 << 20


def _direction_groups(params: Params) -> tuple[slice, ...]:
    """The groups of GRU directions whose recurrences walk in lockstep, as
    slices of the stacked ``gru.*`` arrays: both directions together when
    their ``u`` arrays fit ``LOCKSTEP_MAX_BYTES`` (32/16 dims), else one
    walk each (768/256)."""
    if params["gru.u"].nbytes <= LOCKSTEP_MAX_BYTES:
        return (slice(0, 2),)
    return (slice(0, 1), slice(1, 2))


@dataclass
class Packing:
    """The valid (step, row) cells of a padded (B, T) batch in the layout of
    PyTorch's ``PackedSequence``: rows in stable longest-first order, cells
    time-major, so the n active rows of a step are the first n sorted rows.
    Cell i is step ``steps[i]`` of sorted row ``rows[i]``, which is the
    caller's row ``callers[i]``. ``segments`` are the runs of steps with one
    active count n, as (first step, number of steps, n, slice of packed
    cells). The backward GRU direction walks each row from its last token:
    its step k of a length-l row reads token l-1-k, so at every step both
    directions have the same active rows. ``rev`` is that cell permutation,
    (k, row) <-> (l-1-k, row), its own inverse. A batch without padding
    packs as its time-major transpose: ``order`` is then None (identity),
    there is one segment, and ``rev`` reverses time.

    The recurrence's buffers are step-major (``blocks``): for a group of D
    directions walked in lockstep, each step's cells, gate by gate, then
    direction by direction, then row by row, are one contiguous block, so
    a step's numpy calls run on contiguous memory. ``to_blocks`` and
    ``from_blocks`` lay packed cells out so and back, once per call, with
    one copy per segment."""

    n_batch: int
    n_steps: int
    segments: list[tuple[int, int, int, slice]]
    rev: np.ndarray                    # (P,)
    order: np.ndarray | None = None    # (B,) caller's row of each sorted row
    steps: np.ndarray | None = None    # (P,)
    rows: np.ndarray | None = None     # (P,)
    callers: np.ndarray | None = None  # (P,)

    @classmethod
    def from_mask(cls, keep: np.ndarray) -> "Packing":
        """The packing of a boolean (B, T) padding mask."""
        n_batch, n_steps = keep.shape
        if keep.all():
            rev = np.arange(n_batch * n_steps).reshape(n_steps, n_batch)[::-1].ravel()
            return cls(n_batch, n_steps, [(0, n_steps, n_batch, slice(0, rev.size))], rev)
        lengths = keep.sum(axis=1)
        order = np.argsort(-lengths, kind="stable")
        steps, rows = np.nonzero(keep[order].T)
        counts = keep.sum(axis=0)
        offsets = np.cumsum(counts) - counts  # packed offset of each step
        callers = order[rows]
        rev = offsets[lengths[callers] - 1 - steps] + rows
        counts = counts.tolist()
        segments, first = [], 0
        for t in range(1, n_steps + 1):
            if t == n_steps or counts[t] != counts[first]:
                if counts[first]:
                    n, offset = counts[first], int(offsets[first])
                    segments.append((first, t - first, n, slice(offset, offset + (t - first) * n)))
                first = t
        return cls(n_batch, n_steps, segments, rev, order, steps, rows, callers)

    def pack(self, a: np.ndarray) -> np.ndarray:
        """The valid cells of a (B, T, ...) array, as a (P, ...) array."""
        if self.order is None:
            return np.ascontiguousarray(a.swapaxes(0, 1)).reshape(-1, *a.shape[2:])
        return a[self.callers, self.steps]

    def pack_walks(self, a: np.ndarray, split: bool = False) -> np.ndarray:
        """The valid cells of a (B, T, ...) array in each direction's walk
        order, as one (2, P, ...) array: the packed cells, then their
        permutation through ``rev``. With ``split``, ``a`` is (B, T, 2, ...)
        and walk i reads ``a[:, :, i]`` only."""
        if self.order is None:
            a = a.swapaxes(0, 1)
            walks = np.empty((2,) + a.shape[:2] + a.shape[2 + split:], a.dtype)
            walks[0], walks[1] = (a[:, :, 0], a[::-1, :, 1]) if split else (a, a[::-1])
            return walks.reshape(2, -1, *walks.shape[3:])
        index = (self.callers, np.stack((self.steps, self.steps[self.rev])))
        return a[index + (([[0], [1]],) if split else ())]

    def blocks(self, buf: np.ndarray, n_dirs: int, n_gates: int | None = None) -> list:
        """Per segment, the (..., n_k, [n_gates,] D, n, w) view of
        step-major buffers ``buf`` (..., R, w), R = ``n_gates`` · D · P:
        step by step, each step's (``n_gates``,) D directions and n active
        rows as one contiguous block."""
        lead, gates = buf.shape[:-2], () if n_gates is None else (n_gates,)
        per_cell = n_dirs * (n_gates or 1)
        return [buf[..., per_cell * cells.start:per_cell * cells.stop, :].reshape(
                    *lead, n_k, *gates, n_dirs, n, -1)
                for _, n_k, n, cells in self.segments]

    def walk_blocks(self, walks: np.ndarray, n_gates: int | None = None) -> list:
        """Per segment, the view of packed cells ``walks`` (G, D, P,
        [n_gates ·] w) in the order of ``blocks``: (G, n_k, [n_gates,] D,
        n, w), strided."""
        n_groups, n_dirs = walks.shape[:2]
        if n_gates is None:  # (G, D, n_k, n, w) -> (G, n_k, D, n, w)
            gates, axes = (), (0, 2, 1, 3, 4)
        else:  # (G, D, n_k, n, g, w) -> (G, n_k, g, D, n, w)
            gates, axes = (n_gates,), (0, 2, 4, 1, 3, 5)
        return [walks[:, :, cells].reshape(n_groups, n_dirs, n_k, n, *gates, -1).transpose(axes)
                for _, n_k, n, cells in self.segments]

    def _walk_order(self, n_dirs: int, n_gates: int | None) -> bool:
        """Whether step-major buffers hold their cells in the packed walk
        order already: one direction per group, and no gate axis or one row
        per step."""
        return n_dirs == 1 and (n_gates is None or self.n_batch == 1)

    def to_blocks(self, walks: np.ndarray, n_dirs: int, n_gates: int | None = None) -> np.ndarray:
        """The step-major buffers (G, R, w) (``blocks``) of G walk groups of
        ``n_dirs`` directions, from their packed cells (G · D, P,
        [n_gates ·] w): one copy per segment, or a view of ``walks`` where
        the orders agree (``_walk_order``)."""
        if self._walk_order(n_dirs, n_gates):
            return walks.reshape(len(walks), -1, walks.shape[-1] // (n_gates or 1))
        grouped = walks.reshape(len(walks) // n_dirs, n_dirs, *walks.shape[1:])
        n_rows = (n_gates or 1) * n_dirs * walks.shape[1]
        buf = np.empty((len(grouped), n_rows, walks.shape[-1] // (n_gates or 1)), walks.dtype)
        for dst, src in zip(self.blocks(buf, n_dirs, n_gates), self.walk_blocks(grouped, n_gates)):
            dst[...] = src
        return buf

    def from_blocks(self, buf: np.ndarray, n_dirs: int, n_gates: int | None = None) -> np.ndarray:
        """The packed cells (G · D, P, [n_gates ·] w) of G step-major
        buffers ``buf`` (G, R, w): the inverse of ``to_blocks``, a view of
        ``buf`` where the orders agree."""
        if self._walk_order(n_dirs, n_gates):
            return buf.reshape(len(buf), len(self.rev), -1)
        walks = np.empty((len(buf), n_dirs, len(self.rev), buf.shape[-1] * (n_gates or 1)))
        for dst, src in zip(self.walk_blocks(walks, n_gates), self.blocks(buf, n_dirs, n_gates)):
            dst[...] = src
        return walks.reshape(len(buf) * n_dirs, *walks.shape[2:])

    def prev_states(self, states: np.ndarray, n_dirs: int) -> np.ndarray:
        """(D, P, h) from one walk group's step-major states (D · P, h): the
        state each packed cell's step reads, the previous step's (its first
        n rows at a segment's first step), zero at step 0."""
        prev = np.empty((1, n_dirs, len(self.rev), states.shape[-1]))
        last = np.zeros((n_dirs, self.n_batch, states.shape[-1]))  # the start state
        for dst, hs in zip(self.walk_blocks(prev), self.blocks(states, n_dirs)):
            dst[0, 0] = last[:, :hs.shape[-2]]
            dst[0, 1:] = hs[:-1]
            last = hs[-1]
        return prev[0]

    def unpack(self, states: np.ndarray, n_dirs: int) -> np.ndarray:
        """The (B, T, 2, h) states of both walks, forward then backward, in
        the caller's row and token order and zero at padding, from their
        step-major buffers (G, D · P, h)."""
        out = np.zeros((self.n_batch, self.n_steps, 2, states.shape[-1]))
        if self.order is None:  # (G, T, D, B, h): the first walk is the forward one
            steps = states.reshape(len(states), self.n_steps, n_dirs, self.n_batch, -1)
            out[:, :, 0] = steps[0, :, 0].swapaxes(0, 1)
            out[:, :, 1] = steps[-1, ::-1, -1].swapaxes(0, 1)
        else:
            index = (self.callers, np.stack((self.steps, self.steps[self.rev])), [[0], [1]])
            out[index] = self.from_blocks(states, n_dirs)
        return out


@dataclass
class GruTrace:
    """Both directions' BiGRU activations. ``x`` holds each direction's
    packed cells in its walk order (``Packing``), as the ``w`` gradient
    GEMM reads them; ``gates`` and ``h`` hold one step-major buffer
    (``Packing.blocks``) per walk group, as the walk wrote them. BPTT
    reads them into the packed layout once per call, and each of its steps
    reads its z and r activations as contiguous blocks."""

    x: np.ndarray        # (2, P, d) packed inputs
    packing: Packing
    gates: np.ndarray    # (G, 3·D·P, h) activations z, r, c: per step a (3, D, n, h) block
    h: np.ndarray        # (G, D·P, h) the state after each step: per step a (D, n, h) block
    groups: tuple[slice, ...]  # the G groups of D directions walked in lockstep


def _input_preactivations(x: np.ndarray, params: Params) -> np.ndarray:
    """Both directions' input pre-activations ``x @ w + b``, (2, P, 3h),
    from their own inputs ``x`` (2, P, d) or from inputs (P, d) they share."""
    pre = np.matmul(x, params["gru.w"])
    pre += params["gru.b"][:, None]
    return pre


def _gru_run(gates: np.ndarray, h: np.ndarray, packing: Packing, u: np.ndarray) -> None:
    """The recurrences of D directions in lockstep, over the step-major
    blocks (``Packing.blocks``) of their input pre-activations ``gates``
    (3 · D · P, h), with recurrent weights ``u`` (D, h, 3h); writes the
    states into ``h`` (D · P, h). Step k overwrites its (3, D, n, h) block
    of ``gates`` with its activations, after one batched recurrent GEMM for
    z|r, added through a (2, D, n, h) view of its (D, n, 2h) result, and
    one for c, on the n rows active at it. Its previous state is the
    previous step's (D, n, h) block, the first n rows of it at a segment's
    first step (padding is a suffix of each row's walk), zero at step 0.
    So every elementwise operand of a step is one contiguous block. At
    32/16 a step costs calls, not arithmetic, and a call on a strided gate
    view costs more: a ``tanh`` on a (2, 1, 16) view took 3.8 µs against
    2.0 µs on the same 32 contiguous floats, ``_sigmoid`` on the z|r view
    13.5 against 8.4 µs; a one-sentence encode got ×1.2–1.6 faster."""
    n_dirs, n_hidden = len(u), u.shape[1]
    u_zr, u_c = u[..., :2 * n_hidden], u[..., 2 * n_hidden:]
    h_prev = np.zeros((n_dirs, packing.n_batch, n_hidden))
    for seg, hs in zip(packing.blocks(gates, n_dirs, 3), packing.blocks(h, n_dirs)):
        n = hs.shape[-2]
        h_prev = h_prev[:, :n]
        zr = np.empty((n_dirs, n, 2 * n_hidden))
        zr_gates = zr.reshape(n_dirs, n, 2, n_hidden).transpose(2, 0, 1, 3)
        for blk, h_t in zip(seg, hs):
            a_zr, zt, rt, ct = blk[:2], blk[0], blk[1], blk[2]
            np.matmul(h_prev, u_zr, out=zr)
            a_zr += zr_gates
            _sigmoid(a_zr)
            ct += (rt * h_prev) @ u_c
            np.tanh(ct, out=ct)
            np.subtract(1.0, zt, out=h_t)
            h_t *= ct
            h_t += zt * h_prev
            h_prev = h_t


def _gru_backprop(trace: GruTrace, group: slice, d_out: np.ndarray, params: Params,
                  grads: Params, d_x: np.ndarray | None) -> None:
    """Backpropagation through time for the directions ``group`` of
    ``trace``, in lockstep; ``d_out`` (D, P, h) is the packed gradient of
    their states. Writes each direction's ``w``, ``u`` and ``b`` gradients
    into ``grads`` and its packed input gradient into ``d_x`` (D, P, d),
    unless ``d_x`` is None (a frozen embedding reads no input gradient). A
    step makes only the recurrent products on its active rows, batched
    over D, and stores its gate pre-activation gradients in one packed
    (D, P, 3h) buffer; after the loop each weight gradient and the input
    gradient is one GEMM on it, batched over D. The state gradient of a
    row not yet active is zero, and a row no longer active is never read
    again. The step-major trace is read once into the packed layout
    (``Packing.from_blocks``, ``Packing.prev_states``); a step reads its
    z and r activations from its contiguous trace block. The loop itself
    stays on the packed layout: step-major BPTT blocks ran at ×0.92–1.00
    per call at 768/256 and needed one more gate-sized buffer.

    The gates' local derivatives depend on the forward values only, so they
    are computed for all P cells before the loop, in place of a packed copy
    of the activations: (1 - z)(1 - c^2) for c, (h_prev - c) z (1 - z) for
    z and h_prev r (1 - r) for r. A step then multiplies its cells by their
    state gradients in place."""
    packing = trace.packing
    u = params["gru.u"][group]
    n_dirs, n_hidden = len(u), u.shape[1]
    walks = trace.groups.index(group)  # the group's step-major buffers in the trace
    blocks = trace.gates[walks]
    z, r, c, zr = _gate_slices(n_hidden)
    # views: a contiguous copy of u would make BLAS pick another kernel
    u_zr_t, u_c_t = u[..., zr].swapaxes(1, 2), u[..., c].swapaxes(1, 2)
    h_prev = packing.prev_states(trace.h[walks], n_dirs)
    d_a = packing.from_blocks(blocks[None], n_dirs, 3)
    if np.may_share_memory(d_a, blocks):  # one row per step: the trace's own buffer
        d_a = d_a.copy()
    g_z, g_r, g_c = (d_a[..., s] for s in (z, r, c))
    one_minus_z = np.subtract(1.0, g_z)
    r_h_prev = g_r * h_prev
    tmp = np.subtract(h_prev, g_c)
    tmp *= g_z
    np.multiply(tmp, one_minus_z, out=g_z)
    np.multiply(g_c, g_c, out=g_c)
    np.subtract(1.0, g_c, out=g_c)
    g_c *= one_minus_z
    np.subtract(1.0, g_r, out=tmp)
    tmp *= g_r
    np.multiply(tmp, h_prev, out=g_r)
    # freed first: one more gate-sized temporary made glibc trim and regrow the
    # heap, with its page faults, on every training step
    del tmp, one_minus_z
    dh = np.zeros((n_dirs, packing.n_batch, n_hidden))
    for (_, n_k, n, cells), seg in zip(reversed(packing.segments),
                                       reversed(packing.blocks(blocks, n_dirs, 3))):
        d_seg, d_out_seg = (a[:, cells].reshape(n_dirs, n_k, n, -1).swapaxes(0, 1)
                            for a in (d_a, d_out))
        d_z, d_r, d_c, d_zr = (d_seg[..., s] for s in (z, r, c, zr))
        dh_n = dh[:, :n]
        for k in range(n_k - 1, -1, -1):
            dh_n += d_out_seg[k]  # now the gradient of the step's new state
            da_c = np.multiply(d_c[k], dh_n, out=d_c[k])
            drh = da_c @ u_c_t
            np.multiply(d_z[k], dh_n, out=d_z[k])
            np.multiply(d_r[k], drh, out=d_r[k])
            dh_n *= seg[k, 0]
            drh *= seg[k, 1]
            dh_n += drh
            dh_n += d_zr[k] @ u_zr_t
    g_u = grads["gru.u"][group]
    np.matmul(trace.x[group].swapaxes(1, 2), d_a, out=grads["gru.w"][group])
    np.matmul(h_prev.swapaxes(1, 2), d_a[..., zr], out=g_u[..., zr])
    np.matmul(r_h_prev.swapaxes(1, 2), d_a[..., c], out=g_u[..., c])
    d_a.sum(axis=1, out=grads["gru.b"][group])
    if d_x is not None:
        np.matmul(d_a, params["gru.w"][group].swapaxes(1, 2), out=d_x)


class InputProjection:
    """Both GRU directions' input pre-activations ``embed[id] @ w + b`` per
    token id of one fixed ``params``, as (2, V, 3h) rows, forward then
    backward.

    At inference there is no dropout and the weights are fixed, so a
    token's pre-activations depend on its id only. A row is computed the
    first time its id is looked up, in one GEMM over the new ids only; a
    lookup of ids all seen before is one gather. The rows hold the values
    of ``params`` when they were computed: once ``params`` change, build a
    new projection."""

    def __init__(self, params: Params):
        self.params = params
        n_vocab, width = params["embed"].shape[0], params["gru.b"].shape[1]
        self.rows = np.empty((2, n_vocab, width))  # an unfilled row is never read
        self.filled = np.zeros(n_vocab, dtype=bool)
        # gate g of id i for walk k is row 3 i + (3 V k + g) of rows as (2 * V * 3, h)
        self.gate_rows = np.arange(2)[:, None, None] * 3 * n_vocab + np.arange(3)

    def __call__(self, token_ids, packing: Packing, n_dirs: int) -> np.ndarray:
        """The pre-activations of the walks' token ids ``token_ids`` (2, P),
        the forward direction's of ``token_ids[0]`` and the backward's of
        ``token_ids[1]``, gathered straight into the step-major gate buffers
        (G, 3 · D · P, h) of ``packing`` (``Packing.to_blocks``) for walk
        groups of ``n_dirs`` directions; ``IdOutOfRange`` for an id outside
        the vocabulary, before anything is filled."""
        ids = np.asarray(token_ids)
        n_vocab = len(self.filled)
        _check_ids(ids, n_vocab)
        new = ~self.filled[ids]
        if new.any():
            # np.unique would sort too, and it imports numpy.ma on first use
            mark = np.zeros(n_vocab, dtype=bool)
            mark[ids[new]] = True
            new_ids = np.flatnonzero(mark)
            # a one-row product runs as a GEMV, whose bits differ from a GEMM row's, so a
            # row would depend on the ids new with it: with one new id, compute two rows
            computed = np.resize(new_ids, max(2, len(new_ids)))
            self.rows[:, new_ids] = _input_preactivations(
                self.params["embed"][computed], self.params)[:, : len(new_ids)]
            self.filled[new_ids] = True
        rows = packing.to_blocks(ids[..., None] * 3 + self.gate_rows, n_dirs, 3)[..., 0]
        return np.take(self.rows.reshape(-1, self.rows.shape[-1] // 3), rows, axis=0)


def bigru(h_in: np.ndarray, attention_mask, params: Params, *, with_trace: bool = False,
          projection: InputProjection | None = None):
    """Bidirectional GRU encoding: row t is [forward state t ; backward state t].

    ``h_in`` is the (B, T, d) input, whose pre-activations ``x @ w + b``
    each direction computes; or, with ``projection`` (an
    ``InputProjection`` of ``params``), the (B, T) token ids, whose
    pre-activations are gathered from it. ``with_trace`` serves the first
    form only, since ``backward`` reads the inputs from the trace; with a
    projection it is a ``ValueError``. A 1-D mask takes one unbatched row.
    The mask marks padding only: each row is ones then zeros, and any other
    mask is a ``ValueError``. Each direction reads the valid cells in its
    walk order (``Packing``), the backward's row-aligned, so both run on
    the same active rows at every step: in lockstep while their ``u``
    arrays fit in cache together (``_direction_groups``), else one after
    the other. The pre-activations are laid out once in each walk group's
    step-major buffer (``Packing.to_blocks``), which the walk overwrites
    with its activations. From inputs, the packed pre-activations and
    their step-major copy are both held while it is made, a transient
    peak of two (2, P, 3h) buffers (one where each direction walks alone
    over one row, and the copy is a view); through a projection the
    gather writes the step-major buffers directly, so an encoder chunk
    (``evaluation.ENCODE_CELLS``) holds one.
    The output is (B, T, 2h) in the caller's row order, zero at padding."""
    if with_trace and projection is not None:
        raise ValueError("with_trace needs the inputs, not token ids through a projection")
    keep = np.asarray(attention_mask) != 0
    squeeze = keep.ndim == 1
    if squeeze:
        keep, h_in = keep[None], h_in[None]
    check_padding_mask(keep)
    packing = Packing.from_mask(keep)
    groups = _direction_groups(params)
    n_dirs = 2 // len(groups)
    x = packing.pack_walks(h_in)
    if projection is None:
        gates = packing.to_blocks(_input_preactivations(x, params), n_dirs, 3)
    elif projection.params is not params:
        raise ValueError("the projection was built from other params")
    else:
        gates = projection(x, packing, n_dirs)
    h = np.empty((len(groups), n_dirs * len(packing.rev), params["gru.u"].shape[1]))
    for i, group in enumerate(groups):
        _gru_run(gates[i], h[i], packing, params["gru.u"][group])
    out = packing.unpack(h, n_dirs).reshape(*keep.shape, -1)
    if squeeze:
        out = out[0]
    if with_trace:
        return out, GruTrace(x, packing, gates, h, groups)
    return out


def encode(token_ids, attention_mask, params: Params,
           projection: InputProjection | None = None) -> np.ndarray:
    """Deterministic encoder pass, (B, T, 2h): the BiGRU over the token
    ids' input pre-activations from ``projection`` (a new
    ``InputProjection`` of ``params`` when none is given)."""
    if projection is None:
        projection = InputProjection(params)
    return bigru(np.asarray(token_ids), attention_mask, params, projection=projection)


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


def span_pool(h: np.ndarray, rows, bounds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pools (S, w), cells (N,), owner (N,)): span s of the padded
    encodings ``h`` (B, T, w) sums the tokens ``bounds[s]`` = [start, end)
    of row ``rows[s]``. ``cells`` are the flat (row, token) cells of all
    pooled tokens, span by span, and ``owner`` their spans. The tokens are
    added in order in a zero-padded (S, longest span, w) block, so a span's
    pool depends neither on how wide ``h`` is padded nor on the other
    spans. An empty span is an ``EmptyMask``, raised before any sum."""
    rows, bounds = np.asarray(rows), np.asarray(bounds)
    sizes = bounds[:, 1] - bounds[:, 0]
    if (sizes <= 0).any():
        raise EmptyMask("an entity span selects no tokens")
    inside = np.arange(sizes.max()) < sizes[:, None]
    owner, step = inside.nonzero()
    cells = (rows * h.shape[1] + bounds[:, 0])[owner] + step
    tokens = np.zeros(inside.shape + h.shape[-1:])
    tokens[inside] = h.reshape(-1, h.shape[-1])[cells]
    return tokens.sum(axis=1), cells, owner


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, in one new array; ``logits`` is left as it was."""
    out = logits - np.max(logits, axis=-1, keepdims=True)
    np.exp(out, out=out)
    return np.divide(out, out.sum(axis=-1, keepdims=True), out=out)


@dataclass
class PairScores:
    """The relation head on R pairs (``score_pairs``), as ``backward`` reads it."""

    pools: np.ndarray        # (S, 2h) span pools
    cells: np.ndarray        # (N,) flat (row, token) cells of the pooled tokens, span by span
    owner: np.ndarray        # (N,) each cell's span
    heads: np.ndarray        # (R,) the pool of each pair's head span, or of its sentence
    tails: np.ndarray | None  # (R,) the pool of each pair's tail span; None: one pool per pair
    head_type: np.ndarray    # (R,)
    tail_type: np.ndarray    # (R,)
    probs: np.ndarray        # (R, K)


def score_pairs(h: np.ndarray, mask: np.ndarray, span_rows, span_bounds, heads, tails,
                head_type, tail_type, params: Params, config: ModelConfig) -> PairScores:
    """Relation probabilities of R pairs over S entity spans of the padded
    encodings ``h`` (B, T, 2h) with padding ``mask`` (B, T): span s is
    ``span_bounds[s]`` of row ``span_rows[s]``; pair r joins spans
    ``heads[r]`` and ``tails[r]``, of type ids ``head_type[r]`` and
    ``tail_type[r]``. Its features [pool ; type(head) ; type(tail)] pool
    two disjoint spans, so its logits split into per-span and per-type
    terms, A[heads] + A[tails] + TH[head_type] + TT[tail_type] + re_b, with
    A = span pools @ ``re_w[:2h]`` and TH, TT = ``type_embed`` @ the type
    blocks of ``re_w``: each span is pooled and projected once. With
    ``use_entity_mask`` off a pair pools its head span's sentence, [0,
    length); with ``use_entity_type`` off the type terms go."""
    if not config.use_entity_mask:
        heads, tails = np.asarray(span_rows)[heads], None
        span_rows = np.arange(len(h))
        lengths = mask.sum(axis=1).astype(np.int64)
        span_bounds = np.stack((np.zeros_like(lengths), lengths), axis=1)
    pools, cells, owner = span_pool(h, span_rows, span_bounds)
    re_w, n_pool = params["re_w"], pools.shape[1]
    per_span = pools @ re_w[:n_pool]
    logits = per_span[heads] if tails is None else per_span[heads] + per_span[tails]
    if config.use_entity_type:  # TH and TT, (n_types, K) each, looked up with an id check
        tables = params["type_embed"] @ re_w[n_pool:].reshape(2, -1, re_w.shape[1])
        logits += embed(head_type, tables[0])
        logits += embed(tail_type, tables[1])
    logits += params["re_b"]
    return PairScores(pools, cells, owner, heads, tails, head_type, tail_type, softmax(logits))


def joint_loss(ner_nll: float, re_ce: float, alpha: float = 1.0, beta: float = 1.0) -> float:
    return alpha * ner_nll + beta * re_ce


# ---------------------------------------------------------------------------
# Full forward / backward
# ---------------------------------------------------------------------------


@dataclass
class ForwardTrace:
    """What ``backward`` reads of a ``forward``. The encoder and NER arrays
    (``drop_emb`` to ``d_logits_ner``) hold one row per sentence of
    ``batch``, as its ``token_ids`` do. The relation head scores one pair
    per batch row, over the batch's span table: each span pooled once
    from its sentence's row of ``h_d``."""

    config: ModelConfig
    batch: Batch
    drop_emb: np.ndarray | None
    gru: GruTrace
    drop_h: np.ndarray | None
    h_d: np.ndarray
    logits_ner: np.ndarray
    d_logits_ner: np.ndarray   # d sum-of-row-NLLs / d logits_ner
    d_crf_trans: np.ndarray    # d sum-of-row-NLLs / d crf_trans
    relation: PairScores       # the rows' pairs over the spans of h_d


@dataclass
class ForwardResult:
    ner_nll: float
    re_ce: float
    joint: float
    re_probs: np.ndarray
    trace: ForwardTrace


def _dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    keep = 1.0 - rate
    return (rng.random(shape) < keep).astype(np.float64) / keep


def _check_batch(batch: Batch, config: ModelConfig) -> None:
    """``ValueError`` naming the field unless ``batch`` is a consistent span
    table (``Batch``) for ``config``: array lengths agree, every array but
    the mask holds integers, ``lengths`` are the mask's row sums,
    ``head``/``tail`` index the spans, ``span_rows`` the sentences and the
    BIO and relation labels the config's, each row's spans lie in one
    sentence and are disjoint, every span has 0 <= start < end <= its
    sentence's length, and every sentence has a row."""
    n_sentences, width = np.shape(batch.token_ids)
    n_spans, n_rows = len(batch.span_rows), batch.size
    table, rows = (n_sentences, width), (n_rows,)
    for name, shape in (("token_ids", table), ("attention_mask", table), ("ner_labels", table),
                        ("lengths", (n_sentences,)), ("span_rows", (n_spans,)),
                        ("spans", (n_spans, 2)), ("head", rows), ("tail", rows),
                        ("head_type", rows), ("tail_type", rows), ("relation_label", rows)):
        value = np.asarray(getattr(batch, name))
        if value.shape != shape:
            raise ValueError(f"batch.{name} has shape {value.shape}, expected {shape}")
        if name != "attention_mask" and not np.issubdtype(value.dtype, np.integer):
            raise ValueError(f"batch.{name} must hold integers, got {value.dtype}")
    if (batch.attention_mask.sum(axis=1) != batch.lengths).any():
        raise ValueError("batch.lengths must be the attention_mask row sums")
    for name, bound in (("head", n_spans), ("tail", n_spans), ("span_rows", n_sentences),
                        ("ner_labels", config.num_ner_labels),
                        ("relation_label", config.num_relations)):
        ids = getattr(batch, name)
        if ids.size and not 0 <= ids.min() <= ids.max() < bound:
            raise ValueError(f"batch.{name} must lie in [0, {bound})")
    if (batch.span_rows[batch.tail] != batch.sentence_of).any():
        raise ValueError("batch.head and batch.tail of a row lie in different sentences")
    starts, ends = batch.spans.T
    if not ((0 <= starts) & (starts < ends) & (ends <= batch.lengths[batch.span_rows])).all():
        raise ValueError("batch.spans must have 0 <= start < end <= their sentence's length")
    heads, tails = batch.spans[batch.head], batch.spans[batch.tail]
    if ((heads[:, 0] < tails[:, 1]) & (tails[:, 0] < heads[:, 1])).any():
        raise ValueError("batch.head and batch.tail of a row must be disjoint spans")
    if not np.bincount(batch.sentence_of, minlength=n_sentences).all():
        raise ValueError("batch.token_ids holds a sentence that no row names")


def forward(
    batch: Batch,
    params: Params,
    config: ModelConfig,
    mode: str = "train",
    rng: np.random.Generator | None = None,
) -> ForwardResult:
    """One training forward pass over a batch of MSLR rows: the joint loss
    and the trace ``backward`` needs.

    Dropout follows the embedding and the BiGRU. The CRF NLL and its
    gradients come from one batched forward-backward pass, kept in the
    trace; nothing is decoded. ``mode`` must be ``"train"``: there is no
    eval mode, since inference and validation encode each sentence once
    (``encode``) and score its pairs with ``score_pairs``, as here.

    The batch (``_check_batch``) holds each of its U distinct sentences
    once, and each is embedded, encoded and CRF-scored once, under dropout
    masks of shape (U, T, d) and (U, T, 2h) that the rows of a sentence
    share, as variational dropout shares one mask across a sequence's
    steps (Gal & Ghahramani, 2016). The CRF gradients are weighted by the
    sentence's row count, and ``score_pairs`` pools each span of the
    batch's span table once.
    """
    if mode != "train":
        raise ValueError(f"mode must be 'train', got {mode!r}")
    if config.dropout > 0.0 and rng is None:
        raise ValueError("forward with dropout > 0 needs an rng")
    _check_batch(batch, config)

    mask, sentence_of = batch.attention_mask, batch.sentence_of
    emb = embed(batch.token_ids, params["embed"])

    drop_emb = None
    emb_d = emb
    if config.dropout > 0.0:
        drop_emb = _dropout_mask(emb.shape, config.dropout, rng)
        emb_d = emb * drop_emb

    h_bigru, gru = bigru(emb_d, mask, params, with_trace=True)

    drop_h = None
    h_d = h_bigru
    if config.dropout > 0.0:
        drop_h = _dropout_mask(h_bigru.shape, config.dropout, rng)
        h_d = h_bigru * drop_h

    logits = ner_logits(h_d, params["ner_w"], params["ner_b"])
    relation = score_pairs(h_d, mask, batch.span_rows, batch.spans, batch.head, batch.tail,
                           batch.head_type, batch.tail_type, params, config)

    nlls, d_logits, d_trans = crf_nll_grad(
        logits, batch.ner_labels, params["crf_trans"], mask,
        weights=np.bincount(sentence_of, minlength=len(mask)))
    ner_nll_mean = float(np.mean(nlls[sentence_of]))
    picked = relation.probs[np.arange(batch.size), batch.relation_label]
    re_ce_mean = float(np.mean(-np.log(picked)))
    joint = joint_loss(ner_nll_mean, re_ce_mean, config.alpha, config.beta)

    trace = ForwardTrace(
        config=config, batch=batch, drop_emb=drop_emb,
        gru=gru, drop_h=drop_h, h_d=h_d,
        logits_ner=logits, d_logits_ner=d_logits, d_crf_trans=d_trans, relation=relation,
    )
    return ForwardResult(
        ner_nll=ner_nll_mean, re_ce=re_ce_mean, joint=joint, re_probs=relation.probs,
        trace=trace,
    )


def backward(trace: ForwardTrace, params: Params, grads: Params | None = None) -> Params:
    """Analytic gradients of the joint loss for every parameter array.

    The joint loss is the batch mean of alpha * NER-NLL + beta * RE-CE, so
    every per-row contribution is scaled by 1/B. Shared-encoder arrays
    accumulate contributions from both heads. The relation head's logit
    gradients are summed per span and per type id (``score_pairs``), and
    each span's pool gradient is scattered onto its own tokens. The
    encoder runs once per distinct sentence of the batch: the CRF's
    gradients are already weighted by its row count, its dropout masks are
    shared by its rows, and the NER head, BPTT and the embedding scatter
    run once per sentence. The gradients are written into ``grads`` when
    given (a dict of C-contiguous arrays shaped like ``params``, whose
    values are overwritten: a training loop passes one buffer on every
    step), and into new arrays otherwise; the dict is returned.
    """
    config = trace.config
    batch = trace.batch
    n_batch = batch.size
    n_hidden = config.hidden_dim
    if grads is None:
        grads = {k: np.empty_like(v) for k, v in params.items()}
    for name in ("embed", "type_embed"):  # added into, or left zero
        grads[name].fill(0.0)

    # NER head through the CRF, whose gradients the forward pass computed.
    scale = config.alpha / n_batch
    d_logits_ner = trace.d_logits_ner * scale
    np.multiply(trace.d_crf_trans, scale, out=grads["crf_trans"])
    n_labels = d_logits_ner.shape[-1]
    np.matmul(trace.h_d.reshape(-1, 2 * n_hidden).T, d_logits_ner.reshape(-1, n_labels),
              out=grads["ner_w"])
    d_logits_ner.sum(axis=(0, 1), out=grads["ner_b"])
    d_h_d = d_logits_ner @ params["ner_w"].T

    # Relation head: per-span terms, then per-type terms.
    rel, n_pool = trace.relation, 2 * n_hidden
    d_logits = rel.probs.copy()
    d_logits[np.arange(n_batch), batch.relation_label] -= 1.0
    d_logits *= config.beta / n_batch
    d_logits.sum(axis=0, out=grads["re_b"])
    n_relations = d_logits.shape[1]
    d_per_span = np.zeros((len(rel.pools), n_relations))
    for spans in (rel.heads, rel.tails):
        if spans is not None:
            np.add.at(d_per_span, spans, d_logits)
    np.matmul(rel.pools.T, d_per_span, out=grads["re_w"][:n_pool])
    d_pools = (d_per_span @ params["re_w"][:n_pool].T)[rel.owner]
    # onto the raveled encoding: numpy's add.at runs 1-D indices on its fast path
    cells = (rel.cells[:, None] * n_pool + np.arange(n_pool)).ravel()
    np.add.at(d_h_d.reshape(-1), cells, d_pools.ravel())
    if config.use_entity_type:  # through the (2, n_types, K) tables TH and TT
        type_embed = params["type_embed"]
        d_tables = np.zeros((2, len(type_embed), n_relations))
        np.add.at(d_tables[0], rel.head_type, d_logits)
        np.add.at(d_tables[1], rel.tail_type, d_logits)
        g_types, w_types = (w[n_pool:].reshape(2, -1, n_relations)
                            for w in (grads["re_w"], params["re_w"]))
        np.matmul(type_embed.T, d_tables, out=g_types)
        np.sum(d_tables @ w_types.swapaxes(1, 2), axis=0, out=grads["type_embed"])

    d_h_bigru = d_h_d if trace.drop_h is None else d_h_d * trace.drop_h

    # BPTT on the valid tokens only, each direction in its walk order
    gru = trace.gru
    packing = gru.packing
    d_out = packing.pack_walks(d_h_bigru.reshape(*d_h_bigru.shape[:2], 2, n_hidden), split=True)
    frozen = config.freeze_embeddings
    d_xs = None if frozen else np.empty(gru.x.shape)
    for group in gru.groups:
        _gru_backprop(gru, group, d_out[group], params, grads, None if frozen else d_xs[group])
    if frozen:  # AdamW and the clip norm skip the embedding: its gradient stays 0
        return grads
    d_x = d_xs[0]
    d_x += d_xs[1, packing.rev]
    if trace.drop_emb is not None:
        d_x *= packing.pack(trace.drop_emb)
    n_embed = d_x.shape[1]  # as for the span scatter: 1-D indices onto the raveled rows
    cells = (packing.pack(trace.batch.token_ids)[:, None] * n_embed + np.arange(n_embed)).ravel()
    np.add.at(grads["embed"].reshape(-1), cells, d_x.ravel())
    return grads


# ---------------------------------------------------------------------------
# Checkpoint and pretrained-embedding containers
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"CTIECKPT"
_EMB_MAGIC = b"CTIEEMBD"
# Version 3: float64 arrays back to back after the JSON header, and a
# SHA-256 of every byte before it as the trailer.
_FORMAT_VERSION = 3
_DIGEST_BYTES = 32


def write_atomic(path: str | Path, *chunks) -> None:
    """Write ``chunks`` (bytes-like, or str written as UTF-8) to a temporary
    file beside ``path``, then rename it into place: a write that fails
    midway leaves any previous file at ``path`` intact and no temporary
    file behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_container(path: Path, magic: bytes, header: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write ``magic``, the ``<IQ`` format version and header length, the
    JSON ``header`` with an ``arrays`` manifest (name and shape, in order),
    the arrays as float64, back to back, and last the SHA-256 of every byte
    before it. Atomic (``write_atomic``)."""
    arrays = {name: np.ascontiguousarray(arr, dtype=np.float64) for name, arr in arrays.items()}
    manifest = [{"name": name, "shape": list(arr.shape)} for name, arr in arrays.items()]
    blob = json.dumps({**header, "arrays": manifest}, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    chunks = [magic, struct.pack("<IQ", _FORMAT_VERSION, len(blob)), blob, *arrays.values()]
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    write_atomic(path, *chunks, digest.digest())


def _read_container(path: Path, magic: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """(JSON header, arrays by name) of a file ``_write_container`` wrote.
    SchemaError naming the file, checked in this order: a file too short
    for the fixed header and the trailer, a bad magic, a format version
    other than 3, a trailer that is not the SHA-256 of the bytes before it,
    a header that does not decode, and a manifest whose arrays do not tile
    the bytes from the header's end to the trailer."""
    raw = Path(path).read_bytes()
    start = len(magic) + 12
    if len(raw) < start + _DIGEST_BYTES:
        raise SchemaError(f"{path}: {len(raw)} bytes, too short for a container")
    if raw[: len(magic)] != magic:
        raise SchemaError(f"{path}: bad magic, not a {magic.decode()} file")
    version, header_len = struct.unpack_from("<IQ", raw, len(magic))
    if version < _FORMAT_VERSION:
        raise SchemaError(f"{path}: container format version {version} predates version "
                          f"{_FORMAT_VERSION}, the only one this build reads; retrain the "
                          "model, or rebuild the embedding file")
    if version > _FORMAT_VERSION:
        raise SchemaError(f"{path}: unsupported container version {version}")
    body = len(raw) - _DIGEST_BYTES
    if hashlib.sha256(memoryview(raw)[:body]).digest() != raw[body:]:
        raise SchemaError(f"{path}: SHA-256 trailer does not match the file "
                          "(it is cut, padded or corrupted)")
    end = start + header_len
    try:
        header = json.loads(raw[start:end].decode("utf-8"))
        manifest = [(entry["name"], tuple(entry["shape"])) for entry in header["arrays"]]
        if not all(isinstance(name, str) and all(type(n) is int and n >= 0 for n in shape)
                   for name, shape in manifest):
            raise ValueError("array names must be strings and shapes non-negative ints")
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed container header ({exc})") from None
    bounds = list(itertools.accumulate((math.prod(shape) for _, shape in manifest), initial=0))
    if end + 8 * bounds[-1] != body or len({name for name, _ in manifest}) != len(manifest):
        raise SchemaError(f"{path}: the header's arrays do not tile the bytes before the trailer")
    flat = np.frombuffer(memoryview(raw)[end:body], dtype=np.float64)
    arrays = {name: flat[bounds[i]:bounds[i + 1]].reshape(shape).copy()
              for i, (name, shape) in enumerate(manifest)}
    return header, arrays


@dataclass
class Checkpoint:
    config: ModelConfig
    params: Params
    extras: dict = field(default_factory=dict)


def save_checkpoint(path, params: Params, config: ModelConfig, extras: dict | None = None) -> None:
    header = {"config": config.to_dict(), "extras": extras or {}}
    _write_container(Path(path), _CKPT_MAGIC, header, {n: params[n] for n in sorted(params)})


def load_checkpoint(path) -> Checkpoint:
    header, params = _read_container(Path(path), _CKPT_MAGIC)
    try:
        config = ModelConfig.from_dict(header["config"])
        config.validate()
        if not isinstance(header["extras"], dict):
            raise TypeError("extras is not an object")
        validate_params(params, config)
    except (KeyError, TypeError, ValueError, SchemaError) as exc:
        raise SchemaError(f"{path}: malformed checkpoint ({exc})") from None
    return Checkpoint(config=config, params=params, extras=header["extras"])


def checkpoint_tables(ckpt: Checkpoint, path) -> tuple[Vocabulary, TypeSystem]:
    """The vocabulary and type system saved with a checkpoint; SchemaError
    when they are missing, malformed or sized unlike its ModelConfig."""
    try:
        vocab = Vocabulary(ckpt.extras["vocab"])
        types = TypeSystem.from_dict(ckpt.extras["types"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: checkpoint vocab/type tables missing or malformed "
                          f"({type(exc).__name__}: {exc})") from None
    sizes = (len(vocab), types.num_bio_labels, types.num_relations, types.num_entity_types)
    c = ckpt.config
    stored = (c.vocab_size, c.num_ner_labels, c.num_relations, c.num_entity_types)
    if sizes != stored:
        raise SchemaError(f"{path}: checkpoint vocab/BIO/relation/entity-type table sizes "
                          f"{sizes} disagree with its model config {stored}")
    return vocab, types


def save_embedding_file(path, vectors: np.ndarray, vocab_hash: str) -> None:
    _write_container(Path(path), _EMB_MAGIC, {"vocab_hash": vocab_hash}, {"embed": vectors})


def load_embedding_file(path, expected_vocab_hash: str | None = None) -> np.ndarray:
    header, arrays = _read_container(Path(path), _EMB_MAGIC)
    vocab_hash, vectors = header.get("vocab_hash"), arrays.get("embed")
    if not isinstance(vocab_hash, str) or set(arrays) != {"embed"} or vectors.ndim != 2:
        raise SchemaError(f"{path}: malformed embedding file (it must hold a vocab_hash "
                          "and one 2-D array, embed)")
    if expected_vocab_hash is not None and vocab_hash != expected_vocab_hash:
        raise SchemaError(f"{path}: embedding file was built for a different vocabulary "
                          f"(hash {vocab_hash[:12]}... != {expected_vocab_hash[:12]}...)")
    return vectors
