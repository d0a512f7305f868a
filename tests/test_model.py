"""Layer-level oracles and forward-pass contracts for the joint model."""

import dataclasses
import hashlib
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ctie.crf import crf_decode, crf_nll
from ctie.errors import EmptyMask, IdOutOfRange, SchemaError
from ctie.model import (
    GruTrace,
    InputProjection,
    ModelConfig,
    Packing,
    _direction_groups,
    _gru_backprop,
    _gru_run,
    _input_preactivations,
    _sigmoid,
    backward,
    bigru,
    embed,
    encode,
    forward,
    init_params,
    joint_loss,
    load_checkpoint,
    load_embedding_file,
    ner_logits,
    param_shapes,
    save_checkpoint,
    save_embedding_file,
    score_pairs,
    softmax,
    span_pool,
    validate_params,
)
from ctie import model
from ctie.corpus import load_corpus
from ctie.mslr import Batch, build_vocab, make_batches, sentence_rows

from helpers import (
    SMOKE_CORPUS,
    embedding_grad_2d,
    per_row_forward,
    random_corpus,
    reference_gru,
    relation_head,
    span_table,
    tiny_batch,
    tiny_config,
)


class TestEmbed:
    def test_repeated_id_identical_rows(self):
        table = np.random.default_rng(0).normal(size=(6, 3))
        out = embed([4, 4], table)
        assert np.array_equal(out[0], out[1])

    def test_zero_table(self):
        out = embed([[1, 2], [3, 0]], np.zeros((5, 4)))
        assert out.shape == (2, 2, 4)
        assert np.all(out == 0.0)

    def test_id_out_of_range(self):
        with pytest.raises(IdOutOfRange):
            embed([5], np.zeros((5, 4)))
        with pytest.raises(IdOutOfRange):
            embed([-1], np.zeros((5, 4)))


def manual_gru_states(x, p, direction):
    """Independent straight-line GRU oracle (no masking, single row) for
    ``direction`` (0 forward, 1 backward) of the stacked ``gru.*`` arrays:
    one matrix-vector product per gate and step, gates sliced [z | r | c]."""
    w, u, b = (p[f"gru.{key}"][direction] for key in "wub")
    n = u.shape[0]
    w_z, w_r, w_c = w[:, :n], w[:, n:2 * n], w[:, 2 * n:]
    u_z, u_r, u_c = u[:, :n], u[:, n:2 * n], u[:, 2 * n:]
    b_z, b_r, b_c = b[:n], b[n:2 * n], b[2 * n:]
    h = np.zeros(n)
    states = []
    for t in range(x.shape[0]):
        z = 1.0 / (1.0 + np.exp(-(x[t] @ w_z + h @ u_z + b_z)))
        r = 1.0 / (1.0 + np.exp(-(x[t] @ w_r + h @ u_r + b_r)))
        c = np.tanh(x[t] @ w_c + (r * h) @ u_c + b_c)
        h = (1.0 - z) * c + z * h
        states.append(h.copy())
    return states


def _random_rows(rng, config, lengths):
    """One random MSLR row per length (at least 2: a row pairs two disjoint
    spans): token ids, labels, one-token head and tail spans on distinct
    tokens, types and a relation label."""
    rows = []
    for n in lengths:
        head, tail = rng.choice(n, size=2, replace=False)
        rows.append(dict(
            token_ids=rng.integers(1, config.vocab_size, n),
            ner_labels=rng.integers(0, config.num_ner_labels, n),
            head_span=(head, head + 1), tail_span=(tail, tail + 1),
            head_type=rng.integers(config.num_entity_types),
            tail_type=rng.integers(config.num_entity_types),
            relation_label=rng.integers(config.num_relations),
        ))
    return rows


def _row_batch(rows, width) -> Batch:
    """The rows of ``_random_rows``, each its own sentence, padded to
    ``width``, in the given order."""
    def padded(key, dtype):
        out = np.zeros((len(rows), width), dtype=dtype)
        for b, row in enumerate(rows):
            out[b, : len(row[key])] = row[key]
        return out

    lengths = np.array([len(row["token_ids"]) for row in rows])
    span_rows, spans, head, tail = span_table(
        [(b, row["head_span"], row["tail_span"]) for b, row in enumerate(rows)])
    return Batch(
        token_ids=padded("token_ids", np.int64),
        attention_mask=(np.arange(width) < lengths[:, None]).astype(np.float64),
        ner_labels=padded("ner_labels", np.int64),
        lengths=lengths, span_rows=span_rows, spans=spans, head=head, tail=tail,
        head_type=np.array([row["head_type"] for row in rows]),
        tail_type=np.array([row["tail_type"] for row in rows]),
        relation_label=np.array([row["relation_label"] for row in rows]),
        origins=tuple((b, 0) for b in range(len(rows))),
    )


class TestBiGru:
    def _params(self, d=4, h=3, seed=1):
        config = ModelConfig(
            vocab_size=5, num_ner_labels=3, num_relations=2, num_entity_types=2,
            embed_dim=d, hidden_dim=h, dropout=0.0,
        )
        return init_params(config, seed=seed)

    def test_zero_weights_zero_output(self):
        params = self._params()
        for name in params:
            if name.startswith("gru."):
                params[name] = np.zeros_like(params[name])
        x = np.random.default_rng(2).normal(size=(4, 4))
        out = bigru(x, [1, 1, 1, 1], params)
        assert np.all(out == 0.0)

    def test_single_step_concatenates_both_directions(self):
        params = self._params()
        x = np.random.default_rng(3).normal(size=(1, 4))
        out = bigru(x, [1], params)
        fwd = manual_gru_states(x, params, 0)[0]
        bwd = manual_gru_states(x, params, 1)[0]
        np.testing.assert_allclose(out[0], np.concatenate([fwd, bwd]), atol=1e-12)

    def test_matches_straight_line_oracle(self):
        params = self._params(seed=7)
        x = np.random.default_rng(4).normal(size=(2, 4))
        out = bigru(x, [1, 1], params)
        fwd = manual_gru_states(x, params, 0)
        bwd_rev = manual_gru_states(x[::-1], params, 1)
        expected = np.stack(
            [
                np.concatenate([fwd[0], bwd_rev[1]]),
                np.concatenate([fwd[1], bwd_rev[0]]),
            ]
        )
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_padding_does_not_change_prefix(self):
        params = self._params(seed=9)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 4))
        full = bigru(x[:4], [1, 1, 1, 1], params)
        padded = bigru(x, [1, 1, 1, 1, 0, 0], params)
        np.testing.assert_allclose(padded[:4], full, atol=1e-12)
        assert np.all(padded[4:] == 0.0)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 12), st.data())
    def test_ragged_batch_rows_match_unpadded_rows(self, seed, n_rows, width, data):
        params = self._params(seed=seed % 1000)
        rng = np.random.default_rng(seed)
        params["gru.b"] = rng.normal(size=params["gru.b"].shape)
        lengths = data.draw(st.lists(st.integers(1, width), min_size=n_rows, max_size=n_rows))
        x = rng.normal(size=(n_rows, width, 4))
        mask = np.arange(width)[None, :] < np.array(lengths)[:, None]
        out = bigru(x, mask.astype(int), params)
        for row, n in enumerate(lengths):
            np.testing.assert_allclose(out[row, :n], bigru(x[row, :n], [1] * n, params),
                                       rtol=1e-12)
            assert np.all(out[row, n:] == 0.0)

    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(2, 7), min_size=1, max_size=5),
           st.integers(0, 2))
    @example(0, [4], 0)                 # B=1
    @example(1, [5, 5, 5], 0)           # no padding
    @example(2, [2, 6, 2, 3], 1)        # shortest rows
    @example(3, [2, 5, 2, 5, 3], 0)     # repeated lengths, unsorted
    def test_packed_batch_equals_rows_run_alone(self, seed, lengths, extra):
        # bigru packs the valid tokens of rows sorted longest-first and runs
        # each step on its active rows, so every row's encoding must be the
        # row's run unpadded alone; the batch loss is the mean of its rows'
        # losses, so B times every batch gradient must be the sum of those
        # runs' gradients: padding (also past the longest row) adds nothing
        config = tiny_config()
        params = init_params(config, seed=seed % 1000)
        params["gru.b"] = np.random.default_rng(seed + 1).normal(size=params["gru.b"].shape)
        rows = _random_rows(np.random.default_rng(seed), config, lengths)
        batch = forward(_row_batch(rows, max(lengths) + extra), params, config)
        alone = [forward(_row_batch([row], n), params, config)
                 for row, n in zip(rows, lengths)]
        for b, (n, one) in enumerate(zip(lengths, alone)):
            np.testing.assert_allclose(batch.trace.h_d[b, :n], one.trace.h_d[0],
                                       rtol=1e-12, atol=1e-12)
            assert np.all(batch.trace.h_d[b, n:] == 0.0)
        batch_grads = backward(batch.trace, params)
        row_grads = [backward(one.trace, params) for one in alone]
        for name in params:
            np.testing.assert_allclose(
                len(rows) * batch_grads[name], sum(g[name] for g in row_grads),
                rtol=1e-12, atol=1e-12, err_msg=name,
            )

    @pytest.mark.parametrize("mask", [[1, 0, 1, 1], [0, 1, 1, 1], [[1, 1, 0, 0], [1, 0, 1, 0]]],
                             ids=["interior-hole", "leading-zero", "batched"])
    def test_mask_with_a_hole_is_rejected(self, mask):
        # a masked step holds a zero state, so a hole would reset the
        # recurrence mid-sentence: the mask marks padding only
        params = self._params()
        mask = np.array(mask)
        x = np.random.default_rng(6).normal(size=mask.shape + (4,))
        with pytest.raises(ValueError, match="padding only"):
            bigru(x, mask, params)

    @pytest.mark.parametrize("seed", [0, 42])
    def test_init_blocks_match_per_gate_draws(self, seed):
        # the draw order of the per-gate layout: embed, then for each
        # direction w_z, w_r, w_c, u_z, u_r, u_c (biases draw nothing)
        d, h = 4, 3
        params = self._params(d=d, h=h, seed=seed)
        rng = np.random.default_rng(seed)
        rng.uniform(-0.1, 0.1, size=(5, d))
        for direction in (0, 1):
            for key, rows in (("w", d), ("u", h)):
                limit = np.sqrt(6.0 / (rows + h))
                for gate in range(3):
                    block = rng.uniform(-limit, limit, size=(rows, h))
                    got = params[f"gru.{key}"][direction, :, gate * h:(gate + 1) * h]
                    assert np.array_equal(got, block), (direction, key, gate)
        assert np.all(params["gru.b"] == 0.0)


class TestInputProjection:
    """Inference encodes from cached per-id input pre-activations; the
    reference is the BiGRU over the embedded ids, as training runs it."""

    def _params(self, seed):
        config = ModelConfig(
            vocab_size=9, num_ner_labels=3, num_relations=2, num_entity_types=2,
            embed_dim=5, hidden_dim=3, dropout=0.0,
        )
        params = init_params(config, seed=seed)
        rng = np.random.default_rng(seed)
        params["gru.b"] = rng.normal(size=params["gru.b"].shape)
        return params

    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1),
           st.lists(st.lists(st.lists(st.integers(0, 8), min_size=1, max_size=7),
                             min_size=1, max_size=4), min_size=1, max_size=4),
           st.integers(0, 2))
    @example(0, [[[3, 1, 4, 1, 5]]], 0)                  # B=1, a repeated id
    @example(1, [[[2], [7, 7, 7], [6]]], 1)              # length-1 rows, ragged
    @example(2, [[[0, 1]], [[1, 2, 8]], [[8, 3, 3]]], 0)  # ids first seen in a later batch
    def test_encode_equals_bigru_of_the_embedding(self, seed, batches, extra):
        # one projection serves every batch, as an Extractor's serves every call
        params = self._params(seed % 1000)
        projection = InputProjection(params)
        seen = np.zeros(9, dtype=bool)
        for rows in batches:
            ids = np.zeros((len(rows), max(map(len, rows)) + extra), dtype=np.int64)
            mask = np.zeros(ids.shape)
            for b, row in enumerate(rows):
                ids[b, : len(row)] = row
                mask[b, : len(row)] = 1.0
            expected = bigru(embed(ids, params["embed"]), mask, params)
            np.testing.assert_allclose(encode(ids, mask, params, projection), expected,
                                       rtol=1e-12, atol=1e-12 * np.abs(expected).max())
            seen[[i for row in rows for i in row]] = True
            assert np.array_equal(projection.filled, seen)

    @pytest.mark.parametrize("bad", [-1, 9], ids=["negative", "vocab-size"])
    def test_id_out_of_range_fills_nothing(self, bad):
        # a negative id would wrap silently in the rows and the filled set
        params = self._params(0)
        projection = InputProjection(params)
        encode([[1, 2]], np.ones((1, 2)), params, projection)
        filled = projection.filled.copy()
        with pytest.raises(IdOutOfRange):
            encode([[3, bad]], np.ones((1, 2)), params, projection)
        assert np.array_equal(projection.filled, filled)

    def test_projection_of_other_params_is_rejected(self):
        params = self._params(0)
        with pytest.raises(ValueError, match="other params"):
            encode([[1, 2]], np.ones((1, 2)), params, InputProjection(dict(params)))

    def test_trace_over_projected_ids_is_refused(self):
        # backward reads the trace's inputs; through a projection they are token ids
        params = self._params(0)
        with pytest.raises(ValueError, match="with_trace"):
            bigru(np.array([[1, 2]]), np.ones((1, 2)), params, with_trace=True,
                  projection=InputProjection(params))


LOCKSTEP = (slice(0, 2),)
ONE_WALK_EACH = (slice(0, 1), slice(1, 2))


def _step_major_walk(params, packing, x, pre, d_out, groups):
    """(gates, states, ``gru.*`` gradients, input gradient) of the walk and
    BPTT over packed inputs ``x`` (2, P, d) with pre-activations ``pre``
    (2, P, 3h) and state gradient ``d_out`` (2, P, h), for the direction
    groups ``groups``: gates and states in their step-major buffers."""
    n_dirs = 2 // len(groups)
    gates = packing.to_blocks(pre, n_dirs, 3)
    h = np.empty((len(groups), n_dirs * len(packing.rev), pre.shape[-1] // 3))
    for i, group in enumerate(groups):
        _gru_run(gates[i], h[i], packing, params["gru.u"][group])
    trace = GruTrace(x, packing, gates, h, groups)
    grads = {k: np.full_like(v, np.nan) for k, v in params.items() if k.startswith("gru.")}
    d_x = np.empty(x.shape)
    for group in groups:
        _gru_backprop(trace, group, d_out[group], params, grads, d_x[group])
    return gates, h, grads, d_x


class TestLockstep:
    """Both directions in one lockstep walk against one walk each, through
    the recurrence and backpropagation functions themselves."""

    @staticmethod
    def _walk(params, packing, x, pre, d_out, groups):
        # states and activations in the packed walk order, which both groupings share
        gates, h, grads, d_x = _step_major_walk(params, packing, x, pre, d_out, groups)
        n_dirs = 2 // len(groups)
        return packing.from_blocks(h, n_dirs), packing.from_blocks(gates, n_dirs, 3), grads, d_x

    @settings(max_examples=25)
    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 7), min_size=1, max_size=5),
           st.integers(0, 2))
    @example(0, [4], 0)                 # B=1
    @example(1, [5, 5, 5], 0)           # no padding
    @example(2, [1, 6, 1, 3], 1)        # length-1 rows
    @example(3, [2, 5, 2, 5, 3], 0)     # repeated lengths, unsorted
    @example(4, [1], 0)                 # one token
    def test_lockstep_equals_one_walk_per_direction(self, seed, lengths, extra):
        rng = np.random.default_rng(seed)
        config = tiny_config()
        params = init_params(config, seed=seed % 1000)
        params["gru.b"] = rng.normal(size=params["gru.b"].shape)
        keep = np.arange(max(lengths) + extra) < np.array(lengths)[:, None]
        ids = np.where(keep, rng.integers(1, config.vocab_size, keep.shape), 0)
        packing = Packing.from_mask(keep)
        x = packing.pack_walks(params["embed"][ids])
        pre = _input_preactivations(x, params)
        d_out = rng.normal(size=(2, len(packing.rev), config.hidden_dim))
        lockstep, alone = (self._walk(params, packing, x, pre, d_out, groups)
                           for groups in (LOCKSTEP, ONE_WALK_EACH))
        for name, a, b in zip(("states", "gates", "gradients", "input gradient"), lockstep, alone):
            for key in sorted(a) if isinstance(a, dict) else [None]:
                got, expected = (a, b) if key is None else (a[key], b[key])
                assert np.array_equal(got, expected), f"{name} {key or ''}"
        # the embedding gradient adds both directions' input gradients into
        # their tokens' rows, the backward's through the cell permutation
        d_embed = []
        for d_x in (lockstep[3], alone[3]):
            d_embed.append(np.zeros_like(params["embed"]))
            np.add.at(d_embed[-1], packing.pack(ids), d_x[0] + d_x[1, packing.rev])
        assert np.array_equal(d_embed[0], d_embed[1])

    @pytest.mark.parametrize("lengths", [[6], [4, 6, 2, 4]], ids=["B=1", "ragged"])
    def test_one_walk_each_equals_lockstep(self, lengths, monkeypatch):
        # through bigru, encode and backward: 768/256 walks each direction alone
        # (_direction_groups), in its own buffer layout; forced at small dims,
        # every output is the same
        config = tiny_config()
        params = init_params(config, seed=5)
        params["gru.b"] = np.random.default_rng(5).normal(size=params["gru.b"].shape)
        rows = _random_rows(np.random.default_rng(6), config, lengths)
        batch = _row_batch(rows, max(lengths))

        def run():
            result = forward(batch, params, config)
            return (encode(batch.token_ids, batch.attention_mask, params), result.trace.h_d,
                    backward(result.trace, params))

        lockstep = run()
        monkeypatch.setattr(model, "LOCKSTEP_MAX_BYTES", 0)
        assert _direction_groups(params) == ONE_WALK_EACH
        alone = run()
        assert np.array_equal(alone[0], lockstep[0])
        assert np.array_equal(alone[1], lockstep[1])
        for name in params:
            assert np.array_equal(alone[2][name], lockstep[2][name]), name

    @pytest.mark.parametrize("dims, groups", [((32, 16), LOCKSTEP), ((768, 256), ONE_WALK_EACH)],
                             ids=["32-16-lockstep", "768-256-one-walk-each"])
    def test_direction_groups_by_size(self, dims, groups):
        # shapes only: nothing runs at 768/256
        d, h = dims
        params = {f"gru.{key}": np.empty(shape)
                  for key, shape in (("w", (2, d, 3 * h)), ("u", (2, h, 3 * h)), ("b", (2, 3 * h)))}
        assert _direction_groups(params) == groups

    @pytest.mark.parametrize("lengths", [[3, 3], [4, 1, 2, 4], [2, 0, 1]],
                             ids=["no-padding", "ragged", "empty-row"])
    def test_rev_is_the_row_aligned_reversal(self, lengths):
        keep = np.arange(max(lengths)) < np.array(lengths)[:, None]
        packing = Packing.from_mask(keep)
        if packing.order is None:  # cells time-major in the caller's row order
            steps, callers = np.nonzero(keep.T)
        else:
            steps, callers = packing.steps, packing.callers
        # cell (k, row) <-> (length - 1 - k, row), its own inverse
        assert np.array_equal(steps[packing.rev], keep.sum(axis=1)[callers] - 1 - steps)
        assert np.array_equal(callers[packing.rev], callers)
        assert np.array_equal(packing.rev[packing.rev], np.arange(keep.sum()))


def _step_major(keep, walks, n_dirs):
    """The step-major buffers (G, g * D * P, w) of the packed walk cells
    ``walks`` (2, P, g, w) of the padding mask ``keep``, built cell by cell
    without ``Packing``: cells are time-major over rows sorted longest
    first, step t's block starts at row g * D * (cells before step t), and
    gate k of walk d's j-th active row is row (k * D + d % D) * n_t + j of
    it, n_t the rows active at step t."""
    n_gates, width = walks.shape[2:]
    out = np.full((2 // n_dirs, n_gates * n_dirs * walks.shape[1], width), np.nan)
    first = 0
    for n in keep.sum(axis=0):
        for d, j, k in np.ndindex(2, n, n_gates):
            row = n_gates * n_dirs * first + (k * n_dirs + d % n_dirs) * n + j
            out[d // n_dirs, row] = walks[d, first + j, k]
        first += n
    return out


class TestStepMajorBuffers:
    """The walk and BPTT on step-major buffers against the packed-layout
    reference they replaced (``helpers.reference_gru``), bit for bit."""

    @pytest.mark.parametrize("groups", [LOCKSTEP, ONE_WALK_EACH], ids=["lockstep", "one-walk-each"])
    @settings(max_examples=25)
    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 7), min_size=1, max_size=5),
           st.integers(0, 2))
    @example(0, [4], 0)                 # B=1
    @example(1, [5, 5, 5], 0)           # no padding
    @example(2, [1, 6, 1, 3], 1)        # length-1 rows
    @example(3, [2, 5, 2, 5, 3], 0)     # repeated lengths, unsorted
    @example(4, [1], 0)                 # one token
    def test_bit_identical_to_the_packed_reference(self, groups, seed, lengths, extra):
        rng = np.random.default_rng(seed)
        config = tiny_config()
        params = init_params(config, seed=seed % 1000)
        params["gru.b"] = rng.normal(size=params["gru.b"].shape)
        keep = np.arange(max(lengths) + extra) < np.array(lengths)[:, None]
        ids = np.where(keep, rng.integers(1, config.vocab_size, keep.shape), 0)
        packing = Packing.from_mask(keep)
        x = packing.pack_walks(params["embed"][ids])
        pre = _input_preactivations(x, params)
        d_out = rng.normal(size=(2, len(packing.rev), config.hidden_dim))
        h_ref, gates_ref, grads_ref, d_x_ref = reference_gru(params, packing, x, pre, d_out,
                                                             groups)
        gates, h, grads, d_x = _step_major_walk(params, packing, x, pre, d_out, groups)
        n_dirs = 2 // len(groups)
        # each walk cell's state: sorted row j at step t is h_ref[:, t + 1, j]
        counts = keep.sum(axis=0)
        steps = np.repeat(np.arange(len(counts)), counts)
        rows = np.concatenate([np.arange(n) for n in counts])
        states_ref = h_ref[:, steps + 1, rows]
        assert np.array_equal(h, _step_major(keep, states_ref[:, :, None], n_dirs))
        assert np.array_equal(gates, _step_major(keep, gates_ref.reshape(*x.shape[:2], 3, -1),
                                                 n_dirs))
        for name in sorted(grads_ref):
            assert np.array_equal(grads[name], grads_ref[name]), name
        assert np.array_equal(d_x, d_x_ref)


def test_sigmoid_bit_identical_to_two_branch_form():
    x = np.array([-800.0, -1e-300, -0.0, 0.0, 1e-300, 800.0])
    expected = np.empty_like(x)
    pos = x >= 0
    expected[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    expected[~pos] = ex / (1.0 + ex)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = _sigmoid(x)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


_SIGMOID_SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0, 746.0,
                     -746.0, 1e-320, -1e-320, 5e-324, -5e-324, 1e308, -1e308]


def _two_branch_sigmoid(x):
    """The reference: 1 / (1 + exp(-x)) for x >= 0, exp(x) / (1 + exp(x))
    below (NaN included)."""
    expected = np.empty(x.shape)
    pos = x >= 0
    expected[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    expected[~pos] = ex / (1.0 + ex)
    return expected


@st.composite
def _gate_blocks(draw):
    """(gates (n_k, D, n, 3h), k, h): packed gate pre-activations viewed
    per step, as the walk viewed them before its buffers went step-major,
    and the step whose strided z|r slice is squashed."""
    n_k, d, n, h = (draw(st.integers(1, hi)) for hi in (3, 2, 4, 4))
    values = draw(st.lists(
        st.one_of(st.sampled_from(_SIGMOID_SPECIALS),
                  st.floats(width=64, allow_nan=True, allow_infinity=True,
                            allow_subnormal=True),
                  st.floats(-40.0, 40.0)),
        min_size=n_k * d * n * 3 * h, max_size=n_k * d * n * 3 * h))
    gates = np.array(values).reshape(d, n_k, n, 3 * h).swapaxes(0, 1)
    return gates, draw(st.integers(0, n_k - 1)), h


@settings(max_examples=200)
@given(block=_gate_blocks())
@example(block=(np.array(_SIGMOID_SPECIALS).reshape(1, 2, 1, 8), 0, 4))
def test_sigmoid_matches_two_branch_form_on_strided_gate_slices(block):
    gates, k, h = block
    before = gates.copy()
    view = gates[k][..., : 2 * h]  # a g_zr[k] slice: strided, not contiguous
    expected = _two_branch_sigmoid(before[k][..., : 2 * h])
    got = _sigmoid(view)
    assert got is view
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), expected[~nan].view(np.int64))
    # written in place: the step's slice holds the result, every other cell is untouched
    after = before.copy()
    after[k][..., : 2 * h] = got
    assert np.array_equal(gates, after, equal_nan=True)


class TestNerLogits:
    def test_zero_weights_bias_rows(self):
        h = np.random.default_rng(6).normal(size=(3, 4))
        b = np.array([0.5, -1.0])
        out = ner_logits(h, np.zeros((4, 2)), b)
        assert np.allclose(out, np.tile(b, (3, 1)))

    def test_identity_weights(self):
        h = np.random.default_rng(7).normal(size=(5, 4))
        out = ner_logits(h, np.eye(4), np.zeros(4))
        np.testing.assert_allclose(out, h)

    def test_matches_matmul_loop_oracle(self):
        rng = np.random.default_rng(8)
        h = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 6))
        b = rng.normal(size=6)
        out = ner_logits(h, w, b)
        for t in range(3):
            for l in range(6):
                expected = b[l] + sum(h[t, k] * w[k, l] for k in range(4))
                assert out[t, l] == pytest.approx(expected, abs=1e-12)


def _span_case(config, rng, n_rows=3, width=6):
    """Random encodings (n_rows, width, 2h) and two disjoint spans per row,
    as ``score_pairs`` takes them: spans 2b and 2b + 1 are row b's head and
    tail, pair b joins them; and the pairs' random type ids."""
    h = rng.normal(size=(n_rows, width, 2 * config.hidden_dim))
    bounds = np.array([sorted(rng.choice(width + 1, size=4, replace=False))
                       for _ in range(n_rows)]).reshape(-1, 2, 2)
    bounds[::2] = bounds[::2, ::-1]  # some heads after their tails
    types = rng.integers(0, config.num_entity_types, size=(2, n_rows))
    return h, np.repeat(np.arange(n_rows), 2), bounds.reshape(-1, 2), types


def _scored(h, span_rows, bounds, types, params, config):
    """``score_pairs`` on the pairs of ``_span_case``."""
    pairs = np.arange(0, len(bounds), 2)
    return score_pairs(h, np.ones(h.shape[:2]), span_rows, bounds, pairs, pairs + 1, *types,
                       params, config).probs


class TestEntityPool:
    """The span pool (``span_pool``): each span summed over its own tokens."""

    def test_direct_sum(self):
        h = np.array([[[1.0, 0.0], [2.0, 2.0], [3.0, 1.0]]])
        pools = span_pool(h, [0, 0], [[0, 1], [2, 3]])[0]
        np.testing.assert_array_equal(pools, [[1.0, 0.0], [3.0, 1.0]])
        np.testing.assert_array_equal(pools.sum(axis=0), [4.0, 1.0])

    def test_all_ones_column_sums(self):
        h = np.random.default_rng(9).normal(size=(1, 6, 3))
        np.testing.assert_allclose(span_pool(h, [0], [[0, 6]])[0], h.sum(axis=1))

    def test_permutation_invariance(self):
        # a span's pool is its tokens' sum in any order, and each span's pool
        # is the same bits whatever spans are pooled with it, in any order
        rng = np.random.default_rng(10)
        h = rng.normal(size=(2, 5, 4))
        rows, bounds = np.array([0, 0, 1, 1]), np.array([[0, 3], [4, 5], [1, 5], [0, 1]])
        pools = span_pool(h, rows, bounds)[0]
        perm = rng.permutation(3)
        np.testing.assert_allclose(pools[0], span_pool(h[:, perm], [0], [[0, 3]])[0][0],
                                   atol=1e-12)
        order = rng.permutation(4)
        assert np.array_equal(span_pool(h, rows[order], bounds[order])[0], pools[order])
        for s in range(4):
            assert np.array_equal(span_pool(h, rows[s:s + 1], bounds[s:s + 1])[0][0], pools[s])

    def test_linear_in_disjoint_masks(self):
        # pool(head) + pool(tail) is the pool under the mask of both spans
        rng = np.random.default_rng(11)
        h = rng.normal(size=(1, 8, 3))
        pools = span_pool(h, [0, 0, 0], [[0, 2], [3, 4], [5, 6]])[0]
        mask = np.array([1, 1, 0, 1, 0, 1, 0, 0], dtype=float)
        np.testing.assert_allclose(pools.sum(axis=0), mask @ h[0], atol=1e-12)
        np.testing.assert_allclose(span_pool(h, [0], [[0, 4]])[0][0],
                                   span_pool(h, [0, 0], [[0, 1], [1, 4]])[0].sum(axis=0),
                                   atol=1e-12)

    def test_empty_mask_raises(self):
        # empty, reversed, or empty after a good span; raised before any
        # token is read: h is never touched
        for bounds in ([[1, 1]], [[2, 1]], [[0, 2], [3, 3]]):
            with pytest.raises(EmptyMask):
                span_pool(None, np.zeros(len(bounds), dtype=np.int64), bounds)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), pad=st.integers(1, 9), extra_rows=st.integers(0, 3))
    def test_pool_independent_of_padding(self, seed, pad, extra_rows):
        # the sentence's encoding padded with zero columns to a wider chunk,
        # among other sentences: every span's pool is the same bits
        rng = np.random.default_rng(seed)
        length = int(rng.integers(1, 12))
        h = rng.normal(size=(1, length, 4))
        cuts = np.sort(rng.choice(length + 1, size=2, replace=False))
        wide = np.zeros((1 + extra_rows, length + pad, 4))
        wide[1:] = rng.normal(size=wide[1:].shape)
        row = int(rng.integers(0, 1 + extra_rows))
        wide[[row, 0]] = wide[[0, row]]
        wide[row, :length] = h[0]
        alone = span_pool(h, [0], [cuts])[0]
        assert np.array_equal(span_pool(wide, [row], [cuts])[0], alone)


def test_softmax_matches_the_two_array_formula_and_keeps_its_argument():
    rng = np.random.default_rng(31)
    for shape in [(1, 3), (7, 5), (2, 4, 6)]:
        logits = rng.normal(scale=30.0, size=shape)
        before = logits.copy()
        shifted = logits - np.max(logits, axis=-1, keepdims=True)
        expected = np.exp(shifted) / np.exp(shifted).sum(axis=-1, keepdims=True)
        assert np.array_equal(softmax(logits), expected)
        assert np.array_equal(logits, before)


class TestRelationFeatures:
    """The split logits' type terms (``score_pairs``)."""

    def test_disabled_types_returns_pool(self):
        # types off: the logits are the pair's pool through re_w, whatever the type ids
        config = tiny_config(use_type=False)
        params = init_params(config, seed=12)
        rng = np.random.default_rng(12)
        h, span_rows, bounds, types = _span_case(config, rng)
        probs = _scored(h, span_rows, bounds, types, params, config)
        pools = span_pool(h, span_rows, bounds)[0]
        logits = (pools[::2] + pools[1::2]) @ params["re_w"] + params["re_b"]
        np.testing.assert_allclose(probs, softmax(logits), rtol=1e-12)
        assert np.array_equal(probs, _scored(h, span_rows, bounds, types[::-1], params, config))

    def test_static_lookup_same_across_contexts(self):
        # a type's logit term is a static lookup: changing the type ids moves
        # the log-odds against class 0 equally whatever the encoding
        config = tiny_config()
        params = init_params(config, seed=13)
        rng = np.random.default_rng(13)
        h, span_rows, bounds, types = _span_case(config, rng)
        other = (types + 1) % config.num_entity_types
        shifts = []
        for enc in (h, rng.normal(size=h.shape) * 9):
            log_odds = [np.log(p) - np.log(p[:, :1])
                        for p in (_scored(enc, span_rows, bounds, t, params, config)
                                  for t in (types, other))]
            shifts.append(log_odds[0] - log_odds[1])
        np.testing.assert_allclose(shifts[0], shifts[1], atol=1e-9)

    def test_output_length(self):
        # re_w's rows are the pool block and two type blocks of entity_type_dim
        config = tiny_config()
        assert config.concat_dim == 2 * config.hidden_dim + 2 * config.entity_type_dim
        assert init_params(config)["re_w"].shape[0] == config.concat_dim


class TestRelationHead:
    """``score_pairs`` against the reference head, which concatenates
    [pool ; type(head) ; type(tail)] per pair and pools under one mask."""

    def test_equal_logits_uniform(self):
        config = tiny_config()
        params = {name: np.zeros_like(a) for name, a in init_params(config).items()}
        h, span_rows, bounds, types = _span_case(config, np.random.default_rng(14))
        np.testing.assert_array_equal(_scored(h, span_rows, bounds, types, params, config),
                                      1.0 / config.num_relations)

    def test_shift_invariance(self):
        config = tiny_config()
        params = init_params(config, seed=14)
        h, span_rows, bounds, types = _span_case(config, np.random.default_rng(14))
        p1 = _scored(h, span_rows, bounds, types, params, config)
        params["re_b"] = params["re_b"] + 7.5
        np.testing.assert_allclose(_scored(h, span_rows, bounds, types, params, config), p1,
                                   atol=1e-9)

    def test_probability_vector(self):
        rng = np.random.default_rng(15)
        for seed in range(20):
            config = tiny_config(use_mask=seed % 2 == 0, use_type=seed % 4 < 2)
            params = init_params(config, seed=seed)
            h, span_rows, bounds, types = _span_case(config, rng)
            lengths = rng.integers(1, h.shape[1] + 1, size=len(h))
            mask = (np.arange(h.shape[1]) < lengths[:, None]).astype(float)
            h = h * mask[..., None]  # an encoding is zero at padding
            pairs = np.arange(0, len(bounds), 2)
            probs = score_pairs(h, mask, span_rows, bounds, pairs, pairs + 1, *types, params,
                                config).probs
            assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9) and np.all(probs >= 0)
            masks = np.zeros(h.shape[:2])
            for b, ((s1, e1), (s2, e2)) in enumerate(bounds.reshape(-1, 2, 2)):
                masks[b, s1:e1] = masks[b, s2:e2] = 1.0
            expected = relation_head(h, masks, *types, params, config, attention_mask=mask)
            np.testing.assert_allclose(probs, expected, rtol=1e-12)


class TestJointLoss:
    def test_weighted_sum(self):
        assert joint_loss(2.0, 0.5, 1.0, 1.0) == 2.5

    def test_beta_zero(self):
        assert joint_loss(3.0, 100.0, 2.0, 0.0) == 6.0

    def test_defaults_are_unit_weights(self):
        assert joint_loss(1.25, 0.75) == 2.0


def decoded(result, params, batch, allowed=None):
    """Viterbi paths of a forward result's emissions."""
    return crf_decode(result.trace.logits_ner, params["crf_trans"], batch.attention_mask,
                      allowed=allowed)


def encoder_path(batch, params, config):
    """The batch on the deterministic path of inference and validation:
    (emissions of its sentences, each row's CRF NLL, relation
    probabilities)."""
    mask = batch.attention_mask
    h = encode(batch.token_ids, mask, params)
    logits = ner_logits(h, params["ner_w"], params["ner_b"])
    nll = crf_nll(logits, batch.ner_labels, params["crf_trans"], mask)[batch.sentence_of]
    probs = score_pairs(h, mask, batch.span_rows, batch.spans, batch.head, batch.tail,
                        batch.head_type, batch.tail_type, params, config).probs
    return logits, nll, probs


class TestForward:
    def test_eval_deterministic(self):
        # the encoder path ignores the configured dropout
        config = tiny_config(dropout=0.3)
        params = init_params(config, seed=5)
        batch = tiny_batch()
        a = encoder_path(batch, params, config)
        b = encoder_path(batch, params, config)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        mask = batch.attention_mask
        assert crf_decode(a[0], params["crf_trans"], mask) == crf_decode(
            b[0], params["crf_trans"], mask)

    def test_train_with_zero_dropout_equals_eval(self):
        config = tiny_config(dropout=0.0)
        params = init_params(config, seed=6)
        batch = tiny_batch()
        t = forward(batch, params, config, mode="train")
        logits, nll, probs = encoder_path(batch, params, config)
        assert np.array_equal(t.trace.logits_ner, logits)
        assert np.array_equal(t.re_probs, probs)
        re_ce = float(np.mean(-np.log(probs[np.arange(batch.size), batch.relation_label])))
        assert t.joint == joint_loss(float(np.mean(nll)), re_ce)

    def test_joint_is_weighted_sum(self):
        config = tiny_config()
        params = init_params(config, seed=7)
        result = forward(tiny_batch(), params, config, mode="train")
        assert result.joint == pytest.approx(result.ner_nll + result.re_ce, abs=1e-12)

    def test_type_toggle_leaves_ner_branch_identical(self):
        batch = tiny_batch()
        outputs, paths = {}, {}
        for use_type in (True, False):
            config = tiny_config(use_type=use_type)
            params = init_params(config, seed=8)
            outputs[use_type] = forward(batch, params, config, mode="train")
            paths[use_type] = decoded(outputs[use_type], params, batch)
        assert np.array_equal(outputs[True].trace.logits_ner, outputs[False].trace.logits_ner)
        assert paths[True] == paths[False]
        assert outputs[True].ner_nll == outputs[False].ner_nll

    def test_empty_entity_mask_raises(self):
        config = tiny_config(use_mask=True)
        params = init_params(config, seed=10)
        batch = tiny_batch()
        batch.spans = batch.spans.copy()
        batch.spans[3, 1] = batch.spans[3, 0]  # the second row's tail selects no token
        with pytest.raises(ValueError, match="batch.spans"):
            forward(batch, params, config, mode="train")

    # tiny_batch: spans 0, 1 of sentence 0 (length 5) and 2, 3 of sentence 1 (length 3)
    @pytest.mark.parametrize("change, message", [
        (dict(head=[0, 4]), "batch.head"),
        (dict(tail=[1, -1]), "batch.tail"),
        (dict(span_rows=[0, 0, 1, 2]), "batch.span_rows"),
        (dict(tail=[2, 3]), "different sentences"),
        (dict(spans=[[0, 1], [3, 4], [1, 2], [2, 4]]), "batch.spans"),
        (dict(spans=[[0, 1], [3, 7], [1, 2], [2, 3]]), "batch.spans"),
        (dict(spans=[[-1, 1], [3, 4], [1, 2], [2, 3]]), "batch.spans"),
        (dict(head=[0, 0], tail=[1, 1]), "no row names"),
        (dict(relation_label=[1]), "batch.relation_label"),
        (dict(spans=[[0, 1], [3, 4], [1, 2]]), "batch.spans"),
        (dict(lengths=[5]), "batch.lengths"),
        (dict(lengths=[5, 4]), "batch.lengths"),
        (dict(head=np.array([0.0, 2.0])), "batch.head"),
        (dict(tail=[0, 3]), "disjoint"),
        (dict(spans=[[0, 2], [1, 4], [1, 2], [2, 3]]), "disjoint"),
        (dict(relation_label=[1, -1]), "batch.relation_label"),
        (dict(relation_label=[1, 3]), "batch.relation_label"),
        (dict(ner_labels=[[1, 2, 0, 3, 5], [0, 1, 2, 0, 0]]), "batch.ner_labels"),
    ], ids=["head-past-the-spans", "negative-tail", "span-in-no-sentence",
            "row-across-sentences", "span-past-its-sentence", "span-past-the-padding",
            "negative-start", "sentence-without-rows", "short-relation-labels",
            "short-spans", "short-lengths", "lengths-not-the-mask", "float-head",
            "head-is-the-tail", "overlapping-spans", "negative-relation-label",
            "relation-label-past-the-config", "bio-label-past-the-config"])
    def test_inconsistent_batch_is_rejected_before_embedding(self, change, message,
                                                               monkeypatch):
        config = tiny_config()
        params = init_params(config, seed=10)
        batch = dataclasses.replace(tiny_batch(), **{
            k: v if isinstance(v, np.ndarray) else np.array(v, dtype=np.int64)
            for k, v in change.items()})
        embedded = []
        monkeypatch.setattr(model, "embed", lambda *args: embedded.append(args))
        with pytest.raises(ValueError, match=message):
            forward(batch, params, config, mode="train")
        assert embedded == []

    @pytest.mark.parametrize("type_id", [-1, 4])
    def test_type_id_out_of_range_raises(self, type_id):
        # a negative id would otherwise wrap into the type tables silently
        config = tiny_config()
        params = init_params(config, seed=10)
        batch = tiny_batch()
        batch.tail_type = np.array([0, type_id])
        with pytest.raises(IdOutOfRange):
            forward(batch, params, config, mode="train")

    def test_dropout_needs_rng(self):
        config = tiny_config(dropout=0.5)
        params = init_params(config, seed=11)
        with pytest.raises(ValueError):
            forward(tiny_batch(), params, config, mode="train")

    def test_training_step_computes_log_partition_once(self, monkeypatch):
        # a forward makes one batched forward-backward pass and no decode;
        # backward reuses the pass and calls no CRF; there is no eval mode
        import ctie.crf as crf_module
        import ctie.model as model_module

        calls = []
        for name in ("crf_log_partition", "crf_nll", "crf_marginals", "crf_nll_grad",
                     "crf_decode"):
            def spy(*args, _fn=getattr(crf_module, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(crf_module, name, spy)
            if hasattr(model_module, name):
                monkeypatch.setattr(model_module, name, spy)

        config = tiny_config()
        params = init_params(config, seed=25)
        result = forward(tiny_batch(), params, config, mode="train")
        assert calls == ["crf_nll_grad"]
        calls.clear()
        backward(result.trace, params)
        assert calls == []
        with pytest.raises(ValueError, match="mode"):
            forward(tiny_batch(), params, config, mode="eval")
        assert calls == []

    def test_trace_replay_reproduces_outputs_bit_identically(self):
        # re-running the forward with the same dropout stream is the trace
        # replay: every stored activation and output must match exactly
        config = tiny_config(dropout=0.4)
        params = init_params(config, seed=24)
        batch = tiny_batch()
        a = forward(batch, params, config, mode="train", rng=np.random.default_rng(9))
        b = forward(batch, params, config, mode="train", rng=np.random.default_rng(9))
        assert a.joint == b.joint
        assert np.array_equal(a.trace.drop_emb, b.trace.drop_emb)
        assert np.array_equal(a.trace.h_d, b.trace.h_d)
        assert np.array_equal(a.trace.logits_ner, b.trace.logits_ner)
        assert np.array_equal(a.re_probs, b.re_probs)
        assert decoded(a, params, batch) == decoded(b, params, batch)



def _corpus_model(corpus, seed, **kwargs):
    """(row table, ModelConfig, params) for a small model of ``corpus``."""
    vocab = build_vocab(corpus.sentences)
    types = corpus.types
    rows, _ = sentence_rows(corpus.sentences, [vocab.ids(s.tokens) for s in corpus.sentences],
                            range(len(corpus.sentences)), types, 64)
    config = ModelConfig(vocab_size=len(vocab), num_ner_labels=types.num_bio_labels,
                         num_relations=types.num_relations,
                         num_entity_types=types.num_entity_types,
                         embed_dim=4, hidden_dim=3, **kwargs)
    return rows, config, init_params(config, seed=seed)


def _assert_relatively_close(actual, expected, rel=1e-12):
    """Every element within ``rel`` of the largest magnitude in ``expected``."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert np.max(np.abs(actual - expected), initial=0.0) <= rel * np.max(np.abs(expected),
                                                                           initial=0.0)


def _sentence_step(batch, params, config, seed=6):
    """(the training step on ``batch``, its per-row reference): every row
    encoded on its own under its sentence's dropout masks."""
    shared = forward(batch, params, config, rng=np.random.default_rng(seed))
    masks = (None if m is None else m[batch.sentence_of]
             for m in (shared.trace.drop_emb, shared.trace.drop_h))
    return shared, per_row_forward(batch, params, config, *masks)


def _assert_shared_matches_per_row(batch, params, config):
    """The step that encodes each distinct sentence once gives the losses,
    probabilities and gradients of the step that encodes every row under
    its sentence's dropout masks, to rounding."""
    shared, per_row = _sentence_step(batch, params, config)
    assert len(shared.trace.h_d) == batch.sentence_of.max() + 1
    for key in ("ner_nll", "re_ce", "joint"):
        assert getattr(shared, key) == pytest.approx(getattr(per_row, key), rel=1e-12)
    _assert_relatively_close(shared.re_probs, per_row.re_probs)
    expected = backward(per_row.trace, params)
    for name, grad in backward(shared.trace, params).items():
        _assert_relatively_close(grad, expected[name])


class TestSharedSentenceEncoding:
    """A training step encodes and CRF-scores each distinct sentence of a
    batch once, under one set of dropout masks, and scores every MSLR row
    from it."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_sentences=st.integers(2, 10),
           batch_size=st.integers(1, 12), shuffle_seed=st.one_of(st.none(), st.integers(0, 99)),
           use_mask=st.booleans(), use_type=st.booleans(), dropout=st.sampled_from([0.0, 0.3]))
    @example(seed=3, n_sentences=6, batch_size=1, shuffle_seed=None, use_mask=True,
             use_type=True, dropout=0.0)
    def test_shared_step_matches_the_per_row_step(self, seed, n_sentences, batch_size,
                                                   shuffle_seed, use_mask, use_type, dropout):
        corpus = random_corpus(np.random.default_rng(seed), n_sentences)
        assume(any(sentence.relations for sentence in corpus.sentences))
        rows, config, params = _corpus_model(
            corpus, seed % 1000, dropout=dropout, use_entity_mask=use_mask,
            use_entity_type=use_type, alpha=0.9, beta=1.2)
        for batch in make_batches(rows, batch_size, shuffle_seed):
            _assert_shared_matches_per_row(batch, params, config)

    def test_every_row_one_sentence(self):
        corpus = load_corpus(SMOKE_CORPUS)
        rows, config, params = _corpus_model(corpus, 4, dropout=0.0)
        most = np.argmax(np.bincount(rows.sentence_of))
        (batch,) = make_batches(rows.sentence_range(most, most + 1), 16)
        assert batch.size >= 3 and batch.sentence_of.tolist() == [0] * batch.size
        _assert_shared_matches_per_row(batch, params, config)

    def test_dropout_masks_are_shared_by_a_sentences_rows(self):
        corpus = load_corpus(SMOKE_CORPUS)
        rows, config, params = _corpus_model(corpus, 5, dropout=0.3)
        batch = make_batches(rows, 16, shuffle_seed=1)[0]
        n_sentences = batch.sentence_of.max() + 1
        assert n_sentences < batch.size  # some rows share a sentence
        trace = forward(batch, params, config, rng=np.random.default_rng(6)).trace
        width, n_pool = batch.max_len, 2 * config.hidden_dim
        assert trace.drop_emb.shape == (n_sentences, width, config.embed_dim)
        assert trace.drop_h.shape == trace.h_d.shape == (n_sentences, width, n_pool)
        _assert_shared_matches_per_row(batch, params, config)

    @pytest.mark.parametrize("dropout", [0.0, 0.4])
    def test_rows_of_their_own_sentences_match_the_per_row_step_exactly(self, dropout):
        # sentence_of = arange(B): unit CRF weights and an identity gather leave every bit
        config = tiny_config(dropout=dropout, alpha=0.8, beta=1.3)
        params = init_params(config, seed=27)
        rows = _random_rows(np.random.default_rng(28), config, [5, 2, 4, 4])
        shared, per_row = _sentence_step(_row_batch(rows, 6), params, config)
        for key in ("ner_nll", "re_ce", "joint"):
            assert getattr(shared, key) == getattr(per_row, key)
        assert np.array_equal(shared.re_probs, per_row.re_probs)
        expected = backward(per_row.trace, params)
        for name, grad in backward(shared.trace, params).items():
            assert np.array_equal(grad, expected[name]), name


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_sentences=st.integers(2, 8),
       batch_size=st.integers(2, 12), dropout=st.sampled_from([0.0, 0.3]))
def test_embedding_scatter_matches_a_2d_add_at(seed, n_sentences, batch_size, dropout):
    corpus = random_corpus(np.random.default_rng(seed), n_sentences)
    assume(any(sentence.relations for sentence in corpus.sentences))
    rows, config, params = _corpus_model(corpus, seed % 1000, dropout=dropout)
    assert not config.freeze_embeddings
    repeated = False  # some id is scattered onto more than once
    for batch in make_batches(rows, batch_size, shuffle_seed=seed % 97):
        trace = forward(batch, params, config, rng=np.random.default_rng(seed)).trace
        ids = trace.gru.packing.pack(trace.batch.token_ids)
        repeated |= len(np.unique(ids)) < len(ids)
        assert np.array_equal(backward(trace, params)["embed"], embedding_grad_2d(trace, params))
    assume(repeated)


class TestBackwardBuffer:
    def test_reused_buffer_gives_fresh_gradients(self):
        # the second batch shares no token or type id with the first, so a
        # row left over from the first step would show in embed or type_embed
        config = tiny_config(dropout=0.3)
        params = init_params(config, seed=32)
        rng = np.random.default_rng(33)
        first = _row_batch(_random_rows(rng, config, [5, 2, 4]), 5)
        second = _row_batch(_random_rows(rng, config, [3, 3]), 4)
        second.token_ids = np.where(second.attention_mask > 0, 8, 0)
        first.token_ids = np.where(first.token_ids == 8, 7, first.token_ids)
        first.head_type[:] = first.tail_type[:] = 0
        second.head_type[:] = second.tail_type[:] = 1
        buffer = {k: np.full_like(v, np.nan) for k, v in params.items()}
        for batch in (first, second):
            trace = forward(batch, params, config, rng=np.random.default_rng(34)).trace
            fresh = backward(trace, params)
            assert backward(trace, params, buffer) is buffer
            for name in params:
                assert np.array_equal(buffer[name], fresh[name]), name

    def test_without_a_buffer_each_call_returns_new_arrays(self):
        config = tiny_config()
        params = init_params(config, seed=35)
        trace = forward(tiny_batch(), params, config).trace
        a, b = backward(trace, params), backward(trace, params)
        for name in params:
            assert not np.shares_memory(a[name], b[name]), name
            assert not np.shares_memory(a[name], params[name]), name
            assert np.array_equal(a[name], b[name]), name

class TestInit:
    def test_shapes_and_finiteness(self):
        config = tiny_config()
        params = init_params(config, seed=12)
        validate_params(params, config)
        assert params["crf_trans"].shape == (7, 7)
        assert np.all(params["crf_trans"] == 0.0)
        assert params["re_w"].shape == (config.concat_dim, 3)

    def test_seed_reproducible(self):
        config = tiny_config()
        a = init_params(config, seed=13)
        b = init_params(config, seed=13)
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_ner_params_shared_across_feature_toggles(self):
        seeds = {}
        for use_mask, use_type in ((False, False), (True, False), (False, True), (True, True)):
            config = tiny_config(use_mask=use_mask, use_type=use_type)
            seeds[(use_mask, use_type)] = init_params(config, seed=14)
        base = seeds[(False, False)]
        for key, params in seeds.items():
            for name in params:
                if name.startswith("re_"):
                    continue
                assert np.array_equal(params[name], base[name]), (key, name)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        config = tiny_config()
        params = init_params(config, seed=15)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, config, extras={"vocab": ["<pad>", "<unk>", "x"]})
        ckpt = load_checkpoint(path)
        assert ckpt.config == config
        assert ckpt.extras["vocab"] == ["<pad>", "<unk>", "x"]
        for name in params:
            np.testing.assert_array_equal(ckpt.params[name], params[name])

    def test_byte_deterministic(self, tmp_path):
        config = tiny_config()
        params = init_params(config, seed=16)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, params, config)
        save_checkpoint(p2, params, config)
        assert p1.read_bytes() == p2.read_bytes()

    def test_shape_validation_on_load(self, tmp_path):
        config = tiny_config()
        params = init_params(config, seed=17)
        params["ner_w"] = np.zeros((2, 2))
        path = tmp_path / "bad.ckpt"
        save_checkpoint(path, params, config)
        with pytest.raises(SchemaError):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda params: params.pop("re_b"), r"missing=\['re_b'\]"),
        (lambda params: params.update(extra=np.zeros(2)), r"extra=\['extra'\]"),
        (lambda params: params["ner_b"].__setitem__(0, np.nan), "'ner_b' contains non-finite"),
    ], ids=["missing-parameter", "extra-parameter", "nan-parameter"])
    def test_valid_digest_over_bad_parameters_is_rejected(self, tmp_path, edit, message):
        config = tiny_config()
        params = init_params(config, seed=17)
        edit(params)
        path = tmp_path / "bad.ckpt"
        save_checkpoint(path, params, config)
        with pytest.raises(SchemaError, match=f"{re.escape(str(path))}: .*{message}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, value", [
        ("hidden_dim", 3.0), ("use_entity_mask", "no"), ("dropout", True),
    ])
    def test_mistyped_stored_config_rejected(self, tmp_path, field, value):
        config = tiny_config()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(config, seed=15),
                        dataclasses.replace(config, **{field: value}))
        with pytest.raises(SchemaError, match=f"{re.escape(str(path))}: .*{field}"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPTxxxxxxxxxxxx")
        with pytest.raises(SchemaError):
            load_checkpoint(path)

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        import builtins
        import errno

        import ctie.model as model_module

        config = tiny_config()
        path = tmp_path / "best.ckpt"
        save_checkpoint(path, init_params(config, seed=18), config)
        before = path.read_bytes()

        class DiskFull:
            """A file that takes 100 bytes, then fails like a full disk."""

            def __init__(self, fh):
                self.fh, self.room = fh, 100

            def write(self, data):
                if len(data) > self.room:
                    self.fh.write(data[: self.room])
                    raise OSError(errno.ENOSPC, "No space left on device")
                self.room -= len(data)
                return self.fh.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def __getattr__(self, name):
                return getattr(self.fh, name)

        monkeypatch.setattr(model_module, "open",
                            lambda *a, **k: DiskFull(builtins.open(*a, **k)), raising=False)
        with pytest.raises(OSError):
            save_checkpoint(path, init_params(config, seed=19), config)
        monkeypatch.undo()

        assert path.read_bytes() == before
        load_checkpoint(path)
        assert [p.name for p in tmp_path.iterdir()] == ["best.ckpt"]


class TestEmbeddingFile:
    def test_round_trip_and_init(self, tmp_path):
        config = tiny_config()
        rng = np.random.default_rng(18)
        vectors = rng.normal(size=(config.vocab_size, config.embed_dim))
        path = tmp_path / "emb.bin"
        save_embedding_file(path, vectors, vocab_hash="abc123")
        loaded = load_embedding_file(path, expected_vocab_hash="abc123")
        np.testing.assert_array_equal(loaded, vectors)
        params = init_params(config, seed=19, pretrained_embed=loaded)
        np.testing.assert_array_equal(params["embed"], vectors)

    def test_hash_mismatch(self, tmp_path):
        path = tmp_path / "emb.bin"
        save_embedding_file(path, np.zeros((3, 2)), vocab_hash="aaaa")
        with pytest.raises(SchemaError, match=re.escape(f"{path}: ")):
            load_embedding_file(path, expected_vocab_hash="bbbb")

    def test_cut_or_padded_file_rejected(self, tmp_path):
        path = tmp_path / "emb.bin"
        save_embedding_file(path, np.ones((3, 2)), vocab_hash="abc")
        blob = path.read_bytes()
        for bad in (blob[:10], blob[:25], blob[:-48], blob[:-1], blob + b"\0" * 8):
            path.write_bytes(bad)
            with pytest.raises(SchemaError):
                load_embedding_file(path)

    def test_wrong_shape_rejected(self):
        config = tiny_config()
        with pytest.raises(SchemaError):
            init_params(config, seed=20, pretrained_embed=np.zeros((2, 2)))


def _save_checkpoint(path):
    config = tiny_config()
    save_checkpoint(path, init_params(config, seed=22), config,
                    extras={"vocab": ["<pad>", "<unk>", "x"]})


def _save_embeddings(path):
    save_embedding_file(path, np.arange(12.0).reshape(4, 3), vocab_hash="abc123")


CONTAINERS = {"checkpoint": (_save_checkpoint, load_checkpoint),
              "embeddings": (_save_embeddings, load_embedding_file)}


def _rewrite_header(blob: bytes, edit) -> bytes:
    """``blob`` with ``edit`` applied to its JSON header and its SHA-256
    trailer recomputed, as a writer that meant it would."""
    (header_len,) = struct.unpack_from("<Q", blob, 12)
    header = json.loads(blob[20:20 + header_len])
    edit(header)
    text = json.dumps(header).encode()
    body = blob[:8] + struct.pack("<IQ", 3, len(text)) + text + blob[20 + header_len:-32]
    return body + hashlib.sha256(body).digest()


def _set(index, key, value):
    """A header edit: manifest entry ``index``'s ``key`` set to ``value``."""
    def edit(header):
        header["arrays"][index][key] = value
    return edit


class TestContainerIntegrity:
    """The trailer's SHA-256 covers every byte of a checkpoint or embedding
    file, and the manifest's arrays must tile the bytes before it."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        out = {}
        for kind, (save, load) in CONTAINERS.items():
            path = tmp_path_factory.mktemp(kind) / "intact.bin"
            save(path)
            out[kind] = (path.read_bytes(), load, path.with_name("corrupt.bin"))
        return out

    @pytest.mark.parametrize("kind", sorted(CONTAINERS))
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_flip_cut_or_padding_is_rejected(self, saved, kind, data):
        blob, load, path = saved[kind]
        how = data.draw(st.sampled_from(["flip", "cut", "pad"]))
        if how == "flip":
            bit = data.draw(st.integers(0, 8 * len(blob) - 1))
            bad = bytearray(blob)
            bad[bit // 8] ^= 1 << (bit % 8)
        elif how == "cut":
            bad = blob[:data.draw(st.integers(0, len(blob) - 1))]
        else:
            bad = blob + data.draw(st.binary(min_size=1, max_size=64))
        path.write_bytes(bytes(bad))
        with pytest.raises(SchemaError, match=re.escape(f"{path}: ")):
            load(path)

    @pytest.mark.parametrize("kind, edit", [
        ("embeddings", _set(0, "shape", [3, 3])),
        ("embeddings", _set(0, "shape", [5, 3])),
        ("embeddings", _set(0, "shape", [-4, -3])),
        ("embeddings", _set(0, "shape", [4.0, 3])),
        ("embeddings", lambda header: header.update(arrays=[{"name": "embed",
                                                             "shape": [2, 3]}] * 2)),
        ("embeddings", lambda header: header.update(arrays=[{"name": "embed", "shape": [3, 3]},
                                                            {"name": "extra", "shape": [3]}])),
        ("embeddings", lambda header: header.pop("vocab_hash")),
        ("embeddings", lambda header: header.update(arrays=[{"name": "embed", "shape": [12]}])),
        ("checkpoint", lambda header: header["arrays"].pop()),
        ("checkpoint", lambda header: header.update(extras=[])),
    ], ids=["row-short", "row-over", "negative-dims", "float-dim", "repeated-name",
            "extra-array", "no-vocab-hash", "one-dim-embed", "array-unlisted",
            "extras-not-object"])
    def test_valid_digest_over_a_malformed_header_is_rejected(self, saved, kind, edit):
        blob, load, path = saved[kind]
        path.write_bytes(_rewrite_header(blob, edit))
        with pytest.raises(SchemaError, match=re.escape(f"{path}: ")):
            load(path)

    @pytest.mark.parametrize("version", [1, 2, 4])
    def test_other_versions_are_rejected_by_number(self, saved, version):
        blob, load, path = saved["embeddings"]
        path.write_bytes(blob[:8] + struct.pack("<I", version) + blob[12:])
        with pytest.raises(SchemaError, match=f"{re.escape(str(path))}: .*version {version}"):
            load(path)


def test_param_shapes_cover_all_arrays():
    config = tiny_config()
    shapes = param_shapes(config)
    assert len(shapes) == 10
    assert set(init_params(config, seed=21)) == set(shapes)


def _has_dangling_i(path, bio) -> bool:
    tags = [bio[i] for i in path]
    return any(
        tag.startswith("I-") and (pos == 0 or tags[pos - 1] not in (f"B-{tag[2:]}", tag))
        for pos, tag in enumerate(tags)
    )


def test_bio_constrained_decode_wired_through_forward():
    import dataclasses

    from ctie.crf import bio_allowed_transitions
    from ctie.model import decode_constraint, encode, ner_predict

    bio = ("O", "B-Tool", "I-Tool", "B-Org", "I-Org")
    allowed = bio_allowed_transitions(bio)
    config = tiny_config()
    assert decode_constraint(config, bio) is None
    constrained = dataclasses.replace(config, bio_constrained_decode=True)
    assert np.array_equal(decode_constraint(constrained, bio), allowed)

    batch = tiny_batch()
    rng = np.random.default_rng(30)
    unconstrained_dangling = 0
    for seed in range(5):
        params = init_params(config, seed=seed)
        # push emissions around so an unconstrained decode would stumble
        params["ner_w"] = rng.normal(scale=5.0, size=params["ner_w"].shape)
        params["crf_trans"] = rng.normal(size=params["crf_trans"].shape)
        batch.token_ids = rng.integers(2, config.vocab_size, size=batch.token_ids.shape)
        h = encode(batch.token_ids, batch.attention_mask, params)
        paths = ner_predict(h, batch.attention_mask, params, allowed)
        result = forward(batch, params, config, mode="train")
        assert decoded(result, params, batch, allowed) == paths
        assert not any(_has_dangling_i(path, bio) for path in paths)
        unconstrained_dangling += sum(
            _has_dangling_i(path, bio)
            for path in ner_predict(h, batch.attention_mask, params)
        )
    assert unconstrained_dangling > 0
