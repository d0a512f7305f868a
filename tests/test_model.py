"""Layer-level oracles and forward-pass contracts for the joint model."""

import numpy as np
import pytest

from ctie.errors import EmptyMask, IdOutOfRange, SchemaError
from ctie.model import (
    ModelConfig,
    backward,
    bigru,
    embed,
    entity_pool,
    forward,
    init_params,
    joint_loss,
    load_checkpoint,
    load_embedding_file,
    ner_logits,
    param_shapes,
    relation_features,
    relation_logits_and_probs,
    save_checkpoint,
    save_embedding_file,
    validate_params,
)

from helpers import tiny_batch, tiny_config


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


def manual_gru_states(x, p, prefix):
    """Independent straight-line GRU oracle (no masking, single row)."""
    w_z, w_r, w_c = p[f"{prefix}.w_z"], p[f"{prefix}.w_r"], p[f"{prefix}.w_c"]
    u_z, u_r, u_c = p[f"{prefix}.u_z"], p[f"{prefix}.u_r"], p[f"{prefix}.u_c"]
    b_z, b_r, b_c = p[f"{prefix}.b_z"], p[f"{prefix}.b_r"], p[f"{prefix}.b_c"]
    h = np.zeros(u_z.shape[0])
    states = []
    for t in range(x.shape[0]):
        z = 1.0 / (1.0 + np.exp(-(x[t] @ w_z + h @ u_z + b_z)))
        r = 1.0 / (1.0 + np.exp(-(x[t] @ w_r + h @ u_r + b_r)))
        c = np.tanh(x[t] @ w_c + (r * h) @ u_c + b_c)
        h = (1.0 - z) * c + z * h
        states.append(h.copy())
    return states


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
            if name.startswith("gru_"):
                params[name] = np.zeros_like(params[name])
        x = np.random.default_rng(2).normal(size=(4, 4))
        out = bigru(x, [1, 1, 1, 1], params)
        assert np.all(out == 0.0)

    def test_single_step_concatenates_both_directions(self):
        params = self._params()
        x = np.random.default_rng(3).normal(size=(1, 4))
        out = bigru(x, [1], params)
        fwd = manual_gru_states(x, params, "gru_fwd")[0]
        bwd = manual_gru_states(x, params, "gru_bwd")[0]
        np.testing.assert_allclose(out[0], np.concatenate([fwd, bwd]), atol=1e-12)

    def test_matches_straight_line_oracle(self):
        params = self._params(seed=7)
        x = np.random.default_rng(4).normal(size=(2, 4))
        out = bigru(x, [1, 1], params)
        fwd = manual_gru_states(x, params, "gru_fwd")
        bwd_rev = manual_gru_states(x[::-1], params, "gru_bwd")
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


class TestEntityPool:
    def test_direct_sum(self):
        h = np.array([[1.0, 0.0], [2.0, 2.0], [3.0, 1.0]])
        np.testing.assert_array_equal(entity_pool(h, [1, 0, 1]), [4.0, 1.0])

    def test_all_ones_column_sums(self):
        h = np.random.default_rng(9).normal(size=(6, 3))
        np.testing.assert_allclose(entity_pool(h, [1] * 6), h.sum(axis=0))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(10)
        h = rng.normal(size=(5, 4))
        mask = np.array([1, 0, 1, 1, 0], dtype=float)
        perm = rng.permutation(5)
        np.testing.assert_allclose(
            entity_pool(h, mask), entity_pool(h[perm], mask[perm]), atol=1e-12
        )

    def test_linear_in_disjoint_masks(self):
        rng = np.random.default_rng(11)
        h = rng.normal(size=(8, 3))
        m1 = np.array([1, 1, 0, 0, 0, 0, 0, 0], dtype=float)
        m2 = np.array([0, 0, 0, 1, 0, 1, 0, 0], dtype=float)
        np.testing.assert_allclose(
            entity_pool(h, m1 + m2), entity_pool(h, m1) + entity_pool(h, m2), atol=1e-12
        )

    def test_empty_mask_raises(self):
        with pytest.raises(EmptyMask):
            entity_pool(np.ones((3, 2)), [0, 0, 0])


class TestRelationFeatures:
    def test_disabled_types_returns_pool(self):
        pool = np.arange(4.0)
        table = np.random.default_rng(12).normal(size=(3, 4))
        out = relation_features(pool, 1, 2, table, use_entity_type=False)
        np.testing.assert_array_equal(out, pool)

    def test_static_lookup_same_across_contexts(self):
        table = np.random.default_rng(13).normal(size=(3, 4))
        a = relation_features(np.zeros(4), 1, 2, table)
        b = relation_features(np.ones(4) * 9, 1, 2, table)
        np.testing.assert_array_equal(a[4:], b[4:])

    def test_output_length(self):
        config = tiny_config()
        table = np.zeros((config.num_entity_types, config.entity_type_dim))
        pool = np.zeros(2 * config.hidden_dim)
        out = relation_features(pool, 0, 1, table)
        assert out.shape == (config.concat_dim,)
        assert config.concat_dim == 2 * config.hidden_dim + 2 * config.entity_type_dim


class TestRelationHead:
    def test_equal_logits_uniform(self):
        logits, probs = relation_logits_and_probs(np.zeros(2), np.eye(2), np.zeros(2))
        np.testing.assert_allclose(probs, [0.5, 0.5])

    def test_shift_invariance(self):
        rng = np.random.default_rng(14)
        feats = rng.normal(size=5)
        w = rng.normal(size=(5, 4))
        _, p1 = relation_logits_and_probs(feats, w, np.zeros(4))
        _, p2 = relation_logits_and_probs(feats, w, np.full(4, 7.5))
        np.testing.assert_allclose(p1, p2, atol=1e-9)

    def test_probability_vector(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            logits, probs = relation_logits_and_probs(
                rng.normal(size=6), rng.normal(size=(6, 5)), rng.normal(size=5)
            )
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(probs >= 0)
            assert np.argmax(probs) == np.argmax(logits)


class TestJointLoss:
    def test_weighted_sum(self):
        assert joint_loss(2.0, 0.5, 1.0, 1.0) == 2.5

    def test_beta_zero(self):
        assert joint_loss(3.0, 100.0, 2.0, 0.0) == 6.0

    def test_defaults_are_unit_weights(self):
        assert joint_loss(1.25, 0.75) == 2.0


class TestForward:
    def test_eval_deterministic(self):
        config = tiny_config(dropout=0.3)
        params = init_params(config, seed=5)
        batch = tiny_batch()
        a = forward(batch, params, config, mode="eval")
        b = forward(batch, params, config, mode="eval")
        assert a.ner_nll == b.ner_nll
        assert a.re_ce == b.re_ce
        assert np.array_equal(a.re_probs, b.re_probs)
        assert a.decoded == b.decoded

    def test_train_with_zero_dropout_equals_eval(self):
        config = tiny_config(dropout=0.0)
        params = init_params(config, seed=6)
        batch = tiny_batch()
        t = forward(batch, params, config, mode="train")
        e = forward(batch, params, config, mode="eval")
        assert t.joint == e.joint
        assert np.array_equal(t.re_probs, e.re_probs)

    def test_joint_is_weighted_sum(self):
        config = tiny_config()
        params = init_params(config, seed=7)
        result = forward(tiny_batch(), params, config, mode="eval")
        assert result.joint == pytest.approx(result.ner_nll + result.re_ce, abs=1e-12)

    def test_type_toggle_leaves_ner_branch_identical(self):
        batch = tiny_batch()
        outputs = {}
        for use_type in (True, False):
            config = tiny_config(use_type=use_type)
            params = init_params(config, seed=8)
            outputs[use_type] = forward(batch, params, config, mode="eval")
        assert np.array_equal(outputs[True].ner_scores, outputs[False].ner_scores)
        assert outputs[True].decoded == outputs[False].decoded
        assert outputs[True].ner_nll == outputs[False].ner_nll

    def test_unlabeled_batch_has_no_losses(self):
        config = tiny_config()
        params = init_params(config, seed=9)
        batch = tiny_batch()
        batch.relation_label = np.array([-1, -1], dtype=np.int64)
        result = forward(batch, params, config, mode="eval")
        assert result.ner_nll is None and result.re_ce is None and result.joint is None
        assert result.re_probs.shape == (2, config.num_relations)

    def test_empty_entity_mask_raises(self):
        config = tiny_config(use_mask=True)
        params = init_params(config, seed=10)
        batch = tiny_batch()
        batch.entity_mask = np.zeros_like(batch.entity_mask)
        with pytest.raises(EmptyMask):
            forward(batch, params, config, mode="eval")

    def test_dropout_needs_rng(self):
        config = tiny_config(dropout=0.5)
        params = init_params(config, seed=11)
        with pytest.raises(ValueError):
            forward(tiny_batch(), params, config, mode="train")

    def test_training_step_computes_log_partition_once(self, monkeypatch):
        # a train-mode forward makes one batched forward-backward pass and
        # one batched decode; backward reuses the pass and calls no CRF
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
        assert sorted(calls) == ["crf_decode", "crf_nll_grad"]
        calls.clear()
        backward(result.trace, params)
        assert calls == []
        forward(tiny_batch(), params, config, mode="eval")
        assert sorted(calls) == ["crf_decode", "crf_nll"]

    def test_trace_replay_reproduces_outputs_bit_identically(self):
        # re-running the forward with the same dropout stream is the trace
        # replay: every stored activation and output must match exactly
        config = tiny_config(dropout=0.4)
        params = init_params(config, seed=24)
        batch = tiny_batch()
        a = forward(batch, params, config, mode="train", rng=np.random.default_rng(9))
        b = forward(batch, params, config, mode="train", rng=np.random.default_rng(9))
        assert a.joint == b.joint
        assert np.array_equal(a.trace.emb_d, b.trace.emb_d)
        assert np.array_equal(a.trace.h_d, b.trace.h_d)
        assert np.array_equal(a.trace.logits_ner, b.trace.logits_ner)
        assert np.array_equal(a.re_probs, b.re_probs)
        assert a.decoded == b.decoded


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
        with pytest.raises(SchemaError):
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


def test_param_shapes_cover_all_arrays():
    config = tiny_config()
    shapes = param_shapes(config)
    assert len(shapes) == 25
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
        assert forward(batch, params, config, mode="eval", allowed=allowed).decoded == paths
        assert not any(_has_dangling_i(path, bio) for path in paths)
        unconstrained_dangling += sum(
            _has_dangling_i(path, bio)
            for path in ner_predict(h, batch.attention_mask, params)
        )
    assert unconstrained_dangling > 0
