"""Splitting, the AdamW step, and the training loop."""

import numpy as np
import pytest

from ctie.corpus import load_corpus
from ctie.errors import NonFiniteLoss
from ctie.train import (
    ADAMW_CHUNK,
    TrainConfig,
    adamw_step,
    clip_gradients,
    init_adamw,
    split,
    train_loop,
)

from helpers import SMOKE_CORPUS, random_corpus


class TestSplit:
    def _corpus(self, n):
        rng = np.random.default_rng(0)
        return random_corpus(rng, n).sentences

    def test_100_sentences(self):
        train, val, test = split(self._corpus(100), (0.7, 0.15, 0.15), seed=1)
        assert (len(train), len(val), len(test)) == (70, 15, 15)

    def test_10_sentences_floor_remainder_to_train(self):
        train, val, test = split(self._corpus(10), (0.7, 0.15, 0.15), seed=1)
        assert (len(train), len(val), len(test)) == (8, 1, 1)

    def test_deterministic(self):
        sentences = self._corpus(40)
        a = split(sentences, seed=9)
        b = split(sentences, seed=9)
        assert a == b

    def test_partition(self):
        sentences = self._corpus(37)
        train, val, test = split(sentences, seed=3)
        ids = lambda part: {id(s) for s in part}
        assert not (ids(train) & ids(val))
        assert not (ids(train) & ids(test))
        assert not (ids(val) & ids(test))
        assert len(train) + len(val) + len(test) == 37

    def test_bad_ratios(self):
        with pytest.raises(ValueError):
            split(self._corpus(5), (0.5, 0.2, 0.2), seed=0)

    def test_config_split_uses_its_ratios_and_split_seed(self):
        sentences = self._corpus(30)
        config = TrainConfig(train_ratio=0.6, val_ratio=0.2, test_ratio=0.2, seed=1, split_seed=8)
        assert config.split(sentences) == split(sentences, (0.6, 0.2, 0.2), seed=8)
        assert TrainConfig(seed=8).split(sentences) == split(sentences, seed=8)


class TestAdamW:
    def _cfg(self, lr=0.1, wd=0.0):
        return TrainConfig(learning_rate=lr, weight_decay=wd)

    def test_zero_grad_zero_decay_unchanged(self):
        params = {"w": np.array([1.0, -2.0])}
        state = init_adamw(params)
        adamw_step(params, {"w": np.zeros(2)}, state, self._cfg(wd=0.0))
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])

    def test_zero_grad_pure_decay(self):
        params = {"w": np.array([1.0, -2.0])}
        state = init_adamw(params)
        cfg = self._cfg(lr=0.1, wd=0.01)
        adamw_step(params, {"w": np.zeros(2)}, state, cfg)
        np.testing.assert_allclose(params["w"], np.array([1.0, -2.0]) * (1 - 0.1 * 0.01))

    def test_hand_computed_single_step(self):
        # param 1.0, grad 1.0, lr 0.1, wd 0, eps 1e-8: m_hat = v_hat = 1
        # so the update is param - 0.1 * 1/(1 + 1e-8) ~= 0.9
        params = {"w": np.array([1.0])}
        state = init_adamw(params)
        adamw_step(params, {"w": np.array([1.0])}, state, self._cfg(lr=0.1))
        assert params["w"][0] == pytest.approx(1.0 - 0.1 / (1.0 + 1e-8), abs=1e-12)
        assert state.step == 1

    def test_state_shapes_track_params(self):
        params = {"a": np.zeros((2, 3)), "b": np.zeros(4)}
        state = init_adamw(params)
        for name in params:
            assert state.m[name].shape == params[name].shape
            assert state.v[name].shape == params[name].shape

    def test_skip_frozen(self):
        params = {"embed": np.ones(3), "w": np.ones(3)}
        state = init_adamw(params)
        grads = {"embed": np.ones(3), "w": np.ones(3)}
        adamw_step(params, grads, state, self._cfg(), skip=frozenset(["embed"]))
        np.testing.assert_array_equal(params["embed"], np.ones(3))
        assert np.all(params["w"] != 1.0)

    def test_blocked_step_is_bit_identical_to_the_formula(self):
        # arrays on both sides of every block edge; "frozen" is skipped
        shapes = {
            "one": (1,),
            "short": (ADAMW_CHUNK - 1,),
            "exact": (ADAMW_CHUNK,),
            "over": (ADAMW_CHUNK + 1,),
            "matrix": (5, ADAMW_CHUNK // 2),
            "grid": (3, 7),
            "frozen": (ADAMW_CHUNK + 3,),
        }
        rng = np.random.default_rng(3)
        params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        frozen = params["frozen"].copy()
        expected = {name: p.copy() for name, p in params.items() if name != "frozen"}
        exp_m = {name: np.zeros_like(p) for name, p in expected.items()}
        exp_v = {name: np.zeros_like(p) for name, p in expected.items()}
        cfg = TrainConfig(learning_rate=0.05, weight_decay=0.01)
        b1, b2, lr = cfg.beta1, cfg.beta2, cfg.learning_rate
        state = init_adamw(params)
        for t in range(1, 6):
            grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
            adamw_step(params, grads, state, cfg, skip=frozenset(["frozen"]))
            for name, p in expected.items():
                g = grads[name]
                exp_m[name] = b1 * exp_m[name] + (1.0 - b1) * g
                exp_v[name] = b2 * exp_v[name] + (1.0 - b2) * (g * g)
                denom = np.sqrt(exp_v[name] / (1.0 - b2**t)) + cfg.epsilon
                p -= exp_m[name] / (1.0 - b1**t) / denom * lr
                p -= lr * cfg.weight_decay * p
            for name in expected:
                assert np.array_equal(params[name], expected[name]), name
                assert np.array_equal(state.m[name], exp_m[name]), name
                assert np.array_equal(state.v[name], exp_v[name]), name
        assert np.array_equal(params["frozen"], frozen)
        assert not state.m["frozen"].any() and not state.v["frozen"].any()

    def test_clip(self):
        grads = {"a": np.array([3.0, 4.0])}
        total = clip_gradients(grads, 1.0)
        assert total == pytest.approx(5.0)
        np.testing.assert_allclose(grads["a"], [0.6, 0.8])


def smoke_train_config(**overrides):
    base = dict(
        seed=42, epochs=2, batch_size=8, learning_rate=5e-3,
        train_ratio=1.0, val_ratio=0.0, test_ratio=0.0, max_len=64,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainLoop:
    def test_two_epochs_on_toy_corpus(self):
        corpus = load_corpus(SMOKE_CORPUS)
        config = smoke_train_config()
        result = train_loop(
            corpus.sentences[:5], corpus.types, config,
            model_kwargs=dict(embed_dim=8, hidden_dim=4, dropout=0.0),
        )
        assert len(result.log.entries) == 2
        for entry in result.log.entries:
            assert np.isfinite(entry.train_joint_loss)
            assert np.isfinite(entry.train_ner_loss)
            assert np.isfinite(entry.train_re_loss)
        assert result.best_epoch in (1, 2)

    def test_joint_decomposition_logged(self):
        corpus = load_corpus(SMOKE_CORPUS)
        result = train_loop(
            corpus.sentences[:6], corpus.types, smoke_train_config(epochs=1),
            model_kwargs=dict(embed_dim=8, hidden_dim=4, dropout=0.0, alpha=1.0, beta=1.0),
        )
        entry = result.log.entries[0]
        assert entry.train_joint_loss == pytest.approx(
            entry.train_ner_loss + entry.train_re_loss, abs=1e-9
        )

    def test_deterministic_checkpoints(self, tmp_path):
        corpus = load_corpus(SMOKE_CORPUS)
        kwargs = dict(embed_dim=8, hidden_dim=4, dropout=0.3)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            train_loop(
                corpus.sentences[:8], corpus.types, smoke_train_config(),
                model_kwargs=kwargs, out_dir=out,
            )
        assert (out_a / "best.ckpt").read_bytes() == (out_b / "best.ckpt").read_bytes()
        assert (out_a / "final.ckpt").read_bytes() == (out_b / "final.ckpt").read_bytes()

    def test_loss_decreases_on_overfit_capable_config(self):
        corpus = load_corpus(SMOKE_CORPUS)
        result = train_loop(
            corpus.sentences[:10], corpus.types, smoke_train_config(epochs=8),
            model_kwargs=dict(embed_dim=16, hidden_dim=8, dropout=0.0),
        )
        first = result.log.entries[0].train_joint_loss
        last = result.log.entries[-1].train_joint_loss
        assert last < first

    def test_validation_tracked_and_best_selected(self):
        corpus = load_corpus(SMOKE_CORPUS)
        config = smoke_train_config(
            epochs=3, train_ratio=0.7, val_ratio=0.15, test_ratio=0.15
        )
        result = train_loop(
            corpus.sentences, corpus.types, config,
            model_kwargs=dict(embed_dim=8, hidden_dim=4, dropout=0.0),
        )
        vals = [e.val_joint_loss for e in result.log.entries]
        assert all(v is not None for v in vals)
        assert result.best_epoch == int(np.argmin(vals)) + 1

    def test_non_finite_loss_reports_origins(self):
        corpus = load_corpus(SMOKE_CORPUS)
        config = smoke_train_config(epochs=1)

        import ctie.train as train_mod

        original = train_mod.forward

        def poisoned(*args, **kwargs):
            result = original(*args, **kwargs)
            result.joint = float("nan")
            return result

        train_mod.forward = poisoned
        try:
            with pytest.raises(NonFiniteLoss) as err:
                train_loop(
                    corpus.sentences[:4], corpus.types, config,
                    model_kwargs=dict(embed_dim=8, hidden_dim=4, dropout=0.0),
                )
            assert len(err.value.origins) > 0
        finally:
            train_mod.forward = original

    def test_log_serialization_has_no_wall_clock(self):
        corpus = load_corpus(SMOKE_CORPUS)
        result = train_loop(
            corpus.sentences[:5], corpus.types, smoke_train_config(epochs=1),
            model_kwargs=dict(embed_dim=8, hidden_dim=4, dropout=0.0),
        )
        csv_text = result.log.to_csv()
        json_text = result.log.to_json()
        assert "wall" not in csv_text and "wall" not in json_text
        assert "joint_loss" in csv_text
        assert result.log.entries[0].wall_clock_s > 0

    def test_frozen_embeddings_do_not_move(self):
        corpus = load_corpus(SMOKE_CORPUS)
        import ctie.model as model_mod

        captured = {}
        original = model_mod.init_params

        def capture(config, seed=42, pretrained_embed=None):
            params = original(config, seed=seed, pretrained_embed=pretrained_embed)
            captured["embed"] = params["embed"].copy()
            return params

        model_mod.init_params = capture
        import ctie.train as train_mod
        train_mod.init_params = capture
        try:
            result = train_loop(
                corpus.sentences[:5], corpus.types, smoke_train_config(epochs=1),
                model_kwargs=dict(embed_dim=8, hidden_dim=4, dropout=0.0,
                                  freeze_embeddings=True),
            )
        finally:
            model_mod.init_params = original
            train_mod.init_params = original
        np.testing.assert_array_equal(result.params["embed"], captured["embed"])
        assert np.any(result.params["ner_w"] != 0.0)


class TestValidationDecode:
    """Only the validation pass decodes; training batches run no Viterbi."""

    def _config(self, epochs=1):
        return smoke_train_config(
            epochs=epochs, train_ratio=0.7, val_ratio=0.15, test_ratio=0.15
        )

    def test_one_decode_per_validation_batch_and_none_per_training_batch(self, monkeypatch):
        import ctie.crf as crf_module
        import ctie.model as model_module
        import ctie.train as train_mod

        events = []
        real_forward, real_decode = train_mod.forward, crf_module.crf_decode

        def forward_spy(*args, **kwargs):
            events.append(kwargs.get("mode", "train"))
            return real_forward(*args, **kwargs)

        def decode_spy(*args, **kwargs):
            events.append("decode")
            return real_decode(*args, **kwargs)

        monkeypatch.setattr(train_mod, "forward", forward_spy)
        for module in (crf_module, model_module, train_mod):
            monkeypatch.setattr(module, "crf_decode", decode_spy)
        corpus = load_corpus(SMOKE_CORPUS)
        train_loop(corpus.sentences, corpus.types, self._config(),
                   model_kwargs=dict(embed_dim=8, hidden_dim=4, dropout=0.3))
        n_train, n_val = events.count("train"), events.count("eval")
        assert n_train > 0 and n_val > 1
        assert events == ["train"] * n_train + ["eval", "decode"] * n_val

    def test_val_ner_acc_is_constrained_token_accuracy_of_validation_rows(self, monkeypatch):
        import ctie.train as train_mod
        from ctie.crf import bio_allowed_transitions
        from ctie.model import encode, ner_predict

        real_init = train_mod.init_params

        def perturbed(config, seed=42, pretrained_embed=None):
            # large random emissions and transitions, so that the BIO
            # constraint changes the decoded tags
            params = real_init(config, seed=seed, pretrained_embed=pretrained_embed)
            rng = np.random.default_rng(seed)
            params["ner_w"] = rng.normal(scale=5.0, size=params["ner_w"].shape)
            params["crf_trans"] = rng.normal(size=params["crf_trans"].shape)
            return params

        monkeypatch.setattr(train_mod, "init_params", perturbed)
        corpus = load_corpus(SMOKE_CORPUS)
        config = self._config()
        config.learning_rate = 1e-5
        result = train_loop(
            corpus.sentences, corpus.types, config,
            model_kwargs=dict(embed_dim=8, hidden_dim=4, dropout=0.0,
                              bio_constrained_decode=True),
        )
        _train, val, _test = config.split(corpus.sentences)

        def accuracy(allowed):
            correct = total = 0
            for sentence in val:
                ids = [[result.vocab.id(t) for t in sentence.tokens]]
                mask = np.ones((1, len(sentence)))
                h = encode(ids, mask, result.params)
                path = ner_predict(h, mask, result.params, allowed)[0]
                gold = [corpus.types.bio_id(tag) for tag in sentence.labels]
                # one validation row per relation of the sentence
                correct += len(sentence.relations) * sum(p == g for p, g in zip(path, gold))
                total += len(sentence.relations) * len(sentence)
            return correct / total

        constrained = accuracy(bio_allowed_transitions(corpus.types.bio_labels))
        assert constrained != accuracy(None)
        assert result.log.entries[-1].val_ner_acc == constrained
