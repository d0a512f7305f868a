"""Splitting, the AdamW step, and the training loop."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctie.corpus import OntologySchema, load_corpus
from ctie.crf import crf_decode, crf_nll
from ctie.errors import DataError, NonFiniteLoss
from ctie.model import ModelConfig, decode_constraint, forward
from ctie.mslr import expand, make_batches, pair_rows, sentence_rows
from ctie.train import (
    ADAMW_CHUNK,
    TrainConfig,
    adamw_step,
    clip_gradients,
    init_adamw,
    split,
    train_loop,
)

from helpers import SMOKE_CORPUS, assert_batches_equal, random_corpus, reference_batches


# split ratios in and around [0, 1], its ends included
SPLIT_RATIOS = st.one_of(st.sampled_from([0.0, 0.15, 0.5, 1.0]), st.floats(-0.5, 1.5))


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

    def test_ratio_outside_unit_interval_is_rejected(self):
        # these sum to 1, but a negative train share would put sentences in
        # both the train and the test split
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            split(self._corpus(10), (-0.2, 0.6, 0.6), seed=0)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            TrainConfig(train_ratio=-0.2, val_ratio=0.6, test_ratio=0.6).validate()

    @pytest.mark.parametrize("field", ["max_len", "min_freq"])
    def test_config_rejects_max_len_and_min_freq_below_one(self, field):
        TrainConfig(**{field: 1}).validate()
        with pytest.raises(ValueError):
            TrainConfig(**{field: 0}).validate()

    @pytest.mark.parametrize("field, bad, good", [
        ("learning_rate", [0.0, -1e-3, float("nan"), float("inf")], [1e-5]),
        ("grad_clip_norm", [-1.0, float("nan"), float("inf")], [None, 0.0, 5.0]),
        ("beta1", [1.5, 1.0, -0.1, float("nan")], [0.0, 0.9]),
        ("beta2", [-0.1, 1.0, float("nan")], [0.0, 0.999]),
        ("epsilon", [0.0, -1e-8, float("nan"), float("inf")], [1e-8]),
        ("weight_decay", [-0.5, float("nan"), float("inf")], [0.0, 0.01]),
        ("checkpoint_every", [-2, -1], [0, 3]),
        ("batch_size", [0, -4], [1]),
        ("epochs", [0], [1]),
    ], ids=["learning_rate", "grad_clip_norm", "beta1", "beta2", "epsilon", "weight_decay",
            "checkpoint_every", "batch_size", "epochs"])
    def test_config_rejects_out_of_range_values(self, field, bad, good):
        for value in good:
            TrainConfig(**{field: value}).validate()
        for value in bad:
            with pytest.raises(ValueError, match=field):
                TrainConfig(**{field: value}).validate()

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    def test_model_config_loss_weights_are_finite_and_non_negative(self, field):
        config = dict(vocab_size=5, num_ner_labels=3, num_relations=2, num_entity_types=2)
        for value in (0.0, 2.5):
            ModelConfig(**config, **{field: value}).validate()
        for value in (-0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=field):
                ModelConfig(**config, **{field: value}).validate()

    @pytest.mark.parametrize("field", ["seed", "split_seed", "shuffle_seed"])
    def test_config_seeds_are_non_negative_ints(self, field):
        TrainConfig(**{field: 0}).validate()
        TrainConfig(**{field: 2**40}).validate()
        for bad in ("x", -1, 1.5, 3.0, True, False, [1]):
            with pytest.raises(ValueError, match=field):
                TrainConfig(**{field: bad}).validate()
        if field == "seed":
            with pytest.raises(ValueError, match="seed"):
                TrainConfig(seed=None).validate()
        else:  # None falls back to seed
            TrainConfig(**{field: None}).validate()

    @settings(max_examples=200, deadline=None)
    @given(SPLIT_RATIOS, SPLIT_RATIOS, st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_accepted_ratios_partition_the_corpus(self, val, test, n, seed):
        ratios = (1.0 - val - test, val, test)
        config = TrainConfig(train_ratio=ratios[0], val_ratio=val, test_ratio=test,
                             split_seed=seed)
        try:
            config.validate()
        except ValueError:
            with pytest.raises(ValueError):
                split(range(n), ratios, seed=seed)
            return
        parts = [set(part) for part in config.split(range(n))]
        assert sum(map(len, parts)) == n
        assert set().union(*parts) == set(range(n))

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

    def test_clip_leaves_skipped_arrays_out(self):
        grads = {"frozen": np.array([12.0]), "a": np.array([3.0, 4.0])}
        total = clip_gradients(grads, 1.0, skip=frozenset(["frozen"]))
        assert total == pytest.approx(5.0)
        np.testing.assert_allclose(grads["a"], [0.6, 0.8])
        assert grads["frozen"][0] == 12.0


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

    def test_frozen_embeddings_stay_out_of_the_clip_norm(self, monkeypatch):
        # backward computes no gradient for a frozen embedding: it stays zero,
        # and every other gradient equals the unfrozen backward's on the same
        # trace. So training matches a reference that zeroes the unfrozen
        # embedding gradient before the clip, and clips by the norm of the
        # trained arrays only
        import ctie.train as train_mod

        corpus = load_corpus(SMOKE_CORPUS)
        kwargs = dict(embed_dim=8, hidden_dim=4, dropout=0.0, freeze_embeddings=True)
        real_backward = train_mod.backward

        def run(backward):
            monkeypatch.setattr(train_mod, "backward", backward)
            return train_loop(corpus.sentences[:8], corpus.types,
                              smoke_train_config(epochs=2, grad_clip_norm=0.05),
                              model_kwargs=kwargs).params

        def unfrozen(trace, params, grads=None):
            config = dataclasses.replace(trace.config, freeze_embeddings=False)
            return real_backward(dataclasses.replace(trace, config=config), params, grads)

        def checked(trace, params, grads=None):
            grads = real_backward(trace, params, grads)
            assert np.all(grads["embed"] == 0.0)
            full = unfrozen(trace, params)
            assert np.any(full["embed"] != 0.0)
            for name in grads.keys() - {"embed"}:
                assert np.array_equal(grads[name], full[name]), name
            return grads

        def zeroed(trace, params, grads=None):
            grads = unfrozen(trace, params, grads)
            grads["embed"].fill(0.0)
            return grads

        trained = run(checked)
        reference = run(zeroed)
        for name in reference:
            np.testing.assert_array_equal(trained[name], reference[name], err_msg=name)


class TestTrainingRows:
    MODEL = dict(embed_dim=8, hidden_dim=4, dropout=0.3)

    def test_ids_come_from_the_given_types(self, tmp_path):
        # loaded without the ontology, the smoke corpus numbers its relations
        # in its own order: the sentence's own ids are not the checkpoint's
        full = load_corpus(SMOKE_CORPUS, OntologySchema.default())
        plain = load_corpus(SMOKE_CORPUS)
        first = plain.sentences[0]
        assert (expand(first, full.types)[0].relation_label
                != pair_rows(first, full.types).label[0])
        config = smoke_train_config(epochs=2, train_ratio=0.7, val_ratio=0.15,
                                    test_ratio=0.15)
        runs = {}
        for name, corpus in (("plain", plain), ("full", full)):
            runs[name] = train_loop(corpus.sentences, full.types, config,
                                    model_kwargs=self.MODEL, out_dir=tmp_path / name)
        assert runs["plain"].log.to_json() == runs["full"].log.to_json()
        assert runs["plain"].log.to_csv() == runs["full"].log.to_csv()
        for ckpt in ("best.ckpt", "final.ckpt"):
            assert ((tmp_path / "plain" / ckpt).read_bytes()
                    == (tmp_path / "full" / ckpt).read_bytes())

    def test_batches_are_the_record_by_record_reference(self, monkeypatch):
        import ctie.train as train_mod

        corpus = load_corpus(SMOKE_CORPUS)
        config = smoke_train_config(epochs=2, max_len=10, train_ratio=0.7,
                                    val_ratio=0.15, test_ratio=0.15)
        seen = []
        real_forward = train_mod.forward

        def spy(batch, *args, **kwargs):
            seen.append(batch)
            return real_forward(batch, *args, **kwargs)

        monkeypatch.setattr(train_mod, "forward", spy)
        result = train_loop(corpus.sentences, corpus.types, config, model_kwargs=self.MODEL)
        train_idx, _, _ = config.split(range(len(corpus.sentences)))
        expected = []
        for epoch in (1, 2):
            expected += reference_batches(
                corpus.sentences, train_idx, corpus.types, result.vocab, config.max_len,
                config.batch_size, shuffle_seed=config.effective_shuffle_seed + epoch)[0]
        assert_batches_equal(seen, expected)

    @pytest.mark.parametrize("pick,max_len,counts", [
        (lambda sentences: [], 64, "0 training sentences, 0 have no relation and 0"),
        (lambda sentences: sentences, 2, "50 training sentences, 0 have no relation and 50"),
        (lambda sentences: [dataclasses.replace(s, relations=()) for s in sentences[:6]], 64,
         "6 training sentences, 6 have no relation and 0"),
    ], ids=["empty-corpus", "all-overlong", "no-relations"])
    def test_no_trainable_row_is_a_data_error(self, pick, max_len, counts):
        corpus = load_corpus(SMOKE_CORPUS)
        with pytest.raises(DataError, match=f"of {counts} are longer than max_len {max_len}$"):
            train_loop(pick(corpus.sentences), corpus.types,
                       smoke_train_config(max_len=max_len), model_kwargs=self.MODEL)


class TestValidationDecode:
    """Only the validation pass decodes; training batches run no Viterbi."""

    def _config(self, epochs=1):
        return smoke_train_config(
            epochs=epochs, train_ratio=0.7, val_ratio=0.15, test_ratio=0.15
        )

    def test_one_decode_per_validation_batch_and_none_per_training_batch(self, monkeypatch):
        # training forwards decode nothing; validation encodes each sentence
        # once, one bigru and one crf_decode call per encoder chunk
        import ctie.crf as crf_module
        import ctie.evaluation as evaluation
        import ctie.model as model_module
        import ctie.train as train_mod

        events = []
        real_forward, real_decode, real_bigru = (
            train_mod.forward, crf_module.crf_decode, model_module.bigru)

        def spy(name, fn):
            def wrapper(*args, **kwargs):
                events.append(name)
                return fn(*args, **kwargs)
            return wrapper

        chunks = []
        real_encode_batches = evaluation.encode_batches

        def encode_spy(*args):
            for h, mask in real_encode_batches(*args):
                chunks.append(len(h))
                yield h, mask

        monkeypatch.setattr(evaluation, "ENCODE_CELLS", 40)
        monkeypatch.setattr(evaluation, "encode_batches", encode_spy)
        monkeypatch.setattr(train_mod, "forward", spy("forward", real_forward))
        monkeypatch.setattr(model_module, "bigru", spy("bigru", real_bigru))
        for module in (crf_module, model_module, train_mod):
            monkeypatch.setattr(module, "crf_decode", spy("decode", real_decode))
        corpus = load_corpus(SMOKE_CORPUS)
        config = self._config()
        train_loop(corpus.sentences, corpus.types, config,
                   model_kwargs=dict(embed_dim=8, hidden_dim=4, dropout=0.3))
        n_val = len(config.split(corpus.sentences)[1])
        assert len(chunks) >= 2 and sum(chunks) == n_val
        n_train = events.count("forward")
        assert n_train > 0
        assert events == ["forward", "bigru"] * n_train + ["bigru", "decode"] * len(chunks)

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


def row_batch_validation(result, sentences, val_idx, max_len, batch_size=8):
    """The validation values of ``result.params`` as a row-batch pass computes
    them, and the overlong rows it skips: every MSLR row of the validation
    sentences through a dropout-free training forward, its emissions scored
    by ``crf_nll`` and Viterbi-decoded by ``crf_decode``."""
    params = result.params
    config = dataclasses.replace(result.config, dropout=0.0)
    allowed = decode_constraint(config, result.types.bio_labels)
    kept, skipped = sentence_rows(sentences, val_idx, result.types, max_len)
    ner = re = 0.0
    rows = re_hits = tok_correct = tok_total = 0
    for batch in make_batches(kept, result.types, result.vocab, batch_size):
        out = forward(batch, params, config, mode="train")
        # the batch and its dropout-free forward hold each distinct sentence once
        logits, mask, labels, lengths = (a[batch.sentence_of] for a in (
            out.trace.logits_ner, batch.attention_mask, batch.ner_labels, batch.lengths))
        ner += float(np.sum(crf_nll(logits, labels, params["crf_trans"], mask)))
        picked = out.re_probs[np.arange(batch.size), batch.relation_label]
        re += float(np.sum(-np.log(picked)))
        re_hits += int(np.sum(np.argmax(out.re_probs, axis=1) == batch.relation_label))
        paths = crf_decode(logits, params["crf_trans"], mask, allowed=allowed)
        for path, n, gold in zip(paths, lengths, labels):
            tok_correct += int(np.sum(np.asarray(path) == gold[:n]))
            tok_total += int(n)
        rows += batch.size
    values = {
        "ner_loss": ner / rows,
        "re_loss": re / rows,
        "joint_loss": config.alpha * ner / rows + config.beta * re / rows,
        "re_acc": re_hits / rows,
        "ner_acc": tok_correct / tok_total,
    }
    return values, skipped


class TestValidationValues:
    """Validation encodes each sentence once and weights it by its row
    count; its values are those of the row-batch pass to rounding."""

    MODEL = dict(embed_dim=8, hidden_dim=4, dropout=0.3)

    def _run(self, sentences, types, monkeypatch, model_kwargs=None, **overrides):
        import ctie.evaluation as evaluation

        # several encoder chunks, padded to different lengths
        monkeypatch.setattr(evaluation, "ENCODE_CELLS", 40)
        config = smoke_train_config(epochs=1, train_ratio=0.6, val_ratio=0.25,
                                    test_ratio=0.15, **overrides)
        result = train_loop(sentences, types, config,
                            model_kwargs=dict(self.MODEL, **(model_kwargs or {})))
        train_idx, val_idx, _ = config.split(range(len(sentences)))
        return result, config, train_idx, val_idx

    def _assert_matches(self, entry, expected):
        assert entry.val_ner_acc == expected["ner_acc"]
        for key in ("ner_loss", "re_loss", "joint_loss", "re_acc"):
            assert getattr(entry, f"val_{key}") == pytest.approx(expected[key], rel=1e-12)

    @pytest.mark.parametrize("constrained", [False, True], ids=["viterbi", "bio-constrained"])
    @pytest.mark.parametrize("use_mask,use_type", [(True, True), (True, False),
                                                   (False, True), (False, False)],
                             ids=["mask-type", "mask", "type", "neither"])
    def test_values_match_row_batch_reference(self, monkeypatch, use_mask, use_type,
                                              constrained):
        corpus = load_corpus(SMOKE_CORPUS)
        result, config, _, val_idx = self._run(
            corpus.sentences, corpus.types, monkeypatch,
            dict(use_entity_mask=use_mask, use_entity_type=use_type,
                 bio_constrained_decode=constrained, alpha=0.7, beta=1.3),
        )
        expected, _ = row_batch_validation(result, corpus.sentences, val_idx, config.max_len)
        self._assert_matches(result.log.entries[0], expected)

    def test_empty_validation_split_logs_no_values(self):
        corpus = load_corpus(SMOKE_CORPUS)
        result = train_loop(corpus.sentences[:10], corpus.types, smoke_train_config(epochs=1),
                            model_kwargs=self.MODEL)
        entry = result.log.entries[0]
        for key in ("ner_loss", "re_loss", "joint_loss", "ner_acc", "re_acc"):
            assert getattr(entry, f"val_{key}") is None
        assert all(split_name == "train" for _, split_name, _, _ in result.log.rows())

    def test_sentence_without_relations_adds_nothing(self, monkeypatch):
        import ctie.evaluation as evaluation

        corpus = load_corpus(SMOKE_CORPUS)
        sentences = list(corpus.sentences)
        _, val_idx, _ = smoke_train_config(
            train_ratio=0.6, val_ratio=0.25, test_ratio=0.15).split(range(len(sentences)))
        bare = val_idx[1]
        sentences[bare] = dataclasses.replace(sentences[bare], relations=())
        encoded = []
        real_encode_batches = evaluation.encode_batches

        def encode_spy(params, vocab, token_seqs):
            encoded.extend(token_seqs)
            return real_encode_batches(params, vocab, token_seqs)

        monkeypatch.setattr(evaluation, "encode_batches", encode_spy)
        result, config, _, val_idx = self._run(sentences, corpus.types, monkeypatch)
        assert sentences[bare].tokens not in encoded
        assert len(encoded) == len(val_idx) - 1
        others = [i for i in val_idx if i != bare]
        expected, _ = row_batch_validation(result, sentences, others, config.max_len)
        self._assert_matches(result.log.entries[0], expected)

    def test_overlong_sentence_is_skipped_and_listed_per_row(self, monkeypatch):
        corpus = load_corpus(SMOKE_CORPUS)
        sentences = corpus.sentences
        result, config, train_idx, val_idx = self._run(
            sentences, corpus.types, monkeypatch, max_len=10)
        # the record-by-record reference lists every overlong row: encode_all
        # skips rows, not sentences
        train_skipped, val_skipped = (
            reference_batches(sentences, idx, corpus.types, result.vocab, 10, 8)[1]
            for idx in (train_idx, val_idx))
        expected, skipped = row_batch_validation(result, sentences, val_idx, 10)
        assert skipped == val_skipped
        assert val_skipped  # some validation sentences are overlong
        assert len(val_skipped) > len({origin[0] for origin, _ in val_skipped})
        assert result.skipped_instances == train_skipped + val_skipped
        self._assert_matches(result.log.entries[0], expected)
