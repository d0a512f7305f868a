"""Finite-difference verification of the analytic backward pass."""

import numpy as np
import pytest

from ctie.model import backward, forward, init_params

from helpers import finite_difference_check, repeated_sentence_batch, tiny_batch, tiny_config


@pytest.mark.parametrize(
    "use_mask,use_type",
    [(False, False), (True, False), (False, True), (True, True)],
    ids=["disabled", "mask_only", "type_only", "enabled"],
)
def test_all_parameter_arrays_match_finite_differences(use_mask, use_type):
    config = tiny_config(use_mask=use_mask, use_type=use_type)
    checked = finite_difference_check(config, seed=20)
    assert len(checked) == 10
    for name, (analytic, numeric) in checked.items():
        np.testing.assert_allclose(
            analytic, numeric, rtol=1e-4, atol=1e-7,
            err_msg=f"gradient mismatch in {name} "
                    f"(use_mask={use_mask}, use_type={use_type})",
        )


@pytest.mark.parametrize(
    "use_mask,use_type",
    [(False, False), (True, False), (False, True), (True, True)],
    ids=["disabled", "mask_only", "type_only", "enabled"],
)
def test_shared_sentence_encoding_matches_finite_differences(use_mask, use_type):
    # five rows of two sentences: each sentence is encoded and CRF-scored once
    config = tiny_config(use_mask=use_mask, use_type=use_type, alpha=0.8, beta=1.7)
    batch = repeated_sentence_batch()
    params = init_params(config, seed=26)
    assert len(forward(batch, params, config).trace.h_d) == 2
    checked = finite_difference_check(config, seed=26, batch=batch)
    assert len(checked) == 10
    for name, (analytic, numeric) in checked.items():
        np.testing.assert_allclose(
            analytic, numeric, rtol=1e-4, atol=1e-7,
            err_msg=f"shared encoding: {name} (use_mask={use_mask}, use_type={use_type})",
        )


def test_gradcheck_with_active_dropout():
    # fixed dropout seed per evaluation makes the loss a smooth function
    # of the parameters, so the dropout path itself is FD-checkable
    config = tiny_config(dropout=0.4)
    checked = finite_difference_check(config, seed=21, dropout_seed=123)
    for name, (analytic, numeric) in checked.items():
        np.testing.assert_allclose(
            analytic, numeric, rtol=1e-4, atol=1e-7, err_msg=f"dropout path: {name}"
        )


@pytest.mark.parametrize(
    "use_mask,use_type",
    [(False, False), (True, False), (False, True), (True, True)],
    ids=["disabled", "mask_only", "type_only", "enabled"],
)
def test_active_dropout_on_shared_sentences_matches_finite_differences(use_mask, use_type):
    # the copies of a sentence share its dropout masks, drawn once per sentence
    config = tiny_config(use_mask=use_mask, use_type=use_type, dropout=0.4, alpha=0.8, beta=1.7)
    batch = repeated_sentence_batch()
    params = init_params(config, seed=29)
    trace = forward(batch, params, config, rng=np.random.default_rng(124)).trace
    assert len(trace.drop_emb) == len(trace.drop_h) == 2
    checked = finite_difference_check(config, seed=29, dropout_seed=124, batch=batch)
    assert len(checked) == 10
    for name, (analytic, numeric) in checked.items():
        np.testing.assert_allclose(
            analytic, numeric, rtol=1e-4, atol=1e-7,
            err_msg=f"dropout on shared sentences: {name} "
                    f"(use_mask={use_mask}, use_type={use_type})",
        )


def test_gradcheck_with_loss_weights():
    config = tiny_config(alpha=0.7, beta=2.5)
    checked = finite_difference_check(config, seed=22)
    for name, (analytic, numeric) in checked.items():
        np.testing.assert_allclose(
            analytic, numeric, rtol=1e-4, atol=1e-7, err_msg=f"weighted loss: {name}"
        )


def _grads(config, seed=23):
    params = init_params(config, seed=seed)
    result = forward(tiny_batch(), params, config, mode="train")
    return backward(result.trace, params)


def test_beta_zero_kills_relation_gradients():
    grads = _grads(tiny_config(beta=0.0))
    assert np.all(grads["re_w"] == 0.0)
    assert np.all(grads["re_b"] == 0.0)
    assert np.all(grads["type_embed"] == 0.0)
    assert np.any(grads["ner_w"] != 0.0)


def test_alpha_zero_kills_crf_gradients():
    grads = _grads(tiny_config(alpha=0.0))
    assert np.all(grads["crf_trans"] == 0.0)
    assert np.all(grads["ner_w"] == 0.0)
    assert np.any(grads["re_w"] != 0.0)


def test_absent_token_rows_get_zero_gradient():
    grads = _grads(tiny_config())
    batch = tiny_batch()
    present = set(batch.token_ids.reshape(-1).tolist())
    for token_id in range(tiny_config().vocab_size):
        row = grads["embed"][token_id]
        if token_id in present:
            continue
        assert np.all(row == 0.0), f"absent token {token_id} has gradient"
    # at least one present token row is nonzero
    assert any(
        np.any(grads["embed"][t] != 0.0) for t in present if t != 0
    )


def test_both_heads_reach_shared_encoder():
    # NER-only and RE-only gradients both flow into the GRU weights and
    # differ from each other, i.e. the encoder is genuinely shared.
    ner_only = _grads(tiny_config(beta=0.0))
    re_only = _grads(tiny_config(alpha=0.0))
    both = _grads(tiny_config())
    c = slice(2 * tiny_config().hidden_dim, None)  # the c gate's block of the forward gru.w
    ner_only, re_only, both = (g["gru.w"][0, :, c] for g in (ner_only, re_only, both))
    assert np.any(ner_only != 0.0)
    assert np.any(re_only != 0.0)
    np.testing.assert_allclose(both, ner_only + re_only, atol=1e-12)
