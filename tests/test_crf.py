"""CRF forward/Viterbi/gradient checks against brute-force path enumeration."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ctie.crf import (
    bio_allowed_transitions,
    crf_decode,
    crf_log_partition,
    crf_marginals,
    crf_nll,
    crf_nll_grad,
)

from helpers import (
    brute_force_best_path,
    brute_force_log_partition,
    brute_force_path_score,
    enumerate_paths,
    sample_crf_case,
)


class TestClosedForms:
    def test_single_step_two_labels(self):
        # T=1, L=2, zero START/STOP transitions, gold label 0:
        # NLL = -a + log(e^a + e^b)
        a, b = 1.3, -0.4
        emissions = np.array([[a, b]])
        transitions = np.zeros((4, 4))
        nll = crf_nll(emissions, [0], transitions)
        assert nll == pytest.approx(-a + np.log(np.exp(a) + np.exp(b)), abs=1e-12)

    def test_nll_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            emissions, transitions, labels = sample_crf_case(rng)
            assert crf_nll(emissions, labels, transitions) >= -1e-12

    def test_single_step_decode(self):
        emissions = np.array([[0.1, 2.0, -1.0]])
        transitions = np.zeros((5, 5))
        transitions[3, 0] = 5.0  # START -> label 0 dominates
        assert crf_decode(emissions, transitions) == [0]

    def test_zero_scores_tie_breaks_to_label_zero(self):
        emissions = np.zeros((3, 3))
        transitions = np.zeros((5, 5))
        assert crf_decode(emissions, transitions) == [0, 0, 0]

    def test_peaked_emissions_zero_transitions(self):
        rng = np.random.default_rng(1)
        emissions = rng.normal(size=(5, 4))
        peaks = rng.integers(0, 4, size=5)
        emissions[np.arange(5), peaks] += 50.0
        transitions = np.zeros((6, 6))
        assert crf_decode(emissions, transitions) == list(peaks)


class TestBruteForceOracle:
    def test_partition_and_nll_match_enumeration(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            emissions, transitions, labels = sample_crf_case(rng)
            log_z = crf_log_partition(emissions, transitions)
            assert log_z == pytest.approx(
                brute_force_log_partition(emissions, transitions), abs=1e-8
            )
            nll = crf_nll(emissions, labels, transitions)
            expected = brute_force_log_partition(
                emissions, transitions
            ) - brute_force_path_score(emissions, tuple(labels), transitions)
            assert nll == pytest.approx(expected, abs=1e-8)

    def test_viterbi_matches_enumeration(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            emissions, transitions, _labels = sample_crf_case(rng)
            path, _score = brute_force_best_path(emissions, transitions)
            assert crf_decode(emissions, transitions) == path

    def test_viterbi_path_has_minimal_nll(self):
        rng = np.random.default_rng(44)
        for _ in range(25):
            emissions, transitions, _ = sample_crf_case(rng)
            decoded = crf_decode(emissions, transitions)
            best = crf_nll(emissions, decoded, transitions)
            n_steps, n_labels = emissions.shape
            for path in enumerate_paths(n_steps, n_labels):
                assert best <= crf_nll(emissions, list(path), transitions) + 1e-10


class TestMasking:
    def test_suffix_mask_equals_truncation(self):
        rng = np.random.default_rng(2)
        emissions = rng.normal(size=(6, 3))
        transitions = rng.normal(size=(5, 5))
        labels = rng.integers(0, 3, size=6)
        mask = [1, 1, 1, 1, 0, 0]
        assert crf_nll(emissions, labels, transitions, mask) == pytest.approx(
            crf_nll(emissions[:4], labels[:4], transitions), abs=1e-12
        )
        assert crf_decode(emissions, transitions, mask) == crf_decode(
            emissions[:4], transitions
        )

    def test_interior_mask_compacts_chain(self):
        rng = np.random.default_rng(3)
        emissions = rng.normal(size=(5, 3))
        transitions = rng.normal(size=(5, 5))
        labels = rng.integers(0, 3, size=5)
        mask = [1, 0, 1, 1, 0]
        keep = [0, 2, 3]
        assert crf_nll(emissions, labels, transitions, mask) == pytest.approx(
            crf_nll(emissions[keep], labels[keep], transitions), abs=1e-12
        )

    def test_all_masked_is_zero(self):
        emissions = np.ones((3, 2))
        transitions = np.zeros((4, 4))
        assert crf_log_partition(emissions, transitions, [0, 0, 0]) == 0.0
        assert crf_decode(emissions, transitions, [0, 0, 0]) == []


class TestStability:
    def test_huge_emissions_stay_finite(self):
        rng = np.random.default_rng(4)
        emissions = rng.uniform(-1e3, 1e3, size=(8, 5))
        transitions = np.zeros((7, 7))
        labels = rng.integers(0, 5, size=8)
        assert np.isfinite(crf_log_partition(emissions, transitions))
        assert np.isfinite(crf_nll(emissions, labels, transitions))

    def test_marginals_are_distributions(self):
        rng = np.random.default_rng(5)
        emissions, transitions, _ = sample_crf_case(rng, max_t=4, max_l=3)
        node, edge, _ = crf_marginals(emissions, transitions)
        assert np.allclose(node.sum(axis=1), 1.0, atol=1e-12)
        for t in range(edge.shape[0]):
            assert edge[t].sum() == pytest.approx(1.0, abs=1e-12)


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            emissions, transitions, labels = sample_crf_case(rng)
            _nll, d_em, d_trans = crf_nll_grad(emissions, labels, transitions)
            step = 1e-6

            for arr, grad in ((emissions, d_em), (transitions, d_trans)):
                flat = arr.reshape(-1)
                for k in range(flat.size):
                    orig = flat[k]
                    flat[k] = orig + step
                    up = crf_nll(emissions, labels, transitions)
                    flat[k] = orig - step
                    down = crf_nll(emissions, labels, transitions)
                    flat[k] = orig
                    fd = (up - down) / (2 * step)
                    assert grad.reshape(-1)[k] == pytest.approx(fd, abs=1e-6)

    def test_gradient_respects_mask(self):
        rng = np.random.default_rng(7)
        emissions = rng.normal(size=(5, 3))
        transitions = rng.normal(size=(5, 5))
        labels = rng.integers(0, 3, size=5)
        mask = [1, 1, 0, 1, 0]
        _nll, d_em, _ = crf_nll_grad(emissions, labels, transitions, mask)
        assert np.all(d_em[2] == 0.0)
        assert np.all(d_em[4] == 0.0)
        assert np.any(d_em[0] != 0.0)


class TestBioConstraints:
    def test_constrained_decode_never_emits_dangling_i(self):
        bio = ("O", "B-Tool", "I-Tool", "B-Org", "I-Org")
        allowed = bio_allowed_transitions(bio)
        rng = np.random.default_rng(8)
        for _ in range(50):
            emissions = rng.normal(scale=3.0, size=(6, 5))
            transitions = rng.normal(size=(7, 7))
            path = crf_decode(emissions, transitions, allowed=allowed)
            tags = [bio[i] for i in path]
            for pos, tag in enumerate(tags):
                if tag.startswith("I-"):
                    assert pos > 0
                    prev = tags[pos - 1]
                    assert prev in (f"B-{tag[2:]}", tag)


@st.composite
def ragged_batches(draw):
    """A random batch with ragged masks (interior holes and all-masked rows
    included) and, half the time, a BIO label set whose -inf forbidden
    transitions are folded into the transition scores and used to decode;
    gold paths then follow the BIO rules along each row's chain."""
    n_batch = draw(st.integers(1, 4))
    n_steps = draw(st.integers(1, 6))
    bio = None
    if draw(st.booleans()):
        bio = ("O",) + tuple(f"{p}-T{k}" for k in range(draw(st.integers(1, 2))) for p in "BI")
    n_labels = len(bio) if bio else draw(st.integers(1, 4))
    mask = np.array(draw(st.lists(
        st.lists(st.booleans(), min_size=n_steps, max_size=n_steps),
        min_size=n_batch, max_size=n_batch,
    )), dtype=np.float64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.1, 1.0, 5.0]))
    emissions = rng.normal(scale=scale, size=(n_batch, n_steps, n_labels))
    transitions = rng.normal(size=(n_labels + 2, n_labels + 2))
    labels = rng.integers(0, n_labels, size=(n_batch, n_steps))
    allowed = None
    if bio:
        allowed = bio_allowed_transitions(bio)
        transitions = transitions + np.where(allowed, 0.0, -np.inf)
        for b in range(n_batch):
            prev = "O"
            for t in np.flatnonzero(mask[b]):
                tag = bio[labels[b, t]]
                if tag.startswith("I-") and prev[2:] != tag[2:]:
                    labels[b, t] -= 1  # the matching B- tag
                prev = bio[labels[b, t]]
    return emissions, transitions, labels, mask, allowed


class TestBatchInvariance:
    """Each row of a batch gets what it gets alone and what its compacted
    chain gets: the result depends neither on the mask layout nor on the
    other rows."""

    @given(ragged_batches())
    def test_rows_match_alone_and_compacted(self, case):
        emissions, transitions, labels, mask, allowed = case
        nll, d_em, d_trans = crf_nll_grad(emissions, labels, transitions, mask)
        log_z = crf_log_partition(emissions, transitions, mask)
        paths = crf_decode(emissions, transitions, mask, allowed=allowed)
        node, _edge, _ = crf_marginals(emissions, transitions, mask)
        for out in (nll, d_em, d_trans, log_z, node):
            assert not np.any(np.isnan(out))
        assert np.allclose(crf_nll(emissions, labels, transitions, mask), nll,
                           rtol=1e-12, atol=1e-12)

        summed = np.zeros_like(d_trans)
        for b in range(len(emissions)):
            keep = np.flatnonzero(mask[b])
            alone = crf_nll_grad(emissions[b], labels[b], transitions, mask[b])
            chain = crf_nll_grad(emissions[b][keep], labels[b][keep], transitions)
            for row_nll, row_d_em, row_d_trans in (alone, chain):
                assert row_nll == pytest.approx(nll[b], rel=1e-9, abs=1e-9)
                np.testing.assert_allclose(row_d_trans, alone[2], rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(alone[1], d_em[b], rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(chain[1], d_em[b][keep], rtol=1e-9, atol=1e-9)
            assert np.all(np.delete(d_em[b], keep, axis=0) == 0.0)
            summed += alone[2]

            assert crf_log_partition(emissions[b][keep], transitions) == pytest.approx(
                log_z[b], rel=1e-9, abs=1e-9)
            np.testing.assert_allclose(
                crf_marginals(emissions[b][keep], transitions)[0], node[b, : len(keep)],
                rtol=1e-9, atol=1e-9,
            )
            assert paths[b] == crf_decode(emissions[b], transitions, mask[b], allowed=allowed)
            assert paths[b] == crf_decode(emissions[b][keep], transitions, allowed=allowed)
            assert len(paths[b]) == len(keep)
        np.testing.assert_allclose(summed, d_trans, rtol=1e-9, atol=1e-9)
