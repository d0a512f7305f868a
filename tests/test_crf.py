"""CRF forward/Viterbi/gradient checks against brute-force path enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctie.crf import (
    _exp_shifted,
    _log_matmul,
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


def _reference_logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    amax = np.max(a, axis=axis, keepdims=True)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    return np.log(np.sum(np.exp(a - amax), axis=axis)) + np.squeeze(amax, axis=axis)


def _reference_crf(emissions, labels, transitions, mask):
    """(logZ, NLL, d emissions, d transitions, node marginals) of a batch by
    the log-space recursion, one (L, L) logsumexp per step, on each row's
    compacted chain; node marginals are (B, N, L) on the chains, as
    ``crf_marginals`` returns them."""
    n_batch, n_steps, n_labels = emissions.shape
    inner = transitions[:n_labels, :n_labels]
    start, stop = transitions[n_labels, :n_labels], transitions[:n_labels, n_labels + 1]
    log_z, nll = np.zeros(n_batch), np.zeros(n_batch)
    node = np.zeros((n_batch, int(mask.sum(axis=1).max()), n_labels))
    d_em = np.zeros(emissions.shape)
    d_trans = np.zeros(transitions.shape)
    for b in range(n_batch):
        keep = np.flatnonzero(mask[b])
        n = len(keep)
        if n == 0:
            continue
        em, y = emissions[b, keep], labels[b, keep]
        alpha, beta = np.empty((n, n_labels)), np.empty((n, n_labels))
        alpha[0] = start + em[0]
        beta[-1] = stop
        with np.errstate(divide="ignore"):
            for t in range(1, n):
                alpha[t] = _reference_logsumexp(alpha[t - 1][:, None] + inner, axis=0) + em[t]
            for t in range(n - 2, -1, -1):
                beta[t] = _reference_logsumexp(inner + (em[t + 1] + beta[t + 1])[None], axis=1)
        log_z[b] = _reference_logsumexp(alpha[-1] + stop, axis=0)
        gold = (start[y[0]] + em[np.arange(n), y].sum()
                + inner[y[:-1], y[1:]].sum() + stop[y[-1]])
        nll[b] = log_z[b] - gold
        node[b, :n] = np.exp(alpha + beta - log_z[b])
        d_em[b, keep] = node[b, :n]
        d_em[b, keep, y] -= 1.0
        edge = np.exp(alpha[:-1, :, None] + inner + (em[1:] + beta[1:])[:, None, :] - log_z[b])
        d_trans[:n_labels, :n_labels] += edge.sum(axis=0)
        np.add.at(d_trans, (y[:-1], y[1:]), -1.0)
        d_trans[n_labels, :n_labels] += node[b, 0]
        d_trans[n_labels, y[0]] -= 1.0
        d_trans[:n_labels, n_labels + 1] += node[b, n - 1]
        d_trans[y[-1], n_labels + 1] -= 1.0
    return log_z, nll, d_em, d_trans, node


@st.composite
def extreme_batches(draw):
    """Ragged batches (interior holes and all-masked rows included) at the
    edge of the recursions' exactness rule. Half are finite transitions of
    span up to 600 nats with emissions up to +-1e3, some labels forbidden
    (-inf emission) off the gold path: exact whatever the emissions. The
    other half fold the BIO -inf matrix into the transitions, with emissions
    and span up to 100 so that every per-step gap stays far below 700 nats."""
    n_batch = draw(st.integers(1, 4))
    n_steps = draw(st.integers(1, 7))
    bio = None
    if draw(st.booleans()):
        bio = ("O",) + tuple(f"{p}-T{k}" for k in range(draw(st.integers(1, 2))) for p in "BI")
    n_labels = len(bio) if bio else draw(st.integers(1, 5))
    mask = np.array(draw(st.lists(
        st.lists(st.booleans(), min_size=n_steps, max_size=n_steps),
        min_size=n_batch, max_size=n_batch,
    )), dtype=np.float64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bound = draw(st.sampled_from([1.0, 100.0] if bio else [1.0, 10.0, 1e3]))
    span = draw(st.sampled_from([1.0, 100.0] if bio else [1.0, 60.0, 600.0]))
    emissions = rng.uniform(-bound, bound, size=(n_batch, n_steps, n_labels))
    transitions = rng.uniform(-span / 2, span / 2, size=(n_labels + 2, n_labels + 2))
    labels = rng.integers(0, n_labels, size=(n_batch, n_steps))
    if bio:
        transitions = transitions + np.where(bio_allowed_transitions(bio), 0.0, -np.inf)
        for b in range(n_batch):
            prev = "O"
            for t in np.flatnonzero(mask[b]):
                tag = bio[labels[b, t]]
                if tag.startswith("I-") and prev[2:] != tag[2:]:
                    labels[b, t] -= 1  # the matching B- tag
                prev = bio[labels[b, t]]
    elif draw(st.booleans()):
        forbid = (rng.random(emissions.shape) < 0.4) & (mask[:, :, None] != 0)
        np.put_along_axis(forbid, labels[:, :, None], False, axis=2)
        emissions[forbid] = -np.inf
    return emissions, transitions, labels, mask


class TestGemmRecursions:
    """The GEMM recursions against the log-space logsumexp recursion they
    replaced, inside the exactness rule of the module docstring."""

    @settings(max_examples=200, deadline=None)
    @given(extreme_batches())
    def test_match_logsumexp_recursion(self, case):
        emissions, transitions, labels, mask = case
        ref_log_z, ref_nll, ref_d_em, ref_d_trans, ref_node = _reference_crf(
            emissions, labels, transitions, mask)
        log_z = crf_log_partition(emissions, transitions, mask)
        nll, d_em, d_trans = crf_nll_grad(emissions, labels, transitions, mask)
        node = crf_marginals(emissions, transitions, mask)[0]
        for out in (log_z, nll, d_em, d_trans, node):
            assert not np.any(np.isnan(out))
        # logZ reaches ~1e4 nats, so compare it and the NLL relative to that size
        size = 1.0 + np.abs(ref_log_z).max()
        np.testing.assert_allclose(log_z, ref_log_z, rtol=0, atol=1e-13 * size)
        np.testing.assert_allclose(nll, ref_nll, rtol=0, atol=1e-13 * size)
        np.testing.assert_allclose(crf_nll(emissions, labels, transitions, mask), ref_nll,
                                   rtol=0, atol=1e-13 * size)
        np.testing.assert_allclose(d_em, ref_d_em, rtol=0, atol=1e-9)
        np.testing.assert_allclose(d_trans, ref_d_trans, rtol=0, atol=1e-9)
        np.testing.assert_allclose(node, ref_node, rtol=0, atol=1e-9)

    def test_row_with_no_finite_score_stays_minus_inf(self):
        step, i_max = _exp_shifted(np.array([[0.0, -np.inf], [2.0, 1.0]]))
        rows = np.array([[-np.inf, -np.inf], [-np.inf, 3.0], [0.5, -np.inf]])
        out = _log_matmul(rows, step, i_max)
        expected = np.array([
            [-np.inf, -np.inf],
            [5.0, 4.0],
            [0.5, -np.inf],
        ])
        np.testing.assert_allclose(out, expected, rtol=1e-15)
