"""Linear-chain CRF over a batch: log-partition, NLL, marginals, gradients
and Viterbi decoding.

Shapes. Emissions are (B, T, L), the mask (B, T) and gold labels (B, T)
integers. A 2-D (T, L) input, with a (T,) mask and (T,) labels, is a batch
of one and returns the per-row result: a float instead of a (B,) array, one
path instead of a list of paths. All scores live in log space. The
transition matrix is square of side L + 2 where the last two rows/columns
are virtual START and STOP states: ``trans[START, j]`` scores starting in
label j, ``trans[i, STOP]`` scores ending in label i, and ``trans[i, j]``
(i, j < L) scores the step i -> j. Entries out of those three blocks are
never read and get zero gradient.

A path y over a sequence of emissions e scores

    score(y) = trans[START, y_0] + sum_t e_t[y_t]
             + sum_t trans[y_{t-1}, y_t] + trans[y_last, STOP]

and the NLL of a gold path is logZ - score(gold), with logZ computed by
the forward recursion.

Mask rule. The mask marks padding only: each row is ones then zeros,
and any other mask is a ``ValueError``. A row's chain is its first
``length`` steps. The batch is cut to its longest row and the emissions
past each row's length are zeroed, so a padded step's emission and label
are never read, whatever they hold. Each recursion runs once over the
batch axis, and a row past the end of its chain carries its state
through unchanged. A row of padding only has logZ 0, NLL 0, zero
gradients and an empty path.

Recursions as GEMMs. Each step of the forward and the backward recursion
is one (B, L) x (L, L) product on max-shifted exponentials:

    alpha_t = log(exp(alpha_{t-1} - max alpha_{t-1}) @ exp(inner - i_max))
              + max alpha_{t-1} + i_max + e_t

with i_max the largest finite inner transition; the backward step mirrors
it with ``inner.T`` on ``e_{t+1} + beta_{t+1}``. A row whose max is -inf
stays -inf, and a label no allowed step reaches gets log(0) = -inf. The
step into STOP that closes the forward recursion is the same product
with the (L, 1) column of STOP scores.
Viterbi is max-plus: each step takes one argmax over its (B, L, L) grid
and reads the maxima back at those indices.

Exactness. With every transition finite and of span S, each product entry
is at least exp(-S), whatever the emissions, so the recursions are exact
to rounding for S below about 700 nats; training's transitions are always
finite. With -inf entries (a folded BIO mask) a label's allowed
predecessors need not hold the row's maximum, and the limit is the
per-step gap in alpha (in emission + beta for the backward pass): an
entry whose every allowed term sits more than about 700 nats below that
maximum underflows to -inf.

Single-pass gradient. ``crf_nll_grad`` runs the forward and the backward
recursion once and returns the per-row NLL, d NLL / d emissions (node
marginals minus the gold one-hot, in the original positions) and
d NLL / d transitions summed over the batch (expected minus gold counts,
including the START and STOP blocks). The expected inner counts of every
row and step are summed by one GEMM in probability space,
``exp(inner - i_max) * (P.T @ Q)``, with P and Q the alpha and the
emission-plus-beta factors max-shifted per step; no (B, T, L, L) tensor is
built. The factors are exact to rounding while no step's shift
``max alpha + max(emission + beta) + i_max - logZ`` overflows, under the
same rule as the recursions: with every transition finite the shift is at
most S, since logZ covers the path through the two maxima; with -inf
entries it is bounded only by the per-step gaps, and a step past 700 nats
gives inf or NaN.
"""

from __future__ import annotations

import numpy as np


def _exp_shifted(scores: np.ndarray) -> tuple[np.ndarray, float]:
    """(exp(scores - top), top), top the largest finite score (0 if none);
    -inf scores become 0."""
    finite = scores[np.isfinite(scores)]
    top = float(finite.max()) if finite.size else 0.0
    return np.exp(scores - top), top


def _log_matmul(x: np.ndarray, weights: np.ndarray, shift: float) -> np.ndarray:
    """log(exp(x) @ (weights * exp(shift))) for rows x (B, L), as one GEMM on
    the row-max-shifted exponentials; ``weights, shift`` is ``_exp_shifted``'s
    pair, its weights transposed for the backward recursion. A row whose
    max is -inf gives -inf, not NaN."""
    x_max = np.max(x, axis=1, keepdims=True)
    x_max = np.where(np.isfinite(x_max), x_max, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(x - x_max) @ weights) + (x_max + shift)


def _split_transitions(transitions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    transitions = np.asarray(transitions, dtype=np.float64)
    size = transitions.shape[0]
    if transitions.shape != (size, size) or size < 3:
        raise ValueError(f"transition matrix must be square (L+2), got {transitions.shape}")
    num_labels = size - 2
    start = transitions[num_labels, :num_labels]
    stop = transitions[:num_labels, num_labels + 1]
    inner = transitions[:num_labels, :num_labels]
    return inner, start, stop, num_labels


def check_padding_mask(keep: np.ndarray) -> None:
    """Raise ``ValueError`` unless every row of the boolean (B, T) ``keep``
    is ones then zeros: the mask rule of the CRF and the BiGRU."""
    if (keep[:, 1:] > keep[:, :-1]).any():  # a 0 -> 1 step: a hole, not padding
        raise ValueError("attention mask must be ones then zeros in every row (padding only)")


class _Chains:
    """A padded batch cut to its chains: ``em`` (B, N, L) holds each row's
    steps, N the longest row, with zeros past each row's length."""

    def __init__(self, emissions, mask):
        em = np.asarray(emissions, dtype=np.float64)
        self.squeeze = em.ndim == 2
        if self.squeeze:
            em = em[None]
        if em.ndim != 3:
            raise ValueError(f"emissions must be (B, T, L) or (T, L), got {em.shape}")
        n_batch, n_steps, _ = em.shape
        self.shape = em.shape
        if mask is None:
            keep = np.ones((n_batch, n_steps), dtype=bool)
        else:
            keep = (np.asarray(mask) != 0).reshape(n_batch, n_steps)
        check_padding_mask(keep)
        self.lengths = keep.sum(axis=1)
        width = int(self.lengths.max(initial=0))
        self.valid = keep[:, :width]  # (B, N) True on the steps of each chain
        self.em = np.where(self.valid[:, :, None], em[:, :width], 0.0)

    def gather(self, values) -> np.ndarray:
        """Per-step values (B, T) on the chains, 0 past each chain's end."""
        values = np.asarray(values).reshape(self.shape[:2])
        return np.where(self.valid, values[:, : self.em.shape[1]], 0)

    def scatter(self, values: np.ndarray) -> np.ndarray:
        """(B, N, L) chain values back to (B, T, L), zeros on padded steps."""
        out = np.zeros(self.shape)
        out[:, : values.shape[1]] = np.where(self.valid[:, :, None], values, 0.0)
        return out

    def result(self, per_row: np.ndarray):
        return float(per_row[0]) if self.squeeze else per_row


def _alpha_pass(chains: _Chains, inner, start, stop, keep_all: bool = False):
    """(alphas (B, N, L) or None, logZ (B,)) by the forward recursion."""
    em, lengths = chains.em, chains.lengths
    n_batch, width, _ = em.shape
    alphas = np.empty(em.shape) if keep_all else None
    if width == 0:
        return alphas, np.zeros(n_batch)
    shortest = int(lengths.min())
    step, i_max = _exp_shifted(inner)
    alpha = start + em[:, 0]
    for t in range(width):
        if t:
            nxt = _log_matmul(alpha, step, i_max) + em[:, t]
            alpha = nxt if t < shortest else np.where((t < lengths)[:, None], nxt, alpha)
        if keep_all:
            alphas[:, t] = alpha
    into_stop = _log_matmul(alpha, *_exp_shifted(stop[:, None]))[:, 0]  # the step into STOP
    log_z = np.where(lengths > 0, into_stop, 0.0)
    return alphas, log_z


def _beta_pass(chains: _Chains, inner, stop) -> np.ndarray:
    """betas (B, N, L): log-score of finishing the chain from each step."""
    em, lengths = chains.em, chains.lengths
    width = em.shape[1]
    betas = np.empty(em.shape)
    step, i_max = _exp_shifted(inner)
    beta = np.broadcast_to(stop, (len(em), len(stop)))
    for t in range(width - 1, -1, -1):
        if t < width - 1:
            nxt = _log_matmul(em[:, t + 1] + beta, step.T, i_max)
            beta = np.where((t + 1 < lengths)[:, None], nxt, stop)
        betas[:, t] = beta
    return betas


def _forward_backward(chains: _Chains, inner, start, stop):
    """(alphas, betas, node marginals (B, N, L), logZ (B,)) on the chains;
    node marginals are zero past each chain's end."""
    alphas, log_z = _alpha_pass(chains, inner, start, stop, keep_all=True)
    betas = _beta_pass(chains, inner, stop)
    valid = chains.valid[:, :, None]
    node = np.exp(np.where(valid, alphas + betas - log_z[:, None, None], -np.inf))
    return alphas, betas, node, log_z


def _gold_score(chains: _Chains, y: np.ndarray, inner, start, stop) -> np.ndarray:
    """(B,) score of each row's gold path ``y`` (gathered to the chains)."""
    valid, lengths = chains.valid, chains.lengths
    n_batch, width = y.shape
    if width == 0:
        return np.zeros(n_batch)
    rows = np.arange(n_batch)
    last = y[rows, np.maximum(lengths - 1, 0)]
    total = chains.em[rows[:, None], np.arange(width), y]  # emissions are 0 past a chain's end
    steps = np.where(valid[:, 1:], inner[y[:, :-1], y[:, 1:]], 0.0)
    ends = np.where(lengths > 0, start[y[:, 0]] + stop[last], 0.0)
    return total.sum(axis=1) + steps.sum(axis=1) + ends


def crf_log_partition(emissions: np.ndarray, transitions: np.ndarray, attention_mask=None):
    """log sum over all label paths of each row, by the forward recursion."""
    inner, start, stop, _ = _split_transitions(transitions)
    chains = _Chains(emissions, attention_mask)
    return chains.result(_alpha_pass(chains, inner, start, stop)[1])


def crf_nll(emissions: np.ndarray, labels, transitions: np.ndarray, attention_mask=None):
    """Negative log-likelihood of each row's gold path; >= 0 by construction."""
    inner, start, stop, _ = _split_transitions(transitions)
    chains = _Chains(emissions, attention_mask)
    log_z = _alpha_pass(chains, inner, start, stop)[1]
    y = chains.gather(labels).astype(np.intp)
    return chains.result(log_z - _gold_score(chains, y, inner, start, stop))


def crf_marginals(emissions: np.ndarray, transitions: np.ndarray, attention_mask=None):
    """Forward-backward node and edge marginals on the chains.

    Returns (node (B, N, L), edge (B, N-1, L, L), logZ (B,)), zero past each
    chain's end; for a (T, L) input (node (n, L), edge (n-1, L, L), logZ)
    of its one chain of n steps. The per-step edge tensor is built here
    only; the training gradient sums it without materialising it.
    """
    inner, start, stop, num_labels = _split_transitions(transitions)
    chains = _Chains(emissions, attention_mask)
    alphas, betas, node, log_z = _forward_backward(chains, inner, start, stop)
    width = node.shape[1]
    edge = np.zeros((len(node), max(width - 1, 0), num_labels, num_labels))
    if width > 1:
        log_edge = (
            alphas[:, :-1, :, None] + inner
            + (chains.em[:, 1:] + betas[:, 1:])[:, :, None, :]
            - log_z[:, None, None, None]
        )
        edge = np.exp(np.where(chains.valid[:, 1:, None, None], log_edge, -np.inf))
    if chains.squeeze:
        n = int(chains.lengths[0])
        return node[0, :n], edge[0, : max(n - 1, 0)], float(log_z[0])
    return node, edge, log_z


def crf_nll_grad(emissions: np.ndarray, labels, transitions: np.ndarray, attention_mask=None):
    """(nll, d nll/d emissions, d nll/d transitions) in one forward-backward pass.

    ``nll`` is per row ((B,), or a float for a (T, L) input), the emission
    gradient has the emissions' shape, and the transition gradient is summed
    over the rows. Emission gradients are node marginals minus the gold
    one-hot; transition gradients are expected edge counts minus gold
    counts, including the START and STOP blocks.
    """
    inner, start, stop, num_labels = _split_transitions(transitions)
    start_idx, stop_idx = num_labels, num_labels + 1
    chains = _Chains(emissions, attention_mask)
    d_transitions = np.zeros((num_labels + 2, num_labels + 2))
    if chains.em.shape[1] == 0:
        empty = np.zeros(chains.shape)
        zero = np.zeros(chains.shape[0])
        return chains.result(zero), empty[0] if chains.squeeze else empty, d_transitions

    alphas, betas, node, log_z = _forward_backward(chains, inner, start, stop)
    y = chains.gather(labels).astype(np.intp)
    nll = log_z - _gold_score(chains, y, inner, start, stop)
    valid, lengths = chains.valid, chains.lengths
    d_emissions = chains.scatter(node - np.eye(num_labels)[y])

    # Expected inner counts: sum over rows and steps t -> t+1 of
    # exp(alpha_t[i] + inner[i, j] + em_{t+1}[j] + beta_{t+1}[j] - logZ).
    if node.shape[1] > 1:
        a = alphas[:, :-1]
        r = chains.em[:, 1:] + betas[:, 1:]
        a_max = np.max(a, axis=2, keepdims=True)
        r_max = np.max(r, axis=2, keepdims=True)
        step, i_max = _exp_shifted(inner)
        shift = a_max + r_max + i_max - log_z[:, None, None]
        scale = np.exp(np.where(valid[:, 1:, None], shift, -np.inf))
        p = np.exp(a - a_max).reshape(-1, num_labels)
        q = (np.exp(r - r_max) * scale).reshape(-1, num_labels)
        d_transitions[:num_labels, :num_labels] = step * (p.T @ q)
        edges = valid[:, 1:]
        np.add.at(d_transitions, (y[:, :-1][edges], y[:, 1:][edges]), -1.0)

    # node marginals are zero on empty chains; their gold labels must not count
    has = lengths > 0
    last = (np.arange(len(lengths)), np.maximum(lengths - 1, 0))
    d_transitions[start_idx, :num_labels] = node[:, 0].sum(axis=0)
    np.add.at(d_transitions[start_idx], y[has, 0], -1.0)
    d_transitions[:num_labels, stop_idx] = node[last].sum(axis=0)
    np.add.at(d_transitions[:, stop_idx], y[last][has], -1.0)
    if chains.squeeze:
        return float(nll[0]), d_emissions[0], d_transitions
    return nll, d_emissions, d_transitions


def crf_decode(
    emissions: np.ndarray,
    transitions: np.ndarray,
    attention_mask=None,
    allowed: np.ndarray | None = None,
):
    """Viterbi argmax path of each row over its unmasked steps.

    Returns one path per row (a list of lists), or the path itself for a
    (T, L) input. ``allowed`` is an optional boolean (L+2, L+2) matrix;
    forbidden transitions score -inf at decode time only. Ties break toward
    the lower label id (np.argmax takes the first maximum).
    """
    inner, start, stop, num_labels = _split_transitions(transitions)
    if allowed is not None:
        neg = np.where(allowed, 0.0, -np.inf)
        a_inner, a_start, a_stop, _ = _split_transitions(neg)
        inner = inner + a_inner
        start = start + a_start
        stop = stop + a_stop
    chains = _Chains(emissions, attention_mask)
    em, lengths = chains.em, chains.lengths
    n_batch, width, _ = em.shape
    if width == 0:
        return [] if chains.squeeze else [[] for _ in range(n_batch)]
    shortest = int(lengths.min())
    into = np.ascontiguousarray(inner.T)  # into[j, i] scores i -> j
    back = np.empty((n_batch, width, num_labels), dtype=np.intp)
    # flat offset of grid[b, j, 0]: one argmax per step, its maxima read back by take
    offsets = np.arange(n_batch * num_labels).reshape(n_batch, num_labels) * num_labels
    score = start + em[:, 0]
    for t in range(1, width):
        grid = score[:, None, :] + into
        idx = back[:, t] = grid.argmax(axis=2)
        best = grid.take(idx + offsets) + em[:, t]
        score = best if t < shortest else np.where((t < lengths)[:, None], best, score)
    last = np.argmax(score + stop, axis=1)

    out = []
    for n, label, trail in zip(lengths.tolist(), last.tolist(), back.tolist()):
        path = [label] if n else []
        for t in range(n - 1, 0, -1):
            label = trail[t][label]
            path.append(label)
        path.reverse()
        out.append(path)
    return out[0] if chains.squeeze else out


def bio_allowed_transitions(bio_labels) -> np.ndarray:
    """Boolean (L+2, L+2) matrix of BIO-consistent transitions.

    I-T may only follow B-T or I-T, may not start a sequence, and START/STOP
    follow the usual virtual-state rules. Used only when constrained
    decoding is switched on.
    """
    num = len(bio_labels)
    start_idx, stop_idx = num, num + 1
    allowed = np.zeros((num + 2, num + 2), dtype=bool)

    def continues(prev: str, nxt: str) -> bool:
        if not nxt.startswith("I-"):
            return True
        return prev == f"B-{nxt[2:]}" or prev == nxt

    for i, prev in enumerate(bio_labels):
        for j, nxt in enumerate(bio_labels):
            allowed[i, j] = continues(prev, nxt)
        allowed[i, stop_idx] = True
    for j, nxt in enumerate(bio_labels):
        allowed[start_idx, j] = not nxt.startswith("I-")
    return allowed
