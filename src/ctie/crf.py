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

Recursions as GEMMs. The forward and the backward recursion run in
scaled probability space (Rabiner 1989, "A tutorial on hidden Markov
models", section V.A). Every score is exponentiated once, before the
loop: the emissions less their max over the labels at each step of each
row, ``emit_t = exp(e_t - max e_t)`` (a step with no finite score is
shifted by 0), and each transition block (inner, START, STOP) less its
smallest finite entry, ``step = exp(inner - i_min)``. A forward step is
then one (B, L) x (L, L) product, a product with the emission factors and
one division by the row sum:

    a_t = (a_{t-1} @ step) * emit_t,    c_t = sum_j a_t[j],    a_t /= c_t

so the loop runs no exp and no log. logZ is the sum of the log c_t and of
the shifts, with the step into STOP a product with the STOP factors. The
backward recursion is the same recursion on the row-reversed chains, with
``step.T`` and START and STOP swapped, carrying its own normalisers: both
run in one loop, one (2, B, L) x (2, L, L) product per step. A row with
no reachable label at some step sums to 0; it is divided as the smallest
subnormal, stays zero, and its logZ is log 0 = -inf.
Viterbi is max-plus: each step takes one argmax over its (B, L, L) grid
and reads the maxima back at those indices.

Exactness. A transition block's factors lie in [1, e^S] for a span S up
to 700 nats (a wider block is shifted 700 below its largest entry). With
every transition finite, a step's product therefore never falls below
its largest emission factor 1, whatever the emissions, and its entries
keep about 745 nats of range below that before they underflow to 0:
logZ and the NLL are exact to rounding for S below about 700 nats, as the
log-space recursion was; training's transitions are always finite. With
-inf entries (a folded BIO mask) a label's allowed predecessors need not
hold the row's mass, and the limit is the per-step gap: an entry whose
every allowed term sits more than about 745 nats below its step's
largest underflows to 0. Node marginals are alpha * beta normalised per
step, with beta taken before its step's emission, so nothing is divided
by an emission factor (which underflows to 0 more than 745 nats below
its step's maximum). A marginal below about e^-745 of its step's maximum
reads 0.

Single-pass gradient. ``crf_nll_grad`` runs the lockstep loop once and
returns the per-row NLL, d NLL / d emissions (node marginals minus the
gold one-hot, in the original positions) and d NLL / d transitions summed
over the batch (expected minus gold counts, including the START and STOP
blocks). The expected inner counts of every row and step are summed by
one GEMM, ``step * (P.T @ Q)``, with P the scaled alphas divided by their
step's alpha-beta total and Q the scaled backward factors of the next
step; each step's edge marginals then sum to 1, and no (B, T, L, L)
tensor is built.
"""

from __future__ import annotations

import numpy as np

_TINY = np.finfo(np.float64).smallest_subnormal
# A block of transition factors spans at most e^_MAX_SPAN, so a sum of
# factors over up to 10,000 labels stays below the float64 maximum e^709.8.
_MAX_SPAN = 700.0


def _exp_transitions(scores: np.ndarray) -> tuple[np.ndarray, float]:
    """(exp(scores - shift), shift) for a block of transition scores: the
    shift is the smallest finite score, or _MAX_SPAN below the largest, so
    every allowed factor is at least 1 within a span of _MAX_SPAN. A step's
    product then never falls below its largest emission factor 1, however
    low that label's best transition. -inf scores become 0."""
    finite = scores[np.isfinite(scores)]
    shift = max(finite.min(), finite.max() - _MAX_SPAN) if finite.size else 0.0
    return np.exp(scores - shift), float(shift)


def _scaled_recursion(factors: np.ndarray, steps: np.ndarray, first: np.ndarray):
    """Rabiner's scaled forward recursion over time-major factors (N, ..., L):
    x_0 = first * f_0 and x_t = (x_{t-1} @ steps) * f_t, each x_t divided by
    its sum over the labels. Returns (x, the sums (N, ..., 1)). A zero sum
    (no label reachable) is divided as the smallest subnormal, so its row
    stays zero and is never 0 / 0."""
    xs = np.empty(factors.shape)
    sums = np.empty(factors.shape[:-1] + (1,))
    x = np.multiply(first, factors[0], out=xs[0])
    for t in range(len(factors)):
        if t:
            x = np.matmul(x, steps, out=xs[t])
            x *= factors[t]
        x /= np.maximum(np.add.reduce(x, axis=-1, keepdims=True, out=sums[t]), _TINY)
    return xs, sums


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


def _scaled_passes(chains: _Chains, inner, start, stop, backward: bool = False):
    """The forward recursion in scaled probability space, time-major; with
    ``backward`` also the backward one, on the row-reversed chains in the
    same loop.

    Returns (alphas, betas or None, logZ (B,), step, into_stop). alphas[t]
    and betas[t] (N, B, L) are exp(alpha_t) and exp(e_t + beta_t) of the
    log-space recursions, each scaled to sum to 1 over the labels (all 0
    where no label is reachable); past a chain's end they hold finite
    garbage. ``step`` and ``into_stop`` are the inner and STOP factors of
    ``_exp_transitions``. Chains of no steps get logZ 0 and nothing else.
    """
    em = chains.em.transpose(1, 0, 2)
    lengths = chains.lengths
    if not len(em):
        return None, None, np.zeros(len(lengths)), None, None
    rows = np.arange(em.shape[1])
    em_shift = np.max(em, axis=2, keepdims=True)
    em_shift = np.where(np.isfinite(em_shift), em_shift, 0.0)  # no finite score: 0, not NaN
    emit = np.exp(em - em_shift)
    step, i_shift = _exp_transitions(inner)
    from_start, s_shift = _exp_transitions(start)
    into_stop, t_shift = _exp_transitions(stop)
    betas = None
    if backward:
        # step k of a length-n row's reversed chain is its step n-1-k; padding maps to itself
        k = np.arange(len(em))[:, None]
        rev = (np.where(k < lengths, lengths - 1 - k, k), rows)
        both = np.stack([emit, emit[rev]], axis=1)
        xs, sums = _scaled_recursion(
            both, np.stack([step, step.T]), np.stack([from_start, into_stop])[:, None])
        alphas, betas, sums = xs[:, 0], xs[:, 1][rev], sums[:, 0]
    else:
        alphas, sums = _scaled_recursion(emit, step, from_start)
    ends = alphas[np.maximum(lengths - 1, 0), rows] @ into_stop
    with np.errstate(divide="ignore"):  # log 0 = -inf: a chain that no path completes
        log_z = (
            np.where(chains.valid.T[:, :, None], np.log(sums) + em_shift, 0.0).sum(axis=(0, 2))
            + np.log(ends) + (lengths - 1) * i_shift + s_shift + t_shift
        )
    return alphas, betas, np.where(lengths > 0, log_z, 0.0), step, into_stop


def _forward_backward(chains: _Chains, inner, start, stop):
    """(node marginals (N, B, L), edge factors p and q (N-1, B, L), step,
    logZ (B,)), time-major on the chains and zero past each chain's end.
    The edge marginal of the step t -> t+1 is p[t, :, :, None] * step *
    q[t, :, None, :]."""
    alphas, betas, log_z, step, into_stop = _scaled_passes(chains, inner, start, stop, True)
    lengths = chains.lengths
    # exp(beta_t) scaled: the backward factor without step t's own emission
    # (never betas[t] / emit[t], which underflows to 0); STOP ends each chain
    ahead = np.empty(alphas.shape)
    ahead[:-1] = betas[1:] @ step.T
    ahead[-1] = into_stop
    ahead[np.maximum(lengths - 1, 0), np.arange(len(lengths))] = into_stop
    node = alphas * ahead
    total = node.sum(axis=2, keepdims=True)
    total = np.where(total > 0, total, 1.0)
    valid = chains.valid.T[:, :, None]
    node = np.where(valid, node / total, 0.0)
    p = np.where(valid[1:], alphas[:-1] / total[:-1], 0.0)
    return node, p, betas[1:], step, log_z


def _gold_nll(chains: _Chains, y: np.ndarray, log_z, inner, start, stop) -> np.ndarray:
    """(B,) ``log_z`` less the score of each row's gold path ``y`` (gathered
    to the chains). A gold path that scores -inf has probability 0 and NLL
    +inf, not the NaN of -inf - -inf."""
    valid, lengths = chains.valid, chains.lengths
    n_batch, width = y.shape
    if width == 0:
        return np.zeros(n_batch)
    rows = np.arange(n_batch)
    last = y[rows, np.maximum(lengths - 1, 0)]
    total = chains.em[rows[:, None], np.arange(width), y]  # emissions are 0 past a chain's end
    steps = np.where(valid[:, 1:], inner[y[:, :-1], y[:, 1:]], 0.0)
    ends = np.where(lengths > 0, start[y[:, 0]] + stop[last], 0.0)
    gold = total.sum(axis=1) + steps.sum(axis=1) + ends
    return np.subtract(log_z, gold, out=np.full(n_batch, np.inf), where=gold > -np.inf)


def crf_log_partition(emissions: np.ndarray, transitions: np.ndarray, attention_mask=None):
    """log sum over all label paths of each row, by the forward recursion."""
    inner, start, stop, _ = _split_transitions(transitions)
    chains = _Chains(emissions, attention_mask)
    return chains.result(_scaled_passes(chains, inner, start, stop)[2])


def crf_nll(emissions: np.ndarray, labels, transitions: np.ndarray, attention_mask=None):
    """Negative log-likelihood of each row's gold path; >= 0 by construction."""
    inner, start, stop, _ = _split_transitions(transitions)
    chains = _Chains(emissions, attention_mask)
    log_z = _scaled_passes(chains, inner, start, stop)[2]
    y = chains.gather(labels).astype(np.intp)
    return chains.result(_gold_nll(chains, y, log_z, inner, start, stop))


def crf_marginals(emissions: np.ndarray, transitions: np.ndarray, attention_mask=None):
    """Forward-backward node and edge marginals on the chains.

    Returns (node (B, N, L), edge (B, N-1, L, L), logZ (B,)), zero past each
    chain's end; for a (T, L) input (node (n, L), edge (n-1, L, L), logZ)
    of its one chain of n steps. The per-step edge tensor is built here
    only; the training gradient sums it without materialising it.
    """
    inner, start, stop, num_labels = _split_transitions(transitions)
    chains = _Chains(emissions, attention_mask)
    n_batch, width, _ = chains.em.shape
    node, log_z = np.zeros((n_batch, 0, num_labels)), np.zeros(n_batch)
    edge = np.zeros((n_batch, 0, num_labels, num_labels))
    if width:
        node, p, q, step, log_z = _forward_backward(chains, inner, start, stop)
        node = node.transpose(1, 0, 2)
        edge = p.transpose(1, 0, 2)[..., None] * step * q.transpose(1, 0, 2)[:, :, None]
    if chains.squeeze:
        n = int(chains.lengths[0])
        return node[0, :n], edge[0, : max(n - 1, 0)], float(log_z[0])
    return node, edge, log_z


def crf_nll_grad(emissions: np.ndarray, labels, transitions: np.ndarray, attention_mask=None,
                 weights=None):
    """(nll, d nll/d emissions, d nll/d transitions) in one forward-backward pass.

    ``nll`` is per row ((B,), or a float for a (T, L) input), the emission
    gradient has the emissions' shape, and the transition gradient is summed
    over the rows. Emission gradients are node marginals minus the gold
    one-hot; transition gradients are expected edge counts minus gold
    counts, including the START and STOP blocks.

    ``weights`` (B,), or one number for every row, weights each row's
    gradients: its emission gradient is scaled by its weight and the
    transition gradient is the weighted sum over the rows, so a row of
    weight k counts as k copies of it. ``nll`` stays unweighted. Without
    ``weights`` every row counts once, and the result equals that of unit
    weights bit for bit.
    """
    inner, start, stop, num_labels = _split_transitions(transitions)
    start_idx, stop_idx = num_labels, num_labels + 1
    chains = _Chains(emissions, attention_mask)
    d_transitions = np.zeros((num_labels + 2, num_labels + 2))
    if chains.em.shape[1] == 0:
        empty = np.zeros(chains.shape)
        zero = np.zeros(chains.shape[0])
        return chains.result(zero), empty[0] if chains.squeeze else empty, d_transitions

    node, p, q, step, log_z = _forward_backward(chains, inner, start, stop)
    y = chains.gather(labels).astype(np.intp)
    nll = _gold_nll(chains, y, log_z, inner, start, stop)
    valid, lengths = chains.valid, chains.lengths
    d_emissions = node.transpose(1, 0, 2) - np.eye(num_labels)[y]
    gold = np.ones(y.shape)  # each gold step's count: the row's weight
    if weights is not None:
        w = np.broadcast_to(np.asarray(weights, dtype=np.float64), lengths.shape)
        d_emissions *= w[:, None, None]
        node = node * w[:, None]
        p = p * w[:, None]
        gold *= w[:, None]
    d_emissions = chains.scatter(d_emissions)

    # expected inner counts of every row and step t -> t+1, summed by one GEMM
    p, q = p.reshape(-1, num_labels), q.reshape(-1, num_labels)
    d_transitions[:num_labels, :num_labels] = step * (p.T @ q)
    edges = valid[:, 1:]
    np.add.at(d_transitions, (y[:, :-1][edges], y[:, 1:][edges]), -gold[:, 1:][edges])

    # node marginals are zero on empty chains; their gold labels must not count
    has = lengths > 0
    rows, ends = np.arange(len(lengths)), np.maximum(lengths - 1, 0)
    d_transitions[start_idx, :num_labels] = node[0].sum(axis=0)
    np.add.at(d_transitions[start_idx], y[has, 0], -gold[has, 0])
    d_transitions[:num_labels, stop_idx] = node[ends, rows].sum(axis=0)
    np.add.at(d_transitions[:, stop_idx], y[rows, ends][has], -gold[rows, ends][has])
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
