"""Shared test utilities: paths, random-corpus generators, brute-force oracles."""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from ctie.corpus import OntologySchema, load_corpus

DATA_DIR = Path(__file__).resolve().parent / "data"

FIG_CORPUS = DATA_DIR / "fig_corpus.json"
DANGLING_I = DATA_DIR / "dangling_i.json"
USE_CASE_CORPUS = DATA_DIR / "use_case_corpus.json"
SMOKE_CORPUS = DATA_DIR / "smoke_corpus.json"


def load_fig_corpus():
    return load_corpus(FIG_CORPUS, OntologySchema.default())


def bio_for_spans(n_tokens: int, spans) -> list[str]:
    labels = ["O"] * n_tokens
    for start, end, name in spans:
        labels[start] = f"B-{name}"
        for pos in range(start + 1, end):
            labels[pos] = f"I-{name}"
    return labels


def sentence_records(sentences) -> list[dict]:
    """The corpus records that ``load_corpus`` reads back as ``sentences``."""
    return [
        {
            "text": " ".join(s.tokens),
            "entities": [[e.start, e.end, e.entity_type.name] for e in s.entities],
            "relations": [[r.head_index, r.relation.name, r.tail_index] for r in s.relations],
            "entity_labels": list(s.labels),
        }
        for s in sentences
    ]


def candidate_pairs(entity_types, schema=None) -> list[tuple[int, int]]:
    """Reference pair enumeration: every ordered pair (i, j), i != j, i then
    j ascending, of entities whose type names are ``entity_types``; with a
    ``schema``, only the pairs it admits some relation for."""
    n = len(entity_types)
    return [(i, j) for i in range(n) for j in range(n) if i != j and (
        schema is None or schema.admissible_relations(entity_types[i], entity_types[j]))]


def import_graph(data: bytes) -> list[tuple]:
    """The (head, head_type, relation, tail, tail_type) of each edge of a
    JSON ``export_graph`` document, in edge order."""
    doc = json.loads(data.decode("utf-8"))
    nodes = {n["id"]: n for n in doc["nodes"]}
    return [(nodes[e["head"]]["surface"], nodes[e["head"]]["type"], e["relation"],
             nodes[e["tail"]]["surface"], nodes[e["tail"]]["type"]) for e in doc["edges"]]


def random_record(rng: np.random.Generator, type_names=("HackOrg", "Tool", "Org", "Time")):
    """One random well-formed corpus record with 0-4 entities and relations
    labeled over a toy closed relation set."""
    n_tokens = int(rng.integers(3, 15))
    tokens = [f"w{rng.integers(0, 40)}" for _ in range(n_tokens)]
    n_entities = int(rng.integers(0, min(5, n_tokens // 2 + 1)))
    positions = sorted(rng.choice(n_tokens, size=min(n_entities * 2, n_tokens), replace=False))
    spans = []
    used = 0
    while used + 1 < len(positions) and len(spans) < n_entities:
        start = int(positions[used])
        width = 1 if rng.random() < 0.7 else 2
        end = min(start + width, int(positions[used + 1]) + 1)
        name = type_names[int(rng.integers(len(type_names)))]
        spans.append((start, max(end, start + 1), name))
        used += 2
    # keep spans disjoint by construction: clip each end at the next start
    spans = sorted(spans)
    for k in range(len(spans) - 1):
        s, e, n = spans[k]
        spans[k] = (s, min(e, spans[k + 1][0]), n)
    spans = [(s, e, n) for s, e, n in spans if e > s]

    relations = []
    seen = set()
    for _ in range(int(rng.integers(0, 4))):
        if len(spans) < 2:
            break
        i, j = rng.choice(len(spans), size=2, replace=False)
        if (int(i), int(j)) in seen:
            continue
        seen.add((int(i), int(j)))
        name = ["uses", "targets", "noRelation"][int(rng.integers(3))]
        relations.append([int(i), name, int(j)])
    return {
        "text": " ".join(tokens),
        "entities": [[s, e, n] for s, e, n in spans],
        "relations": relations,
        "entity_labels": bio_for_spans(n_tokens, spans),
    }


def random_corpus(rng: np.random.Generator, n_sentences: int):
    records = [random_record(rng) for _ in range(n_sentences)]
    return load_corpus(json.dumps(records).encode("utf-8"))


# entity-type and relation names: no whitespace, "-" and "." included
NAMES = st.text(st.sampled_from("ABCabc-_.0"), min_size=1, max_size=4)


@st.composite
def span_layouts(draw, max_spans: int = 6):
    """(spans, length): non-overlapping (start, end, type) spans in start
    order inside ``length`` tokens; a zero gap makes two spans adjacent, and
    adjacent spans may share a type."""
    types = draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
    spans, pos = [], 0
    for _ in range(draw(st.integers(0, max_spans))):
        pos += draw(st.integers(0, 2))
        width = draw(st.integers(1, 3))
        spans.append((pos, pos + width, draw(st.sampled_from(types))))
        pos += width
    return spans, pos + draw(st.integers(0, 2))


# ---------------------------------------------------------------------------
# Brute-force CRF oracle (independent of ctie.crf: explicit path enumeration)
# ---------------------------------------------------------------------------


def enumerate_paths(n_steps: int, n_labels: int):
    if n_steps == 0:
        yield ()
        return
    for rest in enumerate_paths(n_steps - 1, n_labels):
        for label in range(n_labels):
            yield rest + (label,)


def brute_force_path_score(emissions, path, transitions) -> float:
    n_labels = emissions.shape[1]
    start, stop = n_labels, n_labels + 1
    total = transitions[start, path[0]]
    prev = path[0]
    total += emissions[0, path[0]]
    for t in range(1, len(path)):
        total += transitions[prev, path[t]] + emissions[t, path[t]]
        prev = path[t]
    total += transitions[prev, stop]
    return float(total)


def brute_force_log_partition(emissions, transitions) -> float:
    n_steps, n_labels = emissions.shape
    scores = [
        brute_force_path_score(emissions, path, transitions)
        for path in enumerate_paths(n_steps, n_labels)
    ]
    m = max(scores)
    return m + float(np.log(sum(np.exp(s - m) for s in scores)))


def brute_force_best_path(emissions, transitions):
    n_steps, n_labels = emissions.shape
    best, best_score = None, -np.inf
    for path in enumerate_paths(n_steps, n_labels):
        score = brute_force_path_score(emissions, path, transitions)
        if score > best_score:
            best, best_score = path, score
    return list(best), best_score


def sample_crf_case(rng: np.random.Generator, max_t: int = 4, max_l: int = 3):
    n_steps = int(rng.integers(1, max_t + 1))
    n_labels = int(rng.integers(2, max_l + 1))
    emissions = rng.normal(scale=2.0, size=(n_steps, n_labels))
    transitions = np.zeros((n_labels + 2, n_labels + 2))
    transitions[: n_labels + 1, : n_labels + 2] = rng.normal(
        scale=1.5, size=(n_labels + 1, n_labels + 2)
    )
    labels = rng.integers(0, n_labels, size=n_steps)
    return emissions, transitions, labels


def build_type_determined_corpus(n_sentences=120, seed=13, reveal=0.6):
    """Synthetic corpus where the relation label is a deterministic function
    of the ordered (head type, tail type) pair: the alphabetically first
    admissible relation in the bundled ontology, else noRelation. Entity
    surfaces reveal their type with probability ``reveal`` and are otherwise
    drawn from a shared ambiguous pool, so masks alone carry only partial
    type information."""
    schema = OntologySchema.default()
    types = ("HackOrg", "Tool", "Org", "SecTeam")
    surfaces = {t: [f"{t.lower()}{k}" for k in range(5)] for t in types}
    ambiguous = ["alpha", "beta", "gamma", "delta", "epsilon"]
    fillers = ["the", "report", "says", "that", "was", "seen", "with", "near", "by"]
    rng = np.random.default_rng(seed)

    def relation_for(t1, t2):
        admissible = schema.admissible_relations(t1, t2)
        return admissible[0] if admissible else "noRelation"

    records = []
    for _ in range(n_sentences):
        ent_types = [types[int(rng.integers(len(types)))] for _ in range(3)]
        tokens, spans = [], []
        for t in ent_types:
            tokens.append(fillers[int(rng.integers(len(fillers)))])
            if rng.random() < reveal:
                word = surfaces[t][int(rng.integers(5))]
            else:
                word = ambiguous[int(rng.integers(len(ambiguous)))]
            spans.append((len(tokens), len(tokens) + 1, t))
            tokens.append(word)
        tokens.append(".")
        relations = []
        for i in range(3):
            for j in range(i + 1, 3):
                relations.append([i, relation_for(ent_types[i], ent_types[j]), j])
        records.append({
            "text": " ".join(tokens),
            "entities": [[s, e, t] for s, e, t in spans],
            "relations": relations,
            "entity_labels": bio_for_spans(len(tokens), spans),
        })
    return load_corpus(json.dumps(records).encode("utf-8"), schema)


# ---------------------------------------------------------------------------
# Tiny model setup shared by gradient and acceptance tests
# ---------------------------------------------------------------------------


def tiny_config(use_mask: bool = True, use_type: bool = True, dropout: float = 0.0,
                alpha: float = 1.0, beta: float = 1.0):
    from ctie.model import ModelConfig

    return ModelConfig(
        vocab_size=9, num_ner_labels=5, num_relations=3, num_entity_types=4,
        embed_dim=4, hidden_dim=3, dropout=dropout,
        use_entity_mask=use_mask, use_entity_type=use_type,
        alpha=alpha, beta=beta,
    )


def tiny_batch():
    """Two rows of two sentences, T=5, the second padded so masking is
    exercised."""
    from ctie.mslr import Batch

    return Batch(
        token_ids=np.array([[2, 3, 4, 5, 6], [7, 8, 2, 0, 0]], dtype=np.int64),
        attention_mask=np.array([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0]], dtype=np.float64),
        ner_labels=np.array([[1, 2, 0, 3, 4], [0, 1, 2, 0, 0]], dtype=np.int64),
        lengths=np.array([5, 3], dtype=np.int64),
        # the rows pool tokens {0, 3} and {1, 2}
        span_rows=np.array([0, 0, 1, 1], dtype=np.int64),
        spans=np.array([[0, 1], [3, 4], [1, 2], [2, 3]], dtype=np.int64),
        head=np.array([0, 2], dtype=np.int64),
        tail=np.array([1, 3], dtype=np.int64),
        head_type=np.array([1, 0], dtype=np.int64),
        tail_type=np.array([2, 3], dtype=np.int64),
        relation_label=np.array([1, 2], dtype=np.int64),
        origins=((0, 0), (1, 0)),
    )


def repeated_sentence_batch():
    """Five rows of two sentences, T=5: rows 0, 2 and 3 are of a full-length
    sentence and rows 1 and 4 of a padded one, each row with its own pair
    and relation. Rows 0 and 3 share a head span, and rows 1 and 4 a tail
    span."""
    from ctie.mslr import Batch

    return Batch(
        token_ids=np.array([[2, 3, 4, 5, 6], [7, 8, 2, 0, 0]], dtype=np.int64),
        attention_mask=np.array([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0]], dtype=np.float64),
        ner_labels=np.array([[1, 2, 0, 3, 4], [0, 1, 2, 0, 0]], dtype=np.int64),
        lengths=np.array([5, 3], dtype=np.int64),
        # the rows pool tokens {0, 3}, {1, 2}, {1, 4}, {0, 1, 2} and {0, 2}
        span_rows=np.array([0, 0, 1, 1, 0, 0, 0, 1], dtype=np.int64),
        spans=np.array([[0, 1], [3, 4], [1, 2], [2, 3], [1, 2], [4, 5], [1, 3], [0, 1]],
                       dtype=np.int64),
        head=np.array([0, 2, 4, 0, 7], dtype=np.int64),
        tail=np.array([1, 3, 5, 6, 3], dtype=np.int64),
        head_type=np.array([1, 0, 2, 3, 1], dtype=np.int64),
        tail_type=np.array([2, 3, 0, 1, 1], dtype=np.int64),
        relation_label=np.array([1, 2, 0, 2, 1], dtype=np.int64),
        origins=((0, 0), (1, 0), (0, 1), (0, 2), (1, 1)),
    )


# ---------------------------------------------------------------------------
# Reference batch builder: one MslrInstance record per row, stacked in Python
# ---------------------------------------------------------------------------


def span_table(row_spans):
    """(span_rows, spans, head, tail) of rows given as (sentence, head
    bounds, tail bounds): each (sentence, bounds) once, in order of first
    naming, each row's head before its tail."""
    ids = {}
    for sentence, *ends in row_spans:
        for bounds in ends:
            ids.setdefault((sentence, tuple(bounds)), len(ids))
    head, tail = np.array([[ids[sentence, tuple(bounds)] for bounds in ends]
                           for sentence, *ends in row_spans], dtype=np.int64).reshape(-1, 2).T
    return (np.array([sentence for sentence, _ in ids], dtype=np.int64),
            np.array([bounds for _, bounds in ids], dtype=np.int64).reshape(-1, 2), head, tail)


def collate(instances):
    """One ``Batch`` of encoded ``MslrInstance`` rows, built record by
    record: each sentence (named by ``origin[0]``) once, in order of first
    appearance, padded with zeros to the longest, and the ``span_table`` of
    the rows."""
    from ctie.mslr import Batch

    firsts = {}
    for inst in instances:
        firsts.setdefault(inst.origin[0], inst)
    sentence_ids = {key: u for u, key in enumerate(firsts)}
    firsts = list(firsts.values())
    width = max(inst.length for inst in firsts)

    def stack(field: str) -> np.ndarray:
        rows = []
        for inst in firsts:
            seq = list(getattr(inst, field))[: inst.length]
            rows.append(seq + [0] * (width - inst.length))
        return np.asarray(rows, dtype=np.int64)

    span_rows, spans, head, tail = span_table(
        [(sentence_ids[i.origin[0]], i.head_span, i.tail_span) for i in instances])
    return Batch(
        token_ids=stack("token_ids"),
        attention_mask=stack("attention_mask").astype(np.float64),
        ner_labels=stack("ner_labels"),
        lengths=np.asarray([inst.length for inst in firsts], dtype=np.int64),
        span_rows=span_rows, spans=spans, head=head, tail=tail,
        head_type=np.asarray([i.head_type for i in instances], dtype=np.int64),
        tail_type=np.asarray([i.tail_type for i in instances], dtype=np.int64),
        relation_label=np.asarray([i.relation_label for i in instances], dtype=np.int64),
        origins=tuple(i.origin for i in instances),
    )


def reference_batches(sentences, indices, types, vocab, max_len, batch_size,
                      shuffle_seed=None):
    """(batches, skipped) of the rows of ``sentences[i]`` for each i of
    ``indices``, built record by record: ``expand`` (ids of each sentence's
    own type system), ``encode_all`` (which skips and lists overlong rows),
    the ``default_rng(shuffle_seed)`` permutation of the rows, ``collate``."""
    from ctie.mslr import encode_all, expand

    examples = [e for i in indices for e in expand(sentences[i], types, sentence_index=i)]
    instances, skipped = encode_all(examples, vocab, max_len=max_len)
    order = np.arange(len(instances))
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(len(instances))
    batches = [collate([instances[k] for k in order[lo : lo + batch_size]])
               for lo in range(0, len(order), batch_size)]
    return batches, skipped


def pair_rows(sentence, types, sentence_index=0):
    """(P, 5) int64: one row per annotated pair of ``sentence``, in relation
    order, as (head entity, tail entity, head type id, tail type id,
    relation id), the ids looked up by name in ``types``; the first pair
    whose head type, tail type or relation ``types`` lacks raises."""
    from ctie.errors import SchemaError, UnknownRelation
    from ctie.mslr import relation_pairs

    rows = []
    for rel, head, tail in relation_pairs(sentence):
        for entity in (head, tail):
            if not types.has_entity_type(entity.entity_type.name):
                raise SchemaError(f"sentence {sentence_index}: entity type "
                                  f"{entity.entity_type.name!r} is not in the checkpoint's "
                                  "type system")
        if rel.relation.name not in {r.name for r in types.relations}:
            raise UnknownRelation(f"sentence {sentence_index}: relation "
                                  f"{rel.relation.name!r} is not in the checkpoint's type system")
        rows.append((rel.head_index, rel.tail_index, types.entity_type(head.entity_type.name).id,
                     types.entity_type(tail.entity_type.name).id,
                     types.relation(rel.relation.name).id))
    return np.array(rows, dtype=np.int64).reshape(-1, 5)


def per_sentence_batches(sentences, indices, types, vocab, max_len, batch_size,
                         shuffle_seed=None):
    """(batches, skipped) as ``make_batches`` over a ``sentence_rows`` table
    gives them, built sentence by sentence: ``pair_rows`` of each sentence,
    its entity indices renumbered to spans of all kept sentences, and token
    and BIO id tables looked up for this call."""
    from ctie.mslr import Batch

    kept, skipped = [], []
    for i in indices:
        rows, n = pair_rows(sentences[i], types, i), len(sentences[i])
        if n > max_len:
            skipped.extend(((i, j), n) for j in range(len(rows)))
        elif len(rows):
            kept.append((i, sentences[i], rows))
    if not kept:
        return [], skipped
    lengths = np.array([len(sentence) for _, sentence, _ in kept], dtype=np.int64)
    tokens, labels = np.zeros((2, len(kept), lengths.max()), dtype=np.int64)
    for k, (_, sentence, _) in enumerate(kept):
        tokens[k, : lengths[k]] = [vocab.id(t) for t in sentence.tokens]
        labels[k, : lengths[k]] = [types.bio_id(tag) for tag in sentence.labels]
    n_spans = [len(sentence.entities) for _, sentence, _ in kept]
    span_sentence = np.repeat(np.arange(len(kept)), n_spans)
    spans = np.array([(e.start, e.end) for _, sentence, _ in kept for e in sentence.entities],
                     dtype=np.int64).reshape(-1, 2)
    pairs = np.concatenate([rows for *_, rows in kept])
    pairs[:, :2] += np.repeat(np.cumsum(n_spans) - n_spans, [len(r) for *_, r in kept])[:, None]
    origins = [(i, j) for i, _, rows in kept for j in range(len(rows))]
    order = np.arange(len(origins))
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(len(origins))
    batches = []
    for lo in range(0, len(order), batch_size):
        idx = order[lo : lo + batch_size]
        named, ends = {}, []
        for k in idx:
            for end in pairs[k, :2].tolist():
                ends.append(named.setdefault(end, len(named)))
        sentence_ids = {}
        span_rows = [sentence_ids.setdefault(u, len(sentence_ids))
                     for u in span_sentence[list(named)].tolist()]
        sentence_ids = list(sentence_ids)
        n = lengths[sentence_ids]
        width = int(n.max())
        batches.append(Batch(
            token_ids=tokens[sentence_ids, :width], ner_labels=labels[sentence_ids, :width],
            attention_mask=(np.arange(width) < n[:, None]).astype(np.float64), lengths=n,
            span_rows=np.array(span_rows, dtype=np.int64), spans=spans[list(named)],
            head=np.array(ends[0::2], dtype=np.int64), tail=np.array(ends[1::2], dtype=np.int64),
            head_type=pairs[idx, 2], tail_type=pairs[idx, 3], relation_label=pairs[idx, 4],
            origins=tuple(origins[k] for k in idx),
        ))
    return batches, skipped


def assert_batches_equal(actual, expected):
    """Same batches in the same order, every field equal in value and dtype."""
    import dataclasses

    assert len(actual) == len(expected)
    for a, b in zip(actual, expected):
        for field in dataclasses.fields(b):
            x, y = getattr(a, field.name), getattr(b, field.name)
            assert np.array_equal(x, y), field.name
            assert np.asarray(x).dtype == np.asarray(y).dtype, field.name


def finite_difference_check(config, seed: int = 20, step: float = 1e-5,
                            dropout_seed: int = 777, batch=None):
    """Compare analytic gradients with central finite differences on every
    parameter array, over ``batch`` (default ``tiny_batch()``). Returns
    {name: (analytic, numeric)}. The dropout rng is re-seeded per evaluation
    so train-mode forwards see identical masks."""
    from ctie.model import backward, forward, init_params

    if batch is None:
        batch = tiny_batch()
    params = init_params(config, seed=seed)

    def loss(p):
        rng = np.random.default_rng(dropout_seed)
        return forward(batch, p, config, mode="train", rng=rng).joint

    rng = np.random.default_rng(dropout_seed)
    result = forward(batch, params, config, mode="train", rng=rng)
    analytic = backward(result.trace, params)

    out = {}
    for name, arr in params.items():
        numeric = np.zeros_like(arr)
        flat = arr.reshape(-1)
        numeric_flat = numeric.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + step
            up = loss(params)
            flat[k] = orig - step
            down = loss(params)
            flat[k] = orig
            numeric_flat[k] = (up - down) / (2 * step)
        out[name] = (analytic[name], numeric)
    return out


# ---------------------------------------------------------------------------
# Reference training step: every MSLR row embedded, encoded and CRF-scored
# on its own, and the embedding gradient scattered by a 2-D np.add.at
# ---------------------------------------------------------------------------


def per_row_forward(batch, params, config, drop_emb=None, drop_h=None):
    """``forward`` with every row of ``batch`` encoded from its own copy of
    its sentence, under the given dropout masks, (B, T, d) and (B, T, 2h),
    or none: a ``ForwardResult`` whose trace ``backward`` reads. Span s of
    the batch's span table is pooled from the first row that names it, so
    the relation head's gradients sum in ``forward``'s span order. Fed
    ``mask[batch.sentence_of]`` of a step's per-sentence masks, it is that
    step's per-row reference. The trace's batch holds the rows' copies of
    their sentences' token ids, the ids ``backward`` scatters onto."""
    from ctie.crf import crf_nll_grad
    from ctie.model import (ForwardResult, ForwardTrace, bigru, embed, joint_loss, ner_logits,
                            score_pairs)

    rows, sentence_of = np.arange(batch.size), batch.sentence_of
    token_ids, mask = batch.token_ids[sentence_of], batch.attention_mask[sentence_of]
    emb = embed(token_ids, params["embed"])
    h, gru = bigru(emb if drop_emb is None else emb * drop_emb, mask, params, with_trace=True)
    if drop_h is not None:
        h = h * drop_h
    logits = ner_logits(h, params["ner_w"], params["ner_b"])
    namer = {}
    for row, ends in enumerate(zip(batch.head.tolist(), batch.tail.tolist())):
        for span in ends:
            namer.setdefault(span, row)
    span_rows = np.array([namer[s] for s in range(len(batch.spans))], dtype=np.int64)
    relation = score_pairs(h, mask, span_rows, batch.spans, batch.head, batch.tail,
                           batch.head_type, batch.tail_type, params, config)
    nlls, d_logits, d_trans = crf_nll_grad(logits, batch.ner_labels[sentence_of],
                                           params["crf_trans"], mask)
    ner_nll = float(np.mean(nlls))
    re_ce = float(np.mean(-np.log(relation.probs[rows, batch.relation_label])))
    trace = ForwardTrace(config=config, batch=replace(batch, token_ids=token_ids),
                         drop_emb=drop_emb, gru=gru, drop_h=drop_h, h_d=h, logits_ner=logits,
                         d_logits_ner=d_logits, d_crf_trans=d_trans, relation=relation)
    return ForwardResult(ner_nll=ner_nll, re_ce=re_ce,
                         joint=joint_loss(ner_nll, re_ce, config.alpha, config.beta),
                         re_probs=relation.probs, trace=trace)


def embedding_grad_2d(trace, params):
    """``backward``'s embedding gradient of ``trace``, scattered by one 2-D
    ``np.add.at`` of the packed cells' input gradients onto their token
    ids' rows, in packed order. The cells' gradients come from a
    ``backward`` of the same trace with an id of its own for every cell,
    whose scatter adds each of them once to a zero row."""
    from ctie.model import backward

    packing, token_ids = trace.gru.packing, trace.batch.token_ids
    own = np.arange(token_ids.size).reshape(token_ids.shape)
    by_cell = dict(params, embed=np.zeros((own.size, params["embed"].shape[1])))
    d_cells = backward(replace(trace, batch=replace(trace.batch, token_ids=own)),
                       by_cell)["embed"]
    out = np.zeros_like(params["embed"])
    np.add.at(out, packing.pack(token_ids), d_cells[packing.pack(own)])
    return out


# ---------------------------------------------------------------------------
# Reference BiGRU recurrence: the walk and BPTT on packed (D, P, 3h) gate
# buffers, each step on strided (D, n, .) views, kept as the bit-level
# oracle of the step-major buffers in ctie.model
# ---------------------------------------------------------------------------


@dataclass
class ReferenceGruTrace:
    x: np.ndarray        # (2, P, d) packed inputs, each direction's in its walk order
    packing: object      # ctie.model.Packing
    gates: np.ndarray    # (2, P, 3h) activations z | r | c
    h: np.ndarray        # (2, T+1, B, h) in sorted row order: zero start state, then the
                         # state after each step; an inactive (step, row) stays zero
    groups: tuple


def reference_prev_states(packing, h: np.ndarray) -> np.ndarray:
    """(D, P, h) from a (D, T+1, B, h) state buffer in sorted row order:
    cell (t, row) reads its step's previous state ``h[:, t, row]``."""
    if packing.order is None:
        return h[:, : packing.n_steps].reshape(len(h), -1, h.shape[-1])
    return h[:, packing.steps, packing.rows]


def reference_gru_run(gates: np.ndarray, packing, u: np.ndarray, h: np.ndarray) -> None:
    """The recurrences of D directions in lockstep over their packed input
    pre-activations ``gates`` (D, P, 3h), overwritten with their
    activations; writes the states into ``h`` (D, T+1, B, h), zero on
    entry."""
    from ctie.model import _gate_slices, _sigmoid

    z, r, c, zr = _gate_slices(u.shape[1])
    u_zr, u_c = u[..., zr], u[..., c]
    for first, n_k, n, cells in packing.segments:
        seg = gates[:, cells].reshape(len(gates), n_k, n, -1).swapaxes(0, 1)
        g_z, g_r, g_c, g_zr = (seg[..., s] for s in (z, r, c, zr))
        hs = h[:, first:, :n].swapaxes(0, 1)
        for k in range(n_k):
            h_prev, h_t = hs[k], hs[k + 1]
            zt, rt, ct = g_z[k], g_r[k], g_c[k]
            a_zr = g_zr[k]
            a_zr += h_prev @ u_zr
            _sigmoid(a_zr)
            ct += (rt * h_prev) @ u_c
            np.tanh(ct, out=ct)
            np.subtract(1.0, zt, out=h_t)
            h_t *= ct
            h_t += zt * h_prev


def reference_gru_backprop(trace: ReferenceGruTrace, group: slice, d_out: np.ndarray, params,
                           grads, d_x: np.ndarray) -> None:
    """BPTT for the directions ``group`` of ``trace`` in lockstep, from the
    packed state gradient ``d_out`` (D, P, h): the ``gru.*`` gradients into
    ``grads`` and the packed input gradient into ``d_x`` (D, P, d)."""
    from ctie.model import _gate_slices

    packing, gates, h = trace.packing, trace.gates[group], trace.h[group]
    u = params["gru.u"][group]
    n_hidden = u.shape[1]
    z, r, c, zr = _gate_slices(n_hidden)
    u_zr_t, u_c_t = u[..., zr].swapaxes(1, 2), u[..., c].swapaxes(1, 2)
    h_prev = reference_prev_states(packing, h)
    d_a = np.empty_like(gates)
    k_z, k_r, k_c = (d_a[..., s] for s in (z, r, c))
    g_z, g_r, g_c = (gates[..., s] for s in (z, r, c))
    one_minus_z = np.subtract(1.0, g_z)
    np.multiply(g_c, g_c, out=k_c)
    np.subtract(1.0, k_c, out=k_c)
    k_c *= one_minus_z
    np.subtract(h_prev, g_c, out=k_z)
    k_z *= g_z
    k_z *= one_minus_z
    np.subtract(1.0, g_r, out=k_r)
    k_r *= g_r
    k_r *= h_prev
    dh = np.zeros((len(u), packing.n_batch, n_hidden))
    for first, n_k, n, cells in reversed(packing.segments):
        shape = (len(u), n_k, n, -1)
        seg, d_seg, d_out_seg = (a[:, cells].reshape(shape).swapaxes(0, 1)
                                 for a in (gates, d_a, d_out))
        seg_z, seg_r = seg[..., z], seg[..., r]
        d_z, d_r, d_c, d_zr = (d_seg[..., s] for s in (z, r, c, zr))
        dh_n = dh[:, :n]
        for k in range(n_k - 1, -1, -1):
            dh_n += d_out_seg[k]
            da_c = np.multiply(d_c[k], dh_n, out=d_c[k])
            drh = da_c @ u_c_t
            np.multiply(d_z[k], dh_n, out=d_z[k])
            np.multiply(d_r[k], drh, out=d_r[k])
            dh_n *= seg_z[k]
            drh *= seg_r[k]
            dh_n += drh
            dh_n += d_zr[k] @ u_zr_t
    r_h_prev = g_r * h_prev
    g_u = grads["gru.u"][group]
    np.matmul(trace.x[group].swapaxes(1, 2), d_a, out=grads["gru.w"][group])
    np.matmul(h_prev.swapaxes(1, 2), d_a[..., zr], out=g_u[..., zr])
    np.matmul(r_h_prev.swapaxes(1, 2), d_a[..., c], out=g_u[..., c])
    d_a.sum(axis=1, out=grads["gru.b"][group])
    np.matmul(d_a, params["gru.w"][group].swapaxes(1, 2), out=d_x)


def reference_gru(params, packing, x, pre, d_out, groups):
    """(states (2, T+1, B, h), activations (2, P, 3h), ``gru.*`` gradients,
    input gradient (2, P, d)) of the reference walk and BPTT over packed
    inputs ``x`` with pre-activations ``pre`` and state gradient ``d_out``
    (2, P, h), for the direction groups ``groups``."""
    gates = pre.copy()
    h = np.zeros((2, packing.n_steps + 1, packing.n_batch, pre.shape[-1] // 3))
    for group in groups:
        reference_gru_run(gates[group], packing, params["gru.u"][group], h[group])
    trace = ReferenceGruTrace(x, packing, gates, h, groups)
    grads = {k: np.full_like(v, np.nan) for k, v in params.items() if k.startswith("gru.")}
    d_x = np.empty(x.shape)
    for group in groups:
        reference_gru_backprop(trace, group, d_out[group], params, grads, d_x[group])
    return h, gates, grads, d_x


# ---------------------------------------------------------------------------
# Reference relation head: one (T,) 0/1 mask per pair over both its spans,
# the pool a mask product, the features concatenated per pair
# ---------------------------------------------------------------------------


def entity_masks(sentence_length: int, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """(P, T) float masks of P pairs, row p 1 on every token of the spans
    ``heads[p]`` and ``tails[p]``, given as (P, 2) arrays of [start, end)
    bounds."""
    pos = np.arange(sentence_length)

    def covers(bounds: np.ndarray) -> np.ndarray:
        return (bounds[:, :1] <= pos) & (pos < bounds[:, 1:])

    return (covers(heads) | covers(tails)).astype(np.float64)


def relation_head(h, entity_mask, head_type, tail_type, params, config, attention_mask):
    """(R, K) relation probabilities of R pair rows, row r pooling ``h[r]``
    of (R, T, 2h) under row r of the (R, T) ``entity_mask`` (or of
    ``attention_mask`` with entity masks off) by one mask product, its
    features ``[pool ; type_embed[head] ; type_embed[tail]]`` (the pool
    alone with entity types off) meeting ``re_w`` in one product."""
    from ctie.errors import EmptyMask
    from ctie.model import softmax

    mask = np.asarray(entity_mask if config.use_entity_mask else attention_mask,
                      dtype=np.float64)
    if np.any(mask.sum(axis=1) == 0):
        raise EmptyMask("entity mask selects no tokens in at least one row")
    features = np.matmul(mask[:, None, :], h)[:, 0]
    if config.use_entity_type:
        table = params["type_embed"]
        features = np.concatenate([features, table[head_type], table[tail_type]], axis=-1)
    return softmax(features @ params["re_w"] + params["re_b"])


# ---------------------------------------------------------------------------
# Reference extraction: one mask-based relation-head call per sentence
# ---------------------------------------------------------------------------


def reference_score_pairs(extractor, tokens, h, spans, sentence_index, ontology_filter,
                          confidence_floor):
    """The ``ExtractionResult`` of one sentence whose (length, 2h) encoding
    is ``h``: every ordered pair of distinct spans, head index ascending
    then tail index, and with ``ontology_filter`` only pairs whose type ids
    the ontology relates, scored in one ``relation_head`` call that reads
    ``h`` through a per-row broadcast."""
    from ctie.extract import ExtractionResult, Triple

    spans = list(spans)
    result = ExtractionResult(
        sentence_index=sentence_index, tokens=tuple(tokens), spans=spans, triples=[]
    )
    types = extractor.types
    type_id = np.array([types.entity_type(s.entity_type).id for s in spans], dtype=np.intp)
    heads, tails = np.nonzero(~np.eye(len(spans), dtype=bool))
    if ontology_filter:
        keep = np.array(extractor._relatable)[type_id[heads], type_id[tails]]
        heads, tails = heads[keep], tails[keep]
    if not heads.size:
        return result

    bounds = np.array([(s.start, s.end) for s in spans])
    head_ids, tail_ids = type_id[heads], type_id[tails]
    masks = entity_masks(len(tokens), bounds[heads], bounds[tails])
    probs = relation_head(
        np.broadcast_to(h, masks.shape + h.shape[-1:]),
        masks,
        head_ids,
        tail_ids,
        extractor.params,
        extractor.config,
        attention_mask=np.ones(masks.shape),
    )
    scores = probs
    if ontology_filter:
        scores = np.where(extractor._admissible[head_ids, tail_ids], probs, -np.inf)
    best = np.argmax(scores, axis=1)

    rel_names = [r.name for r in types.relations]
    no_rel_idx = types.no_relation.id
    for i, j, row, k in zip(heads.tolist(), tails.tolist(), probs, best):
        head, tail = spans[i], spans[j]
        confidence = float(row[k])
        if k == no_rel_idx or confidence < confidence_floor:
            result.dropped.append(
                {
                    "head_span": [head.start, head.end],
                    "tail_span": [tail.start, tail.end],
                    "no_relation_confidence": float(row[no_rel_idx]),
                }
            )
            continue
        result.triples.append(
            Triple(
                head=" ".join(tokens[head.start : head.end]),
                head_type=head.entity_type,
                relation=rel_names[k],
                tail=" ".join(tokens[tail.start : tail.end]),
                tail_type=tail.entity_type,
                confidence=confidence,
                sentence_index=sentence_index,
                head_span=(head.start, head.end),
                tail_span=(tail.start, tail.end),
            )
        )
    return result


def reference_extract_many(extractor, token_seqs, first_index=0, ontology_filter=False,
                           confidence_floor=0.0, spans=None):
    """``Extractor.extract_many`` on valid input, with each sentence's pairs
    scored by ``reference_score_pairs`` on its row of the chunk encoding,
    trimmed to its length."""
    from ctie.evaluation import encode_batches

    token_seqs = [tuple(tokens) for tokens in token_seqs]
    results = []
    for h, mask in encode_batches(extractor.params,
                                  [extractor.vocab.ids(tokens) for tokens in token_seqs],
                                  extractor.projection()):
        lo = len(results)
        batch_spans = (
            extractor.decode_entities(h, mask, first_index + lo) if spans is None
            else spans[lo : lo + len(h)]
        )
        for b, sentence_spans in enumerate(batch_spans):
            tokens = token_seqs[lo + b]
            results.append(reference_score_pairs(
                extractor, tokens, h[b, : len(tokens)], sentence_spans, first_index + lo + b,
                ontology_filter, confidence_floor,
            ))
    return results
