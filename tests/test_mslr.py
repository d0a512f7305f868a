"""MSLR expansion, entity masks, encoding, and batching."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctie.corpus import TypeSystem, load_corpus
from ctie.errors import (
    DuplicatePairError,
    LengthError,
    OverlapError,
    SchemaError,
    UnknownRelation,
)
from ctie.mslr import (
    PAD_ID,
    UNK_ID,
    Vocabulary,
    build_vocab,
    dump_jsonl,
    encode,
    encode_all,
    expand,
    make_batches,
    make_entity_mask,
    pair_rows,
    pair_spans,
    relation_pairs,
    sentence_rows,
)

from helpers import (
    assert_batches_equal,
    entity_masks,
    load_fig_corpus,
    random_corpus,
    reference_batches,
)


def one_sentence(records):
    corpus = load_corpus(json.dumps(records).encode("utf-8"))
    return corpus.sentences[0], corpus.types


class TestBuildVocab:
    def test_min_freq_threshold(self):
        sentence, _ = one_sentence(
            [{"text": "a a b", "entities": [], "relations": [], "entity_labels": ["O"] * 3}]
        )
        vocab = build_vocab([sentence], min_freq=2)
        assert "a" in vocab
        assert "b" not in vocab
        assert vocab.id("b") == UNK_ID

    def test_empty_corpus(self):
        vocab = build_vocab([])
        assert vocab.to_list() == ["<pad>", "<unk>"]
        assert len(vocab) == 2

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        corpus = random_corpus(rng, 20)
        v1 = build_vocab(corpus.sentences)
        v2 = build_vocab(corpus.sentences)
        assert v1.to_list() == v2.to_list()
        assert v1.content_hash() == v2.content_hash()

    def test_order_by_frequency_then_token(self):
        sentence, _ = one_sentence(
            [{
                "text": "b b a a c",
                "entities": [],
                "relations": [],
                "entity_labels": ["O"] * 5,
            }]
        )
        vocab = build_vocab([sentence])
        assert vocab.to_list() == ["<pad>", "<unk>", "a", "b", "c"]


class TestExpand:
    def test_fig_sentence_three_instances(self):
        corpus = load_fig_corpus()
        sentence = corpus.sentences[0]
        examples = expand(sentence, corpus.types)
        assert len(examples) == 3
        names = [corpus.types.relations[e.relation_label].name for e in examples]
        assert names == ["uses", "targets", "targets"]
        for e in examples:
            assert e.ner_tags == sentence.labels

    def test_zero_relations(self):
        corpus = load_fig_corpus()
        assert expand(corpus.sentences[2], corpus.types) == []

    def test_duplicate_ordered_pair_rejected(self):
        sentence, types = one_sentence(
            [{
                "text": "APT29 uses Mimikatz",
                "entities": [[0, 1, "HackOrg"], [2, 3, "Tool"]],
                "relations": [[0, "uses", 1], [0, "targets", 1]],
                "entity_labels": ["B-HackOrg", "O", "B-Tool"],
            }]
        )
        with pytest.raises(DuplicatePairError):
            expand(sentence, types)

    def test_cardinality_property(self):
        rng = np.random.default_rng(1)
        corpus = random_corpus(rng, 200)
        for i, sentence in enumerate(corpus.sentences):
            try:
                examples = expand(sentence, corpus.types, sentence_index=i)
            except DuplicatePairError:
                continue
            assert len(examples) == len(sentence.relations)
            for j, e in enumerate(examples):
                assert e.origin == (i, j)
                assert sum(e.entity_mask) == (
                    e.head_span[1] - e.head_span[0] + e.tail_span[1] - e.tail_span[0]
                )

    def test_instances_differ_only_in_pair_features(self):
        corpus = load_fig_corpus()
        examples = expand(corpus.sentences[0], corpus.types)
        first = examples[0]
        for other in examples[1:]:
            assert other.tokens == first.tokens
            assert other.ner_tags == first.ner_tags
            assert other.ner_labels == first.ner_labels
            differing = (
                other.entity_mask != first.entity_mask
                or (other.head_type, other.tail_type) != (first.head_type, first.tail_type)
                or other.relation_label != first.relation_label
            )
            assert differing
            assert other.origin[0] == first.origin[0]
            assert other.origin[1] != first.origin[1]


class TestEntityMask:
    def test_basic(self):
        assert make_entity_mask(7, (0, 1), (2, 3)) == (1, 0, 1, 0, 0, 0, 0)

    def test_order_independent(self):
        assert make_entity_mask(7, (5, 7), (0, 1)) == (1, 0, 0, 0, 0, 1, 1)
        assert make_entity_mask(7, (0, 1), (5, 7)) == (1, 0, 0, 0, 0, 1, 1)

    def test_sum_equals_span_lengths(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(4, 30))
            s1 = int(rng.integers(0, n - 2))
            e1 = int(rng.integers(s1 + 1, min(s1 + 4, n - 1) + 1))
            s2 = int(rng.integers(e1, n))
            e2 = int(rng.integers(s2 + 1, min(s2 + 4, n) + 1))
            mask = make_entity_mask(n, (s1, e1), (s2, e2))
            assert sum(mask) == (e1 - s1) + (e2 - s2)

    def test_overlap_raises(self):
        with pytest.raises(OverlapError):
            make_entity_mask(5, (0, 3), (2, 4))

    def test_array_builder_matches_per_pair_masks(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(2, 20))
            pairs = []
            for _ in range(int(rng.integers(1, 6))):
                s1, e1, s2, e2 = np.sort(rng.choice(n + 1, size=4, replace=n < 3))
                if s1 < e1 <= s2 < e2:
                    pair = [(s1, e1), (s2, e2)]
                    pairs.append(pair if rng.random() < 0.5 else pair[::-1])
            if not pairs:
                continue
            bounds = np.array(pairs)
            masks = entity_masks(n, bounds[:, 0], bounds[:, 1])
            assert masks.dtype == np.float64
            assert np.array_equal(masks, [make_entity_mask(n, head, tail) for head, tail in pairs])


class TestPairRows:
    """``pair_rows`` looks up each entity's type once per sentence, yet each
    pair still checks its head type, tail type and relation in that order,
    and the first pair that fails names the error."""

    KNOWN = TypeSystem(["HackOrg", "Tool"], ["uses"])

    @staticmethod
    def sentence(relations, types=("HackOrg", "Tool", "Odd", "Rare")):
        """One sentence whose entity k is token 2k, of type ``types[k]``."""
        return one_sentence([{
            "text": "a b c d e f g h",
            "entities": [[2 * k, 2 * k + 1, name] for k, name in enumerate(types)],
            "relations": relations,
            "entity_labels": [tag for name in types for tag in (f"B-{name}", "O")],
        }])[0]

    @pytest.mark.parametrize("relations, error, message", [
        # an unknown relation in the first pair beats an unknown type in a later one
        ([[0, "mystery", 1], [0, "uses", 2]], UnknownRelation, "relation 'mystery'"),
        ([[0, "uses", 2], [0, "mystery", 1]], SchemaError, "entity type 'Odd'"),
        # within a pair: head type, then tail type, then relation
        ([[2, "mystery", 3]], SchemaError, "entity type 'Odd'"),
        ([[3, "mystery", 2]], SchemaError, "entity type 'Rare'"),
        ([[0, "mystery", 3]], SchemaError, "entity type 'Rare'"),
    ])
    def test_first_failing_pair_names_the_error(self, relations, error, message):
        with pytest.raises(error) as info:
            pair_rows(self.sentence(relations), self.KNOWN, sentence_index=5)
        assert str(info.value) == (f"sentence 5: {message} is not in the checkpoint's "
                                   "type system")

    def test_unknown_type_of_an_unpaired_entity_is_never_read(self):
        rows = pair_rows(self.sentence([[1, "uses", 0]]), self.KNOWN)
        assert rows.head.tolist() == [1] and rows.tail.tolist() == [0]
        assert rows.head_type.tolist() == [self.KNOWN.entity_type("Tool").id]
        assert rows.tail_type.tolist() == [self.KNOWN.entity_type("HackOrg").id]
        assert rows.label.tolist() == [self.KNOWN.relation("uses").id]

    def test_pair_spans_give_each_span_once(self):
        # every entity span of the sentences once, the pairs as indices into them
        first = self.sentence([[1, "uses", 0], [0, "uses", 1]])
        second = self.sentence([[0, "uses", 1]])
        kept = [(i, s, pair_rows(s, self.KNOWN)) for i, s in ((3, first), (5, second))]
        sentence, spans, pairs = pair_spans(kept)
        assert sentence.tolist() == [0] * 4 + [1] * 4
        assert spans.tolist() == [[0, 1], [2, 3], [4, 5], [6, 7]] * 2
        assert (pairs.head.tolist(), pairs.tail.tolist()) == ([1, 0, 4], [0, 1, 5])
        assert pairs.label.tolist() == [self.KNOWN.relation("uses").id] * 3
        # the sentences' own rows are left as they were
        assert kept[1][2].head.tolist() == [0]


class TestEncode:
    def test_unk_fallback(self):
        corpus = load_fig_corpus()
        examples = expand(corpus.sentences[0], corpus.types)
        vocab = Vocabulary(["<pad>", "<unk>", "APT29", "uses"])
        inst = encode(examples[0], vocab)
        assert inst.token_ids[0] == vocab.id("APT29")
        assert inst.token_ids[2] == UNK_ID

    def test_padding(self):
        corpus = load_fig_corpus()
        example = expand(corpus.sentences[1], corpus.types)[0]  # 6 tokens
        vocab = build_vocab(corpus.sentences)
        inst = encode(example, vocab, pad_to=9)
        assert inst.attention_mask == (1, 1, 1, 1, 1, 1, 0, 0, 0)
        assert inst.token_ids[6:] == (PAD_ID, PAD_ID, PAD_ID)
        assert inst.ner_labels[6:] == (0, 0, 0)

    def test_entity_mask_never_on_padding(self):
        rng = np.random.default_rng(3)
        corpus = random_corpus(rng, 60)
        vocab = build_vocab(corpus.sentences)
        for i, sentence in enumerate(corpus.sentences):
            try:
                examples = expand(sentence, corpus.types, sentence_index=i)
            except DuplicatePairError:
                continue
            for e in examples:
                pad_to = len(e.tokens) + int(rng.integers(0, 6))
                inst = encode(e, vocab, pad_to=pad_to)
                for em, am in zip(inst.entity_mask, inst.attention_mask):
                    assert em <= am

    def test_length_error(self):
        corpus = load_fig_corpus()
        example = expand(corpus.sentences[0], corpus.types)[0]
        vocab = build_vocab(corpus.sentences)
        with pytest.raises(LengthError):
            encode(example, vocab, max_len=3)

    def test_encode_all_skips_and_reports(self):
        corpus = load_fig_corpus()
        examples = expand(corpus.sentences[0], corpus.types)
        vocab = build_vocab(corpus.sentences)
        instances, skipped = encode_all(examples, vocab, max_len=3)
        assert instances == []
        assert len(skipped) == 3
        instances, skipped = encode_all(examples, vocab, max_len=10)
        assert len(instances) == 3 and skipped == []

    def test_round_trip_strip_padding(self):
        corpus = load_fig_corpus()
        vocab = build_vocab(corpus.sentences)
        example = expand(corpus.sentences[0], corpus.types)[1]
        inst = encode(example, vocab, pad_to=12)
        stripped = inst.token_ids[: inst.length]
        assert stripped == tuple(vocab.id(t) for t in example.tokens)


class TestBatches:
    def _rows(self, copies):
        """``copies`` copies of the fig corpus's first sentence (3 rows
        each), under distinct indices so the batch order is observable."""
        corpus = load_fig_corpus()
        kept, _ = sentence_rows(corpus.sentences, [0], corpus.types, max_len=256)
        (_, sentence, rows), = kept
        return [(k, sentence, rows) for k in range(copies)], corpus

    def _batches(self, copies, batch_size, shuffle_seed):
        kept, corpus = self._rows(copies)
        vocab = build_vocab(corpus.sentences)
        return make_batches(kept, corpus.types, vocab, batch_size, shuffle_seed=shuffle_seed)

    def test_batch_sizes(self):
        batches = self._batches(11, 16, shuffle_seed=0)
        assert [b.size for b in batches] == [16, 16, 1]

    def test_same_seed_identical(self):
        a = self._batches(7, 7, shuffle_seed=9)
        b = self._batches(7, 7, shuffle_seed=9)
        assert [x.origins for x in a] == [x.origins for x in b]

    def test_different_seed_permutes_same_multiset(self):
        a = self._batches(14, 8, shuffle_seed=1)
        b = self._batches(14, 8, shuffle_seed=2)
        flat_a = [o for batch in a for o in batch.origins]
        flat_b = [o for batch in b for o in batch.origins]
        assert flat_a != flat_b
        assert sorted(flat_a) == sorted(flat_b)

    def test_batch_pads_to_its_longest_row(self):
        corpus = load_fig_corpus()
        vocab = build_vocab(corpus.sentences)
        kept, _ = sentence_rows(corpus.sentences, [0, 1], corpus.types, max_len=256)
        batch, = make_batches(kept, corpus.types, vocab, 16)
        assert batch.max_len == 7
        # padded region: attention 0, label 0, token PAD
        row = list(batch.lengths).index(6)
        assert batch.attention_mask[row, 6] == 0.0
        assert batch.ner_labels[row, 6] == 0
        assert batch.token_ids[row, 6] == PAD_ID

    def test_no_rows_no_batches(self):
        corpus = load_fig_corpus()
        assert make_batches([], corpus.types, build_vocab(corpus.sentences), 4) == []
        with pytest.raises(ValueError):
            make_batches([], corpus.types, build_vocab(corpus.sentences), 0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_sentences=st.integers(1, 12),
           max_len=st.integers(3, 15), shuffle_seed=st.none() | st.integers(0, 2**16),
           data=st.data())
    def test_batches_match_the_record_by_record_reference(
        self, seed, n_sentences, max_len, shuffle_seed, data
    ):
        """Random sentences, some with no relation and some longer than
        ``max_len``, in batches of every size from 1 to the row count."""
        corpus = random_corpus(np.random.default_rng(seed), n_sentences)
        sentences = corpus.sentences
        vocab = build_vocab(sentences[: n_sentences // 2])  # some tokens UNK
        indices = sorted(data.draw(st.sets(st.integers(0, n_sentences - 1), min_size=1)))
        kept, skipped = sentence_rows(sentences, indices, corpus.types, max_len)
        rows = sum(len(r) for *_, r in kept)
        batch_size = data.draw(st.integers(1, max(rows, 1)))
        expected, expected_skipped = reference_batches(
            sentences, indices, corpus.types, vocab, max_len, batch_size, shuffle_seed)
        assert skipped == expected_skipped
        assert_batches_equal(
            make_batches(kept, corpus.types, vocab, batch_size, shuffle_seed), expected)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_sentences=st.integers(1, 12),
           batch_size=st.integers(1, 20), shuffle_seed=st.none() | st.integers(0, 2**16))
    def test_rows_round_trip_through_the_span_table(self, seed, n_sentences, batch_size,
                                                    shuffle_seed):
        """Each row's sentence and head and tail bounds read back from the
        batch's sentence arrays and span table, which name each sentence
        and each (sentence, bounds) once."""
        corpus = random_corpus(np.random.default_rng(seed), n_sentences)
        sentences = corpus.sentences
        vocab = build_vocab(sentences)
        kept, _ = sentence_rows(sentences, range(n_sentences), corpus.types, max_len=256)
        for batch in make_batches(kept, corpus.types, vocab, batch_size, shuffle_seed):
            corpus_index = {}  # each batch sentence's corpus record
            for (i, j), u, h, t in zip(batch.origins, batch.sentence_of, batch.head, batch.tail):
                assert corpus_index.setdefault(u, i) == i
                _, head, tail = relation_pairs(sentences[i], i)[j]
                assert batch.span_rows[t] == u
                assert batch.spans[h].tolist() == [head.start, head.end]
                assert batch.spans[t].tolist() == [tail.start, tail.end]
            assert sorted(corpus_index) == list(range(len(batch.token_ids)))
            assert len(set(corpus_index.values())) == len(corpus_index)
            for u, i in corpus_index.items():
                n = batch.lengths[u]
                assert n == len(sentences[i])
                assert batch.token_ids[u, :n].tolist() == [vocab.id(w) for w in sentences[i].tokens]
            named = {(u, start, end) for u, (start, end) in zip(batch.span_rows, batch.spans)}
            assert len(named) == len(batch.spans)


class TestDump:
    def test_matches_frozen_golden_file(self):
        from helpers import DATA_DIR

        corpus = load_fig_corpus()
        vocab = build_vocab(corpus.sentences)
        instances = []
        for i, sentence in enumerate(corpus.sentences):
            for e in expand(sentence, corpus.types, sentence_index=i):
                instances.append(encode(e, vocab))
        golden = (DATA_DIR / "fig_corpus_instances.golden.jsonl").read_text()
        assert dump_jsonl(instances) == golden

    def test_jsonl_round_trip_fields(self):
        corpus = load_fig_corpus()
        vocab = build_vocab(corpus.sentences)
        instances = [
            encode(e, vocab) for e in expand(corpus.sentences[0], corpus.types)
        ]
        text = dump_jsonl(instances)
        lines = [json.loads(line) for line in text.strip().split("\n")]
        assert len(lines) == 3
        assert lines[0]["token_ids"] == list(instances[0].token_ids)
        assert lines[2]["origin"] == [0, 2]
        assert dump_jsonl([]) == ""
