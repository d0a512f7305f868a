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
    relation_pairs,
    sentence_rows,
)
from ctie.model import ModelConfig, _check_batch

from helpers import (
    SMOKE_CORPUS,
    assert_batches_equal,
    entity_masks,
    load_fig_corpus,
    per_sentence_batches,
    random_corpus,
    reference_batches,
)


def table(sentences, indices, types, vocab, max_len=256):
    """``sentence_rows`` with the token ids of ``vocab``."""
    return sentence_rows(sentences, [vocab.ids(s.tokens) for s in sentences], indices, types,
                         max_len)


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
        # one row per ordered pair: the loader rejects a second annotation,
        # so no corpus ``expand`` sees holds one; (1, 0) is another pair
        with pytest.raises(DuplicatePairError,
                           match=r"^record 0: relations\[2\] .* \(0, 1\) annotated twice$"):
            one_sentence(
                [{
                    "text": "APT29 uses Mimikatz",
                    "entities": [[0, 1, "HackOrg"], [2, 3, "Tool"]],
                    "relations": [[0, "uses", 1], [1, "targets", 0], [0, "targets", 1]],
                    "entity_labels": ["B-HackOrg", "O", "B-Tool"],
                }]
            )

    def test_cardinality_property(self):
        rng = np.random.default_rng(1)
        corpus = random_corpus(rng, 200)
        for i, sentence in enumerate(corpus.sentences):
            examples = expand(sentence, corpus.types, sentence_index=i)
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


class TestSentenceRowsChecks:
    """``sentence_rows`` looks up each entity's type once per sentence, yet
    each pair still checks its head type, tail type and relation in that
    order, and the first pair that fails names the error. Nothing else is
    checked: an unpaired entity's unknown type is read only as a BIO label
    that training's ``_check_batch`` rejects."""

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

    def rows(self, sentence, index=5, max_len=256):
        """``sentence_rows`` of ``sentence`` as sentence ``index``."""
        return sentence_rows({index: sentence}, {index: [0] * len(sentence)}, [index],
                             self.KNOWN, max_len)

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
            self.rows(self.sentence(relations))
        assert str(info.value) == (f"sentence 5: {message} is not in the checkpoint's "
                                   "type system")

    def test_unknown_type_of_an_unpaired_entity_is_never_read(self):
        rows, skipped = self.rows(self.sentence([[1, "uses", 0]]))
        assert skipped == [] and rows.origins == ((5, 0),)
        assert rows.head.tolist() == [1] and rows.tail.tolist() == [0]
        assert rows.head_type.tolist() == [self.KNOWN.entity_type("Tool").id]
        assert rows.tail_type.tolist() == [self.KNOWN.entity_type("HackOrg").id]
        assert rows.relation_label.tolist() == [self.KNOWN.relation("uses").id]
        # the tags of 'Odd' and 'Rare' get the one id past the BIO labels
        unknown = self.KNOWN.num_bio_labels
        assert rows.ner_labels[0].tolist() == [self.KNOWN.bio_id("B-HackOrg"), 0,
                                               self.KNOWN.bio_id("B-Tool"), 0,
                                               unknown, 0, unknown, 0]
        # a skipped sentence or one with no pair holds no label at all
        for relations, max_len in (([[1, "uses", 0]], 7), ([], 256)):
            rows, skipped = self.rows(self.sentence(relations), max_len=max_len)
            assert rows.size == 0 and len(skipped) == len(relations)

    def test_training_rejects_the_label_of_an_unknown_type(self):
        rows, _ = self.rows(self.sentence([[1, "uses", 0]]))
        config = ModelConfig(vocab_size=2, num_ner_labels=self.KNOWN.num_bio_labels,
                             num_relations=self.KNOWN.num_relations,
                             num_entity_types=self.KNOWN.num_entity_types)
        with pytest.raises(ValueError, match="batch.ner_labels must lie in"):
            _check_batch(rows, config)

    def test_table_gives_each_span_once(self):
        # every entity span of the sentences once, the pairs as indices into them
        known = ("HackOrg", "Tool", "Tool", "HackOrg")
        first = self.sentence([[1, "uses", 0], [0, "uses", 1]], known)
        second = self.sentence([[0, "uses", 1]], known)
        rows, skipped = sentence_rows({3: first, 5: second}, {3: [0] * 8, 5: [1] * 8}, [3, 5],
                                      self.KNOWN, 256)
        assert skipped == []
        assert rows.span_rows.tolist() == [0] * 4 + [1] * 4
        assert rows.spans.tolist() == [[0, 1], [2, 3], [4, 5], [6, 7]] * 2
        assert (rows.head.tolist(), rows.tail.tolist()) == ([1, 0, 4], [0, 1, 5])
        assert rows.relation_label.tolist() == [self.KNOWN.relation("uses").id] * 3
        hack, tool = (self.KNOWN.entity_type(name).id for name in ("HackOrg", "Tool"))
        assert (rows.head_type.tolist(), rows.tail_type.tolist()) == ([tool, hack, hack],
                                                                      [hack, tool, tool])
        assert rows.origins == ((3, 0), (3, 1), (5, 0))
        assert rows.token_ids.tolist() == [[0] * 8, [1] * 8]
        assert rows.ner_labels[0].tolist() == [self.KNOWN.bio_id(tag) for tag in first.labels]


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
            for e in expand(sentence, corpus.types, sentence_index=i):
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
    def _batches(self, copies, batch_size, shuffle_seed):
        """The batches of ``copies`` copies of the fig corpus's first
        sentence (3 rows each), under distinct indices so the batch order
        is observable."""
        corpus = load_fig_corpus()
        rows, _ = table([corpus.sentences[0]] * copies, range(copies), corpus.types,
                        build_vocab(corpus.sentences))
        return make_batches(rows, batch_size, shuffle_seed=shuffle_seed)

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
        rows, _ = table(corpus.sentences, [0, 1], corpus.types, vocab)
        batch, = make_batches(rows, 16)
        assert batch.token_ids.shape[1] == 7
        # padded region: attention 0, label 0, token PAD
        row = list(batch.lengths).index(6)
        assert batch.attention_mask[row, 6] == 0.0
        assert batch.ner_labels[row, 6] == 0
        assert batch.token_ids[row, 6] == PAD_ID

    def test_no_rows_no_batches(self):
        corpus = load_fig_corpus()
        rows, _ = table(corpus.sentences, [], corpus.types, build_vocab(corpus.sentences))
        assert make_batches(rows, 4) == []
        with pytest.raises(ValueError):
            make_batches(rows, 0)

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
        rows, skipped = table(sentences, indices, corpus.types, vocab, max_len)
        batch_size = data.draw(st.integers(1, max(rows.size, 1)))
        expected, expected_skipped = reference_batches(
            sentences, indices, corpus.types, vocab, max_len, batch_size, shuffle_seed)
        assert skipped == expected_skipped
        assert_batches_equal(make_batches(rows, batch_size, shuffle_seed), expected)

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
        rows, _ = table(sentences, range(n_sentences), corpus.types, vocab)
        for batch in make_batches(rows, batch_size, shuffle_seed):
            corpus_index = {}  # each batch sentence's corpus record
            for (i, j), u, h, t in zip(batch.origins, batch.sentence_of, batch.head, batch.tail):
                assert corpus_index.setdefault(u, i) == i
                _, head, tail = relation_pairs(sentences[i])[j]
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


class TestRowTable:
    """The ``sentence_rows`` table of a smoke-corpus sentence set is a
    consistent span table, each of its sentence ranges is the table of
    those sentences alone, and its batches are those of the per-sentence
    builder."""

    @settings(max_examples=25, deadline=None)
    @given(max_len=st.integers(6, 14), data=st.data())
    def test_table_slices_and_batches(self, max_len, data):
        corpus = load_corpus(SMOKE_CORPUS)
        sentences, types = corpus.sentences, corpus.types
        indices = sorted(data.draw(st.sets(st.integers(0, len(sentences) - 1), max_size=16)))
        vocab = build_vocab([sentences[i] for i in indices[::2]])  # some tokens UNK
        token_ids = [vocab.ids(s.tokens) for s in sentences]
        rows, skipped = sentence_rows(sentences, token_ids, indices, types, max_len)
        _check_batch(rows, ModelConfig(
            vocab_size=len(vocab), num_ner_labels=types.num_bio_labels,
            num_relations=types.num_relations, num_entity_types=types.num_entity_types))

        kept = rows.records.tolist()
        assert kept == sorted(set(kept)) and set(kept) == {i for i, _ in rows.origins}
        for lo in range(len(kept) + 1):
            for hi in range(lo, len(kept) + 1):
                alone, _ = sentence_rows(sentences, token_ids, kept[lo:hi], types, max_len)
                assert_batches_equal([rows.sentence_range(lo, hi)], [alone])

        for batch_size in (1, 3, 16):
            for shuffle_seed in (None, 0, 7):
                expected, expected_skipped = per_sentence_batches(
                    sentences, indices, types, vocab, max_len, batch_size, shuffle_seed)
                assert skipped == expected_skipped
                assert_batches_equal(make_batches(rows, batch_size, shuffle_seed), expected)


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
