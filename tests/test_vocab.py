import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vulncascade.errors import EmptyCorpusError, IdOutOfRangeError
from vulncascade.normalizer import normalize_source
from vulncascade.vocab import (
    PAD_ID,
    PAD_TOKEN,
    UNK_ID,
    UNK_TOKEN,
    Vocabulary,
    build_vocab,
    decode,
    encode,
    encode_batch,
)


def make_vocab(tokens):
    return Vocabulary([PAD_TOKEN, UNK_TOKEN] + tokens)


class TestBuild:
    def test_sentinels_fixed(self):
        v = build_vocab([["a"]])
        assert v.id_to_token[PAD_ID] == PAD_TOKEN
        assert v.id_to_token[UNK_ID] == UNK_TOKEN

    def test_frequency_order(self):
        v = build_vocab([["b", "b", "b", "a", "a", "c"]])
        assert v.id_to_token[2:] == ["b", "a", "c"]

    def test_ties_break_lexicographically(self):
        v = build_vocab([["z", "m", "a"]])
        assert v.id_to_token[2:] == ["a", "m", "z"]

    def test_min_freq_drops_rare(self):
        v = build_vocab([["a", "a", "b"]], min_freq=2)
        assert "a" in v.token_to_id and "b" not in v.token_to_id

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyCorpusError):
            build_vocab([])

    def test_corpus_of_empty_samples_allowed(self):
        v = build_vocab([[], []])
        assert v.size == 2

    def test_accepts_normalized_samples(self):
        # normalize returns a plain token list, which build_vocab counts
        v = build_vocab([normalize_source("x = y(1);")])
        ids = v.token_to_id
        assert "VAR0" in ids and "FUNC0" in ids and "NUMBER" in ids

    def test_bad_min_freq(self):
        with pytest.raises(ValueError):
            build_vocab([["a"]], min_freq=0)

    def test_missing_sentinels_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(["a", "b"])
        with pytest.raises(ValueError):
            Vocabulary([PAD_TOKEN])

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary([PAD_TOKEN, UNK_TOKEN, "a", "a"])


class TestEncode:
    def test_basic(self):
        v = make_vocab(["int", "VAR0", ";"])
        enc = encode(["int", "VAR0", ";"], v, 6)
        assert enc.ids.tolist() == [2, 3, 4, 0, 0, 0]
        assert enc.true_length == 3

    def test_unknown_maps_to_unk(self):
        v = make_vocab(["int"])
        assert encode(["wat"], v, 2).ids.tolist() == [UNK_ID, 0]

    def test_truncates_prefix(self):
        v = make_vocab(["a", "b", "c"])
        enc = encode(["a", "b", "c"], v, 2)
        assert enc.ids.tolist() == [2, 3]
        assert enc.true_length == 2

    def test_bad_max_len(self):
        v = make_vocab(["a"])
        with pytest.raises(ValueError):
            encode(["a"], v, 0)
        with pytest.raises(ValueError):
            encode_batch([], v, 0)

    def test_batch_shape_and_dtype(self):
        v = make_vocab(["a", "b"])
        ids, lengths = encode_batch([["a"], ["a", "b"]], v, 4)
        assert ids.shape == (2, 4) and ids.dtype == np.int32
        assert lengths.tolist() == [1, 2]

    def test_empty_batch(self):
        v = make_vocab(["a"])
        ids, lengths = encode_batch([], v, 4)
        assert ids.shape == (0, 4)
        assert lengths.shape == (0,)


class TestDecode:
    def test_drops_padding(self):
        v = make_vocab(["a", "b"])
        assert decode(encode(["a", "b"], v, 5), v) == ["a", "b"]

    def test_out_of_range_raises(self):
        v = make_vocab(["a"])
        with pytest.raises(IdOutOfRangeError):
            decode([99], v)
        with pytest.raises(IdOutOfRangeError):
            decode([-1], v)

    def test_unk_round_trips_as_text(self):
        v = make_vocab(["a"])
        # decoding an unknown gives the UNK token text, which re-encodes to
        # the same id; this keeps decode/re-encode exact for the cascade
        tokens = decode(encode(["mystery"], v, 3), v)
        assert tokens == [UNK_TOKEN]
        assert encode(tokens, v, 3).ids.tolist() == encode(["mystery"], v, 3).ids.tolist()


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        v = build_vocab([["int", "VAR0", "int"]])
        path = tmp_path / "vocab.txt"
        v.save(path)
        again = Vocabulary.load(path)
        assert again.id_to_token == v.id_to_token

    def test_tokens_holding_other_line_breaks_round_trip(self, tmp_path):
        # the lexer keeps each of these as a one-character punctuator
        v = make_vocab(["\u2028", "\u2029", "\x85", "\x1c", "\x1d", "\x1e", "a"])
        path = tmp_path / "vocab.txt"
        v.save(path)
        again = Vocabulary.load(path)
        assert again.id_to_token == v.id_to_token
        assert again.content_hash() == v.content_hash()

    def test_file_is_one_token_per_line(self, tmp_path):
        v = make_vocab(["a", "b"])
        path = tmp_path / "vocab.txt"
        v.save(path)
        assert path.read_text().splitlines() == [PAD_TOKEN, UNK_TOKEN, "a", "b"]

    def test_content_hash_stable_and_sensitive(self):
        a = make_vocab(["x", "y"])
        b = make_vocab(["x", "y"])
        c = make_vocab(["x", "z"])
        assert a.content_hash() == b.content_hash()
        assert a.content_hash() != c.content_hash()
        assert len(a.content_hash()) == 64


token_lists = st.lists(
    st.lists(st.sampled_from(["int", "VAR0", "VAR1", "NUMBER", ";", "{", "}"]),
             max_size=20),
    min_size=1, max_size=8)


@settings(max_examples=100, deadline=None)
@given(token_lists)
def test_encode_decode_round_trip_property(corpus):
    v = build_vocab(corpus)
    for tokens in corpus:
        enc = encode(tokens, v, 32)
        assert decode(enc, v) == tokens[:32]
        assert enc.true_length == min(len(tokens), 32)


@settings(max_examples=100, deadline=None)
@given(token_lists)
def test_ids_are_dense_and_ordered_property(corpus):
    v = build_vocab(corpus)
    counts = {}
    for tokens in corpus:
        for t in tokens:
            counts[t] = counts.get(t, 0) + 1
    ordered = v.id_to_token[2:]
    # descending frequency, ties lexicographic
    keys = [(-counts[t], t) for t in ordered]
    assert keys == sorted(keys)
