"""Token vocabulary and fixed-length integer encoding.

The vocabulary maps normalized token texts to contiguous ids.  Id 0 is the
padding token, id 1 the unknown token; real tokens start at id 2, ordered by
descending corpus frequency with lexicographic tie-breaks so two builds over
the same corpus agree exactly.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyCorpusError, IdOutOfRangeError, SpecCorruptError

PAD_TOKEN = "<PAD>"
UNK_TOKEN = "<UNK>"
PAD_ID = 0
UNK_ID = 1


class Vocabulary:
    def __init__(self, tokens: Sequence[str]):
        if len(tokens) < 2 or tokens[0] != PAD_TOKEN or tokens[1] != UNK_TOKEN:
            raise ValueError("vocabulary must start with the PAD and UNK sentinels")
        self.id_to_token: list[str] = list(tokens)
        self.token_to_id: dict[str, int] = {t: i for i, t in enumerate(tokens)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("duplicate token in vocabulary")

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    # one token per line; the line number is the id.  Tokens may hold other
    # line breaks (U+2028, \x85, \x1c ...), so load splits on "\n" alone
    def to_text(self) -> str:
        return "\n".join(self.id_to_token) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """SpecCorruptError, naming the file, unless it holds what save writes."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls(fh.read().removesuffix("\n").split("\n"))
        except ValueError as exc:  # undecodable bytes or a rejected token list
            raise SpecCorruptError(f"{path}: {exc}") from exc

    def content_hash(self) -> str:
        """sha256 over the canonical file serialization, as hex."""
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()


def build_vocab(corpus: Iterable[Sequence[str]]) -> Vocabulary:
    """Count tokens across a corpus and give every one of them an id.

    Ids are assigned by descending frequency, ties broken lexicographically.
    Raises EmptyCorpusError when the corpus has no samples at all.
    """
    counts: Counter[str] = Counter()
    n_samples = 0
    for sample in corpus:
        n_samples += 1
        counts.update(sample)
    if n_samples == 0:
        raise EmptyCorpusError("cannot build a vocabulary from zero samples")
    ordered = sorted(counts, key=lambda t: (-counts[t], t))
    return Vocabulary([PAD_TOKEN, UNK_TOKEN] + ordered)


def encode(sample: Sequence[str], vocab: Vocabulary, max_len: int) -> np.ndarray:
    """Map tokens to a (max_len,) int32 id row, truncating to the first
    max_len and right-padding."""
    return encode_batch([sample], vocab, max_len)[0][0]


def encode_batch(
    samples: Iterable[Sequence[str]], vocab: Vocabulary, max_len: int
) -> tuple[np.ndarray, np.ndarray]:
    """Encode many samples into a (N, max_len) int32 id matrix plus true
    lengths.  Each row holds a sample's first max_len ids, right-padded with
    PAD_ID; encode is the one-row case."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    rows = list(samples)
    ids = np.zeros((len(rows), max_len), dtype=np.int32)
    lengths = np.zeros(len(rows), dtype=np.int32)
    lookup = vocab.token_to_id.get
    for r, tokens in enumerate(rows):
        n = min(len(tokens), max_len)
        ids[r, :n] = [lookup(token, UNK_ID) for token in tokens[:n]]
        lengths[r] = n
    return ids, lengths


def decode(ids: Sequence[int] | np.ndarray, vocab: Vocabulary) -> list[str]:
    """Inverse of encode up to padding removal and unknown-token loss."""
    out = []
    for raw in np.asarray(ids).ravel():
        i = int(raw)
        if i < 0 or i >= vocab.size:
            raise IdOutOfRangeError(f"id {i} outside vocabulary of size {vocab.size}")
        if i == PAD_ID:
            continue
        out.append(vocab.id_to_token[i])
    return out
