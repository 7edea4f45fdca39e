"""Binary archive of encoded samples, the handoff between preprocess and
train/evaluate.

Layout, little-endian throughout:

    magic "VCEN" | u16 version | u16 label_kind | u32 max_len
    u64 sample_count | u32 num_classes | 32-byte vocab content hash
    ids block:          sample_count * max_len  u32, row-major
    true_lengths block: sample_count            u32
    labels block:       sample_count            u32

label_kind 0 holds 0/1 detector labels, label_kind 1 holds class indices
for the samples that carry a class.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ChecksumMismatchError, SpecCorruptError, VersionMismatchError

ARCHIVE_MAGIC = b"VCEN"
ARCHIVE_VERSION = 1
LABEL_BINARY = 0
LABEL_CLASS = 1


@dataclass
class EncodedArchive:
    label_kind: int
    max_len: int
    num_classes: int
    vocab_hash: str
    ids: np.ndarray
    true_lengths: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.true_lengths = np.asarray(self.true_lengths, dtype=np.int64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.label_kind not in (LABEL_BINARY, LABEL_CLASS):
            raise ValueError(f"unknown label kind {self.label_kind}")
        n = self.ids.shape[0]
        if self.ids.ndim != 2 or self.ids.shape[1] != self.max_len:
            raise ValueError(
                f"ids must be (N, {self.max_len}), got {self.ids.shape}"
            )
        if self.true_lengths.shape != (n,) or self.labels.shape != (n,):
            raise ValueError("true_lengths and labels must each have one row per sample")
        if len(self.vocab_hash) != 64:
            raise ValueError("vocab_hash must be a sha256 hex digest")
        bound = 2 if self.label_kind == LABEL_BINARY else self.num_classes
        if n and (self.labels.min() < 0 or self.labels.max() >= bound):
            raise ValueError(f"labels must lie in [0, {bound})")

    @property
    def count(self) -> int:
        return self.ids.shape[0]


def save_archive(archive: EncodedArchive, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(ARCHIVE_MAGIC)
        fh.write(struct.pack("<HHI", ARCHIVE_VERSION, archive.label_kind,
                             archive.max_len))
        fh.write(struct.pack("<QI", archive.count, archive.num_classes))
        fh.write(bytes.fromhex(archive.vocab_hash))
        fh.write(np.ascontiguousarray(archive.ids, dtype="<u4").tobytes())
        fh.write(np.ascontiguousarray(archive.true_lengths, dtype="<u4").tobytes())
        fh.write(np.ascontiguousarray(archive.labels, dtype="<u4").tobytes())


def take(view: memoryview, offset: int, count: int, what: str) -> tuple[memoryview, int]:
    """The count bytes at offset, as a view into the file, and the offset
    after them; shared by the archive and model file readers."""
    if offset + count > len(view):
        raise ChecksumMismatchError(f"file truncated while reading {what}")
    return view[offset:offset + count], offset + count


def load_archive(path: str) -> EncodedArchive:
    with open(path, "rb") as fh:
        view = memoryview(fh.read())

    chunk, off = take(view, 0, 4, "magic")
    if chunk != ARCHIVE_MAGIC:
        raise SpecCorruptError(f"not an encoded archive: bad magic {bytes(chunk)!r}")
    chunk, off = take(view, off, 8, "header")
    version, label_kind, max_len = struct.unpack("<HHI", chunk)
    if version != ARCHIVE_VERSION:
        raise VersionMismatchError(version, ARCHIVE_VERSION)
    chunk, off = take(view, off, 12, "counts")
    count, num_classes = struct.unpack("<QI", chunk)
    chunk, off = take(view, off, 32, "vocab hash")
    vocab_hash = chunk.hex()

    chunk, off = take(view, off, 4 * count * max_len, "ids block")
    ids = np.frombuffer(chunk, dtype="<u4").reshape(count, max_len)
    chunk, off = take(view, off, 4 * count, "true_lengths block")
    true_lengths = np.frombuffer(chunk, dtype="<u4")
    chunk, off = take(view, off, 4 * count, "labels block")
    labels = np.frombuffer(chunk, dtype="<u4")
    if off != len(view):
        raise SpecCorruptError(f"{len(view) - off} trailing bytes after archive")

    try:
        return EncodedArchive(
            label_kind=label_kind,
            max_len=max_len,
            num_classes=num_classes,
            vocab_hash=vocab_hash,
            ids=ids,
            true_lengths=true_lengths,
            labels=labels,
        )
    except ValueError as exc:
        raise SpecCorruptError(f"corrupt archive: {exc}") from exc
