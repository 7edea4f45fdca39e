"""Binary archive of encoded samples, the handoff between preprocess and
train/evaluate, and the sealed container it shares with model files.

A sealed file is, with integers little-endian:

    magic | u32 header length | header JSON (utf-8, sorted keys)
    u64 payload length | payload | sha256(every byte before it), 32 bytes

read_sealed makes every file-level check; the header's format_version is
read before the digest, so that a file of another version is reported as
such and not as damaged.  Every error that load_archive and
serialize.load_model raise about a file's contents starts with its path.

An archive ("VCEN") header holds format_version, label_kind, max_len, count,
num_classes and vocab_hash.  Its payload is three u32 blocks: ids
(count * max_len, row-major), true_lengths (count) and labels (count).
label_kind 0 holds 0/1 detector labels, label_kind 1 holds class indices for
the samples that carry a class.
"""

from __future__ import annotations

import functools
import hashlib
import json
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    ChecksumMismatchError,
    PipelineError,
    SpecCorruptError,
    VersionMismatchError,
)

ARCHIVE_MAGIC = b"VCEN"
ARCHIVE_VERSION = 2
LABEL_BINARY = 0
LABEL_CLASS = 1
HEADER_COUNTS = ("label_kind", "max_len", "count", "num_classes")


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


def write_sealed(path: str, magic: bytes, header: dict, blocks: list[bytes]) -> None:
    """Write header and the concatenated blocks as one sealed file."""
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    payload_len = sum(len(block) for block in blocks)
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for part in (magic, struct.pack("<I", len(header_bytes)), header_bytes,
                     struct.pack("<Q", payload_len), *blocks):
            digest.update(part)
            fh.write(part)
        fh.write(digest.digest())


def names_its_file(read):
    """Decorate a reader whose first argument is a path: each PipelineError
    it raises starts with that path, keeping its type and attributes."""
    @functools.wraps(read)
    def reader(path, *args, **kwargs):
        try:
            return read(path, *args, **kwargs)
        except PipelineError as exc:
            exc.args = (f"{path}: {exc}",)
            raise
    return reader


def take(view: memoryview, offset: int, count: int, what: str) -> tuple[memoryview, int]:
    """The count bytes at offset, as a view, and the offset after them."""
    if offset + count > len(view):
        raise ChecksumMismatchError(f"file truncated while reading {what}")
    return view[offset:offset + count], offset + count


def _is_version_1_archive(view: memoryview) -> bool:
    """Whether view has the version-1 archive layout: magic | u16 version 1
    | u16 label_kind | u32 max_len | u64 count | u32 num_classes | 32-byte
    vocab hash | the three u32 blocks, and no checksum.  Read as a sealed
    file, its version and label_kind make a header length of 1 or 65,537."""
    if len(view) < 56:
        return False
    version, label_kind, max_len, count = struct.unpack_from("<HHIQ", view, 4)
    return (version == 1 and label_kind in (LABEL_BINARY, LABEL_CLASS)
            and len(view) == 56 + 4 * count * (max_len + 2))


def read_sealed(path: str, magic: bytes, version: int, kind: str) -> tuple[dict, memoryview]:
    """The header and payload of a sealed file of this magic and version;
    kind names the file in errors."""
    with open(path, "rb") as fh:
        view = memoryview(fh.read())

    chunk, off = take(view, 0, len(magic), "magic")
    if chunk != magic:
        raise SpecCorruptError(f"{kind} file has bad magic {bytes(chunk)!r}")
    if magic == ARCHIVE_MAGIC and _is_version_1_archive(view):
        raise VersionMismatchError(1, version, kind)
    chunk, off = take(view, off, 4, "header length")
    (header_len,) = struct.unpack("<I", chunk)
    chunk, off = take(view, off, header_len, "header")
    try:
        header = json.loads(str(chunk, "utf-8"))
    except (ValueError, RecursionError) as exc:  # also 4300+ digits, deep nesting
        raise SpecCorruptError(f"unreadable {kind} header: {exc}") from exc
    if not isinstance(header, dict):
        raise SpecCorruptError(f"{kind} header is not a JSON object")
    if header.get("format_version") != version:
        raise VersionMismatchError(header.get("format_version"), version, kind)

    chunk, off = take(view, off, 8, "payload length")
    (payload_len,) = struct.unpack("<Q", chunk)
    payload, off = take(view, off, payload_len, "payload")
    digest, end = take(view, off, 32, "checksum")
    if hashlib.sha256(view[:off]).digest() != digest:
        raise ChecksumMismatchError(f"{kind} file does not match its checksum")
    if end != len(view):
        raise SpecCorruptError(f"{len(view) - end} bytes after the checksum")
    return header, payload


def save_archive(archive: EncodedArchive, path: str) -> None:
    header = {name: int(getattr(archive, name)) for name in HEADER_COUNTS}
    header.update(format_version=ARCHIVE_VERSION, vocab_hash=archive.vocab_hash)
    blocks = [np.ascontiguousarray(arr, dtype="<u4").tobytes()
              for arr in (archive.ids, archive.true_lengths, archive.labels)]
    write_sealed(path, ARCHIVE_MAGIC, header, blocks)


@names_its_file
def load_archive(path: str) -> EncodedArchive:
    header, payload = read_sealed(path, ARCHIVE_MAGIC, ARCHIVE_VERSION, "archive")
    fields = {name: header.get(name) for name in HEADER_COUNTS}
    for name, value in fields.items():
        if type(value) is not int or value < 0:
            raise SpecCorruptError(f"archive header {name} is {value!r}")
    if not isinstance(header.get("vocab_hash"), str):
        raise SpecCorruptError(f"archive header vocab_hash is {header.get('vocab_hash')!r}")
    count, max_len = fields.pop("count"), fields["max_len"]

    blocks, off = [], 0
    for what, size in (("ids", count * max_len), ("true_lengths", count), ("labels", count)):
        chunk, off = take(payload, off, 4 * size, f"{what} block")
        blocks.append(np.frombuffer(chunk, dtype="<u4"))
    if off != len(payload):
        raise SpecCorruptError(f"{len(payload) - off} trailing payload bytes")

    ids, true_lengths, labels = blocks
    try:
        return EncodedArchive(vocab_hash=header["vocab_hash"],
                              ids=ids.reshape(count, max_len),
                              true_lengths=true_lengths, labels=labels, **fields)
    except ValueError as exc:
        raise SpecCorruptError(f"corrupt archive: {exc}") from exc
