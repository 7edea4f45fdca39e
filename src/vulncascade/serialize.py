"""Model container file: a JSON header followed by raw float64 tensors.

Layout, all integers little-endian:

    magic "VCMD" | u32 header length | header JSON (utf-8)
    u64 payload length | payload | sha256(every byte before it), 32 bytes

The header carries format_version, stage, the full architecture spec, the
vocabulary content hash and the label map, so a loaded model can refuse
mismatched inputs.  The payload is every persistent tensor in declared layer
order, each as u8 ndim, u32 extents, then float64 values.  Deserializing and
re-serializing is byte-exact, and a loaded model reproduces the saved
model's predictions exactly.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass

import numpy as np

from .archive import take
from .dataset import LabelMap
from .errors import ChecksumMismatchError, SpecCorruptError, VersionMismatchError
from .models import Model, ModelSpec, _assemble

MODEL_MAGIC = b"VCMD"
FORMAT_VERSION = 2


@dataclass
class ModelHeader:
    format_version: int
    stage: int
    spec: ModelSpec
    vocab_hash: str
    label_classes: list[str] | None

    def label_map(self) -> LabelMap | None:
        return LabelMap(tuple(self.label_classes)) if self.label_classes else None


def _pack_tensors(model: Model) -> bytearray:
    payload = bytearray()
    for _, arr in model.named_tensors():
        payload += struct.pack("<B", arr.ndim)
        payload += struct.pack(f"<{arr.ndim}I", *arr.shape)
        payload += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return payload


def save_model(
    model: Model,
    path: str,
    vocab_hash: str,
    label_map: LabelMap | None = None,
) -> None:
    header = {
        "format_version": FORMAT_VERSION,
        "stage": model.spec.stage,
        "spec": model.spec.to_dict(),
        "vocab_hash": vocab_hash,
        "label_classes": list(label_map.classes) if label_map is not None else None,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = _pack_tensors(model)
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for part in (MODEL_MAGIC, struct.pack("<I", len(header_bytes)), header_bytes,
                     struct.pack("<Q", len(payload)), payload):
            digest.update(part)
            fh.write(part)
        fh.write(digest.digest())


def load_model(path: str) -> tuple[Model, ModelHeader]:
    with open(path, "rb") as fh:
        view = memoryview(fh.read())

    chunk, off = take(view, 0, 4, "magic")
    if chunk != MODEL_MAGIC:
        raise SpecCorruptError(f"not a model file: bad magic {bytes(chunk)!r}")
    chunk, off = take(view, off, 4, "header length")
    (header_len,) = struct.unpack("<I", chunk)
    chunk, off = take(view, off, header_len, "header")
    try:
        header_raw = json.loads(str(chunk, "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SpecCorruptError(f"unreadable model header: {exc}") from exc
    if not isinstance(header_raw, dict):
        raise SpecCorruptError("model header is not a JSON object")

    # read before the digest, so that a file of another version is reported
    # as such and not as damaged
    version = header_raw.get("format_version")
    if version != FORMAT_VERSION:
        raise VersionMismatchError(version, FORMAT_VERSION)

    chunk, off = take(view, off, 8, "payload length")
    (payload_len,) = struct.unpack("<Q", chunk)
    payload, off = take(view, off, payload_len, "payload")
    digest, end = take(view, off, 32, "checksum")
    if hashlib.sha256(view[:off]).digest() != digest:
        raise ChecksumMismatchError("model file does not match its checksum")
    if end != len(view):
        raise SpecCorruptError(f"{len(view) - end} bytes after the checksum")

    try:
        spec = ModelSpec.from_dict(header_raw["spec"])
        model = _assemble(spec, rng=None)
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecCorruptError(f"model header spec is malformed: {exc}") from exc

    pos = 0
    for name, arr in model.named_tensors():
        chunk, pos = take(payload, pos, 1, f"{name} rank")
        ndim = chunk[0]
        chunk, pos = take(payload, pos, 4 * ndim, f"{name} extents")
        shape = struct.unpack(f"<{ndim}I", chunk)
        if shape != arr.shape:
            raise SpecCorruptError(
                f"tensor {name} has shape {shape}, spec implies {arr.shape}"
            )
        chunk, pos = take(payload, pos, 8 * arr.size, f"{name} values")
        arr[...] = np.frombuffer(chunk, "<f8").reshape(shape)
    if pos != len(payload):
        raise SpecCorruptError(f"{len(payload) - pos} trailing payload bytes")

    header = ModelHeader(
        format_version=version,
        stage=header_raw.get("stage", spec.stage),
        spec=spec,
        vocab_hash=header_raw.get("vocab_hash", ""),
        label_classes=header_raw.get("label_classes"),
    )
    return model, header
