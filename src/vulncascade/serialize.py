"""Model file ("VCMD"): a sealed container (see archive) of float64 tensors.

The header carries format_version, stage, the full architecture spec, the
vocabulary content hash and the label map, so a loaded model can refuse
mismatched inputs.  The payload is every persistent tensor in declared layer
order, each as u8 ndim, u32 extents, then float64 values.  Deserializing and
re-serializing is byte-exact, and a loaded model reproduces the saved
model's predictions exactly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .archive import read_sealed, take, write_sealed
from .dataset import LabelMap
from .errors import SpecCorruptError
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
    if label_map is not None and len(label_map) != model.output_width:
        raise ValueError(f"label map of {len(label_map)} classes for a model "
                         f"of {model.output_width} outputs")
    header = {
        "format_version": FORMAT_VERSION,
        "stage": model.spec.stage,
        "spec": model.spec.to_dict(),
        "vocab_hash": vocab_hash,
        "label_classes": list(label_map.classes) if label_map is not None else None,
    }
    write_sealed(path, MODEL_MAGIC, header, [_pack_tensors(model)])


def load_model(path: str) -> tuple[Model, ModelHeader]:
    header_raw, payload = read_sealed(path, MODEL_MAGIC, FORMAT_VERSION, "model")
    try:
        spec = ModelSpec.from_dict(header_raw["spec"])
        model = _assemble(spec, rng=None)
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecCorruptError(f"model header spec is malformed: {exc}") from exc
    for name in ("stage", "vocab_hash", "label_classes"):
        if name not in header_raw:
            raise SpecCorruptError(f"model header has no {name}")
    stage = header_raw["stage"]
    if type(stage) is not int or stage != spec.stage:
        raise SpecCorruptError(f"model header stage {stage!r}, its spec says {spec.stage}")
    vocab_hash = header_raw["vocab_hash"]
    if not isinstance(vocab_hash, str) or len(vocab_hash) != 64:
        raise SpecCorruptError(f"model header vocab_hash is {vocab_hash!r}")
    classes = header_raw["label_classes"]
    if classes is not None and not (
            isinstance(classes, list) and len(classes) == model.output_width
            and all(isinstance(c, str) for c in classes)
            and len(set(classes)) == len(classes)):
        raise SpecCorruptError(f"model header label_classes {classes!r} do not "
                               f"name the model's {model.output_width} outputs")

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

    header = ModelHeader(format_version=FORMAT_VERSION, stage=stage, spec=spec,
                         vocab_hash=vocab_hash, label_classes=classes)
    return model, header
