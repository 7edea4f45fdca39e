"""Model specifications, network assembly, and two-stage cascade prediction.

A ModelSpec is a declarative layer list; build_model materializes it into an
ordered stack of layers with seeded initialization, validating that adjacent
shapes are compatible.  The two shipped architectures:

Stage 1 (binary detector): 13-d embedding over 500 ids, two convolution
blocks (256 then 128 filters, kernel 7, ReLU, 2x2 max pooling), then dense
64 -> 16 -> 1 with a sigmoid output.

Stage 2 (class classifier): 300-d embedding over 400 ids, two convolution
blocks (64 then 128 filters, kernel 3, ReLU, batch normalization, 2x2 max
pooling), an LSTM returning its full sequence (100 cells) feeding a second
LSTM reduced to its last step (10 cells), then dense 100 -> C with softmax.

Where an embedding wider than layers.GATHER_COST (stage 2's) feeds a
convolution directly, _assemble pairs the two into a layers.EmbeddingConv1D,
the first entry of the stack Model runs, one path over the batch's table
rows.  The two layers keep their own tensors and gradients, so the model's
tensors, names and file bytes are those of the declared layers.

Each unfolded Conv1D -> relu -> MaxPool1D(2, 2) block (stage 1's two; stage
2 has a batchnorm between relu and pool) runs as its Conv1D with relu_pool
set, bit for bit: the relu and the pool leave the stack but stay in layers.

The layers before the first Flatten or LSTM (the prefix) are all
position-wise and translation-invariant, so in each row every position whose
receptive field holds PAD ids alone carries one vector, set by the
parameters: the row's padding tail.  Valid stride-1 convolutions and pools
map positions affinely (Dumoulin and Visin 2016), so _assemble reduces the
prefix to integers: each Conv1D's input stride s, the product of the pool
strides before it, at which a tail starting at id t starts at ceil(t / s),
and the prefix's total stride S and receptive field R.  Each Conv1D there
but the fold's multiplies, per row, only the rows up to its first tail
output and copies that one into the rest, in training and eval forwards and
in backward.  An eval forward also runs the prefix on the first
ceil(t / S) * S + R id columns only, t the batch's last tail start, and
repeats its last output to the full length.  Results equal the full-length
ones up to float64 summation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .dataset import LabelMap
from .errors import (
    BatchTooSmallError,
    IncompatibleSpecError,
    PipelineError,
    ShapeMismatchError,
    SpecCorruptError,
)
from .layers import (
    Activation,
    BatchNorm1D,
    Conv1D,
    Dense,
    Embedding,
    EmbeddingConv1D,
    Flatten,
    GATHER_COST,
    Layer,
    LSTM,
    MaxPool1D,
)
from .normalizer import normalize_source
from .vocab import PAD_ID, Vocabulary, encode

STAGE1_INPUT_LENGTH = 500
STAGE1_EMBEDDING_DIM = 13
STAGE2_INPUT_LENGTH = 400
STAGE2_EMBEDDING_DIM = 300
EVAL_BATCH = 256


@dataclass(frozen=True)
class ConvSpec:
    filters: int
    kernel_size: int


@dataclass(frozen=True)
class PoolSpec:
    window: int = 2
    stride: int = 2


@dataclass(frozen=True)
class BatchNormSpec:
    momentum: float = 0.9
    eps: float = 1e-5


@dataclass(frozen=True)
class LSTMSpec:
    units: int
    return_sequences: bool


@dataclass(frozen=True)
class DenseSpec:
    units: int


@dataclass(frozen=True)
class ActivationSpec:
    kind: str


@dataclass(frozen=True)
class FlattenSpec:
    pass


_SPEC_TYPES = {
    "conv": ConvSpec,
    "pool": PoolSpec,
    "batchnorm": BatchNormSpec,
    "lstm": LSTMSpec,
    "dense": DenseSpec,
    "activation": ActivationSpec,
    "flatten": FlattenSpec,
}
_TYPE_NAMES = {cls: name for name, cls in _SPEC_TYPES.items()}

# the layers each stage's spec ends in: a one-unit sigmoid detector and a
# softmax over the classes
STAGE_HEADS = {
    1: (DenseSpec(1), ActivationSpec("sigmoid")),
    2: (ActivationSpec("softmax"),),
}


@dataclass
class ModelSpec:
    stage: int
    vocab_size: int
    embedding_dim: int
    input_length: int
    layers: tuple = field(default_factory=tuple)

    def to_dict(self) -> dict:
        out = {
            "stage": self.stage,
            "vocab_size": self.vocab_size,
            "embedding_dim": self.embedding_dim,
            "input_length": self.input_length,
            "layers": [],
        }
        for spec in self.layers:
            entry = {"type": _TYPE_NAMES[type(spec)]}
            entry.update(vars(spec))
            out["layers"].append(entry)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ModelSpec":
        layers = []
        for entry in data["layers"]:
            kwargs = dict(entry)
            kind = kwargs.pop("type")
            layers.append(_SPEC_TYPES[kind](**kwargs))
        return cls(
            stage=data["stage"],
            vocab_size=data["vocab_size"],
            embedding_dim=data["embedding_dim"],
            input_length=data["input_length"],
            layers=tuple(layers),
        )


def stage1_spec(vocab_size: int) -> ModelSpec:
    """Binary detector: a CNN whose one sigmoid output is the probability
    that the sample is vulnerable."""
    return ModelSpec(
        stage=1,
        vocab_size=vocab_size,
        embedding_dim=STAGE1_EMBEDDING_DIM,
        input_length=STAGE1_INPUT_LENGTH,
        layers=(
            ConvSpec(256, 7), ActivationSpec("relu"), PoolSpec(2, 2),
            ConvSpec(128, 7), ActivationSpec("relu"), PoolSpec(2, 2),
            FlattenSpec(),
            DenseSpec(64), ActivationSpec("relu"),
            DenseSpec(16), ActivationSpec("relu"),
            *STAGE_HEADS[1],
        ),
    )


def stage2_spec(vocab_size: int, num_classes: int) -> ModelSpec:
    """Multiclass classifier: a CNN-LSTM whose softmax output is a
    distribution over the num_classes weakness classes."""
    return ModelSpec(
        stage=2,
        vocab_size=vocab_size,
        embedding_dim=STAGE2_EMBEDDING_DIM,
        input_length=STAGE2_INPUT_LENGTH,
        layers=(
            ConvSpec(64, 3), ActivationSpec("relu"), BatchNormSpec(), PoolSpec(2, 2),
            ConvSpec(128, 3), ActivationSpec("relu"), BatchNormSpec(), PoolSpec(2, 2),
            LSTMSpec(100, return_sequences=True),
            LSTMSpec(10, return_sequences=False),
            DenseSpec(100), ActivationSpec("relu"),
            DenseSpec(num_classes), *STAGE_HEADS[2],
        ),
    )


class Model:
    """An ordered layer stack materialized from a ModelSpec.

    layers own the tensors; stack is what forward and backward run: fold,
    the EmbeddingConv1D of the first two layers if _assemble built one, then
    the layers, less each fused block's relu and pool (_fuse_blocks).
    prefix is (index, length, stride, field): the first Flatten or LSTM is
    layers[index] and reads a sequence of that length, and the layers before
    it have that total stride and receptive field.  in_strides maps each
    Conv1D among them to its input stride s; each forward sets its tails to
    the rows' tail starts in ids over s, rounded up (the fold reads none),
    and an eval forward runs the prefix on the live columns only.
    """

    def __init__(self, spec: ModelSpec, layers: list[Layer], output_width: int,
                 fold: EmbeddingConv1D | None, prefix: tuple[int, int, int, int],
                 in_strides: dict):
        self.spec = spec
        self.layers = layers
        self.output_width = output_width
        self.fold = fold
        self.stack = _fuse_blocks(layers if fold is None else [fold, *layers[2:]])
        self.prefix = prefix
        # each stack entry before the prefix's end: its input stride, or 0
        # where it reads no tails
        self._strides = [in_strides.get(layer, 0)
                         for layer in self.stack[:self.stack.index(layers[prefix[0]])]]
        self.forward_calls = 0
        self.eval_samples = 0
        self._cached_training_forward = False

    def forward(self, ids: np.ndarray, training: bool = False) -> np.ndarray:
        ids = np.asarray(ids)
        if ids.ndim != 2 or ids.shape[1] != self.spec.input_length:
            raise ShapeMismatchError(
                f"expected a (B, {self.spec.input_length}) id batch, got {ids.shape}"
            )
        if training and not ids.shape[0]:
            raise BatchTooSmallError("a training forward needs at least one row")
        self.forward_calls += 1
        self.eval_samples += ids.shape[0]
        self._cached_training_forward = False
        # per row, one past its last non-PAD id, read from the ids since two
        # live vectors can be equal
        nonpad = ids[:, ::-1] != PAD_ID
        tails = np.where(nonpad.any(axis=1), ids.shape[1] - nonpad.argmax(axis=1), 0)
        _, length, stride, field = self.prefix
        n = ids.shape[1]
        if not training:  # the columns that reach the last first-tail output
            n = min(-(-int(tails.max(initial=0)) // stride) * stride + field, n)
        h = ids[:, :n]
        for layer, s in zip(self.stack, self._strides):
            if s:
                layer.tails = -(-tails // s)
            h = layer.forward(h, training=training)
        if h.shape[1] < length:
            # every position from the last one on saw PAD ids alone
            h = np.pad(h, ((0, 0), (0, length - h.shape[1]), (0, 0)), mode="edge")
        for layer in self.stack[len(self._strides):]:
            h = layer.forward(h, training=training)
        self._cached_training_forward = training
        return h

    def backward(self, upstream: np.ndarray) -> None:
        if not self._cached_training_forward:
            raise PipelineError(
                "backward needs a training forward: the last forward must pass training=True"
            )
        # each layer drops its cache as it reads it, so a second backward
        # needs a second training forward
        self._cached_training_forward = False
        for layer in reversed(self.stack):
            upstream = layer.backward(upstream)

    def params(self) -> list[np.ndarray]:
        return [arr for layer in self.layers for _, arr in layer.params()]

    def grads(self) -> list[np.ndarray]:
        return [arr for layer in self.layers for _, arr in layer.grads()]

    def named_tensors(self) -> list[tuple[str, np.ndarray]]:
        """All persistent arrays (trainable plus running statistics) in
        declared layer order, with layer-indexed names."""
        out = []
        for i, layer in enumerate(self.layers):
            for name, arr in layer.tensors():
                out.append((f"layer{i}.{name}", arr))
        return out

    def param_count(self) -> int:
        return sum(arr.size for arr in self.params())


def _fuse_blocks(layers: list[Layer]) -> list[Layer]:
    """The layers with each Conv1D -> relu -> MaxPool1D(2, 2) run as its
    Conv1D alone, relu_pool set, whatever its filter count: the returned
    list drops the block's relu and pool."""
    fused = set()
    for conv, act, pool in zip(layers, layers[1:], layers[2:]):
        if (isinstance(conv, Conv1D)
                and isinstance(act, Activation) and act.kind == "relu"
                and isinstance(pool, MaxPool1D) and pool.window == pool.stride == 2):
            conv.relu_pool = True
            fused.update((id(act), id(pool)))
    return [layer for layer in layers if id(layer) not in fused]


def build_model(spec: ModelSpec, seed: int = 0) -> Model:
    """Allocate and initialize every layer, checking shape compatibility.

    The same seed always produces bitwise-identical initial parameters.
    """
    return _assemble(spec, np.random.default_rng(seed))


# the fields of each layer descriptor that size it
_SIZES = {ConvSpec: ("filters", "kernel_size"), PoolSpec: ("window", "stride"),
          LSTMSpec: ("units",), DenseSpec: ("units",)}


def _check_sizes(spec: ModelSpec) -> None:
    """Every size in the spec must be a positive integer, a batchnorm's eps a
    finite number > 0 and its momentum a number in [0, 1]."""
    sizes = [(name, getattr(spec, name))
             for name in ("vocab_size", "embedding_dim", "input_length")]
    for i, ls in enumerate(spec.layers):
        where = f"layer {i} ({_TYPE_NAMES[type(ls)]})"
        sizes += [(f"{where} {name}", getattr(ls, name))
                  for name in _SIZES.get(type(ls), ())]
        if isinstance(ls, BatchNormSpec):  # a NaN eps makes every output NaN
            for name, ok, what in (("eps", lambda v: 0 < v < math.inf, "finite and > 0"),
                                   ("momentum", lambda v: 0 <= v <= 1, "in [0, 1]")):
                value = getattr(ls, name)
                if type(value) not in (int, float) or not ok(value):
                    raise SpecCorruptError(f"model spec is malformed: {where} {name} "
                                           f"{value!r} is not a number {what}")
    for name, value in sizes:
        if type(value) is not int or value < 1:
            raise SpecCorruptError(
                f"model spec is malformed: {name} {value!r} is not a positive integer")


def _assemble(spec: ModelSpec, rng: np.random.Generator | None) -> Model:
    """Walk the spec's shapes and allocate its layers.  Parameters are drawn
    from rng in layer order, once every size is checked; with no rng the
    randomly initialized ones are left uninitialized, for a caller that
    fills every tensor."""
    _check_sizes(spec)
    layers: list[Layer] = [Embedding(spec.vocab_size, spec.embedding_dim, rng)]
    fold = prefix = None
    # shape state after the embedding: a (length, channels) sequence
    seq: tuple[int, int] | None = (spec.input_length, spec.embedding_dim)
    flat: int | None = None
    prev_name = "embedding"
    # the layers so far as one affine map of positions: total stride and
    # receptive field; and each Conv1D's input stride
    stride = field = 1
    in_strides: dict[Layer, int] = {}

    def fail(i, layer_spec, why):
        raise IncompatibleSpecError(
            f"layer {i} ({_TYPE_NAMES[type(layer_spec)]}) after {prev_name}: {why}"
        )

    for i, ls in enumerate(spec.layers):
        if isinstance(ls, ConvSpec):
            if seq is None:
                fail(i, ls, "convolution needs sequence input, got flat features")
            length, channels = seq
            if length < ls.kernel_size:
                fail(i, ls, f"sequence length {length} < kernel size {ls.kernel_size}")
            layers.append(Conv1D(channels, ls.filters, ls.kernel_size, rng))
            in_strides[layers[-1]] = stride
            if i == 0 and spec.embedding_dim > GATHER_COST:  # see layers.GATHER_COST
                fold = EmbeddingConv1D(layers[0], layers[1])
            field += (ls.kernel_size - 1) * stride
            seq = (length - ls.kernel_size + 1, ls.filters)
        elif isinstance(ls, PoolSpec):
            if seq is None:
                fail(i, ls, "pooling needs sequence input, got flat features")
            length, channels = seq
            if length < ls.window:
                fail(i, ls, f"sequence length {length} < pool window {ls.window}")
            layers.append(MaxPool1D(ls.window, ls.stride))
            field += (ls.window - 1) * stride
            stride *= ls.stride
            seq = ((length - ls.window) // ls.stride + 1, channels)
        elif isinstance(ls, BatchNormSpec):
            features = seq[1] if seq is not None else flat
            layers.append(BatchNorm1D(features, momentum=ls.momentum, eps=ls.eps))
        elif isinstance(ls, LSTMSpec):
            if seq is None:
                fail(i, ls, "lstm needs sequence input, got flat features")
            length, channels = seq
            prefix = prefix or (len(layers), length, stride, field)
            layers.append(LSTM(channels, ls.units, rng,
                               return_sequences=ls.return_sequences))
            if ls.return_sequences:
                seq = (length, ls.units)
            else:
                seq, flat = None, ls.units
        elif isinstance(ls, FlattenSpec):
            if seq is None:
                fail(i, ls, "flatten needs sequence input, got flat features")
            length, channels = seq
            prefix = prefix or (len(layers), length, stride, field)
            layers.append(Flatten())
            seq, flat = None, length * channels
        elif isinstance(ls, DenseSpec):
            if flat is None:
                fail(i, ls, "dense needs flat input; flatten or reduce the sequence first")
            layers.append(Dense(flat, ls.units, rng))
            flat = ls.units
        elif isinstance(ls, ActivationSpec):
            layers.append(Activation(ls.kind))
        else:
            fail(i, ls, "unknown layer descriptor")
        prev_name = _TYPE_NAMES[type(ls)]

    if flat is None:
        raise IncompatibleSpecError(
            "network never reduces to flat features; it cannot feed a classifier head"
        )
    return Model(spec, layers, output_width=flat, fold=fold, prefix=prefix,
                 in_strides=in_strides)


class Verdict(Enum):
    NON_VULNERABLE = "non_vulnerable"
    VULNERABLE = "vulnerable"


@dataclass
class Prediction:
    stage1_probability: float
    verdict: Verdict
    class_distribution: np.ndarray | None = None
    predicted_cwe: str | None = None


def predict_batched(model: Model, ids: np.ndarray) -> np.ndarray:
    """Forward a whole dataset in eval mode, in slices of EVAL_BATCH rows to
    bound memory."""
    outputs = [np.zeros((0, model.output_width))]
    for start in range(0, ids.shape[0], EVAL_BATCH):
        outputs.append(model.forward(ids[start:start + EVAL_BATCH], training=False))
    return np.concatenate(outputs, axis=0)


def predict_two_stage_encoded(
    stage1: Model,
    stage2: Model,
    label_map: LabelMap,
    ids: np.ndarray,
    threshold: float = 0.5,
) -> list[Prediction]:
    """Cascade decisions for an (N, L1) matrix of stage-1 ids, one per row.

    Stage 1 scores every row; stage 2 then runs once, on the rows whose
    detector probability reaches the threshold (a probability exactly at the
    threshold counts as vulnerable), reading the first L2 ids of each row.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie strictly between 0 and 1")
    ids = np.asarray(ids)
    length2 = stage2.spec.input_length
    if length2 > ids.shape[-1]:
        raise IncompatibleSpecError(
            f"stage 2 reads {length2} ids, stage-1 rows hold {ids.shape[-1]}")
    probs = predict_batched(stage1, ids)[:, 0]
    preds = [Prediction(float(p), Verdict.NON_VULNERABLE) for p in probs]
    pos = np.flatnonzero(probs >= threshold)
    # no positives: predict_batched makes no forward call
    dists = predict_batched(stage2, ids[pos, :length2])
    for i, dist in zip(pos, dists):
        preds[i] = Prediction(
            preds[i].stage1_probability, Verdict.VULNERABLE,
            class_distribution=dist,
            predicted_cwe=label_map.cwe_of(int(np.argmax(dist))))
    return preds


def predict_two_stage(
    stage1: Model,
    stage2: Model,
    vocab: Vocabulary,
    label_map: LabelMap,
    source: str,
    threshold: float = 0.5,
    preserve: frozenset[str] = frozenset(),
) -> Prediction:
    """Normalize raw source, encode it at the stage-1 length, and cascade."""
    tokens = normalize_source(source, preserve=preserve)
    ids = encode(tokens, vocab, stage1.spec.input_length)
    return predict_two_stage_encoded(stage1, stage2, label_map, ids[None, :],
                                     threshold)[0]
