"""Mini-batch Adam training loop shared by both stages.

The loss is picked from the model's output width: width 1 (the stage-1
sigmoid detector) trains against binary cross-entropy on 0/1 labels,
anything wider (the stage-2 softmax classifier) against categorical
cross-entropy on class indices.

Everything downstream of the seed is deterministic: the same config, data
and seed reproduce the epoch log bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError
from .losses import bce_loss, cce_loss
from .models import Model, predict_batched
from .optim import Adam
from .smote import SMOTE_K, SmoteConfig, group_by_class, oversample


@dataclass
class TrainConfig:
    batch_size: int = 64
    epochs: int = 10
    learning_rate: float = 0.005
    seed: int = 0
    smote: bool = False
    smote_k: int = SMOTE_K
    stop_at_accuracy: float | None = None

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.stop_at_accuracy is not None and not 0 < self.stop_at_accuracy <= 1:
            raise ValueError("stop_at_accuracy must lie in (0, 1]")


@dataclass
class EpochLog:
    epoch: int
    mean_loss: float
    accuracy: float


@dataclass
class TrainResult:
    epochs: list[EpochLog] = field(default_factory=list)
    stopped_early: bool = False


def _one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def accuracy_of(model: Model, ids: np.ndarray, labels: np.ndarray) -> float:
    probs = predict_batched(model, ids)
    if model.output_width == 1:
        hits = (probs[:, 0] >= 0.5).astype(np.int64) == labels
    else:
        hits = np.argmax(probs, axis=1) == labels
    return float(np.mean(hits))


def _apply_smote(
    ids: np.ndarray, labels: np.ndarray, config: TrainConfig, vocab_size: int
) -> tuple[np.ndarray, np.ndarray]:
    smote_cfg = SmoteConfig(k=config.smote_k, seed=config.seed)
    balanced = oversample(group_by_class(ids, labels), smote_cfg, vocab_size)
    out_ids, out_labels = [], []
    for label in sorted(balanced):
        out_ids.append(balanced[label])
        out_labels.append(np.full(balanced[label].shape[0], label, dtype=np.int64))
    return (
        np.concatenate(out_ids, axis=0).astype(ids.dtype),
        np.concatenate(out_labels, axis=0),
    )


def train(
    model: Model,
    ids: np.ndarray,
    labels: np.ndarray,
    config: TrainConfig,
    log: list[str] | None = None,
) -> TrainResult:
    """Train in place and return the per-epoch log.

    ids is an (N, inputLength) id matrix with N >= 1, labels an (N,) vector
    of 0/1 for a binary model or class indices otherwise; ValueError if they
    are not.
    Raises DivergenceError with the offending step index if the loss ever
    goes non-finite.
    """
    ids = np.asarray(ids)
    labels = np.asarray(labels, dtype=np.int64)
    binary = model.output_width == 1
    if not ids.shape[0]:
        raise ValueError("no rows to train on")
    if labels.shape != (ids.shape[0],):
        raise ValueError(f"labels must be ({ids.shape[0]},), one per row, got {labels.shape}")
    bound = 2 if binary else model.output_width
    if labels.size and (labels.min() < 0 or labels.max() >= bound):
        raise ValueError(f"labels must lie in [0, {bound})")

    if config.smote:
        ids, labels = _apply_smote(ids, labels, config, model.spec.vocab_size)

    if binary:
        targets = labels[:, None].astype(np.float64)
    else:
        targets = _one_hot(labels, model.output_width)

    optimizer = Adam(config.learning_rate)
    rng = np.random.default_rng(config.seed)
    result = TrainResult()
    n = ids.shape[0]
    step = 0
    # each backward writes into the same buffers, so one fetch serves every step
    params, grads = model.params(), model.grads()

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            probs = model.forward(ids[batch], training=True)
            if binary:
                loss, dprobs = bce_loss(targets[batch], probs)
            else:
                loss, dprobs = cce_loss(targets[batch], probs)
            if not np.isfinite(loss):
                raise DivergenceError(f"loss became non-finite at step {step}", step)
            losses.append(loss)
            model.backward(dprobs)
            optimizer.step(params, grads)
            step += 1

        acc = accuracy_of(model, ids, labels)
        entry = EpochLog(epoch, float(np.mean(losses)), acc)
        result.epochs.append(entry)
        if log is not None:
            log.append(
                f"epoch {entry.epoch}: loss {entry.mean_loss:.6f} acc {entry.accuracy:.4f}"
            )
        if config.stop_at_accuracy is not None and acc >= config.stop_at_accuracy:
            result.stopped_early = True
            break

    return result
