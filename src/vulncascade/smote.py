"""Synthetic minority oversampling over encoded id vectors.

Fixed-length token-id sequences are treated as points in Euclidean space.  A
synthetic sample interpolates a randomly chosen instance toward one of its k
nearest same-class neighbors, then rounds each coordinate to the nearest
integer and clamps it into the valid id range so the result stays a legal
model input.  Classes too small for neighbor interpolation fall back to plain
duplication with a warning.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import NotEnoughPointsError, ShapeMismatchError


# neighbors per point: the one k of train --stage 2 and smote-report
SMOTE_K = 5


@dataclass
class SmoteConfig:
    k: int = SMOTE_K
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass
class SynthRecord:
    """Lineage of one synthetic vector, before rounding."""

    label: int
    parent_a: int
    parent_b: int
    lam: float
    raw: np.ndarray


def nearest_neighbor_indices(points: np.ndarray, query_index: int, k: int) -> np.ndarray:
    """Indices of the k nearest rows to points[query_index], excluding itself.

    Euclidean distance; ties broken by input order.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if n - 1 < k:
        raise NotEnoughPointsError(f"need more than {k} points, have {n}")
    diff = points - points[query_index]
    dist = np.einsum("ij,ij->i", diff, diff)
    dist[query_index] = np.inf
    order = np.argsort(dist, kind="stable")
    return order[:k]


def synthesize(a: np.ndarray, b: np.ndarray, lam: float) -> np.ndarray:
    """Convex combination a + lam * (b - a), lam in [0, 1]."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"vector shapes differ: {a.shape} vs {b.shape}")
    return a + lam * (b - a)


def group_by_class(ids: np.ndarray, labels: np.ndarray) -> dict[int, np.ndarray]:
    """The rows of ids keyed by their label, as float64 points for oversample."""
    return {int(label): ids[labels == label].astype(np.float64)
            for label in np.unique(labels)}


def oversample(
    by_class: Mapping[int, np.ndarray],
    config: SmoteConfig,
    vocab_size: int,
    trace: list[SynthRecord] | None = None,
) -> dict[int, np.ndarray]:
    """Grow every class to the size of the largest with synthetic samples.

    Originals are preserved unmodified and come first in each class's output.
    Classes are processed in sorted label order and all randomness comes from
    the seeded generator, so identical (input, config) reproduce identical
    output byte for byte.
    """
    if not by_class:
        return {}
    target = max(np.asarray(x).shape[0] for x in by_class.values())
    rng = np.random.default_rng(config.seed)
    out: dict[int, np.ndarray] = {}
    for label in sorted(by_class):
        x = np.asarray(by_class[label])
        n = x.shape[0]
        need = target - n
        if need == 0:
            out[label] = x.copy()
            continue
        synthetic = np.empty((need, x.shape[1]), dtype=x.dtype)
        if n > config.k:
            points = x.astype(np.float64)
            neighbors = np.stack(
                [nearest_neighbor_indices(points, i, config.k) for i in range(n)]
            )
            for s in range(need):
                i = int(rng.integers(n))
                j = int(neighbors[i][rng.integers(config.k)])
                lam = float(rng.uniform())
                raw = synthesize(points[i], points[j], lam)
                if trace is not None:
                    trace.append(SynthRecord(label, i, j, lam, raw.copy()))
                synthetic[s] = np.clip(np.rint(raw), 0, vocab_size - 1).astype(x.dtype)
        else:
            warnings.warn(
                f"class {label} has only {n} samples (k={config.k}); "
                "oversampling by duplication instead of interpolation",
                stacklevel=2,
            )
            picks = rng.integers(n, size=need)
            synthetic[:] = x[picks]
        out[label] = np.concatenate([x, synthetic], axis=0)
    return out


def class_histogram(by_class: Mapping[int, np.ndarray]) -> dict[int, int]:
    return {label: int(np.asarray(x).shape[0]) for label, x in sorted(by_class.items())}
