"""Confusion-matrix metrics.

Per-class precision, recall and F1 come with a zero-denominator flag rather
than a silently substituted value; macro-F1 averages the per-class F1s and
micro-F1 is computed honestly from summed true/false positive and negative
counts.  For a single-label classifier that makes micro-F1 equal accuracy,
which doubles as a self-check.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import EmptyMatrixError, IdOutOfRangeError, ShapeMismatchError


def confusion(preds: np.ndarray, labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Count matrix with true classes on rows and predictions on columns."""
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.shape != labels.shape or preds.ndim != 1:
        raise ShapeMismatchError(
            f"preds {preds.shape} and labels {labels.shape} must be equal-length vectors"
        )
    for name, arr in (("preds", preds), ("labels", labels)):
        if arr.size and (arr.min() < 0 or arr.max() >= num_classes):
            raise IdOutOfRangeError(
                f"{name} contain a class outside [0, {num_classes})"
            )
    matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(matrix, (labels, preds), 1)
    return matrix


@dataclass
class ClassScore:
    precision: float
    recall: float
    f1: float
    undefined: bool


@dataclass
class Scores:
    accuracy: float
    macro_f1: float
    micro_f1: float
    per_class: list[ClassScore]

    def as_dict(self) -> dict:
        return asdict(self)

    def format_table(self, class_names: list[str] | None = None) -> str:
        lines = [f"{'class':<12} {'precision':>9} {'recall':>9} {'f1':>9}"]
        for i, s in enumerate(self.per_class):
            name = class_names[i] if class_names else str(i)
            mark = " *" if s.undefined else ""
            lines.append(
                f"{name:<12} {s.precision:>9.4f} {s.recall:>9.4f} {s.f1:>9.4f}{mark}"
            )
        lines.append(f"accuracy {self.accuracy:.4f}  macro-f1 {self.macro_f1:.4f}"
                     f"  micro-f1 {self.micro_f1:.4f}")
        if any(s.undefined for s in self.per_class):
            lines.append("* precision or recall had an empty denominator")
        return "\n".join(lines)


def scores(matrix: np.ndarray) -> Scores:
    matrix = np.asarray(matrix, dtype=np.int64)
    total = int(matrix.sum())
    if total == 0:
        raise EmptyMatrixError("confusion matrix holds no observations")

    tp = np.diag(matrix).astype(np.float64)
    pred_totals = matrix.sum(axis=0).astype(np.float64)
    true_totals = matrix.sum(axis=1).astype(np.float64)
    fp = pred_totals - tp
    fn = true_totals - tp

    per_class: list[ClassScore] = []
    for c in range(matrix.shape[0]):
        undefined = pred_totals[c] == 0 or true_totals[c] == 0
        precision = tp[c] / pred_totals[c] if pred_totals[c] > 0 else 0.0
        recall = tp[c] / true_totals[c] if true_totals[c] > 0 else 0.0
        # 2TP / (2TP + FP + FN) agrees with the harmonic mean of precision
        # and recall wherever that is defined, stays exact on integer-valued
        # counts, and degrades to 0 when the class never scores a hit
        denom = 2 * tp[c] + fp[c] + fn[c]
        f1 = 2 * tp[c] / denom if denom > 0 else 0.0
        per_class.append(ClassScore(float(precision), float(recall), float(f1),
                                    bool(undefined)))

    accuracy = float(tp.sum() / total)
    macro_f1 = float(np.mean([s.f1 for s in per_class]))
    tp_sum, fp_sum, fn_sum = tp.sum(), fp.sum(), fn.sum()
    micro_denom = 2 * tp_sum + fp_sum + fn_sum
    micro_f1 = 2 * tp_sum / micro_denom if micro_denom > 0 else 0.0
    return Scores(accuracy, macro_f1, float(micro_f1), per_class)
