"""Binary classification metrics: balanced accuracy, macro precision/recall/F1,
and the 2x2 confusion matrix (absolute counts, rows = true class)."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Metrics:
    ba: float
    precision: float  # macro
    recall: float  # macro (== ba for binary labels)
    macro_f1: float
    per_class_recall: tuple
    per_class_precision: tuple
    confusion: np.ndarray  # (2, 2) int counts

    def as_dict(self) -> dict:
        return {
            "ba": self.ba,
            "precision": self.precision,
            "recall": self.recall,
            "macro_f1": self.macro_f1,
            "per_class_recall": list(self.per_class_recall),
            "per_class_precision": list(self.per_class_precision),
            "confusion": self.confusion.tolist(),
        }


def classification_metrics(pred_labels, true_labels) -> Metrics:
    """BA = mean per-class recall. Raises when a class is absent from the true
    labels (BA undefined); a class never predicted gets precision 0."""
    pred = np.asarray(pred_labels, dtype=np.int64)
    true = np.asarray(true_labels, dtype=np.int64)
    if len(pred) != len(true) or len(true) == 0:
        raise ValueError("prediction/label lengths must match and be non-empty")
    if not (set(np.unique(true)) <= {0, 1} and set(np.unique(pred)) <= {0, 1}):
        raise ValueError("labels must be binary (0/1)")

    confusion = np.zeros((2, 2), dtype=np.int64)
    for t, p in zip(true, pred):
        confusion[t, p] += 1
    return metrics_from_confusion(confusion)


def metrics_from_confusion(confusion: np.ndarray) -> Metrics:
    """Metrics of a 2x2 count matrix (rows = true class). Raises when a class
    has no support (BA undefined); a class never predicted gets precision 0."""
    recalls = []
    precisions = []
    f1s = []
    for c in (0, 1):
        support = confusion[c].sum()
        if support == 0:
            raise ValueError(f"class {c} absent from true labels; BA undefined")
        tp = confusion[c, c]
        predicted = confusion[:, c].sum()
        rec = tp / support
        prec = tp / predicted if predicted > 0 else 0.0
        recalls.append(float(rec))
        precisions.append(float(prec))
        f1s.append(float(2.0 * prec * rec / (prec + rec)) if (prec + rec) > 0 else 0.0)

    return Metrics(
        ba=float(np.mean(recalls)),
        precision=float(np.mean(precisions)),
        recall=float(np.mean(recalls)),
        macro_f1=float(np.mean(f1s)),
        per_class_recall=tuple(recalls),
        per_class_precision=tuple(precisions),
        confusion=confusion,
    )


def metrics_or_none(pred_labels, true_labels) -> Metrics | None:
    """None when BA is undefined for this label set (single-class or empty)."""
    try:
        return classification_metrics(pred_labels, true_labels)
    except ValueError:
        return None
