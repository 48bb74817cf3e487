"""How a head is scored. Binary classification metrics (balanced accuracy,
macro precision/recall/F1, the 2x2 confusion matrix with rows = true class)
and the one rule that applies them to the two heads: stress is scored on
every window, effort on mask=1 windows only, and a head whose true labels
hold a single class has no balanced accuracy (undefined)."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Metrics:
    ba: float
    precision: float  # macro
    recall: float  # macro (== ba for binary labels)
    macro_f1: float
    per_class_recall: tuple
    confusion: np.ndarray  # (2, 2) int counts


def _binary(labels) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be binary (0/1)")
    return labels


def classification_metrics(pred_labels, true_labels) -> Metrics:
    """BA = mean per-class recall. Raises when the lengths differ, a label is
    not 0/1 or a class is absent from the true labels (BA undefined); a class
    never predicted gets precision 0."""
    pred, true = _binary(pred_labels), _binary(true_labels)
    if len(pred) != len(true):
        raise ValueError("prediction/label lengths must match")
    return metrics_from_confusion(np.bincount(2 * true + pred, minlength=4).reshape(2, 2))


def metrics_from_confusion(confusion: np.ndarray) -> Metrics:
    """Metrics of a 2x2 count matrix (rows = true class). Raises when a class
    has no support (BA undefined); a class never predicted gets precision 0."""
    support = confusion.sum(axis=1)
    if not support.all():
        raise ValueError(f"class {int(np.argmin(support))} absent from true labels; BA undefined")
    tp, predicted = np.diag(confusion), confusion.sum(axis=0)
    recalls = tp / support
    precisions = np.divide(tp, predicted, out=np.zeros(2), where=predicted > 0)
    total = precisions + recalls
    f1s = np.divide(2.0 * precisions * recalls, total, out=np.zeros(2), where=total > 0)
    return Metrics(
        ba=float(recalls.mean()),
        precision=float(precisions.mean()),
        recall=float(recalls.mean()),
        macro_f1=float(f1s.mean()),
        per_class_recall=tuple(recalls.tolist()),
        confusion=confusion,
    )


def effort_scored(mask) -> np.ndarray:
    """The windows the effort head is scored on: those with mask 1."""
    return np.asarray(mask) > 0


def _heads(stress, effort, mask) -> dict:
    """Per head, the windows it is scored on and their true labels."""
    if not len(stress) == len(effort) == len(mask):
        raise ValueError("stress, effort and mask must have equal lengths")
    scored = effort_scored(mask)
    return {"stress": (slice(None), _binary(stress)), "effort": (scored, _binary(np.asarray(effort)[scored]))}


def _both_classes(true: np.ndarray) -> bool:
    return bool((true == 0).any() and (true == 1).any())


def head_metrics(u, o, stress, effort, mask) -> dict:
    """{"stress": Metrics | None, "effort": Metrics | None} of O and U
    thresholded at 0.5. None marks a head whose true labels hold a single
    class; labels other than 0/1 or columns of unequal length raise."""
    if not len(u) == len(o) == len(stress):
        raise ValueError("U, O and the labels must have equal lengths")
    outputs = {"stress": np.asarray(o), "effort": np.asarray(u)}
    return {head: classification_metrics(outputs[head][rows] >= 0.5, true) if _both_classes(true) else None
            for head, (rows, true) in _heads(stress, effort, mask).items()}


def some_head_defined(stress, effort, mask) -> bool:
    """Whether some head's true labels hold both classes, so that the joint
    BA of any outputs on these windows is defined."""
    return any(_both_classes(true) for _, true in _heads(stress, effort, mask).values())


def joint_ba(bas) -> float:
    """The mean of the defined heads' BAs (NaN marks an undefined head), or
    NaN when no head is defined."""
    defined = [b for b in bas if np.isfinite(b)]
    return float(np.mean(defined)) if defined else float("nan")
