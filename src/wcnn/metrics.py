"""Evaluation metrics: accuracy, multi-label precision/recall/F1, split aggregation.

Multi-label results are scored from two boolean [images, classes] matrices,
predicted and true label membership.  They come in two flavors: per-class
metrics (C-P, C-R, C-F1) average precision and recall over classes, overall
metrics (O-P, O-R, O-F1) pool true/false positive counts over all
predictions.  F1 is the harmonic mean of the corresponding precision and
recall, 0 when both vanish.

Convention (printed with every emission): the per-class average skips classes
that appear in neither the ground truth nor the predictions, where precision
and recall are undefined.
"""

from __future__ import annotations

import numpy as np

BUNDLE_KEYS = ("C-P", "C-R", "C-F1", "O-P", "O-R", "O-F1")

CLASS_AVERAGE_NOTE = (
    "per-class averages skip classes absent from both truth and predictions"
)


def accuracy(predictions, labels) -> float:
    """Percentage of exactly correct predictions."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError(f"length mismatch: {predictions.shape} vs {labels.shape}")
    if predictions.size == 0:
        raise ValueError("accuracy of an empty prediction list is undefined")
    return 100.0 * float((predictions == labels).sum()) / predictions.size


def _f1(p: float, r: float) -> float:
    return 0.0 if p + r == 0 else 2.0 * p * r / (p + r)


def multilabel_bundle(predicted, truth) -> dict[str, float]:
    """Per-class and overall precision/recall/F1, in percent, from two boolean
    [images, classes] label matrices."""
    predicted, truth = np.asarray(predicted, dtype=bool), np.asarray(truth, dtype=bool)
    if predicted.ndim != 2 or predicted.shape != truth.shape:
        raise ValueError(f"label matrices must share one [images, classes] shape, "
                         f"got {predicted.shape} and {truth.shape}")
    tp = (predicted & truth).sum(axis=0)
    fp = (predicted & ~truth).sum(axis=0)
    fn = (~predicted & truth).sum(axis=0)

    seen = (tp + fp + fn) > 0
    if seen.any():
        pred_counts = (tp + fp)[seen]
        true_counts = (tp + fn)[seen]
        prec = np.where(pred_counts > 0, tp[seen] / np.maximum(pred_counts, 1), 0.0)
        rec = np.where(true_counts > 0, tp[seen] / np.maximum(true_counts, 1), 0.0)
        cp, cr = 100.0 * prec.mean(), 100.0 * rec.mean()
    else:
        cp = cr = 0.0

    tp_all, fp_all, fn_all = int(tp.sum()), int(fp.sum()), int(fn.sum())
    op = 100.0 * tp_all / (tp_all + fp_all) if tp_all + fp_all else 0.0
    orec = 100.0 * tp_all / (tp_all + fn_all) if tp_all + fn_all else 0.0

    return {
        "C-P": cp, "C-R": cr, "C-F1": _f1(cp, cr),
        "O-P": op, "O-R": orec, "O-F1": _f1(op, orec),
    }


def bundle_to_tsv(bundle: dict[str, float]) -> str:
    header = "\t".join(BUNDLE_KEYS)
    row = "\t".join(f"{bundle[k]:.2f}" for k in BUNDLE_KEYS)
    return f"# {CLASS_AVERAGE_NOTE}\n{header}\n{row}\n"


def split_aggregate(values) -> tuple[float, float | None]:
    """Arithmetic mean and population standard deviation over splits.

    A single split has no spread; its deviation is reported as None.
    """
    values = [float(v) for v in values]
    if not values:
        raise ValueError("split_aggregate needs at least one value")
    mean = sum(values) / len(values)
    if len(values) == 1:
        return mean, None
    sd = float(np.sqrt(sum((v - mean) ** 2 for v in values) / len(values)))
    return mean, sd


def format_mean_sd(mean: float, sd: float | None) -> str:
    return f"{mean:.1f} ± n/a" if sd is None else f"{mean:.1f} ± {sd:.1f}"
