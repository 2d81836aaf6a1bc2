"""Point metrics, ROC/PR curves, areas, operating-point tables, and per-event
capture counts, all from arrays of scores and labels.

One counter serves every curve: the scores are rank-coded once (code = rank
of the score among the K distinct scores, highest first, + K * label) and one
`bincount` of the codes gives the cumulative false and true positives at each
distinct threshold; the counts are compacted to the thresholds some code
reaches before the cumulative sum. The bootstrap counts its resampled codes
the same way, and `counts_area` takes their area from the points' x and y
alone, the same floats `auc` gives on the whole curve.
Curves carry one point per distinct score threshold (descending) together with
the full confusion counts at that threshold, so operating-point tables report
specificity without re-scoring and `counts_at` reads the confusion counts of
any alert threshold off a curve. Areas are trapezoids over the achieved points,
whose x never decreases in curve order; no interpolation is added. Ratios with
a 0/0 denominator are reported as None, never NaN.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ._common import InputError, cell, write_csv


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise InputError("confusion counts must be non-negative")


@dataclass(frozen=True)
class PointMetrics:
    """Eq-style ratios; a None field means its denominator was 0."""

    precision: float | None
    recall: float | None
    specificity: float | None
    fpr: float | None
    fnr: float | None
    fdr: float | None
    false_omission_rate: float | None

    def as_dict(self) -> dict[str, float | None]:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "specificity": self.specificity,
            "FPR": self.fpr,
            "FNR": self.fnr,
            "FDR": self.fdr,
            "FOR": self.false_omission_rate,
        }


def _ratio(num: int, den: int) -> float | None:
    return num / den if den else None


def point_metrics(c: ConfusionCounts) -> PointMetrics:
    return PointMetrics(
        precision=_ratio(c.tp, c.tp + c.fp),
        recall=_ratio(c.tp, c.tp + c.fn),
        specificity=_ratio(c.tn, c.tn + c.fp),
        fpr=_ratio(c.fp, c.fp + c.tn),
        fnr=_ratio(c.fn, c.fn + c.tp),
        fdr=_ratio(c.fp, c.fp + c.tp),
        false_omission_rate=_ratio(c.fn, c.fn + c.tn),
    )


@dataclass(frozen=True)
class Curve:
    """Ordered (threshold, x, y) points plus per-point confusion counts."""

    kind: str  # "ROC" | "PR"
    thresholds: np.ndarray
    x: np.ndarray
    y: np.ndarray
    tp: np.ndarray
    fp: np.ndarray
    tn: np.ndarray
    fn: np.ndarray

    def __len__(self) -> int:
        return int(self.thresholds.size)


def rank_codes(scores: Sequence[float], labels: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The K distinct scores, descending, and each score's code k + K * label,
    where k ranks its score among them from the highest."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    if scores.shape != labels.shape or scores.ndim != 1 or scores.size == 0:
        raise InputError("scores and labels must be equal-length non-empty 1-D")
    if not np.isfinite(scores).all():
        raise InputError("scores must be finite")
    neg_thresholds, rank = np.unique(-scores, return_inverse=True)
    return -neg_thresholds, rank + neg_thresholds.size * labels


def threshold_counts(thresholds: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The thresholds some code reaches, descending, and the cumulative counts
    at each: row 0 the negatives (fp), row 1 the positives (tp) scored at or above it."""
    counts = np.bincount(codes, minlength=2 * thresholds.size).reshape(2, -1)
    seen = np.flatnonzero(counts[0] + counts[1] != 0)  # flatnonzero scans a bool mask faster
    counts = counts.take(seen, axis=1)  # unseen thresholds add 0 to both running sums
    return thresholds[seen], counts.cumsum(axis=1, out=counts)


def _points(kind: str, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (fp, tp) counts of the ROC or PR curve's points from the counts of
    threshold_counts, a ROC curve's anchored at (0, 0), and the points' x and y."""
    pos, neg = int(counts[1, -1]), int(counts[0, -1])  # the lowest threshold alerts on every hour
    if pos == 0 or neg == 0:
        raise InputError(f"{kind} needs at least one positive and one negative label")
    if kind == "ROC":  # anchored at (0,0); the lowest threshold ends at (1,1)
        counts = np.concatenate((np.zeros((2, 1), counts.dtype), counts), axis=1)
        fp, tp = counts
        return counts, fp / neg, tp / pos
    fp, tp = counts
    return counts, tp / pos, tp / (tp + fp)


def counts_curve(kind: str, thresholds: np.ndarray, counts: np.ndarray) -> Curve:
    """ROC or PR curve from the output of threshold_counts."""
    (fp, tp), x, y = _points(kind, counts)
    if kind == "ROC":
        thresholds = np.concatenate(([np.inf], thresholds))
    pos, neg = int(tp[-1]), int(fp[-1])
    return Curve(kind=kind, thresholds=thresholds, x=x, y=y, tp=tp, fp=fp, tn=neg - fp, fn=pos - tp)


def counts_area(kind: str, counts: np.ndarray) -> float:
    """auc of the ROC or PR curve of counts_curve, from the points' x and y alone."""
    _, x, y = _points(kind, counts)
    return _area(kind, x, y)


def roc_curve(scores: Sequence[float], labels: Sequence[int]) -> Curve:
    """ROC points at every distinct threshold, anchored at (0,0) and ending at (1,1)."""
    return counts_curve("ROC", *threshold_counts(*rank_codes(scores, labels)))


def pr_curve(scores: Sequence[float], labels: Sequence[int]) -> Curve:
    """Precision-recall points at every achieved threshold, descending."""
    return counts_curve("PR", *threshold_counts(*rank_codes(scores, labels)))


def counts_at(curve: Curve, threshold: float) -> ConfusionCounts:
    """Confusion counts of alerting on every score >= threshold."""
    i = int(np.count_nonzero(curve.thresholds >= threshold)) - 1  # the lowest threshold that alerts
    pos, neg = int(curve.tp[-1] + curve.fn[-1]), int(curve.fp[-1] + curve.tn[-1])
    if i < 0:
        return ConfusionCounts(0, 0, neg, pos)
    return ConfusionCounts(int(curve.tp[i]), int(curve.fp[i]), int(curve.tn[i]), int(curve.fn[i]))


def auc(curve: Curve) -> float:
    return _area(curve.kind, curve.x, curve.y)


def _area(kind: str, x: np.ndarray, y: np.ndarray) -> float:
    if kind == "PR" and x[0] > 0.0:
        # anchor at recall 0 with the precision of the highest-threshold point,
        # so a perfect scorer integrates to exactly 1
        x = np.concatenate(([0.0], x))
        y = np.concatenate(([y[0]], y))
    return float(np.trapezoid(y, x))


def auprc(scores: Sequence[float], labels: Sequence[int]) -> float:
    return auc(pr_curve(scores, labels))


def auroc(scores: Sequence[float], labels: Sequence[int]) -> float:
    return auc(roc_curve(scores, labels))


@dataclass(frozen=True)
class OperatingPoint:
    metric: str  # "recall" | "precision"
    target: float
    feasible: bool
    threshold: float | None = None
    precision: float | None = None
    recall: float | None = None
    specificity: float | None = None


def operating_points(
    curve: Curve,
    recall_targets: Sequence[float] = (),
    precision_targets: Sequence[float] = (),
) -> list[OperatingPoint]:
    """For each target, the threshold whose achieved metric is closest to the
    target without falling below it; infeasible targets are marked as such.

    Ties on the targeted metric are broken in favor of the better companion
    metric (precision for recall targets, recall for precision targets), then
    the higher threshold.
    """
    def ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:  # NaN stands for None
        return np.divide(num, den, out=np.full(num.shape, np.nan), where=den != 0)

    tp, fp, tn, fn = (np.asarray(c, dtype=np.int64) for c in (curve.tp, curve.fp, curve.tn, curve.fn))
    metrics = {"precision": ratio(tp, tp + fp), "recall": ratio(tp, tp + fn)}
    specificity = ratio(tn, tn + fp)

    def pick(target: float, metric: str) -> OperatingPoint:
        if not 0.0 < target <= 1.0:
            raise InputError(f"operating-point target must be in (0, 1], got {target}")
        val = metrics[metric]
        comp = np.nan_to_num(metrics["recall" if metric == "precision" else "precision"], nan=-1.0)
        best = np.flatnonzero(val >= target)  # NaN compares False
        if not best.size:
            return OperatingPoint(metric, target, feasible=False)
        best = best[val[best] == val[best].min()]  # nearest from above,
        best = best[comp[best] == comp[best].max()]  # then the better companion metric,
        i = best[np.argmax(curve.thresholds[best])]  # then the higher threshold
        m = (metrics["precision"][i], metrics["recall"][i], specificity[i])
        return OperatingPoint(metric, target, True, float(curve.thresholds[i]),
                              *(None if np.isnan(v) else float(v) for v in m))

    return [pick(t, "recall") for t in recall_targets] + [pick(t, "precision") for t in precision_targets]


@dataclass(frozen=True)
class CaptureRow:
    threshold: float
    captured: int
    missed: int


def event_capture(
    groups: Iterable[tuple[Sequence[float], Sequence[int]]], thresholds: Sequence[float] | None = None
) -> list[CaptureRow]:
    """Per-threshold counts of debris flows with at least one score at or above
    the threshold in their lead window. groups holds one (scores, labels) pair
    per window; the positive hours of a window are the lead window of its one
    flow, and a window without positives holds none."""
    thresholds = np.arange(101) / 100.0 if thresholds is None else np.asarray(thresholds, dtype=np.float64)
    peaks = []
    for scores, labels in groups:
        s, y = np.asarray(scores, dtype=np.float64), np.asarray(labels) == 1
        if s.shape != y.shape:
            raise InputError("scores and labels of a window differ in shape")
        if y.any():
            peaks.append(s[y].max())
    if not peaks:
        raise InputError("no debris flows to capture: no window has a positive label")
    captured = np.count_nonzero(np.asarray(peaks)[:, None] >= thresholds, axis=0).tolist()
    return [CaptureRow(float(t), c, len(peaks) - c) for t, c in zip(thresholds, captured)]


# ---------------------------------------------------------------------------
# file interfaces
# ---------------------------------------------------------------------------


def write_curve_csv(path: str | Path, curve: Curve) -> None:
    write_csv(path, ("kind", "threshold", "x", "y"), ([curve.kind] * len(curve), curve.thresholds, curve.x, curve.y))


def write_operating_points_csv(path: str | Path, points: Sequence[OperatingPoint]) -> None:
    columns = [[p.metric for p in points], [cell(p.target) for p in points],
               ["ok" if p.feasible else "infeasible" for p in points]]
    columns += [[cell(getattr(p, f)) for p in points] for f in ("threshold", "precision", "recall", "specificity")]
    write_csv(path, ("metric", "target", "status", "threshold", "precision", "recall", "specificity"), columns)


def write_capture_csv(path: str | Path, rows: Sequence[CaptureRow]) -> None:
    columns = [np.array([getattr(r, f) for r in rows]) for f in ("threshold", "captured", "missed")]
    write_csv(path, ("threshold", "captured", "missed"), columns)
