"""Point metrics, ROC/PR curves, areas, operating-point tables, and per-event
capture counts.

One counter serves every curve: the scores are rank-coded once (code = rank
of the score among the K distinct scores, highest first, + K * label) and one
`bincount` of the codes gives the cumulative false and true positives at each
distinct threshold. The bootstrap counts its resampled codes the same way.
Curves carry one point per distinct score threshold (descending) together with
the full confusion counts at that threshold, so operating-point tables report
specificity without re-scoring and `counts_at` reads the confusion counts of
any alert threshold off a curve. Areas are trapezoids over the achieved points,
whose x never decreases in curve order; no interpolation is added. Ratios with
a 0/0 denominator are reported as None, never NaN.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._common import InputError, cell, write_csv
from .dataset import DatasetWindow, WindowKind

log = logging.getLogger(__name__)

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
    seen = np.flatnonzero(counts[0] + counts[1])
    return thresholds[seen], counts.cumsum(axis=1)[:, seen]


def counts_curve(kind: str, thresholds: np.ndarray, counts: np.ndarray) -> Curve:
    """ROC or PR curve from the output of threshold_counts."""
    fp, tp = counts
    pos, neg = int(tp[-1]), int(fp[-1])  # the lowest threshold alerts on every hour
    if pos == 0 or neg == 0:
        raise InputError(f"{kind} needs at least one positive and one negative label")
    if kind == "ROC":  # anchored at (0,0); the lowest threshold ends at (1,1)
        thresholds = np.concatenate(([np.inf], thresholds))
        tp = np.concatenate(([0], tp))
        fp = np.concatenate(([0], fp))
        x, y = fp / neg, tp / pos
    else:
        x, y = tp / pos, tp / (tp + fp)
    return Curve(kind=kind, thresholds=thresholds, x=x, y=y, tp=tp, fp=fp, tn=neg - fp, fn=pos - tp)


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
    x, y = curve.x, curve.y
    if curve.kind == "PR" and x[0] > 0.0:
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
    windows: Sequence[DatasetWindow],
    scores_by_window: Mapping[str, np.ndarray],
    thresholds: Sequence[float] | None = None,
    lead_hours: int = 12,
) -> list[CaptureRow]:
    """Per-threshold counts of debris flows with at least one alert-worthy score
    inside the lead window [flow - lead_hours, flow]."""
    if thresholds is None:
        thresholds = np.arange(101) / 100.0
    peaks = []
    for w in windows:
        if w.kind is not WindowKind.POSITIVE:
            continue
        try:
            s = np.asarray(scores_by_window[w.id], dtype=np.float64)
        except KeyError:
            raise InputError(f"no scores for positive window {w.id}") from None
        if s.size != len(w):
            raise InputError(f"scores for window {w.id} have wrong length")
        d = w.debris_flow_idx
        peaks.append(float(s[max(0, d - lead_hours) : d + 1].max()))
    peaks_arr = np.asarray(peaks)
    rows = []
    for t in thresholds:
        captured = int(np.count_nonzero(peaks_arr >= t))
        rows.append(CaptureRow(float(t), captured, len(peaks) - captured))
    return rows


# ---------------------------------------------------------------------------
# file interfaces
# ---------------------------------------------------------------------------


def write_curve_csv(path: str | Path, curve: Curve) -> None:
    rows = ((curve.kind, cell(t), cell(x), cell(y)) for t, x, y in zip(curve.thresholds, curve.x, curve.y))
    write_csv(path, ("kind", "threshold", "x", "y"), rows)


def write_operating_points_csv(path: str | Path, points: Iterable[OperatingPoint]) -> None:
    rows = (
        (p.metric, cell(p.target), "ok" if p.feasible else "infeasible",
         cell(p.threshold), cell(p.precision), cell(p.recall), cell(p.specificity))
        for p in points
    )
    write_csv(path, ("metric", "target", "status", "threshold", "precision", "recall", "specificity"), rows)


def write_capture_csv(path: str | Path, rows: Iterable[CaptureRow]) -> None:
    write_csv(path, ("threshold", "captured", "missed"), ((cell(r.threshold), r.captured, r.missed) for r in rows))
