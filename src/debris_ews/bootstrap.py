"""Circular block bootstrap confidence intervals for score/label statistics.

Hours stay grouped by window: each replicate rebuilds every window from
wrap-around blocks of its own hour sequence (block length 6 by default, last
block truncated so the replicate keeps the window's length), then pools all
windows and evaluates the statistic. Intervals are percentile-based.
Replicates whose pooled labels are single-class are skipped and counted.

Replicate r draws its block starts from stream `derived_rng(seed, 3, r)` in
one call, in a fixed order: windows by ascending length, then in input order,
then block by block. The replicate is a flat circular index over the pooled
hours. The pooled scores are rank-coded once (`metrics.rank_codes`) and the
point and every replicate are counted by `metrics.threshold_counts`, the
counter behind `metrics.roc_curve` and `metrics.pr_curve`, so no replicate
sorts and the areas are the same floats that `metrics.auprc` and
`metrics.auroc` give on the resampled hours.
"""
from __future__ import annotations

import logging
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ._common import InputError, derived_rng, write_json
from .metrics import auc, counts_curve, rank_codes, threshold_counts

log = logging.getLogger(__name__)


def _area(kind: str) -> Callable[[np.ndarray, np.ndarray], float]:
    def area(thresholds: np.ndarray, counts: np.ndarray) -> float:
        return auc(counts_curve(kind, thresholds, counts))

    return area


# statistic of the output of metrics.threshold_counts
_STATS: dict[str, Callable[[np.ndarray, np.ndarray], float]] = {
    "auprc": _area("PR"),
    "auroc": _area("ROC"),
}


@dataclass(frozen=True)
class BootstrapCI:
    statistic: str
    point: float
    level: float
    lower: float
    upper: float
    block_hours: int
    replicates: int
    seed: int
    skipped_replicates: int = 0
    warnings: tuple[str, ...] = ()
    method: str = "percentile, circular blocks within windows"


class _CircularIndex:
    """Replicate index over the pooled hours of windows of the given lengths.

    The draw order (see the module docstring) decides which start each block
    gets, so it is part of what a seed reproduces.
    """

    def __init__(self, lengths: np.ndarray, block: int):
        order = np.argsort(lengths, kind="stable")
        blocks = -(-lengths // block)
        self.highs = np.repeat(lengths[order], blocks[order])
        first = np.empty_like(blocks)
        first[order] = np.cumsum(blocks[order]) - blocks[order]
        window = np.repeat(np.arange(lengths.size), lengths)
        base = np.cumsum(lengths) - lengths
        hour = np.arange(window.size) - base[window]
        # per pooled hour: its block's draw, its offset in the block, its window
        self.slot = first[window] + hour // block
        self.off = hour % block
        self.n = lengths[window]
        self.base = base[window]

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        hour = rng.integers(0, self.highs)[self.slot]
        hour += self.off
        np.subtract(hour, self.n, out=hour, where=hour >= self.n)  # hour < 2n: one subtraction wraps it
        hour += self.base
        return hour


def block_bootstrap_ci(
    groups: Sequence[tuple[np.ndarray, np.ndarray]],
    stat: str = "auprc",
    block_hours: int = 6,
    replicates: int = 10000,
    level: float = 0.95,
    seed: int = 0,
) -> BootstrapCI:
    """CI for stat(scores, labels) pooled over per-window (scores, labels) groups.

    Deterministic given seed; replicate r uses its own derived stream, so the
    result does not depend on evaluation order.
    """
    if not groups:
        raise InputError("no score groups for bootstrap")
    if block_hours < 1:
        raise InputError("block_hours must be >= 1")
    if replicates < 1:
        raise InputError("replicates must be >= 1")
    if not 0.0 < level < 1.0:
        raise InputError("level must be in (0, 1)")

    try:
        stat_fn, stat_name = _STATS[stat.lower()], stat.lower()
    except KeyError:
        raise InputError(f"unknown statistic {stat!r}; expected one of {sorted(_STATS)}") from None

    prepared = []
    for scores, labels in groups:
        s = np.asarray(scores, dtype=np.float64)
        y = np.asarray(labels).astype(bool)
        if s.shape != y.shape or s.ndim != 1 or s.size == 0:
            raise InputError("each group needs equal-length non-empty scores and labels")
        prepared.append((s, y))
    thresholds, codes = rank_codes(*map(np.concatenate, zip(*prepared)))  # pooled scores and labels

    warnings: list[str] = []
    if replicates < 100:
        warnings.append(f"only {replicates} replicates; interval endpoints are coarse")

    point = float(stat_fn(*threshold_counts(thresholds, codes)))
    sampler = _CircularIndex(np.array([s.size for s, _ in prepared]), block_hours)
    stats = np.empty(replicates)
    kept = 0
    for r in range(replicates):
        thr, counts = threshold_counts(thresholds, codes[sampler.draw(derived_rng(seed, 3, r))])
        if counts[:, -1].all():  # both classes drawn
            stats[kept] = stat_fn(thr, counts)
            kept += 1
    skipped = replicates - kept
    if kept == 0:
        raise InputError("every bootstrap replicate was degenerate (single-class labels)")
    if skipped:
        warnings.append(f"skipped {skipped} degenerate replicate(s)")

    alpha = (1.0 - level) / 2.0
    lower, upper = np.quantile(stats[:kept], [alpha, 1.0 - alpha])
    return BootstrapCI(
        statistic=stat_name,
        point=point,
        level=level,
        lower=float(lower),
        upper=float(upper),
        block_hours=block_hours,
        replicates=replicates,
        seed=seed,
        skipped_replicates=skipped,
        warnings=tuple(warnings),
    )


def write_ci_json(path: str | Path, ci: BootstrapCI) -> None:
    write_json(path, asdict(ci))
