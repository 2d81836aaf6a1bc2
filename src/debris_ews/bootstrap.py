"""Circular block bootstrap confidence intervals for score/label statistics.

Hours stay grouped by window: each replicate rebuilds every window from
wrap-around blocks of its own hour sequence (block length 6 by default, last
block truncated so the replicate keeps the window's length), then pools all
windows and evaluates the statistic. Intervals are percentile-based.
Replicates whose pooled labels are single-class are skipped and counted.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ._common import InputError, derived_rng
from .metrics import auprc, auroc

log = logging.getLogger(__name__)

_STATS: dict[str, Callable[[np.ndarray, np.ndarray], float]] = {
    "auprc": auprc,
    "auroc": auroc,
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

    def as_dict(self) -> dict[str, object]:
        return {
            "statistic": self.statistic,
            "point": self.point,
            "level": self.level,
            "lower": self.lower,
            "upper": self.upper,
            "block_hours": self.block_hours,
            "replicates": self.replicates,
            "seed": self.seed,
            "skipped_replicates": self.skipped_replicates,
            "warnings": list(self.warnings),
            "method": self.method,
        }


class _GroupedSample:
    """Windows stacked by common length so one replicate needs one RNG draw and
    one gather per distinct window length."""

    def __init__(self, groups: Sequence[tuple[np.ndarray, np.ndarray]], block: int):
        self.block = block
        by_len: dict[int, list[int]] = {}
        for i, (s, _) in enumerate(groups):
            by_len.setdefault(s.size, []).append(i)
        self.chunks = []
        for n in sorted(by_len):
            idx = by_len[n]
            self.chunks.append(
                (
                    n,
                    np.stack([groups[i][0] for i in idx]),
                    np.stack([groups[i][1] for i in idx]),
                )
            )

    def replicate(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        parts_s = []
        parts_y = []
        for n, S, Y in self.chunks:
            n_blocks = -(-n // self.block)
            starts = rng.integers(0, n, size=(S.shape[0], n_blocks))
            idx = ((starts[:, :, None] + np.arange(self.block)[None, None, :]) % n).reshape(S.shape[0], -1)[:, :n]
            parts_s.append(np.take_along_axis(S, idx, axis=1).reshape(-1))
            parts_y.append(np.take_along_axis(Y, idx, axis=1).reshape(-1))
        return np.concatenate(parts_s), np.concatenate(parts_y)


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
        y = np.asarray(labels).astype(np.int8)
        if s.shape != y.shape or s.ndim != 1 or s.size == 0:
            raise InputError("each group needs equal-length non-empty scores and labels")
        prepared.append((s, y))

    warnings: list[str] = []
    if replicates < 100:
        warnings.append(f"only {replicates} replicates; interval endpoints are coarse")

    pool_s = np.concatenate([s for s, _ in prepared])
    pool_y = np.concatenate([y for _, y in prepared])
    point = float(stat_fn(pool_s, pool_y))

    sampler = _GroupedSample(prepared, block_hours)
    stats = np.empty(replicates)
    skipped = 0
    kept = 0
    for r in range(replicates):
        rng = derived_rng(seed, 3, r)
        rs, ry = sampler.replicate(rng)
        if ry.min() == ry.max():
            skipped += 1
            continue
        try:
            stats[kept] = stat_fn(rs, ry)
        except (InputError, ValueError):
            skipped += 1
            continue
        kept += 1
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
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(ci.as_dict(), indent=2, sort_keys=True) + "\n")
