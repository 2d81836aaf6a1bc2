import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from debris_ews import InputError, block_bootstrap_ci, bootstrap, metrics
from debris_ews._common import derived_rng
from debris_ews.bootstrap import write_ci_json


def _groups(rng, n_windows=20, hours=48, prevalence=0.2):
    groups = []
    for _ in range(n_windows):
        scores = rng.random(hours)
        labels = (rng.random(hours) < prevalence).astype(int)
        groups.append((scores, labels))
    return groups


def test_deterministic_given_seed():
    rng = np.random.default_rng(0)
    groups = _groups(rng)
    a = block_bootstrap_ci(groups, "auprc", replicates=200, seed=5)
    b = block_bootstrap_ci(groups, "auprc", replicates=200, seed=5)
    assert a == b
    c = block_bootstrap_ci(groups, "auprc", replicates=200, seed=6)
    assert (a.lower, a.upper) != (c.lower, c.upper)


def test_zero_width_for_constant_statistic(monkeypatch):
    monkeypatch.setattr(bootstrap, "counts_area", lambda kind, counts: 0.42)
    groups = [(np.array([0.9, 0.1, 0.8, 0.2]), np.array([1, 0, 1, 0]))]
    ci = block_bootstrap_ci(groups, "auprc", replicates=50, seed=1)
    assert ci.lower == ci.upper == 0.42


def test_rotation_invariance_zero_width():
    # block length = window length: every replicate is a rotation, and AUPRC
    # over the pooled multiset is rotation-invariant
    rng = np.random.default_rng(2)
    scores = rng.random(36)
    labels = (rng.random(36) < 0.4).astype(int)
    ci = block_bootstrap_ci([(scores, labels)], "auprc", block_hours=36, replicates=300, seed=3)
    assert ci.upper - ci.lower == 0.0
    assert ci.point == pytest.approx(ci.lower)


def test_point_inside_percentile_interval():
    rng = np.random.default_rng(3)
    groups = _groups(rng, n_windows=40, hours=60)
    ci = block_bootstrap_ci(groups, "auprc", replicates=500, seed=4)
    assert ci.lower <= ci.point <= ci.upper
    assert ci.statistic == "auprc" and ci.replicates == 500


def test_degenerate_replicates_skipped_and_counted():
    # one tiny all-negative-prone window: some replicates have no positives
    rng = np.random.default_rng(4)
    scores = rng.random(12)
    labels = np.zeros(12, dtype=int)
    labels[0] = 1
    ci = block_bootstrap_ci([(scores, labels)], "auprc", block_hours=6, replicates=300, seed=5)
    assert ci.skipped_replicates > 0
    assert any("degenerate" in w for w in ci.warnings)


def test_low_replicates_flagged():
    rng = np.random.default_rng(5)
    ci = block_bootstrap_ci(_groups(rng, 5), "auprc", replicates=50, seed=6)
    assert any("replicates" in w for w in ci.warnings)


def test_input_validation():
    with pytest.raises(InputError):
        block_bootstrap_ci([], "auprc")
    with pytest.raises(InputError):
        block_bootstrap_ci([(np.ones(3), np.ones(2))])
    with pytest.raises(InputError):
        block_bootstrap_ci([(np.ones(3), np.ones(3))], stat="median")
    with pytest.raises(InputError):
        block_bootstrap_ci([(np.ones(3), np.array([1, 0, 1]))], block_hours=0)


def test_blocks_preserve_within_window_pairs():
    # the replicate index maps each window's hours back into that same window,
    # in circular runs of block_hours, and every window keeps its length
    block = 6
    lengths = np.array([24, 3, 25, 1, 26, 6, 27, 28])
    base = np.cumsum(lengths) - lengths
    window = np.repeat(np.arange(lengths.size), lengths)
    sampler = bootstrap._CircularIndex(lengths, block)
    for r in range(20):
        idx = sampler.draw(derived_rng(7, 3, r))
        assert idx.shape == window.shape
        assert (window[idx] == window).all()  # so each window also keeps its length
        for b, n in zip(base, lengths):
            hours = idx[b : b + n] - b
            for run in np.split(hours, np.arange(block, n, block)):
                assert (np.diff(run) % n == 1 % n).all()


def test_ci_json(tmp_path):
    rng = np.random.default_rng(7)
    ci = block_bootstrap_ci(_groups(rng, 6), "auroc", replicates=120, seed=8)
    write_ci_json(tmp_path / "ci.json", ci)
    import json

    doc = json.loads((tmp_path / "ci.json").read_text())
    assert doc["statistic"] == "auroc"
    assert doc["method"].startswith("percentile")


class _ReferenceSample:
    """Windows stacked by common length: per replicate, one draw and one gather
    per distinct window length, then the pooled hours in that stacking order."""

    def __init__(self, groups, block):
        self.block = block
        by_len = {}
        for i, (s, _) in enumerate(groups):
            by_len.setdefault(s.size, []).append(i)
        self.chunks = [
            (n, np.stack([groups[i][0] for i in idx]), np.stack([groups[i][1] for i in idx]))
            for n, idx in sorted(by_len.items())
        ]

    def replicate(self, rng):
        parts_s, parts_y = [], []
        for n, S, Y in self.chunks:
            n_blocks = -(-n // self.block)
            starts = rng.integers(0, n, size=(S.shape[0], n_blocks))
            idx = ((starts[:, :, None] + np.arange(self.block)[None, None, :]) % n).reshape(S.shape[0], -1)[:, :n]
            parts_s.append(np.take_along_axis(S, idx, axis=1).reshape(-1))
            parts_y.append(np.take_along_axis(Y, idx, axis=1).reshape(-1))
        return np.concatenate(parts_s), np.concatenate(parts_y)


def _reference_ci(groups, stat, block_hours, replicates, seed, level=0.95):
    """The interval resampled hour by hour and scored by metrics.auprc/auroc."""
    stat_fn = {"auprc": metrics.auprc, "auroc": metrics.auroc}[stat]
    prepared = [(np.asarray(s, dtype=np.float64), np.asarray(y).astype(np.int8)) for s, y in groups]
    point = stat_fn(np.concatenate([s for s, _ in prepared]), np.concatenate([y for _, y in prepared]))
    sampler = _ReferenceSample(prepared, block_hours)
    stats = []
    for r in range(replicates):
        rs, ry = sampler.replicate(derived_rng(seed, 3, r))
        if ry.min() != ry.max():
            stats.append(stat_fn(rs, ry))
    skipped = replicates - len(stats)
    warnings = [f"only {replicates} replicates; interval endpoints are coarse"] if replicates < 100 else []
    if skipped:
        warnings.append(f"skipped {skipped} degenerate replicate(s)")
    lower, upper = np.quantile(stats, [(1 - level) / 2, 1 - (1 - level) / 2])
    return float(point), float(lower), float(upper), skipped, tuple(warnings)


def _case(rng, lengths, prevalence=0.3, decimals=None, tied=False):
    groups = []
    for n in lengths:
        scores = np.full(n, 0.5) if tied else rng.random(n)
        if decimals is not None:
            scores = np.round(scores, decimals)
        groups.append((scores, (rng.random(n) < prevalence).astype(int)))
    return groups


_CASES = {
    "mixed lengths": dict(lengths=[24, 7, 31, 24, 12, 7, 48, 31, 24], block=6),
    "shorter than the block": dict(lengths=[2, 5, 3, 5, 4, 12], block=6),
    "length-1 windows": dict(lengths=[1, 9, 1, 14, 1, 9], block=4),
    "block of one hour": dict(lengths=[10, 17, 10, 23], block=1),
    "block covers every window": dict(lengths=[8, 15, 11, 15, 3], block=15),
    "scores all tied": dict(lengths=[12, 20, 12, 9], block=6, tied=True),
    "ties across windows": dict(lengths=[30, 18, 30, 25, 18], block=5, decimals=1),
    "single-class replicates": dict(lengths=[4, 9, 4, 9, 6], block=3, prevalence=0.06),
}


@pytest.mark.parametrize("stat", ["auprc", "auroc"])
@pytest.mark.parametrize("name", sorted(_CASES))
def test_matches_per_replicate_reference(name, stat):
    case = dict(_CASES[name])
    block = case.pop("block")
    skipped = 0
    for seed in range(4):
        groups = _case(np.random.default_rng(seed), **case)
        ci = block_bootstrap_ci(groups, stat, block_hours=block, replicates=60, seed=seed)
        want = _reference_ci(groups, stat, block, 60, seed)
        assert (ci.point, ci.lower, ci.upper, ci.skipped_replicates, ci.warnings) == want
        skipped += ci.skipped_replicates
    assert skipped > 0 if name == "single-class replicates" else True


def test_non_finite_scores_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        scores = np.array([0.2, bad, 0.7])
        with pytest.raises(InputError, match="finite"):
            block_bootstrap_ci([(np.array([0.1, 0.9]), np.array([0, 1])), (scores, np.array([1, 0, 1]))])


def test_replicates_above_the_cap_rejected():
    groups = [(np.array([0.1, 0.9]), np.array([0, 1]))]
    with pytest.raises(InputError, match=r"^replicates must be in \[1, 10000000\], got 10000001$"):
        block_bootstrap_ci(groups, replicates=bootstrap.MAX_REPLICATES + 1)


def test_block_longer_than_every_window_pads_by_the_window():
    # a block reaches at most once round its window, so each window is padded by
    # fewer than its own length, whatever the block length
    groups = _case(np.random.default_rng(9), [24, 7, 31, 24, 12, 1])
    longest = block_bootstrap_ci(groups, "auprc", block_hours=31, replicates=50, seed=2)
    tracemalloc.start()
    try:
        huge = block_bootstrap_ci(groups, "auprc", block_hours=10**12, replicates=50, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert replace(huge, block_hours=31) == longest
    assert peak < 200_000
