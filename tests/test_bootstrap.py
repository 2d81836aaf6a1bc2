import numpy as np
import pytest

from debris_ews import InputError, block_bootstrap_ci, bootstrap
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
    monkeypatch.setitem(bootstrap._STATS, "auprc", lambda s, y: 0.42)
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


def test_blocks_preserve_within_window_pairs(monkeypatch):
    # scores uniquely identify (window, hour); every resampled pair must exist
    # in the original window, and replicate lengths match the originals
    rng = np.random.default_rng(6)
    groups = []
    for w in range(5):
        hours = 24 + w  # mixed lengths exercise the grouped sampler
        scores = w * 1000.0 + np.arange(hours, dtype=float)
        labels = (rng.random(hours) < 0.5).astype(int)
        groups.append((scores, labels))
    seen = {}

    def probe(s, y):
        seen["scores"] = s.copy()
        seen["labels"] = y.copy()
        return 0.5

    monkeypatch.setitem(bootstrap._STATS, "auprc", probe)
    block_bootstrap_ci(groups, "auprc", block_hours=6, replicates=1, seed=7)
    s, y = seen["scores"], seen["labels"]
    assert s.size == sum(24 + w for w in range(5))
    valid = {(float(sc), int(lb)) for sc_arr, lb_arr in groups for sc, lb in zip(sc_arr, lb_arr)}
    assert all((float(a), int(b)) in valid for a, b in zip(s, y))


def test_ci_json(tmp_path):
    rng = np.random.default_rng(7)
    ci = block_bootstrap_ci(_groups(rng, 6), "auroc", replicates=120, seed=8)
    write_ci_json(tmp_path / "ci.json", ci)
    import json

    doc = json.loads((tmp_path / "ci.json").read_text())
    assert doc["statistic"] == "auroc"
    assert doc["method"].startswith("percentile")
