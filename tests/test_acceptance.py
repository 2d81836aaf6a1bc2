"""Acceptance gate: one test per criterion, each printing a PASS line with the
measured numbers. Run with `pytest tests/test_acceptance.py -v -s`.

The pipeline criteria drive the real CLI on the default seed-42 synthetic
corpus (about 600 windows); the oracle criteria check the numerical cores
against independent brute-force implementations written here.
"""
import json
import time

import numpy as np
import pytest

import debris_ews as d
from debris_ews._common import derived_rng
from debris_ews.cli import main, read_scores_csv
from debris_ews.linear import sigmoid
from debris_ews.modelio import model_to_doc

from conftest import random_rain, series
from oracles import brute_shap, ear_trace, tree_shap


def _announce(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 1: EAR against a direct-summation oracle
# ---------------------------------------------------------------------------


def _ear_oracle(s, event, alpha, mode):
    ante = 0.0
    for i in range(1, 8):
        if mode is d.DailyWindowMode.ROLLING_24H:
            lo, hi = event.start_idx - 24 * i, event.start_idx - 24 * (i - 1)
        else:
            day0 = event.start_idx - (s.start.hour + event.start_idx) % 24
            lo, hi = day0 - 24 * i, day0 - 24 * (i - 1)
        ante += alpha**i * sum(s.values[t] for t in range(max(lo, 0), max(hi, 0)))
    out = []
    run = 0.0
    for t in range(event.start_idx, event.end_idx + 1):
        run += s.values[t]
        out.append(run + ante)
    return ante, out


def test_criterion_01_ear_oracle():
    start = time.time()
    # worked example: 10 mm the previous day, a 20 mm event hour -> 27 mm
    values = np.zeros(49)
    values[30] = 10.0
    values[48] = 20.0
    s = series(values)
    tr = ear_trace(s, d.MainEvent(48, 48))
    assert abs(tr.ear[0] - 27.0) <= 1e-9

    rng = np.random.default_rng(101)
    checked = 0
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(12, 500))
        s = series(random_rain(rng, n), start=series([0]).start.replace(hour=int(rng.integers(0, 24))))
        alpha = float(rng.choice([0.0, 0.5, 0.7, 0.9]))
        mode = d.DailyWindowMode.ROLLING_24H if trial % 2 else d.DailyWindowMode.CALENDAR_DAY
        for ev in d.segment_events(s):
            tr = ear_trace(s, ev, alpha, mode)
            ante, expected = _ear_oracle(s, ev, alpha, mode)
            worst = max(worst, abs(tr.antecedent_mm - ante), float(np.abs(tr.ear - expected).max()))
            checked += 1
    elapsed = time.time() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    _announce(1, ok, f"{checked} event traces over 200 series, max |err| {worst:.2e}, {elapsed:.1f}s (< 5s)")


# ---------------------------------------------------------------------------
# criterion 2: segmentation properties on 1000 random series
# ---------------------------------------------------------------------------


def test_criterion_02_segmentation_properties():
    start = time.time()
    rng = np.random.default_rng(202)
    n_events = 0
    for _ in range(1000):
        n = int(rng.integers(1, 400))
        s = series(random_rain(rng, n, wet_prob=float(rng.uniform(0.05, 0.6))))
        events = d.segment_events(s)
        assert events == d.segment_events(s), "segmentation must be deterministic"
        prev_end = None
        for ev in events:
            assert s.values[ev.start_idx] > 4.0 and s.values[ev.end_idx] > 4.0
            assert not (s.values[ev.end_idx + 1 : ev.end_idx + 7] > 4.0).any()
            if prev_end is not None:
                assert ev.start_idx > prev_end, "events must be disjoint and sorted"
                assert ev.start_idx - prev_end > 6, "quiet gap between events"
            prev_end = ev.end_idx
        n_events += len(events)
    elapsed = time.time() - start
    ok = elapsed < 10.0
    _announce(2, ok, f"1000 series, {n_events} events, all invariants held, {elapsed:.1f}s (< 10s)")


# ---------------------------------------------------------------------------
# criterion 3: metric identities and curve oracles on 500 random sets
# ---------------------------------------------------------------------------


def _mann_whitney(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        wins += (p > neg).sum() + 0.5 * (p == neg).sum()
    return wins / (pos.size * neg.size)


def _enumerated_points(scores, labels, kind):
    pts = []
    for thr in sorted(set(scores.tolist()), reverse=True):
        pred = scores >= thr
        tp = int(((labels == 1) & pred).sum())
        fp = int(((labels == 0) & pred).sum())
        fn = int(((labels == 1) & ~pred).sum())
        tn = int(((labels == 0) & ~pred).sum())
        pts.append((fp / (fp + tn), tp / (tp + fn)) if kind == "ROC" else (tp / (tp + fn), tp / (tp + fp)))
    return pts


def test_criterion_03_metrics_oracle():
    start = time.time()
    rng = np.random.default_rng(303)
    worst_auroc = 0.0
    for trial in range(500):
        n = int(rng.integers(4, 120))
        scores = np.round(rng.random(n), 2) if trial % 3 == 0 else rng.random(n)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        worst_auroc = max(worst_auroc, abs(d.auroc(scores, labels) - _mann_whitney(scores, labels)))
        for kind, fn in (("ROC", d.roc_curve), ("PR", d.pr_curve)):
            c = fn(scores, labels)
            got = list(zip(c.x.tolist(), c.y.tolist()))
            if kind == "ROC":
                got = got[1:]  # drop the (0,0) anchor at threshold +inf
            want = _enumerated_points(scores, labels, kind)
            assert len(got) == len(want)
            assert all(abs(a - x) < 1e-12 and abs(b - y) < 1e-12 for (a, b), (x, y) in zip(got, want))
        c = d.ConfusionCounts(*(int(v) for v in rng.integers(0, 40, size=4)))
        m = d.point_metrics(c)
        if m.recall is not None:
            assert abs(m.fnr - (1.0 - m.recall)) < 1e-15
        if m.precision is not None:
            assert abs(m.fdr - (1.0 - m.precision)) < 1e-15
        if m.fpr is not None:
            assert abs(m.specificity - (1.0 - m.fpr)) < 1e-15
    elapsed = time.time() - start
    ok = worst_auroc <= 1e-12 and elapsed < 30.0
    _announce(3, ok, f"500 sets: AUROC==Mann-Whitney (max diff {worst_auroc:.1e}), "
                     f"curves match enumeration, identities held, {elapsed:.1f}s (< 30s)")


# ---------------------------------------------------------------------------
# criterion 4: no-skill calibration at n = 50,000
# ---------------------------------------------------------------------------


def test_criterion_04_no_skill_calibration():
    start = time.time()
    rng = np.random.default_rng(404)
    n = 50_000
    scores = rng.random(n)
    labels = (rng.random(n) < 0.06).astype(int)
    prevalence = labels.mean()
    got_auroc = d.auroc(scores, labels)
    got_auprc = d.auprc(scores, labels)
    elapsed = time.time() - start
    ok = abs(got_auroc - 0.5) <= 0.02 and abs(got_auprc - prevalence) <= 0.02 and elapsed < 10.0
    _announce(4, ok, f"AUROC {got_auroc:.4f} (0.5 +- 0.02), AUPRC {got_auprc:.4f} "
                     f"(prevalence {prevalence:.4f} +- 0.02), {elapsed:.1f}s (< 10s)")


# ---------------------------------------------------------------------------
# criterion 5: SHAP exactness and local accuracy
# ---------------------------------------------------------------------------


def test_criterion_05_shap_exactness():
    start = time.time()
    rng = np.random.default_rng(505)
    worst = 0.0
    for trial in range(100):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(16, 64))
        X = rng.normal(size=(n, m))
        y = (X @ rng.normal(size=m) + 0.4 * rng.normal(size=n) > 0).astype(int)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        model = d.fit_forest(
            X, y,
            d.ForestParams(n_trees=int(rng.integers(1, 6)), max_depth=int(rng.integers(1, 6))),
            seed=trial,
        )
        Z = X[: int(rng.integers(1, 65))]
        x = X[int(rng.integers(0, n))]
        fast = tree_shap(model, x, Z)
        slow = brute_shap(model, x, Z)
        worst = max(worst, float(np.abs(fast.values - slow.values).max()), abs(fast.base - slow.base))

    # local accuracy on every explained row of a compact synthetic test split
    corpus = d.generate_corpus(d.SynthConfig(stations=8, weeks_per_station=12, seed=5))
    windows = d.build_corpus_windows(corpus.series, corpus.debris_events)
    train_w, test_w = d.split_windows(windows, 0.15, seed=5)
    spec = d.FeatureSpec(hourly_hours=6)
    train = d.build_examples(train_w, spec)
    test = d.build_examples(test_w, spec)
    model = d.fit_forest(train.X, train.y, d.ForestParams(n_trees=10, max_depth=6), seed=5)
    background = d.subsample_background(train.X, max_rows=32, seed=5)
    values, base = d.tree_shap_batch(model, test.X, background)
    local_err = float(np.abs(values.sum(axis=1) + base - model.predict_proba(test.X)).max())
    elapsed = time.time() - start
    ok = worst <= 1e-9 and local_err <= 1e-9 and elapsed < 120.0
    _announce(5, ok, f"100 forests vs brute force (max diff {worst:.1e}); local accuracy on "
                     f"{len(test)} test rows (max err {local_err:.1e}), {elapsed:.1f}s (< 120s)")


# ---------------------------------------------------------------------------
# criterion 6: determinism and invariances on 50 random datasets
# ---------------------------------------------------------------------------


def test_criterion_06_model_determinism_and_invariances():
    start = time.time()
    rng = np.random.default_rng(606)
    for trial in range(50):
        n, m = int(rng.integers(40, 120)), int(rng.integers(2, 6))
        X = rng.normal(size=(n, m))
        y = (X[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(int)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        params = d.ForestParams(n_trees=3, max_depth=5, min_samples_leaf=2)
        a = d.fit_forest(X, y, params, seed=trial)
        b = d.fit_forest(X, y, params, seed=trial)
        assert json.dumps(model_to_doc(a), sort_keys=True) == json.dumps(model_to_doc(b), sort_keys=True)

        w = rng.uniform(0.5, 2.0, size=n)
        c = float(2.0 ** rng.integers(-2, 6))
        t1 = d.fit_tree(X, y, sample_weight=w, params=d.TreeParams(max_depth=5))
        t2 = d.fit_tree(X, y, sample_weight=c * w, params=d.TreeParams(max_depth=5))
        np.testing.assert_array_equal(t1.feature, t2.feature)
        np.testing.assert_array_equal(t1.threshold, t2.threshold)
        np.testing.assert_allclose(t1.value, t2.value, rtol=1e-12)

        X_test = rng.normal(size=(30, m))
        col = int(rng.integers(0, m))
        Xs, Xts = X.copy(), X_test.copy()
        Xs[:, col] *= c
        Xts[:, col] *= c
        f1 = d.fit_tree(X, y, params=d.TreeParams(max_depth=5))
        f2 = d.fit_tree(Xs, y, params=d.TreeParams(max_depth=5))
        np.testing.assert_array_equal(f1.predict_value(X_test), f2.predict_value(Xts))
    elapsed = time.time() - start
    ok = elapsed < 60.0
    _announce(6, ok, f"50 datasets: bit-identical reserialization, weight-scale and "
                     f"feature-scale invariance, {elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# pipeline fixture: the CLI chain on the default seed-42 corpus
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def pipeline42(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus42")
    paths = {
        "corpus": root / "corpus",
        "data": root / "data",
        "model": root / "model",
        "eval": root / "eval_rf",
        "base": root / "eval_baselines",
        "cap": root / "capture",
        "op_rf": root / "op_rf",
        "op_etm": root / "op_etm",
        "op_hm": root / "op_hm",
    }
    timings = {}

    def run(stage, argv):
        t0 = time.time()
        assert main(argv) == 0, f"stage {stage} failed"
        timings[stage] = time.time() - t0

    run("synth", ["synth", "--seed", "42", "--out", str(paths["corpus"])])
    run("build", [
        "build-dataset",
        "--rainfall", str(paths["corpus"] / "rainfall.csv"),
        "--events", str(paths["corpus"] / "debris_events.csv"),
        "--out", str(paths["data"]), "--seed", "42",
    ])
    run("train", [
        "train",
        "--rainfall", str(paths["corpus"] / "rainfall.csv"),
        "--manifest", str(paths["data"] / "manifest.json"),
        "--out", str(paths["model"]), "--seed", "42", "--hours", "48",
    ])
    run("eval", [
        "eval",
        "--model", str(paths["model"] / "model.json"),
        "--rainfall", str(paths["corpus"] / "rainfall.csv"),
        "--manifest", str(paths["data"] / "manifest.json"),
        "--out", str(paths["eval"]), "--split", "test",
    ])
    run("baselines", [
        "sweep-baselines",
        "--rainfall", str(paths["corpus"] / "rainfall.csv"),
        "--manifest", str(paths["data"] / "manifest.json"),
        "--thresholds", str(paths["corpus"] / "thresholds.csv"),
        "--out", str(paths["base"]), "--split", "test",
    ])
    run("capture", [
        "event-capture",
        "--scores", str(paths["eval"] / "scores.csv"),
        "--rainfall", str(paths["corpus"] / "rainfall.csv"),
        "--manifest", str(paths["data"] / "manifest.json"),
        "--out", str(paths["cap"]),
    ])
    for name, scores in (("op_rf", paths["eval"] / "scores.csv"),
                         ("op_etm", paths["base"] / "etm_scores.csv"),
                         ("op_hm", paths["base"] / "hm_scores.csv")):
        run(name, ["operating-points", "--scores", str(scores), "--out", str(paths[name])])
    paths["timings"] = timings
    return paths


def test_criterion_07_rf_beats_baselines(pipeline42):
    metrics = json.loads((pipeline42["eval"] / "metrics.json").read_text())
    base = json.loads((pipeline42["base"] / "baselines.json").read_text())
    manifest = json.loads((pipeline42["data"] / "manifest.json").read_text())
    n_windows = len(manifest["windows"])
    rf, etm, hm = metrics["auprc"], base["etm"]["auprc"], base["hm"]["auprc"]
    t = pipeline42["timings"]
    core = t["synth"] + t["build"] + t["train"] + t["eval"] + t["baselines"]
    ok = (
        450 <= n_windows <= 750
        and rf >= hm + 0.05
        and rf >= etm + 0.05
        and core < 300.0
    )
    _announce(7, ok, f"corpus {n_windows} windows; RF AUPRC {rf:.3f} vs ETM {etm:.3f} / HM {hm:.3f} "
                     f"(margins {rf - etm:+.3f}, {rf - hm:+.3f}, need >= 0.05); {core:.0f}s (< 300s)")


@pytest.mark.slow
def test_criterion_08_cv_score_trend():
    start = time.time()
    corpus = d.generate_corpus(d.SynthConfig(stations=24, weeks_per_station=24, seed=7))
    windows = d.build_corpus_windows(corpus.series, corpus.debris_events)
    cell = {"n_trees": 20, "max_depth": 15, "min_samples_leaf": 2}
    means, ses = [], []
    for H in (6, 12, 24, 48):
        res = d.grid_search_cv(windows, d.FeatureSpec(hourly_hours=H), [cell], model_kind="rf", k=10, seed=11)
        folds = np.asarray(res.cells[0].fold_auprc)
        means.append(folds.mean())
        ses.append(folds.std(ddof=1) / np.sqrt(folds.size))
    ok = True
    for i in range(len(means) - 1):
        pooled_se = float(np.hypot(ses[i], ses[i + 1]))
        if means[i + 1] < means[i] - pooled_se:
            ok = False
    elapsed = time.time() - start
    ok = ok and elapsed < 600.0
    trend = ", ".join(f"H={h}: {m:.3f}+-{s:.3f}" for h, m, s in zip((6, 12, 24, 48), means, ses))
    _announce(8, ok, f"10-fold CV non-decreasing within one pooled SE [{trend}], {elapsed:.0f}s (< 600s)")


@pytest.mark.slow
def test_criterion_09_bootstrap_ci():
    start = time.time()
    # determinism
    rng = np.random.default_rng(909)
    groups = [(rng.random(48), (rng.random(48) < 0.3).astype(int)) for _ in range(10)]
    a = d.block_bootstrap_ci(groups, "auprc", replicates=300, seed=4)
    b = d.block_bootstrap_ci(groups, "auprc", replicates=300, seed=4)
    assert a == b, "same seed must give the identical interval"
    # rotation-invariant degenerate case: block length = window length
    s0 = rng.random(36)
    y0 = (rng.random(36) < 0.4).astype(int)
    rot = d.block_bootstrap_ci([(s0, y0)], "auprc", block_hours=36, replicates=300, seed=6)
    assert rot.upper == rot.lower, "rotation replicates must give a zero-width interval"

    # Monte Carlo coverage on a known-statistic design: scores and labels share
    # a per-6h-block latent, so 6 h blocks match the true dependence length
    def make_windows(rng, n_windows):
        groups = []
        for _ in range(n_windows):
            z = np.repeat(rng.normal(size=10), 6)
            scores = sigmoid(z + 0.6 * rng.normal(size=60))
            labels = (rng.random(60) < sigmoid(1.8 * z - 1.0)).astype(int)
            groups.append((scores, labels))
        return groups

    pop = make_windows(np.random.default_rng(7777), 8000)
    truth = d.auprc(np.concatenate([s for s, _ in pop]), np.concatenate([y for _, y in pop]))
    hits = 0
    for t in range(100):
        trial = make_windows(derived_rng(9999, t), 150)
        ci = d.block_bootstrap_ci(trial, "auprc", block_hours=6, replicates=1000, seed=1000 + t)
        hits += int(ci.lower <= truth <= ci.upper)
    elapsed = time.time() - start
    ok = hits >= 85 and elapsed < 300.0
    _announce(9, ok, f"determinism + zero-width rotation held; coverage {hits}/100 "
                     f"(need >= 85) around AUPRC {truth:.3f}, {elapsed:.0f}s (< 300s)")


def test_criterion_10_event_capture_monotone(pipeline42):
    rows = (pipeline42["cap"] / "event_capture.csv").read_text().splitlines()[1:]
    taus = [float(r.split(",")[0]) for r in rows]
    captured = [int(r.split(",")[1]) for r in rows]
    scores = read_scores_csv(pipeline42["eval"] / "scores.csv")
    manifest = json.loads((pipeline42["data"] / "manifest.json").read_text())
    test_pos = [w for w in manifest["windows"] if w["split"] == "test" and w["kind"] == "positive"]
    max_score = max(float(s.max()) for _, _, _, s in scores)
    ok = (
        len(rows) == 101
        and taus[0] == 0.0
        and taus[-1] == 1.0
        and all(a >= b for a, b in zip(captured, captured[1:]))
        and captured[0] == len(test_pos)
        and (max_score >= 1.0 or captured[-1] == 0)
    )
    _announce(10, ok, f"capture non-increasing over 101 thresholds; captured(0) = {captured[0]} "
                      f"= all {len(test_pos)} test flows; captured(1) = {captured[-1]} (max score {max_score:.3f})")


def test_criterion_11_operating_point_tables(pipeline42):
    total = sum(pipeline42["timings"].values())
    tables = {}
    for name in ("op_rf", "op_etm", "op_hm"):
        path = pipeline42[name] / "operating_points.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == "metric,target,status,threshold,precision,recall,specificity"
        tables[name] = [line.split(",") for line in lines[1:]]
    hm_precision_rows = [r for r in tables["op_hm"] if r[0] == "precision"]
    hm_infeasible = [float(r[1]) for r in hm_precision_rows if r[2] == "infeasible"]
    rf_feasible = [r for r in tables["op_rf"] if r[2] == "ok"]
    ok = (
        len(tables["op_rf"]) == 18
        and len(hm_infeasible) > 0
        and len(rf_feasible) > 0
        and total < 600.0
    )
    _announce(11, ok, f"tables for RF/ETM/HM emitted; HM infeasible above precision "
                      f"{min(hm_infeasible, default=float('nan')):.2f}; pipeline total {total:.0f}s (< 600s)")
