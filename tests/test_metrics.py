import numpy as np
import pytest

from debris_ews import (
    ConfusionCounts,
    DatasetWindow,
    InputError,
    LabelingConfig,
    WindowKind,
    auc,
    auprc,
    auroc,
    counts_at,
    event_capture,
    label_hours,
    operating_points,
    point_metrics,
    pr_curve,
    roc_curve,
)
from debris_ews.metrics import (
    Curve, OperatingPoint, counts_area, counts_curve, rank_codes, threshold_counts, write_capture_csv, write_curve_csv,
    write_operating_points_csv,
)

from conftest import series


# --- oracles ------------------------------------------------------------------


def mann_whitney_auroc(scores, labels):
    """Probability a random positive outscores a random negative, ties half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(bool)
    pos = scores[labels]
    neg = scores[~labels]
    wins = 0.0
    for p in pos:
        wins += (p > neg).sum() + 0.5 * (p == neg).sum()
    return wins / (pos.size * neg.size)


def enumerate_curve_points(scores, labels, kind):
    """Brute-force confusion at every distinct threshold, descending."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(int)
    points = []
    for thr in sorted(set(scores.tolist()), reverse=True):
        pred = scores >= thr
        tp = int(((labels == 1) & pred).sum())
        fp = int(((labels == 0) & pred).sum())
        fn = int(((labels == 1) & ~pred).sum())
        tn = int(((labels == 0) & ~pred).sum())
        if kind == "ROC":
            points.append((thr, fp / (fp + tn), tp / (tp + fn)))
        else:
            points.append((thr, tp / (tp + fn), tp / (tp + fp)))
    return points


# --- point metrics ---------------------------------------------------------------


def test_point_metrics_values():
    m = point_metrics(ConfusionCounts(tp=3, fp=1, tn=5, fn=1))
    assert m.precision == pytest.approx(0.75)
    assert m.recall == pytest.approx(0.75)
    assert m.specificity == pytest.approx(5 / 6)
    assert m.fdr == pytest.approx(0.25)
    assert m.false_omission_rate == pytest.approx(1 / 6)


def test_point_metrics_undefined_markers():
    m = point_metrics(ConfusionCounts(0, 0, 5, 0))
    assert m.recall is None and m.precision is None and m.fdr is None
    assert m.specificity == 1.0
    m2 = point_metrics(ConfusionCounts(0, 0, 0, 0))
    assert all(v is None for v in m2.as_dict().values())


def test_metric_identities_random():
    rng = np.random.default_rng(8)
    for _ in range(300):
        c = ConfusionCounts(*(int(x) for x in rng.integers(0, 30, size=4)))
        m = point_metrics(c)
        if m.recall is not None:
            assert m.fnr == pytest.approx(1.0 - m.recall)
        if m.precision is not None:
            assert m.fdr == pytest.approx(1.0 - m.precision)
        if m.fpr is not None:
            assert m.specificity == pytest.approx(1.0 - m.fpr)


# --- curves -----------------------------------------------------------------------


def test_roc_endpoints_and_perfect_separation():
    scores = [0.9, 0.8, 0.2, 0.1]
    labels = [1, 1, 0, 0]
    c = roc_curve(scores, labels)
    assert (c.x[0], c.y[0]) == (0.0, 0.0)
    assert (c.x[-1], c.y[-1]) == (1.0, 1.0)
    assert any(x == 0.0 and y == 1.0 for x, y in zip(c.x, c.y))
    assert auc(c) == pytest.approx(1.0)
    assert auprc(scores, labels) == pytest.approx(1.0)


def test_roc_requires_both_classes():
    with pytest.raises(InputError):
        roc_curve([0.4, 0.6], [1, 1])
    with pytest.raises(InputError):
        pr_curve([0.4, 0.6], [0, 0])


def test_pr_hand_case_matches_enumeration():
    scores = [0.9, 0.8, 0.7]
    labels = [1, 0, 1]
    c = pr_curve(scores, labels)
    expected = enumerate_curve_points(scores, labels, "PR")
    got = list(zip(c.thresholds.tolist(), c.x.tolist(), c.y.tolist()))
    assert got == [pytest.approx(p) for p in expected]


def test_three_point_trapezoid_by_hand():
    scores = [0.9, 0.8, 0.7]
    labels = [1, 0, 1]
    c = pr_curve(scores, labels)
    # points: thr .9 -> (0.5, 1.0); .8 -> (0.5, 0.5); .7 -> (1.0, 2/3)
    # anchored at (0, 1): 0.5*(1+1)/2 + 0 + 0.5*(0.5 + 2/3)/2
    assert auc(c) == pytest.approx(0.5 + 0.5 * (0.5 + 2 / 3) / 2.0)


def test_curves_match_enumeration_random():
    rng = np.random.default_rng(12)
    for trial in range(100):
        n = int(rng.integers(4, 120))
        scores = rng.choice([0.1, 0.25, 0.5, 0.75, 0.9], size=n) if trial % 2 else rng.random(n)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        for kind, fn in (("ROC", roc_curve), ("PR", pr_curve)):
            c = fn(scores, labels)
            expected = enumerate_curve_points(scores, labels, kind)
            pts = list(zip(c.thresholds.tolist(), c.x.tolist(), c.y.tolist()))
            if kind == "ROC":
                assert pts[0] == (np.inf, 0.0, 0.0)
                pts = pts[1:]
            assert len(pts) == len(expected)
            for got, want in zip(pts, expected):
                assert got == pytest.approx(want)


def test_auroc_equals_mann_whitney_random():
    rng = np.random.default_rng(21)
    for trial in range(100):
        n = int(rng.integers(4, 200))
        scores = np.round(rng.random(n), 2)  # force ties
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert auroc(scores, labels) == pytest.approx(mann_whitney_auroc(scores, labels), abs=1e-12)


@pytest.mark.parametrize("kind", ["ROC", "PR"])
def test_counts_area_is_the_auc_of_the_counts_curve(kind):
    """The area the bootstrap takes from x and y alone is the same float as auc of the whole curve."""
    rng = np.random.default_rng(7)
    for n in (2, 10, 500):
        scores = np.round(rng.random(n), 2)  # ties between scores
        labels = np.arange(n) % 2
        thresholds, counts = threshold_counts(*rank_codes(scores, labels))
        assert counts_area(kind, counts) == auc(counts_curve(kind, thresholds, counts))
    with pytest.raises(InputError, match=f"{kind} needs at least one positive"):
        counts_area(kind, threshold_counts(*rank_codes([0.1, 0.2], [0, 0]))[1])


def test_counts_at_matches_brute_force():
    rng = np.random.default_rng(31)
    for trial in range(60):
        n = int(rng.integers(2, 150))
        scores = rng.integers(0, int(rng.integers(1, 12)), size=n) / 4.0  # many ties
        labels = rng.random(n) < rng.uniform(0.05, 0.8)
        labels[:2] = [True, False]
        distinct = np.unique(scores)
        between = (distinct[:-1] + distinct[1:]) / 2.0
        probes = [*distinct, *between, distinct[0] - 1.0, distinct[-1] + 1.0, -np.inf, np.inf]
        for curve in (roc_curve(scores, labels), pr_curve(scores, labels)):
            for t in probes:
                pred = scores >= t
                want = ConfusionCounts(int((labels & pred).sum()), int((~labels & pred).sum()),
                                       int((~labels & ~pred).sum()), int((labels & ~pred).sum()))
                assert counts_at(curve, t) == want, (trial, curve.kind, t)


def test_roc_monotone_coordinates():
    rng = np.random.default_rng(23)
    scores = rng.random(500)
    labels = rng.integers(0, 2, size=500)
    c = roc_curve(scores, labels)
    assert (np.diff(c.x) >= 0).all()
    assert (np.diff(c.y) >= 0).all()


def test_no_skill_calibration():
    rng = np.random.default_rng(29)
    n = 50_000
    scores = rng.random(n)
    labels = (rng.random(n) < 0.07).astype(int)
    assert auroc(scores, labels) == pytest.approx(0.5, abs=0.02)
    assert auprc(scores, labels) == pytest.approx(labels.mean(), abs=0.02)


# --- operating points ---------------------------------------------------------------


def test_operating_point_recall_one_is_threshold_floor():
    scores = [0.9, 0.6, 0.4, 0.2]
    labels = [1, 0, 1, 0]
    c = pr_curve(scores, labels)
    (pt,) = operating_points(c, recall_targets=[1.0])
    assert pt.feasible and pt.recall == 1.0
    assert pt.threshold == pytest.approx(0.4)


def test_operating_point_infeasible_precision():
    # a scorer that ranks a negative on top cannot reach precision 0.9
    scores = [0.9, 0.8, 0.7, 0.1]
    labels = [0, 1, 0, 1]
    c = pr_curve(scores, labels)
    (pt,) = operating_points(c, precision_targets=[0.9])
    assert not pt.feasible and pt.threshold is None


def test_operating_point_closest_from_above():
    scores = [0.9, 0.8, 0.7, 0.6, 0.5]
    labels = [1, 1, 0, 1, 0]
    c = pr_curve(scores, labels)
    (pt,) = operating_points(c, recall_targets=[0.5])
    assert pt.feasible
    assert pt.recall == pytest.approx(2 / 3)  # smallest achieved recall >= 0.5
    (pt2,) = operating_points(c, precision_targets=[0.7])
    assert pt2.precision == pytest.approx(0.75)


def test_operating_point_rejects_bad_target():
    scores = [0.9, 0.1]
    labels = [1, 0]
    c = pr_curve(scores, labels)
    with pytest.raises(InputError):
        operating_points(c, recall_targets=[0.0])


# The per-point loop that the masked search replaced, kept as the reference:
# every point, threshold and metric must match, None included.


def _reference_operating_points(curve, recall_targets=(), precision_targets=()):
    pm = [point_metrics(ConfusionCounts(int(tp), int(fp), int(tn), int(fn)))
          for tp, fp, tn, fn in zip(curve.tp, curve.fp, curve.tn, curve.fn)]

    def pick(target, metric):
        if not 0.0 < target <= 1.0:
            raise InputError(f"operating-point target must be in (0, 1], got {target}")
        companion = "recall" if metric == "precision" else "precision"
        best = None
        for i, m in enumerate(pm):
            val = getattr(m, metric)
            if val is None or val < target:
                continue
            comp = getattr(m, companion)
            key = (val, -(comp if comp is not None else -1.0), -curve.thresholds[i])
            if best is None or key < best[0]:
                best = (key, i)
        if best is None:
            return OperatingPoint(metric, target, feasible=False)
        m = pm[best[1]]
        return OperatingPoint(metric, target, True, float(curve.thresholds[best[1]]), m.precision, m.recall,
                              m.specificity)

    return [pick(t, "recall") for t in recall_targets] + [pick(t, "precision") for t in precision_targets]


def _achieved(num, den):
    """The ratios a curve reaches, as targets that tie exactly with its points."""
    num, den = np.asarray(num), np.asarray(den)
    return sorted({n / d for n, d in zip(num.tolist(), den.tolist()) if d and 0 < n <= d})


def test_operating_points_match_reference():
    rng = np.random.default_rng(12)
    grid = [0.05, 0.1, 0.25, 1 / 3, 0.5, 2 / 3, 0.75, 0.9, 1.0]
    curves = [
        # recall None at every point (no positives), precision None at the first
        Curve("PR", np.array([np.inf, 0.5]), np.zeros(2), np.zeros(2), np.array([0, 0]), np.array([0, 2]),
              np.array([2, 0]), np.array([0, 0])),
        # two thresholds with the same counts: only the threshold breaks the tie
        Curve("PR", np.array([0.9, 0.8, 0.7]), np.zeros(3), np.zeros(3), np.array([1, 1, 2]), np.array([1, 1, 2]),
              np.array([3, 3, 2]), np.array([2, 2, 1])),
        # four points with equal recall, two of them with equal precision
        Curve("PR", np.array([0.9, 0.8, 0.7, 0.6, 0.5]), np.zeros(5), np.zeros(5), np.array([1, 2, 2, 4, 4]),
              np.array([1, 2, 3, 4, 6]), np.array([9, 8, 7, 6, 4]), np.array([3, 2, 2, 0, 0])),
    ]
    for _ in range(40):
        n = int(rng.integers(2, 300))
        scores = rng.integers(0, int(rng.integers(2, 40)), size=n) / 7.0  # many tied scores
        labels = rng.random(n) < rng.uniform(0.05, 0.6)
        labels[:2] = [True, False]
        curves += [pr_curve(scores, labels), roc_curve(scores, labels)]
    for curve in curves:
        recall = grid + _achieved(curve.tp, curve.tp + curve.fn)
        precision = grid + _achieved(curve.tp, curve.tp + curve.fp)
        got = operating_points(curve, recall, precision)
        assert list(map(repr, got)) == list(map(repr, _reference_operating_points(curve, recall, precision)))
    assert any(p.feasible for p in got) and not all(p.feasible for p in got)


# --- event capture --------------------------------------------------------------------


def _capture_fixture():
    windows = []
    scores = {}
    specs = [(100, 0.8), (50, 0.4), (150, 0.05)]
    for i, (flow, peak) in enumerate(specs):
        values = np.zeros(200)
        values[flow] = 9.0
        w = DatasetWindow(f"S{i}", series(values, station_id=f"S{i}"), WindowKind.POSITIVE, flow)
        windows.append(w)
        sc = np.zeros(200)
        sc[flow - 3] = peak  # inside the 12 h lead window
        scores[w.id] = sc
    return windows, scores


def _groups(windows, scores, lead_hours=12):
    return [(scores[w.id], label_hours(w, LabelingConfig(lead_hours))) for w in windows]


def test_event_capture_hand_counts():
    rows = event_capture(_groups(*_capture_fixture()), thresholds=[0.0, 0.3, 0.5, 1.0])
    got = {r.threshold: (r.captured, r.missed) for r in rows}
    assert got[0.0] == (3, 0)
    assert got[0.3] == (2, 1)
    assert got[0.5] == (1, 2)
    assert got[1.0] == (0, 3)


def test_event_capture_monotone_full_grid():
    rows = event_capture(_groups(*_capture_fixture()))
    captured = [r.captured for r in rows]
    assert len(rows) == 101
    assert all(a >= b for a, b in zip(captured, captured[1:]))
    assert rows[0].captured == 3 and rows[-1].captured == 0


def test_event_capture_score_outside_lead_ignored():
    windows, scores = _capture_fixture()
    w = windows[0]
    sc = np.zeros(200)
    sc[100 - 13] = 0.99  # one hour too early
    rows = event_capture(_groups([w], {w.id: sc}), thresholds=[0.5])
    assert rows[0].captured == 0


def test_event_capture_rejects_groups_without_flows_or_matching_shapes():
    with pytest.raises(InputError, match="no debris flows"):
        event_capture([(np.ones(4), np.zeros(4, dtype=int))])
    with pytest.raises(InputError, match="differ in shape"):
        event_capture([(np.ones(4), np.ones(3, dtype=int))])


def _reference_event_capture(windows, scores_by_window, thresholds, lead_hours):
    """The window-slice rule: a positive window's peak is its highest score over
    the hours [flow - lead_hours, flow], clipped to the window."""
    peaks = []
    for w in windows:
        if w.kind is WindowKind.POSITIVE:
            d = w.debris_flow_idx
            peaks.append(float(scores_by_window[w.id][max(0, d - lead_hours) : d + 1].max()))
    return [(float(t), sum(p >= t for p in peaks), sum(p < t for p in peaks)) for t in thresholds]


@pytest.mark.parametrize("seed", range(4))
def test_event_capture_from_labels_matches_window_slice_rule(seed):
    """Reading each flow's lead window off its labels gives the counts of slicing
    [flow - lead, flow] out of the window, for every lead 1..24, flows near the
    window start, negative windows and scores tied at the thresholds."""
    rng = np.random.default_rng(seed)
    for lead in range(1, 25):
        windows, scores = [], {}
        for i in range(int(rng.integers(1, 8))):
            n = int(rng.integers(1, 60))
            kind = WindowKind.POSITIVE if i == 0 or rng.random() < 0.5 else WindowKind.NEGATIVE
            flow = int(rng.integers(0, n)) if kind is WindowKind.POSITIVE else None
            w = DatasetWindow(f"S{i}", series(np.zeros(n), station_id=f"S{i}"), kind, flow)
            windows.append(w)
            scores[w.id] = rng.integers(0, 11, size=n) / 10.0  # ties, and ties with the thresholds
        thresholds = np.arange(101) / 100.0
        got = event_capture(_groups(windows, scores, lead), thresholds)
        assert [(r.threshold, r.captured, r.missed) for r in got] == _reference_event_capture(
            windows, scores, thresholds, lead
        )


# --- writers ------------------------------------------------------------------------


def test_csv_writers(tmp_path):
    scores = [0.9, 0.8, 0.7, 0.1]
    labels = [1, 0, 1, 0]
    c = pr_curve(scores, labels)
    write_curve_csv(tmp_path / "pr.csv", c)
    header = (tmp_path / "pr.csv").read_text().splitlines()[0]
    assert header == "kind,threshold,x,y"
    weak = pr_curve([0.9, 0.8, 0.7, 0.1], [0, 1, 0, 1])  # top-ranked item is negative
    pts = operating_points(weak, recall_targets=[0.5], precision_targets=[0.99])
    write_operating_points_csv(tmp_path / "op.csv", pts)
    text = (tmp_path / "op.csv").read_text()
    assert "infeasible" in text
    write_capture_csv(tmp_path / "cap.csv", event_capture(_groups(*_capture_fixture())))
    assert (tmp_path / "cap.csv").read_text().splitlines()[0] == "threshold,captured,missed"
