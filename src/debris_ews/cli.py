"""Command-line pipeline driver.

Every subcommand reads CSV/JSON artifacts, writes CSV/JSON artifacts plus a
resolved-config copy (<out>/<command>_config.json), and is deterministic given
its options: re-running reproduces byte-identical data outputs (the timestamp
lives only in the resolved-config metadata). Exit codes: 0 success, 1 invalid
input, 2 internal error. Set DEBRIS_EWS_LOG=INFO (or DEBUG) for progress logs.
"""
from __future__ import annotations

import argparse
import logging
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from ._common import (
    InputError, cell, csv_row_ref, derived_rng, number_keys, parse_column, read_csv_blocks, read_json, setup_logging,
    write_csv, write_json,
)
from .baselines import (
    MARKED_THRESHOLDS_MM,
    compute_window_ear,
    etm_predict,  # unused here; bench/spans.py traces it by this name
    etm_scores,
    hm_predict,  # unused here; bench/spans.py traces it by this name
    hm_scores,
    read_threshold_csv,
    write_threshold_csv,
)
from .bootstrap import MAX_REPLICATES, block_bootstrap_ci, write_ci_json
from .dataset import (
    DEFAULT_ANTECEDENT_HOURS,
    DEFAULT_LEAD_HOURS,
    DEFAULT_TAIL_HOURS,
    DEFAULT_TEST_FRACTION,
    DatasetWindow,
    FeatureSpec,
    LabelingConfig,
    WindowConfig,
    WindowKind,
    build_corpus_windows,
    build_examples,
    example_rows,
    label_hours,
    read_events_csv,
    read_manifest,
    split_windows,
    window_rows,
    write_events_csv,
    write_feature_csv,
    write_manifest,
)
from .explain import mean_abs_ranking, permutation_ranking, subsample_background, tree_shap_batch, write_attribution_csv
from .forest import ForestModel, ForestParams, fit_forest
from .gbt import GbtParams, fit_gbt
from .linear import LogisticParams, fit_logistic
from .metrics import (
    auc,
    counts_at,
    event_capture,
    operating_points,
    point_metrics,
    pr_curve,
    roc_curve,
    write_capture_csv,
    write_curve_csv,
    write_operating_points_csv,
)
from .modelio import load_model, predict_proba, save_model
from .rainfall import (
    DEFAULT_ALPHA,
    QUIET_HOURS,
    RAIN_THRESHOLD_MM,
    DailyWindowMode,
    format_ts,
    read_rainfall_csv,
    segment_events,
    write_ear_csv,
    write_rainfall_csv,
)
from .synth import SynthConfig, generate_corpus
from .tuning import MODEL_KINDS, grid_search_cv, write_grid_csv

log = logging.getLogger(__name__)

SCORES_CSV_COLUMNS = ("window_id", "hour", "label", "score")


# ---------------------------------------------------------------------------
# option plumbing: built-in default < --config file < explicit flag
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # input problems exit 1, not argparse's 2
        raise InputError(message)


class _Command:
    def __init__(self, sub, name: str, help_text: str, handler):
        self.name = name
        self.parser = sub.add_parser(name, help=help_text, description=help_text)
        self.parser.set_defaults(_command=self)
        self.handler = handler
        self.defaults: dict[str, object] = {}
        self.required: list[str] = []
        self.actions: dict[str, argparse.Action] = {}
        self.minimums: dict[str, int] = {}  # checked after the merge, for flags and config values alike
        self.parser.add_argument("--config", default=argparse.SUPPRESS, help="JSON file with option defaults")
        self.opt("--out", required=True, help="output directory")

    def opt(self, flag: str, *, type=str, default=None, required=False, help="", action=None, choices=None,
            minimum=None):
        dest = flag.lstrip("-").replace("-", "_")
        kwargs: dict = {"dest": dest, "default": argparse.SUPPRESS, "help": help}
        if action == "store_true":
            kwargs["action"] = "store_true"
            default = False if default is None else default
        else:
            kwargs["type"] = type
            if choices:
                kwargs["choices"] = choices
        self.actions[dest] = self.parser.add_argument(flag, **kwargs)
        self.defaults[dest] = default
        if required:
            self.required.append(dest)
        if minimum is not None:
            self.minimums[dest] = minimum
        return self

    def _config_value(self, path: str, dest: str, value):
        """A --config value, converted and checked as the flag's text would be."""
        action = self.actions[dest]
        if action.nargs == 0:  # store_true
            if not isinstance(value, bool):
                raise InputError(f"config {path}: field '{dest}': expected true or false, got {value!r}")
            return value
        if value is None and self.defaults[dest] is None:  # null stands for an unset option
            return None
        try:
            value = action.type(str(value))
        except (TypeError, ValueError):
            raise InputError(f"config {path}: field '{dest}': invalid {action.type.__name__} value: {value!r}") from None
        if action.choices and value not in action.choices:
            raise InputError(f"config {path}: field '{dest}': invalid choice: {value!r} "
                             f"(choose from {', '.join(map(repr, action.choices))})")
        return value

    def resolve(self, args: argparse.Namespace) -> dict:
        given = {k: v for k, v in vars(args).items() if k not in ("_command", "config")}
        merged = dict(self.defaults)
        config_path = getattr(args, "config", None)
        if config_path:
            doc = read_json(config_path, "config")
            if not isinstance(doc, dict):
                raise InputError(f"config {config_path} must be a JSON object")
            unknown = sorted(set(doc) - set(self.defaults))
            if unknown:
                raise InputError(
                    f"config {config_path} has unknown fields for '{self.name}': {', '.join(unknown)}"
                )
            for k, v in doc.items():
                merged[k] = self._config_value(config_path, k, v)
        merged.update(given)
        missing = sorted(k for k in self.required if merged.get(k) is None)
        if missing:
            raise InputError(f"'{self.name}' is missing required option(s): {', '.join('--' + m.replace('_', '-') for m in missing)}")
        for k, low in self.minimums.items():
            if merged[k] < low:
                raise InputError(f"{k.replace('_', '-')} must be >= {low}, got {merged[k]}")
        for k, action in self.actions.items():
            if action.type is float and not math.isfinite(merged[k]):
                raise InputError(f"{k.replace('_', '-')} must be a finite number, got {merged[k]}")
        return merged


def _write_resolved(out: Path, command: str, options: dict) -> None:
    doc = {
        "command": command,
        "options": options,
        "meta": {"generated_at": datetime.now(timezone.utc).isoformat(), "version": __version__},
    }
    write_json(out / f"{command.replace('-', '_')}_config.json", doc)


def _parse_depth(text: str):
    if str(text).lower() in ("none", "null", "inf", ""):
        return None
    return int(text)


def _parse_targets(text: str) -> list[float]:
    try:
        return [float(t) for t in str(text).split(",") if t.strip()]
    except ValueError:
        raise InputError(f"bad target list {text!r}; expected comma-separated numbers") from None


# ---------------------------------------------------------------------------
# shared loading helpers
# ---------------------------------------------------------------------------


def _load_corpus(opts: dict):
    series = read_rainfall_csv(opts["rainfall"], impute_missing=opts["impute_missing"])
    return {s.station_id: s for s in series}


def _load_windows(opts: dict, which: str = "all") -> tuple[list[DatasetWindow], dict[str, str]]:
    """The --manifest windows in split `which`, resliced from --rainfall, and the manifest's split map."""
    series_by_station = _load_corpus(opts)
    windows, split_map = read_manifest(opts["manifest"], series_by_station)
    return _select_split(windows, split_map, which), split_map


def _select_split(windows, split_map, which: str):
    if which == "all":
        return windows
    if not split_map:
        raise InputError("manifest has no split assignments; rebuild it with 'build-dataset --seed ...'")
    chosen = [w for w in windows if split_map.get(w.id) == which]
    if not chosen:
        raise InputError(f"no windows in split {which!r}")
    return chosen


def _feature_spec(opts: dict) -> FeatureSpec:
    return FeatureSpec(
        hourly_hours=opts["hours"],
        daily_days=opts["daily"],
        daily_weighted=opts["daily_weighted"],
        include_ear=opts["include_ear"],
        daily_mode=DailyWindowMode(opts["daily_mode"]),
        alpha=opts["alpha"],
    )


def _load_trained_model(opts: dict):
    """(model, feature spec) of --model. --lead defaults to the lead the model was
    trained with (meta.lead_hours); an explicit different lead is an error."""
    path = Path(opts["model"])
    model, spec, meta = load_model(path, with_meta=True)
    if spec is None:
        raise InputError(f"{path} carries no feature spec; re-train with this package's 'train'")
    trained = meta.get("lead_hours")
    if opts["lead"] is None:
        opts["lead"] = DEFAULT_LEAD_HOURS if trained is None else trained
    elif trained is not None and opts["lead"] != trained:
        raise InputError(f"--lead {opts['lead']} conflicts with lead_hours {trained} that {path} was trained with")
    return model, spec


def _add_feature_opts(cmd: _Command) -> _Command:
    cmd.opt("--hours", type=int, default=48, help="most recent hourly rainfall values to use")
    cmd.opt("--daily", type=int, default=0, help="antecedent daily totals to use (0..7)")
    cmd.opt("--daily-weighted", action="store_true", help="decay daily totals by alpha**i")
    cmd.opt("--include-ear", action="store_true", help="append the EAR feature")
    cmd.opt("--daily-mode", default=DailyWindowMode.CALENDAR_DAY.value, choices=[m.value for m in DailyWindowMode],
            help="daily total delimitation")
    cmd.opt("--alpha", type=float, default=DEFAULT_ALPHA, help="antecedent decay factor")
    cmd.opt("--lead", type=int, default=DEFAULT_LEAD_HOURS, help="lead time in hours for positive labels")
    return cmd


def _add_corpus_opts(cmd: _Command, manifest: bool = True) -> _Command:
    cmd.opt("--rainfall", required=True, help="rainfall CSV")
    if manifest:
        cmd.opt("--manifest", required=True, help="window manifest from 'build-dataset'")
    cmd.opt("--impute-missing", action="store_true", help="fill missing hours with 0 mm instead of rejecting")
    return cmd


def write_scores_csv(path, window_ids, hours, labels, scores) -> None:
    ints = [np.asarray(a).astype(np.int64) for a in (hours, labels)]
    write_csv(path, SCORES_CSV_COLUMNS, (window_ids, *ints, np.asarray(scores, dtype=np.float64)))


def read_scores_csv(path) -> list[tuple[str, np.ndarray, np.ndarray, np.ndarray]]:
    """Per-window (window_id, hours, labels, scores), hours ascending, labels 0 or 1, scores finite."""
    path = Path(path)
    code: dict[str, int] = {}  # window -> number in order of first appearance
    parts = []  # per block: (window numbers, hours, labels, scores)
    n = 0
    for columns in read_csv_blocks(path, SCORES_CSV_COLUMNS, "scores"):
        wids = columns["window_id"]
        hours, bad_hour = parse_column(int, columns["hour"], np.int64)
        labels, bad_label = parse_column(int, columns["label"], np.int64)
        scores, bad_score = parse_column(float, columns["score"], np.float64)
        bad = min(bad_hour, bad_label, bad_score)  # unparsed fields read 0, a valid label and score
        wrong = np.flatnonzero((labels != 0) & (labels != 1) | ~np.isfinite(scores))
        first = min([bad, *wrong[:1]])
        if first < len(wids):
            row = {name: fields[first] for name, fields in columns.items()}
            problem = "bad scores row" if first == bad else "label must be 0 or 1 and score finite in row"
            raise InputError(f"{csv_row_ref(path, n + first + 1)}: {problem} {row!r}")
        parts.append((number_keys(code, wids.distinct()), hours, labels, scores))
        n += len(wids)
    if not n:
        raise InputError(f"{path}: no score rows")
    window, hours, labels, scores = (np.concatenate(p) for p in zip(*parts))
    order = np.lexsort((hours, window))
    window, hours, labels, scores = window[order], hours[order], labels[order], scores[order]
    step = np.diff(hours)
    wrong = np.flatnonzero((step != 1) & (window[1:] == window[:-1]))
    if wrong.size:  # in the first window in file order that has any, a duplicate before a gap
        wrong = wrong[window[wrong] == window[wrong[0]]]
        wid = list(code)[window[wrong[0]]]
        if (step[wrong] == 0).any():
            raise InputError(f"{path}: duplicate hours for window {wid}")
        # the block bootstrap would wrap blocks across the gap
        raise InputError(f"{path}: window {wid} has no score for hour {hours[wrong[0]] + 1}; hours must be consecutive")
    bounds = np.cumsum(np.bincount(window))[:-1]
    return list(zip(code, *(np.split(a, bounds) for a in (hours, labels, scores))))


def _curves_and_metrics(scores: np.ndarray, labels: np.ndarray, out: Path, prefix: str):
    """The areas under the ROC and PR curves, written to <prefix>_{roc,pr}.csv, and the ROC curve."""
    roc = roc_curve(scores, labels)
    pr = pr_curve(scores, labels)
    write_curve_csv(out / f"{prefix}_roc.csv", roc)
    write_curve_csv(out / f"{prefix}_pr.csv", pr)
    return {"auroc": auc(roc), "auprc": auc(pr)}, roc


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _run_synth(opts: dict, out: Path) -> None:
    cfg = SynthConfig(
        stations=opts["stations"],
        weeks_per_station=opts["weeks"],
        storms_per_week=opts["storms_per_week"],
        trigger_threshold_mm=opts["trigger_threshold"],
        trigger_steepness=opts["trigger_steepness"],
        recent_rain_gain=opts["recent_rain_gain"],
        seed=opts["seed"],
    )
    corpus = generate_corpus(cfg)
    write_rainfall_csv(out / "rainfall.csv", corpus.series)
    write_events_csv(out / "debris_events.csv", corpus.debris_events)
    write_threshold_csv(out / "thresholds.csv", corpus.thresholds)
    print(f"synth: {len(corpus.series)} stations, {corpus.n_flows} debris flows -> {out}")


def _run_segment(opts: dict, out: Path) -> None:
    series_by_station = _load_corpus(opts)
    rows = [
        (sid, i, format_ts(s.hour_at(ev.start_idx)), format_ts(s.hour_at(ev.end_idx)), ev.hours,
         s.values[ev.start_idx : ev.end_idx + 1].sum())
        for sid, s in sorted(series_by_station.items())
        for i, ev in enumerate(segment_events(s, opts["rain_threshold"], opts["quiet_hours"]))
    ]
    sids, index, starts, ends, hours, totals = zip(*rows) if rows else [()] * 6
    columns = (sids, np.array(index, dtype=np.int64), starts, ends, np.array(hours, dtype=np.int64),
               np.array(totals, dtype=np.float64))
    write_csv(out / "main_events.csv", ("station_id", "event_index", "start", "end", "hours", "total_mm"), columns)
    print(f"segment: {len(rows)} main rainfall events -> {out / 'main_events.csv'}")


def _run_ear(opts: dict, out: Path) -> None:
    series_by_station = _load_corpus(opts)
    write_ear_csv(out / "ear.csv", series_by_station.values(), opts["alpha"], DailyWindowMode(opts["daily_mode"]))
    print(f"ear: wrote per-hour EAR for {len(series_by_station)} stations -> {out / 'ear.csv'}")


def _run_build_dataset(opts: dict, out: Path) -> None:
    series_by_station = _load_corpus(opts)
    events = read_events_csv(opts["events"])
    cfg = WindowConfig(
        antecedent_hours=opts["antecedent_hours"],
        tail_hours=opts["tail_hours"],
        rain_threshold_mm=opts["rain_threshold"],
        quiet_hours=opts["quiet_hours"],
        min_wet_run_hours=opts["min_wet_run"],
    )
    windows = build_corpus_windows(list(series_by_station.values()), events, cfg)
    if not windows:
        raise InputError("no dataset windows were produced; check the rainfall and events inputs")
    if len(windows) >= 2:
        train, test = split_windows(windows, opts["test_fraction"], opts["seed"])
        split = {w.id: "train" for w in train} | {w.id: "test" for w in test}
    else:
        split = {}
    meta = {
        "antecedent_hours": cfg.antecedent_hours,
        "tail_hours": cfg.tail_hours,
        "test_fraction": opts["test_fraction"],
        "seed": opts["seed"],
    }
    write_manifest(out / "manifest.json", windows, split, meta)
    if opts["export_features"]:
        spec = _feature_spec(opts)
        examples = build_examples(windows, spec, LabelingConfig(opts["lead"]))
        write_feature_csv(out / "features.csv", examples)
    n_pos = sum(1 for w in windows if w.kind is WindowKind.POSITIVE)
    print(
        f"build-dataset: {len(windows)} windows ({n_pos} positive, {len(windows) - n_pos} negative), "
        f"{sum(len(w) for w in windows)} hours -> {out / 'manifest.json'}"
    )


def _run_train(opts: dict, out: Path) -> None:
    chosen, _ = _load_windows(opts, opts["split"])
    spec = _feature_spec(opts)
    examples = build_examples(chosen, spec, LabelingConfig(opts["lead"]))
    # the windows hold their station records and the records' EAR caches; the fit
    # reads only the example matrix, so they are freed before it
    n_windows = len(chosen)
    del chosen
    X, y, kind, tw = examples.X, examples.y, opts["model"], opts["training_weight"]
    tree_opts = {"max_depth": opts["max_depth"], "min_samples_leaf": opts["min_samples_leaf"]}
    if kind == "rf":
        params = ForestParams(n_trees=opts["trees"], max_features=opts["max_features"], **tree_opts)
        model = fit_forest(X, y, params, tw, seed=opts["seed"], threads=opts["threads"])
    elif kind == "gbt":
        params = GbtParams(n_trees=opts["trees"], learning_rate=opts["learning_rate"], **tree_opts)
        model = fit_gbt(X, y, params=params, training_weight=tw)
    else:
        params = LogisticParams(penalty="l2" if opts["l2"] > 0 else "none", l2=opts["l2"])
        model = fit_logistic(X, y, params=params, training_weight=tw)
    meta = {"trained_on": opts["split"], "n_examples": len(examples), "lead_hours": opts["lead"], "seed": opts["seed"]}
    save_model(out / "model.json", model, feature_spec=spec, meta=meta)
    print(f"train: {kind} on {len(examples)} examples from {n_windows} windows -> {out / 'model.json'}")


def _read_grid(opts: dict) -> list | None:
    """The --grid file's cells, or None for the model's default grid."""
    if opts["grid"] == "default":
        return None
    grid_path = Path(opts["grid"])
    grid = read_json(grid_path, "grid file")
    if not isinstance(grid, list):
        raise InputError(f"{grid_path}: grid must be a JSON list of objects")
    return grid


def _run_cv(opts: dict, out: Path) -> None:
    # as in train, the windows and their records' EAR caches are freed before the fits:
    # passed unnamed, they are dropped by grid_search_cv once the fold matrix exists
    result = grid_search_cv(_load_windows(opts, opts["split"])[0], _feature_spec(opts), _read_grid(opts),
                            opts["model"], opts["k"], opts["seed"], LabelingConfig(opts["lead"]),
                            opts["training_weight"], opts["threads"], opts["grid"])
    write_grid_csv(out / "cv_results.csv", result)
    write_json(out / "best_params.json", {"model": result.model_kind, "params": result.best})
    best = max(c.mean_auprc for c in result.cells)
    print(f"cv: {len(result.cells)} cells x {opts['k']} folds; best mean AUPRC {best:.4f} -> {out / 'cv_results.csv'}")


def _run_eval(opts: dict, out: Path) -> None:
    model, spec = _load_trained_model(opts)
    chosen, _ = _load_windows(opts, opts["split"])
    examples = build_examples(chosen, spec, LabelingConfig(opts["lead"]))
    scores = predict_proba(model, examples.X)
    write_scores_csv(out / "scores.csv", examples.window_ids, examples.hours, examples.y, scores)
    summary, _ = _curves_and_metrics(scores, examples.y, out, "model")
    doc = {
        "auprc": summary["auprc"],
        "auroc": summary["auroc"],
        "auc_method": "trapezoid over achieved points; PR anchored at recall 0",
        "n_windows": len(chosen),
        "n_hours": len(examples),
        "prevalence": float(examples.y.mean()),
        "split": opts["split"],
    }
    write_json(out / "metrics.json", doc)
    print(f"eval: AUPRC {summary['auprc']:.4f}, AUROC {summary['auroc']:.4f} on {len(examples)} hours -> {out}")


def _run_sweep_baselines(opts: dict, out: Path) -> None:
    chosen, _ = _load_windows(opts, opts["split"])
    table = read_threshold_csv(opts["thresholds"])
    mode = DailyWindowMode(opts["daily_mode"])

    wears = [compute_window_ear(w, opts["alpha"], mode) for w in chosen]
    wids, hours, labels = window_rows(chosen, LabelingConfig(opts["lead"]))

    etm = etm_scores(wears, table)
    hm = hm_scores(wears)
    write_scores_csv(out / "etm_scores.csv", wids, hours, labels, etm)
    write_scores_csv(out / "hm_scores.csv", wids, hours, labels, hm)
    etm_areas, etm_roc = _curves_and_metrics(etm, labels, out, "etm")
    hm_areas, hm_roc = _curves_and_metrics(hm, labels, out, "hm")

    # An alert rule is a point on its score's curve: EAR >= the station threshold
    # is ETM score >= 1, as fl(ear / thr) >= 1 exactly when ear >= thr > 0
    official = point_metrics(counts_at(etm_roc, 1.0))
    summary = {"etm": etm_areas, "hm": hm_areas, "official_etm_point": official.as_dict()}
    marked = [point_metrics(counts_at(hm_roc, thr)) for thr in MARKED_THRESHOLDS_MM]
    columns = [np.asarray(MARKED_THRESHOLDS_MM, dtype=np.float64)]
    columns += [[cell(getattr(m, f)) for m in marked] for f in ("precision", "recall", "specificity", "fpr")]
    write_csv(out / "hm_marked.csv", ("threshold_mm", "precision", "recall", "specificity", "FPR"), columns)
    write_json(out / "baselines.json", summary)
    print(
        f"sweep-baselines: ETM AUPRC {summary['etm']['auprc']:.4f}, "
        f"HM AUPRC {summary['hm']['auprc']:.4f} -> {out}"
    )


def _run_bootstrap_ci(opts: dict, out: Path) -> None:
    if not 1 <= opts["reps"] <= MAX_REPLICATES:  # before reading the scores
        raise InputError(f"--reps must be in [1, {MAX_REPLICATES}], got {opts['reps']}")
    groups = [(scores, labels) for _, _, labels, scores in read_scores_csv(opts["scores"])]
    ci = block_bootstrap_ci(
        groups,
        stat=opts["stat"],
        block_hours=opts["block_hours"],
        replicates=opts["reps"],
        level=opts["level"],
        seed=opts["seed"],
    )
    write_ci_json(out / "ci.json", ci)
    print(
        f"bootstrap-ci: {ci.statistic} {ci.point:.4f} "
        f"[{ci.lower:.4f}, {ci.upper:.4f}] at {int(ci.level * 100)}% -> {out / 'ci.json'}"
    )


def _run_operating_points(opts: dict, out: Path) -> None:
    rows = read_scores_csv(opts["scores"])
    scores = np.concatenate([s for _, _, _, s in rows])
    labels = np.concatenate([y for _, _, y, _ in rows])
    curve = pr_curve(scores, labels)
    points = operating_points(
        curve,
        recall_targets=_parse_targets(opts["recall_targets"]),
        precision_targets=_parse_targets(opts["precision_targets"]),
    )
    write_operating_points_csv(out / "operating_points.csv", points)
    infeasible = sum(1 for p in points if not p.feasible)
    print(f"operating-points: {len(points)} targets ({infeasible} infeasible) -> {out / 'operating_points.csv'}")


def _run_event_capture(opts: dict, out: Path) -> None:
    windows, _ = _load_windows(opts)
    by_id = {w.id: w for w in windows}
    labeling = LabelingConfig(opts["lead"])
    groups = []
    for wid, hours, labels, scores in read_scores_csv(opts["scores"]):
        if wid not in by_id:
            raise InputError(f"scores reference unknown window {wid}")
        if hours.size != len(by_id[wid]) or (hours != np.arange(hours.size)).any():
            raise InputError(f"scores for window {wid} do not cover every hour")
        if (labels != label_hours(by_id[wid], labeling)).any():
            raise InputError(f"labels of window {wid} in the scores are not those of --lead {opts['lead']}")
        groups.append((scores, labels))
    rows = event_capture(groups)
    write_capture_csv(out / "event_capture.csv", rows)
    flows = rows[0].captured + rows[0].missed
    print(f"event-capture: {flows} debris flows over {len(rows)} thresholds -> {out / 'event_capture.csv'}")


def _run_explain(opts: dict, out: Path) -> None:
    model, spec = _load_trained_model(opts)
    if not isinstance(model, ForestModel):
        raise InputError("explain supports random forest models only")
    windows, split_map = _load_windows(opts)
    chosen = _select_split(windows, split_map, opts["split"])
    labeling = LabelingConfig(opts["lead"])
    # both row draws depend only on row counts: features are built for the drawn rows alone
    window_ids, hours, labels = window_rows(chosen, labeling)

    rng = derived_rng(opts["seed"], 10)
    n = labels.size
    if n > opts["max_rows"]:
        keep = np.sort(rng.choice(n, size=opts["max_rows"], replace=False))
    else:
        keep = np.arange(n)
    X_rows = example_rows(chosen, spec, labeling, keep)
    row_ids = [f"{window_ids[i]}:{int(hours[i])}" for i in keep]

    background_windows = _select_split(windows, split_map, "train") if split_map else chosen
    n_background = sum(len(w) for w in background_windows)
    drawn = subsample_background(np.arange(n_background), max_rows=opts["background_rows"], seed=opts["seed"])
    background = example_rows(background_windows, spec, labeling, drawn)

    values, base = tree_shap_batch(model, X_rows, background)
    write_attribution_csv(out / "attributions.csv", row_ids, spec.feature_names, X_rows, values)

    if opts["method"] == "mean_abs_shap":
        ranking = mean_abs_ranking(values)
    else:
        ranking = permutation_ranking(model, X_rows, labels[keep], opts["seed"])
    columns = (np.arange(1, len(ranking) + 1), [spec.feature_names[f] for f, _ in ranking],
               np.array([score for _, score in ranking], dtype=np.float64))
    write_csv(out / "importance.csv", ("rank", "feature", "score"), columns)
    write_json(out / "explain.json", {
        "base_value": base,
        "rows_explained": int(keep.size),
        "background_rows": int(background.shape[0]),
        "method": opts["method"],
        "local_accuracy_max_error": float(np.abs(values.sum(axis=1) + base - predict_proba(model, X_rows)).max()),
    })
    print(f"explain: {keep.size} rows, background {background.shape[0]} -> {out}")


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _synth_opts(c: _Command) -> None:
    c.opt("--seed", type=int, required=True, minimum=0, help="corpus seed")
    c.opt("--stations", type=int, default=SynthConfig.stations)
    c.opt("--weeks", type=int, default=SynthConfig.weeks_per_station)
    c.opt("--storms-per-week", type=float, default=SynthConfig.storms_per_week)
    c.opt("--trigger-threshold", type=float, default=SynthConfig.trigger_threshold_mm)
    c.opt("--trigger-steepness", type=float, default=SynthConfig.trigger_steepness)
    c.opt("--recent-rain-gain", type=float, default=SynthConfig.recent_rain_gain)


def _segment_opts(c: _Command) -> None:
    _add_corpus_opts(c, manifest=False)
    c.opt("--rain-threshold", type=float, default=RAIN_THRESHOLD_MM)
    c.opt("--quiet-hours", type=int, default=QUIET_HOURS)


def _ear_opts(c: _Command) -> None:
    _add_corpus_opts(c, manifest=False)
    c.opt("--alpha", type=float, default=DEFAULT_ALPHA)
    c.opt("--daily-mode", default=DailyWindowMode.CALENDAR_DAY.value, choices=[m.value for m in DailyWindowMode])


def _build_dataset_opts(c: _Command) -> None:
    _add_corpus_opts(c, manifest=False)
    c.opt("--events", required=True, help="debris-flow events CSV")
    c.opt("--seed", type=int, required=True, minimum=0, help="split seed")
    c.opt("--test-fraction", type=float, default=DEFAULT_TEST_FRACTION)
    c.opt("--antecedent-hours", type=int, default=DEFAULT_ANTECEDENT_HOURS)
    c.opt("--tail-hours", type=int, default=DEFAULT_TAIL_HOURS)
    c.opt("--rain-threshold", type=float, default=RAIN_THRESHOLD_MM)
    c.opt("--quiet-hours", type=int, default=QUIET_HOURS)
    c.opt("--min-wet-run", type=int, default=WindowConfig.min_wet_run_hours)
    c.opt("--export-features", action="store_true", help="also write the feature matrix CSV")
    _add_feature_opts(c)


def _train_opts(c: _Command) -> None:
    _add_corpus_opts(c)
    c.opt("--seed", type=int, required=True, minimum=0)
    c.opt("--model", default="rf", choices=MODEL_KINDS)
    c.opt("--split", default="train", choices=["train", "test", "all"])
    c.opt("--trees", type=int, default=ForestParams.n_trees)
    c.opt("--max-depth", type=_parse_depth, default=ForestParams.max_depth)
    c.opt("--min-samples-leaf", type=int, default=ForestParams.min_samples_leaf)
    c.opt("--max-features", type=_parse_depth, default=None, help="features tried per split (default sqrt)")
    c.opt("--learning-rate", type=float, default=0.1)
    c.opt("--l2", type=float, default=0.0, minimum=0, help="L2 penalty for logistic (0 = none)")
    c.opt("--training-weight", type=float, default=1.0)
    c.opt("--threads", type=int, default=1, minimum=1)
    _add_feature_opts(c)


def _cv_opts(c: _Command) -> None:
    _add_corpus_opts(c)
    c.opt("--seed", type=int, required=True, minimum=0)
    c.opt("--model", default="rf", choices=MODEL_KINDS)
    c.opt("--split", default="train", choices=["train", "test", "all"])
    c.opt("--grid", default="default", help="'default' or a JSON file with a list of parameter objects")
    c.opt("--k", type=int, default=10)
    c.opt("--training-weight", type=float, default=1.0)
    c.opt("--threads", type=int, default=1, minimum=1)
    _add_feature_opts(c)


def _eval_opts(c: _Command) -> None:
    c.opt("--model", required=True)
    _add_corpus_opts(c)
    c.opt("--split", default="test", choices=["train", "test", "all"])
    c.opt("--lead", type=int, default=None, help="lead time in hours for positive labels (default: the model's lead_hours)")


def _sweep_baselines_opts(c: _Command) -> None:
    _add_corpus_opts(c)
    c.opt("--thresholds", required=True, help="official threshold table CSV")
    c.opt("--split", default="test", choices=["train", "test", "all"])
    c.opt("--lead", type=int, default=DEFAULT_LEAD_HOURS)
    c.opt("--alpha", type=float, default=DEFAULT_ALPHA)
    c.opt("--daily-mode", default=DailyWindowMode.CALENDAR_DAY.value, choices=[m.value for m in DailyWindowMode])


def _bootstrap_ci_opts(c: _Command) -> None:
    c.opt("--scores", required=True, help="scores CSV from 'eval' or 'sweep-baselines'")
    c.opt("--seed", type=int, required=True, minimum=0)
    c.opt("--stat", default="auprc", choices=["auprc", "auroc"])
    c.opt("--block-hours", type=int, default=6)
    c.opt("--reps", type=int, default=10000)
    c.opt("--level", type=float, default=0.95)


def _operating_points_opts(c: _Command) -> None:
    c.opt("--scores", required=True)
    c.opt("--recall-targets", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
    c.opt("--precision-targets", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")


def _event_capture_opts(c: _Command) -> None:
    c.opt("--scores", required=True)
    _add_corpus_opts(c)
    c.opt("--lead", type=int, default=DEFAULT_LEAD_HOURS)


def _explain_opts(c: _Command) -> None:
    c.opt("--model", required=True)
    _add_corpus_opts(c)
    c.opt("--seed", type=int, required=True, minimum=0)
    c.opt("--split", default="test", choices=["train", "test", "all"])
    c.opt("--lead", type=int, default=None, help="lead time in hours for positive labels (default: the model's lead_hours)")
    c.opt("--max-rows", type=int, default=500, minimum=1,
          help="rows to explain (cost grows with rows x leaves x background)")
    c.opt("--background-rows", type=int, default=64, minimum=1)
    c.opt("--method", default="mean_abs_shap", choices=["mean_abs_shap", "permutation"])


# Every subcommand, in help order: name -> (help text, handler, option declarations)
_COMMANDS = {
    "synth": ("generate a seeded synthetic rainfall corpus", _run_synth, _synth_opts),
    "segment": ("list main rainfall events per station", _run_segment, _segment_opts),
    "ear": ("per-hour effective accumulated rainfall", _run_ear, _ear_opts),
    "build-dataset": ("build labeled event windows and the train/test split", _run_build_dataset, _build_dataset_opts),
    "train": ("fit a classifier on the training split", _run_train, _train_opts),
    "cv": ("grid-search cross-validation on the training split", _run_cv, _cv_opts),
    "eval": ("score a trained model and emit curves and metrics", _run_eval, _eval_opts),
    "sweep-baselines": ("EAR threshold baselines: curves and official points", _run_sweep_baselines,
                        _sweep_baselines_opts),
    "bootstrap-ci": ("circular block bootstrap CI for a scores file", _run_bootstrap_ci, _bootstrap_ci_opts),
    "operating-points": ("precision/recall trade-off table", _run_operating_points, _operating_points_opts),
    "event-capture": ("captured/missed debris flows per alert threshold", _run_event_capture, _event_capture_opts),
    "explain": ("Shapley attributions and importance ranking", _run_explain, _explain_opts),
}


def build_parser(command: str | None = None) -> _Parser:
    """The parser of every subcommand, or of `command` alone: the same parser for
    any argument list that names `command` first."""
    parser = _Parser(prog="debris-ews", description=__doc__)
    parser.add_argument("--version", action="version", version=f"debris-ews {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="<command>")
    for name in _COMMANDS if command is None else [command]:
        help_text, handler, declare = _COMMANDS[name]
        declare(_Command(sub, name, help_text, handler))
    return parser


def main(argv=None) -> int:
    setup_logging()
    argv = sys.argv[1:] if argv is None else list(argv)
    # each subcommand's options are its own, so a call that names one needs only
    # its parser; help, --version and a bad command list every subcommand
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        command: _Command = args._command
        opts = command.resolve(args)
        out = Path(opts["out"])
        try:  # before any input is read, so a bad --out costs no work
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise InputError(f"cannot create output directory {out}: {exc.strerror}") from None
        command.handler(opts, out)
        _write_resolved(out, command.name, opts)
        return 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit:
        raise
    except Exception as exc:  # pragma: no cover - defensive
        log.exception("internal error")
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
