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
from .bootstrap import block_bootstrap_ci, write_ci_json
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
from .tuning import default_grid, grid_search_cv, write_grid_csv

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
        return merged


def _write_resolved(out: Path, command: str, options: dict) -> None:
    doc = {
        "command": command,
        "options": {k: (str(v) if isinstance(v, Path) else v) for k, v in sorted(options.items())},
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
    path = Path(opts["rainfall"])
    if not path.exists():
        raise InputError(f"rainfall CSV not found: {path} (expected header station_id,timestamp,rainfall_mm)")
    series = read_rainfall_csv(path, impute_missing=opts["impute_missing"])
    return {s.station_id: s for s in series}


def _load_windows(opts: dict, which: str = "all") -> tuple[list[DatasetWindow], dict[str, str]]:
    """The --manifest windows in split `which`, resliced from --rainfall, and the manifest's split map."""
    series_by_station = _load_corpus(opts)
    path = Path(opts["manifest"])
    if not path.exists():
        raise InputError(f"window manifest not found: {path} (produce it with 'build-dataset')")
    windows, split_map = read_manifest(path, series_by_station)
    return _select_split(windows, split_map, which), split_map


def _select_split(windows, split_map, which: str):
    if which == "all":
        return windows
    if which not in ("train", "test"):
        raise InputError(f"--split must be train, test, or all, got {which!r}")
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
    if not path.exists():
        raise InputError(f"model file not found: {path} (produce it with 'train')")
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
    if not path.exists():
        raise InputError(f"scores CSV not found: {path} (expected header {','.join(SCORES_CSV_COLUMNS)})")
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
    out = []
    for wid, rows in zip(code, np.split(order, np.cumsum(np.bincount(window))[:-1])):
        h = hours[rows]
        step = np.diff(h)
        if (step == 0).any():
            raise InputError(f"{path}: duplicate hours for window {wid}")
        gaps = np.flatnonzero(step != 1)
        if gaps.size:  # the block bootstrap would wrap blocks across the gap
            raise InputError(f"{path}: window {wid} has no score for hour {h[gaps[0]] + 1}; hours must be consecutive")
        out.append((wid, h, labels[rows], scores[rows]))
    return out


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


def _run_synth(opts: dict) -> None:
    out = Path(opts["out"])
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


def _run_segment(opts: dict) -> None:
    out = Path(opts["out"])
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


def _run_ear(opts: dict) -> None:
    out = Path(opts["out"])
    series_by_station = _load_corpus(opts)
    write_ear_csv(out / "ear.csv", series_by_station.values(), opts["alpha"], DailyWindowMode(opts["daily_mode"]))
    print(f"ear: wrote per-hour EAR for {len(series_by_station)} stations -> {out / 'ear.csv'}")


def _run_build_dataset(opts: dict) -> None:
    out = Path(opts["out"])
    series_by_station = _load_corpus(opts)
    events_path = Path(opts["events"])
    if not events_path.exists():
        raise InputError(f"debris events CSV not found: {events_path} (expected header station_id,timestamp)")
    events = read_events_csv(events_path)
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


def _hyper_params(opts: dict):
    kind = opts["model"]
    if kind == "rf":
        return ForestParams(
            n_trees=opts["trees"],
            max_depth=opts["max_depth"],
            min_samples_leaf=opts["min_samples_leaf"],
            max_features=opts["max_features"],
        )
    if kind == "gbt":
        return GbtParams(
            n_trees=opts["trees"],
            learning_rate=opts["learning_rate"],
            max_depth=opts["max_depth"],
            min_samples_leaf=opts["min_samples_leaf"],
        )
    if kind == "logistic":
        penalty = "l2" if opts["l2"] > 0 else "none"
        return LogisticParams(penalty=penalty, l2=opts["l2"])
    raise InputError(f"unknown model kind {kind!r}")


def _run_train(opts: dict) -> None:
    out = Path(opts["out"])
    chosen, _ = _load_windows(opts, opts["split"])
    spec = _feature_spec(opts)
    examples = build_examples(chosen, spec, LabelingConfig(opts["lead"]))
    params = _hyper_params(opts)
    kind = opts["model"]
    tw = opts["training_weight"]
    if kind == "rf":
        model = fit_forest(examples.X, examples.y, params, tw, seed=opts["seed"], threads=opts["threads"])
    elif kind == "gbt":
        model = fit_gbt(examples.X, examples.y, params=params, training_weight=tw)
    else:
        model = fit_logistic(examples.X, examples.y, params=params, training_weight=tw)
    meta = {"trained_on": opts["split"], "n_examples": len(examples), "lead_hours": opts["lead"], "seed": opts["seed"]}
    save_model(out / "model.json", model, feature_spec=spec, meta=meta)
    print(f"train: {kind} on {len(examples)} examples from {len(chosen)} windows -> {out / 'model.json'}")


def _run_cv(opts: dict) -> None:
    out = Path(opts["out"])
    chosen, _ = _load_windows(opts, opts["split"])
    spec = _feature_spec(opts)
    if opts["grid"] == "default":
        grid = default_grid(opts["model"])
    else:
        grid_path = Path(opts["grid"])
        if not grid_path.exists():
            raise InputError(f"grid file not found: {grid_path} (a JSON list of hyperparameter objects)")
        grid = read_json(grid_path, "grid file")
        if not isinstance(grid, list):
            raise InputError(f"{grid_path}: grid must be a JSON list of objects")
    result = grid_search_cv(
        chosen,
        spec,
        grid,
        model_kind=opts["model"],
        k=opts["k"],
        seed=opts["seed"],
        labeling=LabelingConfig(opts["lead"]),
        training_weight=opts["training_weight"],
        threads=opts["threads"],
        grid_source=opts["grid"],
    )
    write_grid_csv(out / "cv_results.csv", result)
    write_json(out / "best_params.json", {"model": result.model_kind, "params": result.best})
    best = max(c.mean_auprc for c in result.cells)
    print(f"cv: {len(result.cells)} cells x {opts['k']} folds; best mean AUPRC {best:.4f} -> {out / 'cv_results.csv'}")


def _run_eval(opts: dict) -> None:
    out = Path(opts["out"])
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


def _run_sweep_baselines(opts: dict) -> None:
    out = Path(opts["out"])
    chosen, _ = _load_windows(opts, opts["split"])
    thr_path = Path(opts["thresholds"])
    if not thr_path.exists():
        raise InputError(f"threshold table not found: {thr_path} (expected header station_id,year,ear_threshold_mm)")
    table = read_threshold_csv(thr_path)
    mode = DailyWindowMode(opts["daily_mode"])

    wears = [compute_window_ear(w, opts["alpha"], mode) for w in chosen]
    wids, hours, labels = window_rows(chosen, LabelingConfig(opts["lead"]))

    etm_by_id = etm_scores(wears, table)
    hm_by_id = hm_scores(wears)
    etm = np.concatenate([etm_by_id[w.id] for w in chosen])
    hm = np.concatenate([hm_by_id[w.id] for w in chosen])
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


def _run_bootstrap_ci(opts: dict) -> None:
    out = Path(opts["out"])
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


def _run_operating_points(opts: dict) -> None:
    out = Path(opts["out"])
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


def _run_event_capture(opts: dict) -> None:
    out = Path(opts["out"])
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


def _example_rows(windows: list[DatasetWindow], spec: FeatureSpec, labeling: LabelingConfig,
                  rows: np.ndarray) -> np.ndarray:
    """The feature rows at sorted positions `rows` of the example matrix of windows,
    building only the windows that hold one of them: a row's features come from its
    own window alone."""
    lengths = np.array([len(w) for w in windows])
    starts = np.cumsum(lengths) - lengths
    held = np.searchsorted(starts, rows, side="right") - 1
    used, slot = np.unique(held, return_inverse=True)
    used_starts = np.cumsum(lengths[used]) - lengths[used]
    examples = build_examples([windows[i] for i in used], spec, labeling)
    return examples.X[used_starts[slot] + rows - starts[held]]


def _run_explain(opts: dict) -> None:
    out = Path(opts["out"])
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
    X_rows = _example_rows(chosen, spec, labeling, keep)
    row_ids = [f"{window_ids[i]}:{int(hours[i])}" for i in keep]

    background_windows = _select_split(windows, split_map, "train") if split_map else chosen
    n_background = sum(len(w) for w in background_windows)
    drawn = subsample_background(np.arange(n_background), max_rows=opts["background_rows"], seed=opts["seed"])
    background = _example_rows(background_windows, spec, labeling, drawn)

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


def build_parser() -> _Parser:
    parser = _Parser(prog="debris-ews", description=__doc__)
    parser.add_argument("--version", action="version", version=f"debris-ews {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="<command>")

    c = _Command(sub, "synth", "generate a seeded synthetic rainfall corpus", _run_synth)
    c.opt("--out", required=True, help="output directory")
    c.opt("--seed", type=int, required=True, help="corpus seed")
    c.opt("--stations", type=int, default=SynthConfig.stations)
    c.opt("--weeks", type=int, default=SynthConfig.weeks_per_station)
    c.opt("--storms-per-week", type=float, default=SynthConfig.storms_per_week)
    c.opt("--trigger-threshold", type=float, default=SynthConfig.trigger_threshold_mm)
    c.opt("--trigger-steepness", type=float, default=SynthConfig.trigger_steepness)
    c.opt("--recent-rain-gain", type=float, default=SynthConfig.recent_rain_gain)

    c = _Command(sub, "segment", "list main rainfall events per station", _run_segment)
    _add_corpus_opts(c, manifest=False)
    c.opt("--out", required=True)
    c.opt("--rain-threshold", type=float, default=RAIN_THRESHOLD_MM)
    c.opt("--quiet-hours", type=int, default=QUIET_HOURS)

    c = _Command(sub, "ear", "per-hour effective accumulated rainfall", _run_ear)
    _add_corpus_opts(c, manifest=False)
    c.opt("--out", required=True)
    c.opt("--alpha", type=float, default=DEFAULT_ALPHA)
    c.opt("--daily-mode", default=DailyWindowMode.CALENDAR_DAY.value, choices=[m.value for m in DailyWindowMode])

    c = _Command(sub, "build-dataset", "build labeled event windows and the train/test split", _run_build_dataset)
    _add_corpus_opts(c, manifest=False)
    c.opt("--events", required=True, help="debris-flow events CSV")
    c.opt("--out", required=True)
    c.opt("--seed", type=int, required=True, help="split seed")
    c.opt("--test-fraction", type=float, default=DEFAULT_TEST_FRACTION)
    c.opt("--antecedent-hours", type=int, default=DEFAULT_ANTECEDENT_HOURS)
    c.opt("--tail-hours", type=int, default=DEFAULT_TAIL_HOURS)
    c.opt("--rain-threshold", type=float, default=RAIN_THRESHOLD_MM)
    c.opt("--quiet-hours", type=int, default=QUIET_HOURS)
    c.opt("--min-wet-run", type=int, default=WindowConfig.min_wet_run_hours)
    c.opt("--export-features", action="store_true", help="also write the feature matrix CSV")
    _add_feature_opts(c)

    c = _Command(sub, "train", "fit a classifier on the training split", _run_train)
    _add_corpus_opts(c)
    c.opt("--out", required=True)
    c.opt("--seed", type=int, required=True)
    c.opt("--model", default="rf", choices=["rf", "gbt", "logistic"])
    c.opt("--split", default="train", choices=["train", "test", "all"])
    c.opt("--trees", type=int, default=ForestParams.n_trees)
    c.opt("--max-depth", type=_parse_depth, default=ForestParams.max_depth)
    c.opt("--min-samples-leaf", type=int, default=ForestParams.min_samples_leaf)
    c.opt("--max-features", type=_parse_depth, default=None, help="features tried per split (default sqrt)")
    c.opt("--learning-rate", type=float, default=0.1)
    c.opt("--l2", type=float, default=0.0, help="L2 penalty for logistic (0 = none)")
    c.opt("--training-weight", type=float, default=1.0)
    c.opt("--threads", type=int, default=1, minimum=1)
    _add_feature_opts(c)

    c = _Command(sub, "cv", "grid-search cross-validation on the training split", _run_cv)
    _add_corpus_opts(c)
    c.opt("--out", required=True)
    c.opt("--seed", type=int, required=True)
    c.opt("--model", default="rf", choices=["rf", "gbt", "logistic"])
    c.opt("--split", default="train", choices=["train", "test", "all"])
    c.opt("--grid", default="default", help="'default' or a JSON file with a list of parameter objects")
    c.opt("--k", type=int, default=10)
    c.opt("--training-weight", type=float, default=1.0)
    c.opt("--threads", type=int, default=1, minimum=1)
    _add_feature_opts(c)

    c = _Command(sub, "eval", "score a trained model and emit curves and metrics", _run_eval)
    c.opt("--model", required=True)
    _add_corpus_opts(c)
    c.opt("--out", required=True)
    c.opt("--split", default="test", choices=["train", "test", "all"])
    c.opt("--lead", type=int, default=None, help="lead time in hours for positive labels (default: the model's lead_hours)")

    c = _Command(sub, "sweep-baselines", "EAR threshold baselines: curves and official points", _run_sweep_baselines)
    _add_corpus_opts(c)
    c.opt("--thresholds", required=True, help="official threshold table CSV")
    c.opt("--out", required=True)
    c.opt("--split", default="test", choices=["train", "test", "all"])
    c.opt("--lead", type=int, default=DEFAULT_LEAD_HOURS)
    c.opt("--alpha", type=float, default=DEFAULT_ALPHA)
    c.opt("--daily-mode", default=DailyWindowMode.CALENDAR_DAY.value, choices=[m.value for m in DailyWindowMode])

    c = _Command(sub, "bootstrap-ci", "circular block bootstrap CI for a scores file", _run_bootstrap_ci)
    c.opt("--scores", required=True, help="scores CSV from 'eval' or 'sweep-baselines'")
    c.opt("--out", required=True)
    c.opt("--seed", type=int, required=True)
    c.opt("--stat", default="auprc", choices=["auprc", "auroc"])
    c.opt("--block-hours", type=int, default=6)
    c.opt("--reps", type=int, default=10000)
    c.opt("--level", type=float, default=0.95)

    c = _Command(sub, "operating-points", "precision/recall trade-off table", _run_operating_points)
    c.opt("--scores", required=True)
    c.opt("--out", required=True)
    c.opt("--recall-targets", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
    c.opt("--precision-targets", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")

    c = _Command(sub, "event-capture", "captured/missed debris flows per alert threshold", _run_event_capture)
    c.opt("--scores", required=True)
    _add_corpus_opts(c)
    c.opt("--out", required=True)
    c.opt("--lead", type=int, default=DEFAULT_LEAD_HOURS)

    c = _Command(sub, "explain", "Shapley attributions and importance ranking", _run_explain)
    c.opt("--model", required=True)
    _add_corpus_opts(c)
    c.opt("--out", required=True)
    c.opt("--seed", type=int, required=True)
    c.opt("--split", default="test", choices=["train", "test", "all"])
    c.opt("--lead", type=int, default=None, help="lead time in hours for positive labels (default: the model's lead_hours)")
    c.opt("--max-rows", type=int, default=500, minimum=1,
          help="rows to explain (cost grows with rows x leaves x background)")
    c.opt("--background-rows", type=int, default=64, minimum=1)
    c.opt("--method", default="mean_abs_shap", choices=["mean_abs_shap", "permutation"])

    return parser


def main(argv=None) -> int:
    setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        command: _Command = args._command
        opts = command.resolve(args)
        command.handler(opts)
        _write_resolved(Path(opts["out"]), command.name, opts)
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
